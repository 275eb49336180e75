"""Deterministic CSV and JSON rendering behind one output envelope.

Identical inputs must yield byte-identical output, so everything here is
purely a function of its arguments: no timestamps, no environment lookups,
insertion-ordered keys, LF line endings, and floats written with ``repr``
(the shortest representation that parses back to the same double).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, fields

import numpy as np

from .sampling import GENERATOR_ALGORITHM

SCHEMA_VERSION = 1

__all__ = ["SCHEMA_VERSION", "fmt_value", "render_csv", "render_json",
           "envelope", "simulate_text"]


def fmt_value(value) -> str:
    """Render one cell; floats round-trip losslessly through repr."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def render_csv(metadata: dict, header, rows) -> str:
    """Comment-prefixed metadata lines, a header row, then the data rows.

    Cells are minimally quoted, so free-text columns may contain commas.
    """
    buffer = io.StringIO()
    for key, value in metadata.items():
        buffer.write(f"# {key}={fmt_value(value)}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt_value(cell) for cell in row])
    return buffer.getvalue()


def render_json(payload: dict) -> str:
    """Indented JSON with insertion-ordered keys and a trailing newline."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def envelope(command: str, fmt: str, metadata: dict, header, rows,
             rows_key: str = "rows", **sections) -> str:
    """The output of every subcommand, as CSV or JSON.

    CSV: ``# command=``, ``# schema_version=`` and the metadata as comment
    lines, then the header and the rows.  JSON: schema_version, command,
    metadata, the extra sections in order, then the rows as objects under
    rows_key.
    """
    if fmt == "csv":
        return render_csv({"command": command, "schema_version": SCHEMA_VERSION,
                           **metadata}, header, rows)
    return render_json({"schema_version": SCHEMA_VERSION, "command": command,
                        "metadata": metadata, **sections,
                        rows_key: [dict(zip(header, row)) for row in rows]})


def _verdict_fields(prefix: str, check) -> dict:
    return {f"{prefix}_{f.name}": getattr(check, f.name) for f in fields(check)
            if f.name not in ("alpha", "bins")}


def simulate_text(run, fmt: str) -> str:
    """The exact text the simulate command emits for a ScenarioRun."""
    report = run.report
    scenario = report.scenario
    meta = {"model": scenario.model, **scenario.params, "t": scenario.t}
    if run.horizon is not None:
        meta["horizon"] = run.horizon
    meta.update(replicas=scenario.replicas, seed=scenario.seed,
                alpha=report.gof.alpha, rng=GENERATOR_ALGORITHM,
                **_verdict_fields("gof", report.gof),
                **_verdict_fields("mean", report.mean_check),
                **_verdict_fields("var", report.var_check),
                coupling_violations=run.coupling_violations,
                overall=report.overall)
    k = int(scenario.params["k"])
    rows = [((x - 1) // k, x, run.observed.get(x, 0), expected)
            for x, expected in sorted(run.expected_counts.items())]
    # only JSON carries the full report; CSV would drop it
    sections = {"report": asdict(report)} if fmt == "json" else {}
    return envelope("simulate", fmt, meta, ("n", "x", "observed", "expected"),
                    rows, rows_key="empirical", **sections)
