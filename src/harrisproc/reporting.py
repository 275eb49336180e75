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
import math
from dataclasses import fields, replace
from functools import partial
from json.encoder import encode_basestring_ascii

import numpy as np

from .sampling import GENERATOR_ALGORITHM

SCHEMA_VERSION = 1

__all__ = ["SCHEMA_VERSION", "fmt_value", "render_csv", "render_json",
           "envelope", "simulate_text"]


def fmt_value(value) -> str:
    """Render one cell of a built-in type; booleans in lower case.

    str of a float is its repr, the shortest text that parses back to the
    same double, so floats round-trip losslessly.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


_NUMERIC = {bool, int, float}


def _cells(column: list, kinds: set, fmt: str):
    """The column's cells as CSV or JSON text, lazily, one formatter per column.

    kinds is the set of the cells' types.  A column of ints, or of floats
    (all finite, for JSON), maps its type's repr and skips the dispatch per
    cell; a JSON column of strings maps encode_basestring_ascii, which is
    what json.dumps calls for a str.  The text is the same.  Other cells go
    through fmt_value for CSV and json.dumps for JSON, which raises
    ValueError on a non-finite float.
    """
    if kinds == {int} or kinds == {float} and (fmt == "csv"
                                               or all(map(math.isfinite, column))):
        return map(next(iter(kinds)).__repr__, column)
    if kinds == {str} and fmt == "json":
        return map(encode_basestring_ascii, column)
    return map(fmt_value if fmt == "csv" else partial(json.dumps, allow_nan=False),
               column)


def render_csv(metadata: dict, header, columns) -> str:
    """Comment-prefixed metadata lines, a header row, then the data rows.

    Cells are minimally quoted, so free-text columns may contain commas;
    rows of numbers and booleans need no quoting and are joined directly.
    """
    buffer = io.StringIO()
    for key, value in metadata.items():
        buffer.write(f"# {key}={fmt_value(value)}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    kinds = [set(map(type, column)) for column in columns]
    rows = zip(*(_cells(column, kind, "csv") for column, kind in zip(columns, kinds)))
    if all(kind <= _NUMERIC for kind in kinds):
        # no cell can need quoting; skipping csv.writer's per-field scan
        # halves the time of a 25k-row table
        for row in rows:
            buffer.write(",".join(row) + "\n")
    else:
        writer.writerows(rows)
    return buffer.getvalue()


def render_json(head: dict, rows_key: str, header, columns) -> str:
    """Indented JSON: head's keys in order, then the rows under rows_key.

    The text is ``json.dumps({**head, rows_key: rows}, indent=2,
    allow_nan=False, default=vars)`` and a newline, rows being one object
    per row, for string column names, rows_key not in head and scalar cells;
    a dataclass in head is written as its fields.  Only the head goes
    through json.dumps, whose indent mode runs the pure-Python encoder;
    each row fills one %-template built from the header.
    """
    text = json.dumps({**head, rows_key: []}, indent=2, allow_nan=False,
                      default=vars)
    body = _json_objects(header, columns, 4)
    if not body:
        return text + "\n"
    # text ends with the empty rows list: "[]\n}"
    return text[:-4] + "[\n" + body + "\n  ]\n}\n"


def _json_objects(header, columns, indent: int) -> str:
    """The items of a list of row objects as json.dumps(indent=2) writes
    them indent spaces deep, without the brackets; each row fills one
    %-template built from the header."""
    rows = zip(*(_cells(column, set(map(type, column)), "json") for column in columns))
    keys = (json.dumps(name).replace("%", "%%") for name in header)
    pad = " " * indent
    template = (pad + "{" + ",".join(f"\n{pad}  {key}: %s" for key in keys)
                + f"\n{pad}}}")
    return ",\n".join(map(template.__mod__, rows))


def envelope(command: str, fmt: str, metadata: dict, columns: dict,
             rows_key: str = "rows", **sections) -> str:
    """The output of every subcommand, as CSV or JSON.

    columns maps each column name, in order, to its values (a numpy array
    or a list of equal length).  CSV: ``# command=``, ``# schema_version=``
    and the metadata as comment lines, then the header and the rows.  JSON:
    schema_version, command, metadata, the extra sections in order, then
    the rows as objects under rows_key.  Each column is converted once and
    its cells formatted by one function for its type, in either format.
    """
    header = list(columns)
    lists = [c.tolist() if isinstance(c, np.ndarray) else list(c)
             for c in columns.values()]
    if fmt == "csv":
        return render_csv({"command": command, "schema_version": SCHEMA_VERSION,
                           **metadata}, header, lists)
    return render_json({"schema_version": SCHEMA_VERSION, "command": command,
                        "metadata": metadata, **sections}, rows_key, header, lists)


def _verdict_fields(prefix: str, check) -> dict:
    return {f"{prefix}_{f.name}": getattr(check, f.name) for f in fields(check)
            if f.name not in ("alpha", "bins")}


def simulate_text(run, fmt: str) -> str:
    """The exact text the simulate command emits for a ScenarioRun."""
    report = run.report
    scenario = report.scenario
    meta = {"model": scenario.model, **scenario.params, "t": scenario.t}
    if scenario.model == "birth":  # the paths are simulated to t
        meta["horizon"] = scenario.t
    meta.update(replicas=scenario.replicas, seed=scenario.seed,
                alpha=report.gof.alpha, rng=GENERATOR_ALGORITHM,
                **_verdict_fields("gof", report.gof),
                **_verdict_fields("mean", report.mean_check),
                **_verdict_fields("var", report.var_check),
                overall=report.overall)
    k = int(scenario.params["k"])
    xs = sorted(run.expected_counts)
    columns = {"n": [(x - 1) // k for x in xs], "x": xs,
               "observed": [run.observed.get(x, 0) for x in xs],
               "expected": [run.expected_counts[x] for x in xs]}
    if fmt == "csv":  # only JSON carries the full report; CSV would drop it
        return envelope("simulate", fmt, meta, columns, rows_key="empirical")
    # the report goes through json.dumps without its bins, which are then
    # written from columns like the rows: the text of dumping them whole
    gof = report.gof
    text = envelope("simulate", fmt, meta, columns, rows_key="empirical",
                    report=replace(report, gof=replace(gof, bins=())))
    names = [f.name for f in fields(gof.bins[0])]
    bins = _json_objects(names, [[getattr(b, name) for b in gof.bins]
                                 for name in names], 8)
    # the report holds the only "bins" key; a goodness of fit has two bins or more
    return text.replace('"bins": []', '"bins": [\n' + bins + "\n      ]", 1)
