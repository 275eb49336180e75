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


def _cells(column, fmt: str) -> tuple:
    """A column as its cells, the set of their types, and whether the cells
    go in raw: ints, or floats (all finite, for JSON), stay built-in scalars,
    whose type's repr %r writes.  Other cells become text: a JSON string
    through encode_basestring_ascii, which is what json.dumps calls for a
    str; others through fmt_value for CSV and json.dumps for JSON, which
    raises ValueError on a non-finite float.  The types of an int64 or
    float64 array are read off its dtype (and its finiteness by
    np.isfinite), those of any other column off every cell."""
    cells = column.tolist() if isinstance(column, np.ndarray) else list(column)
    typed = isinstance(column, np.ndarray) and column.dtype in (np.int64, np.float64)
    kind = {type(cells[0])} if typed and cells else set(map(type, cells))
    if kind == {int} or kind == {float} and (fmt == "csv" or np.isfinite(column).all()):
        return cells, kind, True
    text = (encode_basestring_ascii if kind == {str} and fmt == "json" else
            fmt_value if fmt == "csv" else partial(json.dumps, allow_nan=False))
    return list(map(text, cells)), kind, False


def _body(cells: list, labels: list, end: str, sep: str) -> str:
    """The rows of a table as CSV or JSON text, filled in by one % call.

    A row is labels[i] then cell i of column i, then end; rows are joined by
    sep.  The columns, from _cells, are interleaved into one flat list of
    cells, and each is written under %r if raw, else under %s.
    """
    n = len(cells[0][0]) if cells else 0
    flat = [None] * (n * len(cells))
    row = ""
    for i, (label, (column, _, raw)) in enumerate(zip(labels, cells)):
        flat[i::len(cells)] = column
        row += label.replace("%", "%%") + ("%r" if raw else "%s")
    return sep.join([row + end] * n) % tuple(flat)


def render_csv(metadata: dict, header, columns) -> str:
    """Comment-prefixed metadata lines, a header row, then the data rows.

    Cells are minimally quoted, so free-text columns may contain commas;
    rows of numbers and booleans need no quoting and are written by _body.
    """
    buffer = io.StringIO()
    for key, value in metadata.items():
        buffer.write(f"# {key}={fmt_value(value)}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    cells = [_cells(column, "csv") for column in columns]
    if all(kind <= {bool, int, float} for _, kind, _ in cells):
        # no cell can need quoting; skipping csv.writer's per-field scan
        # halves the time of a 25k-row table
        body = _body(cells, [""] + [","] * (len(cells) - 1), "", "\n")
        buffer.write(body)
        buffer.write(body and "\n")
    else:
        writer.writerows(zip(*(column for column, _, _ in cells)))
    return buffer.getvalue()


def render_json(head: dict, rows_key: str, header, columns) -> str:
    """Indented JSON: head's keys in order, then the rows under rows_key.

    The text is ``json.dumps({**head, rows_key: rows}, indent=2,
    allow_nan=False, default=vars)`` and a newline, rows being one object
    per row, for string column names, rows_key not in head and scalar cells;
    a dataclass in head is written as its fields.  Only the head goes
    through json.dumps, whose indent mode runs the pure-Python encoder;
    the rows are written by _body.
    """
    text = json.dumps({**head, rows_key: []}, indent=2, allow_nan=False,
                      default=vars)
    body = _json_objects(header, columns, 4)
    if not body:
        return text + "\n"
    # text ends with the empty rows list: "[]\n}"
    return "".join((text[:-4], "[\n", body, "\n  ]\n}\n"))


def _json_objects(header, columns, indent: int) -> str:
    """The items of a list of row objects as json.dumps(indent=2) writes
    them indent spaces deep, without the brackets."""
    pad = " " * indent
    labels = [(pad + "{" if i == 0 else ",") + f"\n{pad}  {json.dumps(name)}: "
              for i, name in enumerate(header)]
    return _body([_cells(column, "json") for column in columns], labels,
                 f"\n{pad}}}", ",\n")


def envelope(command: str, fmt: str, metadata: dict, columns: dict,
             rows_key: str = "rows", **sections) -> str:
    """The output of every subcommand, as CSV or JSON.

    columns maps each column name, in order, to its values (a numpy array
    or a list of equal length).  CSV: ``# command=``, ``# schema_version=``
    and the metadata as comment lines, then the header and the rows.  JSON:
    schema_version, command, metadata, the extra sections in order, then
    the rows as objects under rows_key.  Each column is converted once and
    its cells formatted by one function for its kind, in either format.
    """
    header, values = list(columns), list(columns.values())
    if fmt == "csv":
        return render_csv({"command": command, "schema_version": SCHEMA_VERSION,
                           **metadata}, header, values)
    return render_json({"schema_version": SCHEMA_VERSION, "command": command,
                        "metadata": metadata, **sections}, rows_key, header, values)


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
    x = run.shown
    values = np.fromiter(run.observed, np.int64, len(run.observed))
    counts = np.fromiter(run.observed.values(), np.int64, len(values))
    on = np.isin(values, x)  # a value on no shown point is not shown
    observed = np.zeros(len(x), np.int64)
    observed[np.searchsorted(x, values[on])] = counts[on]
    columns = {"n": (x - 1) // int(scenario.params["k"]), "x": x,
               "observed": observed, "expected": run.expected}
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
