import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from harrisproc import reporting
from harrisproc.acceptance import run_scenario
from harrisproc.cli import main
from harrisproc.reporting import envelope, fmt_value, simulate_text


def test_csv_envelope_leads_with_command_and_schema():
    text = envelope("pmf", "csv", {"m": 2.0, "passed": True},
                    {"n": [0, 1], "p": [0.5, 0.25]})
    assert text == ("# command=pmf\n# schema_version=1\n# m=2.0\n"
                    "# passed=true\nn,p\n0,0.5\n1,0.25\n")


def test_json_envelope_orders_sections_before_rows():
    payload = json.loads(envelope("simulate", "json", {"seed": 3},
                                  {"n": [0], "p": [0.5]}, rows_key="empirical",
                                  report={"overall": True}))
    assert list(payload) == ["schema_version", "command", "metadata", "report",
                             "empirical"]
    assert payload["command"] == "simulate"
    assert payload["metadata"] == {"seed": 3}
    assert payload["empirical"] == [{"n": 0, "p": 0.5}]


def _columns(n):
    """Strategies for one column of n cells, as a list or a numpy array."""
    def of(cells):
        return st.lists(cells, min_size=n, max_size=n)
    floats = st.floats()  # +-inf, nan and subnormals included
    ints = st.integers(-2**63, 2**63)
    return st.one_of(
        of(floats), of(floats).map(np.array),
        of(ints), of(st.integers(-2**63, 2**63 - 1)).map(
            lambda cells: np.array(cells, dtype=np.int64)),
        of(st.booleans()), of(st.booleans()).map(np.array),
        of(st.text(alphabet='ab ,"\n\r')),
        of(st.one_of(ints, floats)))


TABLES = st.integers(0, 8).flatmap(
    lambda n: st.lists(_columns(n), min_size=1, max_size=5))


@given(TABLES)
def test_columns_render_as_the_per_cell_reference(table):
    header = [f"c{i}" for i in range(len(table))]
    columns = dict(zip(header, table))
    # envelope converts each array column to built-in cells before rendering
    values = [c.tolist() if isinstance(c, np.ndarray) else c for c in table]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([fmt_value(cell) for cell in row] for row in zip(*values))
    assert envelope("t", "csv", {}, columns) == (
        "# command=t\n# schema_version=1\n" + buffer.getvalue())

    expected = [dict(zip(header, row)) for row in zip(*values)]
    if not all(math.isfinite(v) for column in values for v in column
               if isinstance(v, float)):
        with pytest.raises(ValueError):
            envelope("t", "json", {}, columns)
        return
    rows = json.loads(envelope("t", "json", {}, columns))["rows"]
    # == alone would let 1 stand for True or 1.0
    assert rows == expected
    assert [list(map(type, row.values())) for row in rows] == [
        list(map(type, row.values())) for row in expected]


FINITE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # subnormals included
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308]))
JSON_INTS = st.integers(-2**63, 2**63)
JSON_TEXT = st.one_of(st.text(), st.sampled_from(['"', '\\"\n', "é%s", "\u2028 ∞"]))
JSON_SCALARS = st.one_of(st.none(), st.booleans(), FINITE_FLOATS, JSON_INTS,
                         JSON_TEXT)


def _json_columns(n):
    """One column of n JSON scalars, as a list or a numpy array."""
    def of(cells):
        return st.lists(cells, min_size=n, max_size=n)
    return st.one_of(
        of(FINITE_FLOATS), of(FINITE_FLOATS).map(np.array),
        of(JSON_INTS), of(st.integers(-2**63, 2**63 - 1)).map(
            lambda cells: np.array(cells, dtype=np.int64)),
        of(st.booleans()), of(st.booleans()).map(np.array),
        of(JSON_TEXT), of(st.one_of(JSON_INTS, FINITE_FLOATS)),
        of(JSON_SCALARS))


JSON_TABLES = st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.lists(JSON_TEXT, max_size=4, unique=True),
    st.lists(_json_columns(n), min_size=4, max_size=4)))
SECTIONS = st.dictionaries(
    st.sampled_from(["report", "notes", "é"]),
    st.recursive(JSON_SCALARS, lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(JSON_TEXT, children, max_size=3)), max_leaves=8))


@given(JSON_TABLES, st.dictionaries(JSON_TEXT, JSON_SCALARS, max_size=3),
       SECTIONS, st.sampled_from(["rows", "empirical"]))
def test_json_envelope_is_the_indented_dump(table, metadata, sections, rows_key):
    header, columns = table
    columns = dict(zip(header, columns))
    values = [c.tolist() if isinstance(c, np.ndarray) else c
              for c in columns.values()]
    payload = {"schema_version": 1, "command": "t", "metadata": metadata,
               **sections,
               rows_key: [dict(zip(header, row)) for row in zip(*values)]}
    assert envelope("t", "json", metadata, columns, rows_key=rows_key,
                    **sections) == json.dumps(payload, indent=2,
                                              allow_nan=False) + "\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", [
    lambda bad: [0.5, bad], lambda bad: np.array([bad, 0.5]),
    lambda bad: [1, bad], lambda bad: ["a", bad]])
def test_json_envelope_refuses_a_non_finite_cell(bad, column):
    with pytest.raises(ValueError):
        envelope("t", "json", {}, {"n": [0, 1], "p": column(bad)})
    with pytest.raises(ValueError):
        envelope("t", "json", {"tail": bad}, {"n": [0]})


@pytest.mark.parametrize("model, law", [("birth", {"lam": 0.5}),
                                        ("mixture", {"a": 1.0})])
def test_simulate_metadata_keys(model, law):
    run = run_scenario(model, k=2, t=1.0, replicas=2000, seed=3, **law)
    meta = json.loads(simulate_text(run, "json"))["metadata"]
    head = ["model", "lambda" if model == "birth" else "a", "k", "t"]
    head += ["horizon"] if model == "birth" else []
    assert list(meta) == head + [
        "replicas", "seed", "alpha", "rng", "gof_statistic",
        "gof_degrees_of_freedom", "gof_threshold", "gof_passed",
        "mean_empirical", "mean_analytic", "mean_std_error", "mean_passed",
        "var_empirical", "var_analytic", "var_rel_tol", "var_passed",
        "coupling_violations", "overall"]
    assert meta["alpha"] == run.report.gof.alpha
    assert meta["var_rel_tol"] == run.report.var_check.rel_tol
    assert meta.get("horizon", meta["t"]) == meta["t"]


# one run of each subcommand, simulate once per model
SUBCOMMANDS = [
    ["pmf", "--m", "3", "--k", "2"],
    ["pgf", "--lambda", "0.5", "--k", "2", "--t", "1"],
    ["simulate", "--model", "birth", "--lambda", "0.5", "--k", "2", "--t", "1",
     "--replicas", "2000"],
    ["simulate", "--model", "mixture", "--a", "1", "--k", "2", "--t", "1",
     "--replicas", "2000"],
    ["ode", "--lambda", "0.5", "--k", "2", "--t", "1"],
    ["mixture-check", "--a", "1", "--k", "2", "--t", "1"],
    ["validate", "--replicas", "2000", "--mixture-draws", "20000",
     "--calibration-seeds", "25"],
]


def _leaves(value):
    # render_json writes a dataclass as its fields (json.dumps default=vars)
    if dataclasses.is_dataclass(value):
        value = vars(value)
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: " ".join(argv[:3]))
def test_only_builtin_scalars_reach_the_renderers(argv, fmt, monkeypatch, capsys):
    # fmt_value has no numpy branch: an np.bool_ would render as True, not true
    seen = []
    real_fmt, real_csv, real_json = (reporting.fmt_value, reporting.render_csv,
                                     reporting.render_json)

    def fmt_spy(value):
        seen.append(value)
        return real_fmt(value)

    def csv_spy(metadata, header, columns):
        seen.extend(_leaves(metadata))
        return real_csv(metadata, header, columns)

    def json_spy(head, rows_key, header, columns):
        seen.extend(_leaves(head))
        return real_json(head, rows_key, header, columns)

    monkeypatch.setattr(reporting, "fmt_value", fmt_spy)
    monkeypatch.setattr(reporting, "render_csv", csv_spy)
    monkeypatch.setattr(reporting, "render_json", json_spy)
    assert main(argv + ["--format", fmt]) in (0, 1)
    capsys.readouterr()
    assert seen
    assert {type(value) for value in seen} <= {bool, int, float, str}
