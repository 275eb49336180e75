import csv
import dataclasses
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from harrisproc import cli, mixture, reporting
from harrisproc.acceptance import run_scenario
from harrisproc.birth import ProcessParams
from harrisproc.cli import main
from harrisproc.mixture import MixtureParams, sample_model2
from harrisproc.reporting import envelope, fmt_value, simulate_text
from harrisproc.validation import gof_support


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


def _long_columns(n, finite):
    """Deterministic columns of n cells: ints past 64 bits, floats (the
    non-finite ones unless finite), a float array, bools, ints and floats
    mixed, and text with commas and quotes."""
    floats = [-0.0, 5e-324, 1e16, 0.1, -1e-300, 1.7976931348623157e308]
    floats += [] if finite else [math.nan, math.inf, -math.inf]
    return {
        "int": [(-1) ** i * (i ** 7 + (2 ** 70 if i % 5 == 0 else 0))
                for i in range(n)],
        "float": [floats[i % len(floats)] * (-1) ** (i // len(floats))
                  for i in range(n)],
        "array": np.arange(n) / 7.0 - 100.0,
        "bool": [i % 3 == 0 for i in range(n)],
        "mixed": [i if i % 2 else i / 4 for i in range(n)],
        "text": [f'a,"{i}"' if i % 2 else str(i) for i in range(n)],
    }


@pytest.mark.parametrize("text", [False, True], ids=["numbers", "text"])
@pytest.mark.parametrize("n", [0, 1, 2, 3000])
def test_long_csv_table_renders_as_the_per_cell_reference(n, text):
    columns = _long_columns(n, finite=False)
    if not text:  # a table of numbers and booleans skips csv.writer
        del columns["text"]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    values = [c.tolist() if isinstance(c, np.ndarray) else c
              for c in columns.values()]
    writer.writerows([fmt_value(cell) for cell in row] for row in zip(*values))
    assert envelope("t", "csv", {"n": n}, columns) == (
        f"# command=t\n# schema_version=1\n# n={n}\n" + buffer.getvalue())


@pytest.mark.parametrize("n", [0, 1, 2, 3000])
def test_long_json_table_is_the_indented_dump(n):
    columns = _long_columns(n, finite=True)
    values = [c.tolist() if isinstance(c, np.ndarray) else c
              for c in columns.values()]
    payload = {"schema_version": 1, "command": "t", "metadata": {"n": n},
               "rows": [dict(zip(columns, row)) for row in zip(*values)]}
    assert envelope("t", "json", {"n": n}, columns) == json.dumps(
        payload, indent=2, allow_nan=False) + "\n"
    if n:
        columns["float"][-1] = math.nan
        with pytest.raises(ValueError):
            envelope("t", "json", {}, columns)


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
        "overall"]
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
     "--calibration-seeds", "200"],
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


def _reference_rows(run):
    """simulate's empirical rows built per point, from a dict of each shown
    point's expected count as run_scenario made it."""
    scenario = run.report.scenario
    params = scenario.params
    law = (ProcessParams(params["lambda"], params["k"]) if scenario.model == "birth"
           else MixtureParams(params["a"], params["k"])).harris_at(scenario.t)
    largest = max(run.observed)
    support, probs = gof_support(law, largest, scenario.replicas)
    shown = support <= largest
    expected_counts = dict(zip(support[shown].tolist(),
                               (scenario.replicas * probs[shown]).tolist()))
    xs = sorted(expected_counts)
    return {"n": [(x - 1) // params["k"] for x in xs], "x": xs,
            "observed": [run.observed.get(x, 0) for x in xs],
            "expected": [expected_counts[x] for x in xs]}


def _off_lattice(*args, **kwargs):
    """Model 2's draws with one moved off the lattice {1, 4, 7, ...} of
    k = 3 and one moved past the largest lattice point drawn."""
    draws = sample_model2(*args, **kwargs)
    draws[0] = 2
    draws[1] = draws.max() + 2
    return draws


# the law and seed 1 run of the birth-deep benchmark workload: 4,479
# mostly empty lattice points
DEEP_BIRTH = {"lam": 1.0, "k": 1, "t": 6.0, "seed": 1880700755}


@pytest.mark.parametrize("model, law, patched", [
    ("birth", DEEP_BIRTH, False),
    ("mixture", {"a": 1.0, "k": 3, "t": 2.0, "seed": 5}, False),
    ("mixture", {"a": 1.0, "k": 3, "t": 2.0, "seed": 5}, True),
], ids=["deep-birth", "mixture-k3", "off-lattice"])
def test_simulate_rows_are_the_per_point_reference(model, law, patched,
                                                   monkeypatch):
    if patched:
        monkeypatch.setattr(mixture, "sample_model2", _off_lattice)
    run = run_scenario(model, replicas=2000, **law)
    reference = _reference_rows(run)
    rows = list(zip(*reference.values()))
    if patched:  # both moved draws are tallied and neither is shown
        assert run.observed[2] == 1 and max(run.observed) not in reference["x"]
        assert sum(reference["observed"]) == 2000 - 2
    else:
        assert sum(reference["observed"]) == 2000
    csv_text = simulate_text(run, "csv")
    assert csv_text.split("\nn,x,observed,expected\n")[1] == "".join(
        ",".join(map(fmt_value, row)) + "\n" for row in rows)
    empirical = json.loads(simulate_text(run, "json"))["empirical"]
    assert empirical == [dict(zip(reference, row)) for row in rows]
    assert [list(map(type, row.values())) for row in empirical] == [
        list(map(type, row)) for row in rows]


# tracemalloc peaks of rendering each output by the renderer this one
# replaced, which formatted each row on its own (CPython 3.11, numpy 2.4):
# the pmf table of m = 1000, k = 2 (25,435 rows) and the simulate JSON of
# the DEEP_BIRTH run (4,479 rows and 316 bins)
PEAK_BEFORE = {"pmf csv": 7_920_566, "pmf json": 13_688_059,
               "simulate json": 1_489_274}
# room for other builds' allocation sizes; the peaks measured after the
# change were 7.17, 11.21 and 1.42 MB
PEAK_SLACK = 0.05


def _traced_peak(render):
    render()  # caches and lazy imports are not rendering
    tracemalloc.start()
    try:
        render()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rendering_peak_memory_is_bounded(monkeypatch, capsys):
    tables = []
    monkeypatch.setattr(cli, "envelope", lambda *args: tables.append(args) or "")
    main(["pmf", "--m", "1000", "--k", "2"])
    capsys.readouterr()
    (command, _, meta, columns), = tables
    run = run_scenario("birth", replicas=2000, **DEEP_BIRTH)
    peaks = {f"pmf {fmt}": _traced_peak(lambda: envelope(command, fmt, meta,
                                                         columns))
             for fmt in ("csv", "json")}
    peaks["simulate json"] = _traced_peak(lambda: simulate_text(run, "json"))
    assert {name: peak for name, peak in peaks.items()
            if peak > PEAK_BEFORE[name] * (1 + PEAK_SLACK)} == {}
