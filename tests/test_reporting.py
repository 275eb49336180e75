import json

import pytest

from harrisproc.acceptance import run_scenario
from harrisproc.reporting import envelope, simulate_text


def test_csv_envelope_leads_with_command_and_schema():
    text = envelope("pmf", "csv", {"m": 2.0, "passed": True}, ("n", "p"),
                    [(0, 0.5), (1, 0.25)])
    assert text == ("# command=pmf\n# schema_version=1\n# m=2.0\n"
                    "# passed=true\nn,p\n0,0.5\n1,0.25\n")


def test_json_envelope_orders_sections_before_rows():
    payload = json.loads(envelope("simulate", "json", {"seed": 3}, ("n", "p"),
                                  [(0, 0.5)], rows_key="empirical",
                                  report={"overall": True}))
    assert list(payload) == ["schema_version", "command", "metadata", "report",
                             "empirical"]
    assert payload["command"] == "simulate"
    assert payload["metadata"] == {"seed": 3}
    assert payload["empirical"] == [{"n": 0, "p": 0.5}]


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
