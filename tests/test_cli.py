import csv
import inspect
import itertools
import json
import math
import time

import pytest

from harrisproc import acceptance, cli, mixture, sampling
from harrisproc.cli import build_parser, main
from harrisproc.distribution import (HarrisParams, harris_pmf, tail_bound_after,
                                     truncation_index)
from harrisproc.validation import ValidationReport

E = math.e


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    metadata, data_lines = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            metadata[key] = value
        else:
            data_lines.append(line)
    parsed = list(csv.reader(data_lines))
    return metadata, parsed[0], parsed[1:]


class TestPmf:
    def test_geometric_table(self, capsys):
        code, out, _ = run_cli(
            ["pmf", "--m", "2", "--k", "1", "--tail", "1e-6"], capsys
        )
        assert code == 0
        metadata, header, rows = parse_csv(out)
        assert header == ["n", "x", "probability", "cumulative"]
        assert rows[0] == ["0", "1", "0.5", "0.5"]
        assert rows[1] == ["1", "2", "0.25", "0.75"]
        assert float(rows[-1][3]) >= 1.0 - 1e-6

    def test_header_records_induced_scale(self, capsys):
        code, out, _ = run_cli(
            ["pmf", "--lambda", "0.5", "--k", "2", "--t", "1"], capsys
        )
        assert code == 0
        metadata, _, _ = parse_csv(out)
        assert metadata["mode"] == "birth"
        assert float(metadata["m"]) == pytest.approx(E, rel=1e-15)

    def test_mixture_mode(self, capsys):
        code, out, _ = run_cli(["pmf", "--a", "1", "--k", "2", "--t", "1"], capsys)
        assert code == 0
        metadata, _, _ = parse_csv(out)
        assert float(metadata["m"]) == 2.0

    def test_invalid_scale_exits_nonzero_citing_constraint(self, capsys):
        code, _, err = run_cli(["pmf", "--m", "1.0", "--k", "2"], capsys)
        assert code != 0
        assert "m must be > 1" in err

    def test_exactly_one_parameter_mode(self, capsys):
        code, _, err = run_cli(
            ["pmf", "--m", "2", "--lambda", "1", "--k", "1", "--t", "1"], capsys
        )
        assert code != 0
        assert "exactly one" in err

    def test_csv_numerics_round_trip(self, capsys):
        _, out, _ = run_cli(["pmf", "--m", str(E), "--k", "3"], capsys)
        _, _, rows = parse_csv(out)
        for row in rows:
            for cell in row[2:]:
                assert repr(float(cell)) == cell

    @pytest.mark.parametrize("m, k, tail", [(1000.0, 2, 1e-12), (2.0, 1, 1e-6),
                                            (1.1, 5, 1e-15)])
    def test_rows_equal_the_scalar_running_sum(self, m, k, tail, capsys):
        # reference: one scalar pmf call per row, a running Python sum, and
        # the stop at the first row whose later rows, summed from the far
        # end, plus the certified tail after the last row are <= tail
        params = HarrisParams(m, k)
        ns = range(truncation_index(params, min(tail, 1e-12)) + 2)
        probs = [harris_pmf(params, n) for n in ns]
        later = [0.0]
        for prob in probs[:0:-1]:
            later.append(later[-1] + prob)
        bound = tail_bound_after(params, ns[-1])
        expected, cumulative = [], 0.0
        for n, prob in zip(ns, probs):
            cumulative += prob
            expected.append([str(n), str(1 + n * k), repr(prob), repr(cumulative)])
            if later[-1 - n] + bound <= tail:
                break
        code, out, _ = run_cli(["pmf", "--m", repr(m), "--k", str(k),
                                "--tail", repr(tail)], capsys)
        assert code == 0
        assert parse_csv(out)[2] == expected

    @pytest.mark.parametrize("m, k, tail", [(1000.0, 2, 1e-12), (1000.0, 1, 1e-12),
                                            (2.0, 1, 1e-6), (50.0, 3, 1e-9)])
    def test_table_ends_where_the_true_tail_is_within_tail(self, m, k, tail,
                                                           capsys):
        from scipy.stats import nbinom
        code, out, _ = run_cli(["pmf", "--m", repr(m), "--k", str(k),
                                "--tail", repr(tail)], capsys)
        assert code == 0
        last = int(parse_csv(out)[2][-1][0])
        # P(I > n) for the event count I ~ NB(1/k, 1/m) of X = 1 + k*I
        true_tail = nbinom(1.0 / k, 1.0 / m).sf
        assert true_tail(last) <= tail
        # and one row sooner would not do, up to the few percent by which
        # the certified tail bound exceeds the true tail on these laws
        assert true_tail(last - 1) > 0.95 * tail

    @pytest.mark.parametrize("tail", ["2", "1", "0", "-0.5"])
    def test_tail_outside_unit_interval_rejected(self, tail, capsys):
        code, out, err = run_cli(["pmf", "--m", "2", "--k", "1", "--tail", tail],
                                 capsys)
        assert code == 2
        assert out == ""
        assert "--tail must lie in (0, 1)" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["pmf", "--m", "2", "--k", "1", "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["rows"][0] == {"n": 0, "x": 1, "probability": 0.5,
                                      "cumulative": 0.5}


class TestPgf:
    def test_series_agreement(self, capsys):
        code, out, _ = run_cli(["pgf", "--m", "2", "--k", "1"], capsys)
        assert code == 0
        metadata, _, rows = parse_csv(out)
        assert float(metadata["max_abs_diff"]) < 1e-10
        assert rows[0][:2] == ["0.0", "0.0"]
        assert float(rows[-1][0]) == 1.0
        assert float(rows[-1][1]) == pytest.approx(1.0, abs=1e-12)


class TestSimulate:
    def test_birth_report(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--model", "birth", "--lambda", "0.5", "--k", "2",
             "--t", "1", "--replicas", "5000", "--seed", "42",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        metadata, header, rows = parse_csv(out)
        assert metadata["overall"] == "true"
        # the counts-only sampler keeps no rows to check against its counts
        assert "coupling_violations" not in metadata
        assert header == ["n", "x", "observed", "expected"]
        assert sum(int(r[2]) for r in rows) == 5000

    def test_mixture_json_report_round_trips(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--model", "mixture", "--a", "1", "--k", "2",
             "--t", "1", "--replicas", "20000", "--seed", "42"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        report = ValidationReport.from_dict(payload["report"])
        assert report.overall
        assert report.scenario.model == "mixture"

    def test_zero_replicas_rejected(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--model", "birth", "--lambda", "0.5", "--k", "2",
             "--t", "1", "--replicas", "0"],
            capsys,
        )
        assert code != 0
        assert "replicas" in err

    @pytest.mark.parametrize("replicas", ["1", "99"])
    def test_replica_floor_refused_before_simulating(self, replicas, capsys,
                                                      monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("simulated below the replica floor")

        monkeypatch.setattr(acceptance, "tally_model1", never)
        code, out, err = run_cli(
            ["simulate", "--model", "birth", "--lambda", "1", "--k", "1",
             "--t", "1", "--replicas", replicas],
            capsys,
        )
        assert (code, out) == (2, "")
        assert "need at least 100 replicas" in err

    def test_horizon_past_the_event_cap_exits_2_before_any_draw(self, capsys,
                                                                monkeypatch):
        # the mean path to t = 14 has e**14 - 1 > MAX_EVENTS events
        monkeypatch.setattr(sampling, "RngStream", None)  # a draw raises TypeError
        code, out, err = run_cli(
            ["simulate", "--model", "birth", "--lambda", "1", "--k", "1",
             "--t", "14", "--replicas", "100"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert "averages 1.203e+06 events, more than 1000000" in err

    def test_a_run_expecting_a_path_past_the_event_cap_exits_2_before_any_draw(
            self, capsys, monkeypatch):
        # the mean path to t = 13 is under MAX_EVENTS, but 2000 paths expect
        # 2000 * (1 - e**-13)**1000001 = 208.6 of them past it
        monkeypatch.setattr(sampling, "RngStream", None)  # a draw raises TypeError
        code, out, err = run_cli(
            ["simulate", "--model", "birth", "--lambda", "1", "--k", "1",
             "--t", "13", "--replicas", "2000"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert "2000 paths to t=13.0 expect 208.6 of them past 1000000 events" in err

    @pytest.mark.parametrize("argv,message", [
        (["--model", "birth", "--lambda", "1e-300", "--t", "1",
          "--replicas", "3000000"], "m must be > 1 and finite, got 1.0"),
        (["--model", "mixture", "--a", "1e-320", "--t", "1"],
         "m must be > 1 and finite, got inf"),
    ])
    def test_invalid_law_exits_2_before_any_draw(self, argv, message, capsys,
                                                 monkeypatch):
        # a draw would raise TypeError
        monkeypatch.setattr(sampling, "RngStream", None)
        code, out, err = run_cli(["simulate", "--k", "2"] + argv, capsys)
        assert (code, out) == (2, "")
        # the refusal ends with the route's formula at the given inputs
        route = {"birth": "exp(t*lam*k) at t=1.0, lam=1e-300, k=2",
                 "mixture": "(a + t)/a at t=1.0, a=1e-320, k=2"}[argv[1]]
        assert err == f"error: scale parameter {message}: m = {route}\n"

    @pytest.mark.parametrize("replicas", [str(10**9 + 1), str(10**12)])
    def test_mixture_draws_past_the_budget_exit_2_before_any_draw(
            self, replicas, capsys, monkeypatch):
        # 1e12 draws were accepted and sampled for about a day
        monkeypatch.setattr(sampling, "RngStream", None)  # a draw would raise
        code, out, err = run_cli(["simulate", "--model", "mixture", "--a", "1",
                                  "--k", "2", "--t", "1", "--replicas", replicas],
                                 capsys)
        assert (code, out) == (2, "")
        assert err == (f"error: {replicas} mixture draws exceed the draw budget "
                       f"of 1000000000\n")

    # 4e8 paths of e - 1 events on average: 4e8 * e expected draws; 1e400
    # replicas are more than a float holds
    @pytest.mark.parametrize("replicas,draws", [("400000000", "1087312732"),
                                                (str(10**400), "inf")],
                             ids=["4e8", "1e400"])
    def test_birth_draws_past_the_budget_exit_2_before_any_draw(
            self, replicas, draws, capsys, monkeypatch):
        monkeypatch.setattr(sampling, "RngStream", None)  # a draw would raise
        code, out, err = run_cli(["simulate", "--model", "birth", "--lambda", "1",
                                  "--k", "1", "--t", "1", "--replicas", replicas],
                                 capsys)
        assert (code, out) == (2, "")
        assert err == (f"error: {draws} expected birth draws exceed the draw "
                       f"budget of 1000000000\n")

    @pytest.mark.parametrize("model,route", [("birth", "--lambda"),
                                             ("mixture", "--a")])
    def test_invalid_time_exits_2_before_any_draw(self, model, route, capsys,
                                                  monkeypatch):
        # a draw would raise TypeError
        monkeypatch.setattr(sampling, "RngStream", None)
        code, out, err = run_cli(["simulate", "--model", model, route, "1",
                                  "--k", "2", "--t", "inf"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: query time t must be > 0 and finite, got inf\n"

    def test_threads_flag_is_rejected(self, capsys):
        for command in (["simulate", "--model", "birth", "--lambda", "0.5",
                         "--k", "2", "--t", "1", "--replicas", "500"],
                        ["validate"]):
            with pytest.raises(SystemExit) as exc:
                main(command + ["--threads", "1"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --threads" in capsys.readouterr().err

    def test_identical_invocations_are_byte_identical(self, tmp_path, capsys):
        # determinism holds whatever the verdict, so only exit-code equality
        # and byte equality are asserted
        for fmt in ("csv", "json"):
            codes, paths = [], [tmp_path / f"run{i}.{fmt}" for i in (1, 2)]
            for path in paths:
                code, out, _ = run_cli(
                    ["simulate", "--model", "birth", "--lambda", "0.5",
                     "--k", "2", "--t", "1", "--replicas", "2000",
                     "--seed", "42", "--format", fmt, "--out", str(path)],
                    capsys,
                )
                codes.append(code)
                assert out == ""
            assert codes[0] == codes[1]
            assert paths[0].read_bytes() == paths[1].read_bytes()


class TestOde:
    def test_matches_closed_form(self, capsys):
        code, out, _ = run_cli(
            ["ode", "--lambda", "0.5", "--k", "2", "--t", "1"], capsys
        )
        assert code == 0
        metadata, _, _ = parse_csv(out)
        assert float(metadata["max_abs_diff"]) < 1e-8

    def test_yule_furry_column(self, capsys):
        code, out, _ = run_cli(
            ["ode", "--lambda", "1", "--k", "1", "--t", "0.7"], capsys
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        q = math.exp(-0.7)
        for row in rows[:10]:
            x = int(row[1])
            assert float(row[3]) == pytest.approx(q * (1 - q) ** (x - 1), rel=1e-12)

    def test_time_zero_single_row(self, capsys):
        code, out, _ = run_cli(
            ["ode", "--lambda", "0.5", "--k", "2", "--t", "0"], capsys
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert rows == [["0", "1", "1.0", "1.0", "0.0"]]

    def test_long_horizon_passes(self, capsys):
        # 1495 states with rates up to 1495: stiff enough that an explicit
        # solver's step-size control lets a probability go negative
        code, out, _ = run_cli(
            ["ode", "--lambda", "1", "--k", "1", "--t", "4"], capsys
        )
        assert code == 0
        metadata, _, _ = parse_csv(out)
        assert float(metadata["max_abs_diff"]) < 1e-9

    def test_failed_integration_exits_2_with_empty_stdout(self, capsys,
                                                          poisoned_band):
        poisoned_band(1, 0, math.nan)
        code, out, err = run_cli(
            ["ode", "--lambda", "1", "--k", "1", "--t", "4"], capsys
        )
        assert (code, out) == (2, "")
        assert "forward solve produced a non-finite probability" in err


class TestParameterGuards:
    """Inputs that once escaped main with a traceback end in exit 2."""

    @pytest.mark.parametrize("argv,message", [
        (["pmf", "--lambda", "1000", "--k", "1", "--t", "1"], "overflows"),
        (["pmf", "--m", "inf", "--k", "1"], "m must be > 1 and finite"),
        (["pmf", "--a", "1e-320", "--k", "1", "--t", "1"],
         "m must be > 1 and finite"),
        (["pgf", "--m", "1e300", "--k", "2"], "exceeded 1000000 terms"),
        (["ode", "--lambda", "50", "--k", "3", "--t", "1"],
         "exceeded 20000 terms"),
        # a query time that is not > 0 and finite, or a simulated law that
        # is no Harris law, refused before any draw
        *[(["simulate", "--model", model, route, value, "--k", "2", "--t", t,
            "--replicas", "1000"], message)
          for model, route, value, t, message in (
              *[(model, route, "1", t, "query time t must be > 0 and finite")
                for model, route in (("birth", "--lambda"), ("mixture", "--a"))
                for t in ("0", "-1", "nan", "inf")],
              *[(*case, "m must be > 1 and finite") for case in (
                  ("birth", "--lambda", "1e-300", "1"),
                  ("birth", "--lambda", "inf", "1"),
                  ("mixture", "--a", "1e300", "1"),
                  ("mixture", "--a", "1e-320", "1"))])],
        (["pgf", "--m", "1e300", "--k", "3"], "exceeded 1000000 terms"),
        (["pmf", "--m", "1e5", "--k", "1"], "exceeded 1000000 terms"),
        (["pmf", "--a", "1e-300", "--t", "1", "--k", "1"],
         "exceeded 1000000 terms"),
        # tails below the smallest normal float: no bound is relatively precise
        (["pmf", "--m", "25.191002639540564", "--k", "1", "--tail", "4e-322"],
         "tail bound must lie in"),
        (["pmf", "--m", "14.770960494304251", "--k", "1", "--tail", "1e-320"],
         "tail bound must lie in"),
        # past the draw budget, before the 8e16-byte count array is allocated
        pytest.param(["validate", "--replicas", str(10**16)],
                     "expected birth draws exceed the draw budget of 1000000000",
                     id="validate-replicas-1e16"),
        pytest.param(["simulate", "--model", "birth", "--lambda", "1", "--k", "1",
                      "--t", "1", "--replicas", str(10**16)],
                     "expected birth draws exceed the draw budget of 1000000000",
                     id="simulate-birth-replicas-1e16"),
        # past the --nmax bound, before the 8e16-byte count array is allocated
        pytest.param(["mixture-check", "--a", "1", "--k", "1", "--t", "1",
                      "--nmax", str(10**16)],
                     "--nmax must be >= 0 and <= 100000, got 10000000000000000",
                     id="mixture-check-nmax-1e16"),
        (["pmf", "--lambda", "1", "--k", "1", "--t", "0"],
         "query time t must be > 0 and finite, got 0.0"),
        (["mixture-check", "--a", "1", "--k", "1", "--t", "inf"],
         "query time t must be > 0 and finite, got inf"),
        # a refused m also names the route's inputs that gave it
        (["pmf", "--a", "1", "--k", "2", "--t", "1e-17"],
         "m must be > 1 and finite, got 1.0: m = (a + t)/a at t=1e-17, a=1.0, k=2"),
        (["pmf", "--lambda", "1", "--k", "2", "--t", "1e-17"],
         "m must be > 1 and finite, got 1.0: m = exp(t*lam*k) at t=1e-17, "
         "lam=1.0, k=2"),
        (["simulate", "--model", "mixture", "--a", "1e300", "--k", "2", "--t", "1",
          "--replicas", "1000"],
         "m must be > 1 and finite, got 1.0: m = (a + t)/a at t=1.0, a=1e+300, k=2"),
    ])
    def test_exit_2_with_message(self, argv, message, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize("argv,message", [
        *[pytest.param(["--calibration-seeds", seeds],
                       "calibration seeds must be >= 200", id=seeds)
          for seeds in ("0", "-3", "1", "9", "10", "25", "199")],
        pytest.param(["--replicas", "50"], "need at least 100 birth replicas",
                     id="replicas-50"),
        pytest.param(["--mixture-draws", "99"], "need at least 100 mixture draws",
                     id="mixture-draws-99"),
        # past sampling.MAX_DRAWS (1e9): about a day of sampling for 1e12
        pytest.param(["--mixture-draws", str(10**12)],
                     "1000000000000 mixture draws exceed the draw budget of "
                     "1000000000", id="mixture-draws-1e12"),
        pytest.param(["--mixture-draws", str(10**9 + 1)],
                     "1000000001 mixture draws exceed", id="mixture-draws-1e9+1"),
        pytest.param(["--calibration-seeds", str(10**5 + 1)],
                     "1000010000 calibration draws exceed the draw budget",
                     id="calibration-seeds-1e5+1"),
        # criterion 3's law takes 9.3e8 expected draws, criterion 5's 1.007e9
        pytest.param(["--replicas", str(5 * 10**8)],
                     "1006876354 expected birth draws exceed the draw budget",
                     id="replicas-5e8"),
        # RngStream's own message, given before criterion 1 runs
        pytest.param(["--seed", "-1"], "seed must be a nonnegative integer, got -1",
                     id="seed--1"),
    ])
    def test_calibration_seeds_checked_before_any_run(self, argv, message,
                                                      capsys, monkeypatch):
        def ran(*args, **kwargs):
            raise AssertionError("the battery ran")
        for name in ("solve_forward_odes", "solve_forward_odes_at", "run_scenario",
                     "tally_model1", "_exact_tally"):
            monkeypatch.setattr(acceptance, name, ran)
        code, out, err = run_cli(["validate"] + argv, capsys)
        assert (code, out) == (2, "")
        assert message in err

    # each exited 0 with the option silently ignored
    @pytest.mark.parametrize("argv", [
        ["ode", "--lambda", "1", "--k", "1", "--t", "0.5", "--m", "3"],
        ["ode", "--lambda", "1", "--k", "1", "--t", "0.5", "--a", "7"],
        ["mixture-check", "--a", "1", "--k", "2", "--t", "1", "--m", "3"],
        ["mixture-check", "--a", "1", "--k", "2", "--t", "1", "--lambda", "9"],
        ["simulate", "--model", "birth", "--lambda", "1", "--k", "1", "--t", "1",
         "--replicas", "1000", "--a", "5"],
        ["simulate", "--model", "mixture", "--a", "1", "--k", "2", "--t", "1",
         "--replicas", "1000", "--lambda", "5"],
        ["simulate", "--model", "mixture", "--a", "1", "--k", "2", "--t", "1",
         "--replicas", "1000", "--horizon", "9"],
        ["simulate", "--model", "birth", "--lambda", "1", "--k", "1", "--t", "1",
         "--replicas", "1000", "--horizon", "9"],
        ["pmf", "--m", "3", "--k", "1", "--t", "1"],
        # the verdict thresholds are fixed
        ["simulate", "--model", "birth", "--lambda", "1", "--k", "1", "--t", "1",
         "--replicas", "1000", "--alpha", "0.5"],
        ["pgf", "--m", "2", "--k", "1", "--tol", "1"],
        ["ode", "--lambda", "1", "--k", "1", "--t", "0.5", "--tol", "1"],
        ["ode", "--lambda", "1", "--k", "1", "--t", "0.5", "--tail", "1e-6"],
        ["mixture-check", "--a", "1", "--k", "2", "--t", "1", "--tol", "1"],
    ])
    def test_an_option_the_command_does_not_read_exits_2(self, argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert (code, capsys.readouterr().out) == (2, "")

    @pytest.mark.parametrize("argv", [
        ["pmf", "--m", "2", "--k", "1"],
        ["pgf", "--m", "2", "--k", "1"],
        ["simulate", "--model", "mixture", "--a", "1", "--k", "2", "--t", "1",
         "--replicas", "1000"],
        ["ode", "--lambda", "0.5", "--k", "2", "--t", "1"],
        ["mixture-check", "--a", "1", "--k", "2", "--t", "1", "--nmax", "2"],
        ["validate", "--replicas", "200", "--mixture-draws", "1000"],
    ])
    def test_unwritable_out_exits_2(self, argv, capsys, tmp_path):
        path = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(argv + ["--out", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(path) in err
        assert not path.parent.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--model", "birth", "--lambda", "1", "--k", "1", "--t", "1",
         "--replicas", "1000"],
        ["validate", "--replicas", "200", "--mixture-draws", "1000"],
    ])
    def test_unwritable_out_refused_before_simulating(self, argv, capsys,
                                                      monkeypatch, tmp_path):
        def ran(*args, **kwargs):
            raise AssertionError("ran with an unwritable --out")
        for name in ("solve_forward_odes", "solve_forward_odes_at",
                     "_mixture_quadrature", "tally_model1", "_exact_tally"):
            monkeypatch.setattr(acceptance, name, ran)
        monkeypatch.setattr(mixture, "sample_model2", ran)
        path = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(argv + ["--out", str(path)], capsys)
        assert (code, out) == (2, "")
        assert str(path) in err

    def test_failed_run_leaves_an_existing_out_file(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("kept\n")
        code, out, err = run_cli(
            ["mixture-check", "--a", "1", "--k", "2", "--t", "1", "--nmax", "-1",
             "--out", str(path)], capsys)
        assert (code, out) == (2, "")
        assert path.read_text() == "kept\n"

    # each was read as another option by argparse's prefix matching
    @pytest.mark.parametrize("argv,unrecognized", [
        (["simulate", "--model", "mixture", "--a", "1", "--k", "2", "--t", "1",
          "--replicas", "1000", "--m", "birth"], "--m birth"),
        (["simulate", "--model", "birth", "--lambda", "1", "--k", "1", "--t", "1",
          "--rep", "2000"], "--rep 2000"),
    ])
    def test_option_prefixes_are_not_expanded(self, argv, unrecognized, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert (f"unrecognized arguments: {unrecognized}"
                in capsys.readouterr().err)


class TestMixtureCheck:
    def test_quadrature_agreement(self, capsys):
        code, out, _ = run_cli(
            ["mixture-check", "--a", "2", "--k", "2", "--t", "1"], capsys
        )
        assert code == 0
        metadata, _, rows = parse_csv(out)
        assert float(metadata["max_abs_diff"]) < 1e-8
        assert len(rows) == 21

    def test_negative_nmax_rejected(self, capsys):
        code, out, err = run_cli(
            ["mixture-check", "--a", "2", "--k", "2", "--t", "1", "--nmax", "-1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "--nmax must be >= 0" in err

    def test_nmax_past_the_bound_is_refused_before_any_quadrature(
            self, monkeypatch, capsys):
        class Reached(Exception):
            pass

        def no_quadrature(*args):
            raise Reached

        monkeypatch.setattr(mixture, "_mixture_quadrature", no_quadrature)
        argv = ["mixture-check", "--a", "1", "--k", "2", "--t", "1", "--nmax"]
        code, out, err = run_cli(argv + [str(cli.MAX_NMAX + 1)], capsys)
        assert (code, out) == (2, "")
        assert err == (f"error: --nmax must be >= 0 and <= {cli.MAX_NMAX}, "
                       f"got {cli.MAX_NMAX + 1}\n")
        with pytest.raises(Reached):  # the bound itself is accepted
            main(argv + [str(cli.MAX_NMAX)])

    # the uncentred QUADPACK map got both wrong: quadrature 0.0 against a
    # 1e-3 law, and a 100% error that an absolute tolerance let pass
    @pytest.mark.parametrize("k,t", [("2", "1e6"), ("1", "1e9")])
    def test_large_time_rows_agree_relatively(self, k, t, capsys):
        code, out, _ = run_cli(["mixture-check", "--a", "1", "--k", k, "--t", t],
                               capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 21
        for row in rows:
            closed, quad = float(row[2]), float(row[3])
            assert abs(quad - closed) <= 1e-8 * closed

    def test_zero_count_drop_at_large_k_agrees(self, capsys):
        # the n = 0 integrand's drop sat on the first bisection point
        code, out, _ = run_cli(["mixture-check", "--a", "1", "--k", "1000",
                                "--t", "1e6", "--nmax", "0"], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        closed, quad = float(rows[0][2]), float(rows[0][3])
        assert abs(quad - closed) <= 1e-8 * closed

    def test_missing_mixing_rate(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mixture-check", "--k", "2", "--t", "1"])
        assert exc.value.code != 0
        assert "--a" in capsys.readouterr().err


class TestValidate:
    def test_scaled_down_grid_passes(self, capsys):
        code, out, _ = run_cli(
            ["validate", "--replicas", "5000", "--mixture-draws", "20000",
             "--calibration-seeds", "200"],
            capsys,
        )
        assert code == 0
        metadata, header, rows = parse_csv(out)
        assert metadata["overall"] == "true"
        assert header == ["criterion", "name", "passed", "detail"]
        assert [row[0] for row in rows] == [str(i) for i in range(1, 10)]
        assert all(row[2] == "true" for row in rows)

    def test_reruns_are_byte_identical(self, capsys, monkeypatch):
        # a clock ticking at a different pace in each run stands in for
        # solve times that differ between runs
        args = ["validate", "--replicas", "2000", "--mixture-draws", "20000",
                "--calibration-seeds", "200", "--format", "csv"]
        outputs = []
        for tick in (0.001, 0.002):
            clock = itertools.count(step=tick)
            monkeypatch.setattr(time, "perf_counter", lambda: next(clock))
            outputs.append(run_cli(args, capsys)[1])
        assert outputs[0] == outputs[1]


class TestParser:
    def test_validate_defaults_are_the_librarys(self):
        args = build_parser().parse_args(["validate"])
        defaults = inspect.signature(acceptance.run_acceptance).parameters
        assert (args.replicas, args.mixture_draws, args.calibration_seeds,
                args.seed) == tuple(defaults[name].default for name in (
                    "birth_replicas", "mixture_draws", "calibration_seeds",
                    "seed"))

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_nothing_leaks_between_calls(self, capsys, tmp_path):
        out = tmp_path / "table.json"
        assert run_cli(["pmf", "--m", "2", "--k", "1", "--format", "json",
                        "--tail", "1e-6", "--out", str(out)], capsys)[:2] == (0, "")
        assert json.loads(out.read_text())["metadata"]["tail"] == 1e-6
        with pytest.raises(SystemExit) as usage:
            main(["pmf", "--m", "2", "--k", "1", "--nmax", "3"])
        assert usage.value.code == 2
        capsys.readouterr()
        code, text, _ = run_cli(["pmf", "--m", "2", "--k", "1"], capsys)
        metadata, header, _ = parse_csv(text)
        assert code == 0
        assert header == ["n", "x", "probability", "cumulative"]
        assert float(metadata["tail"]) == 1e-12


def test_option_inventory():
    # every settable value of every subcommand; a new one must name the two
    # callers that need different values
    law, output = {"--k", "--t"}, {"--format", "--out"}
    routes = {"--m", "--lambda", "--a"}
    expected = {
        "pmf": law | routes | output | {"--tail"},
        "pgf": law | routes | output,
        "simulate": law | {"--lambda", "--a"} | output
        | {"--model", "--replicas", "--seed"},
        "ode": law | {"--lambda"} | output,
        "mixture-check": law | {"--a"} | output | {"--nmax"},
        "validate": output | {"--replicas", "--mixture-draws",
                              "--calibration-seeds", "--seed"},
    }
    subcommands = next(action.choices for action in build_parser()._actions
                       if action.dest == "subcommand")
    found = {name: {flag for action in parser._actions
                    for flag in action.option_strings} - {"-h", "--help"}
             for name, parser in subcommands.items()}
    assert found == expected
    assert sum(map(len, found.values())) == 41


def test_command_and_criterion_share_each_threshold(capsys):
    def metadata(argv):
        code, out, _ = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0
        return json.loads(out)["metadata"]

    assert metadata(["ode", "--lambda", "0.5", "--k", "2", "--t", "1"])[
        "tol"] == acceptance.ODE_GAP
    assert metadata(["mixture-check", "--a", "1", "--k", "2", "--t", "1"])[
        "tol"] == acceptance.QUAD_GAP
    assert metadata(["simulate", "--model", "mixture", "--a", "1", "--k", "2",
                     "--t", "1", "--replicas", "1000"])[
        "alpha"] == acceptance.GOF_ALPHA
    for result, gap in ((acceptance._check_ode_grid(), acceptance.ODE_GAP),
                        (acceptance._check_quadrature_grid(),
                         acceptance.QUAD_GAP),
                        (acceptance._check_yule_furry(2000, 42),
                         acceptance.ODE_GAP)):
        assert f"(budget {gap:.0e})" in result.detail
