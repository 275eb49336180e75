import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from harrisproc import acceptance, birth, sampling
from harrisproc.birth import (
    BLOCK_SIZE,
    ProcessParams,
    TrajectoryBatch,
    empirical_distribution,
    process_moments,
    simulate_many,
    solve_forward_odes,
    solve_forward_odes_at,
    tally_model1,
)
from harrisproc.cli import main
from harrisproc.distribution import (
    HarrisParams,
    decap_geometric_pmf,
    harris_mean_var,
    harris_pmf,
    truncation_index,
)
from harrisproc.errors import ConvergenceError, ResourceLimitError
from harrisproc.sampling import RngStream
from harrisproc.validation import chi_square_gof, gof_support, tally

E = math.e


class TestProcessParams:
    @pytest.mark.parametrize("lam,k", [(0.0, 1), (-0.5, 1), (1.0, 0), (1.0, 2.5)])
    def test_validation(self, lam, k):
        with pytest.raises(ValueError):
            ProcessParams(lam, k)

    def test_linear_rates(self):
        params = ProcessParams(0.5, 2)
        assert [params.rate_after(n) for n in range(3)] == [0.5, 1.5, 2.5]

    def test_induced_scale(self):
        params = ProcessParams(0.5, 2)
        assert params.scale_at(1.0) == pytest.approx(E, rel=1e-15)
        assert params.harris_at(1.0) == HarrisParams(params.scale_at(1.0), 2)

    def test_overflowing_scale_is_a_value_error(self):
        with pytest.raises(ValueError, match="overflows"):
            ProcessParams(1000.0, 1).scale_at(1.0)


class TestTrajectory:
    def test_starts_at_one(self):
        batch = simulate_many(ProcessParams(0.5, 2), 1.0, 1, seed=0)
        assert batch.states_at(0.0).tolist() == [1]
        assert batch.counts_at(0.0).tolist() == [0]

    @pytest.mark.parametrize("seed", range(5))
    def test_structural_invariants(self, seed):
        params = ProcessParams(1.0, 3)
        batch = simulate_many(params, 2.0, 1, seed=seed)
        jump_times = batch[0].jump_times
        states = [int(batch.states_at(s)[0]) for s in jump_times]
        assert jump_times[0] == 0.0 and states[0] == 1
        assert np.all(np.diff(jump_times) > 0.0)
        assert jump_times[-1] <= batch.horizon
        assert np.all(np.diff(states) == 3)
        assert batch.coupling_violations() == 0

    def test_coupling_identity_at_query_times(self):
        params = ProcessParams(1.0, 2)
        batch = simulate_many(params, 3.0, 5, seed=1)
        for t in np.linspace(0.0, 3.0, 13):
            assert np.array_equal(batch.states_at(t), 1 + 2 * batch.counts_at(t))

    def test_batch_queries_match_views(self):
        batch = simulate_many(ProcessParams(1.0, 2), 1.5, 300, seed=5)
        for t in (0.0, 0.3, 0.9, 1.5):
            # per row: the events at or before t, searched in the row itself
            expected = [1 + 2 * np.searchsorted(tr.jump_times[1:], t, side="right")
                        for tr in batch]
            assert batch.states_at(t).tolist() == expected
        assert batch.n_events.tolist() == [len(tr.jump_times) - 1 for tr in batch]

    def test_query_outside_horizon_rejected(self):
        batch = simulate_many(ProcessParams(0.5, 1), 1.0, 1, seed=0)
        for t in (-0.1, 1.5):
            with pytest.raises(ValueError):
                batch.states_at(t)

    def test_invalid_construction_rejected(self):
        params = ProcessParams(1.0, 2)
        one_row = np.array([0, 2])
        with pytest.raises(ValueError):  # not increasing
            TrajectoryBatch(params, 1.0, np.array([2]), np.array([0.5, 0.5]), one_row)
        with pytest.raises(ValueError):  # past the horizon
            TrajectoryBatch(params, 1.0, np.array([2]), np.array([0.1, 1.5]), one_row)
        with pytest.raises(ValueError):  # an event at the start time
            TrajectoryBatch(params, 1.0, np.array([2]), np.array([0.0, 0.5]), one_row)
        with pytest.raises(ValueError):  # rows do not cover the times
            TrajectoryBatch(params, 1.0, np.array([1]), np.array([0.1, 0.5]),
                            np.array([0, 1]))
        # each row increases on its own; a drop between rows is fine
        batch = TrajectoryBatch(params, 1.0, np.array([2, 1]),
                                np.array([0.1, 0.5, 0.2]), np.array([0, 2, 3]))
        assert batch.states_at(0.3).tolist() == [3, 3]

    def test_event_cap(self, monkeypatch):
        # the mean path count (e - 1) is below the cap and 6 paths expect
        # 0.96 past it, so the passes run and stop at a path that passes it
        monkeypatch.setattr(birth, "MAX_EVENTS", 3)
        with pytest.raises(ResourceLimitError, match="trajectory exceeded 3"):
            simulate_many(ProcessParams(0.5, 1), 2.0, 6, seed=1)

    def test_mean_past_the_cap_is_refused_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(sampling, "RngStream", None)  # a draw raises TypeError
        with pytest.raises(ResourceLimitError, match="averages 1.203e"):
            simulate_many(ProcessParams(1.0, 1), 14.0, 100, seed=0)
        monkeypatch.setattr(birth, "MAX_EVENTS", 3)
        with pytest.raises(ResourceLimitError, match="averages 6.389"):
            simulate_many(ProcessParams(1.0, 1), 2.0, 1, seed=0)

    def test_dropped_event_is_a_coupling_violation(self, drop_last_event):
        batch = simulate_many(ProcessParams(0.5, 2), 1.0, 200, seed=4)
        replica = int(np.flatnonzero(batch.n_events)[0])
        assert batch.coupling_violations() == 0
        assert drop_last_event(batch, replica).coupling_violations() == 1


class TestEmpiricalDistribution:
    def test_single_trajectory_at_zero(self):
        batch = simulate_many(ProcessParams(0.5, 2), 1.0, 1, seed=0)
        assert empirical_distribution(batch, 0.0) == {1: 1}

    def test_vanishing_rate_concentrates_at_one(self):
        trajs = simulate_many(ProcessParams(1e-9, 2), 1.0, 200, seed=0)
        assert empirical_distribution(trajs, 1.0) == {1: 200}

    def test_horizon_violation_rejected(self):
        trajs = simulate_many(ProcessParams(0.5, 1), 1.0, 3, seed=0)
        with pytest.raises(ValueError):
            empirical_distribution(trajs, 2.0)

    def test_counts_sum_to_replicas(self):
        trajs = simulate_many(ProcessParams(0.5, 2), 1.0, 500, seed=3)
        counts = empirical_distribution(trajs, 1.0)
        assert sum(counts.values()) == 500
        assert all((s - 1) % 2 == 0 for s in counts)


class TestMonteCarloLaw:
    def test_mean_and_gof_against_closed_form(self):
        params = ProcessParams(0.5, 2)
        states = simulate_many(params, 1.0, 20_000, seed=42).states_at(1.0)
        mean, var = process_moments(params, 1.0)
        assert abs(states.mean() - mean) < 3 * math.sqrt(var / len(states))
        marginal = params.harris_at(1.0)
        observed = Counter(states.tolist())
        support, probs = gof_support(marginal, max(observed), len(states))
        result = chi_square_gof(observed, support, probs, 0.001)
        assert result.passed

    def test_yule_furry_reduction(self):
        # k = 1 marginal is the decapitated geometric with q = exp(-lam*t)
        params = ProcessParams(1.0, 1)
        states = simulate_many(params, 0.7, 20_000, seed=7).states_at(0.7)
        q = math.exp(-0.7)
        observed = Counter(states.tolist())
        support, _ = gof_support(params.harris_at(0.7), max(observed), len(states))
        probs = decap_geometric_pmf(q, support)
        result = chi_square_gof(observed, support, probs, 0.001)
        assert result.passed

    def test_law_before_the_horizon(self):
        # the marginal at an earlier query time, read off longer paths
        params = ProcessParams(0.5, 2)
        batch = simulate_many(params, 2.0, 20_000, seed=13)
        marginal = params.harris_at(0.5)
        observed = empirical_distribution(batch, 0.5)
        support, probs = gof_support(marginal, max(observed), len(batch))
        result = chi_square_gof(observed, support, probs, 0.001)
        assert result.passed

    def test_block_prefix_does_not_change_results(self):
        # block b owns stream b, so a full block's paths do not depend on
        # how many replicas follow it
        params = ProcessParams(0.5, 2)
        block = simulate_many(params, 1.0, BLOCK_SIZE, seed=9)
        longer = simulate_many(params, 1.0, 2 * BLOCK_SIZE + 100, seed=9)
        for a, b in zip(block, longer):
            assert np.array_equal(a.jump_times, b.jump_times)
        states = longer.states_at(1.0)
        assert np.array_equal(block.states_at(1.0), states[:BLOCK_SIZE])
        # and each block has a stream of its own
        assert not np.array_equal(states[:BLOCK_SIZE], states[BLOCK_SIZE:2 * BLOCK_SIZE])
        rerun = simulate_many(params, 1.0, 2 * BLOCK_SIZE + 100, seed=9)
        assert np.array_equal(longer.event_times, rerun.event_times)
        assert np.array_equal(longer.offsets, rerun.offsets)
        # the tallying route too: one block is the longer run's first block
        assert (tally_model1(params, 1.0, BLOCK_SIZE, seed=9)
                == tally(states[:BLOCK_SIZE]))
        assert tally_model1(params, 1.0, len(states), seed=9) == tally(states)

    @pytest.mark.parametrize("lam", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("t", [0.5, 1.0])
    def test_three_way_agreement(self, lam, k, t):
        # Monte Carlo, forward equations, and the closed form must tell one
        # story at every grid point.
        params = ProcessParams(lam, k)
        marginal = params.harris_at(t)

        solution = solve_forward_odes(params, t)
        closed = harris_pmf(marginal, np.arange(solution.n_max + 1))
        assert np.abs(solution.probs - closed).max() < 1e-8

        trajectories = simulate_many(params, t, 100_000, seed=11)
        observed = empirical_distribution(trajectories, t)
        support, probs = gof_support(marginal, max(observed), 100_000)
        gof = chi_square_gof(observed, support, probs, 0.001)
        assert gof.passed


def _reference_batch(params, horizon, n_replicas, seed):
    """The pass contract, one replica at a time in plain Python.

    Block b runs on RngStream(seed, b).  Pass p of a block, with m live
    replicas at round j, reads stream.uniform(m * w), w = max(1, min(2**p,
    DRAW_CHUNK // m)), as w rows of m: row r is round j + r of each live
    replica in replica order.  Each column is walked alone until its clock
    passes the horizon; the rest of the column is never read.
    """
    n_events, rows = [], []
    for b, first in enumerate(range(0, n_replicas, BLOCK_SIZE)):
        stream = sampling.RngStream(seed, stream_id=b)
        paths = [[] for _ in range(min(BLOCK_SIZE, n_replicas - first))]
        alive, j, p = list(range(len(paths))), 0, 0
        while alive:
            w = max(1, min(2**p, birth.DRAW_CHUNK // len(alive)))
            draws = -np.log(stream.uniform(len(alive) * w))
            survivors = []
            for c, replica in enumerate(alive):
                path = paths[replica]
                clock = path[-1] if path else 0.0
                for r in range(w):
                    clock = clock + draws[r * len(alive) + c] / params.rate_after(j + r)
                    if clock > horizon:
                        break
                    path.append(clock)
                else:
                    survivors.append(replica)
            alive, j, p = survivors, j + w, p + 1
        n_events += [len(path) for path in paths]
        rows += paths
    offsets = np.zeros(n_replicas + 1, dtype=np.int64)
    np.cumsum(n_events, out=offsets[1:])
    event_times = np.array([time for path in rows for time in path], dtype=float)
    return np.array(n_events, dtype=np.int64), offsets, event_times


def _assert_the_contract_holds(params, horizon, n_replicas, seed):
    batch = simulate_many(params, horizon, n_replicas, seed)
    n_events, offsets, event_times = _reference_batch(params, horizon,
                                                      n_replicas, seed)
    assert np.array_equal(batch.n_events, n_events)
    assert np.array_equal(batch.offsets, offsets)
    assert np.array_equal(batch.event_times, event_times)
    # the tallying route runs the same draws
    observed = tally_model1(params, horizon, n_replicas, seed)
    assert observed == tally(1 + params.k * n_events)
    assert all(type(value) is int for value in observed)
    return batch


class _ZeroingGenerator:
    """A generator whose random() zeroes every draw u with int(u*1e12) % p == 0.

    Zeros depend on the value only, so random(a) then random(b) still
    gives the values of random(a + b).
    """

    def __init__(self, generator, p):
        self.generator, self.p = generator, p

    def random(self, size):
        u = self.generator.random(size)
        u[(u * 1e12).astype(np.int64) % self.p == 0] = 0.0
        return u


class TestDrawContract:
    LAWS = [((1.0, 1), 6.0, 2000, 7),             # passes of up to DRAW_CHUNK draws
            ((0.5, 2), 1.0, 2 * BLOCK_SIZE + 100, 9),
            ((0.5, 2), 2.0, 1, 3),
            ((1e-9, 2), 1.0, 300, 0)]             # no replica has an event

    @pytest.mark.parametrize("zero_every", [None, 3, 100])
    @pytest.mark.parametrize("law, horizon, n_replicas, seed", LAWS)
    def test_paths_equal_the_per_round_draws(self, monkeypatch, law, horizon,
                                             n_replicas, seed, zero_every):
        if zero_every is not None:
            def stream(seed, stream_id=0):
                made = RngStream(seed, stream_id)
                made.generator = _ZeroingGenerator(made.generator, zero_every)
                return made
            monkeypatch.setattr(sampling, "RngStream", stream)
        batch = _assert_the_contract_holds(ProcessParams(*law), horizon,
                                           n_replicas, seed)
        if law == (1e-9, 2):
            assert batch.event_times.size == 0

    @settings(max_examples=25, deadline=None)
    @given(lam=st.floats(0.01, 3.0), k=st.integers(1, 5), exponent=st.floats(0.01, 3.0),
           n_replicas=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_any_small_run_equals_the_reference(self, lam, k, exponent, n_replicas,
                                                 seed):
        # lam*k*t = exponent <= 3: up to ~20 events a path
        _assert_the_contract_holds(ProcessParams(lam, k), exponent / (lam * k),
                                   n_replicas, seed)

    # The uniforms drawn, against the events plus one end per path that
    # _check_run's draw bound counts.  On the deep law a per-round loop would
    # make ~3,400 calls.  At criterion 3's law most paths end in their first
    # pass and discard the rest of their column: 1.25-1.27x over seeds 0-19.
    @pytest.mark.parametrize("law, horizon, n_replicas, seed, factor", [
        pytest.param((1.0, 1), 6.0, 2000, 1, 1.10, id="deep-law"),
        pytest.param((0.5, 2), 1.0, 5000, 1, 1.30, id="criterion-3"),
    ])
    def test_the_deep_law_takes_few_passes_and_few_extra_draws(
            self, monkeypatch, law, horizon, n_replicas, seed, factor):
        calls = []

        class Counted(RngStream):
            def uniform(self, size=None):
                calls.append(size)
                return super().uniform(size)

        monkeypatch.setattr(sampling, "RngStream", Counted)
        observed = tally_model1(ProcessParams(*law), horizon, n_replicas, seed=seed)
        events = sum((x - 1) // law[1] * count for x, count in observed.items())
        assert len(calls) <= 64
        assert sum(calls) <= factor * (events + n_replicas)
        assert max(calls) <= birth.DRAW_CHUNK


class TestCountEvents:
    """tally_model1: a birth run that counts events and keeps only their tally."""

    def test_event_cap(self, monkeypatch):
        monkeypatch.setattr(birth, "MAX_EVENTS", 3)
        with pytest.raises(ResourceLimitError, match="trajectory exceeded 3"):
            tally_model1(ProcessParams(0.5, 1), 2.0, 6, seed=1)
        # the cap counts events inside the horizon only: state 1 + 3*k
        assert max(tally_model1(ProcessParams(0.5, 1), 2.0, 6, seed=3)) == 4

    def test_a_run_expecting_a_path_past_the_cap_is_refused_before_any_draw(
            self, monkeypatch):
        monkeypatch.setattr(sampling, "RngStream", None)  # a draw raises TypeError
        # at k = 1 the tail is exact: P(I > 3) = (1 - 1/e)**4 = 0.1597
        monkeypatch.setattr(birth, "MAX_EVENTS", 3)
        with pytest.raises(ResourceLimitError,
                           match="7 paths to t=2.0 expect 1.118 of them past 3"):
            tally_model1(ProcessParams(0.5, 1), 2.0, 7, seed=0)
        monkeypatch.undo()
        monkeypatch.setattr(sampling, "RngStream", None)
        with pytest.raises(ResourceLimitError, match="expect 208.6 of them"):
            simulate_many(ProcessParams(1.0, 1), 13.0, 2000, seed=0)
        for run in (tally_model1, simulate_many):
            # simulate's message: criterion 3's law expects 1.859 draws a path
            with pytest.raises(ValueError, match="1003936094 expected birth draws "
                                                 "exceed the draw budget of 1000000000"):
                run(ProcessParams(0.5, 2), 1.0, 540_000_000, seed=0)
            # the draw budget is checked after the mean path and before the cap
            with pytest.raises(ResourceLimitError, match="averages 1.203e"):
                run(ProcessParams(1.0, 1), 14.0, 10**12, seed=0)
            with pytest.raises(ValueError, match="1327240177 expected birth draws"):
                run(ProcessParams(1.0, 1), 13.0, 3000, seed=0)

    def test_mean_past_the_cap_is_refused_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(sampling, "RngStream", None)  # a draw raises TypeError
        with pytest.raises(ResourceLimitError, match="averages 1.203e"):
            tally_model1(ProcessParams(1.0, 1), 14.0, 100, seed=0)

    @pytest.mark.parametrize("horizon, n_replicas", [(0.0, 10), (1.0, 0)])
    def test_empty_runs_rejected(self, horizon, n_replicas):
        with pytest.raises(ValueError):
            tally_model1(ProcessParams(0.5, 1), horizon, n_replicas, seed=0)

    @staticmethod
    def _peak(run, *args):
        tracemalloc.start()
        try:
            run(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_keeps_no_paths(self):
        # the deep bench law: ~812k events, whose stored times alone take 6 MiB
        args = ProcessParams(1.0, 1), 6.0, 2000, 5
        assert self._peak(tally_model1, *args) < 2**20
        assert self._peak(simulate_many, *args) > 10 * 2**20

    @pytest.mark.parametrize("n_replicas", [10**5, 10**6])
    def test_memory_is_one_block_whatever_the_replica_count(self, n_replicas):
        # criterion 3's law: ~0.45 MiB at both counts (2 vCPU); a count per
        # replica, as one int64 array, took 1.15 MiB at 1e5 and 8.0 at 1e6
        assert self._peak(tally_model1, ProcessParams(0.5, 2), 1.0, n_replicas,
                          0) < 2**20

    def test_simulate_birth_never_stores_paths(self, monkeypatch, capsys):
        def stored(*args, **kwargs):
            raise AssertionError("simulate stored the paths")

        monkeypatch.setattr(birth, "simulate_many", stored)
        code = main(["simulate", "--model", "birth", "--lambda", "0.5", "--k", "2",
                     "--t", "1", "--replicas", "1000"])
        assert code == 0 and '"overall": true' in capsys.readouterr().out
        # nor does the battery: every birth run of validate is a tally
        monkeypatch.setattr(acceptance, "CALIBRATION_DRAWS", 2000)
        assert main(["validate", "--replicas", "2000", "--mixture-draws",
                     "20000"]) == 0


class TestForwardEquations:
    def test_time_zero_returns_initial_law(self):
        sol = solve_forward_odes(ProcessParams(0.5, 2), 0.0)
        assert_allclose(sol.probs, [1.0])
        assert sol.truncation_tail == 0.0

    def test_short_time_stays_near_initial_law(self):
        sol = solve_forward_odes(ProcessParams(0.5, 2), 1e-8)
        assert sol.probs[0] == pytest.approx(1.0, abs=1e-7)
        assert sol.probs[1:].sum() < 1e-7

    def test_matches_closed_form(self):
        params = ProcessParams(0.5, 2)
        sol = solve_forward_odes(params, 1.0)
        closed = harris_pmf(params.harris_at(1.0), np.arange(sol.n_max + 1))
        assert np.abs(sol.probs - closed).max() < 1e-8

    def test_matches_decapitated_geometric(self):
        sol = solve_forward_odes(ProcessParams(1.0, 1), 0.7)
        q = math.exp(-0.7)
        closed = decap_geometric_pmf(q, np.arange(1, sol.n_max + 2))
        assert np.abs(sol.probs - closed).max() < 1e-8

    def test_mass_conservation(self):
        for t in (0.25, 0.5, 1.0):
            sol = solve_forward_odes(ProcessParams(1.0, 3), t)
            assert abs(sol.total - 1.0) < 1e-9

    def test_state_cap(self, monkeypatch):
        monkeypatch.setattr(birth, "STATE_CAP", 100)
        with pytest.raises(ResourceLimitError):
            solve_forward_odes(ProcessParams(1.0, 3), 1.0)

    def test_state_cap_bounds_the_truncation_walk(self):
        # m = exp(150): the certified tail never falls below 1e-12, and the
        # walk stops at the state cap rather than the 1e6-term default
        with pytest.raises(ResourceLimitError, match="exceeded 20000 terms"):
            solve_forward_odes(ProcessParams(50.0, 3), 1.0)

    @pytest.mark.parametrize("lam,k,t", [(0.5, 2, 1.0), (1.0, 3, 1.0),
                                         (1.0, 1, 4.0)])
    def test_grid_is_the_certified_truncation_index(self, lam, k, t):
        params = ProcessParams(lam, k)
        sol = solve_forward_odes(params, t)
        assert sol.n_max == truncation_index(params.harris_at(t), 1e-12)

    @pytest.mark.parametrize("lam,k,t", [(0.5, 2, 1.0), (1.0, 3, 1.0),
                                         (1.0, 1, 4.0)])
    def test_tighter_tail_agrees_on_the_overlap(self, lam, k, t, monkeypatch):
        # the system is lower triangular, so a longer grid leaves the states
        # both grids hold unchanged up to the integration error
        params = ProcessParams(lam, k)
        coarse = solve_forward_odes(params, t)
        monkeypatch.setattr(birth, "ODE_TAIL", 1e-14)
        fine = solve_forward_odes(params, t)
        assert fine.n_max > coarse.n_max
        overlap = fine.probs[:coarse.n_max + 1]
        assert np.abs(overlap - coarse.probs).max() < 1e-9

    def test_band_is_the_generator_of_the_rates(self):
        n_max = 6
        params = ProcessParams(0.75, 3)
        band = birth._forward_system(params, n_max)
        # state n leaves at its rate, into state n+1 while that is on the grid
        generator = np.zeros((n_max + 1, n_max + 1))
        for n in range(n_max + 1):
            generator[n, n] = -params.rate_after(n)
            if n < n_max:
                generator[n + 1, n] = params.rate_after(n)
        from_band = np.diag(band[0]) + np.diag(band[1, :-1], -1)
        assert_allclose(from_band, generator, rtol=0, atol=0)
        assert band[1, -1] == 0.0

    def test_failed_integration_raises_silently(self, poisoned_band, capfd):
        poisoned_band(1, 0, math.nan)  # the rate out of the start state
        with pytest.raises(ConvergenceError, match="non-finite probability"):
            solve_forward_odes(ProcessParams(1.0, 1), 4.0)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("row, col, value, message", [
        (0, 5, math.nan, "no finite bound"),  # the rate bound is NaN
        (1, 0, -1.0, "produced probability -"),  # a negative flow out of state 0
    ])
    def test_a_poisoned_band_raises(self, poisoned_band, row, col, value, message):
        poisoned_band(row, col, value)
        with pytest.raises(ConvergenceError, match=message):
            solve_forward_odes(ProcessParams(1.0, 1), 4.0)

    @pytest.mark.parametrize("lam,k,t,bound", [
        *((lam, k, t, 2e-12) for lam, k, t in acceptance.ODE_GRID),
        (1.0, 1, 4.0, 1e-11),
    ])
    def test_every_state_has_relative_precision(self, lam, k, t, bound):
        # worst measured: 5.5e-13 on criterion 1's laws, 2.9e-12 at (1, 1, 4)
        # (1495 states), whose last state has probability 1.9e-14
        mpmath = pytest.importorskip("mpmath")
        sol = solve_forward_odes(ProcessParams(lam, k), t)
        with mpmath.workdps(40):
            p = mpmath.exp(-mpmath.mpf(lam) * k * mpmath.mpf(t))
            r = mpmath.mpf(1) / k
            worst, exact = 0, p ** r  # the Harris law at n = 0, then by its ratio
            for n, value in enumerate(sol.probs):
                worst = max(worst, abs(value - exact) / exact)
                exact *= (n + r) / (n + 1) * (1 - p)
        assert worst < bound

    def test_memory_is_a_few_block_states(self):
        # (1, 1, 4): 1495 states, ~375 blocks of 16 steps; 1.3 MiB measured,
        # where all the block states at once would take 4.3 MiB
        tracemalloc.start()
        try:
            solve_forward_odes(ProcessParams(1.0, 1), 4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("lam,k,t", [(1.0, 4, 0.7265625), (1.0, 5, 0.54),
                                         (1.0, 4, 1.291)])
    def test_a_law_past_500_steps_is_solved(self, lam, k, t):
        # LSODA takes 500 to 760 steps here; odeint's default cap of 500
        # ended each with "Excess work done"
        params = ProcessParams(lam, k)
        sol = solve_forward_odes(params, t)
        closed = harris_pmf(params.harris_at(t), np.arange(sol.n_max + 1))
        assert np.abs(sol.probs - closed).max() < acceptance.ODE_GAP

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            solve_forward_odes(ProcessParams(1.0, 1), -0.1)


class TestMultiTimeForwardEquations:
    # lam*k*t at most 3, so no grid passes about 600 states
    @settings(max_examples=400, deadline=None)
    @given(lam=st.floats(0.05, 5.0), k=st.integers(1, 6),
           clock=st.floats(1e-3, 3.0),
           fractions=st.sets(st.floats(0.01, 1.0), min_size=1, max_size=4))
    def test_every_time_matches_the_closed_form_and_the_one_time_solve(
            self, lam, k, clock, fractions):
        params = ProcessParams(lam, k)
        times = sorted({clock / (lam * k) * f for f in fractions})
        solutions = solve_forward_odes_at(params, times)
        assert len(solutions) == len(times)
        for t, solution in zip(times, solutions):
            alone = solve_forward_odes(params, t)
            assert solution.n_max == alone.n_max <= 600
            assert solution.truncation_tail == alone.truncation_tail
            closed = harris_pmf(params.harris_at(t), np.arange(solution.n_max + 1))
            assert np.abs(solution.probs - closed).max() < acceptance.ODE_GAP
            assert np.abs(solution.probs - alone.probs).max() < acceptance.ODE_GAP

    def test_one_time_is_the_one_time_solve(self):
        params = ProcessParams(0.5, 2)
        [solution] = solve_forward_odes_at(params, [1.0])
        alone = solve_forward_odes(params, 1.0)
        assert np.array_equal(solution.probs, alone.probs)
        assert solution.truncation_tail == alone.truncation_tail

    @pytest.mark.parametrize("lam,k,t", [(0.37, 2, 1.3), (2.5, 3, 0.4),
                                         (0.25, 1, 3.0)])
    def test_rate_lam_at_t_is_the_unit_rate_at_lam_t(self, lam, k, t):
        # every rate scales with lam: the clock identity criterion 1 reads
        scaled = solve_forward_odes(ProcessParams(lam, k), t)
        unit = solve_forward_odes(ProcessParams(1.0, k), lam * t)
        assert scaled.n_max == unit.n_max
        assert scaled.truncation_tail == unit.truncation_tail
        assert np.abs(scaled.probs - unit.probs).max() < acceptance.ODE_GAP

    @pytest.mark.parametrize("times", [[], [0.0, 1.0], [-0.5], [1.0, 0.5],
                                       [0.5, 0.5]])
    def test_times_must_be_positive_and_increasing(self, times):
        with pytest.raises(ValueError, match="positive and increasing"):
            solve_forward_odes_at(ProcessParams(1.0, 1), times)

    def test_state_cap_applies_to_the_last_time(self, monkeypatch):
        monkeypatch.setattr(birth, "STATE_CAP", 100)
        with pytest.raises(ResourceLimitError):
            solve_forward_odes_at(ProcessParams(1.0, 3), [0.1, 1.0])


class TestMoments:
    def test_degenerate_start(self):
        assert process_moments(ProcessParams(0.5, 2), 0.0) == (1.0, 0.0)

    def test_closed_form_at_unit_exponent(self):
        mean, var = process_moments(ProcessParams(0.5, 2), 1.0)
        assert mean == pytest.approx(E, rel=1e-15)
        assert var == pytest.approx(2 * E * (E - 1), rel=1e-15)

    @pytest.mark.parametrize("lam,k,t", [(0.25, 1, 0.5), (0.5, 2, 1.0), (1.0, 3, 0.8)])
    def test_agrees_with_distribution_moments(self, lam, k, t):
        params = ProcessParams(lam, k)
        assert process_moments(params, t) == harris_mean_var(params.harris_at(t))

    def test_mean_strictly_increasing(self):
        # the process is not stationary: its marginal mean grows with t
        params = ProcessParams(0.7, 2)
        means = [process_moments(params, t)[0] for t in np.linspace(0.0, 2.0, 9)]
        assert np.all(np.diff(means) > 0.0)


class TestIncentiveLaw:
    def test_truncated_mean(self):
        # I(t) = (N(t) - 1)/k, so its mean is (e - 1)/2 at lam*k*t = 1
        params = ProcessParams(0.5, 2)
        ns = np.arange(300)
        mean = float((ns * harris_pmf(params.harris_at(1.0), ns)).sum())
        assert mean == pytest.approx((E - 1) / 2, abs=1e-9)
