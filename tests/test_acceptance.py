"""Acceptance gate: every cross-validation criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
captured output of a failing run) and then asserts the criterion.  The
expensive Monte Carlo runs are shared through module-scoped fixtures.
"""

import hashlib
import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from harrisproc import acceptance, birth, mixture, sampling
from harrisproc.birth import (
    ProcessParams,
    empirical_distribution,
    simulate_many,
    solve_forward_odes,
    tally_model1,
)
from harrisproc.cli import main
from harrisproc.distribution import (
    HarrisParams,
    decap_geometric_pmf,
    harris_mean_var,
    harris_pgf,
    harris_pmf,
    nb_pmf,
)
from harrisproc.mixture import (DRAW_BLOCK, MixtureParams, mixture_pmf,
                                mixture_pmf_quadrature, sample_model2)
from harrisproc.reporting import simulate_text
from harrisproc.sampling import RngStream, sample_harris
from harrisproc.validation import (chi_square_gof, gof_support, moment_check,
                                   tally, tally_moments)

E = math.e
SEED = 42


def record(number, name, passed, detail):
    print(f"criterion {number} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {number} {name}: {detail}"


@pytest.fixture(scope="module")
def birth_run():
    """Criterion 3 scenario: 1e5 trajectories at lam=0.5, k=2, horizon 1."""
    batch = simulate_many(ProcessParams(0.5, 2), 1.0, 100_000, seed=SEED)
    return batch, batch.states_at(1.0)


@pytest.fixture(scope="module")
def yule_run():
    """Criterion 5 scenario: 1e5 trajectories at lam=1, k=1, horizon 0.7."""
    batch = simulate_many(ProcessParams(1.0, 1), 0.7, 100_000, seed=SEED)
    return batch, batch.states_at(0.7)


@pytest.fixture(scope="module")
def mixture_draws():
    """Criterion 4 scenario: 1e6 draws at a=1, k=2, t=1."""
    params = MixtureParams(1.0, 2)
    return np.asarray(sample_model2(RngStream(SEED), params, 1.0, size=1_000_000))


def test_criterion_1_ode_vs_closed_form():
    worst_gap, worst_time = 0.0, 0.0
    for lam in (0.25, 0.5, 1.0):
        for k in (1, 2, 3):
            for t in (0.5, 1.0):
                params = ProcessParams(lam, k)
                start = time.perf_counter()
                solution = solve_forward_odes(params, t)
                worst_time = max(worst_time, time.perf_counter() - start)
                closed = harris_pmf(params.harris_at(t),
                                    np.arange(solution.n_max + 1))
                worst_gap = max(worst_gap,
                                float(np.abs(solution.probs - closed).max()))
    record(1, "ode-vs-closed-form",
           worst_gap < 1e-8 and worst_time < 1.0,
           f"max-abs diff {worst_gap:.3e} < 1e-8; slowest solve "
           f"{worst_time:.3f}s < 1s")


def test_criterion_1_reads_each_law_off_one_integration_per_k(monkeypatch):
    solve = acceptance.solve_forward_odes_at
    calls = []

    def recording(params, times):
        calls.append((params, list(times)))
        return solve(params, times)

    monkeypatch.setattr(acceptance, "solve_forward_odes_at", recording)
    result = acceptance._check_ode_grid()
    assert result.passed
    assert result.detail == ("max-abs gap 1.368e-13 (budget 1e-08); slowest solve "
                             "within the 1s budget")
    assert calls == [(ProcessParams(0.25, k), [0.5, 1.0, 2.0, 4.0])
                     for k in (1, 2, 3)]


def test_criterion_1_fails_when_the_solve_reverses_its_times(monkeypatch):
    solve = acceptance.solve_forward_odes_at
    monkeypatch.setattr(acceptance, "solve_forward_odes_at",
                        lambda params, times: solve(params, times)[::-1])
    assert not acceptance._check_ode_grid().passed


def test_criterion_1_fails_when_the_ode_ignores_the_rate(monkeypatch):
    # the rates (n*k + 1) without lam: the laws of rate 1, not of rate lam
    system = birth._forward_system
    monkeypatch.setattr(birth, "_forward_system", lambda params, n_max:
                        system(ProcessParams(1.0, params.k), n_max))
    assert not acceptance._check_ode_grid().passed


def test_criterion_2_quadrature_vs_closed_form():
    worst = 0.0
    ns = np.arange(21)
    for a in (0.5, 1.0, 2.0):
        for t in (0.5, 1.0, 2.0):
            for k in (1, 2, 3):
                params = MixtureParams(a, k)
                gap = np.abs(mixture_pmf(params, t, ns)
                             - mixture_pmf_quadrature(params, t, ns))
                worst = max(worst, float(gap.max()))
    record(2, "quadrature-vs-closed-form", worst < 1e-8,
           f"max-abs diff {worst:.3e} < 1e-8 over the full (a, t, k, n) grid")


def test_criterion_3_model1_monte_carlo(birth_run):
    _, states = birth_run
    marginal = HarrisParams(E, 2)
    observed = Counter(states.tolist())
    support, probs = gof_support(marginal, max(observed), len(states))
    gof = chi_square_gof(observed, support, probs, alpha=0.01)
    mean_gap = abs(float(states.mean()) - E)
    analytic_var = 2 * E * (E - 1)  # = 9.34155 per the closed form
    var_rel = abs(float(states.var(ddof=1)) - analytic_var) / analytic_var
    record(3, "model1-monte-carlo",
           gof.passed and mean_gap <= 0.029 and var_rel <= 0.05,
           f"gof {gof.statistic:.2f} <= {gof.threshold:.2f}; |mean - e| = "
           f"{mean_gap:.4f} <= 0.029; var rel err {var_rel:.4f} <= 0.05")


def test_criterion_4_model2_monte_carlo(mixture_draws):
    draws = mixture_draws
    marginal = HarrisParams(2.0, 2)
    values, counts = np.unique(draws, return_counts=True)
    observed = {int(v): int(c) for v, c in zip(values, counts)}
    support, probs = gof_support(marginal, max(observed), len(draws))
    gof = chi_square_gof(observed, support, probs, alpha=0.01)
    mean_gap = abs(float(draws.mean()) - 2.0)
    var_rel = abs(float(draws.var(ddof=1)) - 4.0) / 4.0
    record(4, "model2-monte-carlo",
           gof.passed and mean_gap <= 0.006 and var_rel <= 0.05,
           f"gof {gof.statistic:.2f} <= {gof.threshold:.2f}; |mean - 2| = "
           f"{mean_gap:.5f} <= 0.006; var rel err {var_rel:.4f} <= 0.05")


def test_criterion_5_yule_furry_triple_agreement(yule_run):
    batch, states = yule_run
    params = ProcessParams(1.0, 1)
    q = math.exp(-0.7)
    solution = solve_forward_odes(params, 0.7)
    decap = decap_geometric_pmf(q, np.arange(1, solution.n_max + 2))
    ode_gap = float(np.abs(solution.probs - decap).max())
    observed = empirical_distribution(batch, 0.7)
    support, _ = gof_support(params.harris_at(0.7), max(observed), len(states))
    probs = decap_geometric_pmf(q, support)
    gof = chi_square_gof(observed, support, probs, alpha=0.01)
    record(5, "yule-furry-reduction", ode_gap < 1e-8 and gof.passed,
           f"ode vs decapitated geometric {ode_gap:.3e} < 1e-8; "
           f"monte carlo gof {gof.statistic:.2f} <= {gof.threshold:.2f}")


def test_criterion_6_coupling_identity(birth_run, yule_run, mixture_draws):
    violations = 0
    for batch, t in ((birth_run[0], 1.0), (yule_run[0], 0.7)):
        violations += batch.coupling_violations()
        k = batch.params.k
        violations += int(np.count_nonzero(
            batch.states_at(t) != 1 + k * batch.counts_at(t)))
        # the tallying sampler runs the same draws: count the replicas its
        # tally places apart from the counter's, half the L1 distance
        observed = Counter(tally_model1(batch.params, t, len(batch), SEED))
        counted = Counter(tally(1 + k * batch.n_events))
        violations += max(sum((observed - counted).values()),
                          sum((counted - observed).values()))
    violations += int(np.count_nonzero((mixture_draws - 1) % 2))
    record(6, "coupling-identity", violations == 0,
           f"{violations} violations of N = 1 + k*I across 200000 trajectories "
           f"and 1000000 mixture draws")


def _birth_run():
    """Criterion 3's run at 1000 paths."""
    return acceptance.run_scenario("birth", lam=0.5, k=2, t=1.0, replicas=1000,
                                   seed=SEED)


def _coupling_of(mixture_run, birth_run=None):
    """Criterion 6 on the given mixture run and criterion 3's at 1000 paths."""
    return acceptance._check_coupling(birth_run or _birth_run(), mixture_run)


def _mixture_run():
    return acceptance.run_scenario("mixture", a=1.0, k=2, t=1.0, replicas=1000,
                                   seed=SEED)


def test_criterion_6_reports_a_miscounted_replica(monkeypatch):
    def miscounting(*args, **kwargs):
        # one replica in state 1 is counted twice
        observed = tally_model1(*args, **kwargs)
        observed[1] += 1
        return observed

    monkeypatch.setattr(acceptance, "tally_model1", miscounting)
    coupling = _coupling_of(_mixture_run(), _birth_run())
    assert not coupling.passed and coupling.detail.startswith("1 violations")


def test_criterion_6_reports_a_miscounted_counter(monkeypatch):
    def miscounting(states, *args, **kwargs):
        def off_by_one(stream, size):
            # the block's last state comes out one step off the lattice
            block = states(stream, size)
            block[-1] += 1
            return block

        return sampling.tally_blocks(off_by_one, *args, **kwargs)

    # the birth run's blocks only: its 1000 paths are one block
    monkeypatch.setattr(birth, "tally_blocks", miscounting)
    coupling = _coupling_of(_mixture_run(), _birth_run())
    assert not coupling.passed and coupling.detail.startswith("1 violations")


def _failed_criteria():
    results = acceptance.run_acceptance()
    return [result.number for result in results if not result.passed], results[5]


def _without_the_last_block(states, total, size, seed, workers):
    return sampling.tally_blocks(states, (total - 1) // size * size, size, seed,
                                 workers)


def test_criterion_6_alone_reports_a_dropped_mixture_block(monkeypatch):
    monkeypatch.setattr(mixture, "tally_blocks", _without_the_last_block)
    # the last of criterion 4's 16 blocks holds 1e6 - 15*DRAW_BLOCK draws;
    # criterion 4 judges the draws it has, so only the count shows the loss
    failed, coupling = _failed_criteria()
    assert failed == [6]
    assert coupling.detail.startswith("16960 violations")


def test_criterion_6_alone_reports_a_dropped_birth_block(monkeypatch):
    monkeypatch.setattr(birth, "tally_blocks", _without_the_last_block)
    # the last of criterion 3's 13 blocks holds 1e5 - 12*8192 paths
    failed, coupling = _failed_criteria()
    assert failed == [6]
    assert coupling.detail.startswith("1696 violations")


@pytest.mark.parametrize("birth_replicas", [20_000, 200_000])
def test_battery_memory_does_not_grow_with_the_replica_count(monkeypatch,
                                                             birth_replicas):
    # every birth run is tallied block by block and no run keeps its paths;
    # criterion 6's stored rerun took 1.37 MiB at 2e4 and 12.2 MiB at 2e5
    monkeypatch.setattr(acceptance, "CALIBRATION_DRAWS", 2000)
    args = birth_replicas, 20_000, 200, SEED
    acceptance.run_acceptance(*args)  # loads modules and fills caches
    tracemalloc.start()
    try:
        results = acceptance.run_acceptance(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(results) == 9 and peak < 2**20


def test_criterion_6_reports_a_mixture_draw_off_the_lattice(monkeypatch):
    def shifted(*args, **kwargs):
        draws = sample_model2(*args, **kwargs)
        draws[0] += 1
        return draws

    monkeypatch.setattr(mixture, "sample_model2", shifted)
    run = acceptance.run_scenario("mixture", a=1.0, k=2, t=1.0, replicas=1000,
                                  seed=SEED)
    coupling = _coupling_of(run)
    assert not coupling.passed and coupling.detail.startswith("1 violations")


def test_criterion_6_counts_a_shifted_draw_in_every_block(monkeypatch):
    def shifted(*args, **kwargs):
        draws = sample_model2(*args, **kwargs)
        draws[0] += 1
        return draws

    monkeypatch.setattr(mixture, "sample_model2", shifted)
    # four blocks, the last one short, tallied on the thread pool
    run = acceptance.run_scenario("mixture", a=1.0, k=2, t=1.0,
                                  replicas=3 * DRAW_BLOCK + 100, seed=SEED)
    assert _coupling_of(run).detail.startswith("4 violations")


def _use_cpus(monkeypatch, cpus):
    monkeypatch.setattr(sampling.os, "sched_getaffinity",
                        lambda _pid: set(range(cpus)))
    assert sampling._usable_cpus() == cpus


def test_mixture_output_does_not_depend_on_the_worker_count(monkeypatch):
    texts = []
    for cpus in (1, 4):
        _use_cpus(monkeypatch, cpus)
        run = acceptance.run_scenario("mixture", a=1.0, k=2, t=1.0,
                                      replicas=3 * DRAW_BLOCK + 123, seed=SEED)
        texts.append([simulate_text(run, fmt) for fmt in ("csv", "json")])
    assert texts[0] == texts[1]


def test_mixture_memory_does_not_grow_with_the_block_count(monkeypatch):
    # each worker adds its blocks into one tally; one tally kept per block
    # peaked 5.7x higher at 64 blocks than at 8
    _use_cpus(monkeypatch, 2)
    monkeypatch.setattr(mixture, "DRAW_BLOCK", 4096)
    params = MixtureParams(0.01, 1)  # m = 301 at t = 3: ~900 values a block

    def peak(blocks):
        tracemalloc.start()
        try:
            mixture.tally_model2(params, 3.0, blocks * 4096, SEED)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # one-time allocations stay out of both measurements
    assert peak(64) < 1.5 * peak(8)


def test_first_mixture_block_does_not_depend_on_later_blocks(monkeypatch):
    def run_recording_blocks(replicas):
        blocks = {}

        def recording(rng, *args, **kwargs):
            draws = sample_model2(rng, *args, **kwargs)
            blocks[rng.stream_id] = tally(draws)
            return draws

        monkeypatch.setattr(mixture, "sample_model2", recording)
        run = acceptance.run_scenario("mixture", a=1.0, k=2, t=1.0,
                                      replicas=replicas, seed=9)
        return run, blocks

    one_run, one = run_recording_blocks(DRAW_BLOCK)
    long_run, longer = run_recording_blocks(2 * DRAW_BLOCK + 100)
    assert list(one) == [0] and sorted(longer) == [0, 1, 2]
    assert longer[0] == one[0] == one_run.observed
    # each block has a stream of its own, and the run tallies them all
    assert longer[1] != longer[0]
    assert sum(longer[2].values()) == 100
    assert long_run.observed == sum(map(Counter, longer.values()), Counter())


@pytest.mark.parametrize("replicas", [1000, DRAW_BLOCK])
def test_one_block_mixture_run_tallies_the_stream_0_draws(replicas):
    run = acceptance.run_scenario("mixture", a=1.0, k=2, t=1.0,
                                  replicas=replicas, seed=SEED)
    draws = sample_model2(RngStream(SEED), MixtureParams(1.0, 2), 1.0,
                          size=replicas)
    values, counts = np.unique(draws, return_counts=True)
    assert list(run.observed.items()) == list(zip(values.tolist(), counts.tolist()))
    assert run.report.mean_check.empirical == draws.mean()


def test_criterion_7_identity_suite():
    worst_nb, worst_pgf, worst_deriv = 0.0, 0.0, 0.0
    h = 1e-5
    for m in (1.1, 2.0, E, 10.0):
        for k in (1, 2, 3, 5):
            params = HarrisParams(m, k)
            ns = np.arange(51)
            hp = harris_pmf(params, ns)
            nb = nb_pmf(1.0 / k, 1.0 / m, ns)
            rel = np.abs(hp - nb) / np.maximum(np.maximum(hp, nb), 1e-300)
            worst_nb = max(worst_nb, float(rel.max()))
            worst_pgf = max(worst_pgf, abs(harris_pgf(params, 1.0) - 1.0))
            deriv = (harris_pgf(params, 1.0 + h)
                     - harris_pgf(params, 1.0 - h)) / (2 * h)
            worst_deriv = max(worst_deriv, abs(deriv - m) / m)
    record(7, "identity-suite",
           worst_nb <= 1e-14 and worst_pgf <= 1e-12 and worst_deriv <= 1e-5,
           f"nb identity {worst_nb:.1e} <= 1e-14; pgf(1) gap {worst_pgf:.1e} "
           f"<= 1e-12; pgf'(1) rel err {worst_deriv:.3e} <= 1e-5")


def test_criterion_8_null_calibration():
    # inversion: one uniform per draw, searched in the cumulative table of the
    # law to its 1e-16 tail (51 terms); a uniform past the table's last
    # value lands one step past it
    params = HarrisParams(2.0, 2)
    ns = np.arange(51)
    cumulative = np.cumsum(harris_pmf(params, ns))
    rejections = 0
    for seed in range(200):
        index = np.searchsorted(cumulative, RngStream(seed).uniform(10_000),
                                side="right")
        draws = params.support_value(index)
        observed = tally(draws)
        support, probs = gof_support(params, max(observed), len(draws))
        gof = chi_square_gof(observed, support, probs, alpha=0.05)
        rejections += not gof.passed
    rate = rejections / 200
    record(8, "null-calibration", 0.01 <= rate <= 0.11,
           f"rejection rate {rate:.3f} within [0.01, 0.11] over 200 seeds")


def exact_observed(seed, values, probs, draws):
    """The frequency map of acceptance._exact_tally's count vector over
    the law's table values."""
    counts = acceptance._exact_tally(seed, probs, draws)
    drawn = np.flatnonzero(counts)
    return dict(zip(values[drawn].tolist(), counts[drawn].tolist()))


@pytest.mark.parametrize("m,k", [(2.0, 2), (100.0, 1)])
def test_each_calibration_statistic_is_the_seeds_own_gof(m, k):
    # (2, 2) is criterion 8's law; at (100, 1) the seeds' largest draws,
    # and so their own tables, differ widely
    params = HarrisParams(m, k)
    gofs = list(acceptance._calibration_gofs(params, 200, 10_000))
    cells = acceptance._law_cells(params, acceptance.CALIBRATION_TAIL)
    alone = []
    for seed in range(200):
        # each seed tested alone against its own table, as one loop would
        observed = exact_observed(seed, *cells, 10_000)
        support, probs = gof_support(params, max(observed), 10_000)
        gof = chi_square_gof(observed, support, probs, 0.05)
        alone.append((gof.statistic, gof.threshold))
    assert gofs == alone


@pytest.mark.parametrize("m,k", [(2.0, 2), (100.0, 1), (30.0, 3)])
def test_the_array_judge_is_chi_square_gof_row_by_row(monkeypatch, m, k):
    params, draws = HarrisParams(m, k), 10_000
    values, probs = acceptance._law_cells(params, acceptance.CALIBRATION_TAIL)
    support, law = gof_support(params, int(values[-1]), draws)
    assert len(support) == len(values)
    natural = [acceptance._exact_tally(seed, probs, draws) for seed in range(9)]
    open_tail = natural[0].copy()
    open_tail[[0, -1]] += (-1, 1)
    # rows longer than the table, as the drifted-law mutant gives: one with
    # two draws two steps past the table's end, at no point read, and one
    # longer only by zeros
    past = np.append(natural[1], [0, 2])
    past[0] -= 2
    longer = np.append(natural[2], np.zeros(3, dtype=int))
    # all draws on the first three points: the row ends before its stop
    short = RngStream(9).generator.multinomial(draws, probs[:3] / probs[:3].sum())
    rows = natural + [open_tail, past, longer, short]
    monkeypatch.setattr(acceptance, "_exact_tally",
                        lambda seed, probs, draws: rows[seed])
    # batches of three: rows of several widths stack in one batch, and the
    # short row is a batch of its own
    monkeypatch.setattr(acceptance, "CALIBRATION_BATCH", 3)
    judged = list(acceptance._calibration_gofs(params, len(rows), draws))
    alone = []
    for row in rows:
        drawn = np.flatnonzero(row)
        observed = dict(zip(params.support_value(drawn).tolist(),
                            row[drawn].tolist()))
        gof = chi_square_gof(observed, support, law, acceptance.CALIBRATION_LEVEL)
        alone.append((gof.statistic, gof.threshold))
    assert judged == alone


def test_criterion_8_makes_one_set_of_cells(monkeypatch):
    # at (100, 1) the seeds' largest draws differ widely; the cells of
    # their tests do not
    made, gof_cells = [], acceptance.gof_cells

    def counted(*args):
        made.append(args)
        return gof_cells(*args)

    monkeypatch.setattr(acceptance, "gof_cells", counted)
    monkeypatch.setattr(acceptance, "CALIBRATION_BATCH", 3)
    gofs = list(acceptance._calibration_gofs(HarrisParams(100.0, 1), 30, 10_000))
    assert len(gofs) == 30 and len(made) == 1


@pytest.mark.parametrize("batch", [7, acceptance.CALIBRATION_BATCH])
def test_criterion_8_draws_each_seed_once_in_seed_order(monkeypatch, batch):
    exact_tally, seeds = acceptance._exact_tally, []

    def recorded(seed, *args):
        seeds.append(seed)
        return exact_tally(seed, *args)

    monkeypatch.setattr(acceptance, "_exact_tally", recorded)
    monkeypatch.setattr(acceptance, "CALIBRATION_BATCH", batch)
    calibration = acceptance._check_calibration(
        acceptance.DEFAULT_CALIBRATION_SEEDS, acceptance.CALIBRATION_DRAWS)
    assert seeds == list(range(acceptance.DEFAULT_CALIBRATION_SEEDS))
    assert calibration.detail.startswith("rejection rate 0.065 over 200 seeds")


def test_calibration_memory_is_bounded_by_the_batch_not_the_seeds():
    params = HarrisParams(2.0, 2)

    def peak(n_seeds):
        tracemalloc.start()
        try:
            for _ in acceptance._calibration_gofs(params, n_seeds,
                                                  acceptance.CALIBRATION_DRAWS):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # one-time allocations stay out of both measurements
    # two batches' count vectors can be alive at once; all 2,000 seeds'
    # vectors stacked together took ~7x one batch's peak
    assert peak(2000) < 1.5 * peak(acceptance.CALIBRATION_BATCH)


@pytest.mark.parametrize("m,k", [(2.0, 2), (100.0, 1)])
def test_one_shared_table_gives_every_seed_its_own_gof(m, k):
    # (2, 2) is criterion 8's law; at (100, 1) the seeds' own tables differ
    # in length, so the shared table is longer than some of them
    params = HarrisParams(m, k)
    tallies = [tally(sample_harris(RngStream(seed), params, size=10_000))
               for seed in range(50)]
    shared = gof_support(params, max(map(max, tallies)), 10_000)
    own_lengths = set()
    for observed in tallies:
        own = gof_support(params, max(observed), 10_000)
        own_lengths.add(len(own[0]))
        assert np.array_equal(own[1], shared[1][:len(own[1])])
        assert (chi_square_gof(observed, *own, 0.05)
                == chi_square_gof(observed, *shared, 0.05))
    assert m == 2.0 or min(own_lengths) < len(shared[0])


def _small_battery(monkeypatch):
    monkeypatch.setattr(acceptance, "CALIBRATION_DRAWS", 2000)
    return acceptance.run_acceptance(birth_replicas=2000, mixture_draws=20_000,
                                     calibration_seeds=200)


def test_criterion_8_rejects_a_sampler_at_the_wrong_scale(monkeypatch):
    exact_tally = acceptance._exact_tally
    drifted = acceptance._law_cells(HarrisParams(2.4, 2),
                                    acceptance.CALIBRATION_TAIL)

    def drifted_tally(seed, probs, draws):
        return exact_tally(seed, drifted[1], draws)

    monkeypatch.setattr(acceptance, "_exact_tally", drifted_tally)
    calibration = _small_battery(monkeypatch)[7]
    assert calibration.number == 8 and not calibration.passed
    assert calibration.detail.startswith("rejection rate 1.000 over 200 seeds")


def test_a_failing_calibration_seed_fails_the_battery(monkeypatch):
    exact_tally = acceptance._exact_tally

    def failing(seed, *args):
        if seed == 7:
            raise RuntimeError("seed 7 failed")
        return exact_tally(seed, *args)

    monkeypatch.setattr(acceptance, "_exact_tally", failing)
    with pytest.raises(RuntimeError, match="seed 7 failed"):
        _small_battery(monkeypatch)


def test_criterion_8_calls_no_gamma_or_poisson_sampler(monkeypatch):
    def sampled(*args, **kwargs):
        raise AssertionError("a gamma or Poisson sampler was called")

    class NoGammaPoisson:
        """A generator that refuses every gamma, Poisson and NB draw, and
        the standard normal that a shape-1/2 gamma draw squares."""

        def __init__(self, generator):
            self.generator = generator

        def __getattr__(self, name):
            if name in ("gamma", "standard_gamma", "standard_normal", "poisson",
                        "negative_binomial"):
                return sampled
            return getattr(self.generator, name)

    class Stream(RngStream):
        def __init__(self, *args):
            super().__init__(*args)
            self.generator = NoGammaPoisson(self.generator)

    for module, name in ((sampling, "sample_harris"),
                         (sampling, "_standard_gamma"),
                         (mixture, "sample_model2")):
        monkeypatch.setattr(module, name, sampled)
    monkeypatch.setattr(acceptance, "RngStream", Stream)
    calibration = acceptance._check_calibration(
        acceptance.DEFAULT_CALIBRATION_SEEDS, acceptance.CALIBRATION_DRAWS)
    assert calibration.passed
    assert calibration.detail.startswith("rejection rate 0.065 over 200 seeds")


def test_pooled_exact_tallies_fit_the_law():
    # criterion 8's 200 seeds, 2e6 draws together
    params = HarrisParams(2.0, 2)
    cells = acceptance._law_cells(params, acceptance.CALIBRATION_TAIL)
    pooled = dict(sorted(sum((Counter(exact_observed(seed, *cells, 10_000))
                              for seed in range(200)), Counter()).items()))
    total = sum(pooled.values())
    gof = chi_square_gof(pooled, *gof_support(params, max(pooled), total),
                         acceptance.GOF_ALPHA)
    assert total == 2_000_000 and gof.passed


def test_exact_tally_sends_the_cut_tail_past_the_table():
    params = HarrisParams(2.0, 2)
    values, probs = acceptance._law_cells(params, 0.3)
    table = harris_pmf(params, np.arange(len(values) - 1))
    assert np.array_equal(values, params.support_value(np.arange(len(values))))
    assert probs[-1] == pytest.approx(1.0 - table.sum(), rel=1e-12)
    draws = 100_000
    observed = exact_observed(3, values, probs, draws)
    assert max(observed) == values[-1]
    # 4 standard errors for the open tail and for the last point of the table
    for value, p in ((values[-1], probs[-1]), (values[-2], probs[-2])):
        assert abs(observed[value] / draws - p) <= 4 * math.sqrt(p * (1 - p) / draws)


# (label, Harris law, replicas) of the Monte Carlo verdicts: criteria 3, 4
# and 5 at their default scales
MONTE_CARLO_LAWS = [("criterion-3", HarrisParams(E, 2), 100_000),
                    ("criterion-4", HarrisParams(2.0, 2), 1_000_000),
                    ("criterion-5", HarrisParams(math.exp(0.7), 1), 100_000)]


def monte_carlo_sizes(params, replicas, seeds):
    """Rejection rates (GoF, mean, variance) of the true law, over seeds
    exact tallies of replicas draws each, judged as run_scenario judges."""
    cells = acceptance._law_cells(params, acceptance.CALIBRATION_TAIL)
    mean, var = harris_mean_var(params)
    band = acceptance._variance_band(params, replicas)
    rejections = np.zeros(3, dtype=int)
    for seed in seeds:
        observed = exact_observed(seed, *cells, replicas)
        support, probs = gof_support(params, max(observed), replicas)
        gof = chi_square_gof(observed, support, probs, acceptance.GOF_ALPHA)
        checks = moment_check(*tally_moments(observed), replicas, mean, var, band)
        rejections += [not gof.passed, not checks[0].passed, not checks[1].passed]
    return rejections / len(seeds)


@pytest.mark.parametrize("params,replicas", [law[1:] for law in MONTE_CARLO_LAWS],
                         ids=[law[0] for law in MONTE_CARLO_LAWS])
def test_every_monte_carlo_verdict_keeps_its_size(params, replicas):
    from scipy import stats

    seeds = 500

    def bound(rate):
        # a correct program exceeds it with chance below 1e-3
        return stats.binom.isf(1e-3, seeds, rate) / seeds

    gof, mean, var = monte_carlo_sizes(params, replicas, range(seeds))
    # the mean band is 3 standard errors: 0.27% under a normal law; the
    # variance band is at least that wide
    assert gof <= bound(acceptance.GOF_ALPHA)
    assert mean <= bound(0.0027) and var <= bound(0.0027)


def test_criterion_9_byte_identical_cli_reruns(tmp_path):
    flags = ["simulate", "--model", "birth", "--lambda", "0.5", "--k", "2",
             "--t", "1", "--replicas", "100000", "--seed", str(SEED)]
    identical = {}
    for fmt in ("csv", "json"):
        paths = [tmp_path / f"rerun{i}.{fmt}" for i in (1, 2)]
        for path in paths:
            code = main(flags + ["--format", fmt, "--out", str(path)])
            assert code == 0, f"criterion-3 scenario failed via the CLI ({fmt})"
        identical[fmt] = paths[0].read_bytes() == paths[1].read_bytes()
    record(9, "byte-identical-reruns",
           identical["csv"] and identical["json"],
           f"csv identical: {identical['csv']}; json identical: {identical['json']}")


def test_criterion_9_fails_when_the_rerun_differs(monkeypatch):
    run_scenario = acceptance.run_scenario
    birth_calls = []

    def drifting(model, **kwargs):
        if model == "birth":
            birth_calls.append(kwargs["seed"])
            # the rerun draws other paths from another seed
            kwargs["seed"] += len(birth_calls) - 1
        return run_scenario(model, **kwargs)

    monkeypatch.setattr(acceptance, "run_scenario", drifting)
    monkeypatch.setattr(acceptance, "CALIBRATION_DRAWS", 2000)
    results = acceptance.run_acceptance(birth_replicas=2000, mixture_draws=20_000,
                                        calibration_seeds=200)
    # criterion 3's run is the first of the pair; one rerun follows it
    assert birth_calls == [SEED, SEED]
    determinism = results[8]
    assert determinism.number == 9 and not determinism.passed
    assert determinism.detail == ("csv rerun identical: False; "
                                  "json rerun identical: False")


# Goodness-of-fit results pinned on the birth sampler's pass stream:
# statistic (exact repr), degrees of freedom and bin labels, the last two as
# the scalar support walk the array form replaced gave them.
# The statistic is that of the log-Pochhammer p.m.f.; with probabilities
# exact to 50 digits (m = e) it is 28.608510155545403.
def test_gof_of_criterion_3_is_pinned():
    gof = acceptance.run_scenario("birth", lam=0.5, k=2, t=1.0, replicas=100_000,
                                  seed=SEED).report.gof
    assert repr(gof.statistic) == "28.60851015552567"
    assert gof.degrees_of_freedom == 17
    assert [b.label for b in gof.bins] == [str(x) for x in range(1, 35, 2)] + [">=35"]


def test_gof_of_the_deep_birth_run_is_pinned():
    # simulate --model birth --lambda 1 --k 1 --t 6 --replicas 2000
    # --seed 1880700755: 2000 paths of ~400 events, 3,385 support points
    gof = acceptance.run_scenario("birth", lam=1.0, k=1, t=6.0, replicas=2000,
                                  seed=1880700755).report.gof
    labels = [b.label for b in gof.bins]
    assert repr(gof.statistic) == "357.1640692937926"
    assert gof.degrees_of_freedom == 315
    assert labels[:3] == ["1-2", "3-4", "5-6"]
    assert labels[-3:] == ["1904-2037", "2038-2238", ">=2239"]
    assert hashlib.sha256(" ".join(labels).encode()).hexdigest() == (
        "3dd4227b231d9c95d84450deb0df2ea509f8c67d4fdf56a702079a14c7d055cf")


@pytest.mark.parametrize("m", [1.01, 2.0, E, 10.0, math.exp(6.0)])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_variance_band_uses_the_law_excess_kurtosis(m, k):
    from scipy import stats

    g2 = float(stats.nbinom.stats(1.0 / k, 1.0 / m, moments="k"))
    for n in (100, 2000, 100_000):
        expected = max(0.05, 3.0 * math.sqrt(2.0 / (n - 1) + g2 / n))
        assert acceptance._variance_band(HarrisParams(m, k), n) == pytest.approx(
            expected, rel=1e-12)


def test_variance_band_is_the_5_percent_floor_at_default_scale():
    assert acceptance._variance_band(HarrisParams(E, 2), 100_000) == 0.05
    assert acceptance._variance_band(HarrisParams(2.0, 2), 1_000_000) == 0.05


def test_variance_band_passes_a_correct_sampler_at_2000_paths():
    # the long-path scale (lambda 1, k 1, t 6: ~400 events per path); a
    # fixed 5% band rejects 6 of these 20 seeds
    failed = [seed for seed in range(20)
              if not acceptance.run_scenario("birth", lam=1.0, k=1, t=6.0,
                                             replicas=2000, seed=seed)
              .report.var_check.passed]
    assert failed == []


def test_variance_band_still_rejects_a_variance_25_percent_off():
    run = acceptance.run_scenario("birth", lam=1.0, k=1, t=6.0, replicas=2000,
                                  seed=0)
    check = run.report.var_check
    assert 0.05 < check.rel_tol < 0.25
    mean = run.report.mean_check.analytic
    for factor in (0.75, 1.25):
        _, var_check = moment_check(mean, factor * check.analytic, 2000, mean,
                                    check.analytic, var_rel_tol=check.rel_tol)
        assert not var_check.passed
