"""End-to-end validation scenarios and the full cross-validation grid.

``run_scenario`` drives either model end to end (simulate, compare against
the analytic law, assemble a ValidationReport); ``run_acceptance`` executes
the whole battery of cross-checks relating the closed forms, the forward
equations, the quadrature oracle, and Monte Carlo, and reports one verdict
per check.  Both are exposed through the command line.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .birth import (ProcessParams, empirical_distribution, process_moments,
                    simulate_many, solve_forward_odes)
from .distribution import (HarrisParams, decap_geometric_pmf, harris_pgf,
                           harris_pmf, nb_pmf)
from .mixture import (DRAW_BLOCK, MixtureParams, _mixture_quadrature,
                      mixture_moments, mixture_pmf, quadrature_agrees,
                      sample_model2)
from .reporting import simulate_text
from .sampling import RngStream, sample_harris
from .validation import (MIN_MOMENT_SAMPLES, Scenario, ValidationReport,
                         add_tallies, chi_square_gof, gof_support, moment_check,
                         tally, tally_moments)

__all__ = [
    "ScenarioRun",
    "CriterionResult",
    "run_scenario",
    "run_acceptance",
]

# Default scales: they reproduce the full cross-validation battery.
DEFAULT_BIRTH_REPLICAS = 100_000
DEFAULT_MIXTURE_DRAWS = 1_000_000
DEFAULT_CALIBRATION_SEEDS = 200
DEFAULT_ACCEPTANCE_SEED = 42
CALIBRATION_DRAWS = 10_000
# Criterion 8's band [0.01, 0.11] holds no rejection rate j/n for n < 10.
MIN_CALIBRATION_SEEDS = 10
# Streams _map_streams submits at once.  The pool makes a future (~1.6 KiB)
# for each stream of a batch before the first result is read, so a fixed
# batch bounds that memory for any stream count; 1024 holds the 200
# calibration seeds or the 153 blocks of 1e7 mixture draws in one batch.
STREAM_BATCH = 1024

ODE_GRID = tuple(
    (lam, k, t) for lam in (0.25, 0.5, 1.0) for k in (1, 2, 3) for t in (0.5, 1.0)
)
QUAD_GRID = tuple(
    (a, t, k) for a in (0.5, 1.0, 2.0) for t in (0.5, 1.0, 2.0) for k in (1, 2, 3)
)
IDENTITY_GRID_M = (1.1, 2.0, math.e, 10.0)
IDENTITY_GRID_K = (1, 2, 3, 5)


@dataclass(frozen=True)
class ScenarioRun:
    """One simulated scenario with its verdict and empirical table."""

    report: ValidationReport
    observed: dict
    expected_counts: dict
    coupling_violations: int


def _variance_band(marginal: HarrisParams, n: int) -> float:
    """Relative band for the sample variance: 3 standard errors, at least 5%.

    The sample variance of n draws has relative variance 2/(n-1) + g2/n,
    where g2 = k*(6 + 1/(m*(m-1))) is the excess kurtosis of the Harris law
    (that of NB(1/k, 1/m)).  At the calibrated 1e5 scale the band is 5%.
    """
    g2 = marginal.k * (6.0 + 1.0 / (marginal.m * (marginal.m - 1.0)))
    return max(0.05, 3.0 * math.sqrt(2.0 / (n - 1) + g2 / n))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # sched_getaffinity is not on every platform
        return os.cpu_count() or 1


def _map_streams(task, n: int) -> list:
    """[task(b) for b in range(n)], one thread per usable CPU (numpy's
    samplers release the GIL); one stream or one CPU runs inline.  Streams
    are submitted STREAM_BATCH at a time, each batch scheduled dynamically."""
    workers = min(_usable_cpus(), n)
    if workers <= 1:
        return [task(b) for b in range(n)]
    results = []
    with ThreadPoolExecutor(workers) as pool:
        for start in range(0, n, STREAM_BATCH):
            results += pool.map(task, range(start, min(start + STREAM_BATCH, n)))
    return results


def _tally_mixture(params: MixtureParams, t: float, draws: int, seed: int) -> dict:
    """Frequency map of draws samples of Z(t), drawn block by block.

    Block b holds DRAW_BLOCK draws (the last one the rest) from
    RngStream(seed, b), on the stream pool (_map_streams).  Integer counts
    add exactly, so the tally does not depend on the worker count.
    """
    def block(b):
        size = min(DRAW_BLOCK, draws - b * DRAW_BLOCK)
        # sample_model2 is looked up here on every call, so a rebinding of
        # this module's name sees every block
        return tally(sample_model2(RngStream(seed, b), params, t, size=size))

    return add_tallies(_map_streams(block, -(-draws // DRAW_BLOCK)))


def run_scenario(model: str, *, k: int, t: float, replicas: int, seed: int,
                 lam: float = None, a: float = None,
                 alpha: float = 0.01) -> ScenarioRun:
    """Simulate one model and validate it against its analytic law.

    Model "birth" requires lam, takes no a, and simulates replica
    trajectories to t (replica block b on stream b); model "mixture"
    requires a, takes no lam, and draws replicas samples (draw block b of
    DRAW_BLOCK on stream b).  Either way the samples are tallied once; the
    goodness of fit, the exact sample mean and variance and, for the
    mixture, the draws off the lattice {1, 1+k, ...} are read from that
    tally.  The variance band widens with the law's excess kurtosis at
    small replica counts (see _variance_band).
    """
    # the moment bands need this many replicas; refuse before simulating
    if replicas < MIN_MOMENT_SAMPLES:
        raise ValueError(f"need at least {MIN_MOMENT_SAMPLES} replicas, "
                         f"got {replicas!r}")
    if model == "birth":
        if lam is None or a is not None:
            raise ValueError("model 'birth' takes the rate lam and no mixing rate a")
        params = ProcessParams(lam, k)
        batch = simulate_many(params, t, replicas, seed)
        violations = batch.coupling_violations()
        observed = empirical_distribution(batch, t)
        marginal = params.harris_at(t)
        analytic_mean, analytic_var = process_moments(params, t)
        scenario = Scenario("birth", {"lambda": params.lam, "k": params.k},
                            t, replicas, seed)
    elif model == "mixture":
        if a is None or lam is not None:
            raise ValueError("model 'mixture' takes the mixing rate a and no rate lam")
        params = MixtureParams(a, k)
        observed = _tally_mixture(params, t, replicas, seed)
        violations = sum(count for value, count in observed.items()
                         if (value - 1) % params.k)
        marginal = params.harris_at(t)
        analytic_mean, analytic_var = mixture_moments(params, t)
        scenario = Scenario("mixture", {"a": params.a, "k": params.k},
                            t, replicas, seed)
    else:
        raise ValueError(f"unknown model {model!r}")

    support, probs = gof_support(marginal, max(observed), replicas)
    gof = chi_square_gof(observed, support, probs, alpha)
    mean_check, var_check = moment_check(
        *tally_moments(observed), replicas, analytic_mean, analytic_var,
        _variance_band(marginal, replicas))
    report = ValidationReport(scenario, gof, mean_check, var_check,
                              gof.passed and mean_check.passed and var_check.passed)
    # the expected count of every lattice point up to the largest observation
    shown = support <= max(observed)
    expected = dict(zip(support[shown].tolist(), (replicas * probs[shown]).tolist()))
    return ScenarioRun(report, observed, expected, violations)


@dataclass(frozen=True)
class CriterionResult:
    """Verdict for one cross-validation check."""

    number: int
    name: str
    passed: bool
    detail: str


def _check_ode_grid() -> CriterionResult:
    import time

    worst_gap, worst_elapsed = 0.0, 0.0
    for lam, k, t in ODE_GRID:
        params = ProcessParams(lam, k)
        start = time.perf_counter()
        solution = solve_forward_odes(params, t)
        worst_elapsed = max(worst_elapsed, time.perf_counter() - start)
        closed = harris_pmf(params.harris_at(t), np.arange(solution.n_max + 1))
        worst_gap = max(worst_gap, float(np.abs(solution.probs - closed).max()))
    in_budget = worst_elapsed < 1.0
    # the measured time stays out of the detail, so reruns print the same bytes
    return CriterionResult(
        1, "forward-equations-vs-closed-form", worst_gap < 1e-8 and in_budget,
        f"max-abs gap {worst_gap:.3e} (budget 1e-08); slowest solve "
        f"{'within' if in_budget else 'over'} the 1s budget",
    )


def _check_quadrature_grid() -> CriterionResult:
    ns = np.arange(21)
    closed = np.array([mixture_pmf(MixtureParams(a, k), t, ns)
                       for a, t, k in QUAD_GRID])
    # the whole grid in one quadrature call: one row per law, one column per n
    a, t, k = np.array(QUAD_GRID).T[:, :, None]
    quad = _mixture_quadrature(a, k, t, ns)
    return CriterionResult(
        2, "mixture-quadrature-vs-closed-form",
        quadrature_agrees(closed, quad, 1e-8),
        f"max-abs gap {np.abs(closed - quad).max():.3e} (budget 1e-08)",
    )


def _check_birth_mc(replicas: int, seed: int):
    run = run_scenario("birth", lam=0.5, k=2, t=1.0, replicas=replicas,
                       seed=seed, alpha=0.01)
    report = run.report
    passed = report.overall
    detail = (
        f"gof stat {report.gof.statistic:.3f} vs threshold "
        f"{report.gof.threshold:.3f}; mean {report.mean_check.empirical:.4f} "
        f"in {report.mean_check.analytic:.4f}+/-{3 * report.mean_check.std_error:.4f}; "
        f"var {report.var_check.empirical:.4f} within "
        f"{100 * report.var_check.rel_tol:.3g}% of {report.var_check.analytic:.4f}"
    )
    return CriterionResult(3, "model1-monte-carlo-law", passed, detail), run


def _check_mixture_mc(draws: int, seed: int):
    run = run_scenario("mixture", a=1.0, k=2, t=1.0, replicas=draws,
                       seed=seed, alpha=0.01)
    report = run.report
    detail = (
        f"gof stat {report.gof.statistic:.3f} vs threshold "
        f"{report.gof.threshold:.3f}; mean {report.mean_check.empirical:.4f} "
        f"in 2+/-{3 * report.mean_check.std_error:.4f}; var "
        f"{report.var_check.empirical:.4f} within "
        f"{100 * report.var_check.rel_tol:.3g}% of 4"
    )
    result = CriterionResult(4, "model2-monte-carlo-law", report.overall, detail)
    return result, run


def _check_yule_furry(replicas: int, seed: int):
    params = ProcessParams(1.0, 1)
    t = 0.7
    q = math.exp(-t)
    solution = solve_forward_odes(params, t)
    closed = decap_geometric_pmf(q, np.arange(1, solution.n_max + 2))
    ode_gap = float(np.abs(solution.probs - closed).max())

    batch = simulate_many(params, t, replicas, seed)
    violations = batch.coupling_violations()
    observed = empirical_distribution(batch, t)
    # the decapitated geometric, not harris_pmf, so the check stays independent
    support, _ = gof_support(params.harris_at(t), max(observed), replicas)
    probs = decap_geometric_pmf(q, support)
    gof = chi_square_gof(observed, support, probs, 0.01)
    passed = ode_gap < 1e-8 and gof.passed
    detail = (
        f"ode gap {ode_gap:.3e} (budget 1e-08); gof stat {gof.statistic:.3f} "
        f"vs threshold {gof.threshold:.3f}"
    )
    return CriterionResult(5, "yule-furry-reduction", passed, detail), violations


def _check_identities() -> CriterionResult:
    worst_nb = 0.0
    worst_pgf_one = 0.0
    worst_deriv = 0.0
    h = 1e-5
    for m in IDENTITY_GRID_M:
        for k in IDENTITY_GRID_K:
            params = HarrisParams(m, k)
            ns = np.arange(51)
            nb = nb_pmf(1.0 / k, 1.0 / m, ns)
            hp = harris_pmf(params, ns)
            rel = np.abs(hp - nb) / np.maximum(np.maximum(hp, nb), 1e-300)
            worst_nb = max(worst_nb, float(rel.max()))
            worst_pgf_one = max(worst_pgf_one, abs(harris_pgf(params, 1.0) - 1.0))
            deriv = (harris_pgf(params, 1.0 + h) - harris_pgf(params, 1.0 - h)) / (2 * h)
            worst_deriv = max(worst_deriv, abs(deriv - m) / m)
    passed = worst_nb <= 1e-14 and worst_pgf_one <= 1e-12 and worst_deriv <= 1e-5
    return CriterionResult(
        7, "identity-suite", passed,
        f"nb identity gap {worst_nb:.1e} (budget 1e-14); pgf(1) gap "
        f"{worst_pgf_one:.1e} (budget 1e-12); pgf'(1) rel err {worst_deriv:.3e} "
        f"(budget 1e-05)",
    )


def _check_calibration(n_seeds: int, draws_per_seed: int) -> CriterionResult:
    """Criterion 8: the 5% chi-square test's rejection rate on the true law.

    Seed s tallies draws_per_seed draws from RngStream(s) on the stream pool.
    Every seed is tested against one table, made for the largest value seen:
    the table gof_support makes for one seed alone is a prefix of it and the
    test stops inside that prefix, so the rate is the same for any worker count.
    """
    params = HarrisParams(2.0, 2)
    tallies = _map_streams(lambda seed: tally(sample_harris(
        RngStream(seed), params, size=draws_per_seed)), n_seeds)
    support, probs = gof_support(params, max(map(max, tallies)), draws_per_seed)
    rejections = sum(not chi_square_gof(observed, support, probs, 0.05).passed
                     for observed in tallies)
    rate = rejections / n_seeds
    return CriterionResult(
        8, "null-calibration", 0.01 <= rate <= 0.11,
        f"rejection rate {rate:.3f} over {n_seeds} seeds (band [0.01, 0.11])",
    )


def _check_determinism(first: ScenarioRun, rerun: ScenarioRun) -> CriterionResult:
    """Criterion 3's run against its rerun, rendered in both formats."""
    same = [simulate_text(first, fmt) == simulate_text(rerun, fmt)
            for fmt in ("csv", "json")]
    return CriterionResult(
        9, "byte-identical-reruns", all(same),
        f"csv rerun identical: {same[0]}; json rerun identical: {same[1]}",
    )


def run_acceptance(birth_replicas: int = DEFAULT_BIRTH_REPLICAS,
                   mixture_draws: int = DEFAULT_MIXTURE_DRAWS,
                   calibration_seeds: int = DEFAULT_CALIBRATION_SEEDS,
                   seed: int = DEFAULT_ACCEPTANCE_SEED) -> list:
    """Run every cross-validation criterion; returns one result per check.

    Scales the battery cannot judge are refused before anything runs.
    """
    if calibration_seeds < MIN_CALIBRATION_SEEDS:
        raise ValueError(f"calibration seeds must be >= {MIN_CALIBRATION_SEEDS}, "
                         f"got {calibration_seeds!r}")
    for name, count in (("birth replicas", birth_replicas),
                        ("mixture draws", mixture_draws)):
        if count < MIN_MOMENT_SAMPLES:
            raise ValueError(f"need at least {MIN_MOMENT_SAMPLES} {name}, "
                             f"got {count!r}")
    results = [_check_ode_grid(), _check_quadrature_grid()]
    birth_result, birth_run = _check_birth_mc(birth_replicas, seed)
    results.append(birth_result)
    mixture_result, mixture_run = _check_mixture_mc(mixture_draws, seed)
    results.append(mixture_result)
    yule_result, yule_violations = _check_yule_furry(birth_replicas, seed)
    results.append(yule_result)
    violations = (birth_run.coupling_violations + yule_violations
                  + mixture_run.coupling_violations)
    results.append(CriterionResult(
        6, "coupling-identity", violations == 0,
        f"{violations} violations of state = 1 + k*count across "
        f"{2 * birth_replicas} trajectories and {mixture_draws} mixture draws",
    ))
    results.append(_check_identities())
    results.append(_check_calibration(calibration_seeds, CALIBRATION_DRAWS))
    _, rerun = _check_birth_mc(birth_replicas, seed)
    results.append(_check_determinism(birth_run, rerun))
    return results
