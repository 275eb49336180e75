"""End-to-end validation scenarios and the full cross-validation grid.

``run_scenario`` drives either model end to end (simulate, compare against
the analytic law, assemble a ValidationReport); ``run_acceptance`` executes
the whole battery of cross-checks relating the closed forms, the forward
equations, the quadrature oracle, and Monte Carlo, and reports one verdict
per check.  Both are exposed through the command line.  The Monte Carlo
runs, tallies built block by block, and their work bounds belong to the
models (birth.tally_model1, mixture.tally_model2); this module only judges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .birth import (ProcessParams, _check_run, process_moments, solve_forward_odes,
                    solve_forward_odes_at, tally_model1)
from .distribution import (HarrisParams, decap_geometric_pmf, harris_pgf,
                           harris_pmf, nb_pmf, pmf_table)
from .mixture import (MixtureParams, _mixture_quadrature, mixture_moments,
                      mixture_pmf, quadrature_agrees, tally_model2)
from .reporting import simulate_text
from .sampling import RngStream, _check_draw_budget, _check_index
from .validation import (MIN_MOMENT_SAMPLES, VAR_REL_FLOOR, Scenario,
                         ValidationReport, _table_length, chi_square_gof, gof_cells,
                         gof_support, moment_check, pearson_statistic, tally_moments)

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
CALIBRATION_LEVEL = 0.05  # criterion 8's goodness-of-fit level
# Criterion 8's band for that test's rejection rate.  It is judged at
# DEFAULT_CALIBRATION_SEEDS seeds or more: a correct program's rate of n
# seeds falls outside it with chance 68% at n = 10, 40% at 25, 11% at 50
# and 0.06% at 200 (Bin(n, CALIBRATION_LEVEL)).
CALIBRATION_BAND = (0.01, 0.11)
# Criterion 8's table of the law ends where the certified tail drops below
# this; one open-tail cell past it holds the rest of the mass.
CALIBRATION_TAIL = 1e-16
# Criterion 8 judges the count vectors of this many seeds at a time, so its
# memory does not grow with --calibration-seeds.
CALIBRATION_BATCH = 256
# Verdict thresholds, each shared by the commands and criteria it lists.
ODE_GAP = 1e-8  # largest absolute ODE gap: ode, criteria 1 and 5
QUAD_GAP = 1e-8  # quadrature gap, relative below: mixture-check, criterion 2
GOF_ALPHA = 0.01  # goodness-of-fit level: simulate, criteria 3 to 5
ODE_SOLVE_BUDGET = 1.0  # seconds per forward-equation integration: criterion 1

# The birth laws of criteria 3, 6 and 9, and of criterion 5 (k = 1)
BIRTH_LAW = {"lam": 0.5, "k": 2, "t": 1.0}
YULE_FURRY_LAW = {"lam": 1.0, "k": 1, "t": 0.7}
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
    """One simulated scenario with its verdict and empirical table: the
    tally, and the lattice points up to its largest value (an int64 array)
    with their expected counts."""

    report: ValidationReport
    observed: dict
    shown: np.ndarray
    expected: np.ndarray


def _variance_band(marginal: HarrisParams, n: int) -> float:
    """Relative band for the sample variance: 3 standard errors, >= VAR_REL_FLOOR.

    The sample variance of n draws has relative variance 2/(n-1) + g2/n,
    where g2 = k*(6 + 1/(m*(m-1))) is the excess kurtosis of the Harris law
    (that of NB(1/k, 1/m)).  At the calibrated 1e5 scale the band is 5%.
    """
    g2 = marginal.k * (6.0 + 1.0 / (marginal.m * (marginal.m - 1.0)))
    return max(VAR_REL_FLOOR, 3.0 * math.sqrt(2.0 / (n - 1) + g2 / n))


def run_scenario(model: str, *, k: int, t: float, replicas: int, seed: int,
                 lam: float = None, a: float = None) -> ScenarioRun:
    """Simulate one model and validate it against its analytic law.

    Model "birth" requires lam, takes no a, and tallies the states of
    replica paths at t (birth.tally_model1); model "mixture" requires a,
    takes no lam, and tallies replicas samples (mixture.tally_model2).
    The law at t and the length of its goodness-of-fit table are checked
    before any draw, and the work bound by each model's run.  The goodness
    of fit at GOF_ALPHA and the exact sample mean and variance are read from
    the run's tally.  The variance band widens with the law's excess
    kurtosis at small replica counts (see _variance_band).
    """
    # the moment bands need this many replicas; refuse before simulating
    if replicas < MIN_MOMENT_SAMPLES:
        raise ValueError(f"need at least {MIN_MOMENT_SAMPLES} replicas, "
                         f"got {replicas!r}")
    if model == "birth":
        if lam is None or a is not None:
            raise ValueError("model 'birth' takes the rate lam and no mixing rate a")
        params, run, moments = ProcessParams(lam, k), tally_model1, process_moments
        rate = {"lambda": params.lam}
    elif model == "mixture":
        if a is None or lam is not None:
            raise ValueError("model 'mixture' takes the mixing rate a and no rate lam")
        params, run, moments = MixtureParams(a, k), tally_model2, mixture_moments
        rate = {"a": params.a}
    else:
        raise ValueError(f"unknown model {model!r}")
    marginal = params.harris_at(t)
    if model == "mixture":
        # gof_support's draw-independent half refuses a table past MAX_TERMS
        # before any draw (birth's _check_run bounds it by the event cap)
        _check_draw_budget("mixture draws", replicas)
        _table_length(marginal, replicas)
    observed = run(params, t, replicas, seed)
    analytic_mean, analytic_var = moments(params, t)
    scenario = Scenario(model, {**rate, "k": params.k}, t, replicas, seed)

    support, probs = gof_support(marginal, max(observed), replicas)
    gof = chi_square_gof(observed, support, probs, GOF_ALPHA)
    mean_check, var_check = moment_check(
        *tally_moments(observed), replicas, analytic_mean, analytic_var,
        _variance_band(marginal, replicas))
    report = ValidationReport(scenario, gof, mean_check, var_check,
                              gof.passed and mean_check.passed and var_check.passed)
    # the expected count of every lattice point up to the largest observation
    shown = support <= max(observed)
    return ScenarioRun(report, observed, support[shown], replicas * probs[shown])


@dataclass(frozen=True)
class CriterionResult:
    """Verdict for one cross-validation check."""

    number: int
    name: str
    passed: bool
    detail: str


def _check_ode_grid() -> CriterionResult:
    """Criterion 1: each ODE_GRID law against the closed form.

    Every rate scales with lam, so the law at (lam, k, t) is that of the
    k-system at any rate base at time lam*t/base.  Each k is integrated
    once, at its laws' smallest rate (not 1, so an ODE that drops lam still
    fails), through their sorted distinct clocks, and each law is judged
    at its own (lam, k, t).  ODE_SOLVE_BUDGET bounds each integration.
    """
    import time

    worst_gap, worst_elapsed = 0.0, 0.0
    for k in sorted({k for _, k, _ in ODE_GRID}):
        laws = [(lam, t) for lam, step, t in ODE_GRID if step == k]
        base = min(lam for lam, _ in laws)
        clocks = sorted({lam * t / base for lam, t in laws})
        start = time.perf_counter()
        solutions = dict(zip(clocks, solve_forward_odes_at(ProcessParams(base, k),
                                                           clocks)))
        worst_elapsed = max(worst_elapsed, time.perf_counter() - start)
        for lam, t in laws:
            solution = solutions[lam * t / base]
            closed = harris_pmf(ProcessParams(lam, k).harris_at(t),
                                np.arange(solution.n_max + 1))
            worst_gap = max(worst_gap, float(np.abs(solution.probs - closed).max()))
    in_budget = worst_elapsed < ODE_SOLVE_BUDGET
    # the measured time stays out of the detail, so reruns print the same bytes
    return CriterionResult(
        1, "forward-equations-vs-closed-form", worst_gap < ODE_GAP and in_budget,
        f"max-abs gap {worst_gap:.3e} (budget {ODE_GAP:.0e}); slowest solve "
        f"{'within' if in_budget else 'over'} the {ODE_SOLVE_BUDGET:g}s budget",
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
        quadrature_agrees(closed, quad, QUAD_GAP),
        f"max-abs gap {np.abs(closed - quad).max():.3e} (budget {QUAD_GAP:.0e})",
    )


def _check_monte_carlo(number: int, name: str, model: str, replicas: int,
                       seed: int, **law):
    """Criteria 3 and 4: one model's law, mean and variance at t; returns
    the verdict and the run."""
    run = run_scenario(model, replicas=replicas, seed=seed, **law)
    gof, mean, var = run.report.gof, run.report.mean_check, run.report.var_check
    detail = (
        f"gof stat {gof.statistic:.3f} vs threshold {gof.threshold:.3f}; "
        f"mean {mean.empirical:.4f} in {mean.analytic:.5g}+/-"
        f"{3 * mean.std_error:.4f}; var {var.empirical:.4f} within "
        f"{100 * var.rel_tol:.3g}% of {var.analytic:.5g}"
    )
    return CriterionResult(number, name, run.report.overall, detail), run


def _check_yule_furry(replicas: int, seed: int) -> CriterionResult:
    params = ProcessParams(YULE_FURRY_LAW["lam"], YULE_FURRY_LAW["k"])
    t = YULE_FURRY_LAW["t"]
    q = math.exp(-t)
    solution = solve_forward_odes(params, t)
    closed = decap_geometric_pmf(q, np.arange(1, solution.n_max + 2))
    ode_gap = float(np.abs(solution.probs - closed).max())

    observed = tally_model1(params, t, replicas, seed)
    # the decapitated geometric, not harris_pmf, so the check stays independent
    support, _ = gof_support(params.harris_at(t), max(observed), replicas)
    probs = decap_geometric_pmf(q, support)
    gof = chi_square_gof(observed, support, probs, GOF_ALPHA)
    passed = ode_gap < ODE_GAP and gof.passed
    detail = (
        f"ode gap {ode_gap:.3e} (budget {ODE_GAP:.0e}); gof stat {gof.statistic:.3f} "
        f"vs threshold {gof.threshold:.3f}"
    )
    return CriterionResult(5, "yule-furry-reduction", passed, detail)


def _check_coupling(birth_run: ScenarioRun,
                    mixture_run: ScenarioRun) -> CriterionResult:
    """Criterion 6: the coupling N = 1 + k*I on the tallies of criteria 3 and 4.

    In each run, a violation is a tallied state off the lattice {1, 1+k, ...}
    or a replica drawn but not tallied exactly once (the gap between the
    tally's total and the replica count).
    """
    def violations(run):
        scenario = run.report.scenario
        off_lattice = sum(count for value, count in run.observed.items()
                          if value < 1 or (value - 1) % scenario.params["k"])
        return off_lattice + abs(sum(run.observed.values()) - scenario.replicas)

    total = violations(birth_run) + violations(mixture_run)
    births, draws = (run.report.scenario.replicas for run in (birth_run, mixture_run))
    return CriterionResult(
        6, "coupling-identity", total == 0,
        f"{total} violations of state = 1 + k*count across {births} "
        f"trajectories and {draws} mixture draws",
    )


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
    nb_budget, one_budget, deriv_budget = 1e-14, 1e-12, 1e-5
    passed = (worst_nb <= nb_budget and worst_pgf_one <= one_budget
              and worst_deriv <= deriv_budget)
    return CriterionResult(
        7, "identity-suite", passed,
        f"nb identity gap {worst_nb:.1e} (budget {nb_budget:.0e}); pgf(1) gap "
        f"{worst_pgf_one:.1e} (budget {one_budget:.0e}); pgf'(1) rel err "
        f"{worst_deriv:.3e} (budget {deriv_budget:.0e})",
    )


def _law_cells(params: HarrisParams, tail: float) -> tuple:
    """(values, probs): the law's table to its truncation at tail, then one
    open-tail cell, the value one step past the table with mass 1 - sum."""
    values, probs, _ = pmf_table(params, tail)
    return (np.append(values, values[-1] + params.k),
            np.append(probs, max(1.0 - probs.sum(), 0.0)))


def _exact_tally(seed: int, probs, draws: int):
    """Counts of draws i.i.d. draws of a law over its table, one per point
    of probs.

    The count vector is one multinomial draw from RngStream(seed): in law,
    the tally of that many inversion draws, at a cost of one binomial draw
    per cell rather than one uniform per draw.
    """
    return RngStream(seed).generator.multinomial(draws, probs)


def _calibration_gofs(params: HarrisParams, n_seeds: int, draws: int):
    """(statistic, threshold) of the chi-square test at CALIBRATION_LEVEL
    of each seed's exact tally of the law, in seed order.

    Seed s tallies draws exact draws of the law from RngStream(s)
    (_exact_tally over _law_cells at CALIBRATION_TAIL), one call per seed.
    The cells of a test depend only on the law and the number of draws, so
    one set of cells is made from _law_cells's table, and the count vectors
    of up to CALIBRATION_BATCH seeds are stacked into one matrix and judged
    against it in one pass.
    """
    values, probs = _law_cells(params, CALIBRATION_TAIL)
    cells = gof_cells(values, probs, draws, CALIBRATION_LEVEL)
    for first in range(0, n_seeds, CALIBRATION_BATCH):
        tallies = [_exact_tally(seed, probs, draws)
                   for seed in range(first, min(first + CALIBRATION_BATCH, n_seeds))]
        rows = np.zeros((len(tallies), max(map(len, tallies))), dtype=np.int64)
        for row, counts in zip(rows, tallies):
            row[:len(counts)] = counts
        statistics = pearson_statistic(cells.observed_in(rows)[0], cells.expected)
        yield from ((statistic, cells.threshold) for statistic in statistics.tolist())


def _check_calibration(n_seeds: int, draws_per_seed: int) -> CriterionResult:
    """Criterion 8: the CALIBRATION_LEVEL test's rejection rate on the true law
    (m = 2, k = 2), over the exact tallies of _calibration_gofs, so the test
    is judged apart from the gamma-Poisson samplers."""
    rejections = sum(statistic > threshold for statistic, threshold
                     in _calibration_gofs(HarrisParams(2.0, 2), n_seeds,
                                          draws_per_seed))
    rate, (low, high) = rejections / n_seeds, CALIBRATION_BAND
    return CriterionResult(
        8, "null-calibration", low <= rate <= high,
        f"rejection rate {rate:.3f} over {n_seeds} seeds (band [{low}, {high}])",
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
    if calibration_seeds < DEFAULT_CALIBRATION_SEEDS:
        raise ValueError(f"calibration seeds must be >= "
                         f"{DEFAULT_CALIBRATION_SEEDS}, got {calibration_seeds!r}")
    for name, count in (("birth replicas", birth_replicas),
                        ("mixture draws", mixture_draws)):
        if count < MIN_MOMENT_SAMPLES:
            raise ValueError(f"need at least {MIN_MOMENT_SAMPLES} {name}, "
                             f"got {count!r}")
    for law in (BIRTH_LAW, YULE_FURRY_LAW):
        _check_run(ProcessParams(law["lam"], law["k"]), law["t"], birth_replicas)
    _check_draw_budget("mixture draws", mixture_draws)
    _check_draw_budget("calibration draws", calibration_seeds * CALIBRATION_DRAWS)
    _check_index("seed", seed)
    criterion_3 = partial(_check_monte_carlo, 3, "model1-monte-carlo-law",
                          "birth", birth_replicas, seed, **BIRTH_LAW)
    results = [_check_ode_grid(), _check_quadrature_grid()]
    birth_result, birth_run = criterion_3()
    mixture_result, mixture_run = _check_monte_carlo(
        4, "model2-monte-carlo-law", "mixture", mixture_draws, seed,
        a=1.0, k=2, t=1.0)
    results += [birth_result, mixture_result,
                _check_yule_furry(birth_replicas, seed),
                _check_coupling(birth_run, mixture_run),
                _check_identities()]
    results.append(_check_calibration(calibration_seeds, CALIBRATION_DRAWS))
    _, rerun = criterion_3()
    results.append(_check_determinism(birth_run, rerun))
    return results
