"""Statistical validation: chi-square goodness of fit and moment bands.

The goodness-of-fit test reads a law as two arrays, increasing support
values and their probabilities (``gof_support`` tabulates them chunk by
chunk), merges consecutive points into bins until each bin's expected
count reaches the classical threshold (5 by default), and closes with one
open tail bin; the Pearson statistic is then compared against the
chi-square upper quantile with (bins - 1) degrees of freedom, found by
root finding on the regularized incomplete gamma function.

Samples are tallied once into a frequency map (``tally``); the goodness of
fit and the exact sample moments (``tally_moments``) are both read from it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammainc

from .errors import ResourceLimitError

__all__ = [
    "Bin",
    "GofResult",
    "MeanCheck",
    "VarCheck",
    "Scenario",
    "ValidationReport",
    "chi_square_quantile",
    "chi_square_gof",
    "gof_support",
    "moment_check",
    "make_report",
    "tally",
    "add_tallies",
    "tally_moments",
]

MIN_EXPECTED_PER_BIN = 5.0
MIN_MOMENT_SAMPLES = 100
# gof_support's arrays start at this many points and double up to the cap
_FIRST_SUPPORT_CHUNK = 256
_MAX_SUPPORT_POINTS = 1_000_000
# tally counts samples below this with one np.bincount (an 8 MB histogram
# at most); wider or negative samples are sorted instead
_DENSE_TALLY_SPAN = 1 << 20


def tally(samples) -> dict:
    """Frequency map value -> count of integer samples, in increasing order."""
    samples = np.asarray(samples)
    if samples.size and samples.min() >= 0 and samples.max() < _DENSE_TALLY_SPAN:
        counts = np.bincount(samples)
        values = np.flatnonzero(counts)
        counts = counts[values]
    else:
        values, counts = np.unique(samples, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def add_tallies(tallies) -> dict:
    """The frequency map of several tallies' samples together, in value order."""
    total = Counter()
    for part in tallies:
        total.update(part)
    return dict(sorted(total.items()))


def tally_moments(observed: dict) -> tuple:
    """(mean, unbiased variance) of tallied samples, each correctly rounded.

    With n samples, S1 the sum and S2 the sum of squares, the mean is S1/n
    and the variance (n*S2 - S1**2)/(n*(n-1)), both in Python integers up
    to one division, so no sum overflows or loses digits.
    """
    n = sum(observed.values())
    if n < 2:
        raise ValueError(f"need at least two samples for a variance, got {n!r}")
    s1 = sum(value * count for value, count in observed.items())
    s2 = sum(value * value * count for value, count in observed.items())
    return s1 / n, (n * s2 - s1 * s1) / (n * (n - 1))


def chi_square_quantile(df: int, alpha: float) -> float:
    """Upper alpha quantile of the chi-square law with df degrees of freedom.

    Solves P(df/2, x/2) = 1 - alpha for x, where P is the regularized
    lower incomplete gamma function, by bracketed root finding.
    """
    if df < 1 or int(df) != df:
        raise ValueError(f"degrees of freedom must be a positive integer, got {df!r}")
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"significance level must lie in (0, 1), got {alpha!r}")
    df = int(df)
    target = 1.0 - alpha

    def excess(x):
        return gammainc(df / 2.0, x / 2.0) - target

    hi = float(max(df, 1))
    while excess(hi) < 0.0:
        hi *= 2.0
    return brentq(excess, 0.0, hi, xtol=1e-13, rtol=8.9e-16)


@dataclass(frozen=True)
class Bin:
    """One goodness-of-fit cell: support label, observed and expected counts."""

    label: str
    observed: int
    expected: float


@dataclass(frozen=True)
class GofResult:
    statistic: float
    degrees_of_freedom: int
    threshold: float
    alpha: float
    passed: bool
    bins: tuple = field(repr=False)


def _bin_label(lo: int, hi: int, open_tail: bool) -> str:
    if open_tail:
        return f">={lo}"
    if lo == hi:
        return str(lo)
    return f"{lo}-{hi}"


def gof_support(pmf, support_value, observed, total: int) -> tuple:
    """(support, probs) arrays of a law, long enough for chi_square_gof.

    pmf and support_value map index arrays 0, 1, ... to probabilities and
    increasing support values.  The arrays double from 256 points until the
    test of observed stops inside them; past a million points the law is
    refused with ResourceLimitError.
    """
    n = np.arange(_FIRST_SUPPORT_CHUNK)
    support, probs = support_value(n), pmf(n)
    # the probabilities are nonnegative, so once the test could stop at the
    # last point it stops there or sooner
    while (total * (1.0 - np.cumsum(probs)[-1]) >= MIN_EXPECTED_PER_BIN
           or support[-1] < max(observed)):
        if len(support) >= _MAX_SUPPORT_POINTS:
            raise ResourceLimitError(f"goodness-of-fit support exceeded "
                                     f"{_MAX_SUPPORT_POINTS} points")
        n = np.arange(len(support), min(2 * len(support), _MAX_SUPPORT_POINTS))
        support = np.concatenate([support, support_value(n)])
        probs = np.concatenate([probs, pmf(n)])
    return support, probs


def chi_square_gof(observed, support, probs, total: int, alpha: float,
                   min_expected: float = MIN_EXPECTED_PER_BIN) -> GofResult:
    """Pearson chi-square test of observed frequencies against a p.m.f.

    Parameters
    ----------
    observed : mapping
        Frequency map support value -> count; counts must sum to total.
    support : array of int
        Support values in increasing order, e.g. from gof_support.
    probs : array of float
        Probability of each support value.
    total : int
        Number of samples behind the observed map.
    alpha : float
        Significance level for the pass/fail threshold.

    The support is read up to the first point with no observation and less
    than min_expected expected beyond it, or to its end.  Consecutive points
    are merged until every bin's expected count reaches min_expected; the
    final bin absorbs the open tail, observations past the support included.
    Raises ValueError if fewer than two bins survive merging.
    """
    if total <= 0:
        raise ValueError(f"total must be positive, got {total!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"significance level must lie in (0, 1), got {alpha!r}")
    if not observed:
        raise ValueError("observed frequency map is empty")
    support, probs = np.asarray(support), np.asarray(probs, dtype=float)
    if support.ndim != 1 or support.shape != probs.shape or not support.size:
        raise ValueError("support and probs must be non-empty 1-d arrays of one length")
    if np.any(np.diff(support) <= 0):
        raise ValueError("support values must increase")
    observed_sum = sum(observed.values())
    if abs(observed_sum - total) > 1e-9 * max(total, 1):
        raise ValueError(
            f"observed counts sum to {observed_sum!r}, not the stated total {total!r}"
        )

    # np.cumsum adds in support order, as a running sum does
    cumulative = np.cumsum(probs)
    stops = np.flatnonzero((total * (1.0 - cumulative) < min_expected)
                           & (support >= max(observed)))
    end = int(stops[0]) + 1 if stops.size else len(support)
    values = support[:end].tolist()
    counts = [observed.get(value, 0) for value in values]
    tail_expected = max(total * (1.0 - float(cumulative[end - 1])), 0.0)
    # Observations past the read range belong to the open tail bin.
    tail_observed = observed_sum - sum(counts)

    bins = []
    acc_obs, acc_exp = 0, 0.0
    acc_lo = None
    for value, obs, exp in zip(values, counts, (total * probs[:end]).tolist()):
        if acc_lo is None:
            acc_lo = value
        acc_obs += obs
        acc_exp += exp
        if acc_exp >= min_expected:
            bins.append(Bin(_bin_label(acc_lo, value, False), acc_obs, acc_exp))
            acc_obs, acc_exp, acc_lo = 0, 0.0, None
    # Open tail (plus any residual accumulation) becomes the last bin.
    acc_obs += tail_observed
    acc_exp += tail_expected
    if acc_lo is not None or acc_exp > 0.0 or acc_obs > 0:
        tail_lo = acc_lo if acc_lo is not None else values[-1] + 1
        tail_bin = Bin(_bin_label(tail_lo, tail_lo, True), acc_obs, acc_exp)
        if tail_bin.expected >= min_expected or not bins:
            bins.append(tail_bin)
        else:
            last = bins.pop()
            merged_lo = last.label.split("-")[0]
            bins.append(Bin(f">={merged_lo}", last.observed + tail_bin.observed,
                            last.expected + tail_bin.expected))
    if len(bins) < 2:
        raise ValueError("fewer than two bins remain after merging")

    statistic = sum((b.observed - b.expected) ** 2 / b.expected for b in bins)
    df = len(bins) - 1
    threshold = chi_square_quantile(df, alpha)
    return GofResult(float(statistic), df, threshold, alpha,
                     statistic <= threshold, tuple(bins))


@dataclass(frozen=True)
class MeanCheck:
    empirical: float
    analytic: float
    std_error: float
    passed: bool


@dataclass(frozen=True)
class VarCheck:
    empirical: float
    analytic: float
    rel_tol: float
    passed: bool


def moment_check(samples_mean: float, samples_var: float, n: int,
                 analytic_mean: float, analytic_var: float,
                 var_rel_tol: float = 0.05) -> tuple:
    """(mean_pass, var_pass): 3-standard-error band and relative variance band."""
    if n < MIN_MOMENT_SAMPLES:
        raise ValueError(f"need at least {MIN_MOMENT_SAMPLES} samples for moment "
                         f"bands, got {n!r}")
    std_error = (analytic_var / n) ** 0.5
    mean_pass = abs(samples_mean - analytic_mean) <= 3.0 * std_error
    var_pass = abs(samples_var - analytic_var) <= var_rel_tol * analytic_var
    return mean_pass, var_pass


@dataclass(frozen=True)
class Scenario:
    """What was simulated: model name, parameters, query time, scale, seed."""

    model: str
    params: dict
    t: float
    replicas: int
    seed: int


@dataclass(frozen=True)
class ValidationReport:
    """Scenario plus verdicts; ``dataclasses.asdict`` gives its JSON form."""

    scenario: Scenario
    gof: GofResult
    mean_check: MeanCheck
    var_check: VarCheck
    overall: bool

    @classmethod
    def from_dict(cls, payload: dict) -> "ValidationReport":
        """Inverse of ``dataclasses.asdict``, also after a JSON round trip."""
        bins = tuple(Bin(**b) for b in payload["gof"]["bins"])
        return cls(Scenario(**payload["scenario"]),
                   GofResult(**{**payload["gof"], "bins": bins}),
                   MeanCheck(**payload["mean_check"]),
                   VarCheck(**payload["var_check"]), payload["overall"])


def make_report(scenario: Scenario, observed, support, probs,
                empirical_mean: float, empirical_var: float,
                analytic_mean: float, analytic_var: float,
                alpha: float = 0.01, var_rel_tol: float = 0.05) -> ValidationReport:
    """Assemble the full verdict: GoF plus mean and variance bands."""
    gof = chi_square_gof(observed, support, probs, scenario.replicas, alpha)
    mean_pass, var_pass = moment_check(empirical_mean, empirical_var,
                                       scenario.replicas, analytic_mean,
                                       analytic_var, var_rel_tol=var_rel_tol)
    std_error = (analytic_var / scenario.replicas) ** 0.5
    mean_check = MeanCheck(float(empirical_mean), float(analytic_mean),
                           float(std_error), mean_pass)
    var_check = VarCheck(float(empirical_var), float(analytic_var),
                         float(var_rel_tol), var_pass)
    overall = gof.passed and mean_pass and var_pass
    return ValidationReport(scenario, gof, mean_check, var_check, overall)
