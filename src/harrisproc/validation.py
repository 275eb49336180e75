"""Statistical validation: chi-square goodness of fit and moment bands.

The goodness-of-fit test reads a law as two arrays, increasing support
values and their probabilities (``gof_support`` tabulates a Harris law in
one call, to its certified truncation), merges consecutive points into
bins until each bin's expected count reaches the classical threshold (5
by default), and closes with one open tail bin; the Pearson statistic is
then compared against the chi-square upper quantile with (bins - 1)
degrees of freedom, ``scipy.special.chdtri``.

Samples are tallied once into a frequency map (``tally``); the goodness of
fit and the exact sample moments (``tally_moments``) are both read from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np
from scipy.special import chdtri

from .distribution import MAX_TERMS, HarrisParams, harris_pmf, truncation_index
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
    "GofCells",
    "gof_stop",
    "gof_cells",
    "pearson_statistic",
    "gof_support",
    "moment_check",
    "tally",
    "tally_moments",
]

MIN_EXPECTED_PER_BIN = 5.0
MIN_MOMENT_SAMPLES = 100
VAR_REL_FLOOR = 0.05  # narrowest variance band: moment_check, _variance_band
# tally counts samples below this with one np.bincount (an 8 MB histogram
# at most); wider or negative samples are sorted instead
_DENSE_TALLY_SPAN = 1 << 20


def _tally_arrays(samples) -> tuple:
    """(values, counts) of integer samples, values increasing."""
    samples = np.asarray(samples)
    if samples.size and samples.min() >= 0 and samples.max() < _DENSE_TALLY_SPAN:
        counts = np.bincount(samples)
        values = np.flatnonzero(counts)
        return values, counts[values]
    return np.unique(samples, return_counts=True)


def tally(samples) -> dict:
    """Frequency map value -> count of integer samples, in increasing order."""
    values, counts = _tally_arrays(samples)
    return dict(zip(values.tolist(), counts.tolist()))


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

    The x with Q(df/2, x/2) = alpha, where Q is the regularized upper
    incomplete gamma function, from ``scipy.special.chdtri``.
    """
    if df < 1 or int(df) != df:
        raise ValueError(f"degrees of freedom must be a positive integer, got {df!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"significance level must lie in (0, 1), got {alpha!r}")
    return float(chdtri(int(df), alpha))


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


def gof_support(params: HarrisParams, largest: int, total: int) -> tuple:
    """(support, probs) arrays of a Harris law, long enough for chi_square_gof.

    The table runs to largest, the largest of total observations, or to the
    truncation index certified for half the tail at which the test may stop,
    so it stops inside: at k = 1 the bound is the true tail, and the half
    keeps 1 - cumsum rounding from moving the stop past the end.  Past
    MAX_TERMS points the law is refused with ResourceLimitError.
    """
    n = max(truncation_index(params, min(MIN_EXPECTED_PER_BIN / (2 * total), 0.5)),
            (largest - 1) // params.k)
    if n > MAX_TERMS:
        raise ResourceLimitError(f"goodness-of-fit support exceeded {MAX_TERMS} points")
    ns = np.arange(n + 1)
    return params.support_value(ns), harris_pmf(params, ns)


@dataclass(frozen=True)
class GofCells:
    """The cells of one goodness-of-fit test, set before any count is read.

    Cell i holds the support points points[starts[i]:starts[i + 1]], runs
    over the values bounds[i] = (lo, hi), hi None for the open tail, and
    expects expected[i] of the test's observations.  The last cell also
    holds every observation that is not at a point read.
    """

    points: list
    starts: list
    bounds: list
    expected: list
    degrees_of_freedom: int
    threshold: float

    def observed_in(self, counts) -> tuple:
        """(observations per cell, observations at no point read) of a count
        row, or of each row of a count matrix.

        Column j counts the observations at support point j; a row may end
        before the points read (its missing columns count 0) or run past
        them, and its columns past them count observations at no point
        read, which go to the last cell.
        """
        counts = np.asarray(counts)
        end = self.starts[-1]
        width = min(counts.shape[-1], end)
        # the points read, then one column of the observations at none of them
        read = np.zeros(counts.shape[:-1] + (end + 1,), dtype=counts.dtype)
        read[..., :width] = counts[..., :width]
        read[..., end] = past = counts[..., end:].sum(axis=-1)
        return np.add.reduceat(read, self.starts[:-1], axis=-1), past


def gof_stop(support, cumulative, total: int, largest):
    """How many support points a test of total observations reads, for
    largest, the largest observation, or for each of an array of them.

    It reads up to the first point at or past largest with less than
    MIN_EXPECTED_PER_BIN expected beyond it (cumulative is np.cumsum of
    the probabilities), or to the end.
    """
    thin = np.flatnonzero(total * (1.0 - cumulative) < MIN_EXPECTED_PER_BIN)
    # the first thin point at or past the first point at or past largest
    return np.append(thin + 1, len(support))[
        np.searchsorted(thin, np.searchsorted(support, largest))]


def gof_cells(support, probs, total: int, end: int, alpha: float) -> GofCells:
    """The cells of a test of total observations that reads end support points.

    Consecutive points are merged until every cell's expected count
    reaches MIN_EXPECTED_PER_BIN; the open tail, with the rest of the
    points' sum, 1 - cumsum, is the last cell, or merges into the one
    before it if too few observations are expected there.  The threshold
    is the chi-square upper alpha quantile.  Raises ValueError if fewer
    than two cells survive merging.
    """
    points = support[:end].tolist()
    starts, bounds, expected = [], [], []
    first, acc = 0, 0.0
    for i, exp in enumerate((total * probs[:end]).tolist()):
        acc += exp
        if acc >= MIN_EXPECTED_PER_BIN:
            starts.append(first)
            bounds.append((points[first], points[i]))
            expected.append(acc)
            first, acc = i + 1, 0.0
    # np.cumsum adds in support order, as a running sum does
    acc += max(total * (1.0 - float(np.cumsum(probs[:end])[-1])), 0.0)
    if first < end or acc > 0.0:
        if expected and not acc >= MIN_EXPECTED_PER_BIN:
            first = starts.pop()
            bounds.pop()
            acc = expected.pop() + acc
        starts.append(first)
        bounds.append((points[first] if first < end else points[-1] + 1, None))
        expected.append(acc)
    if len(expected) < 2:
        raise ValueError("fewer than two bins remain after merging")
    df = len(expected) - 1
    return GofCells(points, starts + [end], bounds, expected, df,
                    chi_square_quantile(df, alpha))


def pearson_statistic(observed, expected):
    """sum((o - e)**2 / e) over the cells, added in cell order, of a row of
    cell counts, or of each row of a matrix of them.

    Each statistic is bit for bit Python's left-to-right sum of the scalar
    terms: np.cumsum adds in cell order, and each square is libm's
    pow(abs(o - e), 2.0), which is what Python's float ** 2 computes and
    which rounds differently from numpy's square in about 1 term in 1,000.
    """
    expected = np.asarray(expected, dtype=float)
    diff = np.abs(np.asarray(observed) - expected)
    squares = np.fromiter(map(math.pow, diff.ravel().tolist(), repeat(2.0)), float,
                          diff.size).reshape(diff.shape)
    return np.cumsum(squares / expected, axis=-1)[..., -1]


def chi_square_gof(observed, support, probs, alpha: float) -> GofResult:
    """Pearson chi-square test of observed frequencies against a p.m.f.

    Parameters
    ----------
    observed : mapping
        Frequency map support value -> count, with a positive total.
    support : array of int
        Support values in increasing order, e.g. from gof_support.
    probs : array of float
        Probability of each support value.
    alpha : float
        Significance level for the pass/fail threshold.

    The support is read as far as gof_stop says, and its points are merged
    into the cells gof_cells makes; observations at no point read belong to
    the last cell, which is then the open tail.  Raises ValueError if fewer
    than two cells survive merging.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"significance level must lie in (0, 1), got {alpha!r}")
    if not observed:
        raise ValueError("observed frequency map is empty")
    total = sum(observed.values())
    if total <= 0:
        raise ValueError(f"observed counts must sum to a positive total, got {total!r}")
    support, probs = np.asarray(support), np.asarray(probs, dtype=float)
    if support.ndim != 1 or support.shape != probs.shape or not support.size:
        raise ValueError("support and probs must be non-empty 1-d arrays of one length")
    if np.any(np.diff(support) <= 0):
        raise ValueError("support values must increase")

    cells = gof_cells(support, probs, total,
                      gof_stop(support, np.cumsum(probs), total, max(observed)), alpha)
    at_points = [observed.get(value, 0) for value in cells.points]
    counts, past = cells.observed_in(at_points + [total - sum(at_points)])
    statistic = float(pearson_statistic(counts, cells.expected))
    counts = counts.tolist()
    lo, hi = cells.bounds[-1]
    bounds = cells.bounds[:-1] + [(lo, None if past else hi)]
    bins = [Bin(f">={lo}" if hi is None else f"{lo}" if lo == hi else f"{lo}-{hi}",
                obs, exp) for (lo, hi), obs, exp in zip(bounds, counts, cells.expected)]
    return GofResult(statistic, cells.degrees_of_freedom, cells.threshold, alpha,
                     statistic <= cells.threshold, tuple(bins))


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
                 var_rel_tol: float = VAR_REL_FLOOR) -> tuple:
    """(MeanCheck, VarCheck): 3-standard-error band and relative variance band."""
    if n < MIN_MOMENT_SAMPLES:
        raise ValueError(f"need at least {MIN_MOMENT_SAMPLES} samples for moment "
                         f"bands, got {n!r}")
    std_error = (analytic_var / n) ** 0.5
    return (MeanCheck(float(samples_mean), float(analytic_mean), float(std_error),
                      abs(samples_mean - analytic_mean) <= 3.0 * std_error),
            VarCheck(float(samples_var), float(analytic_var), float(var_rel_tol),
                     abs(samples_var - analytic_var) <= var_rel_tol * analytic_var))


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

