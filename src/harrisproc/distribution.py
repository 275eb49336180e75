"""Harris distribution and its relatives.

The Harris law is the discrete distribution concentrated on
``{1, 1+k, 1+2k, ...}`` with probability generating function

    P(s) = s / (m - (m - 1) * s**k) ** (1/k),      m > 1, k >= 1 integer,

and probability mass function

    P(X = 1 + n*k) = C(1/k + n - 1, n) * (1/m)**(1/k) * (1 - 1/m)**n

for n = 0, 1, 2, ..., where C is the generalized binomial coefficient.
Equivalently, X = 1 + k*I where I follows the negative binomial law
NB(1/k, 1/m) on {0, 1, 2, ...}; for k = 1 the law reduces to the
decapitated (1-shifted) geometric with parameter 1/m.

All probabilities are computed in log space, the binomial coefficient
through the log-Pochhammer symbol, so that deep tail terms neither
overflow nor lose normalization.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, poch

from .errors import ResourceLimitError

MAX_TERMS = 1_000_000  # the longest table of any law: truncation_index's cap
# The largest step k: 1 + n*k fits int64 for every count n the program
# forms, and P(n = 0) keeps 2.9e-11 relative precision at it
MAX_STEP = 1_000_000
_PROBES = 64  # truncation_index's probes per array call

__all__ = [
    "MAX_TERMS",
    "MAX_STEP",
    "HarrisParams",
    "harris_pmf",
    "harris_pgf",
    "harris_mean_var",
    "nb_pmf",
    "decap_geometric_pmf",
    "pmf_table",
    "truncation_index",
    "tail_bound_after",
]


def _validate_step(k) -> int:
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise ValueError(f"step parameter k must be a positive integer, got {k!r}")
    k = int(k)
    if k < 1:
        raise ValueError(f"step parameter k must be >= 1, got {k}")
    if k > MAX_STEP:
        raise ValueError(f"step parameter k must be <= {MAX_STEP}, got {k}")
    return k


def _check_time(t) -> float:
    """A query time of either process: t > 0 and finite."""
    t = float(t)
    if not 0.0 < t < math.inf:
        raise ValueError(f"query time t must be > 0 and finite, got {t!r}")
    return t


def _as_counts(n):
    """Validate nonnegative integer count index; scalar or array."""
    arr = np.asarray(n)
    # dtype kinds and array methods: np.issubdtype and np.any cost microseconds
    if arr.dtype.kind not in "iu":
        if not (arr.dtype.kind == "f" and (arr == np.floor(arr)).all()):
            raise ValueError(f"count index must be integral, got {n!r}")
        arr = arr.astype(np.int64)
    if (arr < 0).any():
        raise ValueError(f"count index must be nonnegative, got {n!r}")
    return arr, arr.ndim == 0


@dataclass(frozen=True)
class HarrisParams:
    """Parameters (m, k) of the Harris law with index 1/k.

    m is the scale parameter (also the mean), strictly greater than 1;
    k is the positive-integer step between support points.
    """

    m: float
    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", _validate_step(self.k))
        m = float(self.m)
        if not (m > 1.0 and math.isfinite(m)):
            raise ValueError(
                f"scale parameter m must be > 1 and finite, got {self.m!r}"
            )
        object.__setattr__(self, "m", m)

    @property
    def index(self) -> float:
        """The distribution index r = 1/k (never stored, always derived)."""
        return 1.0 / self.k

    def support_value(self, n):
        """Support point x = 1 + n*k for count index n (scalar or array)."""
        return 1 + np.asarray(n) * self.k


def _log_binom(r: float, arr):
    """Log of the generalized binomial coefficient C(r + n - 1, n).

    Equals log( Gamma(r+n) / (Gamma(r) * n!) ) for each count n of arr.
    Unchecked: r must be a float > 0 and arr come from _as_counts.

    The ratio Gamma(r+n) / n! is the Pochhammer symbol (n+1)_(r-1), taken
    whole: the difference of the two log-gammas, each ~1e7 at n ~ 1e6,
    loses ~1e-9 to cancellation.  Where the symbol is not finite, roughly
    where (n+r)^(r-1) > 1e308 (r = 60 from n ~ 2e5, any n for r above
    ~170), the log-gamma difference is used, with its cancellation: an
    error of a few ulps of gammaln(r+n) in the log.
    """
    with np.errstate(over="ignore", divide="ignore"):
        out = np.log(poch(arr + 1.0, r - 1.0)) - gammaln(r)
    finite = np.isfinite(out)
    if not finite.all():
        out = np.where(finite, out,
                       gammaln(r + arr) - gammaln(r) - gammaln(arr + 1.0))
    return out


def _nb_logpmf(r: float, p: float, arr):
    # shared log-space path: Harris and NB probabilities are the same formula
    return _log_binom(r, arr) + r * math.log(p) + arr * math.log1p(-p)


def nb_pmf(r: float, p: float, n) -> float:
    """Negative binomial p.m.f. C(r+n-1, n) * p**r * (1-p)**n on {0, 1, 2, ...}.

    r > 0 is the index, p in (0, 1) the success probability, n the
    failure count (scalar or array).
    """
    r, p = float(r), float(p)
    if not r > 0.0:
        raise ValueError(f"index r must be > 0, got {r!r}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"success probability must lie in (0, 1), got {p!r}")
    arr, scalar = _as_counts(n)
    out = np.exp(_nb_logpmf(r, p, arr))
    return float(out) if scalar else out


def harris_pmf(params: HarrisParams, n) -> float:
    """P(X = 1 + n*k) for X Harris distributed with parameters (m, k).

    Identical to nb_pmf(1/k, 1/m, n) by the affine coupling X = 1 + k*I.
    Accepts a scalar or array count index n.
    """
    arr, scalar = _as_counts(n)
    out = np.exp(_nb_logpmf(params.index, 1.0 / params.m, arr))
    return float(out) if scalar else out


def harris_pgf(params: HarrisParams, s: float) -> float:
    """Probability generating function s / (m - (m-1) s**k)**(1/k).

    Defined for s >= 0 wherever the denominator base stays positive;
    the probabilistic contract is s in [0, 1], and values slightly
    above 1 are admitted so derivatives at 1 can be taken numerically.
    """
    s = float(s)
    if s < 0.0:
        raise ValueError(f"pgf argument must be >= 0, got {s!r}")
    base = params.m - (params.m - 1.0) * s**params.k
    if base <= 0.0:
        raise ValueError(
            f"pgf undefined at s={s!r}: m - (m-1)*s**k = {base!r} is not positive"
        )
    return s / base ** params.index


def harris_mean_var(params: HarrisParams) -> tuple:
    """Mean m and variance k*m*(m-1) of the Harris law."""
    return params.m, params.k * params.m * (params.m - 1.0)


def decap_geometric_pmf(q: float, n) -> float:
    """Decapitated geometric p.m.f. q*(1-q)**(n-1) on {1, 2, 3, ...}.

    This is the k = 1 Harris law with q = 1/m (support starts at 1).
    """
    q = float(q)
    if not 0.0 < q < 1.0:
        raise ValueError(f"parameter q must lie in (0, 1), got {q!r}")
    arr = np.asarray(n)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"support value must be integral, got {n!r}")
    if np.any(arr < 1):
        raise ValueError(f"support starts at 1, got {n!r}")
    out = q * (1.0 - q) ** (arr - 1)
    return float(out) if np.ndim(n) == 0 else out


def tail_bound_after(params: HarrisParams, n):
    """Certified upper bound on the Harris mass strictly beyond index n.

    Successive p.m.f. ratios are q*(r+j)/(j+1) <= q with q = 1 - 1/m
    (the index r = 1/k never exceeds 1), so the tail after n is at most
    pmf(n) * q / (1 - q) = pmf(n) * (m - 1); the right-hand form stays
    finite where q rounds to 1.  Takes a scalar or array n; the bound
    falls with n.
    """
    return harris_pmf(params, n) * (params.m - 1.0)


def truncation_index(params: HarrisParams, tail_bound: float,
                     max_terms: int = MAX_TERMS) -> int:
    """Smallest n whose certified remaining tail is below tail_bound.

    The bound falls with n, so [0, max_terms] is searched with at most
    _PROBES evenly spaced probes per array call, each call narrowing the
    bracket to the gap after the last probe still at or above tail_bound.
    Below the smallest normal float no bound holds relative precision.
    """
    if not np.finfo(float).tiny <= tail_bound < 1.0:
        raise ValueError(f"tail bound must lie in (0, 1) and be a normal float, "
                         f"got {tail_bound!r}")
    # the index lies in [lo, hi]: hi is below the tail or past max_terms
    lo, hi = 0, max_terms + 1
    while lo < hi:
        probes = np.arange(lo, hi, -(-(hi - lo) // _PROBES))
        below = tail_bound_after(params, probes) < tail_bound
        first = int(below.argmax()) if below.any() else probes.size
        lo = int(probes[first - 1]) + 1 if first else lo
        hi = int(probes[first]) if first < probes.size else hi
    if lo > max_terms:
        raise ResourceLimitError(f"support truncation exceeded {max_terms} "
                                 f"terms for {params}")
    return lo


def pmf_table(params: HarrisParams, tail_bound: float = 1e-12) -> tuple:
    """Tabulate the p.m.f. until the certified tail drops below tail_bound.

    Returns (x, probs, tail_mass): the support values 1 + n*k and their
    probabilities for n = 0 .. n_stop, and a certified upper bound on the
    mass beyond n_stop, so probs.sum() + tail_mass brackets 1.
    """
    n_stop = truncation_index(params, tail_bound)
    ns = np.arange(n_stop + 1)
    return (1 + ns * params.k, harris_pmf(params, ns),
            tail_bound_after(params, n_stop))
