"""Gamma-mixed Poisson construction of the Harris law.

Let X(t) be Poisson with mean lam*t where the rate lam is itself gamma
distributed with shape 1/k and rate a:

    f(lam) = a**(1/k) / Gamma(1/k) * exp(-a*lam) * lam**(1/k - 1).

The affine image Z(t) = k*X(t) + 1 is then Harris distributed with scale
m = (a + t)/a.  The closed form, an adaptive Gauss-Legendre quadrature of the
defining mixture integral, and a two-stage sampler give three independent
routes to the same law.  ``tally_model2`` runs the sampler block by block
on threads (sampling.tally_blocks), within the draw budget sampling.MAX_DRAWS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.special import gammaln

from .distribution import (HarrisParams, _as_counts, _check_time, _validate_step,
                           harris_pmf)
from .errors import ConvergenceError
from .sampling import (RngStream, _check_draw_budget, _standard_gamma, _usable_cpus,
                       tally_blocks)

__all__ = ["DRAW_BLOCK", "MixtureParams", "mixture_pmf", "mixture_pmf_quadrature",
           "quadrature_agrees", "sample_model2", "tally_model2", "mixture_moments"]

# Draws per random stream: block b of a Monte Carlo run owns RngStream(seed, b).
DRAW_BLOCK = 1 << 16
# Relative error every quadrature element must reach, and the most interval
# bisections one quadrature call may make; both read on every call.
QUAD_REL_TARGET = 1e-10
QUAD_MAX_SUBDIVISIONS = 500
# Most integrand values one call computes (or one interval's nodes times the
# elements, if more).  A round is evaluated in slices of intervals, so the
# integrand's temporaries (a few arrays of this many floats, 64 KiB each)
# stay in cache and do not grow with the number of intervals the round
# bisects; 8x larger slices were no faster and raised validate's peak RSS
# by 2.5 MiB.
QUAD_CALL_VALUES = 1 << 13
# Equal intervals a quadrature call starts from; 16 or 32 were slower.
QUAD_START_INTERVALS = 8


@cache
def _gauss_legendre() -> tuple:
    """10-point Gauss-Legendre nodes on (-1, 1) and their weights, computed
    on first use: the eigenvalue solve pages in ~0.7 MiB of LAPACK, which
    commands without a quadrature need not hold."""
    return np.polynomial.legendre.leggauss(10)


@dataclass(frozen=True)
class MixtureParams:
    """Finite gamma mixing rate a > 0 and step size k >= 1.

    The mixing law has shape 1/k and rate a (mean 1/(a*k)); querying the
    process at time t > 0 induces the Harris scale m = (a + t)/a.
    """

    a: float
    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", _validate_step(self.k))
        a = float(self.a)
        if not 0.0 < a < math.inf:
            raise ValueError(f"mixing rate a must be > 0 and finite, got {self.a!r}")
        object.__setattr__(self, "a", a)

    def scale_at(self, t: float) -> float:
        return (self.a + t) / self.a

    def harris_at(self, t: float) -> HarrisParams:
        """Marginal law of Z(t) for t > 0; a refused m names t, a and k."""
        t = _check_time(t)
        try:
            return HarrisParams(self.scale_at(t), self.k)
        except ValueError as exc:
            raise ValueError(f"{exc}: m = (a + t)/a at t={t!r}, a={self.a!r}, "
                             f"k={self.k}") from None


def mixture_pmf(params: MixtureParams, t: float, n) -> float:
    """P(Z(t) = 1 + n*k) in closed form: the Harris p.m.f. at m = (a+t)/a."""
    return harris_pmf(params.harris_at(t), n)


def _integrand(a, k, t, n):
    """The mixture integrand on u in (0, 1) for flat arrays of valid (a, k, t, n).

    lam = x**k with x = s*(u/(1-u))**w removes the lam**(1/k - 1) singularity
    at 0.  The centre s = (max(n, 1)/(a+t))**(1/k) puts each element's peak
    mid-interval, where the shared bisections resolve it however large t is,
    and w = 16/max(k*sqrt(n), 16) widens a peak narrower than 1/16 in log x.
    At n = 0 the integrand is flat up to x = s and then drops; twice that
    centre puts the drop at u = 1/3, off every bisection point.  The value
    is the exp of (n + 1/k)*log mu - mu - log(u*(1-u)) plus a constant per
    element, in mu = (t+a)*lam, so that no term grows with t.
    """
    r = 1.0 / k
    w = 16.0 / np.maximum(k * np.sqrt(n), 16.0)
    # log((t+a)*s**k), with s doubled at n = 0 (where w = 1)
    log_c = np.log(np.maximum(n, 1.0)) + (k * (n == 0)) * np.log(2.0)
    kw, nr = k * w, n + r
    # log(t**n a**r / ((t+a)**(n+r) n! Gamma(r))), and log(k*w) of
    # dlam/du = k*x**(k-1) * w*x/(u*(1-u)) = k*w*lam/(u*(1-u))
    const = (-n * np.log1p(a / t) - r * np.log1p(t / a) - gammaln(n + 1.0)
             - gammaln(r) + np.log(kw))

    def integrand(u):
        log_u, log_v = np.log(u), np.log1p(-u)
        log_mu = kw * (log_u - log_v)
        log_mu += log_c
        # mu overflows only where the integrand is exp(-inf) = 0
        with np.errstate(over="ignore"):
            value = np.exp(log_mu)
        np.subtract(nr * log_mu, value, out=value)
        value += const
        value -= log_u + log_v
        return np.exp(value, out=value)

    return integrand


def _mixture_quadrature(a, k, t, n):
    """The mixture integral for broadcast arrays of valid (a, k, t, n).

    Integrates each element's _integrand over u in (0, 1) from
    QUAD_START_INTERVALS equal intervals, each bisected once (from [0, 1],
    twice that less 1 bisections).  Every interval carries a 10-point
    Gauss-Legendre estimate per element; a bisected interval's halves each
    carry half the gap between its estimate and theirs as error.  Each round
    bisects every interval whose error exceeds its length's share of the
    target for some element, and evaluates all the halves together (in
    slices of QUAD_CALL_VALUES integrand values), until every element's
    summed error is at most QUAD_REL_TARGET * max(|estimate|, tiny).  Raises
    ConvergenceError on a non-finite estimate or error, or past
    QUAD_MAX_SUBDIVISIONS bisections.
    """
    a, k, t, n = np.broadcast_arrays(a, k, t, n)
    integrand = _integrand(*(x.ravel() for x in (a, k, t, n)))
    nodes, weights = _gauss_legendre()

    def rule(lo, hi):
        """Gauss-Legendre estimates, one row per interval [lo, hi]."""
        half = (hi - lo)[:, None] / 2.0
        # u[interval, node, 0] broadcasts against the elements' arrays
        u = ((lo + hi)[:, None] / 2.0 + half * nodes)[:, :, None]
        out = np.empty((len(lo), n.size))
        step = max(1, QUAD_CALL_VALUES // (nodes.size * n.size))
        for i in range(0, len(lo), step):
            out[i:i + step] = weights @ integrand(u[i:i + step])
        return out * half

    def bisect(lo, hi, est):
        mid = (lo + hi) / 2.0
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        halves = rule(lo, hi)
        gap = np.abs(est - halves[:len(mid)] - halves[len(mid):]) / 2.0
        return lo, hi, halves, np.concatenate([gap, gap])

    edges = np.linspace(0.0, 1.0, QUAD_START_INTERVALS + 1)
    lo, hi, est, err = bisect(edges[:-1], edges[1:], rule(edges[:-1], edges[1:]))
    bisections = 2 * QUAD_START_INTERVALS - 1
    while np.isfinite(est).all() and np.isfinite(err).all():
        total = est.sum(axis=0)
        target = QUAD_REL_TARGET * np.maximum(np.abs(total), np.finfo(float).tiny)
        if (err.sum(axis=0) <= target).all():
            return total.reshape(n.shape)
        split = (err > (hi - lo)[:, None] * target).any(axis=1)
        bisections += np.count_nonzero(split)
        if bisections > QUAD_MAX_SUBDIVISIONS:
            break
        kept = ~split
        lo, hi, est, err = (np.concatenate([old[kept], new]) for old, new in zip(
            (lo, hi, est, err), bisect(lo[split], hi[split], est[split])))
    raise ConvergenceError(
        f"mixture quadrature gave no finite value within relative error "
        f"{QUAD_REL_TARGET!r} in {QUAD_MAX_SUBDIVISIONS} subdivisions")


def mixture_pmf_quadrature(params: MixtureParams, t: float, n):
    """P(Z(t) = 1 + n*k) by quadrature, for a scalar or array n (one call)."""
    arr, scalar = _as_counts(n)
    value = _mixture_quadrature(params.a, params.k, _check_time(t), arr)
    return float(value) if scalar else value


def quadrature_agrees(closed, quad, tol: float) -> bool:
    """Every gap |closed - quad| below tol, and at most tol*closed where closed
    is below tol (tol times the smallest normal float below that), so a 100%
    error on a probability under tol cannot pass."""
    closed, gap = np.asarray(closed), np.abs(np.subtract(closed, quad))
    relative = gap <= tol * np.maximum(closed, np.finfo(float).tiny)
    return bool(np.all(np.where(closed < tol, relative, gap < tol)))


def sample_model2(rng: RngStream, params: MixtureParams, t: float, size=None):
    """Draw Z(t) = 1 + k*X: rate from the gamma mixing law, then Poisson.

    One rate is drawn per replica (each draw is its own path); every
    sample lies on {1, 1+k, 1+2k, ...}.  The rate's gamma(1/k) draw is
    sampling._standard_gamma: at k = 2 half a squared standard normal, which
    may be 0 (then the draw is 1), and at k = 1 or k >= 3 numpy's gamma
    sampler, directly or boosted.  tally_model2 calls it once per
    block of at most DRAW_BLOCK draws, block b with RngStream(seed, b), so a
    block's draws do not depend on how many blocks follow it.
    """
    t = _check_time(t)
    lam = _standard_gamma(rng, 1.0 / params.k, size) / params.a
    return 1 + params.k * rng.generator.poisson(lam * t)


def tally_model2(params: MixtureParams, t: float, draws: int, seed: int) -> dict:
    """Frequency map of draws samples of Z(t), drawn block by block.

    Block b holds DRAW_BLOCK draws (the last one the rest) from
    RngStream(seed, b), one thread per usable CPU (sampling.tally_blocks).
    More than MAX_DRAWS draws are refused before any stream is made.
    """
    _check_draw_budget("mixture draws", draws)

    def states(stream, size):
        # sample_model2 is looked up here on every call, so a rebinding of
        # this module's name sees every block
        return sample_model2(stream, params, t, size=size)

    return tally_blocks(states, draws, DRAW_BLOCK, seed, _usable_cpus())


def mixture_moments(params: MixtureParams, t: float) -> tuple:
    """Closed-form mean m = (a+t)/a and variance k*m*(t/a) of Z(t); where
    m > 1, no step of it under- or overflows unless the variance does."""
    t = float(t)
    if t < 0.0:
        raise ValueError(f"time must be >= 0, got {t!r}")
    a = params.a
    m = (a + t) / a
    return m, params.k * m * (t / a)
