"""Gamma-mixed Poisson construction of the Harris law.

Let X(t) be Poisson with mean lam*t where the rate lam is itself gamma
distributed with shape 1/k and rate a:

    f(lam) = a**(1/k) / Gamma(1/k) * exp(-a*lam) * lam**(1/k - 1).

The affine image Z(t) = k*X(t) + 1 is then Harris distributed with scale
m = (a + t)/a.  The closed form, an adaptive quadrature of the defining
mixture integral, and a two-stage sampler give three independent routes
to the same law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import xlogy

from .distribution import HarrisParams, _validate_step, harris_pmf
from .errors import ConvergenceError
from .sampling import RngStream, sample_gamma, sample_poisson

__all__ = [
    "DRAW_BLOCK",
    "MixtureParams",
    "mixture_pmf",
    "mixture_pmf_quadrature",
    "sample_model2",
    "mixture_moments",
]

# Draws per random stream: block b of a Monte Carlo run owns RngStream(seed, b).
DRAW_BLOCK = 1 << 16
# Largest error estimate a quadrature may report, read on every call.
QUAD_ABS_TARGET = 1e-10


@dataclass(frozen=True)
class MixtureParams:
    """Gamma mixing rate a > 0 and step size k >= 1.

    The mixing law has shape 1/k and rate a (mean 1/(a*k)); querying the
    process at time t > 0 induces the Harris scale m = (a + t)/a.
    """

    a: float
    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", _validate_step(self.k))
        a = float(self.a)
        if not a > 0.0:
            raise ValueError(f"mixing rate a must be > 0, got {self.a!r}")
        object.__setattr__(self, "a", a)

    def scale_at(self, t: float) -> float:
        return (self.a + t) / self.a

    def harris_at(self, t: float) -> HarrisParams:
        """Marginal law of Z(t) for t > 0."""
        return HarrisParams(self.scale_at(t), self.k)


def _check_time(t) -> float:
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"query time must be > 0, got {t!r}")
    return t


def mixture_pmf(params: MixtureParams, t: float, n) -> float:
    """P(Z(t) = 1 + n*k) in closed form: the Harris p.m.f. at m = (a+t)/a."""
    return harris_pmf(params.harris_at(_check_time(t)), n)


def mixture_pmf_quadrature(params: MixtureParams, t: float, n: int) -> float:
    """P(Z(t) = 1 + n*k) by adaptive quadrature of the mixture integral.

    Integrates Poisson(n; lam*t) against the gamma density over
    lam in (0, inf), mapped to the open unit interval by
    u = lam / (1 + lam).  The integrand is evaluated in log space
    (for k >= 2 it has an integrable lam**(1/k - 1) singularity at 0,
    and the Jacobian 1/(1-u)**2 blows up at 1); Gauss-Kronrod nodes
    never touch the endpoints and the QUADPACK extrapolation handles
    the singular corner.  Raises ConvergenceError when the reported
    error estimate misses QUAD_ABS_TARGET.
    """
    # imported here so that commands without a witness never load it
    from scipy.integrate import quad
    t = _check_time(t)
    n = int(n)
    if n < 0:
        raise ValueError(f"count index must be nonnegative, got {n!r}")
    a, r = params.a, 1.0 / params.k
    log_norm = r * math.log(a) - math.lgamma(r) - math.lgamma(n + 1)

    def integrand(u):
        lam = u / (1.0 - u)
        log_val = (
            log_norm
            - lam * (t + a)
            + xlogy(n, lam * t)
            + (r - 1.0) * math.log(lam)
            - 2.0 * math.log1p(-u)
        )
        return math.exp(log_val) if log_val > -745.0 else 0.0

    value, abserr = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13,
                         limit=500)
    if abserr > QUAD_ABS_TARGET:
        raise ConvergenceError(
            f"mixture quadrature error {abserr!r} above target {QUAD_ABS_TARGET!r} "
            f"for a={a}, k={params.k}, t={t}, n={n}"
        )
    return value


def sample_model2(rng: RngStream, params: MixtureParams, t: float, size=None):
    """Draw Z(t) = 1 + k*X: rate from the gamma mixing law, then Poisson.

    One rate is drawn per replica (each draw is its own path); every
    sample lies on {1, 1+k, 1+2k, ...}.  Monte Carlo runs call it once per
    block of at most DRAW_BLOCK draws, block b with RngStream(seed, b), so a
    block's draws do not depend on how many blocks follow it.
    """
    t = _check_time(t)
    lam = sample_gamma(rng, 1.0 / params.k, params.a, size)
    counts = sample_poisson(rng, lam * t)
    return 1 + params.k * counts


def mixture_moments(params: MixtureParams, t: float) -> tuple:
    """Closed-form mean (a+t)/a and variance (a+t)*t*k/a**2 of Z(t)."""
    t = float(t)
    if t < 0.0:
        raise ValueError(f"time must be >= 0, got {t!r}")
    a, k = params.a, params.k
    return (a + t) / a, (a + t) * t * k / (a * a)
