"""Deterministic, seedable random variate generation.

Every draw is keyed by an :class:`RngStream`, a thin wrapper over numpy's
PCG64 bit generator seeded through ``SeedSequence(seed, spawn_key=(stream_id,))``.
Identical (seed, stream_id) pairs reproduce the variate sequence exactly;
distinct stream ids give statistically independent streams, so a block of
Monte Carlo replicas can own one stream and aggregated results never depend
on scheduling.

Harris variates are produced by the gamma-Poisson route: a negative
binomial count is a Poisson draw whose mean is itself gamma distributed,
and the Harris value is the affine image 1 + k * count.  This makes the
sampler an independent witness for the mixture identity rather than an
inversion of the closed-form p.m.f.
"""

from __future__ import annotations

import numbers

import numpy as np

from .distribution import HarrisParams

__all__ = [
    "RngStream",
    "sample_exponential",
    "sample_gamma",
    "sample_poisson",
    "sample_nb",
    "sample_harris",
]

# Recorded in output metadata so runs are attributable to one algorithm.
GENERATOR_ALGORITHM = "PCG64"


class RngStream:
    """One independently seeded random stream.

    Parameters
    ----------
    seed : int
        Nonnegative base seed shared by a whole experiment.
    stream_id : int
        Nonnegative substream index; birth replica block b and mixture
        draw block b use b.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        for name, value in (("seed", seed), ("stream_id", stream_id)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        sequence = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        self.generator = np.random.Generator(np.random.PCG64(sequence))

    def uniform(self, size=None):
        """Uniform draws on the open interval (0, 1): a float, or size of them.

        The values are the stream's nonzero values in order; consecutive
        calls concatenate.  random() spans [0, 1), and a zero (2**-53 per
        draw) is skipped, so uniform(a) then uniform(b) gives the values of
        uniform(a + b), and uniform() the value of uniform(1).
        """
        n = 1 if size is None else size
        u = self.generator.random(n)
        while (u == 0.0).any():
            u = u[u != 0.0]
            u = np.concatenate((u, self.generator.random(n - u.size)))
        return float(u[0]) if size is None else u

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def sample_exponential(rng: RngStream, rate: float, size=None):
    """Exponential draws by inversion: -ln(U)/rate with U uniform on (0, 1).

    The inverse-CDF construction guarantees strictly positive draws and
    exact 1/rate scaling of a fixed stream's sequence.
    """
    rate = float(rate)
    if not rate > 0.0:
        raise ValueError(f"rate must be > 0, got {rate!r}")
    return -np.log(rng.uniform(size)) / rate


def sample_gamma(rng: RngStream, shape: float, rate: float, size=None):
    """Gamma draws with the given shape and rate (mean shape/rate).

    shape >= 1 uses the Marsaglia-Tsang acceptance sampler; shape < 1 is
    boosted through it: draw gamma(shape + 1) and multiply by U**(1/shape).
    numpy's standard_gamma also accepts shape < 1, but its own path for it
    was slower (1e7 shape-0.5 draws plus their Poisson counts: 1.19-1.35 s
    against 1.02-1.06 s with the boost, 2-vCPU VM), and dropping the boost
    would change every mixture stream.
    """
    shape = float(shape)
    rate = float(rate)
    if not shape > 0.0:
        raise ValueError(f"shape must be > 0, got {shape!r}")
    if not rate > 0.0:
        raise ValueError(f"rate must be > 0, got {rate!r}")
    if shape >= 1.0:
        g = rng.generator.standard_gamma(shape, size)
    else:
        g = rng.generator.standard_gamma(shape + 1.0, size)
        g = g * rng.uniform(size) ** (1.0 / shape)
    return g / rate


def sample_poisson(rng: RngStream, mean, size=None):
    """Poisson draws; mean may be a scalar or an array of per-draw means.

    Inversion below mean 10, transformed-rejection acceptance above;
    mean 0 deterministically yields 0.
    """
    mean_arr = np.asarray(mean, dtype=float)
    if np.any(mean_arr < 0.0) or not np.all(np.isfinite(mean_arr)):
        raise ValueError(f"mean must be finite and >= 0, got {mean!r}")
    out = rng.generator.poisson(mean_arr, size)
    return int(out) if np.ndim(out) == 0 else out


def sample_nb(rng: RngStream, r: float, p: float, size=None):
    """Negative binomial NB(r, p) failure counts on {0, 1, 2, ...}.

    Drawn as Poisson(G) with G ~ gamma(shape=r, rate=p/(1-p)), the same
    mixture construction that yields the Harris law from a Poisson process.
    """
    r = float(r)
    p = float(p)
    if not r > 0.0:
        raise ValueError(f"index r must be > 0, got {r!r}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"success probability must lie in (0, 1), got {p!r}")
    g = sample_gamma(rng, r, p / (1.0 - p), size)
    return sample_poisson(rng, g)


def sample_harris(rng: RngStream, params: HarrisParams, size=None):
    """Harris draws 1 + k * NB(1/k, 1/m); every value is 1 modulo k."""
    counts = sample_nb(rng, params.index, 1.0 / params.m, size)
    return 1 + params.k * counts
