"""Deterministic, seedable random variate generation.

Every draw is keyed by an :class:`RngStream`, a thin wrapper over numpy's
PCG64 bit generator seeded through ``SeedSequence(seed, spawn_key=(stream_id,))``.
Identical (seed, stream_id) pairs reproduce the variate sequence exactly;
distinct stream ids give statistically independent streams, so a block of
Monte Carlo replicas can own one stream and aggregated results never depend
on scheduling.

Only the paper's laws are sampled here.  Harris variates are produced by
the gamma-Poisson route: a negative binomial count is a Poisson draw whose
mean is itself gamma distributed, and the Harris value is the affine image
1 + k * count.  This makes the sampler an independent witness for the
mixture identity rather than an inversion of the closed-form p.m.f.  The
gamma draw is ``_standard_gamma``, which model 2's sampler shares; the
Poisson draw is numpy's ``Generator.poisson``, which refuses a negative,
NaN or too large mean with ValueError.  Other gamma, Poisson or negative
binomial draws come from ``RngStream(seed).generator`` directly.  The
work bound of every Monte Carlo run, ``MAX_DRAWS``, is checked here too.
"""

from __future__ import annotations

import numbers

import numpy as np

from .distribution import HarrisParams

__all__ = ["RngStream", "sample_harris"]

# Recorded in output metadata so runs are attributable to one algorithm.
GENERATOR_ALGORITHM = "PCG64"
# The most draws one run may ask for: a mixture run's draws, a birth run's
# expected draws (birth._check_run) and criterion 8's calibration draws.
# 1e9 mixture draws sample for about 40 s on two cores.
MAX_DRAWS = 10**9


def _check_draw_budget(name: str, draws: int) -> None:
    if draws > MAX_DRAWS:
        raise ValueError(f"{draws} {name} exceed the draw budget of {MAX_DRAWS}")


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
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or value < 0):
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


def _standard_gamma(rng: RngStream, shape: float, size=None):
    """Unit-rate gamma draws of the given shape; shape is not checked.

    shape >= 1 uses the Marsaglia-Tsang acceptance sampler; shape < 1 is
    boosted through it: draw gamma(shape + 1) and multiply by U**(1/shape).
    numpy's standard_gamma also accepts shape < 1, but its own path for it
    was slower (1e7 shape-0.5 draws plus their Poisson counts: 1.19-1.35 s
    against 1.02-1.06 s with the boost, 2-vCPU VM), and dropping the boost
    would change every mixture stream.
    """
    if shape >= 1.0:
        return rng.generator.standard_gamma(shape, size)
    g = rng.generator.standard_gamma(shape + 1.0, size)
    return g * rng.uniform(size) ** (1.0 / shape)


def sample_harris(rng: RngStream, params: HarrisParams, size=None):
    """Harris draws 1 + k * NB(1/k, 1/m); every value is 1 modulo k.

    The NB(r, p) count is a Poisson draw whose mean is gamma distributed
    with shape r and rate p/(1-p).  A scalar call returns an int.
    """
    p = 1.0 / params.m
    g = _standard_gamma(rng, params.index, size) / (p / (1.0 - p))
    return 1 + params.k * rng.generator.poisson(g)
