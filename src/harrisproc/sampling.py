"""Deterministic, seedable random variate generation.

Every draw is keyed by an :class:`RngStream`, a thin wrapper over numpy's
PCG64 bit generator seeded through ``SeedSequence(seed, spawn_key=(stream_id,))``.
Identical (seed, stream_id) pairs reproduce the variate sequence exactly;
distinct stream ids give statistically independent streams, so block b of
a Monte Carlo run owns RngStream(seed, b) (``tally_blocks``) and no tally
depends on scheduling.

Harris variates are produced by the gamma-Poisson route: a negative
binomial count is a Poisson draw with a gamma distributed mean, and the
Harris value is 1 + k * count.  ``sample_harris`` is model 2's sampler,
``mixture.sample_model2``, at mixing rate 1 and time m - 1: a witness for
the mixture identity, not an inversion of the closed-form p.m.f.  Its gamma
draw is ``_standard_gamma``, by one of three exact routes: numpy's sampler
for shape >= 1, half a squared standard normal for shape 1/2 (k = 2), and
the gamma(shape + 1) * U**(1/shape) boost for any other shape < 1.  The
shape-1/2 route takes a 65,536-draw block with its Poisson counts and tally
from 4.07 to 3.31 ms (2 vCPU, one thread).  Its Poisson draw is numpy's
``Generator.poisson``, which refuses a negative, NaN or too large mean with
ValueError.  Other draws come from ``RngStream(seed).generator`` directly.
The work bound of every Monte Carlo run, ``MAX_DRAWS``, is checked here too.
"""

from __future__ import annotations

import numbers
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .distribution import HarrisParams
from .validation import _tally_arrays

__all__ = ["RngStream", "sample_harris", "tally_blocks"]

# Recorded in output metadata so runs are attributable to one algorithm.
GENERATOR_ALGORITHM = "PCG64"
# The most draws one run may ask for: a mixture run's draws, a birth run's
# expected draws (birth._check_run) and criterion 8's calibration draws.
# 1e9 mixture draws sample for about 40 s on two cores.
MAX_DRAWS = 10**9


def _check_draw_budget(name: str, draws: int) -> None:
    if draws > MAX_DRAWS:
        raise ValueError(f"{draws} {name} exceed the draw budget of {MAX_DRAWS}")


def _check_index(name: str, value) -> int:
    """value as an int; refuses a bool, a non-integer or a negative value."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    return int(value)


class RngStream:
    """One independently seeded random stream.

    Parameters
    ----------
    seed : int
        Nonnegative base seed shared by a whole experiment.
    stream_id : int
        Nonnegative substream index; block b of a Monte Carlo run uses b
        (see _blocks).
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = _check_index("seed", seed)
        self.stream_id = _check_index("stream_id", stream_id)
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

    Three routes, each exact:

    - shape >= 1: numpy's Marsaglia-Tsang acceptance sampler.
    - shape == 1/2: Z**2 / 2 for one standard normal Z per draw (gamma(1/2)
      is chi-square with one degree of freedom, halved), squared and halved
      in place.  A value may be exactly 0.
    - any other shape < 1: boosted through the first route, gamma(shape + 1)
      times U**(1/shape).  numpy's own shape < 1 path is slower (65,536
      draws at shape 1/3: 2.73 against 2.17 ms).

    65,536 shape-1/2 draws take 0.88 ms, against 2.09 ms by the boost (its
    gamma(3/2) draw alone is 1.4 ms); the square and halving are 0.03 ms of
    that.  With its Poisson counts and tally the block takes 3.31 ms against
    4.07 ms (medians of 41, 2 vCPU, one thread).
    """
    if shape >= 1.0:
        return rng.generator.standard_gamma(shape, size)
    if shape == 0.5:
        z = rng.generator.standard_normal(size)
        z *= z
        z *= 0.5
        return z
    g = rng.generator.standard_gamma(shape + 1.0, size)
    return g * rng.uniform(size) ** (1.0 / shape)


def sample_harris(rng: RngStream, params: HarrisParams, size=None):
    """Harris draws 1 + k * NB(1/k, 1/m); every value is 1 modulo k.

    Model 2's sampler at mixing rate 1 and time m - 1, where its law is
    this one (mixture.sample_model2).  A scalar call returns an int.
    """
    # imported here: mixture imports this module
    from .mixture import MixtureParams, sample_model2
    return sample_model2(rng, MixtureParams(1.0, params.k), params.m - 1.0, size)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # sched_getaffinity is not on every platform
        return os.cpu_count() or 1


def _blocks(total: int, size: int, seed: int, first: int = 0, step: int = 1):
    """(first item, n_b, RngStream(seed, b)) for blocks b = first, first + step, ..."""
    for b in range(first, -(-total // size), step):
        yield b * size, min(size, total - b * size), RngStream(seed, b)


def tally_blocks(states, total: int, size: int, seed: int, workers: int) -> dict:
    """Frequency map, in increasing value order, of total items in blocks.

    Block b's n_b = min(size, total - b*size) integer states are
    states(RngStream(seed, b), n_b).  Worker w of min(workers, blocks) takes
    blocks w, w + workers, ... (on threads, as numpy's samplers release the
    GIL; one runs inline) and adds each block's counts into its own tally as
    the block ends.  Counts add exactly: no worker count changes the map.
    """
    workers = max(1, min(workers, -(-total // size)))

    def add(tallies):  # (values, counts) pairs, each with values increasing
        values, counts = np.empty(0, np.int64), np.empty(0, np.int64)
        for more_values, more_counts in tallies:
            at = np.searchsorted(values, more_values)
            seen = at < values.size
            seen[seen] = values[at[seen]] == more_values[seen]
            counts[at[seen]] += more_counts[seen]
            values = np.insert(values, at[~seen], more_values[~seen])
            counts = np.insert(counts, at[~seen], more_counts[~seen])
        return values, counts

    def run(worker):
        return add(_tally_arrays(states(stream, n)) for _, n, stream
                   in _blocks(total, size, seed, worker, workers))

    if workers == 1:
        values, counts = run(0)
    else:
        with ThreadPoolExecutor(workers) as pool:
            values, counts = add(pool.map(run, range(workers)))
    return dict(zip(values.tolist(), counts.tolist()))
