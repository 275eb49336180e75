import math
from collections import Counter
from functools import partial

import numpy as np
import pytest
from scipy import special

from harrisproc import birth, sampling
from harrisproc.distribution import HarrisParams, nb_pmf
from harrisproc.mixture import MixtureParams, sample_model2
from harrisproc.sampling import RngStream, sample_harris
from harrisproc.validation import chi_square_gof, gof_support, tally

E = math.e
N_BIG = 1_000_000


# every law here other than the Harris law lives on 0, 1, 2, ... with less
# than 1e-20 of its mass past this many points
FIXED_TABLE = 256


def gof_passes(draws, law, alpha):
    """law is a HarrisParams, or a pmf of index arrays on 0, 1, 2, ..."""
    observed = Counter(np.asarray(draws).tolist())
    if isinstance(law, HarrisParams):
        support, probs = gof_support(law, max(observed), len(draws))
    else:
        support = np.arange(FIXED_TABLE)
        probs = law(support)
    result = chi_square_gof(observed, support, probs, alpha)
    return result.passed


class TestRngStream:
    def test_identical_keys_reproduce_bitwise(self):
        a = RngStream(123, 7).uniform(size=1000)
        b = RngStream(123, 7).uniform(size=1000)
        assert np.array_equal(a, b)

    def test_sampler_chain_is_deterministic(self):
        params = HarrisParams(E, 2)
        a = sample_harris(RngStream(5, 1), params, size=500)
        b = sample_harris(RngStream(5, 1), params, size=500)
        assert np.array_equal(a, b)

    def test_distinct_streams_are_uncorrelated(self):
        u0 = RngStream(0, 0).uniform(size=100_000)
        u1 = RngStream(0, 1).uniform(size=100_000)
        assert not np.array_equal(u0, u1)
        rho = np.corrcoef(u0, u1)[0, 1]
        assert abs(rho) < 0.01

    def test_uniform_stays_inside_open_interval(self):
        u = RngStream(11).uniform(size=200_000)
        assert u.min() > 0.0 and u.max() < 1.0

    @pytest.mark.parametrize("seed,stream", [(-1, 0), (0, -2), (1.5, 0), (0, True)])
    def test_key_validation(self, seed, stream):
        with pytest.raises(ValueError):
            RngStream(seed, stream)


class _ZeroingGenerator:
    """A generator whose random() zeroes every draw u with int(u*1e12) % p == 0.

    Zeros depend on the value only, so random(a) then random(b) still
    gives the values of random(a + b).
    """

    def __init__(self, generator, p):
        self.generator, self.p = generator, p

    def random(self, size):
        u = self.generator.random(size)
        u[(u * 1e12).astype(np.int64) % self.p == 0] = 0.0
        return u


def zeroing_stream(seed, p):
    stream = RngStream(seed)
    stream.generator = _ZeroingGenerator(stream.generator, p)
    return stream


class TestUniformContract:
    """uniform gives the stream's nonzero values in order; calls concatenate."""

    @pytest.mark.parametrize("zero_every", [3, 100])
    @pytest.mark.parametrize("sizes", [(1, 999), (500, 500), (7, 0, 300, 693),
                                       (1000,)])
    def test_split_calls_equal_one_call(self, zero_every, sizes):
        total = sum(sizes)
        raw = zeroing_stream(5, zero_every).generator.random(2 * total)
        whole = zeroing_stream(5, zero_every).uniform(total)
        assert np.array_equal(whole, raw[raw != 0.0][:total])
        split = zeroing_stream(5, zero_every)
        parts = np.concatenate([split.uniform(n) for n in sizes])
        assert np.array_equal(parts, whole)

    @pytest.mark.parametrize("zero_every", [3, 100])
    def test_scalar_calls_equal_one_call(self, zero_every):
        whole = zeroing_stream(8, zero_every).uniform(300)
        stream = zeroing_stream(8, zero_every)
        scalars = [stream.uniform() for _ in range(300)]
        assert all(isinstance(u, float) for u in scalars)
        assert np.array_equal(scalars, whole)


def pass_exponentials(stream, n):
    """The n unit exponentials -ln(U) that birth's first pass over n
    replicas draws: at rate lam = 1 its one round's clocks are the
    holding times themselves."""
    _, _, clocks, _ = next(birth._passes(birth.ProcessParams(1.0, 1), math.inf,
                                         stream, n))
    return clocks[0]


class TestExponential:
    """The birth sampler's unit exponentials, the holding times of a pass."""

    def test_mean_unit_rate(self):
        draws = pass_exponentials(RngStream(42), N_BIG)
        assert abs(draws.mean() - 1.0) < 0.01

    def test_strictly_positive(self):
        draws = pass_exponentials(RngStream(3), 100_000)
        assert draws.min() > 0.0


class TestGamma:
    """The gamma law of a rate: sampling._standard_gamma(rng, shape) / rate."""

    def test_shape_one_reduces_to_exponential_law(self):
        draws = sampling._standard_gamma(RngStream(9), 1.0, N_BIG) / 2.0
        assert abs(draws.mean() - 0.5) < 0.01
        assert abs(draws.var(ddof=1) - 0.25) < 0.01

    def test_half_shape_mean(self):
        draws = sampling._standard_gamma(RngStream(13), 0.5, N_BIG)
        assert abs(draws.mean() - 0.5) < 0.01

    def test_half_shape_rate_two_moments(self):
        # mean 0.25, var 0.125; gamma fourth central moment is
        # var**2 * (3 + 6/shape), so SE(var) = sqrt(14) * var / sqrt(N)
        draws = sampling._standard_gamma(RngStream(21), 0.5, N_BIG) / 2.0
        se_mean = math.sqrt(0.125 / N_BIG)
        se_var = math.sqrt(14.0) * 0.125 / math.sqrt(N_BIG)
        assert abs(draws.mean() - 0.25) < 3 * se_mean
        assert abs(draws.var(ddof=1) - 0.125) < 3 * se_var

    def test_strictly_positive(self):
        draws = sampling._standard_gamma(RngStream(4), 0.25, 100_000)
        assert draws.min() > 0.0


class TestNegativeBinomial:
    """Harris counts (X - 1)/k follow NB(1/k, 1/m)."""

    def test_mass_concentrates_as_p_tends_to_one(self):
        # p = 1/m = 0.999: the law nears the point mass at 1, the law of
        # either process at t = 0
        draws = sample_harris(RngStream(6), HarrisParams(1.001, 2), size=100_000)
        assert ((draws - 1) // 2).mean() < 0.01

    def test_law_against_pmf(self):
        draws = sample_harris(RngStream(42), HarrisParams(4.0, 2), size=N_BIG)
        assert gof_passes(
            (draws - 1) // 2, partial(nb_pmf, 0.5, 0.25), 0.01
        )
        frac1 = np.count_nonzero(draws == 3) / N_BIG
        assert abs(frac1 - 0.1875) < 2e-3


class TestHarris:
    @pytest.mark.parametrize("m,k", [(2.0, 1), (E, 2), (10.0, 5)])
    def test_support_invariant(self, m, k):
        draws = sample_harris(RngStream(3), HarrisParams(m, k), size=50_000)
        assert np.all((draws - 1) % k == 0)
        assert draws.min() >= 1

    def test_geometric_scale_mean(self):
        draws = sample_harris(RngStream(12), HarrisParams(2.0, 1), size=N_BIG)
        assert abs(draws.mean() - 2.0) < 3 * math.sqrt(2) / 1e3

    def test_law_against_pmf_seed42(self):
        params = HarrisParams(E, 2)
        draws = sample_harris(RngStream(42), params, size=N_BIG)
        assert gof_passes(draws, params, 0.01)


class TestDistributionalConformance:
    """Each sampler passes chi-square at alpha=0.001 for >= 98 of 100 seeds."""

    N_PER_SEED = 5000
    WIDTH = 0.25  # cell width used to discretize the continuous samplers

    def _failures(self, draw_and_law):
        failures = 0
        for seed in range(100):
            draws, law = draw_and_law(RngStream(seed))
            if not gof_passes(draws, law, 0.001):
                failures += 1
        return failures

    def test_harris(self):
        params = HarrisParams(E, 2)

        def run(rng):
            draws = sample_harris(rng, params, size=self.N_PER_SEED)
            return draws, params

        assert self._failures(run) <= 2

    def test_exponential_binned(self):
        w = self.WIDTH

        def run(rng):
            draws = pass_exponentials(rng, self.N_PER_SEED)
            cells = np.floor(draws / w).astype(int)
            pmf = lambda j: np.exp(-j * w) - np.exp(-(j + 1) * w)
            return cells, pmf

        assert self._failures(run) <= 2

    def test_gamma_binned(self):
        w = self.WIDTH

        def run(rng):
            draws = sampling._standard_gamma(rng, 0.5, self.N_PER_SEED)
            cells = np.floor(draws / w).astype(int)
            pmf = lambda j: (special.gammainc(0.5, (j + 1) * w)
                             - special.gammainc(0.5, j * w))
            return cells, pmf

        assert self._failures(run) <= 2


def test_draws_equal_the_gamma_poisson_reference():
    """Both samplers draw Poisson(G / rate * t), G ~ gamma(shape) from numpy,
    for shape < 1 as standard_gamma(shape + 1) * U**(1/shape), bit for bit."""

    def reference(rng, shape, rate, t, size):
        if shape >= 1.0:
            g = rng.generator.standard_gamma(shape, size)
        else:
            g = rng.generator.standard_gamma(shape + 1.0, size)
            g = g * rng.uniform(size) ** (1.0 / shape)
        return rng.generator.poisson(g / rate * t)

    cases = [(partial(sample_model2, params=MixtureParams(a, k), t=t), k, a, t)
             for a, k, t in ((1.0, 1, 1.0), (1.0, 2, 1.0), (0.5, 3, 2.0),
                             (2.0, 2, 0.3))]
    for m, k in ((2.0, 1), (E, 2), (10.0, 5)):
        p = 1.0 / m
        cases.append((partial(sample_harris, params=HarrisParams(m, k)), k,
                      p / (1.0 - p), 1.0))
    for seed, (sample, k, rate, t) in enumerate(cases):
        for size in (None, 1000):
            draws = sample(RngStream(seed), size=size)
            expected = 1 + k * reference(RngStream(seed), 1.0 / k, rate, t, size)
            assert np.array_equal(draws, expected)
            if size is None:
                assert isinstance(draws, int)


@pytest.mark.parametrize("m,k", [(2.0, 2), (1.5, 1), (3.7, 3), (1000.0, 1)])
def test_sample_harris_is_model_2_at_rate_one_to_time_m_minus_one(m, k):
    # the Harris law at m is model 2's law at a = 1, t = m - 1, and the
    # gamma-Poisson route draws the two alike
    for seed in range(3):
        assert np.array_equal(
            sample_harris(RngStream(seed), HarrisParams(m, k), 10_000),
            sample_model2(RngStream(seed), MixtureParams(1.0, k), m - 1.0, 10_000))


class TestTallyBlocks:
    """The block runner both Monte Carlo models tally through."""

    @staticmethod
    def _integers(stream, size):
        return stream.generator.integers(0, 50, size)

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_block_b_draws_its_items_from_stream_b(self, workers):
        # 8 blocks of 128 items, the last one 104
        expected = np.concatenate([self._integers(RngStream(7, b),
                                                  min(128, 1000 - 128 * b))
                                   for b in range(8)])
        observed = sampling.tally_blocks(self._integers, 1000, 128, 7, workers)
        assert list(observed.items()) == list(tally(expected).items())

    @pytest.mark.parametrize("workers,total", [(4, 100), (1, 500)])
    def test_makes_no_pool_for_one_block_or_one_worker(self, monkeypatch, workers,
                                                       total):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was made")

        monkeypatch.setattr(sampling, "ThreadPoolExecutor", no_pool)
        observed = sampling.tally_blocks(self._integers, total, 100, 7, workers)
        assert sum(observed.values()) == total

    @pytest.mark.parametrize("workers,total,threads", [(3, 1000, 3), (4, 200, 2)])
    def test_submits_one_future_per_worker(self, monkeypatch, workers, total,
                                           threads):
        pools, futures = [], []

        class Recording(sampling.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

            def submit(self, *args, **kwargs):
                futures.append(args)
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(sampling, "ThreadPoolExecutor", Recording)
        observed = sampling.tally_blocks(self._integers, total, 100, 7, workers)
        assert sum(observed.values()) == total
        assert pools == [threads] and len(futures) == threads
