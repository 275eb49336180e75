import math
from collections import Counter
from functools import partial

import numpy as np
import pytest
from scipy import special, stats

from harrisproc.distribution import HarrisParams, nb_pmf
from harrisproc.sampling import (
    RngStream,
    sample_exponential,
    sample_gamma,
    sample_harris,
    sample_nb,
    sample_poisson,
)
from harrisproc.validation import chi_square_gof, gof_support

E = math.e
N_BIG = 1_000_000


# every law here other than the Harris law lives on 0, 1, 2, ... with less
# than 1e-20 of its mass past this many points
FIXED_TABLE = 256


def gof_passes(draws, law, alpha):
    """law is a HarrisParams, or a pmf of index arrays on 0, 1, 2, ..."""
    observed = Counter(np.asarray(draws).tolist())
    if isinstance(law, HarrisParams):
        support, probs = gof_support(law, observed, len(draws))
    else:
        support = np.arange(FIXED_TABLE)
        probs = law(support)
    result = chi_square_gof(observed, support, probs, len(draws), alpha)
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


class TestExponential:
    def test_mean_unit_rate(self):
        draws = sample_exponential(RngStream(42), 1.0, size=N_BIG)
        assert abs(draws.mean() - 1.0) < 0.01

    def test_strictly_positive(self):
        draws = sample_exponential(RngStream(3), 7.5, size=100_000)
        assert draws.min() > 0.0

    def test_exact_rate_scaling_on_same_stream(self):
        base = sample_exponential(RngStream(7, 3), 1.0, size=1000)
        halved = sample_exponential(RngStream(7, 3), 2.0, size=1000)
        assert np.array_equal(halved, base * 0.5)

    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_rate_validation(self, rate):
        with pytest.raises(ValueError):
            sample_exponential(RngStream(0), rate)


class TestGamma:
    def test_shape_one_reduces_to_exponential_law(self):
        draws = sample_gamma(RngStream(9), 1.0, 2.0, size=N_BIG)
        assert abs(draws.mean() - 0.5) < 0.01
        assert abs(draws.var(ddof=1) - 0.25) < 0.01

    def test_half_shape_mean(self):
        draws = sample_gamma(RngStream(13), 0.5, 1.0, size=N_BIG)
        assert abs(draws.mean() - 0.5) < 0.01

    def test_half_shape_rate_two_moments(self):
        # mean 0.25, var 0.125; gamma fourth central moment is
        # var**2 * (3 + 6/shape), so SE(var) = sqrt(14) * var / sqrt(N)
        draws = sample_gamma(RngStream(21), 0.5, 2.0, size=N_BIG)
        se_mean = math.sqrt(0.125 / N_BIG)
        se_var = math.sqrt(14.0) * 0.125 / math.sqrt(N_BIG)
        assert abs(draws.mean() - 0.25) < 3 * se_mean
        assert abs(draws.var(ddof=1) - 0.125) < 3 * se_var

    def test_strictly_positive(self):
        draws = sample_gamma(RngStream(4), 0.25, 1.0, size=100_000)
        assert draws.min() > 0.0

    @pytest.mark.parametrize("shape,rate", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)])
    def test_domain_errors(self, shape, rate):
        with pytest.raises(ValueError):
            sample_gamma(RngStream(0), shape, rate)


class TestPoisson:
    def test_zero_mean_is_deterministic(self):
        draws = sample_poisson(RngStream(2), 0.0, size=1000)
        assert np.all(draws == 0)

    def test_mean_four(self):
        draws = sample_poisson(RngStream(17), 4.0, size=N_BIG)
        assert abs(draws.mean() - 4.0) < 0.012

    def test_law_against_pmf(self):
        draws = sample_poisson(RngStream(17), 4.0, size=N_BIG)
        assert gof_passes(
            draws, partial(stats.poisson.pmf, mu=4.0), 0.01
        )
        # in particular the zero cell sits near exp(-4)
        frac0 = np.count_nonzero(draws == 0) / N_BIG
        assert abs(frac0 - math.exp(-4.0)) < 5e-4

    def test_array_means(self):
        means = np.array([0.0, 1.0, 50.0])
        draws = sample_poisson(RngStream(1), means)
        assert draws.shape == means.shape and draws[0] == 0

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            sample_poisson(RngStream(0), -0.5)


class TestNegativeBinomial:
    def test_geometric_mean(self):
        draws = sample_nb(RngStream(8), 1.0, 0.5, size=N_BIG)
        assert abs(draws.mean() - 1.0) < 0.005

    def test_mass_concentrates_as_p_tends_to_one(self):
        draws = sample_nb(RngStream(6), 2.0, 0.999, size=100_000)
        assert draws.mean() < 0.01

    def test_law_against_pmf(self):
        draws = sample_nb(RngStream(42), 0.5, 0.25, size=N_BIG)
        assert gof_passes(
            draws, partial(nb_pmf, 0.5, 0.25), 0.01
        )
        frac1 = np.count_nonzero(draws == 1) / N_BIG
        assert abs(frac1 - 0.1875) < 2e-3

    @pytest.mark.parametrize("r,p", [(0.0, 0.5), (1.0, 0.0), (1.0, 1.0)])
    def test_domain_errors(self, r, p):
        with pytest.raises(ValueError):
            sample_nb(RngStream(0), r, p)


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

    def test_poisson(self):
        def run(rng):
            draws = sample_poisson(rng, 4.0, size=self.N_PER_SEED)
            return draws, partial(stats.poisson.pmf, mu=4.0)

        assert self._failures(run) <= 2

    def test_negative_binomial(self):
        def run(rng):
            draws = sample_nb(rng, 0.5, 0.25, size=self.N_PER_SEED)
            return draws, partial(nb_pmf, 0.5, 0.25)

        assert self._failures(run) <= 2

    def test_harris(self):
        params = HarrisParams(E, 2)

        def run(rng):
            draws = sample_harris(rng, params, size=self.N_PER_SEED)
            return draws, params

        assert self._failures(run) <= 2

    def test_exponential_binned(self):
        w = self.WIDTH

        def run(rng):
            draws = sample_exponential(rng, 1.0, size=self.N_PER_SEED)
            cells = np.floor(draws / w).astype(int)
            pmf = lambda j: np.exp(-j * w) - np.exp(-(j + 1) * w)
            return cells, pmf

        assert self._failures(run) <= 2

    def test_gamma_binned(self):
        w = self.WIDTH

        def run(rng):
            draws = sample_gamma(rng, 0.5, 1.0, size=self.N_PER_SEED)
            cells = np.floor(draws / w).astype(int)
            pmf = lambda j: (special.gammainc(0.5, (j + 1) * w)
                             - special.gammainc(0.5, j * w))
            return cells, pmf

        assert self._failures(run) <= 2
