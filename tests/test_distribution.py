import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from harrisproc.distribution import (
    HarrisParams,
    decap_geometric_pmf,
    harris_mean_var,
    harris_pgf,
    harris_pmf,
    log_binom,
    nb_pmf,
    pmf_table,
    tail_bound_after,
    truncation_index,
)
from harrisproc.errors import ResourceLimitError

E = math.e
TINY = float(np.finfo(float).tiny)

# Parameter grid used throughout (scale x step).
GRID_M = (1.1, 2.0, E, 10.0)
GRID_K = (1, 2, 3, 5)


def naive_binom(r, n):
    """Oracle: direct product r(r+1)...(r+n-1) / n!, exact for small n."""
    num = 1.0
    for i in range(n):
        num *= r + i
    return num / math.factorial(n)


def walk_index(params, tail_bound, max_terms):
    """Oracle: the running-product walk truncation_index once made, one term
    per iteration; None where it refuses the law."""
    r = params.index
    q = 1.0 - 1.0 / params.m
    ratio = params.m - 1.0  # q / (1 - q), finite where q rounds to 1
    p = params.m ** (-r)
    n = 0
    while p * ratio >= tail_bound:
        p *= q * (r + n) / (n + 1)
        n += 1
        if n > max_terms:
            return None
    return n


def pmf_recurrence(m, k, n_max):
    """Oracle: p.m.f. head built by the ratio recurrence, no log-gamma."""
    r, q = 1.0 / k, 1.0 - 1.0 / m
    probs = [m ** (-r)]
    for n in range(n_max):
        probs.append(probs[-1] * q * (r + n) / (n + 1))
    return np.array(probs)


def truncated_moments(m, k, n_max=2000):
    """Oracle: mean and variance by direct truncated sums."""
    probs = pmf_recurrence(m, k, n_max)
    x = 1 + k * np.arange(n_max + 1)
    mean = float((x * probs).sum())
    return mean, float((x * x * probs).sum()) - mean * mean


class TestLogBinom:
    def test_unit_index_gives_coefficient_one(self):
        assert abs(log_binom(1.0, 5)) < 1e-13

    def test_half_index_single_step(self):
        assert log_binom(0.5, 1) == pytest.approx(math.log(0.5), rel=1e-14)

    def test_half_index_three_steps(self):
        # naive loop: (0.5 * 1.5 * 2.5) / 3! = 0.3125
        assert naive_binom(0.5, 3) == 0.3125
        assert log_binom(0.5, 3) == pytest.approx(math.log(0.3125), rel=1e-13)

    @pytest.mark.parametrize("r", [0.2, 1.0 / 3.0, 0.5, 1.0, 1.7])
    @pytest.mark.parametrize("n", range(0, 21))
    def test_matches_naive_product(self, r, n):
        assert math.exp(log_binom(r, n)) == pytest.approx(naive_binom(r, n), rel=1e-12)

    def test_array_argument(self):
        out = log_binom(0.5, np.arange(4))
        assert_allclose(np.exp(out), [naive_binom(0.5, n) for n in range(4)], rtol=1e-12)

    @pytest.mark.parametrize("r", [0.0, -0.5])
    def test_nonpositive_index_rejected(self, r):
        with pytest.raises(ValueError):
            log_binom(r, 3)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            log_binom(0.5, -1)

    @pytest.mark.parametrize("r", [0.1, 1.0 / 3.0, 0.5, 1.7])
    def test_deep_terms_match_mpmath(self, r):
        # three log-gammas of ~1e7 each would cancel to ~1e-9 here
        mpmath = pytest.importorskip("mpmath")
        ns = [10**5, 8 * 10**5, 10**7]
        with mpmath.workdps(50):
            expected = [float(mpmath.log(mpmath.binomial(mpmath.mpf(r) + n - 1, n)))
                        for n in ns]
        assert_allclose(log_binom(r, ns), expected, rtol=1e-11)

    def test_large_index_stays_finite(self):
        # (n+1)_(r-1) overflows a double for r = 500; C(502, 3) does not
        assert log_binom(500.0, 3) == pytest.approx(math.log(20958500), rel=1e-14)
        assert log_binom(500.0, 0) == 0.0

    @pytest.mark.parametrize("r, n", [(60.0, 10**6), (60.0, 10**7), (500.0, 10**5)])
    def test_overflowing_symbol_falls_back_to_log_gamma(self, r, n):
        # (n+1)_(r-1) is not finite here, so the log-gamma difference is
        # used, accurate only to a few ulps of gammaln(r+n)
        from scipy.special import gammaln, poch
        mpmath = pytest.importorskip("mpmath")
        assert not np.isfinite(poch(n + 1.0, r - 1.0))
        with mpmath.workdps(50):
            expected = float(mpmath.log(mpmath.binomial(mpmath.mpf(r) + n - 1, n)))
        ulp = np.spacing(gammaln(r + n))
        assert log_binom(r, n) == pytest.approx(expected, rel=0, abs=4 * ulp)


class TestParams:
    @pytest.mark.parametrize("m", [1.0, 0.5, -2.0])
    def test_scale_must_exceed_one(self, m):
        with pytest.raises(ValueError, match="m must be > 1"):
            HarrisParams(m, 2)

    @pytest.mark.parametrize("m", [math.inf, math.nan])
    def test_scale_must_be_finite(self, m):
        with pytest.raises(ValueError, match="m must be > 1 and finite"):
            HarrisParams(m, 2)

    @pytest.mark.parametrize("k", [0, -1, 1.5, 2.0, True])
    def test_step_must_be_positive_integer(self, k):
        with pytest.raises(ValueError):
            HarrisParams(2.0, k)

    def test_index_is_derived(self):
        assert HarrisParams(2.0, 4).index == 0.25

    def test_support_value(self):
        params = HarrisParams(2.0, 3)
        assert params.support_value(np.arange(4)).tolist() == [1, 4, 7, 10]
        assert params.support_value(5) == 16


class TestPmf:
    @pytest.mark.parametrize("m", GRID_M)
    @pytest.mark.parametrize("k", GRID_K)
    def test_zero_count_probability(self, m, k):
        assert harris_pmf(HarrisParams(m, k), 0) == pytest.approx(
            m ** (-1.0 / k), rel=1e-14
        )

    def test_geometric_case(self):
        # (1/2) * (1/2)**3; same value via the decapitated-geometric oracle
        value = harris_pmf(HarrisParams(2.0, 1), 3)
        assert value == pytest.approx(0.0625, rel=1e-14)
        assert value == pytest.approx(decap_geometric_pmf(0.5, 4), rel=1e-14)

    def test_half_index_case(self):
        # C(1/2, 1) * (1/2) * (3/4) via the naive coefficient loop
        expected = naive_binom(0.5, 1) * 0.5 * 0.75
        assert expected == 0.1875
        assert harris_pmf(HarrisParams(4.0, 2), 1) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("m", GRID_M)
    @pytest.mark.parametrize("k", GRID_K)
    def test_matches_recurrence_oracle(self, m, k):
        params = HarrisParams(m, k)
        ns = np.arange(60)
        assert_allclose(harris_pmf(params, ns), pmf_recurrence(m, k, 59), rtol=1e-11)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            harris_pmf(HarrisParams(2.0, 1), -1)


class TestPmfTable:
    @pytest.mark.parametrize("m", GRID_M)
    @pytest.mark.parametrize("k", GRID_K)
    def test_normalization(self, m, k):
        _, probs, tail_mass = pmf_table(HarrisParams(m, k), tail_bound=1e-12)
        assert abs(sum(probs.tolist()) + tail_mass - 1.0) < 1e-12

    @pytest.mark.parametrize("m", GRID_M)
    @pytest.mark.parametrize("k", GRID_K)
    def test_support_law_and_monotone_tail(self, m, k):
        xs, probs, _ = pmf_table(HarrisParams(m, k), tail_bound=1e-12)
        assert np.all((probs >= 0.0) & (probs <= 1.0))
        assert np.all(xs % k == 1 % k)
        assert np.array_equal(xs, 1 + k * np.arange(len(probs)))
        mode = int(np.argmax(probs))
        assert np.all(np.diff(probs[mode:]) <= 0.0)

    def test_certified_tail_dominates_true_tail(self):
        params = HarrisParams(E, 2)
        n = truncation_index(params, 1e-12)
        true_tail = 1.0 - harris_pmf(params, np.arange(n + 1)).sum()
        assert true_tail <= tail_bound_after(params, n) < 1e-12

    @settings(max_examples=300, deadline=None)
    @given(m=st.floats(1.0, 1e6, exclude_min=True), k=st.integers(1, 10),
           tail=st.floats(1e-15, 1e-3))
    @example(m=26073.0, k=2, tail=1e-15)
    @example(m=31623.0, k=4, tail=1e-15)
    def test_table_and_certified_tail_bracket_one(self, m, k, tail):
        try:
            _, probs, tail_mass = pmf_table(HarrisParams(m, k), tail_bound=tail)
        except ResourceLimitError:
            return
        assert probs.sum() <= 1.0 + 1e-12
        assert probs.sum() + tail_mass >= 1.0 - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(log_m=st.floats(1e-9, math.log(1e6)),
           k=st.integers(1, 12),
           tail=st.floats(TINY, 1.0, exclude_max=True),
           max_terms=st.sampled_from([20_000, 1_000_000]))
    @example(log_m=math.log(1e5), k=1, tail=1e-12, max_terms=1_000_000)
    @example(log_m=math.log(1000.0), k=2, tail=1e-12, max_terms=1_000_000)
    @example(log_m=math.log(25.191002639540564), k=1, tail=TINY, max_terms=20_000)
    @example(log_m=1e-6, k=12, tail=0.5, max_terms=20_000)
    def test_index_is_the_running_product_walks(self, log_m, k, tail, max_terms):
        params = HarrisParams(math.exp(log_m), k)
        try:
            index = truncation_index(params, tail, max_terms)
        except ResourceLimitError:
            index = None
        assert index == walk_index(params, tail, max_terms)

    @pytest.mark.parametrize("tail", [4e-322, 1e-320, TINY / 2])
    def test_subnormal_tails_are_refused(self, tail):
        # the running product sticks at the smallest subnormal, and below
        # the smallest normal float no bound holds relative precision
        with pytest.raises(ValueError, match="tail bound must lie in"):
            truncation_index(HarrisParams(25.191002639540564, 1), tail)
        with pytest.raises(ValueError, match="tail bound must lie in"):
            pmf_table(HarrisParams(14.770960494304251, 1), tail)

    def test_smallest_normal_tail_is_accepted(self):
        params = HarrisParams(25.191002639540564, 1)
        n = truncation_index(params, TINY)
        assert tail_bound_after(params, n) < TINY <= tail_bound_after(params, n - 1)

    def test_tail_stays_finite_where_q_rounds_to_one(self):
        # 1 - 1/m is exactly 1.0 here, so q/(1-q) would divide by zero
        params = HarrisParams(1e300, 2)
        assert 1.0 - 1.0 / params.m == 1.0
        assert math.isfinite(tail_bound_after(params, 10))
        with pytest.raises(ResourceLimitError):
            truncation_index(params, 1e-12, max_terms=100)


class TestPgf:
    @pytest.mark.parametrize("m", GRID_M)
    @pytest.mark.parametrize("k", GRID_K)
    def test_normalization_at_one(self, m, k):
        assert abs(harris_pgf(HarrisParams(m, k), 1.0) - 1.0) < 1e-12

    def test_vanishes_at_zero(self):
        assert harris_pgf(HarrisParams(2.0, 3), 0.0) == 0.0

    def test_geometric_value(self):
        assert harris_pgf(HarrisParams(2.0, 1), 0.5) == pytest.approx(1.0 / 3.0, rel=1e-14)

    @pytest.mark.parametrize("m", GRID_M)
    @pytest.mark.parametrize("k", GRID_K)
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_matches_power_series(self, m, k, s):
        params = HarrisParams(m, k)
        # partial sum of pmf(n) * s**(1 + n*k) down to tail < 1e-14
        total, n, term = 0.0, 0, None
        probs = pmf_recurrence(m, k, 400)
        for n in range(401):
            term = probs[n] * s ** (1 + n * k)
            total += term
            if term < 1e-14 and n > 5:
                break
        assert harris_pgf(params, s) == pytest.approx(total, abs=1e-10)

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            harris_pgf(HarrisParams(2.0, 1), -0.1)

    def test_rejects_nonpositive_denominator(self):
        with pytest.raises(ValueError, match="not positive"):
            harris_pgf(HarrisParams(2.0, 1), 3.0)

    @pytest.mark.parametrize("m", GRID_M)
    @pytest.mark.parametrize("k", GRID_K)
    def test_derivative_at_one_is_mean(self, m, k):
        params = HarrisParams(m, k)
        h = 1e-5
        deriv = (harris_pgf(params, 1.0 + h) - harris_pgf(params, 1.0 - h)) / (2 * h)
        assert deriv == pytest.approx(m, rel=1e-5)


class TestMoments:
    def test_geometric_scale(self):
        # truncated-sum oracle confirms the closed form
        assert truncated_moments(2.0, 1) == (pytest.approx(2.0), pytest.approx(2.0))
        assert harris_mean_var(HarrisParams(2.0, 1)) == (2.0, 2.0)

    def test_exponential_scale(self):
        mean, var = harris_mean_var(HarrisParams(E, 2))
        assert mean == pytest.approx(E, rel=1e-15)
        assert var == pytest.approx(2 * E * (E - 1), rel=1e-15)
        oracle_mean, oracle_var = truncated_moments(E, 2)
        assert mean == pytest.approx(oracle_mean, rel=1e-12)
        assert var == pytest.approx(oracle_var, rel=1e-10)

    def test_degenerate_limit(self):
        _, var = harris_mean_var(HarrisParams(1.0 + 1e-9, 3))
        assert 0.0 < var < 1e-8


class TestNegativeBinomial:
    def test_geometric_value(self):
        assert nb_pmf(1.0, 0.5, 2) == pytest.approx(0.125, rel=1e-14)

    @pytest.mark.parametrize("r,p", [(0.5, 0.3), (2.0, 0.7), (1.0 / 3.0, 0.9)])
    def test_zero_count(self, r, p):
        assert nb_pmf(r, p, 0) == pytest.approx(p**r, rel=1e-14)

    def test_equals_harris_example(self):
        assert nb_pmf(0.5, 0.25, 1) == pytest.approx(0.1875, rel=1e-14)
        assert nb_pmf(0.5, 0.25, 1) == harris_pmf(HarrisParams(4.0, 2), 1)

    @pytest.mark.parametrize("m", GRID_M)
    @pytest.mark.parametrize("k", GRID_K)
    def test_harris_identity_on_grid(self, m, k):
        params = HarrisParams(m, k)
        ns = np.arange(51)
        assert np.array_equal(harris_pmf(params, ns), nb_pmf(1.0 / k, 1.0 / m, ns))

    @pytest.mark.parametrize("r,p", [(0.0, 0.5), (-1.0, 0.5), (1.0, 0.0), (1.0, 1.0)])
    def test_domain_errors(self, r, p):
        with pytest.raises(ValueError):
            nb_pmf(r, p, 1)


class TestDecapitatedGeometric:
    def test_first_value(self):
        assert decap_geometric_pmf(0.5, 1) == 0.5

    def test_fourth_value_matches_harris(self):
        assert decap_geometric_pmf(0.5, 4) == pytest.approx(
            harris_pmf(HarrisParams(2.0, 1), 3), rel=1e-14
        )

    def test_mass_concentrates_as_q_tends_to_one(self):
        assert decap_geometric_pmf(1.0 - 1e-12, 2) < 1e-11

    @pytest.mark.parametrize("m", GRID_M)
    def test_k1_reduction(self, m):
        params = HarrisParams(m, 1)
        for n in range(40):
            assert harris_pmf(params, n) == pytest.approx(
                decap_geometric_pmf(1.0 / m, n + 1), rel=1e-14
            )

    @pytest.mark.parametrize("q,n", [(0.0, 1), (1.0, 1), (0.5, 0), (0.5, -3)])
    def test_domain_errors(self, q, n):
        with pytest.raises(ValueError):
            decap_geometric_pmf(q, n)
