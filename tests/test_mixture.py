import math
from collections import Counter
from functools import partial

import numpy as np
import pytest

from harrisproc.birth import ProcessParams
from harrisproc.distribution import HarrisParams, harris_mean_var, harris_pmf
from harrisproc.errors import ConvergenceError
from harrisproc.mixture import (
    MixtureParams,
    mixture_moments,
    mixture_pmf,
    mixture_pmf_quadrature,
    sample_model2,
)
from harrisproc.sampling import RngStream
from harrisproc.validation import chi_square_gof, gof_support


class TestMixtureParams:
    @pytest.mark.parametrize("a,k", [(0.0, 1), (-1.0, 1), (1.0, 0), (1.0, 1.5)])
    def test_validation(self, a, k):
        with pytest.raises(ValueError):
            MixtureParams(a, k)

    def test_induced_scale(self):
        params = MixtureParams(1.0, 2)
        assert params.scale_at(1.0) == 2.0
        assert params.harris_at(1.0) == HarrisParams(2.0, 2)


class TestClosedForm:
    @pytest.mark.parametrize("a,t,k", [(0.5, 0.5, 1), (1.0, 1.0, 2), (2.0, 1.5, 3)])
    def test_zero_count(self, a, t, k):
        assert mixture_pmf(MixtureParams(a, k), t, 0) == pytest.approx(
            (a / (a + t)) ** (1.0 / k), rel=1e-14
        )

    def test_geometric_case(self):
        assert mixture_pmf(MixtureParams(1.0, 1), 1.0, 2) == pytest.approx(
            0.125, rel=1e-14
        )

    def test_half_index_case(self):
        # C(1/2, 1) * (2/3)**(1/2) * (1/3), frozen by the quadrature oracle
        value = mixture_pmf(MixtureParams(2.0, 2), 1.0, 1)
        assert value == pytest.approx(0.13608276348795434, rel=1e-12)
        assert value == pytest.approx(
            mixture_pmf_quadrature(MixtureParams(2.0, 2), 1.0, 1), abs=1e-8
        )

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError):
            mixture_pmf(MixtureParams(1.0, 1), 0.0, 0)


class TestQuadrature:
    def test_exponential_mixing_value(self):
        # shape 1/k = 1: integral of exp(-2*lam) over (0, inf) is 1/2
        assert mixture_pmf_quadrature(MixtureParams(1.0, 1), 1.0, 0) == pytest.approx(
            0.5, abs=1e-10
        )

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t", [0.5, 2.0])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_closed_form(self, a, t, k):
        params = MixtureParams(a, k)
        for n in range(0, 21, 4):
            gap = abs(mixture_pmf(params, t, n) - mixture_pmf_quadrature(params, t, n))
            assert gap < 1e-8

    def test_mass_completeness(self):
        params = MixtureParams(1.0, 2)
        total = sum(mixture_pmf_quadrature(params, 1.0, n) for n in range(80))
        # remaining closed-form tail beyond the summed range
        tail = 1.0 - harris_pmf(params.harris_at(1.0), np.arange(80)).sum()
        assert total + tail == pytest.approx(1.0, abs=1e-8)

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(ConvergenceError):
            mixture_pmf_quadrature(MixtureParams(1.0, 2), 1.0, 0, abs_target=1e-30)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            mixture_pmf_quadrature(MixtureParams(1.0, 1), 1.0, -1)


class TestSampler:
    def test_support_invariant(self):
        draws = sample_model2(RngStream(0), MixtureParams(1.0, 3), 2.0, size=20_000)
        assert np.all((draws - 1) % 3 == 0)
        assert draws.min() >= 1

    def test_moments_and_law_seed42(self):
        params = MixtureParams(1.0, 2)
        draws = sample_model2(RngStream(42), params, 1.0, size=100_000)
        mean, var = mixture_moments(params, 1.0)
        assert abs(draws.mean() - mean) < 3 * math.sqrt(var / len(draws))
        marginal = params.harris_at(1.0)
        observed = Counter(draws.tolist())
        support, probs = gof_support(partial(harris_pmf, marginal),
                                     marginal.support_value, observed, len(draws))
        result = chi_square_gof(observed, support, probs, len(draws), 0.01)
        assert result.passed

    def test_law_of_total_expectation(self):
        # E[Z(t)] = 1 + k * E[rate] * t = 1 + t/a
        params = MixtureParams(2.0, 3)
        t = 1.5
        draws = sample_model2(RngStream(5), params, t, size=1_000_000)
        _, var = mixture_moments(params, t)
        assert abs(draws.mean() - (1.0 + t / params.a)) < 3 * math.sqrt(var / len(draws))

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError):
            sample_model2(RngStream(0), MixtureParams(1.0, 1), -1.0)


class TestMoments:
    def test_degenerate_start(self):
        assert mixture_moments(MixtureParams(1.0, 2), 0.0) == (1.0, 0.0)

    def test_closed_form_values(self):
        assert mixture_moments(MixtureParams(1.0, 2), 1.0) == (2.0, 4.0)

    @pytest.mark.parametrize("a,t,k", [(0.5, 0.5, 1), (1.0, 1.0, 2), (2.0, 1.5, 3)])
    def test_agrees_with_distribution_moments(self, a, t, k):
        params = MixtureParams(a, k)
        mean, var = mixture_moments(params, t)
        d_mean, d_var = harris_mean_var(params.harris_at(t))
        assert mean == pytest.approx(d_mean, rel=1e-14)
        assert var == pytest.approx(d_var, rel=1e-14)

    def test_mean_strictly_increasing(self):
        params = MixtureParams(1.5, 2)
        means = [mixture_moments(params, t)[0] for t in np.linspace(0.0, 3.0, 10)]
        assert np.all(np.diff(means) > 0.0)


class TestModelEquivalence:
    def test_same_scale_same_law(self):
        # exp(t*lam*k) = 2 with lam = ln(2)/2, k = 2, t = 1 reproduces the
        # mixture scale (a + t)/a = 2 with a = 1, t = 1 bitwise, so the two
        # constructions induce one and the same Harris law.
        birth = ProcessParams(math.log(2.0) / 2.0, 2)
        mix = MixtureParams(1.0, 2)
        assert birth.scale_at(1.0) == mix.scale_at(1.0) == 2.0
        ns = np.arange(60)
        birth_law = harris_pmf(birth.harris_at(1.0), ns)
        mix_law = np.array([mixture_pmf(mix, 1.0, int(n)) for n in ns])
        assert np.array_equal(birth_law, mix_law)
