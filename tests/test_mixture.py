import math
import time
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from harrisproc import acceptance, mixture, sampling
from harrisproc.birth import ProcessParams
from harrisproc.distribution import HarrisParams, harris_mean_var, harris_pmf
from harrisproc.errors import ConvergenceError
from harrisproc.mixture import (
    MixtureParams,
    mixture_moments,
    mixture_pmf,
    mixture_pmf_quadrature,
    quadrature_agrees,
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

    def test_unreachable_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(mixture, "QUAD_REL_TARGET", 1e-30)
        start = time.perf_counter()
        with pytest.raises(ConvergenceError):
            mixture_pmf_quadrature(MixtureParams(1.0, 2), 1.0, 0)
        assert time.perf_counter() - start < 1.0

    def test_the_start_counts_as_bisections(self, monkeypatch):
        # the start's equal intervals and their halves count as the
        # bisections that make those halves from [0, 1]; this call needs a
        # few more, so a cap of just those raises
        monkeypatch.setattr(mixture, "QUAD_MAX_SUBDIVISIONS",
                            2 * mixture.QUAD_START_INTERVALS - 1)
        with pytest.raises(ConvergenceError):
            mixture._mixture_quadrature(0.5, 3, 1.0, np.arange(21))

    def test_nan_integrand_raises(self):
        # a NaN estimate fails every comparison: it neither converges nor
        # marks an interval for bisection
        with pytest.raises(ConvergenceError):
            mixture._mixture_quadrature(np.array([1.0, np.nan]), 2, 1.0, 3)

    def test_array_counts_match_scalar_calls(self):
        params = MixtureParams(1.0, 2)
        values = mixture_pmf_quadrature(params, 1.0, np.arange(6))
        assert values.shape == (6,)
        for n, value in enumerate(values):
            assert value == pytest.approx(
                mixture_pmf_quadrature(params, 1.0, n), rel=1e-9)

    @pytest.mark.parametrize("a,k,t", [(1.0, 2, 1e6), (1.0, 1, 1e9),
                                       (1e-3, 5, 1e12), (1e3, 3, 1e-3)])
    def test_large_and_small_times_match_relatively(self, a, k, t):
        params = MixtureParams(a, k)
        ns = np.array([0, 1, 2, 20, 200, 20_000])
        closed = mixture_pmf(params, t, ns)
        assert np.all(np.abs(mixture_pmf_quadrature(params, t, ns) - closed)
                      <= 1e-8 * closed)

    @pytest.mark.parametrize("n", [5, 20, 100, 1000])
    def test_narrow_peak_integrated_alone(self, n):
        # the integrand's peak is about 1/(k*sqrt(n)) wide in log x, far
        # narrower than the Gauss-Kronrod nodes around it unless widened
        params = MixtureParams(1.0, 500)
        closed = mixture_pmf(params, 1e6, n)
        assert (abs(mixture_pmf_quadrature(params, 1e6, n) - closed)
                <= 1e-8 * closed)

    @pytest.mark.parametrize("k", [100, 1000, 3000, 10_000])
    def test_zero_count_drop_integrated_alone(self, k):
        # at n = 0 the integrand is flat up to its centre and then drops over
        # about 1/k in log x; centred at u = 1/2, a bisection point, no node
        # saw the drop near k = 1000
        params = MixtureParams(1.0, k)
        closed = mixture_pmf(params, 1e6, 0)
        assert (abs(mixture_pmf_quadrature(params, 1e6, 0) - closed)
                <= 1e-8 * closed)

    @settings(max_examples=100, deadline=None)
    @given(log_a=st.floats(-3, 3), k=st.sampled_from([1, 2, 3, 5, 10, 50]),
           log_t=st.floats(-3, 12),
           ns=st.lists(st.integers(2, 20_000), min_size=5, max_size=5))
    def test_array_calls_match_closed_form_relatively(self, log_a, k, log_t, ns):
        # the elements share their bisections, so every element must reach
        # its target however the others converge
        params, t = MixtureParams(10.0 ** log_a, k), 10.0 ** log_t
        ns = np.array([0, 1, *ns])
        closed = mixture_pmf(params, t, ns)
        value = mixture_pmf_quadrature(params, t, ns)
        assert np.all(np.abs(value - closed)
                      <= 1e-8 * np.maximum(closed, np.finfo(float).tiny))

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(1e-3, 1e3), k=st.sampled_from([1, 2, 3, 5]),
           t=st.floats(1e-3, 1e12), n=st.integers(0, 20_000))
    def test_matches_closed_form_relatively_or_raises(self, a, k, t, n):
        params = MixtureParams(a, k)
        closed = mixture_pmf(params, t, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                value = mixture_pmf_quadrature(params, t, n)
            except ConvergenceError:
                return
        # below the normal range a float carries no 1e-8 relative precision
        assert abs(value - closed) <= 1e-8 * max(closed, np.finfo(float).tiny)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            mixture_pmf_quadrature(MixtureParams(1.0, 1), 1.0, -1)

    def test_criterion_2_makes_one_quadrature_call(self, monkeypatch):
        calls = []
        real = acceptance._mixture_quadrature

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(acceptance, "_mixture_quadrature", counted)
        assert acceptance._check_quadrature_grid().passed
        assert len(calls) == 1


def _reference_integrand(a, k, t, n):
    """The mixture integrand term by term, log Poisson(n; lam*t) + log
    Gamma(lam; 1/k, a) + log|dlam/du| in log lam = k*log x, on the map
    x = s*(u/(1-u))**w that mixture._integrand fuses into one sum."""
    r = 1.0 / k
    w = 16.0 / np.maximum(k * np.sqrt(n), 16.0)
    log_s = (np.log(np.maximum(n, 1.0)) - np.log(a + t)) / k + (n == 0) * np.log(2.0)
    log_poisson_norm = n * np.log(t) - gammaln(n + 1.0)
    log_gamma_norm = r * np.log(a) - gammaln(r)

    def integrand(u):
        log_x = log_s + w * (np.log(u) - np.log1p(-u))
        log_lam = k * log_x
        with np.errstate(over="ignore"):
            lam = np.exp(log_lam)
            log_poisson = log_poisson_norm + n * log_lam - lam * t
            log_gamma = log_gamma_norm + (r - 1.0) * log_lam - a * lam
        log_jacobian = np.log(k * w) + log_lam - np.log(u) - np.log1p(-u)
        return np.exp(log_poisson + log_gamma + log_jacobian)

    return integrand


class TestFusedIntegrand:
    # every criterion 2 element, then large times, k = 500 and n to 20,000
    LAWS = ([(a, k, t, n) for a, t, k in acceptance.QUAD_GRID for n in range(21)]
            + [(1.0, k, t, n) for t in (50.0, 1e6, 1e9) for k in (1, 2)
               for n in (0, 1, 20, 200, 20_000)]
            + [(1.0, 500, 1e6, n) for n in (0, 5, 20, 100, 1000)])

    @pytest.fixture(scope="class")
    def values(self):
        """u at the nodes of the 16 halves a call starts from (one row per
        node), the laws' arrays, and both integrands there."""
        a, k, t, n = (np.array(c) for c in zip(*self.LAWS))
        nodes, _ = mixture._gauss_legendre()
        halves = 2 * mixture.QUAD_START_INTERVALS
        u = ((np.arange(halves)[:, None] + (1.0 + nodes) / 2.0) / halves).reshape(-1, 1)
        return (u, (a, k, t, n), mixture._integrand(a, k, t, n)(u),
                _reference_integrand(a, k, t, n)(u))

    def test_matches_the_term_by_term_reference(self, values):
        _, _, fused, reference = values
        assert np.array_equal(fused == 0.0, reference == 0.0)
        normal = reference >= np.finfo(float).tiny
        assert normal.sum() > 80_000
        # largest gap measured 6.8e-11, at n = 20,000 and t = 1e6
        gap = np.abs(fused[normal] - reference[normal]) / reference[normal]
        assert gap.max() < 1e-10

    def test_is_as_accurate_as_the_reference(self, values):
        mpmath = pytest.importorskip("mpmath")
        u, (a, k, t, n), fused, reference = values
        rows, cols = np.nonzero(reference >= np.finfo(float).tiny)
        errors = []
        with mpmath.workdps(40):
            for i, j in zip(rows[::80], cols[::80]):
                # the integrand on the map both forms compute in floats:
                # mu = (t+a)*lam = c*(u/(1-u))**(k*w), c = max(n, 1)*2**k at n = 0
                aj, tj, uj, nj, kj = (mpmath.mpf(float(v)) for v in
                                      (a[j], t[j], u[i, 0], n[j], k[j]))
                r, w = 1 / kj, mpmath.mpf(16.0 / max(k[j] * math.sqrt(n[j]), 16.0))
                mu = (max(nj, 1) * (2 ** kj if nj == 0 else 1)
                      * (uj / (1 - uj)) ** (kj * w))
                exact = mpmath.exp(
                    (nj + r) * mpmath.log(mu) - mu - mpmath.log(uj * (1 - uj))
                    + nj * mpmath.log(tj / (tj + aj)) + r * mpmath.log(aj / (tj + aj))
                    - mpmath.loggamma(nj + 1) - mpmath.loggamma(r) + mpmath.log(kj * w))
                errors.append([float(abs(v / exact - 1))
                               for v in (fused[i, j], reference[i, j])])
        fused_error, reference_error = np.array(errors).T
        assert len(errors) > 1000
        assert fused_error.max() <= 1.5 * reference_error.max()
        assert fused_error.mean() <= 1.5 * reference_error.mean()


class TestQuadratureVerdict:
    def test_relative_below_the_tolerance(self):
        # an absolute gap under tol is a 100% error on a 1e-9 probability
        assert not quadrature_agrees([0.5, 1e-9], [0.5, 0.0], 1e-8)
        assert quadrature_agrees([0.5, 1e-9], [0.5, 1e-9 * (1 + 1e-9)], 1e-8)
        assert not quadrature_agrees([0.5], [0.5 + 2e-8], 1e-8)
        # rows that underflow to 0 in both agree
        assert quadrature_agrees([0.0], [0.0], 1e-8)


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
        support, probs = gof_support(marginal, max(observed), len(draws))
        result = chi_square_gof(observed, support, probs, 0.01)
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

    def test_a_run_past_the_draw_budget_is_refused_before_any_stream(
            self, monkeypatch):
        def no_stream(*args, **kwargs):
            raise AssertionError("a stream was made")

        monkeypatch.setattr(sampling, "RngStream", no_stream)
        # simulate's message for --replicas 1000000001
        with pytest.raises(ValueError, match="1000000001 mixture draws exceed the "
                                             "draw budget of 1000000000"):
            mixture.tally_model2(MixtureParams(1.0, 2), 1.0, 10**9 + 1, seed=0)


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
