import json
import math
from collections import Counter
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from harrisproc.acceptance import run_scenario
from harrisproc.distribution import HarrisParams, harris_pmf
from harrisproc.errors import ResourceLimitError
from harrisproc.sampling import RngStream, sample_harris, tally_blocks
from harrisproc.validation import (
    MIN_EXPECTED_PER_BIN,
    Bin,
    Scenario,
    ValidationReport,
    chi_square_gof,
    chi_square_quantile,
    gof_support,
    moment_check,
    pearson_statistic,
    tally,
    tally_moments,
)


class TestChiSquareQuantile:
    def test_published_table_values(self):
        # frozen from numerical inversion of the regularized incomplete gamma
        assert chi_square_quantile(1, 0.05) == pytest.approx(3.841459, rel=1e-6)
        assert chi_square_quantile(2, 0.05) == pytest.approx(5.991465, rel=1e-6)
        assert chi_square_quantile(10, 0.5) == pytest.approx(9.341818, rel=1e-6)

    @pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05, 0.5, 0.9])
    def test_two_degrees_closed_form(self, alpha):
        assert chi_square_quantile(2, alpha) == pytest.approx(
            -2.0 * math.log(alpha), rel=1e-9
        )

    def test_monotone_in_df(self):
        values = [chi_square_quantile(df, 0.05) for df in range(1, 12)]
        assert np.all(np.diff(values) > 0.0)

    @pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05, 0.1, 0.5])
    def test_upper_tail_at_the_quantile_is_alpha(self, alpha):
        df = np.arange(1, 400)
        x = np.array([chi_square_quantile(d, alpha) for d in df])
        np.testing.assert_allclose(special.gammaincc(df / 2.0, x / 2.0), alpha,
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("df,alpha", [(0, 0.05), (-1, 0.05), (2, 0.0), (2, 1.0)])
    def test_domain_errors(self, df, alpha):
        with pytest.raises(ValueError):
            chi_square_quantile(df, alpha)


class TestChiSquareGof:
    def test_self_consistency_statistic_zero(self):
        # ten equiprobable cells; expected counts fed back as observations
        observed = {v: 100 for v in range(10)}
        result = chi_square_gof(observed, np.arange(10), np.full(10, 0.1), 0.05)
        assert result.statistic < 1e-12
        assert result.passed

    def test_rejects_wrong_distribution(self):
        # geometric-scale draws on every integer vs the k=2 Harris law,
        # which puts mass on odd states only
        draws = sample_harris(RngStream(0), HarrisParams(math.e, 1), size=100_000)
        wrong = HarrisParams(math.e, 2)
        observed = Counter(draws.tolist())
        support, probs = gof_support(wrong, max(observed), len(draws))
        result = chi_square_gof(observed, support, probs, 0.01)
        assert not result.passed

    def test_every_bin_reaches_minimum_expected(self):
        params = HarrisParams(2.0, 1)
        draws = sample_harris(RngStream(3), params, size=2000)
        observed = Counter(draws.tolist())
        support, probs = gof_support(params, max(observed), len(draws))
        result = chi_square_gof(observed, support, probs, 0.05)
        assert all(b.expected >= 5.0 for b in result.bins)
        assert result.bins[-1].label.startswith(">=")
        assert result.degrees_of_freedom == len(result.bins) - 1

    def test_thin_tail_is_merged(self):
        # geometric expected counts 600, 240, 96, 38.4, 15.36, 6.1, 2.5, ...
        # spread mass too thinly past v=5 to stand alone
        observed = {0: 600, 1: 240, 2: 96, 3: 38, 4: 16, 5: 6, 6: 4}
        support = np.arange(50)
        result = chi_square_gof(observed, support, 0.6 * 0.4**support, 0.05)
        assert result.bins[-1].label == ">=5"
        assert all(b.expected >= 5.0 for b in result.bins)

    def test_too_few_bins_raises(self):
        with pytest.raises(ValueError, match="fewer than two bins"):
            chi_square_gof({0: 6}, np.arange(2), np.array([1.0, 0.0]), 0.05)

    @pytest.mark.parametrize("observed", [{}, {1: 0, 2: 0}])
    def test_no_observations_raise(self, observed):
        with pytest.raises(ValueError, match="empty|positive total"):
            chi_square_gof(observed, np.arange(1, 3), np.full(2, 0.5), 0.05)

    def test_observations_beyond_finite_support_count_in_tail(self):
        observed = {0: 50, 1: 30, 2: 12, 9: 8}
        result = chi_square_gof(observed, np.arange(4),
                                np.array([0.5, 0.3, 0.12, 0.08]), 0.05)
        assert sum(b.observed for b in result.bins) == 100

    def test_support_ending_before_the_stop_rule_leaves_the_rest_to_the_tail(self):
        # the arrays end at 2 with 8% of the mass still ahead, so the test
        # reads all three points and the observations at 7 join the open tail
        observed = {0: 50, 1: 30, 2: 12, 7: 8}
        result = chi_square_gof(observed, np.arange(3), np.array([0.5, 0.3, 0.12]),
                                0.05)
        assert [b.label for b in result.bins] == ["0", "1", "2", ">=3"]
        assert result.bins[-1].observed == 8
        assert result.bins[-1].expected == pytest.approx(8.0, rel=1e-12)
        assert result.statistic < 1e-12

    @pytest.mark.parametrize("observed,labels", [
        ({0: 50, 1: 25, 2: 25}, ["0", "1", "2"]),
        ({0: 50, 1: 25, 2: 20, 7: 5}, ["0", "1", ">=2"]),
    ])
    def test_a_closed_last_cell_opens_for_observations_past_it(self, observed,
                                                               labels):
        # the sum reaches 1 at the last point, so no open tail cell is
        # expected; observations past the points join the last cell
        result = chi_square_gof(observed, np.arange(3), np.array([0.5, 0.25, 0.25]),
                                0.05)
        assert [b.label for b in result.bins] == labels
        assert [b.observed for b in result.bins] == [50, 25, 25]
        assert result.statistic == 0.0

    def test_a_negative_lower_bound_keeps_its_sign(self):
        # the thin tail merges into the last cell, whose lower bound is -2
        result = chi_square_gof({-3: 50, -2: 50}, np.array([-3, -2]),
                                np.array([0.5, 0.47]), 0.05)
        assert [b.label for b in result.bins] == ["-3", ">=-2"]

    @pytest.mark.parametrize("support,probs", [
        (np.arange(4), np.full(3, 0.25)),
        (np.arange(4), np.full((4, 1), 0.25)),
        (np.array([0, 1, 1, 2]), np.full(4, 0.25)),
        (np.array([0, 2, 1, 3]), np.full(4, 0.25)),
        (np.array([], dtype=int), np.array([])),
    ])
    def test_malformed_arrays_raise(self, support, probs):
        with pytest.raises(ValueError, match="arrays of one length|must increase"):
            chi_square_gof({0: 4}, support, probs, 0.05)


def _reference_label(lo, hi, open_tail):
    if open_tail:
        return f">={lo}"
    if lo == hi:
        return str(lo)
    return f"{lo}-{hi}"


def _reference_gof(observed, support, probs, total, alpha):
    """chi_square_gof as it was when each bin was labelled as it closed and
    the merged tail read its lower bound back from the last label (which
    mislabels a negative bound, so it is a reference on positive supports)."""
    observed_sum = sum(observed.values())
    cumulative = np.cumsum(probs)
    stops = np.flatnonzero((total * (1.0 - cumulative) < MIN_EXPECTED_PER_BIN)
                           & (support >= max(observed)))
    end = int(stops[0]) + 1 if stops.size else len(support)
    values = support[:end].tolist()
    counts = [observed.get(value, 0) for value in values]
    tail_expected = max(total * (1.0 - float(cumulative[end - 1])), 0.0)
    tail_observed = observed_sum - sum(counts)

    bins = []
    acc_obs, acc_exp = 0, 0.0
    acc_lo = None
    for value, obs, exp in zip(values, counts, (total * probs[:end]).tolist()):
        if acc_lo is None:
            acc_lo = value
        acc_obs += obs
        acc_exp += exp
        if acc_exp >= MIN_EXPECTED_PER_BIN:
            bins.append(Bin(_reference_label(acc_lo, value, False), acc_obs, acc_exp))
            acc_obs, acc_exp, acc_lo = 0, 0.0, None
    acc_obs += tail_observed
    acc_exp += tail_expected
    if acc_lo is not None or acc_exp > 0.0 or acc_obs > 0:
        tail_lo = acc_lo if acc_lo is not None else values[-1] + 1
        tail_bin = Bin(_reference_label(tail_lo, tail_lo, True), acc_obs, acc_exp)
        if tail_bin.expected >= MIN_EXPECTED_PER_BIN or not bins:
            bins.append(tail_bin)
        else:
            last = bins.pop()
            merged_lo = last.label.split("-")[0]
            bins.append(Bin(f">={merged_lo}", last.observed + tail_bin.observed,
                            last.expected + tail_bin.expected))
    if len(bins) < 2:
        raise ValueError("fewer than two bins remain after merging")

    statistic = sum((b.observed - b.expected) ** 2 / b.expected for b in bins)
    df = len(bins) - 1
    return (tuple(bins), float(statistic), df,
            statistic <= chi_square_quantile(df, alpha))


@st.composite
def positive_gof_inputs(draw):
    """A positive increasing support, probabilities summing to at most 1,
    and an observed map that may reach past the support or between its points."""
    support = sorted(draw(st.sets(st.integers(1, 400), min_size=1, max_size=30)))
    weights = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                                     min_size=len(support), max_size=len(support))))
    mass = draw(st.floats(0.5, 1.0))
    probs = weights * (mass / weights.sum()) if weights.sum() > 0 else weights
    observed = draw(st.dictionaries(
        st.one_of(st.sampled_from(support), st.integers(1, 500)),
        st.integers(1, 300), min_size=1, max_size=30))
    return observed, np.array(support), probs, sum(observed.values())


class TestGofMergeReference:
    @settings(deadline=None, max_examples=300)
    @given(positive_gof_inputs(), st.sampled_from([0.01, 0.05, 0.5]))
    def test_bins_and_verdict_equal_the_label_parsing_loop(self, inputs, alpha):
        observed, support, probs, total = inputs
        try:
            expected = _reference_gof(observed, support, probs, total, alpha)
        except ValueError as error:
            with pytest.raises(ValueError, match=str(error)):
                chi_square_gof(observed, support, probs, alpha)
            return
        result = chi_square_gof(observed, support, probs, alpha)
        assert (result.bins, result.statistic, result.degrees_of_freedom,
                result.passed) == expected



def test_pearson_statistic_is_the_scalar_sum_row_by_row():
    # two cells a row, so a term that rounds differently shows in its sum
    rng = np.random.default_rng(5)
    expected = rng.uniform(5.0, 2000.0, 2)
    observed = rng.integers(0, 4000, (10_000, 2))
    statistics = pearson_statistic(observed, expected)
    # the scalar terms, squared by ** and added left to right
    assert statistics.tolist() == [
        sum((o - e) ** 2 / e for o, e in zip(row, expected.tolist()))
        for row in observed.tolist()]
    assert pearson_statistic(observed[7], expected) == statistics[7]

def doubling_table(params, observed, total):
    """Oracle: the table gof_support once made, doubling from 256 points
    until the test of observed stops inside it; None past a million points."""
    n = np.arange(256)
    support, probs = params.support_value(n), harris_pmf(params, n)
    while (total * (1.0 - np.cumsum(probs)[-1]) >= 5.0
           or support[-1] < max(observed)):
        if len(support) >= 1_000_000:
            return None
        n = np.arange(len(support), min(2 * len(support), 1_000_000))
        support = np.concatenate([support, params.support_value(n)])
        probs = np.concatenate([probs, harris_pmf(params, n)])
    return support, probs


def gof_or_refusal(observed, table):
    try:
        return chi_square_gof(observed, *table, 0.01)
    except ValueError as exc:
        return str(exc)


class TestGofSupport:
    def test_a_heavy_tail_gets_one_long_table(self):
        # m = 1000, k = 1: the expected count beyond n stays above 5 until
        # n is about 9,900, and the table reaches past that in one call
        params = HarrisParams(1000.0, 1)
        total = 100_000
        observed = tally(sample_harris(RngStream(5), params, size=total))
        support, probs = gof_support(params, max(observed), total)
        assert len(support) > 9_900
        assert np.array_equal(support, np.arange(1, len(support) + 1))
        assert np.array_equal(probs, harris_pmf(params, np.arange(len(support))))
        # the arrays reach the point where the test stops reading
        stops = (total * (1.0 - np.cumsum(probs)) < 5.0) & (support >= max(observed))
        assert stops.any() and not stops[:len(support) // 2].any()
        result = chi_square_gof(observed, support, probs, 0.01)
        assert sum(b.observed for b in result.bins) == total
        assert result.passed

    @settings(max_examples=100, deadline=None)
    @given(log_m=st.floats(1e-6, math.log(3e4)), k=st.integers(1, 12),
           spread=st.floats(1.0, 4.0), total=st.integers(2, 20_000),
           seed=st.integers(0, 2**32 - 1))
    def test_the_test_on_the_table_is_the_doubling_tables(self, log_m, k, spread,
                                                          total, seed):
        # samples from the law itself or from a wider one, whose largest
        # value may lie past the law's truncation
        params = HarrisParams(math.exp(log_m), k)
        drawn = HarrisParams(params.m * spread, k)
        observed = tally(sample_harris(RngStream(seed), drawn, size=total))
        reference = doubling_table(params, observed, total)
        try:
            support, probs = gof_support(params, max(observed), total)
        except ResourceLimitError:
            assert reference is None
            return
        assert total * (1.0 - np.cumsum(probs)[-1]) < 5.0
        assert support[-1] >= max(observed)
        assert reference is not None
        assert (gof_or_refusal(observed, (support, probs))
                == gof_or_refusal(observed, reference))

    def test_arrays_agree_with_a_scalar_walk(self):
        # the walk chi_square_gof once made: one scalar pmf call per point
        # and a running sum, stopped by the same rule
        params = HarrisParams(3.0, 2)
        observed = tally(sample_harris(RngStream(1), params, size=20_000))
        support, probs = gof_support(params, max(observed), 20_000)
        cumulative = 0.0
        for n, (value, prob) in enumerate(zip(support.tolist(), probs.tolist())):
            assert value == 1 + 2 * n and prob == harris_pmf(params, n)
            cumulative += prob
            if 20_000 * (1.0 - cumulative) < 5.0 and value >= max(observed):
                break
        else:
            pytest.fail("the arrays end before the walk stops")
        assert cumulative == np.cumsum(probs)[n]

    def test_a_law_past_the_point_cap_is_refused(self):
        # m = 1e7 would need about 1e8 points before the tail drops below 5
        params = HarrisParams(1e7, 1)
        with pytest.raises(ResourceLimitError, match="exceeded 1000000"):
            gof_support(params, 1, 100_000)

    def test_observations_past_the_point_cap_are_refused(self):
        params = HarrisParams(2.0, 1)
        with pytest.raises(ResourceLimitError, match="exceeded 1000000 points"):
            gof_support(params, 2_000_000, 100)


class TestMomentCheck:
    def test_exact_match_passes(self):
        mean, var = moment_check(2.0, 4.0, 10_000, 2.0, 4.0)
        assert mean.passed and var.passed
        assert mean.std_error == math.sqrt(4.0 / 10_000)
        assert (var.empirical, var.analytic, var.rel_tol) == (4.0, 4.0, 0.05)

    def test_band_width_matches_corollary_variance(self):
        # 3 * sqrt(2e(e-1)/1e5) = 0.02899...; the law mean is e
        var = 2 * math.e * (math.e - 1)
        band = 3 * math.sqrt(var / 100_000)
        assert band == pytest.approx(0.028995506008429803, rel=1e-12)
        ok, _ = moment_check(math.e + 0.9 * band, var, 100_000, math.e, var)
        assert ok.passed
        assert ok.std_error == math.sqrt(var / 100_000)
        bad, _ = moment_check(math.e + 10 * math.sqrt(var / 100_000), var,
                              100_000, math.e, var)
        assert not bad.passed

    def test_variance_relative_band(self):
        _, ok = moment_check(2.0, 4.1, 10_000, 2.0, 4.0)
        assert ok.passed
        _, bad = moment_check(2.0, 4.5, 10_000, 2.0, 4.0)
        assert not bad.passed

    def test_small_samples_rejected(self):
        with pytest.raises(ValueError):
            moment_check(2.0, 4.0, 99, 2.0, 4.0)


# sample values: small ones (counted by np.bincount) and ones near 2**32,
# whose squares overflow int64
SAMPLE_VALUES = st.one_of(st.integers(0, 300),
                          st.integers(2**32 - 1000, 2**32 + 1000))


class TestTally:
    @settings(deadline=None)
    @given(st.lists(st.one_of(SAMPLE_VALUES, st.integers(-50, -1)), min_size=1,
                    max_size=200))
    def test_matches_np_unique(self, samples):
        values, counts = np.unique(samples, return_counts=True)
        observed = tally(np.array(samples, dtype=np.int64))
        assert list(observed.items()) == list(zip(values.tolist(), counts.tolist()))

    @settings(deadline=None)
    @given(st.dictionaries(SAMPLE_VALUES, st.integers(1, 10**7), min_size=1,
                           max_size=30).filter(lambda h: sum(h.values()) >= 2))
    def test_moments_are_the_correctly_rounded_exact_values(self, histogram):
        n = sum(histogram.values())
        s1 = sum(Fraction(v * c) for v, c in histogram.items())
        s2 = sum(Fraction(v * v * c) for v, c in histogram.items())
        mean, var = tally_moments(histogram)
        assert mean == float(s1 / n)
        assert var == float((s2 - s1 * s1 / n) / (n - 1))

    def test_moments_agree_with_numpy_on_draws(self):
        draws = sample_harris(RngStream(3), HarrisParams(2.0, 2), size=50_000)
        mean, var = tally_moments(tally(draws))
        assert mean == draws.mean()
        assert var == pytest.approx(draws.var(ddof=1), rel=1e-12)

    def test_one_sample_has_no_variance(self):
        with pytest.raises(ValueError):
            tally_moments({5: 1})

    def test_added_tallies_tally_the_joined_samples(self):
        # sampling.tally_blocks adds block b's tally of parts[b] into its
        # worker's tally, and those together
        rng = np.random.default_rng(0)
        parts = [rng.integers(0, 40, size=size) for size in (1000, 7, 300)]
        parts.append(np.array([2**40, 3, -5]))
        joined = list(tally(np.concatenate(parts)).items())
        for workers in (1, 2, 4):
            added = tally_blocks(lambda stream, size: parts[stream.stream_id],
                                 len(parts), 1, 0, workers)
            assert list(added.items()) == joined


class TestCalibration:
    def test_null_rejection_rate_near_alpha(self):
        # under the null the alpha=0.05 test should reject about 5% of seeds
        params = HarrisParams(2.0, 2)
        rejections = 0
        for seed in range(200):
            draws = sample_harris(RngStream(seed), params, size=10_000)
            observed = Counter(draws.tolist())
            support, probs = gof_support(params, max(observed), len(draws))
            result = chi_square_gof(observed, support, probs, 0.05)
            rejections += not result.passed
        assert 0.01 <= rejections / 200 <= 0.11


def _example_report():
    params = HarrisParams(math.e, 2)
    draws = sample_harris(RngStream(42), params, size=10_000)
    scenario = Scenario("birth", {"lambda": 0.5, "k": 2}, 1.0, len(draws), 42)
    observed = Counter(draws.tolist())
    support, probs = gof_support(params, max(observed), len(draws))
    gof = chi_square_gof(observed, support, probs, 0.01)
    mean_check, var_check = moment_check(
        float(draws.mean()), float(draws.var(ddof=1)), len(draws), math.e,
        2 * math.e * (math.e - 1))
    return ValidationReport(scenario, gof, mean_check, var_check,
                            gof.passed and mean_check.passed and var_check.passed)


class TestReport:
    def test_overall_is_conjunction(self):
        report = run_scenario("mixture", a=1.0, k=2, t=1.0, replicas=2000,
                              seed=3).report
        assert report.overall == (
            report.gof.passed and report.mean_check.passed and report.var_check.passed
        )

    def test_dict_round_trip_is_identity(self):
        report = _example_report()
        assert ValidationReport.from_dict(asdict(report)) == report

    def test_json_round_trip_is_identity(self):
        report = _example_report()
        payload = json.dumps(asdict(report))
        assert ValidationReport.from_dict(json.loads(payload)) == report

    def test_serialization_is_deterministic(self):
        a = json.dumps(asdict(_example_report()))
        b = json.dumps(asdict(_example_report()))
        assert a == b
