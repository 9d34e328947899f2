"""Tests for the analysis utilities (statistics and complexity model)."""

from __future__ import annotations

import math

import pytest

from repro.analysis.complexity import (
    compare_time_bounds,
    complexity_point,
    growth_exponent,
    samples_per_state_table,
    speedup_ratio,
)
from repro.analysis.statistics import (
    EmpiricalDistribution,
    chernoff_sample_size,
    empirical_tv_to_uniform,
    hoeffding_bound,
    mean_confidence_interval,
    quantile,
    total_variation_distance,
    uniformity_report,
)


class TestEmpiricalDistribution:
    def test_from_samples(self):
        dist = EmpiricalDistribution.from_samples(["a", "b", "a", "a"])
        assert dist.total == 4
        assert dist.probability("a") == pytest.approx(0.75)
        assert dist.probability("missing") == 0.0

    def test_support_and_probabilities(self):
        dist = EmpiricalDistribution.from_samples(["x", "y"])
        assert set(dist.support()) == {"x", "y"}
        assert sum(dist.as_probabilities().values()) == pytest.approx(1.0)

    def test_empty_distribution(self):
        dist = EmpiricalDistribution.from_samples([])
        assert dist.total == 0
        assert dist.as_probabilities() == {}
        assert dist.probability("a") == 0.0


class TestTotalVariation:
    def test_identical_distributions(self):
        p = {"a": 0.5, "b": 0.5}
        assert total_variation_distance(p, p) == 0.0

    def test_disjoint_distributions(self):
        assert total_variation_distance({"a": 1.0}, {"b": 1.0}) == pytest.approx(1.0)

    def test_symmetry(self):
        p = {"a": 0.7, "b": 0.3}
        q = {"a": 0.2, "b": 0.5, "c": 0.3}
        assert total_variation_distance(p, q) == pytest.approx(total_variation_distance(q, p))

    def test_known_value(self):
        p = {"a": 0.5, "b": 0.5}
        q = {"a": 0.75, "b": 0.25}
        assert total_variation_distance(p, q) == pytest.approx(0.25)

    def test_empirical_tv_to_uniform_perfect(self):
        samples = ["a", "b", "c", "a", "b", "c"]
        assert empirical_tv_to_uniform(samples, ["a", "b", "c"]) == pytest.approx(0.0)

    def test_empirical_tv_to_uniform_degenerate(self):
        assert empirical_tv_to_uniform(["a"] * 10, ["a", "b"]) == pytest.approx(0.5)

    def test_empirical_tv_empty_population(self):
        assert empirical_tv_to_uniform([], []) == 0.0
        assert empirical_tv_to_uniform(["a"], []) == 1.0


class TestUniformityReport:
    def test_perfectly_uniform_samples(self):
        population = ["a", "b", "c", "d"]
        samples = population * 50
        report = uniformity_report(samples, population)
        assert report.tv_distance == pytest.approx(0.0)
        assert report.excess_tv == 0.0
        assert report.distinct_sampled == 4
        assert report.max_probability_ratio == pytest.approx(1.0)

    def test_skewed_samples_have_excess(self):
        population = ["a", "b", "c", "d"]
        samples = ["a"] * 400
        report = uniformity_report(samples, population)
        assert report.tv_distance == pytest.approx(0.75)
        assert report.excess_tv > 0.5
        assert report.max_probability_ratio == pytest.approx(4.0)

    def test_expected_tv_decreases_with_sample_size(self):
        population = list(range(50))
        small = uniformity_report(list(range(50)), population)
        large = uniformity_report(list(range(50)) * 20, population)
        assert large.expected_tv_distance < small.expected_tv_distance


class TestConcentrationHelpers:
    def test_chernoff_sample_size_monotone(self):
        assert chernoff_sample_size(0.1, 0.1) > chernoff_sample_size(0.2, 0.1)
        assert chernoff_sample_size(0.1, 0.01) > chernoff_sample_size(0.1, 0.1)

    def test_chernoff_invalid_arguments(self):
        with pytest.raises(ValueError):
            chernoff_sample_size(0.0, 0.1)
        with pytest.raises(ValueError):
            chernoff_sample_size(0.1, 1.5)

    def test_hoeffding_bound_range(self):
        assert hoeffding_bound(100, 0.1) == pytest.approx(2 * math.exp(-2.0), rel=1e-6)
        assert hoeffding_bound(10, 0.0) == 1.0

    def test_hoeffding_invalid(self):
        with pytest.raises(ValueError):
            hoeffding_bound(0, 0.1)

    def test_mean_confidence_interval_contains_mean(self):
        mean, low, high = mean_confidence_interval([1.0, 2.0, 3.0, 4.0], confidence=0.95)
        assert low <= mean <= high
        assert mean == pytest.approx(2.5)

    def test_mean_confidence_interval_single_value(self):
        mean, low, high = mean_confidence_interval([3.0])
        assert mean == low == high == 3.0

    def test_mean_confidence_interval_invalid(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0], confidence=1.5)

    def test_quantile(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert quantile(values, 0.0) == 1.0
        assert quantile(values, 1.0) == 5.0
        assert quantile(values, 0.5) == 3.0
        assert quantile(values, 0.25) == pytest.approx(2.0)

    def test_quantile_invalid(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)


class TestComplexityModel:
    def test_point_ratios(self):
        point = complexity_point(10, 10, 0.5)
        assert point.sample_ratio > 1.0
        assert point.time_ratio > 1.0
        assert point.as_row()["m"] == 10

    def test_sample_ratio_grows_with_m(self):
        small = complexity_point(5, 10, 0.5)
        large = complexity_point(50, 10, 0.5)
        assert large.sample_ratio > small.sample_ratio

    def test_table_size(self):
        table = samples_per_state_table((5, 10), (10, 20), (0.5, 0.1))
        assert len(table) == 8

    def test_compare_time_bounds_rows(self):
        rows = compare_time_bounds((5, 10, 20), 10, 0.3)
        assert [row.num_states for row in rows] == [5, 10, 20]

    def test_speedup_ratio_positive(self):
        assert speedup_ratio(10, 10, 0.3) > 1.0

    def test_growth_exponent_recovers_power_law(self):
        xs = [1.0, 2.0, 4.0, 8.0]
        ys = [x**3 for x in xs]
        assert growth_exponent(xs, ys) == pytest.approx(3.0, abs=1e-9)

    def test_growth_exponent_invalid_inputs(self):
        with pytest.raises(ValueError):
            growth_exponent([1.0], [1.0])
        with pytest.raises(ValueError):
            growth_exponent([2.0, 2.0], [1.0, 2.0])
