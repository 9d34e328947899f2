"""Analysis utilities: statistics and cost models."""

from repro.analysis.statistics import (
    EmpiricalDistribution,
    chernoff_sample_size,
    hoeffding_bound,
    mean_confidence_interval,
    total_variation_distance,
    uniformity_report,
)
from repro.analysis.complexity import (
    ComplexityPoint,
    compare_time_bounds,
    samples_per_state_table,
    speedup_ratio,
)

__all__ = [
    "EmpiricalDistribution",
    "total_variation_distance",
    "uniformity_report",
    "chernoff_sample_size",
    "hoeffding_bound",
    "mean_confidence_interval",
    "ComplexityPoint",
    "samples_per_state_table",
    "compare_time_bounds",
    "speedup_ratio",
]
