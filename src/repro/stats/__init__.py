"""Measurement: collectors, run summaries, and sweep analysis."""

from repro.stats.collectors import NetworkStats
from repro.stats.summary import (
    RunResult,
    batch_means,
    confidence_interval,
    detect_saturation_point,
    histogram,
    mean,
    mean_or_none,
    percentile,
    percentile_or_none,
)
from repro.stats.utilization import LinkLoad, UtilizationReport

__all__ = [
    "LinkLoad",
    "NetworkStats",
    "RunResult",
    "UtilizationReport",
    "batch_means",
    "confidence_interval",
    "detect_saturation_point",
    "histogram",
    "mean",
    "mean_or_none",
    "percentile",
    "percentile_or_none",
]
