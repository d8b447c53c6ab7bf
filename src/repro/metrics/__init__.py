"""Metrics: throughput results and time-series helpers."""

from .results import StageBreakdown, SystemRunResult
from .timeline import EventCounterSeries, TimeSeries

__all__ = [
    "StageBreakdown",
    "SystemRunResult",
    "EventCounterSeries",
    "TimeSeries",
]
