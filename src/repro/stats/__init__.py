"""Statistics utilities for measurement and reporting.

The paper reports mean and 99.9th-percentile queueing delays (Tables 1-3),
measured utilization (nu-hat) and measured per-class maximal delay (d-hat)
for admission control (Section 9).  This subpackage provides the streaming
estimators behind all of those numbers.
"""

from repro.stats.summary import SummaryStats
from repro.stats.percentile import PercentileTracker, exact_percentile
from repro.stats.ewma import Ewma
from repro.stats.timeseries import TimeWeightedValue, RateMeter
from repro.stats.windowed import SlidingWindowMax, SlidingWindowStats

__all__ = [
    "SummaryStats",
    "PercentileTracker",
    "exact_percentile",
    "Ewma",
    "TimeWeightedValue",
    "RateMeter",
    "SlidingWindowMax",
    "SlidingWindowStats",
]
