"""Traffic generation, characterization, and measurement.

Implements the Appendix workload (two-state Markov on/off sources pushed
through an (A, 50) token bucket) plus the filters of Section 4 and the
delay-recording sinks behind every table in the paper.
"""

from repro.traffic.token_bucket import (
    TokenBucket,
    TokenBucketFilter,
    NonconformingPolicy,
    minimal_bucket_depth,
)
from repro.traffic.onoff import OnOffMarkovSource, OnOffParams
from repro.traffic.cbr import CbrSource
from repro.traffic.poisson import PoissonSource
from repro.traffic.trace import TraceSource
from repro.traffic.sink import DelayRecordingSink
from repro.traffic.characterize import (
    SourceCharacterization,
    average_rate_bps,
    bucket_curve,
    choose_rate,
    delay_curve,
    peak_rate_bps,
)

__all__ = [
    "TokenBucket",
    "TokenBucketFilter",
    "NonconformingPolicy",
    "minimal_bucket_depth",
    "OnOffMarkovSource",
    "OnOffParams",
    "CbrSource",
    "PoissonSource",
    "TraceSource",
    "DelayRecordingSink",
    "SourceCharacterization",
    "average_rate_bps",
    "bucket_curve",
    "choose_rate",
    "delay_curve",
    "peak_rate_bps",
]
