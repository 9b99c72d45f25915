"""Table 3: the unified scheduling algorithm with mixed commitments.

The Figure-1 chain again, but now the 22 real-time flows split into
service classes and two TCP connections supply datagram load:

* 3 Guaranteed-Peak flows — clock rate = peak generation rate (2A =
  170 pkt/s -> 170 kbit/s),
* 2 Guaranteed-Average flows — clock rate = average rate (85 kbit/s),
* 7 Predicted-High and 10 Predicted-Low flows (two priority classes),
* 2 TCP connections (Host-1->Host-3 and Host-3->Host-5), so every link
  carries exactly: 2 G-Peak + 1 G-Avg + 3 P-High + 4 P-Low + 1 datagram
  connection — the paper's per-link census.

Flows are established through the real signaling/admission machinery
(guaranteed clock rates installed in the per-port unified schedulers;
predicted flows assigned priority classes from their (D, L) requests with
the token-bucket conformance check installed at their first switch).  The
whole run — commitments, TCP load, per-link accounting — is one
declarative :class:`repro.scenario.ScenarioSpec`; the spec's
``establish_order`` encodes the paper's discipline of reserving
guaranteed flows before admitting predicted ones.

The paper's sample rows (mean, 99.9 %ile, max and, for guaranteed flows,
the P-G bound, in transmission times) are :data:`PAPER_VALUES`, keyed by
(type, path length).

Shape criteria: every guaranteed max delay < its P-G bound; Peak delays
<< Average delays; High delays << Low delays; total utilization > 95 %
(paper: >99 %) with ~83.5 % real-time; datagram drop rate small (~0.1 %).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core.bounds import parekh_gallager_paper_bound
from repro.experiments.result import ExperimentResult
from repro.scenario import (
    registry,
    DisciplineSpec,
    FlowSpec,
    GuaranteedRequest,
    PredictedRequest,
    ScenarioBuilder,
    ScenarioRunner,
    ScenarioSpec,
    paper,
)

PEAK_CLOCK_BPS = 2 * paper.AVERAGE_RATE_PPS * paper.PACKET_BITS  # 170 kbit/s
AVG_CLOCK_BPS = paper.AVERAGE_RATE_PPS * paper.PACKET_BITS  # 85 kbit/s
# Per-switch predicted class bounds D_i ("widely spaced"); D_0 is sized so
# the paper's declared bucket (50 packets) passes criterion (2) on a link
# already carrying the full guaranteed reservation: b < D_0 * (mu - 425k - r).
CLASS_BOUNDS_SECONDS = (0.15, 1.5)

PAPER_VALUES = {
    ("Peak", 4): {"mean": 8.07, "p999": 14.41, "max": 15.99, "pg": 23.53},
    ("Peak", 2): {"mean": 2.91, "p999": 8.12, "max": 8.79, "pg": 11.76},
    ("Average", 3): {"mean": 56.44, "p999": 270.13, "max": 296.23, "pg": 611.76},
    ("Average", 1): {"mean": 36.27, "p999": 206.75, "max": 247.24, "pg": 588.24},
    ("High", 4): {"mean": 3.06, "p999": 8.20, "max": 11.13},
    ("High", 2): {"mean": 1.60, "p999": 5.83, "max": 7.48},
    ("Low", 3): {"mean": 19.22, "p999": 104.83, "max": 148.7},
    ("Low", 1): {"mean": 7.43, "p999": 79.57, "max": 108.56},
}
#: The paper's run-level figures: every forward link above this
#: utilization, and about this datagram drop rate.
PAPER_MIN_UTILIZATION = 0.99
PAPER_DATAGRAM_DROP_RATE = 0.001
COLUMNS = (
    ("type", "{0.flow_type}".format),
    ("path", "{0.hops}".format),
    ("mean", "{0.mean:.2f}".format),
    ("99.9 %ile", "{0.p999:.2f}".format),
    ("max", "{0.max:.2f}".format),
    ("P-G bound", lambda row: "-" if row.pg_bound is None else f"{row.pg_bound:.2f}"),
)

# Guaranteed first (reservations make later admission checks conservative),
# then predicted — the order the legacy implementation established in.
ESTABLISH_ORDER = (
    paper.GUARANTEED_PEAK_FLOWS
    + paper.GUARANTEED_AVERAGE_FLOWS
    + paper.PREDICTED_HIGH_FLOWS
    + paper.PREDICTED_LOW_FLOWS
)
FORWARD_LINKS = tuple(f"S-{i}->S-{i + 1}" for i in range(1, 5))


@dataclasses.dataclass(frozen=True)
class Table3Row:
    flow_type: str  # Peak / Average / High / Low
    flow: str
    hops: int
    mean: float
    p999: float
    max: float
    pg_bound: Optional[float]  # guaranteed flows only


def _request_for(name: str, hops: int):
    """The Table-3 service request of one Figure-1 flow."""
    if name in paper.GUARANTEED_PEAK_FLOWS:
        return GuaranteedRequest(clock_rate_bps=PEAK_CLOCK_BPS)
    if name in paper.GUARANTEED_AVERAGE_FLOWS:
        return GuaranteedRequest(clock_rate_bps=AVG_CLOCK_BPS)
    per_switch = (
        CLASS_BOUNDS_SECONDS[0]
        if name in paper.PREDICTED_HIGH_FLOWS
        else CLASS_BOUNDS_SECONDS[1]
    )
    return PredictedRequest(
        token_rate_bps=paper.AVERAGE_RATE_PPS * paper.PACKET_BITS,
        bucket_depth_bits=paper.BUCKET_PACKETS * paper.PACKET_BITS,
        target_delay_seconds=per_switch * hops,
        target_loss_rate=0.01,
    )


def _pg_bound(name: str, hops: int) -> Optional[float]:
    """A guaranteed flow's P-G delay bound (transmission times)."""
    if name in paper.GUARANTEED_PEAK_FLOWS:
        bucket_bits, clock_bps = paper.PACKET_BITS, PEAK_CLOCK_BPS
    elif name in paper.GUARANTEED_AVERAGE_FLOWS:
        bucket_bits, clock_bps = paper.BUCKET_PACKETS * paper.PACKET_BITS, AVG_CLOCK_BPS
    else:
        return None
    return (
        parekh_gallager_paper_bound(bucket_bits, clock_bps, paper.PACKET_BITS, hops)
        / paper.TX_TIME_SECONDS
    )


def scenario_spec(
    duration: float = paper.PAPER_DURATION_SECONDS,
    seed: int = 1,
    warmup: float = paper.DEFAULT_WARMUP_SECONDS,
) -> ScenarioSpec:
    """Table 3 end to end — commitments, TCP load, accounting — as a spec."""
    builder = (
        ScenarioBuilder("table3")
        # Duplex chain: TCP needs a reverse path for ACKs.
        .paper_chain(duplex=True)
        .discipline(
            DisciplineSpec.unified(
                name="CSZ", num_predicted_classes=len(CLASS_BOUNDS_SECONDS)
            )
        )
        .admission(realtime_quota=0.9, class_bounds_seconds=CLASS_BOUNDS_SECONDS)
        .establish_order(*ESTABLISH_ORDER)
        .tcp("tcp-1", "Host-1", "Host-3", max_cwnd=64.0)
        .tcp("tcp-2", "Host-3", "Host-5", max_cwnd=64.0)
        .link_accounting()
        .duration(duration)
        .seed(seed)
        .warmup(warmup)
    )
    for placement in paper.figure1_flow_placements():
        builder.flow(
            FlowSpec(
                name=placement.name,
                source_host=placement.source_host,
                dest_host=placement.dest_host,
                request=_request_for(placement.name, placement.hops),
                hops=placement.hops,
            )
        )
    return builder.build()


def run(
    duration: float = paper.PAPER_DURATION_SECONDS,
    seed: int = 1,
    warmup: float = paper.DEFAULT_WARMUP_SECONDS,
) -> ExperimentResult:
    """Reproduce Table 3 end to end (signaling included)."""
    result = ScenarioRunner(scenario_spec(duration, seed, warmup)).run()
    run_result = result.runs[0]
    unit = paper.TX_TIME_SECONDS
    placements = paper.figure1_flow_placements()
    bounds = {p.name: _pg_bound(p.name, p.hops) for p in placements}
    pg_by_flow = {name: b for name, b in bounds.items() if b is not None}
    rows = tuple(
        Table3Row(
            flow_type=flow_type,
            flow=flow,
            hops=hops,
            mean=run_result.flow(flow).mean_in(unit),
            p999=run_result.flow(flow).percentile_in(99.9, unit),
            max=run_result.flow(flow).max_in(unit),
            pg_bound=pg_by_flow.get(flow),
        )
        for flow_type, flow, hops in paper.TABLE3_SAMPLES
    )
    realtime = dict(run_result.realtime_fraction)
    utilizations = {name: run_result.utilization(name) for name in FORWARD_LINKS}
    sent, dropped = run_result.datagram_sent, run_result.datagram_dropped
    drop_rate = dropped / sent if sent else 0.0
    util = ", ".join(
        f"{name.split('->')[0]}>{u:.1%}" for name, u in sorted(utilizations.items())
    )
    return ExperimentResult(
        rows=rows,
        key=("flow_type", "hops"),
        columns=COLUMNS,
        summary={
            "all_max_by_flow": {
                p.name: run_result.flow(p.name).max_in(unit)
                for p in placements
                if run_result.flow(p.name).recorded
            },
            "pg_bound_by_flow": pg_by_flow,
            "link_utilizations": utilizations,
            "realtime_fraction": {name: realtime[name] for name in FORWARD_LINKS},
            "datagram_sent": sent,
            "datagram_dropped": dropped,
            "datagram_drop_rate": drop_rate,
            "tcp_goodput_bps": {t.name: t.goodput_bps for t in run_result.tcp_stats},
            "duration": duration,
            "seed": seed,
        },
        head=(
            "Table 3 — unified scheduling algorithm "
            "(delays in packet transmission times)",
        ),
        foot=(
            f"forward-link utilization: {util}  "
            f"(paper: >{PAPER_MIN_UTILIZATION:.0%} each)",
            f"datagram drop rate: {drop_rate:.2%}  "
            f"(paper: ~{PAPER_DATAGRAM_DROP_RATE:.1%})",
            f"duration: {duration:.0f}s  seed: {seed}",
        ),
        scenario=result,
    )


registry.register("table3", scenario_spec)
