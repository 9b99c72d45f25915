"""Failover flagship: predicted service vs FIFO through a link failure.

The paper's admission-controlled services assume routes are stable for a
flow's lifetime; real internets break that assumption.  This experiment
runs the :mod:`repro.control` plane end to end on the smallest topology
where failure has a story — a diamond::

          S-B
         /    \\
    S-A        S-C
         \\    /
          S-D

Traffic from ``h-src`` (at S-A) to ``h-dst`` (at S-C) takes the primary
path via S-B (the SPF tie-break prefers it by name).  One third of the
way through the measured window the S-A->S-B link fails: packets in
flight on the wire die (ledgered as failure drops), the queue behind the
dead link is flushed, the controller reconverges onto S-D, and every
admitted predicted flow is re-established through admission control on
the backup path.  Two thirds in, the link heals and everything migrates
back.

Each recorded predicted flow's queueing delay is bucketed into the three
route phases (pre-failure / failed-over / restored), under FIFO and
under the unified CSZ scheduler, with the run's conservation and
route-liveness invariants checked.  Expected shape: both disciplines
lose the same few packets to the wire and deliver the rest; CSZ keeps
the predicted flows' jitter below FIFO's in every phase, and the
failover itself costs a bounded transient, not a meltdown.
"""

from __future__ import annotations

import dataclasses
from itertools import compress
from typing import Dict, List, Optional, Tuple

from repro.experiments import common
from repro.stats import SummaryStats
from repro.scenario import (
    DisciplineSpec,
    FlowSpec,
    OutageEvent,
    OutageSpec,
    PredictedRequest,
    ScenarioBuilder,
    ScenarioResult,
    ScenarioRunner,
    ScenarioSpec,
    TopologySpec,
    registry,
)

PREDICTED_FLOWS = ("pred-0", "pred-1")
BACKGROUND_FLOWS = 5
CLASS_BOUNDS = (0.15, 1.5)
FAILED_LINK = "S-A->S-B"
#: The fabric-scale (fluid-engine) leg's failed uplink.
FLUID_FAILED_LINK = "L-1->SP-1"
DISCIPLINE_NAMES = ("FIFO", "CSZ")
PHASES = ("pre", "failed", "restored")


def diamond_topology() -> TopologySpec:
    """The two-path diamond; primary via S-B, backup via S-D."""
    return TopologySpec.graph(
        nodes=("S-A", "S-B", "S-C", "S-D"),
        links=[
            {"src": "S-A", "dst": "S-B"},
            {"src": "S-B", "dst": "S-C"},
            {"src": "S-A", "dst": "S-D"},
            {"src": "S-D", "dst": "S-C"},
        ],
        host_attachments=(("h-src", "S-A"), ("h-dst", "S-C")),
    )


def outage_window(duration: float, warmup: float) -> Tuple[float, float]:
    """(fail time, restore time): the middle third of the measured run.

    Runs too short to fit the warmup measure from time zero instead, so
    the window stays non-degenerate at any duration.
    """
    start = warmup if warmup < duration else 0.0
    span = duration - start
    return start + span / 3.0, start + 2.0 * span / 3.0


@registry.register("failover")
def scenario_spec(
    duration: float = common.PAPER_DURATION_SECONDS,
    seed: int = 1,
    warmup: float = common.DEFAULT_WARMUP_SECONDS,
) -> ScenarioSpec:
    """The full failover experiment as one declarative spec."""
    fail_at, restore_at = outage_window(duration, warmup)
    builder = (
        ScenarioBuilder("failover")
        .topology(diamond_topology())
        .disciplines(
            DisciplineSpec.fifo(),
            DisciplineSpec.unified(
                name="CSZ", num_predicted_classes=len(CLASS_BOUNDS)
            ),
        )
        .admission(realtime_quota=0.9, class_bounds_seconds=CLASS_BOUNDS)
        .duration(duration)
        .warmup(warmup)
        .seed(seed)
        .validate(True)
    )
    for name in PREDICTED_FLOWS:
        builder.flow(
            FlowSpec(
                name=name,
                source_host="h-src",
                dest_host="h-dst",
                request=PredictedRequest(
                    token_rate_bps=common.AVERAGE_RATE_PPS * common.PACKET_BITS,
                    bucket_depth_bits=common.BUCKET_PACKETS * common.PACKET_BITS,
                    target_delay_seconds=CLASS_BOUNDS[1],
                    target_loss_rate=0.01,
                ),
            )
        )
    for i in range(BACKGROUND_FLOWS):
        builder.add_flow(f"bg-{i}", "h-src", "h-dst", record=False)
    spec = builder.build()
    return spec.replace(
        outages=OutageSpec(
            events=(
                OutageEvent(
                    link=FAILED_LINK,
                    at=fail_at,
                    duration=restore_at - fail_at,
                ),
            )
        )
    )


@registry.register("failover:fabric")
def fabric_scenario_spec(
    duration: float = 60.0,
    seed: int = 1,
    warmup: float = common.DEFAULT_WARMUP_SECONDS,
) -> ScenarioSpec:
    """The failover story at fabric scale, for the fluid engine: a
    leaf-spine under a seeded ECMP many-flow population with admission
    on, losing one spine uplink through the middle third of the run.

    Exercises the whole fluid control plane — masked-ECMP rerouting,
    re-admission of request-bearing flows, boundary flushes — on a
    population the packet engine cannot reach."""
    spec = registry.build(
        "gen:leaf-spine",
        gen_seed=seed,
        duration=duration,
        seed=seed,
        warmup=warmup,
        admission=True,
        with_requests=True,
        engine="fluid",
    )
    fail_at, restore_at = outage_window(duration, warmup)
    return spec.replace(
        name="failover-fabric",
        outages=OutageSpec(
            events=(
                OutageEvent(
                    link=FLUID_FAILED_LINK,
                    at=fail_at,
                    duration=restore_at - fail_at,
                ),
            )
        ),
    )


class _PhaseBucketedTap:
    """Wraps a flow's recording sink, splitting delays by route phase.

    Installed by swapping the host's flow handler for a wrapper that
    classifies ``sim.now`` against the outage window, records the
    packet's queueing delay into that phase's accumulator, and forwards
    to the original sink — no events, no draws, so the simulation is
    bit-identical to an untapped run.
    """

    def __init__(self, sim, sink, fail_at: float, restore_at: float,
                 warmup: float):
        self.sim = sim
        self.sink = sink
        self.fail_at = fail_at
        self.restore_at = restore_at
        self.warmup = warmup
        self.buckets: Dict[str, SummaryStats] = {
            phase: SummaryStats() for phase in PHASES
        }

    def on_packet(self, packet) -> None:
        now = self.sim.now
        if now >= self.warmup:
            if now < self.fail_at:
                phase = "pre"
            elif now < self.restore_at:
                phase = "failed"
            else:
                phase = "restored"
            self.buckets[phase].add(packet.queueing_delay)
        self.sink.on_packet(packet)


@dataclasses.dataclass
class FailoverRow:
    """One discipline's predicted-flow numbers, per route phase.

    Delays are in packet transmission times (the paper's unit); jitter
    is the max - min spread within the phase.
    """

    scheduling: str
    phase_mean: Dict[str, float]
    phase_jitter: Dict[str, float]
    phase_packets: Dict[str, int]
    delivered: int
    wire_killed: int
    flushed: int
    reroutes: int
    readmissions: int
    invariants_clean: bool


@dataclasses.dataclass
class FailoverResult:
    rows: List[FailoverRow]
    fail_at: float
    restore_at: float
    duration: float
    seed: int
    scenario: Optional[ScenarioResult] = None
    engine: str = "packet"
    failed_link: str = FAILED_LINK

    def row(self, scheduling: str) -> FailoverRow:
        for row in self.rows:
            if row.scheduling == scheduling:
                return row
        raise KeyError(scheduling)

    def render(self) -> str:
        header = ["scheduling"]
        for phase in PHASES:
            header += [f"{phase} mean", f"{phase} jitter"]
        header += ["delivered", "wire killed", "reroutes"]
        body = []
        for row in self.rows:
            line = [row.scheduling]
            for phase in PHASES:
                line += [
                    f"{row.phase_mean[phase]:.2f}",
                    f"{row.phase_jitter[phase]:.2f}",
                ]
            line += [
                str(row.delivered),
                str(row.wire_killed),
                str(row.reroutes),
            ]
            body.append(line)
        return "\n".join(
            [
                "Failover — predicted service through a link failure "
                f"({self.failed_link} down {self.fail_at:.1f}s-"
                f"{self.restore_at:.1f}s, {self.engine} engine)",
                "recorded-flow queueing delay by route phase "
                "(packet transmission times):",
                common.format_table(header, body),
                "invariants: "
                + ", ".join(
                    f"{row.scheduling}="
                    + ("clean" if row.invariants_clean else "VIOLATED")
                    for row in self.rows
                ),
                f"duration: {self.duration:.0f}s   seed: {self.seed}",
            ]
        )

    def to_dict(self) -> dict:
        return {
            "rows": [dataclasses.asdict(row) for row in self.rows],
            "fail_at": self.fail_at,
            "restore_at": self.restore_at,
            "duration": self.duration,
            "seed": self.seed,
            "engine": self.engine,
            "failed_link": self.failed_link,
        }


def _run_fluid(
    duration: float, seed: int, warmup: float
) -> FailoverResult:
    """The fabric-scale leg: both disciplines of
    :func:`fabric_scenario_spec` through the fluid engine, with the
    recorded flows' per-epoch delay samples bucketed into the three
    route phases off the epoch grid (each recorded sample is one
    epoch's weighted delay, in grid order from the warmup on)."""
    from repro.fluid.model import FluidSimulation

    spec = fabric_scenario_spec(duration=duration, seed=seed, warmup=warmup)
    fail_at, restore_at = outage_window(duration, warmup)
    unit = common.TX_TIME_SECONDS
    rows: List[FailoverRow] = []
    runs = []
    for discipline in spec.disciplines:
        sim = FluidSimulation(
            dataclasses.replace(spec, disciplines=(discipline,)), discipline
        )
        result = sim.run().collect()
        runs.append(result)
        control = result.control
        times: List[float] = []
        for e in range(sim.num_epochs):
            t0 = (
                sim.epoch_starts[e]
                if sim.epoch_starts is not None
                else e * sim.epoch_seconds
            )
            if t0 >= warmup:
                times.append(t0)
        # Pool recorded flows per phase: delivered-weighted mean delay
        # plus the min/max spread, mirroring the packet leg's taps.
        acc = {phase: [0.0, 0.0, None, None] for phase in PHASES}
        for sample_list in sim.samples.values():
            for (delay, w), t0 in zip(sample_list, times):
                if w <= 0:
                    continue
                if t0 < fail_at:
                    phase = "pre"
                elif t0 < restore_at:
                    phase = "failed"
                else:
                    phase = "restored"
                slot = acc[phase]
                slot[0] += w
                slot[1] += delay * w
                slot[2] = delay if slot[2] is None else min(slot[2], delay)
                slot[3] = delay if slot[3] is None else max(slot[3], delay)
        phase_mean = {
            phase: (slot[1] / slot[0] / unit if slot[0] else 0.0)
            for phase, slot in acc.items()
        }
        phase_jitter = {
            phase: ((slot[3] - slot[2]) / unit if slot[0] else 0.0)
            for phase, slot in acc.items()
        }
        phase_packets = {
            phase: int(round(slot[0])) for phase, slot in acc.items()
        }
        recorded = list(compress(sim.flow_names, sim.record))
        rows.append(
            FailoverRow(
                scheduling=result.discipline,
                phase_mean=phase_mean,
                phase_jitter=phase_jitter,
                phase_packets=phase_packets,
                delivered=sum(
                    result.flow(name).received for name in recorded
                ),
                wire_killed=0,  # fluid flows have no wire to die on
                flushed=control.flushed_packets,
                reroutes=sum(flow.reroutes for flow in control.flows),
                readmissions=sum(
                    flow.readmissions for flow in control.flows
                ),
                invariants_clean=all(
                    check.ok for check in result.invariants
                ),
            )
        )
    return FailoverResult(
        rows=rows,
        fail_at=fail_at,
        restore_at=restore_at,
        duration=duration,
        seed=seed,
        scenario=ScenarioResult(
            scenario=spec.name,
            seed=seed,
            duration=duration,
            warmup=warmup,
            runs=tuple(runs),
        ),
        engine="fluid",
        failed_link=FLUID_FAILED_LINK,
    )


def run(
    duration: float = common.PAPER_DURATION_SECONDS,
    seed: int = 1,
    warmup: float = common.DEFAULT_WARMUP_SECONDS,
    engine: str = "packet",
) -> FailoverResult:
    """Run both disciplines serially (paired arrivals and outages).

    ``engine="fluid"`` runs the fabric-scale leg
    (:func:`fabric_scenario_spec`) on the fluid engine instead of the
    diamond on the packet engine."""
    if engine == "fluid":
        return _run_fluid(duration, seed, warmup)
    if engine != "packet":
        raise ValueError(f"unknown failover engine {engine!r}")
    spec = scenario_spec(duration=duration, seed=seed, warmup=warmup)
    fail_at, restore_at = outage_window(duration, warmup)
    unit = common.TX_TIME_SECONDS
    rows: List[FailoverRow] = []
    runs = []
    runner = ScenarioRunner(spec)
    for discipline in DISCIPLINE_NAMES:
        context = runner.build(discipline)
        taps: Dict[str, _PhaseBucketedTap] = {}
        host = context.net.hosts["h-dst"]
        for name in PREDICTED_FLOWS:
            tap = _PhaseBucketedTap(
                context.sim, context.sinks[name], fail_at, restore_at, warmup
            )
            host.unregister_flow_handler(name)
            host.register_flow_handler(name, tap.on_packet)
            taps[name] = tap
        result = context.run().collect()
        runs.append(result)
        control = result.control
        phase_mean: Dict[str, float] = {}
        phase_jitter: Dict[str, float] = {}
        phase_packets: Dict[str, int] = {}
        # Pool the recorded flows per phase: weighted mean, and jitter as
        # the spread across both flows' extremes.
        for phase in PHASES:
            total = sum(tap.buckets[phase].count for tap in taps.values())
            mean = (
                sum(tap.buckets[phase].total for tap in taps.values()) / total
                if total
                else 0.0
            )
            lo = min(
                (
                    tap.buckets[phase].min
                    for tap in taps.values()
                    if tap.buckets[phase].count
                ),
                default=0.0,
            )
            hi = max(
                (
                    tap.buckets[phase].max
                    for tap in taps.values()
                    if tap.buckets[phase].count
                ),
                default=0.0,
            )
            phase_mean[phase] = mean / unit
            phase_jitter[phase] = (hi - lo) / unit if total else 0.0
            phase_packets[phase] = total
        rows.append(
            FailoverRow(
                scheduling=result.discipline,
                phase_mean=phase_mean,
                phase_jitter=phase_jitter,
                phase_packets=phase_packets,
                delivered=sum(
                    result.flow(name).received for name in PREDICTED_FLOWS
                ),
                wire_killed=sum(
                    count for _, count in control.wire_killed
                ),
                flushed=control.flushed_packets,
                reroutes=sum(flow.reroutes for flow in control.flows),
                readmissions=sum(
                    flow.readmissions for flow in control.flows
                ),
                invariants_clean=all(
                    check.ok for check in result.invariants
                ),
            )
        )
    return FailoverResult(
        rows=rows,
        fail_at=fail_at,
        restore_at=restore_at,
        duration=duration,
        seed=seed,
        scenario=ScenarioResult(
            scenario=spec.name,
            seed=seed,
            duration=duration,
            warmup=warmup,
            runs=tuple(runs),
        ),
    )
