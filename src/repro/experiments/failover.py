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
import math
from typing import Dict, List, Sequence, Tuple

from repro.experiments.result import ExperimentResult
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
    paper,
)

PREDICTED_FLOWS = ("pred-0", "pred-1")
BACKGROUND_FLOWS = 5
CLASS_BOUNDS = (0.15, 1.5)
FAILED_LINK = "S-A->S-B"
#: The fabric-scale (fluid-engine) leg's failed uplink.
FLUID_FAILED_LINK = "L-1->SP-1"
DISCIPLINE_NAMES = ("FIFO", "CSZ")
PHASES = ("pre", "failed", "restored")
COLUMNS = (
    ("scheduling", "{0.scheduling}".format),
    *(
        (f"{phase} {stat}", f"{{0.phase_{stat}[{phase}]:.2f}}".format)
        for phase in PHASES
        for stat in ("mean", "jitter")
    ),
    ("delivered", "{0.delivered}".format),
    ("wire killed", "{0.wire_killed}".format),
    ("reroutes", "{0.reroutes}".format),
)


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


def _failing(spec: ScenarioSpec, link: str, duration: float,
             warmup: float) -> ScenarioSpec:
    """``spec`` with ``link`` down through :func:`outage_window`."""
    fail_at, restore_at = outage_window(duration, warmup)
    outage = OutageEvent(link=link, at=fail_at, duration=restore_at - fail_at)
    return spec.replace(outages=OutageSpec(events=(outage,)))


@registry.register("failover")
def scenario_spec(
    duration: float = paper.PAPER_DURATION_SECONDS,
    seed: int = 1,
    warmup: float = paper.DEFAULT_WARMUP_SECONDS,
) -> ScenarioSpec:
    """The full failover experiment as one declarative spec."""
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
                    token_rate_bps=paper.AVERAGE_RATE_PPS * paper.PACKET_BITS,
                    bucket_depth_bits=paper.BUCKET_PACKETS * paper.PACKET_BITS,
                    target_delay_seconds=CLASS_BOUNDS[1],
                    target_loss_rate=0.01,
                ),
            )
        )
    for i in range(BACKGROUND_FLOWS):
        builder.add_flow(f"bg-{i}", "h-src", "h-dst", record=False)
    return _failing(builder.build(), FAILED_LINK, duration, warmup)


@registry.register("failover:fabric")
def fabric_scenario_spec(
    duration: float = 60.0,
    seed: int = 1,
    warmup: float = paper.DEFAULT_WARMUP_SECONDS,
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
    return _failing(spec, FLUID_FAILED_LINK, duration, warmup).replace(
        name="failover-fabric"
    )


def _phase(now: float, fail_at: float, restore_at: float) -> str:
    """The route phase ``now`` falls in."""
    if now < fail_at:
        return "pre"
    if now < restore_at:
        return "failed"
    return "restored"


class _PhasePool:
    """One route phase's delay samples: total weight, weighted delay sum
    and the extremes (seconds)."""

    __slots__ = ("weight", "total", "lo", "hi")

    def __init__(self):
        self.weight = 0
        self.total = 0.0
        self.lo = math.inf
        self.hi = -math.inf

    def add(self, delay: float, weight) -> None:
        self.weight += weight
        self.total += delay * weight
        if delay < self.lo:
            self.lo = delay
        if delay > self.hi:
            self.hi = delay


@dataclasses.dataclass(frozen=True)
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


def _row_from(run, pools: Sequence[Dict[str, _PhasePool]]) -> FailoverRow:
    """One discipline's row: each phase pools ``pools`` in order (one
    phase -> pool map per tapped flow, or one for all recorded flows)."""
    unit = paper.TX_TIME_SECONDS
    phase_mean: Dict[str, float] = {}
    phase_jitter: Dict[str, float] = {}
    phase_packets: Dict[str, int] = {}
    for phase in PHASES:
        # Empty pools hold (inf, -inf) extremes, so they never set the
        # spread of a phase that has samples.
        weight = sum(p[phase].weight for p in pools)
        phase_mean[phase] = (
            sum(p[phase].total for p in pools) / weight / unit if weight else 0.0
        )
        phase_jitter[phase] = (
            (max(p[phase].hi for p in pools) - min(p[phase].lo for p in pools))
            / unit
            if weight
            else 0.0
        )
        phase_packets[phase] = int(round(weight))
    control = run.control
    return FailoverRow(
        scheduling=run.discipline,
        phase_mean=phase_mean,
        phase_jitter=phase_jitter,
        phase_packets=phase_packets,
        delivered=sum(flow.received for flow in run.flows),
        wire_killed=sum(count for _, count in control.wire_killed),
        flushed=control.flushed_packets,
        reroutes=sum(flow.reroutes for flow in control.flows),
        readmissions=sum(flow.readmissions for flow in control.flows),
        invariants_clean=all(check.ok for check in run.invariants),
    )


def _run_packet(spec: ScenarioSpec, fail_at: float, restore_at: float,
                warmup: float) -> List[Tuple]:
    """The diamond leg: ``(run, per-flow phase pools)`` per discipline,
    the predicted flows tapped in :data:`PREDICTED_FLOWS` order.

    Each tap swaps the host's flow handler for a wrapper that files the
    packet's queueing delay under the route phase of ``sim.now`` and
    forwards to the original sink — no events, no draws, so the
    simulation is bit-identical to an untapped run.
    """
    runner = ScenarioRunner(spec)
    legs = []
    for discipline in DISCIPLINE_NAMES:
        context = runner.build(discipline)
        host = context.net.hosts["h-dst"]
        pools = []
        for name in PREDICTED_FLOWS:
            phases = {phase: _PhasePool() for phase in PHASES}

            def tap(packet, sim=context.sim, sink=context.sinks[name],
                    phases=phases) -> None:
                if sim.now >= warmup:
                    phase = _phase(sim.now, fail_at, restore_at)
                    phases[phase].add(packet.queueing_delay, 1)
                sink.on_packet(packet)

            host.unregister_flow_handler(name)
            host.register_flow_handler(name, tap)
            pools.append(phases)
        legs.append((context.run().collect(), pools))
    return legs


def _run_fluid(spec: ScenarioSpec, fail_at: float, restore_at: float,
               warmup: float) -> List[Tuple]:
    """The fabric-scale leg: ``(run, [phase pools])`` per discipline,
    the recorded flows' per-epoch delay samples pooled into the route
    phases off the epoch grid (each recorded sample is one epoch's
    weighted delay, in grid order from the warmup on)."""
    from repro.fluid.model import FluidSimulation

    legs = []
    for discipline in spec.disciplines:
        sim = FluidSimulation(
            dataclasses.replace(spec, disciplines=(discipline,)), discipline
        )
        run = sim.run().collect()
        times = [
            t0
            for t0 in (
                sim.epoch_starts[e]
                if sim.epoch_starts is not None
                else e * sim.epoch_seconds
                for e in range(sim.num_epochs)
            )
            if t0 >= warmup
        ]
        pools = {phase: _PhasePool() for phase in PHASES}
        for sample_list in sim.samples.values():
            for (delay, w), t0 in zip(sample_list, times):
                if w > 0:
                    pools[_phase(t0, fail_at, restore_at)].add(delay, w)
        legs.append((run, [pools]))
    return legs


def run(
    duration: float = paper.PAPER_DURATION_SECONDS,
    seed: int = 1,
    warmup: float = paper.DEFAULT_WARMUP_SECONDS,
    engine: str = "packet",
) -> ExperimentResult:
    """Run both disciplines serially (paired arrivals and outages).

    ``engine="fluid"`` runs the fabric-scale leg
    (:func:`fabric_scenario_spec`) on the fluid engine instead of the
    diamond on the packet engine."""
    if engine == "packet":
        spec = scenario_spec(duration=duration, seed=seed, warmup=warmup)
        run_leg, failed_link = _run_packet, FAILED_LINK
    elif engine == "fluid":
        spec = fabric_scenario_spec(duration=duration, seed=seed, warmup=warmup)
        run_leg, failed_link = _run_fluid, FLUID_FAILED_LINK
    else:
        raise ValueError(f"unknown failover engine {engine!r}")
    fail_at, restore_at = outage_window(duration, warmup)
    legs = run_leg(spec, fail_at, restore_at, warmup)
    rows = tuple(_row_from(run, pools) for run, pools in legs)
    return ExperimentResult(
        rows=rows,
        columns=COLUMNS,
        summary={
            "fail_at": fail_at,
            "restore_at": restore_at,
            "duration": duration,
            "seed": seed,
            "engine": engine,
            "failed_link": failed_link,
        },
        head=(
            "Failover — predicted service through a link failure "
            f"({failed_link} down {fail_at:.1f}s-{restore_at:.1f}s, "
            f"{engine} engine)",
            "recorded-flow queueing delay by route phase "
            "(packet transmission times):",
        ),
        foot=(
            "invariants: "
            + ", ".join(
                f"{row.scheduling}="
                + ("clean" if row.invariants_clean else "VIOLATED")
                for row in rows
            ),
            f"duration: {duration:.0f}s   seed: {seed}",
        ),
        scenario=ScenarioResult(
            scenario=spec.name,
            seed=seed,
            duration=duration,
            warmup=warmup,
            runs=tuple(run for run, _ in legs),
        ),
    )
