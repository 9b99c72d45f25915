"""Build and run scenarios; return structured, serializable results.

:class:`ScenarioRunner` turns a :class:`ScenarioSpec` into live simulations
— one per discipline — and collects a :class:`ScenarioResult`.  Two
properties are guaranteed by construction:

* **Paired arrivals.**  Every source draws from a random stream keyed only
  by its flow name (``source:<name>``), so all disciplines of one spec see
  the identical packet arrival process — the paper's A/B methodology.
* **Determinism.**  Components are constructed in spec order, admission
  requests are processed in :meth:`ScenarioSpec.establishment_order`
  (the order the fluid engine admits in too), and neither signaling nor
  measurement schedules events, so results are bit-identical across
  repeated runs and across serial vs multiprocess execution.

:meth:`ScenarioRunner.build` exposes the live :class:`ScenarioContext` for
scenarios that need mid-run orchestration (the dynamics experiment admits
and tears down flows at phase boundaries) or custom receivers (playback
applications instead of delay sinks).
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.admission import AdmissionConfig, AdmissionController
from repro.core.measurement import MeasurementConfig, SwitchMeasurement
from repro.core.signaling import FlowGrant, SignalingAgent, install_clock_rate
from repro.net.packet import ServiceClass
from repro.net.routing import RoutingError
from repro.scenario.disciplines import build_scheduler, resolve_port_discipline
from repro.scenario.spec import (
    DisciplineSpec,
    FlowSpec,
    GuaranteedRequest,
    PredictedRequest,
    ScenarioSpec,
)
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.onoff import OnOffMarkovSource, OnOffParams
from repro.traffic.sink import DelayRecordingSink
from repro.traffic.token_bucket import TokenBucketFilter
from repro.transport.tcp import TcpConfig, TcpConnection

SOURCE_STREAM_PREFIX = "source:"

#: Named random stream feeding the sampled outage process.  Keyed by a
#: fixed name (not per-discipline state), so paired discipline runs see
#: the identical outage schedule — and adding it perturbs no source
#: stream.
OUTAGE_STREAM_NAME = "outage:process"


# ----------------------------------------------------------------------
# Structured results
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FlowStats:
    """Queueing-delay statistics of one recorded flow (seconds).

    ``percentiles`` holds the spec's requested points.  ``generated`` /
    ``emitted`` / ``filtered`` describe the source side (the arrival
    process — identical across disciplines of one spec); ``received`` /
    ``recorded`` the sink side (``recorded`` excludes warm-up samples).
    ``jitter_seconds`` is the path-level delay spread (max minus min
    recorded queueing delay) — the quantity FIFO+ exists to shrink.
    """

    name: str
    generated: int
    emitted: int
    filtered: int
    received: int
    recorded: int
    mean_seconds: float
    max_seconds: float
    jitter_seconds: float
    percentiles: Tuple[Tuple[float, float], ...]  # (pct, delay seconds)

    # -- unit conversion (the paper reports packet transmission times) --
    def mean_in(self, unit_seconds: float) -> float:
        return self.mean_seconds / unit_seconds

    def max_in(self, unit_seconds: float) -> float:
        return self.max_seconds / unit_seconds

    def percentile_in(self, pct: float, unit_seconds: float = 1.0) -> float:
        for point, value in self.percentiles:
            if point == pct:
                return value / unit_seconds
        raise KeyError(f"percentile {pct} was not collected")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "generated": self.generated,
            "emitted": self.emitted,
            "filtered": self.filtered,
            "received": self.received,
            "recorded": self.recorded,
            "mean_seconds": self.mean_seconds,
            "max_seconds": self.max_seconds,
            "jitter_seconds": self.jitter_seconds,
            "percentiles": {str(pct): value for pct, value in self.percentiles},
        }


@dataclasses.dataclass(frozen=True)
class TcpStats:
    name: str
    segments_sent: int
    acks_sent: int
    goodput_bps: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "segments_sent": self.segments_sent,
            "acks_sent": self.acks_sent,
            "goodput_bps": self.goodput_bps,
        }


@dataclasses.dataclass(frozen=True)
class DisciplineRunResult:
    """Everything measured in one discipline's simulation.

    ``link_queueing`` is the mean per-hop wait at each link's output port
    (seconds) — the per-link view of where delay accumulates on multi-hop
    paths.  ``port_disciplines`` records the scheduler each port actually
    got after per-port overrides resolved.  ``invariants`` holds the
    :mod:`repro.validate` check results for validated runs
    (``spec.validate``) and is ``None`` otherwise.  ``control`` likewise
    carries a :class:`repro.control.ControlPlaneStats` summary —
    outages processed, SPF recomputes, per-flow reroutes/re-admissions,
    and the failure-drop ledgers — only when the spec declared outages.
    """

    discipline: str
    flows: Tuple[FlowStats, ...]
    link_utilizations: Tuple[Tuple[str, float], ...]
    link_queueing: Tuple[Tuple[str, float], ...]
    link_drops: Tuple[Tuple[str, int], ...]
    port_disciplines: Tuple[Tuple[str, str], ...]
    realtime_fraction: Tuple[Tuple[str, float], ...]  # link accounting only
    datagram_dropped: int
    tcp_stats: Tuple[TcpStats, ...]
    events_processed: int
    wall_seconds: float
    worker_pid: int
    invariants: Optional[Tuple[Any, ...]] = None  # InvariantCheck tuple
    control: Optional[Any] = None  # ControlPlaneStats for outage runs

    @property
    def total_drops(self) -> int:
        return sum(count for _, count in self.link_drops)

    @property
    def datagram_sent(self) -> int:
        """Datagram packets injected (TCP segments + ACKs)."""
        return sum(t.segments_sent + t.acks_sent for t in self.tcp_stats)

    @property
    def events_per_second(self) -> float:
        return self.events_processed / self.wall_seconds if self.wall_seconds else 0.0

    def flow(self, name: str) -> FlowStats:
        for stats in self.flows:
            if stats.name == name:
                return stats
        raise KeyError(name)

    def utilization(self, link_name: str) -> float:
        for name, value in self.link_utilizations:
            if name == link_name:
                return value
        raise KeyError(link_name)

    def queueing(self, link_name: str) -> float:
        """Mean per-hop queueing delay at one link (seconds)."""
        for name, value in self.link_queueing:
            if name == link_name:
                return value
        raise KeyError(link_name)

    def port_discipline(self, link_name: str) -> str:
        """Name of the discipline that scheduled one port."""
        for name, value in self.port_disciplines:
            if name == link_name:
                return value
        raise KeyError(link_name)

    def tcp(self, name: str) -> TcpStats:
        for stats in self.tcp_stats:
            if stats.name == name:
                return stats
        raise KeyError(name)

    @property
    def invariants_clean(self) -> bool:
        """All invariant checks passed.  Raises if the run was not
        validated (``spec.validate`` off)."""
        if self.invariants is None:
            raise ValueError(
                f"run {self.discipline!r} was not validated; set "
                "ScenarioSpec(validate=True)"
            )
        return all(check.ok for check in self.invariants)

    def invariant(self, name: str):
        """One named :class:`~repro.validate.InvariantCheck` of this run."""
        for check in self.invariants or ():
            if check.name == name:
                return check
        raise KeyError(name)

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "discipline": self.discipline,
            "flows": {stats.name: stats.to_dict() for stats in self.flows},
            "link_utilizations": dict(self.link_utilizations),
            "link_queueing": dict(self.link_queueing),
            "link_drops": dict(self.link_drops),
            "port_disciplines": dict(self.port_disciplines),
            "realtime_fraction": dict(self.realtime_fraction),
            "datagram_dropped": self.datagram_dropped,
            "datagram_sent": self.datagram_sent,
            "tcp": {stats.name: stats.to_dict() for stats in self.tcp_stats},
            "events_processed": self.events_processed,
            "runtime": {
                "wall_seconds": self.wall_seconds,
                "events_per_second": self.events_per_second,
                "worker_pid": self.worker_pid,
            },
        }
        if self.invariants is not None:
            # Only validated runs carry the key, so unvalidated payloads
            # (and the goldens pinning them) are byte-identical to before.
            data["invariants"] = [check.to_dict() for check in self.invariants]
        if self.control is not None:
            # Same only-when-present rule: outage-free payloads carry no
            # control-plane key.
            data["control"] = self.control.to_dict()
        return data

    def comparable_dict(self) -> Dict[str, Any]:
        """The deterministic payload (runtime/PID stripped) — equal across
        serial and parallel execution of the same spec."""
        data = self.to_dict()
        del data["runtime"]
        return data


def link_accounting(
    spec: ScenarioSpec,
    links: Iterable[Tuple[str, float, float]],
    datagram_drops: Iterable[float],
) -> Tuple[Tuple[Tuple[str, float], ...], int]:
    """``(realtime_fraction, datagram_dropped)`` of one run, either engine.

    ``links`` yields ``(name, realtime bits, total bits)`` per link and
    ``datagram_drops`` the dropped datagram packets to total.  Both are
    read only under ``spec.link_accounting``; otherwise the result
    carries ``((), 0)``.  A link that served nothing has a real-time
    share of 0.0.
    """
    if not spec.link_accounting:
        return (), 0
    return (
        tuple(
            (name, realtime / total if total else 0.0)
            for name, realtime, total in links
        ),
        int(round(sum(datagram_drops))),
    )


@dataclasses.dataclass(frozen=True)
class ScenarioResult:
    """All disciplines of one scenario, plus run metadata."""

    scenario: str
    seed: int
    duration: float
    warmup: float
    runs: Tuple[DisciplineRunResult, ...]

    def run(self, discipline: str) -> DisciplineRunResult:
        for run in self.runs:
            if run.discipline == discipline:
                return run
        raise KeyError(discipline)

    @property
    def disciplines(self) -> Tuple[str, ...]:
        return tuple(run.discipline for run in self.runs)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "duration": self.duration,
            "warmup": self.warmup,
            "runs": [run.to_dict() for run in self.runs],
        }

    def comparable_dict(self) -> Dict[str, Any]:
        data = self.to_dict()
        data["runs"] = [run.comparable_dict() for run in self.runs]
        return data


# ----------------------------------------------------------------------
# Live context
# ----------------------------------------------------------------------

# A sink factory receives (context, flow_spec) after the flow's source has
# been created and returns a receiver object (or None for a no-op handler).
SinkFactory = Callable[["ScenarioContext", FlowSpec], Any]


class ScenarioContext:
    """One discipline's live simulation, built from a spec.

    Exposes every constructed component (``sim``, ``net``, ``sources``,
    ``sinks``, ``signaling``, ``grants``) so orchestrated scenarios can
    admit flows mid-run (:meth:`add_flow`), install custom receivers, or
    inspect schedulers directly.

    ``batching=False`` builds every port on the per-packet link path
    (results are identical; the bit-identity harness runs both).
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        discipline: DisciplineSpec,
        batching: bool = True,
    ):
        self.spec = spec
        self.discipline = discipline
        self.sim = Simulator()
        self.streams = RandomStreams(seed=spec.seed)
        self.port_disciplines: Dict[str, str] = {}

        def factory(port_name, link):
            # Record what this port will run; build_scheduler performs the
            # same resolution itself (single authoritative resolver).
            self.port_disciplines[port_name] = resolve_port_discipline(
                discipline, port_name
            ).name
            return build_scheduler(discipline, self.sim, port_name, link)

        self.net = spec.topology.build(self.sim, factory, batching)
        # Surface unroutable flows now, with the flow named, instead of a
        # bare RoutingError in the middle of the event loop.
        for flow in spec.flows:
            self._check_route(flow.name, flow.source_host, flow.dest_host)
        for tcp in spec.tcps:
            self._check_route(tcp.name, tcp.source_host, tcp.dest_host)
            self._check_route(tcp.name, tcp.dest_host, tcp.source_host)

        # The invariant audit taps the port listener seam; attached before
        # any traffic component exists so it observes every packet.  It
        # neither schedules events nor consumes random draws — audited
        # runs are bit-identical to unaudited ones.
        self.audit = None
        if spec.validate:
            from repro.validate.audit import SimulationAudit

            self.audit = SimulationAudit(self.sim, self.net)

        self.admission: Optional[AdmissionController] = None
        self.signaling: Optional[SignalingAgent] = None
        if spec.admission is not None:
            self.admission = AdmissionController(
                AdmissionConfig(
                    realtime_quota=spec.admission.realtime_quota,
                    class_bounds_seconds=spec.admission.class_bounds_seconds,
                )
            )
            measurement_config = MeasurementConfig(
                utilization_safety=spec.admission.utilization_safety,
                delay_safety=spec.admission.delay_safety,
            )
            for link_name, port in self.net.ports.items():
                self.admission.attach_measurement(
                    link_name, SwitchMeasurement(port, measurement_config)
                )
            self.signaling = SignalingAgent(self.net, self.admission)

        self.grants: Dict[str, FlowGrant] = {}
        self.sources: Dict[str, OnOffMarkovSource] = {}
        self.sinks: Dict[str, DelayRecordingSink] = {}
        self.receivers: Dict[str, Any] = {}
        self.tcps: Dict[str, TcpConnection] = {}

        # The control plane exists only when the spec declares outages:
        # otherwise no controller is constructed, no events are scheduled,
        # and no random draws are consumed, so outage-free runs stay
        # bit-identical to pre-control-plane ones.
        self.controller = None
        if spec.outages is not None:
            from repro.control import (
                LinkStateController,
                arm_outages,
                compute_outage_schedule,
            )

            self.controller = LinkStateController(
                self.net,
                signaling=self.signaling,
                on_rerouted=self._on_flow_rerouted,
                on_torn_down=self._on_flow_torn_down,
            )
            outage_rng = (
                self.streams.stream(OUTAGE_STREAM_NAME)
                if spec.outages.rate_per_second > 0
                else None
            )
            schedule = compute_outage_schedule(
                spec.outages, self.net.links, outage_rng, spec.duration
            )
            arm_outages(self.sim, self.controller, schedule.firings)

        # Requests visit admission before any traffic exists, in the
        # spec's establishment order (Table 3 lists its guaranteed flows
        # first).  Establishment schedules no events and consumes no
        # random draws, so batching it ahead of source creation is
        # observationally identical to interleaving them.
        for index in spec.establishment_order():
            self.establish(spec.flows[index])
        for flow in spec.flows:
            self.add_flow(flow, establish=False)
        for tcp in spec.tcps:
            self.tcps[tcp.name] = TcpConnection(
                self.sim,
                self.net.hosts[tcp.source_host],
                self.net.hosts[tcp.dest_host],
                tcp.name,
                TcpConfig(max_cwnd=tcp.max_cwnd),
            )

        self._wall_seconds: Optional[float] = None

    # ------------------------------------------------------------------
    def _on_flow_rerouted(self, name: str, grant: FlowGrant) -> None:
        """Controller callback: a flow was re-admitted on a new path."""
        self.grants[name] = grant

    def _on_flow_torn_down(self, name: str) -> None:
        """Controller callback: re-establishment was refused — stop the
        source so the teardown is an *accounted* one (everything already
        sent stays ledgered; nothing new enters).  The sink stays
        registered so in-flight stragglers are still counted."""
        source = self.sources.get(name)
        if source is not None:
            source.stop()
        self.grants.pop(name, None)

    # ------------------------------------------------------------------
    def _check_route(self, name: str, src: str, dst: str) -> None:
        try:
            self.net.path(src, dst)
        except RoutingError as exc:
            raise RoutingError(f"flow {name!r}: {exc}") from None

    # ------------------------------------------------------------------
    def establish(self, flow: FlowSpec) -> Optional[FlowGrant]:
        """Run the flow's service request through admission/signaling,
        which takes the flow spec as it is.

        Without an admission-controlled scenario, a guaranteed request is
        honoured by installing its clock rate directly at every hop.
        """
        if flow.request is None:
            return None
        if self.signaling is not None:
            grant = self.signaling.establish(flow)
            self.grants[flow.name] = grant
            return grant
        if isinstance(flow.request, GuaranteedRequest):
            # Same installer the signaling path uses, so rate-capable
            # schedulers (unified, WFQ, virtual clock) are recognized
            # consistently and anything else is rejected.
            for link in self.net.links_on_path(flow.source_host, flow.dest_host):
                install_clock_rate(
                    self.net.port_for_link(link.name),
                    flow.name,
                    flow.request.clock_rate_bps,
                )
        return None

    def _resolve_service(self, flow: FlowSpec) -> Tuple[ServiceClass, int]:
        """Service class and predicted priority the source should stamp."""
        grant = self.grants.get(flow.name)
        if grant is not None:
            return grant.service_class, grant.priority_class or 0
        if isinstance(flow.request, GuaranteedRequest):
            return ServiceClass.GUARANTEED, 0
        if isinstance(flow.request, PredictedRequest):
            return ServiceClass.PREDICTED, flow.priority_class
        return flow.service_class, flow.priority_class

    def add_flow(
        self,
        flow: FlowSpec,
        sink_factory: Optional[SinkFactory] = None,
        establish: bool = True,
    ) -> OnOffMarkovSource:
        """Create a flow's source (and receiver) — at build time or mid-run.

        Mid-run admission (the dynamics experiment's load waves) passes
        ``establish=True`` so the request visits admission control first.
        """
        if flow.name in self.sources:
            raise ValueError(f"flow {flow.name} already exists")
        self._check_route(flow.name, flow.source_host, flow.dest_host)
        if establish and flow.request is not None:
            self.establish(flow)
        service_class, priority_class = self._resolve_service(flow)
        bucket = None
        if flow.bucket_packets is not None:
            bucket = TokenBucketFilter(
                rate_bps=flow.average_rate_pps * flow.packet_size_bits,
                depth_bits=flow.bucket_packets * flow.packet_size_bits,
            )
        try:
            params = OnOffParams(
                average_rate_pps=flow.average_rate_pps,
                mean_burst_packets=flow.mean_burst_packets,
                peak_rate_pps=flow.peak_rate_pps,
            )
        except ValueError as exc:
            raise ValueError(f"flow {flow.name!r}: {exc}") from None
        source = OnOffMarkovSource(
            self.sim,
            self.net.hosts[flow.source_host],
            flow.name,
            flow.dest_host,
            params,
            self.streams.stream(f"{SOURCE_STREAM_PREFIX}{flow.name}"),
            packet_size_bits=flow.packet_size_bits,
            service_class=service_class,
            priority_class=priority_class,
            source_filter=bucket,
        )
        self.sources[flow.name] = source
        if self.controller is not None:
            self.controller.track_flow(flow)
        if sink_factory is not None:
            receiver = sink_factory(self, flow)
            if receiver is None:
                self._register_noop(flow)
            else:
                self.receivers[flow.name] = receiver
        elif flow.record:
            self.sinks[flow.name] = DelayRecordingSink(
                self.sim,
                self.net.hosts[flow.dest_host],
                flow.name,
                warmup=self.spec.warmup,
            )
        else:
            self._register_noop(flow)
        return source

    def _register_noop(self, flow: FlowSpec) -> None:
        # Under an audit, even unrecorded (background) flows count their
        # deliveries so per-flow conservation closes network-wide.
        handler = (
            self.audit.delivery_counter(flow.name)
            if self.audit is not None
            else lambda packet: None
        )
        self.net.hosts[flow.dest_host].register_flow_handler(
            flow.name, handler
        )

    def remove_flow(self, name: str) -> None:
        """Stop a flow's source, release its commitments, and free its name.

        The flow's sink/receiver is detached too (late packets fall back
        to the host's default handler), so the name can be re-added by a
        later load wave.  Snapshot the sink first if its statistics are
        still needed.
        """
        source = self.sources.pop(name, None)
        if source is not None:
            source.stop()
            self.net.hosts[source.destination].unregister_flow_handler(name)
        self.sinks.pop(name, None)
        self.receivers.pop(name, None)
        if self.controller is not None:
            self.controller.untrack_flow(name)
        if self.signaling is not None and name in self.grants:
            self.signaling.teardown(name)
            del self.grants[name]

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> "ScenarioContext":
        """Advance the simulation (to the spec's duration by default)."""
        started = time.perf_counter()
        self.sim.run(until=self.spec.duration if until is None else until)
        elapsed = time.perf_counter() - started
        self._wall_seconds = (self._wall_seconds or 0.0) + elapsed
        return self

    def collect(self) -> DisciplineRunResult:
        """Snapshot this simulation into a serializable result."""
        flow_stats = []
        for flow in self.spec.flows:
            sink = self.sinks.get(flow.name)
            if sink is None:
                continue
            flow_stats.append(self._flow_stats(flow.name, sink))
        in_spec = {stats.name for stats in flow_stats}
        for name, sink in self.sinks.items():
            if name not in in_spec:
                flow_stats.append(self._flow_stats(name, sink))
        invariants = None
        if self.audit is not None:
            from repro.validate.invariants import check_invariants

            invariants = check_invariants(self)
        ports = self.net.ports
        realtime_fraction, datagram_dropped = link_accounting(
            self.spec,
            (
                (name, port.realtime_bits_out, port.bits_out)
                for name, port in ports.items()
            ),
            (port.datagram_dropped for port in ports.values()),
        )
        return DisciplineRunResult(
            discipline=self.discipline.name,
            flows=tuple(flow_stats),
            link_utilizations=tuple(
                (name, link.utilization()) for name, link in self.net.links.items()
            ),
            link_queueing=tuple(
                (name, port.mean_queueing_delay)
                for name, port in self.net.ports.items()
            ),
            link_drops=tuple(
                (name, port.packets_dropped)
                for name, port in self.net.ports.items()
            ),
            port_disciplines=tuple(sorted(self.port_disciplines.items())),
            realtime_fraction=realtime_fraction,
            datagram_dropped=datagram_dropped,
            tcp_stats=tuple(
                TcpStats(
                    name=name,
                    segments_sent=tcp.segments_sent,
                    acks_sent=tcp.acks_sent,
                    # sim.now, not spec.duration: partial runs via
                    # run(until=...) must not dilute the denominator.
                    goodput_bps=tcp.goodput_bps(self.sim.now),
                )
                for name, tcp in self.tcps.items()
            ),
            events_processed=self.sim.events_processed,
            wall_seconds=self._wall_seconds or 0.0,
            worker_pid=os.getpid(),
            invariants=invariants,
            control=(
                self.controller.summary()
                if self.controller is not None
                else None
            ),
        )

    def _flow_stats(self, name: str, sink: DelayRecordingSink) -> FlowStats:
        source = self.sources.get(name)
        recorded = sink.recorded
        return FlowStats(
            name=name,
            generated=source.generated if source else 0,
            emitted=source.sent if source else 0,
            filtered=source.filtered if source else 0,
            received=sink.received,
            recorded=recorded,
            mean_seconds=sink.queueing.mean if recorded else 0.0,
            max_seconds=sink.queueing.max if recorded else 0.0,
            jitter_seconds=(
                sink.queueing.max - sink.queueing.min if recorded else 0.0
            ),
            percentiles=tuple(
                (pct, sink.queueing_pct.percentile(pct) if recorded else 0.0)
                for pct in self.spec.percentile_points
            ),
        )


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------


def _run_one_discipline(spec: ScenarioSpec) -> DisciplineRunResult:
    """Worker entry point: run a single-discipline spec to completion.

    Dispatches on ``spec.engine``: the packet simulator, or the
    flow-level fluid model (imported only then, so a packet run never
    loads it or NumPy); both emit the same result shape.
    """
    if spec.engine == "fluid":
        from repro.fluid.model import FluidSimulation

        return FluidSimulation(spec, spec.disciplines[0]).run().collect()
    context = ScenarioContext(spec, spec.disciplines[0])
    context.run()
    return context.collect()


class ScenarioRunner:
    """Runs every discipline of a spec and assembles the result."""

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec

    def build(
        self,
        discipline: Union[str, DisciplineSpec, None] = None,
        batching: bool = True,
    ) -> ScenarioContext:
        """Build (without running) one discipline's live simulation."""
        return ScenarioContext(
            self.spec, self._resolve(discipline), batching=batching
        )

    def run_discipline(
        self, discipline: Union[str, DisciplineSpec, None] = None
    ) -> DisciplineRunResult:
        resolved = self._resolve(discipline)
        sub = self.spec.replace(disciplines=(resolved,))
        return _run_one_discipline(sub)

    def run(self, workers: Optional[int] = None) -> ScenarioResult:
        """Run all disciplines (paired arrivals), serially or in parallel.

        ``workers > 1`` distributes the per-discipline simulations over a
        process pool (via the :mod:`repro.scenario.executor` engine: each
        discipline is one flattened task); results are bit-identical to
        the serial path because every simulation is self-contained and
        deterministic.  A discipline whose worker process died raises
        :class:`~repro.scenario.executor.IncompleteSweepError`.
        """
        # Imported here: the executor builds on this module.
        from repro.scenario.executor import SweepExecutor

        with SweepExecutor(workers=workers) as executor:
            outcome = executor.run_sweep(self.spec)
        return outcome.require_complete()[0]

    def _resolve(
        self, discipline: Union[str, DisciplineSpec, None]
    ) -> DisciplineSpec:
        if discipline is None:
            return self.spec.disciplines[0]
        if isinstance(discipline, DisciplineSpec):
            return discipline
        return self.spec.discipline(discipline)
