"""Declarative scenario specifications.

A :class:`ScenarioSpec` fully describes one experiment: topology, flows
(placement + source process + service request), scheduling disciplines to
compare, optional TCP datagram load, and admission control.  Specs are
frozen dataclasses — hashable, picklable (so sweeps can fan out across
processes), and serializable via ``to_dict``/``from_dict``.

The paired-arrival guarantee of the paper's methodology is encoded here:
every source draws from a random stream keyed *only* by its flow name, so
the same spec + seed produces the identical packet arrival process under
every discipline.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.net.network import Network
from repro.net.topology import (
    build_network,
    chain_graph,
    figure1_graph,
    parking_lot_graph,
    single_link_graph,
)
from repro.net.packet import ServiceClass
from repro.scenario import paper
from repro.sim.engine import Simulator

# Provenance tags the named constructors stamp; free-form graphs are
# "graph".  from_dict still accepts the legacy serialized forms of the
# named kinds (num_switches/rate_bps/duplex) and recompiles them.
TOPOLOGY_KINDS = (
    "graph",
    "single_link",
    "chain",
    "figure1",
    "parking_lot",
    "fat-tree",
    "leaf-spine",
)


@dataclasses.dataclass(frozen=True)
class LinkSpec:
    """One directed link of a topology graph, with its own parameters."""

    src: str
    dst: str
    rate_bps: float = paper.LINK_RATE_BPS
    buffer_packets: int = paper.BUFFER_PACKETS
    propagation_delay: float = 0.0

    def __post_init__(self):
        if self.src == self.dst:
            raise ValueError(f"link {self.src}->{self.dst} is a self-loop")
        if self.rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if self.buffer_packets <= 0:
            raise ValueError("buffer size must be positive")
        if self.propagation_delay < 0:
            raise ValueError("propagation delay cannot be negative")

    @property
    def name(self) -> str:
        return f"{self.src}->{self.dst}"

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LinkSpec":
        return cls(**data)


@dataclasses.dataclass(frozen=True)
class HostAttachment:
    """One host and the switch it hangs off (infinitely fast access link)."""

    host: str
    switch: str

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HostAttachment":
        return cls(**data)


@dataclasses.dataclass(frozen=True)
class TopologySpec:
    """A network as a declarative graph: switches, links, host attachments.

    Any directed graph is expressible; the paper's named networks are
    constructors that compile to this form (``single_link()``, ``chain()``,
    ``figure1()``) along with the ``parking_lot()`` merge network.  Build
    order is nodes, then links, then hosts — the order the golden
    equivalence tests pin.

    Attributes:
        nodes: switch names, in construction order.
        links: directed links, each with its own rate / buffer /
            propagation delay.
        host_attachments: (host, switch) pairs.
        kind: provenance tag (``graph`` for free-form topologies).
    """

    nodes: Tuple[str, ...] = ()
    links: Tuple[LinkSpec, ...] = ()
    host_attachments: Tuple[HostAttachment, ...] = ()
    kind: str = "graph"

    def __post_init__(self):
        if self.kind not in TOPOLOGY_KINDS:
            raise ValueError(
                f"unknown topology kind {self.kind!r}; expected one of "
                f"{TOPOLOGY_KINDS}"
            )
        if not self.nodes:
            raise ValueError("a topology needs at least one switch")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("switch names must be unique")
        switches = set(self.nodes)
        seen_links = set()
        for link in self.links:
            if link.src not in switches or link.dst not in switches:
                raise ValueError(
                    f"link {link.name} references an unknown switch"
                )
            if link.name in seen_links:
                raise ValueError(f"duplicate link {link.name}")
            seen_links.add(link.name)
        seen_hosts = set()
        for attachment in self.host_attachments:
            if attachment.switch not in switches:
                raise ValueError(
                    f"host {attachment.host} attaches to unknown switch "
                    f"{attachment.switch}"
                )
            if attachment.host in seen_hosts or attachment.host in switches:
                raise ValueError(f"duplicate node name {attachment.host}")
            seen_hosts.add(attachment.host)

    # -- named constructors (compile to graph form) --------------------
    @classmethod
    def single_link(
        cls,
        rate_bps: float = paper.LINK_RATE_BPS,
        buffer_packets: int = paper.BUFFER_PACKETS,
    ) -> "TopologySpec":
        return cls._from_graph(
            single_link_graph(rate_bps, buffer_packets), kind="single_link"
        )

    @classmethod
    def chain(cls, num_switches: int, **kwargs) -> "TopologySpec":
        return cls._from_graph(
            chain_graph(num_switches, **kwargs), kind="chain"
        )

    @classmethod
    def figure1(cls, **kwargs) -> "TopologySpec":
        return cls._from_graph(figure1_graph(**kwargs), kind="figure1")

    @classmethod
    def parking_lot(cls, num_hops: int = 4, **kwargs) -> "TopologySpec":
        return cls._from_graph(
            parking_lot_graph(num_hops, **kwargs), kind="parking_lot"
        )

    @classmethod
    def graph(
        cls,
        nodes: Sequence[str],
        links: Sequence[Union[LinkSpec, Mapping[str, Any]]],
        host_attachments: Sequence[
            Union[HostAttachment, Tuple[str, str], Mapping[str, Any]]
        ],
    ) -> "TopologySpec":
        """A free-form topology; links/attachments may be given as dicts."""
        return cls(
            nodes=tuple(nodes),
            links=tuple(
                link if isinstance(link, LinkSpec) else LinkSpec(**dict(link))
                for link in links
            ),
            host_attachments=tuple(
                att
                if isinstance(att, HostAttachment)
                else (
                    HostAttachment(*att)
                    if isinstance(att, (tuple, list))
                    else HostAttachment(**dict(att))
                )
                for att in host_attachments
            ),
        )

    @classmethod
    def _from_graph(cls, graph, kind: str) -> "TopologySpec":
        nodes, links, hosts = graph
        return cls(
            nodes=tuple(nodes),
            links=tuple(
                LinkSpec(
                    src=src,
                    dst=dst,
                    rate_bps=rate,
                    buffer_packets=buffer,
                    propagation_delay=delay,
                )
                for src, dst, rate, delay, buffer in links
            ),
            host_attachments=tuple(
                HostAttachment(host=host, switch=switch)
                for host, switch in hosts
            ),
            kind=kind,
        )

    # -- queries -------------------------------------------------------
    @property
    def host_names(self) -> Tuple[str, ...]:
        return tuple(att.host for att in self.host_attachments)

    @property
    def link_names(self) -> Tuple[str, ...]:
        return tuple(link.name for link in self.links)

    @property
    def num_switches(self) -> int:
        return len(self.nodes)

    def _uniform(self, attribute: str):
        values = {getattr(link, attribute) for link in self.links}
        if len(values) != 1:
            raise ValueError(
                f"topology links have heterogeneous {attribute}: "
                f"{sorted(values)}"
            )
        return values.pop()

    @property
    def rate_bps(self) -> float:
        """The uniform link rate; raises on heterogeneous-rate graphs."""
        return self._uniform("rate_bps")

    @property
    def buffer_packets(self) -> int:
        """The uniform buffer size; raises on heterogeneous graphs."""
        return self._uniform("buffer_packets")

    # -- realization ---------------------------------------------------
    def build(
        self, sim: Simulator, scheduler_factory, batching: bool = True
    ) -> Network:
        """Construct the live :class:`Network` this spec describes."""
        return build_network(
            sim,
            scheduler_factory,
            self.nodes,
            tuple(
                (
                    link.src,
                    link.dst,
                    link.rate_bps,
                    link.propagation_delay,
                    link.buffer_packets,
                )
                for link in self.links
            ),
            tuple((att.host, att.switch) for att in self.host_attachments),
            batching,
        )

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "nodes": list(self.nodes),
            "links": [link.to_dict() for link in self.links],
            "host_attachments": [
                att.to_dict() for att in self.host_attachments
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TopologySpec":
        if "nodes" in data:
            return cls(
                nodes=tuple(data["nodes"]),
                links=tuple(
                    LinkSpec.from_dict(link) for link in data.get("links", ())
                ),
                host_attachments=tuple(
                    HostAttachment.from_dict(att)
                    for att in data.get("host_attachments", ())
                ),
                kind=data.get("kind", "graph"),
            )
        # Legacy serialized form (pre-graph): kind + scalar parameters.
        payload = dict(data)
        kind = payload.pop("kind", "single_link")
        if kind == "single_link":
            payload.pop("num_switches", None)
            payload.pop("duplex", None)
            return cls.single_link(**payload)
        if kind == "chain":
            return cls.chain(payload.pop("num_switches"), **payload)
        if kind == "figure1":
            payload.pop("num_switches", None)
            return cls.figure1(**payload)
        raise ValueError(f"unknown topology kind {kind!r}")


@dataclasses.dataclass(frozen=True)
class GuaranteedRequest:
    """Request guaranteed service at a WFQ clock rate (Section 8)."""

    clock_rate_bps: float

    def __post_init__(self):
        if self.clock_rate_bps <= 0:
            raise ValueError("clock rate must be positive")

    def to_dict(self) -> Dict[str, Any]:
        return {"service": "guaranteed", **dataclasses.asdict(self)}


@dataclasses.dataclass(frozen=True)
class PredictedRequest:
    """Request predicted service with a declared bucket and (D, L) target."""

    token_rate_bps: float
    bucket_depth_bits: float
    target_delay_seconds: float
    target_loss_rate: float = 0.01

    def __post_init__(self):
        if self.token_rate_bps <= 0 or self.bucket_depth_bits <= 0:
            raise ValueError("token bucket parameters must be positive")
        if self.target_delay_seconds <= 0:
            raise ValueError("target delay must be positive")

    def to_dict(self) -> Dict[str, Any]:
        return {"service": "predicted", **dataclasses.asdict(self)}


ServiceRequest = Union[GuaranteedRequest, PredictedRequest]


def _request_from_dict(data: Optional[Mapping[str, Any]]) -> Optional[ServiceRequest]:
    if data is None:
        return None
    payload = dict(data)
    service = payload.pop("service")
    if service == "guaranteed":
        return GuaranteedRequest(**payload)
    if service == "predicted":
        return PredictedRequest(**payload)
    raise ValueError(f"unknown service request kind {service!r}")


@dataclasses.dataclass(frozen=True)
class FlowSpec:
    """One traffic flow: placement, source process, and service terms.

    Defaults are the Appendix source (A = 85 pkt/s, B = 5, P = 2A, an
    (A, 50) token bucket, 1000-bit packets).  ``bucket_packets=None``
    removes the source-side filter.

    Attributes:
        request: optional service request.  With an admission-controlled
            scenario the flow is established through signaling before any
            traffic starts and its service class / predicted priority come
            from the grant; without admission a guaranteed request still
            installs its clock rate directly at every hop.
        record: attach a delay-recording sink (the default); ``False``
            delivers to a no-op handler (background load).
        hops: optional path-length metadata (Figure-1 placements).
    """

    name: str
    source_host: str
    dest_host: str
    average_rate_pps: float = paper.AVERAGE_RATE_PPS
    mean_burst_packets: float = paper.MEAN_BURST_PACKETS
    peak_rate_pps: Optional[float] = None  # defaults to 2A, as in the paper
    bucket_packets: Optional[float] = paper.BUCKET_PACKETS
    packet_size_bits: int = paper.PACKET_BITS
    service_class: ServiceClass = ServiceClass.DATAGRAM
    priority_class: int = 0
    request: Optional[ServiceRequest] = None
    record: bool = True
    hops: Optional[int] = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("flow name must be non-empty")
        if self.average_rate_pps <= 0:
            raise ValueError("average rate must be positive")
        if self.packet_size_bits <= 0:
            raise ValueError("packet size must be positive")

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["service_class"] = self.service_class.name
        data["request"] = self.request.to_dict() if self.request else None
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FlowSpec":
        payload = dict(data)
        payload["service_class"] = ServiceClass[payload["service_class"]]
        payload["request"] = _request_from_dict(payload.get("request"))
        return cls(**payload)


@dataclasses.dataclass(frozen=True)
class DisciplineSpec:
    """One scheduling discipline, by registry kind plus parameters.

    ``params`` is a sorted tuple of (key, value) pairs so the spec stays
    hashable; :attr:`param_dict` exposes it as a mapping.  ``factory`` is
    an escape hatch for disciplines outside the registry — a callable
    ``(sim, port_name, link) -> Scheduler``; it must be a module-level
    function to survive pickling into sweep workers.

    ``ports`` maps port-name glob patterns (``fnmatch`` style, e.g.
    ``"S-2->S-3"`` or ``"*->S-3"``) to override disciplines, so one
    discipline entry can schedule different ports differently — FIFO edge
    ports feeding a WFQ bottleneck, say.  The first matching pattern wins;
    unmatched ports get this spec's own kind.  Build with
    :meth:`override`.
    """

    name: str
    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()
    factory: Optional[Callable] = None
    ports: Tuple[Tuple[str, "DisciplineSpec"], ...] = ()

    def __post_init__(self):
        for pattern, override in self.ports:
            if override.ports:
                raise ValueError(
                    f"port override {pattern!r} of {self.name!r} must not "
                    "carry its own port overrides"
                )

    @classmethod
    def of(cls, name: str, kind: str, **params) -> "DisciplineSpec":
        return cls(name=name, kind=kind, params=tuple(sorted(params.items())))

    def override(
        self, pattern: str, discipline: "DisciplineSpec"
    ) -> "DisciplineSpec":
        """A copy that schedules ports matching ``pattern`` with
        ``discipline`` instead (earlier overrides take precedence)."""
        return dataclasses.replace(
            self, ports=self.ports + ((pattern, discipline),)
        )

    @property
    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    # -- the disciplines the paper builds or compares ------------------
    @classmethod
    def fifo(cls, name: str = "FIFO") -> "DisciplineSpec":
        return cls.of(name, "fifo")

    @classmethod
    def fifoplus(
        cls,
        name: str = "FIFO+",
        ewma_gain: Optional[float] = None,
        stale_offset_threshold: Optional[float] = None,
    ) -> "DisciplineSpec":
        """FIFO+; ``stale_offset_threshold`` enables the Section 10
        in-network discard of hopelessly late packets."""
        params = {}
        if ewma_gain is not None:
            params["ewma_gain"] = ewma_gain
        if stale_offset_threshold is not None:
            params["stale_offset_threshold"] = stale_offset_threshold
        return cls.of(name, "fifoplus", **params)

    @classmethod
    def wfq(
        cls,
        name: str = "WFQ",
        equal_share_flows: Optional[int] = None,
        auto_register_rate_bps: Optional[float] = None,
    ) -> "DisciplineSpec":
        """WFQ; ``equal_share_flows=N`` gives unknown flows a clock rate of
        link_rate/N (the paper's "equal clock rates" configuration)."""
        return cls.of(
            name,
            "wfq",
            equal_share_flows=equal_share_flows,
            auto_register_rate_bps=auto_register_rate_bps,
        )

    @classmethod
    def unified(
        cls, name: str = "CSZ", num_predicted_classes: int = 2
    ) -> "DisciplineSpec":
        return cls.of(name, "unified", num_predicted_classes=num_predicted_classes)

    @classmethod
    def priority(cls, name: str = "Priority", **params) -> "DisciplineSpec":
        return cls.of(name, "priority", **params)

    @classmethod
    def virtual_clock(
        cls, name: str = "VirtualClock", equal_share_flows: Optional[int] = None
    ) -> "DisciplineSpec":
        return cls.of(name, "virtual_clock", equal_share_flows=equal_share_flows)

    @classmethod
    def round_robin(cls, name: str = "RR") -> "DisciplineSpec":
        return cls.of(name, "round_robin")

    @classmethod
    def drr(cls, name: str = "DRR", quantum_bits: int = 1000) -> "DisciplineSpec":
        return cls.of(name, "drr", quantum_bits=quantum_bits)

    @classmethod
    def edf(cls, name: str = "EDF", default_target: float = 0.1) -> "DisciplineSpec":
        return cls.of(name, "edf", default_target=default_target)

    @classmethod
    def jacobson_floyd(
        cls, name: str = "J-F", num_classes: int = 1
    ) -> "DisciplineSpec":
        return cls.of(name, "jacobson_floyd", num_classes=num_classes)

    @classmethod
    def stop_and_go(
        cls, name: str = "Stop-and-Go", frame_seconds: float = 0.05
    ) -> "DisciplineSpec":
        return cls.of(name, "stop_and_go", frame_seconds=frame_seconds)

    @classmethod
    def jitter_edd(
        cls, name: str = "Jitter-EDD", default_target: float = 0.08
    ) -> "DisciplineSpec":
        return cls.of(name, "jitter_edd", default_target=default_target)

    @classmethod
    def custom(cls, name: str, factory: Callable) -> "DisciplineSpec":
        return cls(name=name, kind="custom", factory=factory)

    def to_dict(self) -> Dict[str, Any]:
        if self.factory is not None:
            raise ValueError(
                f"discipline {self.name!r} uses a custom factory and cannot "
                "be serialized"
            )
        data: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "params": dict(self.params),
        }
        if self.ports:
            data["ports"] = [
                [pattern, override.to_dict()]
                for pattern, override in self.ports
            ]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DisciplineSpec":
        spec = cls.of(data["name"], data["kind"], **dict(data.get("params", {})))
        for pattern, override in data.get("ports", ()):
            spec = spec.override(pattern, cls.from_dict(override))
        return spec


@dataclasses.dataclass(frozen=True)
class TcpSpec:
    """A TCP connection supplying datagram background load."""

    name: str
    source_host: str
    dest_host: str
    max_cwnd: float = 64.0

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TcpSpec":
        return cls(**data)


@dataclasses.dataclass(frozen=True)
class AdmissionSpec:
    """Measurement-based admission control at every output port.

    ``utilization_safety`` / ``delay_safety`` are the multiplicative
    conservatism factors applied to the measured nu-hat and d-hat_j
    (Section 9's "consistently conservative estimates"); 1.0 uses the raw
    sliding-window measurements.
    """

    realtime_quota: float = 0.9
    class_bounds_seconds: Tuple[float, ...] = (0.15, 1.5)
    utilization_safety: float = 1.0
    delay_safety: float = 1.0

    def __post_init__(self):
        if not 0 < self.realtime_quota <= 1:
            raise ValueError("realtime quota must be in (0, 1]")
        if not self.class_bounds_seconds:
            raise ValueError("at least one predicted class bound is required")
        if self.utilization_safety < 1.0 or self.delay_safety < 1.0:
            raise ValueError("safety factors must be >= 1 (conservative)")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AdmissionSpec":
        payload = dict(data)
        payload["class_bounds_seconds"] = tuple(payload["class_bounds_seconds"])
        return cls(**payload)


@dataclasses.dataclass(frozen=True)
class OutageEvent:
    """One explicit link outage: down at ``at``, repaired ``duration``
    seconds later.  Deterministic experiments (the failover flagship) pin
    their failures with these instead of sampling."""

    link: str
    at: float
    duration: float

    def __post_init__(self):
        if self.at < 0:
            raise ValueError("outage time cannot be negative")
        if self.duration <= 0:
            raise ValueError("outage duration must be positive")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OutageEvent":
        return cls(**data)


@dataclasses.dataclass(frozen=True)
class OutageSpec:
    """Link failures for a scenario — the control plane's input.

    Presence of an ``OutageSpec`` on a :class:`ScenarioSpec` activates
    the :mod:`repro.control` plane: a link-state controller with shortest-path
    (SPF) rerouting and signaling-based flow re-establishment, driven by
    the events declared here.  Two composable sources:

    Attributes:
        events: explicit ``(link, at, duration)`` outages.
        rate_per_second: Poisson arrival rate of sampled outages (0
            disables sampling).  Draws come from a dedicated named random
            stream, so the sampled schedule is identical across the
            paired discipline runs.
        mean_duration_seconds: mean of the exponential repair time.
        correlated_links: links taken down together per sampled outage
            (correlated multi-link failure).
        links: candidate link names for sampling (None = all links).
        start_after: earliest time a sampled outage may begin.
        max_outages: cap on sampled outage events (None = unbounded).
    """

    events: Tuple[OutageEvent, ...] = ()
    rate_per_second: float = 0.0
    mean_duration_seconds: float = 0.5
    correlated_links: int = 1
    links: Optional[Tuple[str, ...]] = None
    start_after: float = 0.0
    max_outages: Optional[int] = None

    def __post_init__(self):
        if self.rate_per_second < 0:
            raise ValueError("outage rate cannot be negative")
        if self.mean_duration_seconds <= 0:
            raise ValueError("mean outage duration must be positive")
        if self.correlated_links < 1:
            raise ValueError("correlated_links must be >= 1")
        if self.start_after < 0:
            raise ValueError("start_after cannot be negative")
        if self.max_outages is not None and self.max_outages < 1:
            raise ValueError("max_outages must be >= 1 when set")

    @property
    def is_active(self) -> bool:
        """Whether this spec can ever change a link's state: it carries
        explicit events or a positive sampling rate.  A degenerate
        (inactive) spec still activates the control plane — the run
        result carries a zeroed control summary — but behaves exactly
        like an outage-free spec on both engines."""
        return bool(self.events) or self.rate_per_second > 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events": [event.to_dict() for event in self.events],
            "rate_per_second": self.rate_per_second,
            "mean_duration_seconds": self.mean_duration_seconds,
            "correlated_links": self.correlated_links,
            "links": list(self.links) if self.links is not None else None,
            "start_after": self.start_after,
            "max_outages": self.max_outages,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OutageSpec":
        return cls(
            events=tuple(
                OutageEvent.from_dict(e) for e in data.get("events", ())
            ),
            rate_per_second=data.get("rate_per_second", 0.0),
            mean_duration_seconds=data.get("mean_duration_seconds", 0.5),
            correlated_links=data.get("correlated_links", 1),
            links=(
                tuple(data["links"]) if data.get("links") is not None else None
            ),
            start_after=data.get("start_after", 0.0),
            max_outages=data.get("max_outages"),
        )


DEFAULT_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)

#: Simulation engines a spec may request.  ``packet`` is the
#: discrete-event engine (authoritative); ``fluid`` is the flow-level
#: epoch model in :mod:`repro.fluid` (fast, approximate, cross-validated
#: against the packet engine on small instances).
ENGINE_KINDS = ("packet", "fluid")


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative experiment: build → run → structured results.

    Attributes:
        disciplines: one simulation per discipline, each fed the identical
            arrival process (paired comparison, as in the paper's tables).
        establish_order: flow names in the order their service requests
            visit admission control; defaults to spec order.  A partial
            list only prioritizes — request-bearing flows not listed are
            established afterwards, in spec order.  Table 3 establishes
            guaranteed flows before predicted ones so later checks see
            the reservations.
        link_accounting: count per-link real-time vs total bits and
            datagram drops (the Table-3 bookkeeping); off by default to
            keep the hot path lean.
        percentile_points: queueing-delay percentiles computed per flow.
        validate: attach the :mod:`repro.validate` audit tap and run the
            simulation-invariant checks post-run (packet conservation,
            within-flow FIFO order, P-G delay bounds, queue bounds, clock
            monotonicity); results land on
            ``DisciplineRunResult.invariants``.  Off by default to keep
            the hot path lean; generated scenarios opt in.
        outages: link failures for the run (:class:`OutageSpec`).  When
            set, the runner activates the :mod:`repro.control` plane —
            link-state tracking, SPF rerouting, and flow
            re-establishment — and the result carries a per-flow
            reroute/re-admission summary.  None (the default) leaves the
            control plane entirely unwired, so static-route scenarios
            stay bit-identical.
        engine: which simulation engine runs this spec — ``"packet"``
            (the discrete-event engine, the default and the source of
            truth) or ``"fluid"`` (the flow-level epoch model in
            :mod:`repro.fluid`, for populations the packet engine cannot
            reach).
        ecmp_seed: ECMP-style load balancing for multipath topologies
            (fat-tree, leaf-spine): when set, each flow's path is a
            seeded per-flow choice among the equal-cost shortest paths
            (:class:`repro.net.fabric.EcmpPaths`) instead of the static
            router's single deterministic pick.  Honoured by the fluid
            engine; the packet engine's per-destination router ignores
            it (documented approximation).  ``None`` (the default)
            routes every flow exactly as the packet engine does.
    """

    name: str
    topology: TopologySpec
    flows: Tuple[FlowSpec, ...]
    disciplines: Tuple[DisciplineSpec, ...]
    tcps: Tuple[TcpSpec, ...] = ()
    admission: Optional[AdmissionSpec] = None
    establish_order: Optional[Tuple[str, ...]] = None
    duration: float = paper.PAPER_DURATION_SECONDS
    warmup: float = paper.DEFAULT_WARMUP_SECONDS
    seed: int = 1
    percentile_points: Tuple[float, ...] = DEFAULT_PERCENTILES
    link_accounting: bool = False
    validate: bool = False
    outages: Optional[OutageSpec] = None
    engine: str = "packet"
    ecmp_seed: Optional[int] = None

    def __post_init__(self):
        if self.engine not in ENGINE_KINDS:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINE_KINDS}"
            )
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.warmup < 0:
            raise ValueError("warmup cannot be negative")
        if not self.disciplines:
            raise ValueError("at least one discipline is required")
        flow_names = [flow.name for flow in self.flows]
        if len(set(flow_names)) != len(flow_names):
            raise ValueError("flow names must be unique")
        discipline_names = [d.name for d in self.disciplines]
        if len(set(discipline_names)) != len(discipline_names):
            raise ValueError("discipline names must be unique")
        if self.establish_order is not None:
            known = set(flow_names)
            unknown = [n for n in self.establish_order if n not in known]
            if unknown:
                raise ValueError(f"establish_order names unknown flows: {unknown}")
            if len(set(self.establish_order)) != len(self.establish_order):
                raise ValueError("establish_order must not repeat flow names")
        hosts = set(self.topology.host_names)
        for flow in self.flows:
            for host in (flow.source_host, flow.dest_host):
                if host not in hosts:
                    raise ValueError(
                        f"flow {flow.name!r} references host {host!r} not in "
                        f"the topology (hosts: {sorted(hosts)})"
                    )
        for tcp in self.tcps:
            for host in (tcp.source_host, tcp.dest_host):
                if host not in hosts:
                    raise ValueError(
                        f"tcp {tcp.name!r} references host {host!r} not in "
                        f"the topology"
                    )
        if self.outages is not None:
            link_names = set(self.topology.link_names)
            for event in self.outages.events:
                if event.link not in link_names:
                    raise ValueError(
                        f"outage event names unknown link {event.link!r}"
                    )
            if self.outages.links is not None:
                unknown = [
                    name
                    for name in self.outages.links
                    if name not in link_names
                ]
                if unknown:
                    raise ValueError(
                        f"outage candidates name unknown links: {unknown}"
                    )
            if self.admission is None and any(
                flow.request is not None for flow in self.flows
            ):
                raise ValueError(
                    "outage scenarios with service requests need admission "
                    "control: re-establishment after a failover goes through "
                    "signaling, which directly installed reservations cannot"
                )

    # ------------------------------------------------------------------
    def flow(self, name: str) -> FlowSpec:
        for flow in self.flows:
            if flow.name == name:
                return flow
        raise KeyError(name)

    def discipline(self, name: str) -> DisciplineSpec:
        for discipline in self.disciplines:
            if discipline.name == name:
                return discipline
        raise KeyError(name)

    def replace(self, **changes) -> "ScenarioSpec":
        """A modified copy (frozen specs compose by replacement)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data = {
            "name": self.name,
            "topology": self.topology.to_dict(),
            "flows": [flow.to_dict() for flow in self.flows],
            "disciplines": [d.to_dict() for d in self.disciplines],
            "tcps": [tcp.to_dict() for tcp in self.tcps],
            "admission": self.admission.to_dict() if self.admission else None,
            "establish_order": (
                list(self.establish_order)
                if self.establish_order is not None
                else None
            ),
            "duration": self.duration,
            "warmup": self.warmup,
            "seed": self.seed,
            "percentile_points": list(self.percentile_points),
            "link_accounting": self.link_accounting,
            "validate": self.validate,
        }
        # Only-when-present so payloads of outage-free scenarios stay
        # byte-identical to pre-control-plane goldens.
        if self.outages is not None:
            data["outages"] = self.outages.to_dict()
        # Same rule: the engine field appears only when it deviates from
        # the packet default, keeping pre-fluid spec payloads byte-stable.
        if self.engine != "packet":
            data["engine"] = self.engine
        if self.ecmp_seed is not None:
            data["ecmp_seed"] = self.ecmp_seed
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        # Outside input (``--spec file.json``) lands here: a misspelt key
        # must not silently run a different scenario.
        accepted = [field.name for field in dataclasses.fields(cls)]
        unknown = sorted(set(data) - set(accepted))
        if unknown:
            raise ValueError(
                f"ScenarioSpec: unknown key(s) {unknown}; "
                f"accepted keys are {accepted}"
            )
        missing = [
            key for key in ("name", "topology", "flows", "disciplines")
            if key not in data
        ]
        if missing:
            raise ValueError(f"ScenarioSpec: missing required key(s) {missing}")
        return cls(
            name=data["name"],
            topology=TopologySpec.from_dict(data["topology"]),
            flows=tuple(FlowSpec.from_dict(f) for f in data["flows"]),
            disciplines=tuple(
                DisciplineSpec.from_dict(d) for d in data["disciplines"]
            ),
            tcps=tuple(TcpSpec.from_dict(t) for t in data.get("tcps", ())),
            admission=(
                AdmissionSpec.from_dict(data["admission"])
                if data.get("admission")
                else None
            ),
            establish_order=(
                tuple(data["establish_order"])
                if data.get("establish_order") is not None
                else None
            ),
            duration=data.get("duration", paper.PAPER_DURATION_SECONDS),
            warmup=data.get("warmup", paper.DEFAULT_WARMUP_SECONDS),
            seed=data.get("seed", 1),
            percentile_points=tuple(
                data.get("percentile_points", DEFAULT_PERCENTILES)
            ),
            link_accounting=data.get("link_accounting", False),
            validate=data.get("validate", False),
            outages=(
                OutageSpec.from_dict(data["outages"])
                if data.get("outages") is not None
                else None
            ),
            engine=data.get("engine", "packet"),
            ecmp_seed=data.get("ecmp_seed"),
        )
