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

Every spec type inherits ``to_dict``/``from_dict`` from one codec that
reads its dataclass fields and type hints (the wire rules are in the
README).  Decoding is strict: unknown keys, wrongly typed scalars and
constructor rejections raise :class:`SpecError`, whose ``path`` names the
offending value, e.g. ``flows[3].average_rate_pps``.

A spec's flows are a tuple of :class:`FlowSpec` or, for generated fabrics
of up to millions of flows, a :class:`FlowTable`: the same rows kept as
columns and a few prototypes, built one ``FlowSpec`` at a time only when
read.  Both forms compare, hash and serialise alike; validation and the
fluid compile read either through :meth:`FlowTable.of`.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import numbers
import operator
import typing
from array import array
from collections.abc import Mapping, Sequence
from typing import (
    AbstractSet, Any, Callable, Dict, List, NoReturn, Optional, Tuple, Union,
)

from repro.net.network import Network
from repro.net.routing import StaticRouting, route_graph
from repro.net.packet import ServiceClass
from repro.scenario import paper
from repro.sim.engine import Simulator

# Provenance tags the named constructors stamp; free-form graphs are
# "graph".
TOPOLOGY_KINDS = (
    "graph", "single_link", "chain", "figure1", "parking_lot", "fat-tree",
    "leaf-spine",
)


# ----------------------------------------------------------------------
# The wire codec
# ----------------------------------------------------------------------


class SpecError(ValueError):
    """A malformed spec payload; ``path`` names the offending value, e.g.
    ``flows[3].average_rate_pps`` (empty for the top-level object)."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(message, path)
        self.message, self.path = message, path

    def __str__(self) -> str:
        return f"{self.path}: {self.message}" if self.path else self.message

    def _within(self, segment: str) -> None:  # a field name or "[index]"
        dot = "." if self.path and not self.path.startswith("[") else ""
        self.path = segment + dot + self.path
        self.args = (self.message, self.path)


_NOTHING: frozenset = frozenset()
#: Named parameters with opaque values: a JSON object, sorted pairs here.
_PARAMS = Tuple[Tuple[str, Any], ...]
# Scalar hint -> (what it expects, classes kept as they are, the wider
# class any other accepted value belongs to).  A bool is never a number.
_SCALARS = {
    bool: ("a bool", {bool}, ()),
    int: ("an integer", {int}, numbers.Integral),
    float: ("a real number", {float, int}, numbers.Real),
    str: ("a string", {str}, str),
}


def only_when_set(default: Any) -> Any:
    """A field left off the wire while it holds ``default``, so payloads
    of specs that never set it stay byte-identical to older ones."""
    return dataclasses.field(default=default, metadata={"only_when_set": True})


def _reject(expected: str, value: Any, path: str = "") -> NoReturn:
    if value is None:
        got = "null"
    elif isinstance(value, (Mapping, list, tuple)):
        got = "an object" if isinstance(value, Mapping) else "a list"
    else:
        text = repr(value)
        got = f"{type(value).__name__} {text[:37] + '...' if len(text) > 40 else text}"
    raise SpecError(f"expected {expected}, got {got}", path)


def _decode_params(value: Any) -> Tuple[Tuple[str, Any], ...]:
    if not isinstance(value, Mapping) or not all(isinstance(k, str) for k in value):
        _reject("an object", value)
    return tuple(sorted(value.items()))


def _plan(hint: Any) -> tuple:
    """``(exact, decode, encode)`` for one type hint.  A value whose class
    is in ``exact`` is its own decoding; any other goes through ``decode``,
    which raises :class:`SpecError` with a path relative to the value.
    ``encode`` is None where a value is its own wire form."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint in _SCALARS:
        expected, exact, wider = _SCALARS[hint]
        return frozenset(exact), lambda value: (
            value if isinstance(value, wider) and not isinstance(value, bool)
            else _reject(expected, value)
        ), None
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        names = hint.__members__
        return _NOTHING, lambda value: (
            names[value] if isinstance(value, str) and value in names
            else _reject(f"one of {list(names)}", value)
        ), operator.attrgetter("name")
    if isinstance(hint, type) and issubclass(hint, _Wire):
        return _NOTHING, _codec(hint).decode, _codec(hint).encode
    if hint == _PARAMS:
        return _NOTHING, _decode_params, dict
    if origin is Union and type(None) in args:  # Optional[X]: null or X
        exact, decode, encode = _plan(
            Union[tuple(arg for arg in args if arg is not type(None))]
        )
        return exact | {type(None)}, decode, encode and (
            lambda value: None if value is None else encode(value)
        )
    if origin is Union:  # spec types told apart by their wire tag
        key = args[0]._wire_tag[0]
        tags = {cls._wire_tag[1]: _codec(cls) for cls in args}

        def decode_tagged(value):
            if not isinstance(value, Mapping):
                _reject("an object", value)
            tag = value.get(key)
            if not isinstance(tag, str) or tag not in tags:
                _reject(f"one of {list(tags)}", tag, key)
            return tags[tag].decode(value)

        return _NOTHING, decode_tagged, lambda value: _codec(type(value)).encode(value)
    if origin is tuple:  # Tuple[X, ...], or fixed slots such as Tuple[X, Y]
        variadic = args[-1] is Ellipsis
        slots = [_plan(arg) for arg in args[: 1 if variadic else None]]

        def decode_list(value):
            if not isinstance(value, (list, tuple)) or (
                not variadic and len(value) != len(slots)
            ):
                _reject("a list" if variadic else f"a list of {len(slots)}", value)
            items = []
            try:
                for (exact, decode, _), item in zip(itertools.cycle(slots), value):
                    items.append(item if item.__class__ in exact else decode(item))
            except SpecError as error:
                error._within(f"[{len(items)}]")
                raise
            return tuple(items)

        encoders = [encode for _, _, encode in slots]
        return _NOTHING, decode_list, list if not any(encoders) else (
            lambda value: [
                item if encode is None else encode(item)
                for encode, item in zip(itertools.cycle(encoders), value)
            ]
        )
    raise TypeError(f"no wire form for type hint {hint!r}")


class _Codec:
    """One spec type's wire plan, compiled from its fields on first use."""

    def __init__(self, cls: type):
        self.cls, self.name = cls, cls.__name__
        self.tag = getattr(cls, "_wire_tag", None)  # (key, value) or None
        self.shapes: Dict[tuple, Tuple[str, ...]] = {}

    def compile(self) -> None:
        hints = typing.get_type_hints(self.cls)
        self.plans, self.out, self.local, self.required = {}, [], [], []
        for field in dataclasses.fields(self.cls):
            hint = hints[field.name]
            if Callable in (hint, *typing.get_args(hint)):  # process-local
                self.local.append(field.name)
                continue
            exact, decode, encode = _plan(hint)
            self.plans[field.name] = exact, decode
            only_when_set = field.metadata.get("only_when_set")
            omit = field.default if only_when_set else dataclasses.MISSING
            self.out.append((field.name, encode, omit))
            if field.default is dataclasses.MISSING:
                self.required.append(field.name)
        self.accepted = [self.tag[0], *self.plans] if self.tag else [*self.plans]
        self.keys = frozenset(self.accepted)

    def encode(self, obj: Any) -> Dict[str, Any]:
        for name in self.local:
            if getattr(obj, name) is not None:
                raise ValueError(
                    f"{self.name} {getattr(obj, 'name', '')!r} uses a custom "
                    f"{name} and cannot be serialized"
                )
        data = {self.tag[0]: self.tag[1]} if self.tag else {}
        for name, encode, omit in self.out:
            value = getattr(obj, name)
            if omit is dataclasses.MISSING or value != omit:
                data[name] = value if encode is None else encode(value)
        return data

    def decode(self, data: Any) -> Any:
        if isinstance(data, self.cls):
            return data
        if data.__class__ is not dict and not isinstance(data, Mapping):
            _reject(f"a {self.name} object", data)
        try:
            return self.cls(**self._kwargs(data))
        except SpecError:
            raise
        except (ValueError, TypeError, KeyError) as exc:
            # KeyError stringifies as the repr of its argument; unwrap it.
            reason = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
            raise SpecError(str(reason)) from exc

    def _kwargs(self, data: Mapping[str, Any]) -> Dict[str, Any]:
        if self.tag:
            key, tag = self.tag
            if data.get(key, tag) != tag:
                _reject(repr(tag), data[key], key)
            data = {name: value for name, value in data.items() if name != key}
        # Payloads of one shape (keys, value classes) pass the same key and
        # class checks, so a population of flows runs them once; only the
        # values a class alone does not settle are decoded every time.
        shape = (tuple(data), tuple(map(type, data.values())))
        todo = self.shapes.get(shape)
        if todo is None:
            todo = self._check(data)
            if len(self.shapes) < 64:
                self.shapes[shape] = todo
        kwargs = dict(data)
        for name in todo:
            kwargs[name] = self.field(name, kwargs[name])
        return kwargs

    def _check(self, data: Mapping[str, Any]) -> Tuple[str, ...]:
        """Reject unknown and missing keys; name the values to decode."""
        if not data.keys() <= self.keys:
            unknown = sorted(map(str, data.keys() - self.keys))
            raise SpecError(
                f"unknown key(s) {unknown} for {self.name}; accepted keys "
                f"are {self.accepted}"
            )
        missing = [name for name in self.required if name not in data]
        if missing:
            raise SpecError(f"missing required key(s) {missing} for {self.name}")
        return tuple(
            name for name, value in data.items()
            if type(value) not in self.plans[name][0]
        )

    def field(self, name: str, value: Any) -> Any:
        """``value`` decoded as field ``name``; errors gain the name."""
        exact, decode = self.plans[name]
        try:
            return value if value.__class__ in exact else decode(value)
        except SpecError as error:
            error._within(name)
            raise


_CODECS: Dict[type, _Codec] = {}


def _codec(cls: type) -> _Codec:
    """The compiled codec of ``cls``; type hints resolve on first use."""
    codec = _CODECS.get(cls)
    if codec is None:
        # Registered before compiling so self-referencing types
        # (DisciplineSpec.ports) find it.
        codec = _CODECS[cls] = _Codec(cls)
        codec.compile()
    return codec


class _Wire:
    """Base of every spec type: its wire format, read off its fields."""

    def to_dict(self) -> Dict[str, Any]:
        return _codec(type(self)).encode(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        return _codec(cls).decode(data)

    @classmethod
    def decode_field(cls, name: str, value: Any) -> Any:
        """``value`` decoded as field ``name`` of a payload would be."""
        codec = _codec(cls)
        if name not in codec.plans:
            raise SpecError(f"not a field; accepted keys are {codec.accepted}", name)
        return codec.field(name, value)


@dataclasses.dataclass(frozen=True)
class LinkSpec(_Wire):
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


@dataclasses.dataclass(frozen=True)
class HostAttachment(_Wire):
    """One host and the switch it hangs off (infinitely fast access link)."""

    host: str
    switch: str


@dataclasses.dataclass(frozen=True)
class TopologySpec(_Wire):
    """A network as a declarative graph: switches, links, host attachments.

    Any directed graph is expressible, and every topology is one of
    these: the paper's named networks (``single_link()``, ``chain()``,
    ``figure1()``) and the ``parking_lot()`` merge network declare their
    links and hosts directly, as do the fabrics and generated graphs.
    :meth:`build` is the one assembler of a live :class:`Network`; its
    order is nodes, then links, then hosts — the order the golden
    equivalence tests and ``tests/scenario/test_topology_pin.py`` pin.

    Attributes:
        kind: provenance tag (``graph`` for free-form topologies).
        nodes: switch names, in construction order.
        links: directed links, each with its own rate / buffer /
            propagation delay.
        host_attachments: (host, switch) pairs.
    """

    kind: str = "graph"  # first, so it leads the wire object
    nodes: Tuple[str, ...] = ()
    links: Tuple[LinkSpec, ...] = ()
    host_attachments: Tuple[HostAttachment, ...] = ()

    def __post_init__(self):
        if self.kind not in TOPOLOGY_KINDS:
            raise ValueError(
                f"unknown topology kind {self.kind!r}; expected one of {TOPOLOGY_KINDS}"
            )
        if not self.nodes:
            raise ValueError("a topology needs at least one switch")
        switches = set(self.nodes)
        if len(switches) != len(self.nodes):
            raise ValueError("switch names must be unique")
        seen_links = set()
        for link in self.links:
            if link.src not in switches or link.dst not in switches:
                raise ValueError(f"link {link.name} references an unknown switch")
            if link.name in seen_links:
                raise ValueError(f"duplicate link {link.name}")
            seen_links.add(link.name)
        seen_hosts = set()
        for att in self.host_attachments:
            if att.switch not in switches:
                raise ValueError(f"host {att.host} attaches to unknown switch "
                                 f"{att.switch}")
            if att.host in seen_hosts or att.host in switches:
                raise ValueError(f"duplicate node name {att.host}")
            seen_hosts.add(att.host)

    # -- named constructors --------------------------------------------
    @classmethod
    def single_link(
        cls, rate_bps: float = paper.LINK_RATE_BPS,
        buffer_packets: int = paper.BUFFER_PACKETS,
    ) -> "TopologySpec":
        """Table 1: one link A->B, every flow from ``src-host`` to
        ``dst-host``, so every packet crosses the one bottleneck."""
        return cls(
            kind="single_link",
            nodes=("A", "B"),
            links=(LinkSpec("A", "B", rate_bps, buffer_packets),),
            host_attachments=(
                HostAttachment("src-host", "A"), HostAttachment("dst-host", "B"),
            ),
        )

    @classmethod
    def chain(
        cls, num_switches: int, rate_bps: float = paper.LINK_RATE_BPS,
        buffer_packets: int = paper.BUFFER_PACKETS, duplex: bool = False,
    ) -> "TopologySpec":
        """S-1 - S-2 - ... - S-n with Host-k on S-k.  ``duplex`` adds
        each reverse link right after its forward one: the paper's
        traffic flows one way, but TCP needs a path for its ACKs."""
        if num_switches < 2:
            raise ValueError("a chain needs at least 2 switches")
        nodes = tuple(f"S-{i + 1}" for i in range(num_switches))
        links = []
        for left, right in zip(nodes, nodes[1:]):
            links.append(LinkSpec(left, right, rate_bps, buffer_packets))
            if duplex:
                links.append(LinkSpec(right, left, rate_bps, buffer_packets))
        return cls(
            kind="chain",
            nodes=nodes,
            links=tuple(links),
            host_attachments=tuple(
                HostAttachment(f"Host-{i + 1}", switch)
                for i, switch in enumerate(nodes)
            ),
        )

    @classmethod
    def figure1(
        cls, rate_bps: float = paper.LINK_RATE_BPS,
        buffer_packets: int = paper.BUFFER_PACKETS, duplex: bool = False,
    ) -> "TopologySpec":
        """Figure 1: Host-1..Host-5 on S-1..S-5, four inter-switch links
        each shared by ten of the Table 2/3 flows."""
        chain = cls.chain(len(paper.FIGURE1_SWITCHES), rate_bps, buffer_packets, duplex)
        return dataclasses.replace(chain, kind="figure1")

    @classmethod
    def parking_lot(
        cls, num_hops: int = 4, rate_bps: float = paper.LINK_RATE_BPS,
        buffer_packets: int = paper.BUFFER_PACKETS,
    ) -> "TopologySpec":
        """The DEC-TR-506 merge network: ``thru-src`` on S-1 to
        ``thru-dst`` on the last switch across ``num_hops`` links, and at
        hop k cross traffic from ``cross-src-k`` to ``cross-dst-k`` one
        switch later, so every link is a merge point."""
        if num_hops < 1:
            raise ValueError("a parking lot needs at least 1 hop")
        nodes = tuple(f"S-{i + 1}" for i in range(num_hops + 1))
        hosts = [HostAttachment("thru-src", nodes[0]),
                 HostAttachment("thru-dst", nodes[-1])]
        for k in range(num_hops):
            hosts.append(HostAttachment(f"cross-src-{k + 1}", nodes[k]))
            hosts.append(HostAttachment(f"cross-dst-{k + 1}", nodes[k + 1]))
        return cls(
            kind="parking_lot",
            nodes=nodes,
            links=tuple(
                LinkSpec(left, right, rate_bps, buffer_packets)
                for left, right in zip(nodes, nodes[1:])
            ),
            host_attachments=tuple(hosts),
        )

    @classmethod
    def graph(
        cls, nodes: Sequence[str], links: Sequence[Union[LinkSpec, Mapping]],
        host_attachments: Sequence[Union[HostAttachment, Tuple[str, str], Mapping]],
    ) -> "TopologySpec":
        """A free-form topology; links/attachments may be given as dicts
        (decoded as :meth:`from_dict` would) and attachments as
        ``(host, switch)`` pairs."""
        hosts = tuple(
            dict(zip(("host", "switch"), att, strict=True))
            if isinstance(att, (tuple, list)) else att
            for att in host_attachments
        )
        return cls.from_dict(
            {"nodes": tuple(nodes), "links": tuple(links), "host_attachments": hosts}
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
                f"topology links have heterogeneous {attribute}: {sorted(values)}"
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
    def build(self, sim: Simulator, scheduler_factory, batching=True) -> Network:
        """Construct the live :class:`Network` this spec describes:
        switches, then links, then hosts, each in declaration order."""
        net = Network(sim, scheduler_factory, batching)
        for name in self.nodes:
            net.add_switch(name)
        for link in self.links:
            net.add_link(link.src, link.dst, link.rate_bps,
                         link.propagation_delay, link.buffer_packets)
        for att in self.host_attachments:
            net.add_host(att.host, att.switch)
        return net

    def routes(self, down: AbstractSet[str] = frozenset()) -> StaticRouting:
        """The shortest-path tables the built network routes by, with
        the ``down`` links removed (:func:`~repro.net.routing.route_graph`)
        — no network, no simulator clock."""
        return route_graph(
            self.nodes,
            ((link.src, link.dst) for link in self.links),
            ((att.host, att.switch) for att in self.host_attachments),
            down,
        )


@dataclasses.dataclass(frozen=True)
class GuaranteedRequest(_Wire):
    """Request guaranteed service at a WFQ clock rate r (Section 8).

    The source specifies only r.  The network guarantees the rate; the
    source uses its private knowledge of b(r) to compute its own
    worst-case delay b/r, so no traffic characterization is passed and
    the network performs no conformance check on guaranteed flows.
    """

    _wire_tag = ("service", "guaranteed")
    # What signaling dispatches on; a class attribute, not a field, so
    # the wire form carries only the request's parameters.
    service_class = ServiceClass.GUARANTEED

    clock_rate_bps: float

    def __post_init__(self):
        if self.clock_rate_bps <= 0:
            raise ValueError("clock rate must be positive")


@dataclasses.dataclass(frozen=True)
class PredictedRequest(_Wire):
    """Request predicted service with a declared bucket and (D, L) target.

    The source declares a token bucket (r, b) it promises to conform to
    and asks for a delay bound D over its path and an acceptable loss
    rate L (the fraction of packets it can afford to lose or have arrive
    late).  The network maps (D, L) onto a priority class at each switch,
    advertises the sum of the chosen per-switch class bounds as the
    a priori bound, and enforces (r, b) at the network edge only.  A flow
    without a request is datagram traffic: no parameters, and no promise
    beyond not delaying or dropping packets unnecessarily.
    """

    _wire_tag = ("service", "predicted")
    service_class = ServiceClass.PREDICTED

    token_rate_bps: float
    bucket_depth_bits: float
    target_delay_seconds: float
    target_loss_rate: float = 0.01

    def __post_init__(self):
        if self.token_rate_bps <= 0 or self.bucket_depth_bits <= 0:
            raise ValueError("token bucket parameters must be positive")
        if self.target_delay_seconds <= 0:
            raise ValueError("target delay must be positive")
        if not 0.0 <= self.target_loss_rate < 1.0:
            raise ValueError(
                f"target_loss_rate must be in [0, 1), got {self.target_loss_rate!r}"
            )


ServiceRequest = Union[GuaranteedRequest, PredictedRequest]


@dataclasses.dataclass(frozen=True)
class FlowSpec(_Wire):
    """One traffic flow: placement, source process, and service terms.

    Defaults are the Appendix source (A = 85 pkt/s, B = 5, P = 2A, an
    (A, 50) token bucket, 1000-bit packets).  ``bucket_packets=None``
    removes the source-side filter.

    Attributes:
        peak_rate_pps: P, the in-burst rate (``None`` = 2A).  P <= A is a
            constant-rate source, which runs only on the fluid engine:
            the packet engine refuses the flow when it builds it.
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


#: FlowSpec fields a row shares with its prototype: all but its place.
_SHAPE = operator.itemgetter(*(
    field.name for field in dataclasses.fields(FlowSpec)
    if field.name not in ("name", "source_host", "dest_host")
))


def _shape(flow: FlowSpec) -> tuple:
    """What flows sharing one prototype have in common.  Types count too
    (85 and 85.0 compare equal but serialise differently), and a request
    by its repr, so a row rebuilt from its prototype writes the bytes the
    original would."""
    values = _SHAPE(vars(flow))
    return values, tuple(map(type, values)), flow.request and repr(flow.request)


def _column(values) -> memoryview:
    """A read-only column of unsigned flow or host indices."""
    return memoryview(array("I", values)).toreadonly()


class FlowTable(Sequence):
    """An immutable population of flows kept as columns, not objects.

    ``names`` holds every flow's name; ``src``/``dst`` index ``hosts``;
    ``kind`` indexes ``protos``, a short tuple of flows standing for
    every field but name and endpoints (``protos[k]`` is the first flow
    of kind *k*).  ``table[i]`` builds flow *i*'s :class:`FlowSpec` on
    demand, so a table equals, hashes and serialises as the tuple of
    its rows does, while a generated fabric of a million flows costs a
    few arrays and a few dozen prototypes.  Pickling ships the columns.
    :meth:`of` is the one way in from any sequence of flows.
    """

    __slots__ = ("names", "hosts", "src", "dst", "protos", "kind", "_hash")

    def __init__(self, names, hosts, src, dst, protos, kind):
        columns = dict(
            names=tuple(names), hosts=tuple(hosts), src=_column(src),
            dst=_column(dst), protos=tuple(protos), kind=_column(kind),
        )
        if {len(columns[c]) for c in ("src", "dst", "kind")} != {
            len(columns["names"])
        }:
            raise ValueError("FlowTable columns need one entry per flow")
        for column, within in (("src", "hosts"), ("dst", "hosts"),
                               ("kind", "protos")):
            if max(columns[column], default=-1) >= len(columns[within]):
                raise ValueError(f"FlowTable.{column} indexes past {within}")
        if not all(columns["names"]):
            raise ValueError("flow name must be non-empty")
        for name, value in columns.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"FlowTable is immutable (setting {name!r})")

    @classmethod
    def of(cls, flows: Sequence[FlowSpec]) -> "FlowTable":
        """``flows`` as a table: itself when it is one, else its rows
        interned (hosts in first-use order, one prototype per shape)."""
        if isinstance(flows, FlowTable):
            return flows
        flows = tuple(flows)
        hosts: Dict[str, int] = {}
        src = [hosts.setdefault(flow.source_host, len(hosts)) for flow in flows]
        dst = [hosts.setdefault(flow.dest_host, len(hosts)) for flow in flows]
        return cls.interned([flow.name for flow in flows], hosts, src, dst,
                            map(_shape, flows), flows.__getitem__)

    @classmethod
    def interned(cls, names, hosts, src, dst, shapes,
                 prototype: Callable[[int], FlowSpec]) -> "FlowTable":
        """A table whose flow *i* has the hashable ``shapes[i]``: the
        first flow of each distinct shape, ``prototype(i)``, stands for
        every flow of that shape."""
        kinds: Dict[Any, int] = {}
        protos: list = []
        kind = []
        for i, shape in enumerate(shapes):
            k = kinds.setdefault(shape, len(protos))
            if k == len(protos):
                protos.append(prototype(i))
            kind.append(k)
        return cls(names, hosts, src, dst, protos, kind)

    def endpoints(self) -> Tuple[list, list]:
        """Every flow's ``(source_host, dest_host)``, as two lists."""
        at = self.hosts.__getitem__
        return list(map(at, self.src)), list(map(at, self.dst))

    # -- the tuple of rows it stands for --------------------------------
    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._rows(range(len(self))[index]))
        self.names[index]  # the tuple's own IndexError, negative indices
        return next(self._rows((index,)))

    def __iter__(self):
        return self._rows(range(len(self)))

    def _rows(self, indices):
        # A row is its prototype with its own name and endpoints, built
        # without re-running FlowSpec's checks: the prototype passed
        # them and the table checked names (endpoints are unchecked).
        names, hosts, src, dst, protos, kind = (
            self.names, self.hosts, self.src, self.dst, self.protos, self.kind
        )
        new = object.__new__
        for i in indices:
            flow = new(FlowSpec)
            state = flow.__dict__
            state.update(vars(protos[kind[i]]))
            state["name"] = names[i]
            state["source_host"] = hosts[src[i]]
            state["dest_host"] = hosts[dst[i]]
            yield flow

    def __eq__(self, other):
        if isinstance(other, tuple):
            return len(other) == len(self) and tuple(self) == other
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self.names == other.names and (
            (self.hosts, self.protos, self.src, self.dst, self.kind)
            == (other.hosts, other.protos, other.src, other.dst, other.kind)
            or tuple(self) == tuple(other)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(tuple(self)))
        return self._hash

    def __reduce__(self):
        return type(self), (self.names, self.hosts, self.src.obj,
                            self.dst.obj, self.protos, self.kind.obj)

    def __repr__(self) -> str:
        return f"FlowTable({len(self)} flows, {len(self.protos)} prototypes)"


@dataclasses.dataclass(frozen=True)
class DisciplineSpec(_Wire):
    """One scheduling discipline, by registry kind plus parameters.

    ``params`` is a sorted tuple of (key, value) pairs so the spec stays
    hashable; :attr:`param_dict` exposes it as a mapping.  ``factory`` is
    an escape hatch for disciplines outside the registry — a module-level
    (picklable) callable ``(sim, port_name, link) -> Scheduler``.

    ``ports`` maps port-name glob patterns (``fnmatch`` style, e.g.
    ``"*->S-3"``) to override disciplines — FIFO edge ports feeding a WFQ
    bottleneck, say.  The first matching pattern wins; unmatched ports get
    this spec's own kind.  Build with :meth:`override`.
    """

    name: str
    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()
    factory: Optional[Callable] = None
    ports: Tuple[Tuple[str, "DisciplineSpec"], ...] = only_when_set(())

    def __post_init__(self):
        for pattern, override in self.ports:
            if override.ports:
                raise ValueError(f"port override {pattern!r} of {self.name!r} must "
                                 "not carry its own port overrides")

    @classmethod
    def of(cls, name: str, kind: str, **params) -> "DisciplineSpec":
        return cls(name=name, kind=kind, params=tuple(sorted(params.items())))

    def override(self, pattern: str, discipline: "DisciplineSpec") -> "DisciplineSpec":
        """A copy that schedules ports matching ``pattern`` with
        ``discipline`` instead (earlier overrides take precedence)."""
        return dataclasses.replace(self, ports=self.ports + ((pattern, discipline),))

    @property
    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    # -- the disciplines the paper builds or compares ------------------
    @classmethod
    def fifo(cls, name: str = "FIFO") -> "DisciplineSpec":
        return cls.of(name, "fifo")

    @classmethod
    def fifoplus(
        cls, name: str = "FIFO+", ewma_gain: Optional[float] = None,
        stale_offset_threshold: Optional[float] = None,
    ) -> "DisciplineSpec":
        """FIFO+; ``stale_offset_threshold`` enables the Section 10
        in-network discard of hopelessly late packets."""
        params = dict(
            ewma_gain=ewma_gain, stale_offset_threshold=stale_offset_threshold
        )
        set_params = {k: v for k, v in params.items() if v is not None}
        return cls.of(name, "fifoplus", **set_params)

    @classmethod
    def wfq(
        cls, name: str = "WFQ", equal_share_flows: Optional[int] = None,
        auto_register_rate_bps: Optional[float] = None,
    ) -> "DisciplineSpec":
        """WFQ; ``equal_share_flows=N`` gives unknown flows a clock rate of
        link_rate/N (the paper's "equal clock rates" configuration)."""
        return cls.of(
            name, "wfq", equal_share_flows=equal_share_flows,
            auto_register_rate_bps=auto_register_rate_bps,
        )

    @classmethod
    def unified(cls, name: str = "CSZ", num_predicted_classes: int = 2):
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
    def jacobson_floyd(cls, name: str = "J-F", num_classes: int = 1):
        return cls.of(name, "jacobson_floyd", num_classes=num_classes)

    @classmethod
    def stop_and_go(cls, name: str = "Stop-and-Go", frame_seconds: float = 0.05):
        return cls.of(name, "stop_and_go", frame_seconds=frame_seconds)

    @classmethod
    def jitter_edd(cls, name: str = "Jitter-EDD", default_target: float = 0.08):
        return cls.of(name, "jitter_edd", default_target=default_target)

    @classmethod
    def custom(cls, name: str, factory: Callable) -> "DisciplineSpec":
        return cls(name=name, kind="custom", factory=factory)


@dataclasses.dataclass(frozen=True)
class TcpSpec(_Wire):
    """A TCP connection supplying datagram background load."""

    name: str
    source_host: str
    dest_host: str
    max_cwnd: float = 64.0


@dataclasses.dataclass(frozen=True)
class AdmissionSpec(_Wire):
    """Measurement-based admission control at every output port.

    ``utilization_safety`` / ``delay_safety`` multiply the measured nu-hat
    and d-hat_j (Section 9's "consistently conservative estimates"); 1.0
    uses the raw sliding-window measurements.
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


@dataclasses.dataclass(frozen=True)
class OutageEvent(_Wire):
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


@dataclasses.dataclass(frozen=True)
class OutageSpec(_Wire):
    """Link failures for a scenario — the :mod:`repro.control` plane's
    input (SPF rerouting and signaling-based re-establishment, driven by
    the events declared here).  Two composable sources:

    Attributes:
        events: explicit ``(link, at, duration)`` outages.
        rate_per_second: Poisson arrival rate of sampled outages (0
            disables sampling), drawn from a dedicated named stream so
            paired discipline runs see one schedule.
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


DEFAULT_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)

#: Simulation engines a spec may request: the discrete-event ``packet``
#: engine (authoritative) or the flow-level ``fluid`` model (approximate).
ENGINE_KINDS = ("packet", "fluid")


@dataclasses.dataclass(frozen=True)
class ScenarioSpec(_Wire):
    """A complete declarative experiment: build → run → structured results.

    Attributes:
        flows: a tuple of :class:`FlowSpec`, or a :class:`FlowTable` (what
            the fabric generators build) standing for the tuple of its rows.
        disciplines: one simulation per discipline, each fed the identical
            arrival process (paired comparison, as in the paper's tables).
        establish_order: flow names in the order their service requests
            visit admission control; defaults to spec order.  A partial
            list only prioritizes — unlisted request-bearing flows follow
            in spec order.  Table 3 establishes guaranteed flows first so
            later checks see the reservations.
        link_accounting: report per-link real-time vs total bits and
            datagram drops (the Table-3 bookkeeping, read from the port
            ledgers); off by default.
        percentile_points: queueing-delay percentiles computed per flow.
        validate: attach the :mod:`repro.validate` audit tap and run the
            simulation-invariant checks post-run (conservation, FIFO order,
            P-G bounds, queue bounds, clock monotonicity) into
            ``DisciplineRunResult.invariants``; generated scenarios opt in.
        outages: link failures (:class:`OutageSpec`).  When set, the
            :mod:`repro.control` plane tracks link state, reroutes by SPF
            and re-establishes flows, and the result carries a per-flow
            reroute/re-admission summary; None leaves it unwired.
        engine: ``"packet"`` (the discrete-event engine, the source of
            truth) or ``"fluid"`` (the flow-level epoch model in
            :mod:`repro.fluid`, for populations the packet engine cannot
            reach).
        ecmp_seed: when set, each flow's path on a multipath fabric is a
            seeded per-flow choice among the equal-cost shortest paths
            (:class:`repro.net.fabric.EcmpPaths`).  Honoured by the fluid
            engine; the packet engine's per-destination router ignores it.
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
    # Written only when set, so payloads of outage-free, packet-engine,
    # single-path scenarios stay byte-identical to older ones.
    outages: Optional[OutageSpec] = only_when_set(None)
    engine: str = only_when_set("packet")
    ecmp_seed: Optional[int] = only_when_set(None)

    def __post_init__(self):
        if self.engine not in ENGINE_KINDS:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINE_KINDS}"
            )
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.warmup < 0:
            raise ValueError("warmup cannot be negative")
        for point in self.percentile_points:
            if not 0 <= point <= 100:
                raise ValueError(f"percentile point {point!r} is outside [0, 100]")
        if not self.disciplines:
            raise ValueError("at least one discipline is required")
        # Flows are checked on their columns, so a million-flow table
        # never builds a FlowSpec here.
        table = FlowTable.of(self.flows)
        known = set(table.names)
        if len(known) != len(table):
            raise ValueError("flow names must be unique")
        discipline_names = [d.name for d in self.disciplines]
        if len(set(discipline_names)) != len(discipline_names):
            raise ValueError("discipline names must be unique")
        if self.establish_order is not None:
            unknown = [n for n in self.establish_order if n not in known]
            if unknown:
                raise ValueError(f"establish_order names unknown flows: {unknown}")
            if len(set(self.establish_order)) != len(self.establish_order):
                raise ValueError("establish_order must not repeat flow names")
        hosts = set(self.topology.host_names)
        # Only a table naming an unknown host has a flow worth naming.
        suspects = () if hosts.issuperset(table.hosts) else table
        for what, endpoints in (("flow", suspects), ("tcp", self.tcps)):
            for item in endpoints:
                for host in (item.source_host, item.dest_host):
                    if host not in hosts:
                        raise ValueError(
                            f"{what} {item.name!r} references host {host!r} not "
                            f"in the topology (hosts: {sorted(hosts)})"
                        )
        if self.outages is not None:
            link_names = set(self.topology.link_names)
            for event in self.outages.events:
                if event.link not in link_names:
                    raise ValueError(f"outage event names unknown link {event.link!r}")
            unknown = [n for n in self.outages.links or () if n not in link_names]
            if unknown:
                raise ValueError(f"outage candidates name unknown links: {unknown}")
            if self.admission is None and any(p.request for p in table.protos):
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

    def establishment_order(self) -> List[int]:
        """Indices of the request-bearing flows, in the order their
        requests visit admission: ``establish_order`` first, then every
        unlisted one in spec order.  Both engines establish by it.  It
        reads the flows' :class:`FlowTable` columns, so a generated
        population builds no rows, and one whose prototypes carry no
        request costs no per-flow work."""
        table = FlowTable.of(self.flows)
        bearing = {k for k, proto in enumerate(table.protos)
                   if proto.request is not None}
        if not bearing:
            return []
        requesting = {
            name: i for i, (name, k) in enumerate(zip(table.names, table.kind))
            if k in bearing
        }
        order = [requesting[n] for n in self.establish_order or ()
                 if n in requesting]
        listed = set(order)
        return order + [i for i in requesting.values() if i not in listed]

    def discipline(self, name: str) -> DisciplineSpec:
        for discipline in self.disciplines:
            if discipline.name == name:
                return discipline
        raise KeyError(name)

    def replace(self, **changes) -> "ScenarioSpec":
        """A modified copy (frozen specs compose by replacement)."""
        return dataclasses.replace(self, **changes)
