"""Flow-level (fluid) co-simulator: bandwidth per epoch, not per packet.

The packet engine is the source of truth but caps out at hundreds of
flows; this model trades packet-level exactness for three to five orders
of magnitude more flows.  It consumes a :class:`ScenarioSpec` unchanged
and emits the same :class:`~repro.scenario.runner.DisciplineRunResult`
shape, so the runner, sweep executor, CLI, and experiments never know
which engine ran.

The model, per epoch of length ``dt`` over each flow's static route:

1. **Arrivals.**  Each flow is the *fluid limit* of its on/off source: a
   deterministic periodic burst train with the same peak rate, duty
   cycle (average/peak), and mean burst length as the packet source, at
   a per-flow random phase.  The on-time overlapping ``[t0, t1)`` is
   closed-form, so arrivals are exact at any epoch size and integrate to
   the source's average rate.
2. **Allocation.**  A tiered, demand-bounded, weighted max-min
   water-filling assigns every flow a rate over its links.  The run's
   discipline family picks weights and tiers: FIFO-family disciplines
   share proportionally to offered demand; WFQ-family disciplines weight
   by clock rate (installed guaranteed rates, or the auto-register /
   equal-share rate); the unified/priority (CSZ) family allocates in
   strict tier order — guaranteed, predicted classes by priority,
   datagram last — which is exactly the isolation structure the paper's
   Figure 1 experiments measure.
3. **Backlog and delay.**  Unserved arrivals accumulate as per-flow
   backlog attributed to the flow's bottleneck link, clamped to the
   link buffer with drops taken from the *highest* tiers first (datagram
   eats the overflow, as CSZ intends).  A flow's queueing delay is the
   shared-queue wait ``sum over path links of Q(link, tiers <= own) /
   capacity`` for FIFO-family flows, and the isolated ``own backlog /
   own rate`` for clock-weighted flows.  Delay statistics are weighted
   by delivered packets per epoch, mirroring the packet sink's
   per-packet samples.

Link outages *are* modelled, with epoch-boundary semantics: the spec's
outage schedule is compiled ahead of time into link-state epochs
(:mod:`repro.fluid.control`), failed links drop out of the waterfill
with their backlog ledgered as failure drops, flows reroute via
clock-free SPF/ECMP re-resolution, and admission-controlled flows
re-enter admission with accounted teardowns — the same control summary
the packet engine attaches.

What the fluid model does *not* capture: packet-granularity effects
(per-packet jitter inside an epoch, FIFO+ jitter sharing), transient
bursts shorter than an epoch, sub-epoch outage timing (transitions cut
the epoch grid exactly, but within-epoch traffic is fluid), and TCP
dynamics — specs with ``tcps`` are rejected.  Cross-validation
tolerances against the packet engine live in
``tests/fluid/test_equivalence.py`` and the README.

Two interchangeable backends: a pure-Python reference (authoritative,
always available) and a vectorized NumPy path (the scale engine,
~100–1000x faster at 10k+ flows).  ``REPRO_FLUID_BACKEND=pure|numpy``
pins one; the default uses NumPy when installed and the population is
large enough to benefit.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import os
import time
from numbers import Integral, Real
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.packet import ServiceClass
from repro.net.routing import RoutingError
from repro.scenario.disciplines import resolve_port_discipline
from repro.scenario.runner import DisciplineRunResult, FlowStats
from repro.scenario.spec import (
    DisciplineSpec,
    FlowSpec,
    GuaranteedRequest,
    PredictedRequest,
    ScenarioSpec,
)
from repro.sim.randomness import KeyedDraws, RandomStreams

try:  # NumPy is optional everywhere in this repo; pure Python is
    import numpy as _np  # authoritative and the only hard dependency.
except ImportError:  # pragma: no cover - exercised on numpy-free CI
    _np = None

#: Discipline kinds that weight flows by clock rate (isolating).
FAIR_KINDS = frozenset({"wfq", "virtual_clock", "round_robin", "drr"})
#: Discipline kinds that allocate in strict service-tier order.
TIERED_KINDS = frozenset({"unified", "priority"})

#: Phase stream salt — the fluid analogue of the runner's
#: ``source:<name>`` streams: phases depend only on (spec.seed, flow
#: name), so disciplines of one spec see identical arrivals (the
#: paper's A/B methodology) and reruns are bit-identical.
_PHASE_SALT = "fluid-phase"

#: Keys of :attr:`FluidSimulation.kernel_stats`: phase-grid columns
#: evaluated; epochs served in a fused closed-form prefix / through the
#: exact single-epoch waterfill / replayed by fast-forward; waterfill
#: invocations and rounds; and, per (link-state transition, flow) of the
#: control plan, paths that came back as the base path object itself
#: versus paths resolved on the masked graph.
KERNEL_STATS = (
    "grid_columns", "epochs_fused", "epochs_single",
    "epochs_fast_forwarded", "waterfill_calls", "waterfill_rounds",
    "plan_paths_inherited", "plan_paths_rewalked",
)

_BACKEND_ENV = "REPRO_FLUID_BACKEND"


@dataclasses.dataclass(frozen=True)
class FluidOptions:
    """Tuning knobs of the fluid engine (all have sound defaults).

    Attributes:
        epoch_seconds: fixed epoch length; ``None`` picks one
            automatically — fine enough to resolve the shortest on/off
            period at small populations, coarsening so the whole run
            stays within ``target_flow_epochs`` flow-advances at large
            ones (that budget is what makes a 100k-flow fat-tree finish
            in tens of seconds).
        target_flow_epochs: auto-epoch budget, in flow-epoch advances.
        max_rounds: water-filling round cap per tier per epoch; when
            exhausted the remaining flows get one final demand-capped
            proportional fill (counted in ``waterfill_exhausted``).
        backend: ``"auto"`` / ``"numpy"`` / ``"pure"``.
        record_flows: accumulate per-flow delay sample lists for
            recorded flows (the default).  Benchmark and sweep runs
            that only read aggregate results turn this off to skip the
            per-epoch sample bookkeeping; ``FlowStats`` rows still
            appear, with zeroed delay statistics.
        fast_forward: let the NumPy kernel jump steady constant-demand
            intervals in closed form; results stay bit-identical to
            the epoch-by-epoch schedule (``False``, the reference the
            equivalence tests step) — see :mod:`repro.fluid.kernel`.
        fuse_epochs: epochs per fused kernel block (0 = sized
            automatically from the incidence, the default).
    """

    epoch_seconds: Optional[float] = None
    target_flow_epochs: float = 12e6
    max_rounds: int = 200
    backend: str = "auto"
    record_flows: bool = True
    fast_forward: bool = True
    fuse_epochs: int = 0

    def __post_init__(self):
        def require(ok: bool, field: str, expected: str) -> None:
            if not ok:
                raise ValueError(
                    f"FluidOptions.{field} must be {expected}, "
                    f"got {getattr(self, field)!r}"
                )

        def positive(value) -> bool:
            return isinstance(value, Real) and 0.0 < value < math.inf

        require(
            self.epoch_seconds is None or positive(self.epoch_seconds),
            "epoch_seconds", "a positive, finite number of seconds",
        )
        require(
            positive(self.target_flow_epochs),
            "target_flow_epochs", "a positive, finite budget",
        )
        require(
            isinstance(self.max_rounds, Integral) and self.max_rounds >= 1,
            "max_rounds", "an integer >= 1",
        )
        require(
            self.backend in ("auto", "numpy", "pure"),
            "backend", "one of auto|numpy|pure",
        )
        require(
            isinstance(self.fuse_epochs, Integral) and self.fuse_epochs >= 0,
            "fuse_epochs", "an integer >= 0 (0 sizes blocks automatically)",
        )

    @classmethod
    def from_env(cls, **overrides) -> "FluidOptions":
        backend = os.environ.get(_BACKEND_ENV)
        if not backend or "backend" in overrides:
            return cls(**overrides)
        try:
            return cls(backend=backend, **overrides)
        except ValueError as exc:
            # Name the variable when the rejected value came from it.
            if "FluidOptions.backend " in str(exc):
                raise ValueError(
                    f"{exc} (from {_BACKEND_ENV}={backend!r})"
                ) from None
            raise


# ----------------------------------------------------------------------
# Spec compilation
# ----------------------------------------------------------------------


def _routes_for(spec: ScenarioSpec):
    """``(links_of, pair_index)``: per-flow link-index paths (positions
    in ``topology.links``) — the packet engine's static routes, or the
    seeded ECMP choice when the spec carries an ``ecmp_seed`` — and the
    :func:`~repro.net.fabric.pair_link_index` they resolve through."""
    from repro.net.fabric import EcmpPaths, pair_link_index, walk_links
    from repro.scenario.generators import topology_routes

    if spec.ecmp_seed is not None:
        chooser = EcmpPaths.shared(spec.topology, seed=spec.ecmp_seed)
        return (
            lambda flow: chooser.links(
                flow.source_host, flow.dest_host, flow.name
            ),
            chooser.pair_index,
        )
    routing = topology_routes(spec.topology)
    pair_index = pair_link_index(spec.topology)
    return (
        lambda flow: walk_links(
            routing.path(flow.source_host, flow.dest_host), pair_index
        ),
        pair_index,
    )


def reserved_rate(request) -> Optional[float]:
    """Bits/s a reservation request holds on every link of its path:
    the clock rate of a guaranteed request, the token rate of a
    predicted one (None without a request)."""
    if isinstance(request, GuaranteedRequest):
        return request.clock_rate_bps
    if isinstance(request, PredictedRequest):
        return request.token_rate_bps
    return None


def fits(committed: Sequence[float], rate: float, links: Sequence[int],
         quota: Optional[float], caps: Sequence[float]) -> bool:
    """The admission test: ``rate`` more bits/s stay within the realtime
    quota of every link in ``links`` (always, without a quota)."""
    return quota is None or all(
        committed[l] + rate <= quota * caps[l] for l in links
    )


def _admit(spec: ScenarioSpec, path_links: Dict[str, Tuple[int, ...]],
           link_rates: Sequence[float]):
    """Static admission: the fluid stand-in for the signaling round-trip.

    Request-bearing flows visit admission in establish order (mirroring
    :class:`~repro.scenario.runner.ScenarioContext`): a request is
    granted iff its :func:`reserved_rate` :func:`fits` under the
    realtime quota on every path link given earlier commitments.
    Denied flows run as datagram — the paper's fallback service.
    Without an ``admission`` block every request is honoured (the
    runner's direct-install path).

    Returns ``(service, clock, admitted, denied, committed)``: per-flow
    resolved ``(ServiceClass, priority)``, per-flow granted clock rate
    (or None), the admitted/denied flow-name lists, and the per-link
    committed bits/s vector — the starting point the control plane's
    re-admission replay works against.
    """
    quota = spec.admission.realtime_quota if spec.admission else None
    committed = [0.0] * len(link_rates)
    service: Dict[str, Tuple[ServiceClass, int]] = {}
    clock: Dict[str, Optional[float]] = {}
    admitted: List[str] = []
    denied: List[str] = []

    if not spec.establish_order and all(
        f.request is None for f in spec.flows
    ):
        # Nothing to admit (the common generated-population shape):
        # every flow runs as declared.
        service = {
            f.name: (f.service_class, f.priority_class) for f in spec.flows
        }
        clock = dict.fromkeys(service)
        return service, clock, admitted, denied, committed

    flows_by_name = {flow.name: flow for flow in spec.flows}
    order = list(spec.establish_order or ())
    listed = set(order)
    order += [
        f.name for f in spec.flows
        if f.request is not None and f.name not in listed
    ]
    for name in order:
        flow = flows_by_name[name]
        rate = reserved_rate(flow.request)
        if rate is None:
            continue
        links = path_links[name]
        guaranteed = isinstance(flow.request, GuaranteedRequest)
        if fits(committed, rate, links, quota, link_rates):
            for l in links:
                committed[l] += rate
            service[name] = (
                (ServiceClass.GUARANTEED, 0) if guaranteed
                else (ServiceClass.PREDICTED, flow.priority_class)
            )
            clock[name] = rate if guaranteed else None
            admitted.append(name)
        else:
            service[name] = (ServiceClass.DATAGRAM, 0)
            clock[name] = None
            denied.append(name)
    for flow in spec.flows:
        if flow.name not in service:
            service[flow.name] = (flow.service_class, flow.priority_class)
            clock[flow.name] = None
    return service, clock, admitted, denied, committed


class FluidSimulation:
    """One discipline's fluid run, built from a spec.

    Mirrors the :class:`~repro.scenario.runner.ScenarioContext` surface
    the executor needs: construct, :meth:`run`, :meth:`collect`.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        discipline: DisciplineSpec,
        options: Optional[FluidOptions] = None,
    ):
        if spec.tcps:
            # O(shown): a 5-element heap selection, never a full sort of
            # a million-flow name list just to print five of them.
            total = len(spec.tcps)
            names = heapq.nsmallest(5, (t.name for t in spec.tcps))
            shown = ", ".join(repr(n) for n in names)
            if total > 5:
                shown += f", ... ({total} total)"
            raise ValueError(
                f"the fluid engine does not model TCP dynamics: spec "
                f"{spec.name!r} carries TCP flow(s) {shown}; run this "
                f"spec on the packet engine (engine=\"packet\" on the "
                f"spec, REPRO_ENGINE=packet, or --engine packet)"
            )
        self.spec = spec
        self.discipline = discipline
        self.options = options or FluidOptions.from_env()

        topology = spec.topology
        self.link_names: Tuple[str, ...] = topology.link_names
        self.caps = [float(link.rate_bps) for link in topology.links]
        # Buffer bound in bits: packets x the rate-weighted mean packet
        # size of the population (the packet engine bounds in packets;
        # a single spec-wide mean keeps the bound flow-independent).
        mean_size = (
            sum(f.average_rate_pps * f.packet_size_bits * f.packet_size_bits
                for f in spec.flows)
            / sum(f.average_rate_pps * f.packet_size_bits
                  for f in spec.flows)
            if spec.flows else 1000.0
        )
        self.buffer_bits = [
            float(link.buffer_packets) * mean_size for link in topology.links
        ]

        # -- routes ----------------------------------------------------
        links_of, pair_index = _routes_for(spec)
        self.paths: List[Tuple[int, ...]] = []
        path_links: Dict[str, Tuple[int, ...]] = {}
        for flow in spec.flows:
            try:
                links = links_of(flow)
            except RoutingError as exc:
                raise RoutingError(f"flow {flow.name!r}: {exc}") from None
            self.paths.append(links)
            path_links[flow.name] = links

        # -- admission + per-flow service resolution -------------------
        service, clock, self.admitted, self.denied, committed = _admit(
            spec, path_links, self.caps
        )

        # -- discipline family: weights, modes, tiers ------------------
        # Per-port overrides resolve per link; a flow is governed by the
        # discipline at its minimum-capacity path link (its structural
        # bottleneck) — the documented fluid approximation of mixed
        # per-tier fabrics.
        resolved: Dict[int, DisciplineSpec] = {
            i: resolve_port_discipline(discipline, name)
            for i, name in enumerate(self.link_names)
        }
        self._resolved = resolved
        self._granted_clock = clock
        run_tiered = any(d.kind in TIERED_KINDS for d in resolved.values())
        num_predicted = max(
            [d.param_dict.get("num_predicted_classes", 2)
             for d in resolved.values() if d.kind in TIERED_KINDS] or [2]
        )
        if run_tiered:
            num_predicted = max(
                [num_predicted]
                + [service[f.name][1] + 1 for f in spec.flows
                   if service[f.name][0] is ServiceClass.PREDICTED]
            )
        self.num_tiers = 2 + num_predicted if run_tiered else 1

        F = len(spec.flows)
        self.flow_names = [f.name for f in spec.flows]
        self.size_bits = [float(f.packet_size_bits) for f in spec.flows]
        self.avg_bps = [
            f.average_rate_pps * f.packet_size_bits for f in spec.flows
        ]
        self.peak_bps = []
        self.duty = []
        self.period = []
        self.phase = []
        self.tier = []
        self.fair = []           # clock-weighted (isolated) vs demand-shared
        self.weight_static = []  # clock weight for fair flows; unused else
        self.realtime = []
        self.record = [bool(f.record) for f in spec.flows]
        # Local binds: this loop runs once per flow and dominates the
        # 1M-flow compile.
        seed = spec.seed
        paths = self.paths
        classify = self._classify
        peak_append = self.peak_bps.append
        duty_append = self.duty.append
        period_append = self.period.append
        phase_append = self.phase.append
        tier_append = self.tier.append
        realtime_append = self.realtime.append
        fair_append = self.fair.append
        weight_append = self.weight_static.append
        for f, flow in enumerate(spec.flows):
            avg_pps = flow.average_rate_pps
            peak_pps = flow.peak_rate_pps or 2.0 * avg_pps
            peak_append(peak_pps * flow.packet_size_bits)
            duty = avg_pps / peak_pps
            if duty > 1.0:
                duty = 1.0
            duty_append(duty)
            period_append(
                flow.mean_burst_packets / avg_pps / max(duty, 1e-12)
            )
            phase_append(KeyedDraws(seed, _PHASE_SALT, flow.name).uniform())
            cls, priority = service[flow.name]
            realtime_append(cls.is_realtime)
            if run_tiered:
                if cls is ServiceClass.GUARANTEED:
                    tier_append(0)
                elif cls is ServiceClass.PREDICTED:
                    tier_append(1 + min(priority, num_predicted - 1))
                else:
                    tier_append(1 + num_predicted)
            else:
                tier_append(0)
            fair, weight = classify(f, paths[f])
            fair_append(fair)
            weight_append(weight)

        # -- epoch grid ------------------------------------------------
        duration = float(spec.duration)
        if self.options.epoch_seconds is not None:
            epoch = float(self.options.epoch_seconds)
        else:
            budget = self.options.target_flow_epochs
            if self.options.backend == "pure" or (
                self.options.backend == "auto" and _np is None
            ):
                budget /= 16.0  # pure Python advances ~16x slower
            shortest = min(self.period) if self.period else duration
            fine = max(shortest / 4.0, duration / 65536.0)
            coarse = duration / max(64.0, budget / max(F, 1))
            epoch = max(fine, min(coarse, duration / 8.0)) if F else duration
        self.epoch_seconds = min(epoch, duration) if duration else epoch
        self.num_epochs = (
            max(1, math.ceil(duration / self.epoch_seconds - 1e-9))
            if duration > 0
            else 0
        )

        #: What the engine did, as plain integer counts (not part of
        #: ``to_dict``/``comparable_dict``): filled by the NumPy kernel
        #: as it runs, plan entries by the control-plan compile.
        self.kernel_stats: Dict[str, int] = dict.fromkeys(KERNEL_STATS, 0)

        # -- control plane: outage schedule -> link-state epochs -------
        # ``epoch_starts`` stays None on the outage-free path, keeping
        # both backends on their original (bit-identical) uniform grid
        # arithmetic; with transitions it becomes the uniform grid split
        # at every link-state change, and ``segments`` groups epochs by
        # link state.
        self.control_plan = None
        self.segments = None
        self.epoch_starts: Optional[List[float]] = None
        self.epoch_ends: Optional[List[float]] = None
        if spec.outages is not None:
            from repro.fluid.control import FluidControlPlan

            rng = None
            if spec.outages.rate_per_second > 0:
                from repro.scenario.runner import OUTAGE_STREAM_NAME

                rng = RandomStreams(seed=spec.seed).stream(
                    OUTAGE_STREAM_NAME
                )
            self.control_plan = FluidControlPlan.compile(
                spec,
                self.link_names,
                self.caps,
                self.paths,
                pair_index,
                admitted=self.admitted,
                committed=committed,
                rng=rng,
            )
            (
                self.kernel_stats["plan_paths_inherited"],
                self.kernel_stats["plan_paths_rewalked"],
            ) = self.control_plan.path_counts
            for state in self.control_plan.states:
                self._classify_state(state)
            if self.control_plan.boundaries:
                self._build_segments(self.control_plan)

        # -- run accumulators (plain Python; backends fill them) -------
        self.generated_bits = [0.0] * F
        self.delivered_bits = [0.0] * F
        self.dropped_bits = [0.0] * F
        self.backlog_bits = [0.0] * F
        # Control-plane ledgers: per-flow bits lost to failures (boundary
        # flushes + no-route sheds), per-flow no-route packets, per-link
        # flushed packets, and the total flushed-packet count.
        self.failure_drop_bits = [0.0] * F
        self.no_route_packets = [0.0] * F
        self.link_failure_packets = [0.0] * len(self.caps)
        self.flushed_packets = 0.0
        self.link_served_bits = [0.0] * len(self.caps)
        self.link_drop_packets = [0.0] * len(self.caps)
        self.link_wait_num = [0.0] * len(self.caps)   # wait x served bits
        self.link_wait_den = [0.0] * len(self.caps)
        self.link_realtime_bits = [0.0] * len(self.caps)
        # Per recorded flow: [(delay_seconds, delivered_packets), ...].
        # ``record_flows=False`` (benchmark/sweep mode) skips the whole
        # sample bookkeeping; FlowStats rows still appear, zero-delayed.
        self.record_samples = bool(self.options.record_flows)
        self.samples: Dict[int, List[Tuple[float, float]]] = (
            {f: [] for f in range(F) if self.record[f]}
            if self.record_samples else {}
        )
        self.events_processed = 0
        self.waterfill_exhausted = 0
        self.max_capacity_overuse = 0.0   # relative, across epochs/links
        self.max_buffer_overuse = 0.0     # relative, after clamping
        self._wall_seconds: Optional[float] = None
        self._ran = False

        # -- compiled incidence (CSR), built once and shared by the
        # kernel's waterfill, load checks, and accumulators -------------
        self.incidence = None
        if _np is not None:
            from repro.fluid.kernel import CsrIncidence

            self.incidence = CsrIncidence(self.paths, len(self.caps))

    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """The backend :meth:`run` will use (resolved from options)."""
        choice = self.options.backend
        if choice == "auto":
            return "numpy" if _np is not None else "pure"
        if choice == "numpy" and _np is None:
            raise RuntimeError("numpy backend requested but numpy is absent")
        return choice

    def _classify(self, f: int, path: Sequence[int]) -> Tuple[bool, float]:
        """``(fair, weight)`` of flow ``f`` routed over ``path``: whether
        it is clock-weighted (isolated) rather than demand-shared, and
        its clock weight.  The flow is governed by the discipline at the
        path's minimum-capacity link."""
        governing = None
        if path:
            bottleneck = min(path, key=self.caps.__getitem__)
            governing = self._resolved[bottleneck]
        granted = self._granted_clock[self.flow_names[f]]
        if granted is not None and (
            governing is None
            or governing.kind in FAIR_KINDS
            or governing.kind in TIERED_KINDS
        ):
            # An installed clock rate isolates the flow wherever a
            # rate-capable scheduler runs.
            return True, granted
        if governing is not None and governing.kind in FAIR_KINDS:
            params = governing.param_dict
            share = params.get("equal_share_flows")
            if share:
                rate = self.caps[bottleneck] / share
            else:
                rate = params.get("auto_register_rate_bps")
            # Unregistered flows under WFQ-family schedulers share
            # proportionally to their offered rate.
            return True, rate or self.avg_bps[f]
        return False, 0.0

    # -- control plane (compile-time helpers) --------------------------
    def _classify_state(self, state) -> None:
        """Fill a plan state's ``fair``/``weight`` lists: rerouted flows
        are re-classified at the bottleneck of their *new* path;
        unchanged flows keep their base classification bit-for-bit.  The
        all-up state shares the base lists by identity."""
        if state.paths is self.paths:
            state.fair = self.fair
            state.weight = self.weight_static
            return
        fair = list(self.fair)
        weight = list(self.weight_static)
        base_paths = self.paths
        for f, path in enumerate(state.paths):
            if path != base_paths[f]:
                fair[f], weight[f] = self._classify(f, path)
        state.fair = fair
        state.weight = weight

    def _build_segments(self, plan) -> None:
        """Split the uniform epoch grid at the plan's time boundaries
        and group the epochs into link-state segments.

        The uniform grid points and truncation (``min(duration, t0 +
        epoch)``) are preserved exactly — boundary times strictly inside
        an epoch split it in two; times landing on a grid point (or at
        the run's very end) insert nothing — so an outage-free stretch
        of the split grid steps the identical ``(t0, t1)`` pairs the
        unsplit grid would."""
        import bisect

        from repro.fluid.control import FluidSegment

        if not self.num_epochs:
            self.segments = [
                FluidSegment(0, 0, plan.boundaries[-1].state, ())
            ]
            return
        duration = float(self.spec.duration)
        eps = self.epoch_seconds
        btimes = [b.time for b in plan.boundaries]
        starts: List[float] = []
        ends: List[float] = []
        for e in range(self.num_epochs):
            t0 = e * eps
            t1 = min(duration, t0 + eps)
            lo = bisect.bisect_right(btimes, t0)
            hi = bisect.bisect_left(btimes, t1)
            pts = [t0] + btimes[lo:hi] + [t1]
            for a, b in zip(pts, pts[1:]):
                starts.append(a)
                ends.append(b)
        self.epoch_starts = starts
        self.epoch_ends = ends
        self.num_epochs = len(starts)
        boundary_epoch: Dict[float, int] = {}
        btset = set(btimes)
        for i, s in enumerate(starts):
            if s in btset and s not in boundary_epoch:
                boundary_epoch[s] = i
        segments = []
        prev_e, prev_state, prev_flush = 0, plan.base_state, ()
        for boundary in plan.boundaries:
            e = boundary_epoch.get(boundary.time)
            if e is None:
                e = (
                    self.num_epochs
                    if boundary.time >= ends[-1]
                    else bisect.bisect_left(starts, boundary.time)
                )
            segments.append(
                FluidSegment(prev_e, e, prev_state, prev_flush)
            )
            prev_e, prev_state = e, boundary.state
            prev_flush = boundary.flush
        segments.append(
            FluidSegment(prev_e, self.num_epochs, prev_state, prev_flush)
        )
        self.segments = segments

    def _pure_flush(self, flush) -> None:
        """Boundary flush (pure backend): a flow whose path crossed a
        newly-failed link (or was torn down) loses its backlog —
        ledgered per flow as failure drops and per link as flushed
        packets, the fluid twin of ``Port.flush_queue``."""
        backlog = self.backlog_bits
        for f, l in flush:
            bits = backlog[f]
            if bits > 0.0:
                self.failure_drop_bits[f] += bits
                packets = bits / self.size_bits[f]
                self.link_failure_packets[l] += packets
                self.flushed_packets += packets
                backlog[f] = 0.0

    def _on_seconds(self, f: int, t0: float, t1: float) -> float:
        """Closed-form on-time of flow ``f``'s periodic burst train
        overlapping ``[t0, t1)`` — exact for any epoch size."""
        period = self.period[f]
        duty = self.duty[f]
        if duty >= 1.0:
            return t1 - t0
        a = t0 / period + self.phase[f]
        b = t1 / period + self.phase[f]

        def measure(u: float) -> float:
            whole = math.floor(u)
            return duty * whole + min(u - whole, duty)

        return (measure(b) - measure(a)) * period

    # ------------------------------------------------------------------
    def run(self) -> "FluidSimulation":
        started = time.perf_counter()
        if not self._ran:
            if self.num_epochs:
                if self.backend == "numpy":
                    self._advance_numpy()
                else:
                    self._advance_pure()
            self._ran = True
        self._wall_seconds = (self._wall_seconds or 0.0) + (
            time.perf_counter() - started
        )
        return self

    # -- pure-Python reference backend ---------------------------------
    def _advance_pure(self) -> None:
        if self.segments is None:
            self._pure_span(
                0, self.num_epochs, self.paths, self.fair,
                self.weight_static, (), (),
            )
            return
        for seg in self.segments:
            self._pure_flush(seg.flush)
            if seg.e1 > seg.e0:
                st = seg.state
                self._pure_span(
                    seg.e0, seg.e1, st.paths, st.fair, st.weight,
                    st.noroute, st.inactive,
                )

    def _pure_span(
        self, e_begin, e_end, paths, fair, weight_static, noroute, inactive
    ) -> None:
        """Advance epochs ``[e_begin, e_end)`` under one link state:
        ``paths``/``fair``/``weight_static`` are the state's per-flow
        views, ``noroute`` flows shed their arrivals (ledgered as
        failure drops), ``inactive`` (torn-down) flows generate
        nothing.  With ``epoch_starts`` unset this reduces exactly to
        the original uniform-grid loop."""
        F = len(self.flow_names)
        L = len(self.caps)
        T = self.num_tiers
        duration = float(self.spec.duration)
        warmup = float(self.spec.warmup)
        eps = [max(1e-9 * c, 1e-6) for c in self.caps]
        skip = set(noroute) | set(inactive)
        tier_flows = [
            [f for f in range(F) if self.tier[f] == t and paths[f]]
            for t in range(T)
        ]
        unrouted = [
            f for f in range(F) if not paths[f] and f not in skip
        ]
        backlog = self.backlog_bits
        bottleneck = [-1] * F

        for e in range(e_begin, e_end):
            if self.epoch_starts is None:
                t0 = e * self.epoch_seconds
                t1 = min(duration, t0 + self.epoch_seconds)
            else:
                t0 = self.epoch_starts[e]
                t1 = self.epoch_ends[e]
            dt = t1 - t0
            if dt <= 0:
                break
            arrival = [
                self.peak_bps[f] * self._on_seconds(f, t0, t1)
                for f in range(F)
            ]
            for f in noroute:
                shed = arrival[f]
                if shed > 0.0:
                    # No route after reconvergence: the source keeps
                    # emitting, the network drops at the first hop.
                    self.generated_bits[f] += shed
                    self.failure_drop_bits[f] += shed
                    self.no_route_packets[f] += shed / self.size_bits[f]
                    arrival[f] = 0.0
            for f in inactive:
                arrival[f] = 0.0
            demand = [(arrival[f] + backlog[f]) / dt for f in range(F)]
            weight = [
                weight_static[f] if fair[f] else demand[f]
                for f in range(F)
            ]
            rate = [0.0] * F
            for f in range(F):
                bottleneck[f] = -1
            slack = list(self.caps)
            for t in range(T):
                self._waterfill_pure(
                    tier_flows[t], paths, demand, weight, rate,
                    bottleneck, slack, eps,
                )
            for f in unrouted:
                rate[f] = demand[f]

            # Served bits, backlog update, buffer clamp (drop high tiers
            # first), per-link queues, delays, accumulators.
            used = [0.0] * L
            for f in range(F):
                r = rate[f]
                if r > 0:
                    for l in paths[f]:
                        used[l] += r
            for l in range(L):
                over = used[l] / self.caps[l] - 1.0
                if over > self.max_capacity_overuse:
                    self.max_capacity_overuse = over

            queue = [[0.0] * T for _ in range(L)]
            for f in range(F):
                served = rate[f] * dt
                new_backlog = backlog[f] + arrival[f] - served
                backlog[f] = new_backlog if new_backlog > 0 else 0.0
                self.generated_bits[f] += arrival[f]
                self.delivered_bits[f] += served
                if backlog[f] > 0 and paths[f]:
                    if bottleneck[f] < 0:
                        bottleneck[f] = paths[f][0]
                    queue[bottleneck[f]][self.tier[f]] += backlog[f]

            scale = [[1.0] * T for _ in range(L)]
            for l in range(L):
                remaining = self.buffer_bits[l]
                for t in range(T):
                    q = queue[l][t]
                    if q <= 0:
                        continue
                    keep = min(q, remaining)
                    scale[l][t] = keep / q
                    remaining -= keep
                    queue[l][t] = keep
            for f in range(F):
                if backlog[f] > 0 and bottleneck[f] >= 0:
                    s = scale[bottleneck[f]][self.tier[f]]
                    if s < 1.0:
                        dropped = backlog[f] * (1.0 - s)
                        backlog[f] -= dropped
                        self.dropped_bits[f] += dropped
                        self.link_drop_packets[bottleneck[f]] += (
                            dropped / self.size_bits[f]
                        )

            cumwait = [[0.0] * T for _ in range(L)]
            for l in range(L):
                acc = 0.0
                for t in range(T):
                    acc += queue[l][t]
                    cumwait[l][t] = acc / self.caps[l]

            for f in range(F):
                served = rate[f] * dt
                if served > 0:
                    for l in paths[f]:
                        self.link_served_bits[l] += served
                        self.link_wait_num[l] += (
                            cumwait[l][self.tier[f]] * served
                        )
                        self.link_wait_den[l] += served
                        if self.realtime[f]:
                            self.link_realtime_bits[l] += served
                if self.record_samples and self.record[f] and t0 >= warmup:
                    if fair[f]:
                        delay = backlog[f] / rate[f] if rate[f] > 0 else 0.0
                    else:
                        delay = sum(
                            cumwait[l][self.tier[f]] for l in paths[f]
                        )
                    self.samples[f].append(
                        (delay, served / self.size_bits[f])
                    )
            self.events_processed += F

    def _waterfill_pure(
        self, flows, paths, demand, weight, rate, bottleneck, slack, eps
    ) -> None:
        """Demand-bounded weighted max-min over one tier's flows, eating
        into ``slack`` (shared across tiers, already reduced by earlier
        tiers).  Freezes flows either at their demand or at the first
        link of theirs that saturates (recorded in ``bottleneck``).
        ``paths`` is the current link state's per-flow route view."""
        active = {
            f for f in flows if demand[f] > 0 and weight[f] > 0
        }
        rounds = 0
        while active and rounds < self.options.max_rounds:
            rounds += 1
            wsum: Dict[int, float] = {}
            for f in active:
                for l in paths[f]:
                    wsum[l] = wsum.get(l, 0.0) + weight[f]
            lam = min(
                (max(slack[l], 0.0) / wsum[l] for l in wsum), default=0.0
            )
            hit = [
                f for f in active
                if demand[f] - rate[f] <= lam * weight[f] * (1 + 1e-12)
            ]
            if hit:
                for f in hit:
                    rate[f] = demand[f]
                    active.discard(f)
            else:
                for f in active:
                    rate[f] += lam * weight[f]
            # Exact slack from scratch (over *all* flows, so earlier
            # tiers' allocations stay counted) — mirrors the NumPy
            # backend's bincount and is immune to incremental drift.
            used_all = [0.0] * len(self.caps)
            for g, r in enumerate(rate):
                if r > 0:
                    for l in paths[g]:
                        used_all[l] += r
            for l in range(len(self.caps)):
                slack[l] = self.caps[l] - used_all[l]
            frozen = []
            for f in active:
                saturated = [
                    l for l in paths[f] if slack[l] <= eps[l]
                ]
                if saturated:
                    bottleneck[f] = min(saturated)
                    frozen.append(f)
            for f in frozen:
                active.discard(f)
        if active:
            # Round cap exhausted: one final demand-capped proportional
            # fill so no capacity is silently stranded.
            self.waterfill_exhausted += len(active)
            wsum = {}
            for f in active:
                for l in paths[f]:
                    wsum[l] = wsum.get(l, 0.0) + weight[f]
            lam = min(
                (max(slack[l], 0.0) / wsum[l] for l in wsum), default=0.0
            )
            for f in active:
                rate[f] = min(demand[f], rate[f] + lam * weight[f])

    # -- NumPy backend --------------------------------------------------
    def _advance_numpy(self) -> None:
        from repro.fluid.kernel import run_kernel

        run_kernel(self)

    # ------------------------------------------------------------------
    def collect(self) -> DisciplineRunResult:
        """Snapshot the fluid run into the packet engine's result shape."""
        spec = self.spec
        duration = float(spec.duration) or 1.0
        flow_stats = []
        for f, flow in enumerate(spec.flows):
            if not self.record[f]:
                continue
            flow_stats.append(self._flow_stats(f, flow))
        invariants = None
        if spec.validate:
            invariants = self._check_invariants()
        accounting = bool(spec.link_accounting)
        datagram_dropped = 0
        if accounting:
            datagram_dropped = int(round(sum(
                self.dropped_bits[f] / self.size_bits[f]
                for f in range(len(spec.flows))
                if not self.realtime[f]
            )))
        return DisciplineRunResult(
            discipline=self.discipline.name,
            flows=tuple(flow_stats),
            link_utilizations=tuple(
                (name, self.link_served_bits[l] / (self.caps[l] * duration))
                for l, name in enumerate(self.link_names)
            ),
            link_queueing=tuple(
                (
                    name,
                    (
                        self.link_wait_num[l] / self.link_wait_den[l]
                        if self.link_wait_den[l]
                        else 0.0
                    ),
                )
                for l, name in enumerate(self.link_names)
            ),
            link_drops=tuple(
                (
                    name,
                    int(round(
                        self.link_drop_packets[l]
                        + self.link_failure_packets[l]
                    )),
                )
                for l, name in enumerate(self.link_names)
            ),
            port_disciplines=tuple(sorted(
                (name, resolve_port_discipline(self.discipline, name).name)
                for name in self.link_names
            )),
            realtime_fraction=tuple(
                (
                    name,
                    (
                        self.link_realtime_bits[l] / self.link_served_bits[l]
                        if self.link_served_bits[l]
                        else 0.0
                    ),
                )
                for l, name in enumerate(self.link_names)
            ) if accounting else (),
            datagram_dropped=datagram_dropped,
            tcp_stats=(),
            events_processed=self.events_processed,
            wall_seconds=self._wall_seconds or 0.0,
            worker_pid=os.getpid(),
            invariants=invariants,
            control=(
                self.control_plan.control_stats(
                    self.flow_names,
                    self.no_route_packets,
                    int(round(self.flushed_packets)),
                )
                if self.control_plan is not None
                else None
            ),
        )

    def _flow_stats(self, f: int, flow: FlowSpec) -> FlowStats:
        samples = [s for s in self.samples.get(f, ()) if s[1] > 0]
        total_w = sum(w for _, w in samples)
        if total_w > 0:
            mean = sum(d * w for d, w in samples) / total_w
            max_d = max(d for d, _ in samples)
            min_d = min(d for d, _ in samples)
        else:
            mean = max_d = min_d = 0.0
        generated = int(round(self.generated_bits[f] / self.size_bits[f]))
        received = int(round(self.delivered_bits[f] / self.size_bits[f]))
        return FlowStats(
            name=flow.name,
            generated=generated,
            emitted=generated,
            filtered=0,
            received=received,
            recorded=int(round(total_w)),
            mean_seconds=mean,
            max_seconds=max_d,
            jitter_seconds=max_d - min_d if total_w > 0 else 0.0,
            percentiles=tuple(
                (pct, self._weighted_percentile(samples, total_w, pct))
                for pct in self.spec.percentile_points
            ),
        )

    @staticmethod
    def _weighted_percentile(
        samples: List[Tuple[float, float]], total_w: float, pct: float
    ) -> float:
        """Delivered-packet-weighted nearest-rank percentile."""
        if total_w <= 0:
            return 0.0
        target = (pct / 100.0) * total_w
        acc = 0.0
        for delay, w in sorted(samples):
            acc += w
            if acc >= target:
                return delay
        return max(d for d, _ in samples)

    # ------------------------------------------------------------------
    def _check_invariants(self):
        """Fluid-specific invariants, in the packet layer's
        :class:`~repro.validate.InvariantCheck` currency so ``--validate``
        and sweep assertions work identically across engines."""
        from repro.validate import InvariantCheck

        F = len(self.flow_names)
        L = len(self.caps)
        cap_tol = 1e-6
        cap_ok = self.max_capacity_overuse <= cap_tol
        checks = [
            InvariantCheck(
                name="fluid-link-capacity",
                ok=cap_ok,
                checked=L * max(self.num_epochs, 1),
                violations=0 if cap_ok else 1,
                detail=(
                    f"max allocation overuse "
                    f"{self.max_capacity_overuse:.2e} (rel)"
                ),
            )
        ]
        bad = 0
        worst = 0.0
        for f in range(F):
            lhs = self.generated_bits[f]
            rhs = (
                self.delivered_bits[f]
                + self.backlog_bits[f]
                + self.dropped_bits[f]
                + self.failure_drop_bits[f]
            )
            err = abs(lhs - rhs)
            tol = 1e-6 * max(lhs, 1.0) + 1.0
            if err > tol:
                bad += 1
                worst = max(worst, err)
        checks.append(
            InvariantCheck(
                name="fluid-flow-conservation",
                ok=bad == 0,
                checked=F,
                violations=bad,
                detail=(
                    f"worst imbalance {worst:.3g} bits" if bad else
                    "arrivals = delivered + backlog + dropped "
                    "+ failure drops for all flows"
                ),
            )
        )
        negative = sum(
            1 for f in range(F)
            if self.delivered_bits[f] < -1e-6 or self.backlog_bits[f] < -1e-6
        )
        checks.append(
            InvariantCheck(
                name="fluid-nonnegative",
                ok=negative == 0,
                checked=F,
                violations=negative,
                detail="delivered and backlog stay non-negative",
            )
        )
        buf_ok = self.max_buffer_overuse <= 1e-6
        checks.append(
            InvariantCheck(
                name="fluid-buffer-bounds",
                ok=buf_ok,
                checked=L,
                violations=0 if buf_ok else 1,
                detail="per-link backlog clamped to the buffer bound",
            )
        )
        return tuple(checks)
