"""The fluid engine's control plane: outages compiled to epoch plans.

The packet engine runs its control plane *reactively* — a seeded
:class:`~repro.control.outages.OutageProcess` fires simulator events
into a :class:`~repro.control.controller.LinkStateController`, which
flushes dead ports, recomputes SPF tables, and re-establishes flows.
The fluid engine has no simulator clock, so this module compiles the
same control plane *ahead of time*: the outage schedule is replayed
draw-for-draw (:func:`repro.control.compute_outage_schedule`, off the
same named ``"outage:process"`` stream, so failure schedules pair
across disciplines and engines), every link-state transition becomes an
epoch boundary, and the controller's per-transition decision —
:func:`repro.control.policy.refresh`, the one reroute / re-admission /
accounted-teardown policy both engines share — is folded over the
compiled admission state into a :class:`FluidControlPlan` the backends
execute between epochs.

Semantics per transition:

* **Reroute.**  Every live flow's path is re-resolved against the new
  link state, exactly as ``LinkStateController._reconverge`` refreshes
  every tracked flow, through the same
  :func:`repro.net.fabric.flow_routes` that resolved the base paths:
  non-ECMP specs over :func:`repro.control.spf_from_topology` (the
  build-time BFS on the surviving links), ECMP specs over
  :meth:`repro.net.fabric.EcmpPaths.masked`.  The all-up state is the
  base paths themselves, so the moment the last failure heals every
  path is bit-identical to the pre-failure route.
* **Re-admission.**  When a spec carries an ``admission`` block, a
  flow that was admitted holds a commitment: the shared policy releases
  it along the old links and re-enters admission on the new path, in
  spec order against the live committed vector.  A torn-down flow stops
  generating from that boundary on, like the packet controller stopping
  the source.  Initially-denied flows already run as datagram and keep
  best-effort semantics.
* **Flush.**  A flow whose current path crosses a newly-failed link
  loses its queued backlog at the boundary: the bits are ledgered as
  per-flow ``failure_drops`` and as packet drops on the failed link —
  the fluid analogue of ``Port.flush_queue`` on a dead port.  (The
  packet engine flushes only the one dead queue; the fluid model keeps
  a single path-attributed backlog, so the whole backlog flushes — a
  documented epoch-boundary approximation inside the cross-engine
  tolerances.)  A torn-down flow's residual backlog flushes the same
  way, so per-flow conservation (arrivals = delivered + backlog +
  buffer drops + failure drops) closes across every outage cycle.
* **No-route.**  While an active flow has no route its arrivals are
  ledgered per flow (``no_route_drops`` in the control summary) and as
  ``failure_drops`` — the partition-edge drops of the packet switches.

Transitions are replayed one at a time (a correlated multi-link outage
reconverges once per link, like repeated ``fail_link`` calls), so the
``outages``/``restores``/``recomputes`` counters and per-flow
:class:`~repro.control.FlowRerouteStats` match the packet controller's
accounting; simultaneous transitions then merge into one time boundary
for the traffic model.  Everything here is pure Python and numpy-free —
the plan is data; the backends (:mod:`repro.fluid.reference`,
:mod:`repro.fluid.kernel`) execute it.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.control import (
    ControlPlaneStats,
    LinkTransition,
    compute_outage_schedule,
)
from repro.control.policy import Refresh, TrackedFlow, refresh
from repro.fluid.compile import Classifier, fits, reserved_rate
from repro.net.fabric import flow_routes
from repro.net.routing import RoutingError
from repro.scenario.runner import OUTAGE_STREAM_NAME
from repro.scenario.spec import ScenarioSpec
from repro.sim.randomness import RandomStreams


@dataclasses.dataclass
class PlanState:
    """One link-state epoch's resolved flow state.

    Interned per ``(down links, torn-down flows)`` pair — path
    resolution is a pure function of the down-set, so revisiting a
    link state (every restore, notably) reuses the existing object,
    and the all-up state *is* the compile-time base state: its
    ``paths``/``fair``/``weight`` are the compiled lists by identity
    (the kernel keys its per-state views off ``paths``).

    ``fair``/``weight`` are the discipline classification of each flow
    at its bottleneck on the *current* path: a rerouted flow is
    re-classified there, an unmoved one keeps its base classification
    bit-for-bit.
    """

    paths: List[Tuple[int, ...]]
    noroute: Tuple[int, ...]
    inactive: Tuple[int, ...]
    fair: List[bool]
    weight: List[float]


@dataclasses.dataclass(frozen=True)
class PlanBoundary:
    """One time boundary of the plan: from ``time`` on the run is in
    ``state``; ``flush`` lists ``(flow, link)`` backlog flushes to apply
    at the boundary (deduplicated, first failed link wins)."""

    time: float
    state: PlanState
    flush: Tuple[Tuple[int, int], ...]


@dataclasses.dataclass
class FluidSegment:
    """A run of contiguous epochs ``[e0, e1)`` sharing one link state.
    ``flush`` applies once, entering the segment."""

    e0: int
    e1: int
    state: PlanState
    flush: Tuple[Tuple[int, int], ...]


def split_grid(plan, duration: float, eps: float, num_epochs: int):
    """Split the uniform epoch grid at ``plan``'s time boundaries and
    group the epochs into link-state segments: ``(segments,
    epoch_starts, epoch_ends, num_epochs)``.

    The uniform grid points and truncation (``min(duration, t0 +
    epoch)``) are preserved exactly — boundary times strictly inside
    an epoch split it in two; times landing on a grid point (or at
    the run's very end) insert nothing — so an outage-free stretch
    of the split grid steps the identical ``(t0, t1)`` pairs the
    unsplit grid would."""
    if not num_epochs:
        final = FluidSegment(0, 0, plan.boundaries[-1].state, ())
        return [final], None, None, 0
    btimes = [b.time for b in plan.boundaries]
    starts: List[float] = []
    ends: List[float] = []
    for e in range(num_epochs):
        t0 = e * eps
        t1 = min(duration, t0 + eps)
        lo = bisect.bisect_right(btimes, t0)
        hi = bisect.bisect_left(btimes, t1)
        pts = [t0] + btimes[lo:hi] + [t1]
        for a, b in zip(pts, pts[1:]):
            starts.append(a)
            ends.append(b)
    num_epochs = len(starts)
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
                num_epochs
                if boundary.time >= ends[-1]
                else bisect.bisect_left(starts, boundary.time)
            )
        segments.append(FluidSegment(prev_e, e, prev_state, prev_flush))
        prev_e, prev_state = e, boundary.state
        prev_flush = boundary.flush
    segments.append(FluidSegment(prev_e, num_epochs, prev_state, prev_flush))
    return segments, starts, ends, num_epochs


@dataclasses.dataclass
class FluidControlPlan:
    """A spec's outage schedule compiled into link-state epochs.

    Built once per :class:`~repro.fluid.model.FluidSimulation` by
    :func:`compile_control`.  Holds the effective transition schedule,
    the merged time boundaries with their interned states and flush
    lists, and the controller-shaped counters; :meth:`control_stats`
    combines them with the backends' runtime ledgers into the exact
    :class:`~repro.control.ControlPlaneStats` shape the packet engine
    attaches to its results.
    """

    transitions: Tuple[LinkTransition, ...]
    base_state: PlanState
    boundaries: Tuple[PlanBoundary, ...]
    outages: int
    restores: int
    records: List[TrackedFlow]
    #: Per (transition, live flow) under a non-empty down-set: (paths
    #: that are the base path object, paths resolved on the masked
    #: graph) — ``kernel_stats``'s ``plan_paths_*``.
    path_counts: Tuple[int, int]

    @property
    def recomputes(self) -> int:
        return self.outages + self.restores

    # ------------------------------------------------------------------
    def control_stats(
        self,
        flow_names: Sequence[str],
        no_route_packets: Sequence[float],
        flushed_packets: int,
    ) -> ControlPlaneStats:
        """The packet-shaped control summary: compile-time counters
        plus the backends' runtime no-route/flush ledgers.  Fluid flows
        have no wire to be killed on, so ``wire_killed`` is empty (dead
        in-flight traffic is part of the boundary flush)."""
        no_route = tuple(
            (flow_names[f], count)
            for f in sorted(
                range(len(flow_names)), key=flow_names.__getitem__
            )
            for count in (int(round(no_route_packets[f])),)
            if count
        )
        return ControlPlaneStats(
            outages=self.outages,
            restores=self.restores,
            recomputes=self.recomputes,
            flushed_packets=int(flushed_packets),
            wire_killed=(),
            no_route_drops=no_route,
            flows=tuple(record.stats() for record in self.records),
        )


def compile_control(
    spec: ScenarioSpec,
    link_names: Sequence[str],
    caps: Sequence[float],
    paths: List[Tuple[int, ...]],
    fair: List[bool],
    weight: List[float],
    admitted: Sequence[str],
    committed: Sequence[float],
    classify: Classifier,
    epoch_seconds: float,
    num_epochs: int,
):
    """The compile's last stage — ``spec.outages`` replayed into a plan
    and the epoch grid cut at its boundaries: ``(plan, segments,
    epoch_starts, epoch_ends, num_epochs)``.  A plan without boundaries
    leaves the grid alone (``None`` for all three).

    Args:
        link_names / caps: the compiled link order and rates.
        paths / fair / weight: the compiled per-flow routes and
            classification — the all-up state, reused by identity.
        admitted: flow names holding admission commitments.
        committed: per-link committed bits/s after static admission
            (the re-admission starting point; not modified).
        classify: the compile's classifier, for rerouted flows.
    """
    rng = None
    if spec.outages.rate_per_second > 0:
        # The packet engine's named stream: schedules pair across engines.
        rng = RandomStreams(seed=spec.seed).stream(OUTAGE_STREAM_NAME)
    transitions = compute_outage_schedule(
        spec.outages, link_names, rng, float(spec.duration)
    )
    plan = _PlanBuilder(
        spec, link_names, caps,
        PlanState(paths, (), (), fair, weight),
        frozenset(admitted), list(committed), classify,
    ).build(transitions)
    if not plan.boundaries:
        return plan, None, None, None, num_epochs
    return (plan,) + split_grid(
        plan, float(spec.duration), epoch_seconds, num_epochs
    )


class _PlanBuilder:
    """The transition-by-transition replay behind
    :func:`compile_control`."""

    def __init__(
        self,
        spec: ScenarioSpec,
        link_names: Sequence[str],
        caps: Sequence[float],
        base_state: PlanState,
        admitted: frozenset,
        committed: List[float],
        classify: Classifier,
    ):
        self.spec = spec
        self.link_index = {name: i for i, name in enumerate(link_names)}
        self.caps = caps
        self.base_state = base_state
        self.base_paths = base_state.paths
        self.committed = committed
        self.classify = classify
        self.quota = (
            spec.admission.realtime_quota if spec.admission else None
        )
        self.flows = spec.flows
        # Re-admission applies to flows that hold a commitment — the
        # packet analogue of "core_spec and signaling present".
        holders = admitted if spec.admission is not None else ()
        self.reserved: Dict[str, float] = {
            flow.name: reserved_rate(flow.request)
            for flow in self.flows
            if flow.name in holders
        }
        self._routes: Dict[frozenset, object] = {}

    # -- path resolution ----------------------------------------------
    def _router(self, down: frozenset):
        """``f -> link path`` under ``down`` (None: unreachable), pure
        in ``(down, f)``.  The all-up state returns the base path
        objects themselves; an ECMP link-state view returns them too
        for every flow whose walk the mask leaves alone
        (:meth:`~repro.net.fabric.EcmpPaths.masked`), so only flows
        whose next-hop state changed cost a walk."""
        if not down:
            return self.base_paths.__getitem__
        links = self._routes.get(down)
        if links is None:
            links = self._routes[down] = flow_routes(
                self.spec.topology, self.spec.ecmp_seed, down
            )[0]
        flows = self.flows

        def route(f: int) -> Optional[Tuple[int, ...]]:
            flow = flows[f]
            try:
                return links(flow.source_host, flow.dest_host, flow.name)
            except RoutingError:
                return None

        return route

    def _state(self, records, torn) -> PlanState:
        """The complete state after a transition: the records' current
        paths, with every flow off its base path re-classified at the
        bottleneck of the new one."""
        base = self.base_state
        paths = [record.links or () for record in records]
        fair, weight = list(base.fair), list(base.weight)
        for f, path in enumerate(paths):
            if path != base.paths[f]:
                fair[f], weight[f] = self.classify(f, path)
        return PlanState(
            paths=paths,
            noroute=tuple(
                f for f, record in enumerate(records)
                if record.links is None and not record.torn_down
            ),
            inactive=tuple(sorted(torn)),
            fair=fair,
            weight=weight,
        )

    # -- replay --------------------------------------------------------
    def build(self, transitions) -> FluidControlPlan:
        # ``record.links`` is the flow's current link-index path.
        records = [
            TrackedFlow(flow.name, path)
            for flow, path in zip(self.flows, self.base_paths)
        ]
        base_state = self.base_state
        state_cache: Dict[Tuple[frozenset, frozenset], PlanState] = {
            (frozenset(), frozenset()): base_state
        }
        down: set = set()
        torn: set = set()
        outages = restores = 0
        base_paths, reserved = self.base_paths, self.reserved
        # Under a non-empty down-set: flows resolved, and how many came
        # back as the base path object itself.
        resolved = inherited = 0
        raw: List[Tuple[float, PlanState, Dict[int, int]]] = []

        for tr in transitions:
            if tr.up:
                down.discard(tr.link)
                restores += 1
            else:
                down.add(tr.link)
                outages += 1
            dead = self.link_index[tr.link]
            down_key = frozenset(down)
            route = self._router(down_key)
            flush: Dict[int, int] = {}
            for f, record in enumerate(records):
                if record.torn_down:
                    continue
                old = record.links
                if not tr.up and old and dead in old:
                    flush.setdefault(f, dead)
                new = route(f)
                if down:
                    inherited += new is base_paths[f]
                    resolved += 1
                outcome, _ = refresh(
                    record, new, record.name in reserved,
                    self._release, self._admit,
                )
                if outcome is Refresh.TORN_DOWN:
                    # The flow stops generating; residual backlog flushes
                    # here, ledgered against the transitioning link.
                    torn.add(f)
                    flush.setdefault(f, dead)
            state_key = (down_key, frozenset(torn))
            state = state_cache.get(state_key)
            if state is None:
                state = state_cache[state_key] = self._state(records, torn)
            raw.append((tr.time, state, flush))

        # Merge same-time boundaries (correlated failures reconverge
        # per link but cut traffic time once): last state wins, flush
        # lists union with first-failure attribution.
        boundaries: List[PlanBoundary] = []
        for time, state, flush in raw:
            if boundaries and boundaries[-1].time == time:
                flush = {**flush, **dict(boundaries.pop().flush)}
            boundaries.append(
                PlanBoundary(time, state, tuple(sorted(flush.items())))
            )
        return FluidControlPlan(
            transitions=transitions,
            base_state=base_state,
            boundaries=tuple(boundaries),
            outages=outages,
            restores=restores,
            records=records,
            path_counts=(inherited, resolved - inherited),
        )

    # -- what the shared policy is handed ---------------------------------
    def _release(self, record: TrackedFlow) -> None:
        rate = self.reserved[record.name]
        for l in record.links:
            self.committed[l] -= rate

    def _admit(self, record: TrackedFlow, links) -> Optional[float]:
        rate = self.reserved[record.name]
        if not fits(self.committed, rate, links, self.quota, self.caps):
            return None
        for l in links:
            self.committed[l] += rate
        return rate
