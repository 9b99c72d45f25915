"""The seeded outage process: scheduled link failures and repairs.

:func:`compute_outage_schedule` turns an outage specification into the
complete, clock-free schedule of a run, and both engines consume that
one schedule.  Two sources compose:

* **Explicit events** — ``(link, at, duration)`` tuples, for
  deterministic experiments (the failover flagship pins one mid-run
  failure this way).
* **A sampled process** — outages arrive Poisson at ``rate_per_second``
  after ``start_after``; each takes down ``correlated_links`` currently-
  up candidate links at once (correlated multi-link failure) and repairs
  them together after an exponential ``mean_duration_seconds`` holding
  time.  All draws come from the single RNG handed in — the scenario
  layer passes a dedicated named stream (``"outage:process"``), so the
  outage schedule is identical across paired discipline runs and
  across engines.

The packet engine arms one simulator event per *firing* of the schedule
(:func:`arm_outages`), each calling the controller's idempotent
``fail_link``/``restore_link``; the fluid engine compiles the schedule's
effective *transitions* into epoch boundaries
(:mod:`repro.fluid.control`).  A failure of a link that is already down
(overlapping windows) merges into the earlier outage.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.control.controller import LinkStateController
    from repro.sim.engine import Simulator
    from repro.sim.randomness import StreamRandom


@dataclasses.dataclass(frozen=True)
class LinkTransition:
    """One link-state change of a replayed outage schedule: ``link``
    goes down (``up=False``) or comes back (``up=True``) at ``time``."""

    time: float
    link: str
    up: bool


@dataclasses.dataclass(frozen=True)
class OutageFiring:
    """One timer of the outage process: at ``time``, fail (``up=False``)
    or restore (``up=True``) each of ``links``.  A firing may change
    nothing — an explicit failure of a link already down, a repair of a
    link an overlapping window already repaired, or a sampled outage
    that found no candidate up (empty ``links``) — and still counts as
    one simulator event on the packet engine."""

    time: float
    links: Tuple[str, ...]
    up: bool


@dataclasses.dataclass(frozen=True)
class OutageSchedule:
    """The outage process over one horizon: every firing in firing
    order, and the effective link-state changes they make."""

    firings: Tuple[OutageFiring, ...]
    transitions: Tuple[LinkTransition, ...]


def compute_outage_schedule(
    spec,
    link_names: Iterable[str],
    rng: Optional["StreamRandom"],
    horizon: float,
) -> OutageSchedule:
    """Run an outage spec over ``[0, horizon]`` without a simulator clock.

    This loop is the only place the outage process draws.  Timers pop
    in ``(time, arming sequence)`` order — explicit events first (spec
    order), then the first sampled arrival, then each timer as its
    firing arms it — the order the simulator's ``(time, priority, seq)``
    heap gives events armed that way.  Per sampled firing the draw order
    is ``sample(up, count)`` → ``exponential(mean_duration)`` (both
    skipped when no candidate link is up), then the ``max_outages``
    check, then the ``exponential(1/rate)`` gap; explicit events count
    toward ``max_outages``.  Timers at exactly ``horizon`` fire
    (``Simulator.run(until=horizon)`` semantics); anything later is
    never drawn.

    Args:
        spec: an outage specification
            (:class:`repro.scenario.spec.OutageSpec` or anything with its
            fields).
        link_names: every link the controller governs.
        rng: seeded random stream for the sampled process (may be None
            when the spec is explicit-events-only).
        horizon: the run's duration.
    """
    state = {name: True for name in link_names}
    candidates: Tuple[str, ...] = (
        tuple(spec.links) if spec.links is not None
        else tuple(sorted(state))
    )
    firings: List[OutageFiring] = []
    transitions: List[LinkTransition] = []
    heap: List[Tuple[float, int, int, object]] = []
    seq = 0
    _EXPLICIT, _RESTORE, _DUE = 0, 1, 2

    def arm(time: float, kind: int, payload=None) -> None:
        nonlocal seq
        heapq.heappush(heap, (time, seq, kind, payload))
        seq += 1

    for event in spec.events:
        arm(event.at, _EXPLICIT, event)
    if spec.rate_per_second > 0:
        if rng is None:
            raise ValueError(
                "a seeded rng is required for a sampled outage process"
            )
        arm(
            spec.start_after + rng.exponential(1.0 / spec.rate_per_second),
            _DUE,
        )

    def fire(time: float, links: Tuple[str, ...], up: bool) -> None:
        firings.append(OutageFiring(time, links, up))
        for link in links:
            if state.get(link, up) != up:
                state[link] = up
                transitions.append(LinkTransition(time, link, up))

    fired = 0
    while heap:
        time, _, kind, payload = heapq.heappop(heap)
        if time > horizon:
            break  # heap pops in time order: everything left is later
        if kind == _EXPLICIT:
            fired += 1
            fire(time, (payload.link,), up=False)
            arm(time + payload.duration, _RESTORE, (payload.link,))
        elif kind == _RESTORE:
            fire(time, payload, up=True)
        else:  # sampled outage due
            up = [n for n in candidates if state.get(n, False)]
            count = min(spec.correlated_links, len(up))
            victims: Tuple[str, ...] = ()
            if count:
                victims = tuple(rng.sample(up, count))
                fired += 1
            fire(time, victims, up=False)
            if count:
                duration = rng.exponential(spec.mean_duration_seconds)
                arm(time + duration, _RESTORE, victims)
            if spec.max_outages is not None and fired >= spec.max_outages:
                continue
            gap = rng.exponential(1.0 / spec.rate_per_second)
            arm(time + gap, _DUE)
    return OutageSchedule(tuple(firings), tuple(transitions))


def arm_outages(
    sim: "Simulator",
    controller: "LinkStateController",
    firings: Iterable[OutageFiring],
) -> None:
    """Arm one simulator event per firing, all now, each calling the
    controller's idempotent ``fail_link``/``restore_link`` per link."""
    for firing in firings:
        apply = controller.restore_link if firing.up else controller.fail_link
        sim.schedule_at(
            firing.time, functools.partial(_apply_each, apply, firing.links)
        )


def _apply_each(apply, links: Tuple[str, ...]) -> None:
    for link in links:
        apply(link)
