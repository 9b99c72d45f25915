"""The one reroute -> re-admit -> accounted-teardown policy.

Clock-free and engine-free: :func:`refresh` decides what happens to one
flow given its freshly resolved path.  The event-driven
:class:`~repro.control.controller.LinkStateController` applies it to
every tracked flow per link event; :mod:`repro.fluid.control` folds it
over the outage schedule at plan compile.  The engines hand it only *how
to release* a commitment and *how to ask admission* for a new one, so
the per-flow counters of :class:`FlowRerouteStats` agree across engines
by construction.

* Forwarding is destination-based, so when a flow's shortest path moves
  — even if its old path is still alive — its traffic follows the new
  tables and the reservation migrates with it.
* A flow torn down after a refused re-admission stays down: sources
  cannot be deterministically restarted mid-run, so re-admitting a dead
  sender would book reservations nothing uses.
* A flow holding no commitment reroutes implicitly through the table
  swap; while it has no route its traffic is ledgered by the engine.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Callable, Dict, Optional, Sequence, Tuple


@dataclasses.dataclass(frozen=True)
class FlowRerouteStats:
    """Per-flow control-plane outcome over one run."""

    name: str
    reroutes: int = 0
    readmissions: int = 0
    refusals: int = 0
    torn_down: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


class TrackedFlow:
    """Mutable control-plane record of one flow: its current path
    (``links``; None while it has no route or once torn down) and the
    counters :meth:`stats` freezes."""

    __slots__ = ("name", "links", "reroutes", "readmissions", "refusals",
                 "torn_down")

    def __init__(self, name: str, links: Optional[Sequence]):
        self.name = name
        self.links = links
        self.reroutes = 0
        self.readmissions = 0
        self.refusals = 0
        self.torn_down = False

    def stats(self) -> FlowRerouteStats:
        return FlowRerouteStats(self.name, self.reroutes, self.readmissions,
                                self.refusals, self.torn_down)


class Refresh(enum.Enum):
    """What :func:`refresh` did to a flow."""

    UNTOUCHED = "untouched"    # torn down earlier, or commitment intact
    FOLLOWED = "followed"      # no commitment: follows the new tables
    READMITTED = "readmitted"  # released, then admitted on the new path
    TORN_DOWN = "torn-down"    # released, then refused: accounted teardown


def refresh(
    record: TrackedFlow,
    new_links: Optional[Sequence],
    committed: bool,
    release: Callable[[TrackedFlow], None],
    admit: Callable[[TrackedFlow, Sequence], Any],
) -> Tuple[Refresh, Any]:
    """Apply the policy to ``record`` now that its path resolves to
    ``new_links`` (None: unreachable).

    ``committed`` says whether the flow holds an admission commitment.
    ``release(record)`` gives back the one on ``record.links``;
    ``admit(record, new_links)`` asks for one on the new path and returns
    the grant, or None when refused.  Returns what happened and, for
    ``READMITTED``, the grant.
    """
    if record.torn_down:
        return Refresh.UNTOUCHED, None
    if not committed:
        if new_links is not None and new_links != record.links:
            record.reroutes += 1
        record.links = new_links
        return Refresh.FOLLOWED, None
    if new_links == record.links:
        return Refresh.UNTOUCHED, None
    # The path moved (or vanished): migrate the reservation.
    release(record)
    grant = None if new_links is None else admit(record, new_links)
    if grant is None:
        record.refusals += 1
        record.torn_down = True
        record.links = None
        return Refresh.TORN_DOWN, None
    record.reroutes += 1
    record.readmissions += 1
    record.links = new_links
    return Refresh.READMITTED, grant
