"""Trace-driven source.

Replays an explicit (time, size) schedule.  Tests use it to construct
adversarial arrival patterns (greedy token-bucket bursts for the
Parekh-Gallager bound tightness checks) and it doubles as the hook for
replaying real application traces — optionally cyclically, for driving a
long simulation from a short recorded profile.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.net.node import Host
from repro.net.packet import ServiceClass
from repro.sim.engine import Simulator
from repro.traffic.source import PacketSource
from repro.traffic.token_bucket import TokenBucketFilter


class TraceSource(PacketSource):
    """Emits packets at the absolute times given in ``schedule``.

    Args:
        schedule: (time_seconds, size_bits) pairs; need not be sorted.
            Entries before the current simulation time are rejected.
        repeat_every: if set, the whole schedule replays shifted by this
            period, indefinitely (until :meth:`stop`).  Must exceed the
            trace's span so cycles do not overlap out of order.
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        flow_id: str,
        destination: str,
        schedule: Sequence[Tuple[float, int]],
        service_class: ServiceClass = ServiceClass.DATAGRAM,
        priority_class: int = 0,
        source_filter: Optional[TokenBucketFilter] = None,
        repeat_every: Optional[float] = None,
    ):
        super().__init__(
            sim,
            host,
            flow_id,
            destination,
            packet_size_bits=1000,  # per-packet size comes from the schedule
            service_class=service_class,
            priority_class=priority_class,
            source_filter=source_filter,
        )
        self.schedule: List[Tuple[float, int]] = sorted(schedule)
        if not self.schedule:
            raise ValueError("trace schedule cannot be empty")
        for time, size in self.schedule:
            if time < sim.now:
                raise ValueError(f"trace entry at {time} is in the past")
            if size <= 0:
                raise ValueError("trace packet sizes must be positive")
        if repeat_every is not None:
            span = self.schedule[-1][0] - self.schedule[0][0]
            if repeat_every <= span:
                raise ValueError(
                    f"repeat period {repeat_every} must exceed the trace "
                    f"span {span}"
                )
        self.repeat_every = repeat_every
        self.cycles_started = 0
        self._schedule_cycle(offset=0.0)

    def _schedule_cycle(self, offset: float) -> None:
        if self._stopped:
            return
        self.cycles_started += 1
        for time, size in self.schedule:
            self.sim.schedule_at(
                time + offset, lambda s=size: self._emit_sized(s)
            )
        if self.repeat_every is not None:
            next_offset = offset + self.repeat_every
            # Re-arm just after this cycle's last emission, well before the
            # next cycle's first one.
            self.sim.schedule_at(
                self.schedule[-1][0] + offset,
                lambda: self._schedule_cycle(next_offset),
            )

    def _emit_sized(self, size_bits: int) -> None:
        if self._stopped:
            return
        self.packet_size_bits = size_bits
        self.emit()
