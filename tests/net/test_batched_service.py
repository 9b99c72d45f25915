"""Batched link service: burst draining, fallbacks, and bit-identity.

The port may serve several queued packets inside one link-completion
event (arithmetic timestamps) *only* while no other pending event — and
no ``run(until=...)`` window edge — could observe the difference.  These
tests pin the counter bookkeeping, the adversarial mid-burst fallback,
the capability gate, and the ``batching=False`` constructor switch.
"""

import math

import pytest

from repro.net.link import Link
from repro.net.node import Node
from repro.net.port import OutputPort
from repro.sched.fifo import FifoScheduler
from repro.sched.fifoplus import FifoPlusScheduler
from repro.sched.priority import PriorityScheduler
from repro.sched.nonwork import StopAndGoScheduler
from tests.conftest import make_packet


class Collector(Node):
    def __init__(self, sim, name="collector"):
        super().__init__(sim, name)
        self.packets = []

    def receive(self, packet):
        self.packets.append((self.sim.now, packet))


def build_port(sim, scheduler=None, rate_bps=1000.0, batching=True):
    # rate 1000 bps and 1000-bit packets -> 1 s transmission each.
    link = Link(sim, "L", rate_bps=rate_bps)
    sink = Collector(sim)
    link.connect(sink)
    if scheduler is None:
        scheduler = FifoScheduler()
    port = OutputPort(sim, "P", scheduler, link, 200, batching=batching)
    return port, sink


class TestBurstDraining:
    def test_quiet_burst_is_batched(self, sim):
        """With no competing events, everything after the first packet is
        served arithmetically — identical delivery times, fewer events."""
        port, sink = build_port(sim)
        for i in range(6):
            port.enqueue(make_packet(sequence=i))
        sim.run_until_idle()
        assert [t for t, _ in sink.packets] == pytest.approx(
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        )
        assert port.packets_out == 6
        # Packet 1 went through the normal transmit; 2..6 were drained in
        # the burst started by packet 1's completion event.
        assert port.batched_departures == 5
        # events: completion of packet 1 only (2..6 elided but counted).
        assert sim.events_processed == 6

    def test_departure_accounting_matches_per_packet_path(self, sim):
        port, sink = build_port(sim)
        packets = [make_packet(sequence=i) for i in range(4)]
        for packet in packets:
            port.enqueue(packet)
        sim.run_until_idle()
        # Waits: 0, 1, 2, 3 seconds (head-of-line blocking at 1 s each).
        assert [p.queueing_delay for p in packets] == pytest.approx(
            [0.0, 1.0, 2.0, 3.0]
        )
        assert all(p.hops == 1 for p in packets)
        assert port.queueing_delay_total == pytest.approx(6.0)
        assert port.link.utilization(sim.now) == pytest.approx(1.0)

    def test_on_depart_listeners_see_virtual_times(self, sim):
        port, sink = build_port(sim)
        departures = []
        port.on_depart.append(lambda p, now, wait: departures.append((now, wait)))
        for i in range(3):
            port.enqueue(make_packet(sequence=i))
        sim.run_until_idle()
        assert departures == [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]


class TestAdversarialFallback:
    def test_competing_event_mid_burst_forces_per_packet(self, sim):
        """An event landing mid-burst must see the true clock: the burst
        stops exactly at the last provably-unobservable departure and the
        contested packet goes through the ordinary scheduled path."""
        port, sink = build_port(sim)
        observed = {}

        def competitor():
            observed["now"] = sim.now
            observed["busy"] = port.link.busy
            observed["delivered_so_far"] = len(sink.packets)

        sim.schedule(2.5, competitor)
        for i in range(5):
            port.enqueue(make_packet(sequence=i))
        sim.run_until_idle()
        # Everything still delivers at the exact per-packet times.
        assert [t for t, _ in sink.packets] == pytest.approx(
            [1.0, 2.0, 3.0, 4.0, 5.0]
        )
        # The competitor observed a mid-transmission clock, un-advanced.
        assert observed["now"] == 2.5
        assert observed["busy"] is True  # packet 3 on the wire via transmit
        assert observed["delivered_so_far"] == 2
        # Batched: packet 2 (before the competitor) and 4..5 (after the
        # contested completion re-entered the burst loop).
        assert port.batched_departures == 3

    def test_run_window_edge_forces_fallback(self, sim):
        """A run(until=...) horizon inside the would-be burst stops the
        arithmetic drain, and the sliced run matches the unsliced one."""
        port, sink = build_port(sim)
        for i in range(4):
            port.enqueue(make_packet(sequence=i))
        sim.run(until=2.5)
        assert sim.now == 2.5
        assert len(sink.packets) == 2  # 1.0s and 2.0s delivered
        sim.run_until_idle()
        assert [t for t, _ in sink.packets] == pytest.approx(
            [1.0, 2.0, 3.0, 4.0]
        )
        assert sim.events_processed == 4

    def test_depart_listener_scheduling_mid_span_forces_fallback(self, sim):
        """A depart listener that schedules an event inside the service
        span (legal: listeners run at the departure instant) must force
        the contested packet onto the scheduled path so the event fires
        mid-transmission, exactly as unbatched."""
        port, sink = build_port(sim)
        fired_at = []

        def listener(packet, now, wait):
            if packet.sequence == 1:
                # Lands halfway through packet 1's transmission span.
                sim.schedule(0.5, lambda: fired_at.append(sim.now))

        port.on_depart.append(listener)
        for i in range(3):
            port.enqueue(make_packet(sequence=i))
        sim.run_until_idle()
        assert fired_at == [1.5]
        assert [t for t, _ in sink.packets] == pytest.approx([1.0, 2.0, 3.0])


class TestCapabilityGate:
    def test_fifo_and_fifoplus_and_priority_opt_in(self, sim):
        for scheduler in (
            FifoScheduler(),
            FifoPlusScheduler(),
            PriorityScheduler(num_classes=2),
        ):
            port, _ = build_port(sim, scheduler=scheduler)
            assert port.batching_enabled, type(scheduler).__name__

    def test_non_work_conserving_stays_per_packet(self, sim):
        scheduler = StopAndGoScheduler(sim, frame_seconds=0.1)
        assert not scheduler.supports_batch_drain
        port, sink = build_port(sim, scheduler=scheduler)
        assert not port.batching_enabled
        assert port.link.on_complete_idle is None

    def test_priority_over_non_batchable_levels_stays_per_packet(self, sim):
        scheduler = PriorityScheduler(
            num_classes=2,
            sub_scheduler_factory=lambda: StopAndGoScheduler(sim, frame_seconds=0.1),
        )
        assert not scheduler.supports_batch_drain

    def test_batching_argument_off(self, sim):
        port, sink = build_port(sim, batching=False)
        assert not port.batching_enabled
        assert port.link.on_complete_idle is None
        for i in range(4):
            port.enqueue(make_packet(sequence=i))
        sim.run_until_idle()
        assert port.batched_departures == 0
        assert [t for t, _ in sink.packets] == pytest.approx(
            [1.0, 2.0, 3.0, 4.0]
        )
        assert sim.events_processed == 4  # all completions were real events


class TestBitIdentityOnAndOff:
    def _drive(self, sim, port, sink):
        """A busy little schedule: staggered arrivals, an idle gap, and a
        timer landing mid-burst."""
        mid = []
        for i in range(5):
            sim.schedule(0.1 * i, lambda i=i: port.enqueue(make_packet(sequence=i)))
        sim.schedule(2.3, lambda: mid.append(sim.now))
        for i in range(5, 8):
            sim.schedule(9.0 + 0.05 * i, lambda i=i: port.enqueue(make_packet(sequence=i)))
        sim.run_until_idle()
        return (
            [(t, p.sequence, p.queueing_delay) for t, p in sink.packets],
            mid,
            port.packets_out,
            sim.events_processed,
        )

    def test_batched_equals_unbatched(self):
        from repro.sim import Simulator

        sim_on = Simulator()
        port_on, sink_on = build_port(sim_on)
        result_on = self._drive(sim_on, port_on, sink_on)

        sim_off = Simulator()
        port_off, sink_off = build_port(sim_off, batching=False)
        result_off = self._drive(sim_off, port_off, sink_off)

        assert result_on == result_off
        assert port_on.batched_departures > 0
        assert port_off.batched_departures == 0
