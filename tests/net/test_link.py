"""Tests for Link transmission timing and utilization accounting."""

import pytest

from repro.net.link import Link
from repro.net.node import Node
from repro.net.port import OutputPort
from repro.sched.fifo import FifoScheduler
from tests.conftest import make_packet


class Collector(Node):
    """Records (time, packet) deliveries."""

    def __init__(self, sim, name="collector"):
        super().__init__(sim, name)
        self.deliveries = []

    def receive(self, packet):
        self.deliveries.append((self.sim.now, packet))


class TestLink:
    def test_transmission_time(self, sim):
        link = Link(sim, "L", rate_bps=1_000_000)
        assert link.transmission_time(make_packet(size_bits=1000)) == pytest.approx(
            0.001
        )

    def test_delivery_after_transmission(self, sim):
        link = Link(sim, "L", rate_bps=1_000_000)
        sink = Collector(sim)
        link.connect(sink)
        packet = make_packet()
        sim.schedule(0.0, lambda: link.transmit(packet))
        sim.run_until_idle()
        assert len(sink.deliveries) == 1
        t, delivered = sink.deliveries[0]
        assert delivered is packet
        assert t == pytest.approx(0.001)

    def test_propagation_delay_added(self, sim):
        link = Link(sim, "L", rate_bps=1_000_000, propagation_delay=0.05)
        sink = Collector(sim)
        link.connect(sink)
        sim.schedule(0.0, lambda: link.transmit(make_packet()))
        sim.run_until_idle()
        assert sink.deliveries[0][0] == pytest.approx(0.051)

    def test_busy_rejects_second_transmit(self, sim):
        link = Link(sim, "L", rate_bps=1_000_000)
        link.connect(Collector(sim))
        link.transmit(make_packet())
        with pytest.raises(RuntimeError):
            link.transmit(make_packet())

    def test_unconnected_rejects(self, sim):
        link = Link(sim, "L", rate_bps=1_000_000)
        with pytest.raises(RuntimeError):
            link.transmit(make_packet())

    def test_on_idle_fires_after_completion(self, sim):
        link = Link(sim, "L", rate_bps=1_000_000)
        link.connect(Collector(sim))
        idle_times = []
        link.on_idle = lambda: idle_times.append(sim.now)
        sim.schedule(0.0, lambda: link.transmit(make_packet()))
        sim.run_until_idle()
        assert idle_times == [pytest.approx(0.001)]

    def test_utilization_half_busy(self, sim):
        link = Link(sim, "L", rate_bps=1_000_000)
        link.connect(Collector(sim))
        # 1 ms transmission starting at t=0; observe at t=2 ms.
        sim.schedule(0.0, lambda: link.transmit(make_packet()))
        sim.run(until=0.002)
        assert link.utilization() == pytest.approx(0.5)

    def test_counters(self, sim):
        # What leaves is counted by the owning port; the link counts
        # what reached the far end.
        link = Link(sim, "L", rate_bps=1_000_000)
        link.connect(Collector(sim))
        port = OutputPort(sim, "P", FifoScheduler(), link)
        sim.schedule(0.0, lambda: port.enqueue(make_packet(size_bits=500)))
        sim.run_until_idle()
        assert port.packets_out == 1
        assert port.bits_out == 500
        assert link.packets_delivered == 1
        assert link.packets_lost == 0

    def test_invalid_parameters(self, sim):
        with pytest.raises(ValueError):
            Link(sim, "L", rate_bps=0)
        with pytest.raises(ValueError):
            Link(sim, "L", rate_bps=1e6, propagation_delay=-1.0)
