"""Tests for the fire-and-forget datagram sender."""

import pytest

from repro.scenario import TopologySpec
from repro.sched.fifo import FifoScheduler
from repro.transport.udp import UdpSender


@pytest.fixture
def net(sim):
    return TopologySpec.single_link().build(sim, lambda n, l: FifoScheduler())


class TestUdpSender:
    def test_packets_arrive_in_order(self, sim, net):
        sender = UdpSender(sim, net.hosts["src-host"], "u", "dst-host")
        got = []
        net.hosts["dst-host"].register_flow_handler(
            "u", lambda packet: got.append(packet.sequence)
        )
        for __ in range(5):
            sender.send()
        sim.run(until=1.0)
        assert got == [0, 1, 2, 3, 4]
        assert sender.sent == 5

    def test_send_returns_the_packet(self, sim, net):
        sender = UdpSender(sim, net.hosts["src-host"], "u", "dst-host")
        packet = sender.send(payload={"k": 1})
        assert packet.flow_id == "u"
        assert packet.payload == {"k": 1}
        assert packet.sequence == 0

    def test_size_override(self, sim, net):
        sender = UdpSender(
            sim, net.hosts["src-host"], "u", "dst-host", packet_size_bits=500
        )
        assert sender.send().size_bits == 500
        assert sender.send(size_bits=2000).size_bits == 2000

    def test_burst_overflows_finite_buffer(self, sim):
        net = TopologySpec.single_link(buffer_packets=10).build(
            sim, lambda n, l: FifoScheduler()
        )
        sender = UdpSender(sim, net.hosts["src-host"], "u", "dst-host")
        port = net.port_for_link("A->B")
        sender.send_burst(50)
        # 10 buffered + 1 on the wire; the rest die.
        assert port.packets_dropped == 39
        sim.run(until=1.0)
        assert port.packets_out == 11

    def test_rejects_bad_size(self, sim, net):
        with pytest.raises(ValueError):
            UdpSender(
                sim, net.hosts["src-host"], "u", "dst-host", packet_size_bits=0
            )
