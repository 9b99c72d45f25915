"""Tests for hosts, switches, the Network builder, and topologies."""

import pytest

from repro.net.network import Network
from repro.net.packet import Packet
from repro.scenario import TopologySpec
from repro.sched.fifo import FifoScheduler
from tests.conftest import make_packet


def fifo_factory(name, link):
    return FifoScheduler()


class TestHostSwitch:
    def test_host_to_host_delivery(self, sim):
        net = TopologySpec.single_link().build(sim, fifo_factory)
        received = []
        net.hosts["dst-host"].register_flow_handler(
            "f", lambda packet: received.append(packet)
        )
        packet = make_packet(flow_id="f", source="src-host", destination="dst-host")
        net.hosts["src-host"].send(packet)
        sim.run_until_idle()
        assert received == [packet]

    def test_local_delivery_is_instant(self, sim):
        # Host on same switch: no link transmission, delivered at send time.
        net = TopologySpec.single_link().build(sim, fifo_factory)
        net.add_host("other", "A")
        received = []
        net.hosts["other"].register_flow_handler(
            "f", lambda packet: received.append(sim.now)
        )
        sim.schedule(
            1.0,
            lambda: net.hosts["src-host"].send(
                make_packet(flow_id="f", destination="other")
            ),
        )
        sim.run_until_idle()
        assert received == [1.0]

    def test_default_handler_catches_unregistered_flows(self, sim):
        net = TopologySpec.single_link().build(sim, fifo_factory)
        caught = []
        net.hosts["dst-host"].default_handler = lambda packet: caught.append(packet)
        net.hosts["src-host"].send(make_packet(flow_id="???", destination="dst-host"))
        sim.run_until_idle()
        assert len(caught) == 1

    def test_duplicate_flow_handler_rejected(self, sim):
        net = TopologySpec.single_link().build(sim, fifo_factory)
        net.hosts["dst-host"].register_flow_handler("f", lambda p: None)
        with pytest.raises(ValueError):
            net.hosts["dst-host"].register_flow_handler("f", lambda p: None)

    def test_unattached_host_cannot_send(self, sim):
        from repro.net.node import Host

        host = Host(sim, "loner")
        with pytest.raises(RuntimeError):
            host.send(make_packet())

    def test_multi_hop_forwarding(self, sim):
        net = TopologySpec.chain(4).build(sim, fifo_factory)
        received = []
        net.hosts["Host-4"].register_flow_handler(
            "f", lambda packet: received.append((sim.now, packet.hops))
        )
        net.hosts["Host-1"].send(
            make_packet(flow_id="f", source="Host-1", destination="Host-4")
        )
        sim.run_until_idle()
        # Three inter-switch links, 1 ms each, no queueing.
        t, hops = received[0]
        assert t == pytest.approx(0.003)
        assert hops == 3


class TestNetworkBuilder:
    def test_duplicate_names_rejected(self, sim):
        net = Network(sim, fifo_factory)
        net.add_switch("A")
        with pytest.raises(ValueError):
            net.add_switch("A")
        net.add_host("h", "A")
        with pytest.raises(ValueError):
            net.add_switch("h")

    def test_duplicate_link_rejected(self, sim):
        net = Network(sim, fifo_factory)
        net.add_switch("A")
        net.add_switch("B")
        net.add_link("A", "B", 1_000_000, 0.0, 200)
        with pytest.raises(ValueError):
            net.add_link("A", "B", 1_000_000, 0.0, 200)

    def test_path_between_hosts(self, sim):
        net = TopologySpec.chain(3).build(sim, fifo_factory)
        assert net.path("Host-1", "Host-3") == [
            "Host-1", "S-1", "S-2", "S-3", "Host-3",
        ]

    def test_links_on_path(self, sim):
        net = TopologySpec.chain(3).build(sim, fifo_factory)
        names = [link.name for link in net.links_on_path("Host-1", "Host-3")]
        assert names == ["S-1->S-2", "S-2->S-3"]

    def test_total_drops_aggregates(self, sim):
        net = TopologySpec.single_link(rate_bps=1000).build(sim, fifo_factory)
        net.hosts["dst-host"].default_handler = lambda p: None
        # 1000 bps link, 1000-bit packets: massive overload drops packets.
        for _ in range(400):
            net.hosts["src-host"].send(make_packet(destination="dst-host"))
        assert net.total_drops() > 0


class TestTopologies:
    def test_figure1_shape(self, sim):
        net = TopologySpec.figure1().build(sim, fifo_factory)
        assert len(net.switches) == 5
        assert len(net.hosts) == 5
        assert len(net.links) == 4  # simplex chain

    def test_figure1_duplex(self, sim):
        net = TopologySpec.figure1(duplex=True).build(sim, fifo_factory)
        assert len(net.links) == 8

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            TopologySpec.chain(1)
