"""Failure-injection tests: random on-wire loss (Link.loss_probability)."""

import random

import pytest

from repro.net.link import Link
from repro.net.node import Host, Switch
from repro.scenario import TopologySpec
from repro.sched.fifo import FifoScheduler
from repro.sim.engine import Simulator
from repro.transport.tcp import TcpConfig, TcpConnection
from tests.conftest import make_packet


class TestLossValidation:
    def test_rejects_bad_probability(self, sim):
        with pytest.raises(ValueError):
            Link(sim, "l", 1e6, loss_probability=1.0, loss_rng=random.Random(1))
        with pytest.raises(ValueError):
            Link(sim, "l", 1e6, loss_probability=-0.1, loss_rng=random.Random(1))

    def test_requires_rng_when_lossy(self, sim):
        with pytest.raises(ValueError):
            Link(sim, "l", 1e6, loss_probability=0.1)

    def test_lossless_by_default(self, sim):
        link = Link(sim, "l", 1e6)
        assert link.loss_probability == 0.0


class TestLossBehaviour:
    def make_lossy_pair(self, sim, probability, seed=1):
        """A single-link net whose A->B link corrupts packets randomly."""
        net = TopologySpec.single_link(buffer_packets=500).build(
            sim, lambda n, l: FifoScheduler()
        )
        link = net.links["A->B"]
        link.loss_probability = probability
        link._loss_rng = random.Random(seed)
        return link, net.port_for_link("A->B"), net.hosts["src-host"], net.hosts["dst-host"]

    def test_loss_rate_statistically_close(self, sim):
        link, port, src, dst = self.make_lossy_pair(sim, probability=0.2)
        received = []
        dst.register_flow_handler("f", lambda packet: received.append(packet))
        # Pace arrivals at the link rate so the buffer never overflows —
        # all loss must come from the wire, not the queue.
        for i in range(2000):
            sim.schedule(
                i * 0.001,
                lambda seq=i: port.enqueue(
                    make_packet(flow_id="f", sequence=seq,
                                destination="dst-host")
                ),
            )
        sim.run(until=30.0)
        assert link.packets_lost + len(received) == 2000
        # Binomial(2000, 0.2): mean 400, sd ~18; allow 5 sigma.
        assert 310 < link.packets_lost < 490

    def test_lost_packets_still_occupy_the_wire(self, sim):
        """Corruption costs the transmission time; utilization counts it."""
        link, port, src, dst = self.make_lossy_pair(sim, probability=0.5)
        dst.register_flow_handler("f", lambda packet: None)
        for i in range(100):
            port.enqueue(make_packet(flow_id="f", sequence=i,
                                     destination="dst-host"))
        sim.run(until=0.11)  # 100 back-to-back packets need 100 ms
        assert link.utilization(0.1) == pytest.approx(1.0, abs=0.02)
        assert port.packets_out == 100
        assert link.packets_delivered + link.packets_lost == 100

    def test_deterministic_given_seed(self, sim):
        losses = []
        for _attempt in range(2):
            inner = Simulator()
            link, port, src, dst = self.make_lossy_pair(
                inner, probability=0.3, seed=42
            )
            dst.register_flow_handler("f", lambda packet: None)
            for i in range(500):
                port.enqueue(make_packet(flow_id="f", sequence=i,
                                         destination="dst-host"))
            inner.run(until=10.0)
            losses.append(link.packets_lost)
        assert losses[0] == losses[1]


class TestTcpUnderRandomLoss:
    def test_tcp_survives_lossy_path(self, sim):
        """TCP keeps delivering a contiguous stream through 2 % random
        loss — the recovery machinery handles non-congestion loss too."""
        net = TopologySpec.graph(
            ["A", "B"],
            [{"src": "A", "dst": "B"}, {"src": "B", "dst": "A"}],
            [("ha", "A"), ("hb", "B")],
        ).build(sim, lambda n, l: FifoScheduler())
        # Inject loss on the forward (data) direction only.
        forward = net.links["A->B"]
        forward.loss_probability = 0.02
        forward._loss_rng = random.Random(7)
        conn = TcpConnection(
            sim, net.hosts["ha"], net.hosts["hb"], "tcp", TcpConfig()
        )
        sim.run(until=20.0)
        assert forward.packets_lost > 10  # loss really happened
        assert conn.retransmits >= forward.packets_lost * 0.5
        # Contiguous delivery despite it.
        assert conn.segments_delivered == conn.recv_next
        assert conn.segments_delivered > 1000
