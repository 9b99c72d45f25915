"""Tests for the simplified TCP transport."""

import pytest

from repro.scenario import TopologySpec
from repro.sched.fifo import FifoScheduler
from repro.sim.engine import Simulator
from repro.transport.tcp import TcpConfig, TcpConnection


def duplex_net(sim, buffer_packets=200, rate_bps=1_000_000):
    link = {"rate_bps": rate_bps, "buffer_packets": buffer_packets}
    return TopologySpec.graph(
        ["A", "B"],
        [dict(link, src="A", dst="B"), dict(link, src="B", dst="A")],
        [("ha", "A"), ("hb", "B")],
    ).build(sim, lambda n, l: FifoScheduler())


def make_conn(sim, net, **config_overrides):
    config = TcpConfig(**config_overrides) if config_overrides else TcpConfig()
    return TcpConnection(
        sim, net.hosts["ha"], net.hosts["hb"], "tcp", config
    )


class TestTcpConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"segment_bits": 0},
            {"ack_bits": -1},
            {"initial_cwnd": 0.5},
            {"min_rto": 0.0},
            {"min_rto": 2.0, "max_rto": 1.0},
            {"dupack_threshold": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TcpConfig(**kwargs)


class TestSlowStart:
    def test_cwnd_doubles_per_rtt_initially(self, sim):
        net = duplex_net(sim)
        conn = make_conn(sim, net)
        sim.run(until=0.05)  # a few RTTs (RTT ~ 2 ms)
        # cwnd has grown well beyond the initial value and (absent loss)
        # stays under the slow-start threshold or the cap.
        assert conn.cwnd > 4
        assert conn.timeouts == 0

    def test_in_order_delivery(self, sim):
        net = duplex_net(sim)
        conn = make_conn(sim, net)
        sim.run(until=1.0)
        # Receiver saw a contiguous prefix: delivered == recv_next.
        assert conn.segments_delivered == conn.recv_next
        assert conn.segments_delivered > 100

    def test_goodput_approaches_link_rate_when_alone(self, sim):
        net = duplex_net(sim)
        conn = make_conn(sim, net, max_cwnd=64.0)
        duration = 5.0
        sim.run(until=duration)
        # Alone on a 1 Mbit/s link the transfer should reach most of it.
        assert conn.goodput_bps(duration) > 0.5 * 1_000_000

    def test_rtt_estimator_converges(self, sim):
        net = duplex_net(sim)
        conn = make_conn(sim, net)
        sim.run(until=1.0)
        # Base RTT: 2 store-and-forward hops of 1 ms each way = ~2 ms plus
        # queueing; SRTT must be positive and sane (well under a second).
        assert conn.srtt is not None
        assert 0.001 < conn.srtt < 1.0


class TestCongestion:
    def test_loss_triggers_retransmissions_and_recovery(self, sim):
        # An 8-packet buffer forces drops once cwnd exceeds the pipe.
        net = duplex_net(sim, buffer_packets=8)
        conn = make_conn(sim, net, max_cwnd=64.0)
        sim.run(until=5.0)
        assert conn.retransmits > 0
        # Fast retransmit should carry most recoveries (RTO is rare when
        # dupacks flow back).
        assert conn.fast_retransmits >= 1
        # Despite losses, delivery is contiguous and substantial.
        assert conn.segments_delivered == conn.recv_next
        assert conn.segments_delivered > 100

    def test_multiplicative_decrease_on_fast_retransmit(self, sim):
        net = duplex_net(sim, buffer_packets=8)
        conn = make_conn(sim, net, max_cwnd=64.0)
        peak = 0.0
        post_loss = []

        def watch():
            nonlocal peak
            peak = max(peak, conn.cwnd)
            if conn.fast_retransmits > 0 and len(post_loss) < 1:
                post_loss.append(conn.cwnd)
            if sim.now < 4.9:
                sim.schedule(0.01, watch)

        sim.schedule(0.01, watch)
        sim.run(until=5.0)
        assert post_loss, "expected at least one fast retransmit"
        assert post_loss[0] < peak

    def test_two_connections_share_a_bottleneck(self, sim):
        net = duplex_net(sim, buffer_packets=20)
        a = TcpConnection(sim, net.hosts["ha"], net.hosts["hb"], "t1", TcpConfig())
        b = TcpConnection(sim, net.hosts["ha"], net.hosts["hb"], "t2", TcpConfig())
        duration = 10.0
        sim.run(until=duration)
        ga = a.goodput_bps(duration)
        gb = b.goodput_bps(duration)
        # Both make progress; combined they fill most of the link.
        assert ga > 100_000 and gb > 100_000
        assert ga + gb > 0.7 * 1_000_000


class TestTimeout:
    def test_total_blackout_causes_rto_backoff(self, sim):
        net = duplex_net(sim)
        conn = make_conn(sim, net)
        # Install a filter that kills every data packet: ACKs never come.
        port = net.port_for_link("A->B")
        port.filters.append(lambda packet, now: packet.flow_id != "tcp")
        sim.run(until=30.0)
        state = conn.sender_state()
        assert state.timeouts >= 2
        assert state.cwnd == 1.0
        # Exponential backoff pushed the RTO up.
        assert state.rto > 1.0

    def test_stop_halts_transmission(self, sim):
        net = duplex_net(sim)
        conn = make_conn(sim, net)
        sim.run(until=0.1)
        conn.stop()
        sent_at_stop = conn.segments_sent
        sim.run(until=1.0)
        assert conn.segments_sent == sent_at_stop


class TestSenderState:
    def test_snapshot_reflects_connection(self, sim):
        net = duplex_net(sim)
        conn = make_conn(sim, net)
        sim.run(until=0.5)
        state = conn.sender_state()
        assert state.next_seq == conn.next_seq
        assert state.highest_ack == conn.highest_ack
        assert state.cwnd == conn.cwnd
        assert state.next_seq >= state.highest_ack

    def test_goodput_zero_for_nonpositive_elapsed(self, sim):
        net = duplex_net(sim)
        conn = make_conn(sim, net)
        assert conn.goodput_bps(0.0) == 0.0
        assert conn.goodput_bps(-1.0) == 0.0
