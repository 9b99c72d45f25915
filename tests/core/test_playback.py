"""Tests for rigid and adaptive play-back applications (Sections 2-3)."""

import pytest

from repro.core.playback import AdaptivePlayback, RigidPlayback
from repro.net.packet import Packet, ServiceClass
from repro.scenario import TopologySpec
from repro.sched.fifo import FifoScheduler
from repro.sim.engine import Simulator


@pytest.fixture
def rig(sim):
    """A single-link net; returns (net, deliver) where deliver(flow, t_gen,
    t_arrive) injects a packet straight into the destination host."""
    net = TopologySpec.single_link().build(sim, lambda n, l: FifoScheduler())
    host = net.hosts["dst-host"]

    def deliver(flow_id: str, created_at: float, arrive_at: float) -> None:
        packet = Packet(
            flow_id=flow_id,
            size_bits=1000,
            created_at=created_at,
            source="src-host",
            destination="dst-host",
            service_class=ServiceClass.PREDICTED,
        )
        sim.schedule_at(arrive_at, lambda p=packet: host.receive(p))

    return net, deliver


class TestRigidPlayback:
    def test_plays_packets_inside_bound(self, sim, rig):
        net, deliver = rig
        app = RigidPlayback(sim, net.hosts["dst-host"], "v", a_priori_bound=0.1)
        deliver("v", created_at=0.0, arrive_at=0.05)  # under the bound
        deliver("v", created_at=0.1, arrive_at=0.15)  # exactly 0.05 delay
        sim.run(until=1.0)
        stats = app.stats()
        assert stats.received == 2
        assert stats.played == 2
        assert stats.late == 0

    def test_counts_late_packets(self, sim, rig):
        net, deliver = rig
        app = RigidPlayback(sim, net.hosts["dst-host"], "v", a_priori_bound=0.1)
        deliver("v", created_at=0.0, arrive_at=0.25)  # delay 0.25 > 0.1
        sim.run(until=1.0)
        assert app.stats().late == 1
        assert app.loss_fraction == 1.0

    def test_offset_never_moves(self, sim, rig):
        net, deliver = rig
        app = RigidPlayback(sim, net.hosts["dst-host"], "v", a_priori_bound=0.2)
        for i in range(20):
            deliver("v", created_at=i * 0.01, arrive_at=i * 0.01 + 0.15)
        sim.run(until=1.0)
        assert app.current_offset() == 0.2
        assert len(app.offset_history) == 1

    def test_rejects_nonpositive_bound(self, sim, rig):
        net, __ = rig
        with pytest.raises(ValueError):
            RigidPlayback(sim, net.hosts["dst-host"], "v", a_priori_bound=0.0)

    def test_post_facto_bound_is_max_delay(self, sim, rig):
        net, deliver = rig
        app = RigidPlayback(sim, net.hosts["dst-host"], "v", a_priori_bound=1.0)
        deliver("v", created_at=0.0, arrive_at=0.03)
        deliver("v", created_at=0.1, arrive_at=0.19)  # delay 0.09 = max
        sim.run(until=1.0)
        assert app.post_facto_bound() == pytest.approx(0.09)


class TestAdaptivePlayback:
    def make_app(self, sim, net, **overrides):
        params = dict(
            target_loss=0.05,
            window=50,
            margin=1.0,
            initial_offset=0.5,
            adapt_every=10,
        )
        params.update(overrides)
        return AdaptivePlayback(sim, net.hosts["dst-host"], "v", **params)

    def test_offset_converges_toward_actual_delays(self, sim, rig):
        net, deliver = rig
        app = self.make_app(sim, net)
        # Constant 30 ms delay: the adaptive point should approach 30 ms,
        # far below the 500 ms initial offset.
        for i in range(100):
            deliver("v", created_at=i * 0.01, arrive_at=i * 0.01 + 0.03)
        sim.run(until=5.0)
        assert app.current_offset() == pytest.approx(0.03, rel=0.1)
        assert app.adaptations >= 1

    def test_adaptive_beats_rigid_offset(self, sim, rig):
        """Section 3: adaptive clients typically play back earlier than the
        a priori bound that a rigid client would sit at."""
        net, deliver = rig
        a_priori = 0.5
        adaptive = self.make_app(sim, net, initial_offset=a_priori)
        rigid = RigidPlayback(
            sim, net.hosts["dst-host"], "r", a_priori_bound=a_priori
        )
        for i in range(100):
            deliver("v", created_at=i * 0.01, arrive_at=i * 0.01 + 0.02)
            deliver("r", created_at=i * 0.01, arrive_at=i * 0.01 + 0.02)
        sim.run(until=5.0)
        assert adaptive.current_offset() < rigid.current_offset()

    def test_readapts_upward_after_network_shift(self, sim, rig):
        """The Section 3 narrative: a delay increase causes a brief loss
        burst, then the client re-adapts and stops losing."""
        net, deliver = rig
        app = self.make_app(sim, net, window=30, adapt_every=10)
        # Phase 1: 10 ms delays; phase 2: 100 ms delays.
        for i in range(60):
            deliver("v", created_at=i * 0.01, arrive_at=i * 0.01 + 0.01)
        for i in range(60, 160):
            deliver("v", created_at=i * 0.01, arrive_at=i * 0.01 + 0.10)
        sim.run(until=10.0)
        stats = app.stats()
        # Some packets missed the stale play-back point during the shift...
        assert stats.late > 0
        # ...but the client re-adapted to the new regime.
        assert app.current_offset() >= 0.09
        # And the tail of the run is loss-free: overall loss is bounded by
        # (roughly) the transition window.
        assert stats.late <= 40

    def test_offset_history_records_changes(self, sim, rig):
        net, deliver = rig
        app = self.make_app(sim, net)
        for i in range(50):
            deliver("v", created_at=i * 0.01, arrive_at=i * 0.01 + 0.02)
        sim.run(until=5.0)
        assert len(app.offset_history) >= 2
        times = [t for t, __ in app.offset_history]
        assert times == sorted(times)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target_loss": 0.0},
            {"target_loss": 1.0},
            {"window": 5},
            {"margin": 0.9},
            {"adapt_every": 0},
        ],
    )
    def test_rejects_bad_parameters(self, sim, rig, kwargs):
        net, __ = rig
        with pytest.raises(ValueError):
            self.make_app(sim, net, **kwargs)

    def test_margin_inflates_offset(self, sim, rig):
        net, deliver = rig
        snug = self.make_app(sim, net, margin=1.0)
        padded = AdaptivePlayback(
            sim,
            net.hosts["dst-host"],
            "w",
            target_loss=0.05,
            window=50,
            margin=1.5,
            initial_offset=0.5,
            adapt_every=10,
        )
        for i in range(100):
            deliver("v", created_at=i * 0.01, arrive_at=i * 0.01 + 0.04)
            deliver("w", created_at=i * 0.01, arrive_at=i * 0.01 + 0.04)
        sim.run(until=5.0)
        assert padded.current_offset() == pytest.approx(
            1.5 * snug.current_offset(), rel=0.01
        )

    def test_stats_mean_delay(self, sim, rig):
        net, deliver = rig
        app = self.make_app(sim, net)
        for i in range(20):
            deliver("v", created_at=i * 0.01, arrive_at=i * 0.01 + 0.05)
        sim.run(until=5.0)
        stats = app.stats()
        assert stats.mean_delay == pytest.approx(0.05, abs=1e-9)
        assert stats.max_delay == pytest.approx(0.05, abs=1e-9)
