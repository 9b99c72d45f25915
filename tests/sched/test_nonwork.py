"""Tests for the non-work-conserving baselines (Section 11)."""

import pytest

from repro.net.packet import ServiceClass
from repro.scenario import TopologySpec
from repro.sched.nonwork import (
    HrrScheduler,
    JitterEddScheduler,
    StopAndGoScheduler,
)
from repro.sim.engine import Simulator
from tests.conftest import make_packet


class TestStopAndGo:
    def test_rejects_bad_frame(self, sim):
        with pytest.raises(ValueError):
            StopAndGoScheduler(sim, frame_seconds=0.0)

    def test_eligible_time_is_next_frame(self, sim):
        sched = StopAndGoScheduler(sim, frame_seconds=0.1)
        assert sched.eligible_time(0.05) == pytest.approx(0.1)
        assert sched.eligible_time(0.15) == pytest.approx(0.2)
        # A packet arriving exactly on a boundary belongs to the frame
        # that starts there, so it departs at the next boundary.
        assert sched.eligible_time(0.1) == pytest.approx(0.2)

    def test_holds_packet_until_frame_boundary(self, sim):
        sched = StopAndGoScheduler(sim, frame_seconds=0.1)
        packet = make_packet()
        sched.enqueue(packet, 0.05)
        # Not eligible inside the arrival frame.
        assert sched.dequeue(0.05) is None
        assert sched.dequeue(0.09) is None
        assert len(sched) == 1
        # Eligible from the next frame boundary.
        assert sched.dequeue(0.1) is packet

    def test_fifo_within_frame(self, sim):
        sched = StopAndGoScheduler(sim, frame_seconds=0.1)
        first = make_packet(sequence=0)
        second = make_packet(sequence=1)
        sched.enqueue(first, 0.01)
        sched.enqueue(second, 0.02)
        assert sched.dequeue(0.1) is first
        assert sched.dequeue(0.1) is second

    def test_per_switch_delay_bounded_by_two_frames(self, sim):
        """Golestani's bound: queueing delay in [0, 2T) per switch."""
        net = TopologySpec.single_link(rate_bps=1_000_000).build(
            sim, lambda n, l: StopAndGoScheduler(sim, frame_seconds=0.02)
        )
        delays = []
        port = net.port_for_link("A->B")
        port.on_depart.append(lambda p, now, wait: delays.append(wait))
        for i in range(50):
            sim.schedule(
                i * 0.011,
                lambda seq=i: port.enqueue(
                    make_packet(sequence=seq, destination="dst-host")
                ),
            )
        sim.run(until=2.0)
        assert len(delays) == 50
        assert all(0.0 <= d < 0.04 + 1e-9 for d in delays)
        # Non-work-conserving: some packets really were held (delay >=
        # reaching into the next frame), unlike FIFO on an idle link.
        assert max(delays) > 0.005

    def test_wakeup_resumes_transmission(self, sim):
        """A held packet must eventually depart without new arrivals."""
        net = TopologySpec.single_link().build(
            sim, lambda n, l: StopAndGoScheduler(sim, frame_seconds=0.05)
        )
        got = []
        net.hosts["dst-host"].register_flow_handler(
            "f", lambda packet: got.append(sim.now)
        )
        port = net.port_for_link("A->B")
        sim.schedule(0.01, lambda: port.enqueue(
            make_packet(destination="dst-host")))
        sim.run(until=1.0)
        assert len(got) == 1
        # Departed at the 0.05 boundary + 1 ms transmission.
        assert got[0] == pytest.approx(0.051, abs=1e-9)


class TestHrr:
    def test_rejects_bad_args(self, sim):
        with pytest.raises(ValueError):
            HrrScheduler(sim, frame_seconds=0.0)
        with pytest.raises(ValueError):
            HrrScheduler(sim, 0.1, slots_per_flow={"a": 0})
        with pytest.raises(ValueError):
            HrrScheduler(sim, 0.1, default_slots=0)

    def test_unknown_flow_refused_without_default(self, sim):
        sched = HrrScheduler(sim, 0.1, slots_per_flow={"a": 1})
        assert not sched.enqueue(make_packet(flow_id="x"), 0.0)
        assert sched.refused == 1

    def test_default_slots_auto_registers(self, sim):
        sched = HrrScheduler(sim, 0.1, default_slots=2)
        assert sched.enqueue(make_packet(flow_id="x"), 0.0)

    def test_slots_cap_per_frame(self, sim):
        sched = HrrScheduler(sim, frame_seconds=0.1, slots_per_flow={"a": 2})
        for i in range(5):
            sched.enqueue(make_packet(flow_id="a", sequence=i), 0.0)
        # Only 2 slots in this frame, even though the link is idle.
        assert sched.dequeue(0.0) is not None
        assert sched.dequeue(0.01) is not None
        assert sched.dequeue(0.02) is None
        assert len(sched) == 3
        # Next frame: credit renewed.
        assert sched.dequeue(0.1) is not None

    def test_credit_does_not_accumulate(self, sim):
        """An idle frame does not bank slots — the non-work-conserving
        property that bounds downstream bursts."""
        sched = HrrScheduler(sim, frame_seconds=0.1, slots_per_flow={"a": 1})
        # Flow idle during frames 0-4; then 3 packets arrive in frame 5.
        for i in range(3):
            sched.enqueue(make_packet(flow_id="a", sequence=i), 0.5)
        assert sched.dequeue(0.5) is not None
        assert sched.dequeue(0.51) is None  # only 1 slot, no banked credit

    def test_round_robin_between_flows(self, sim):
        sched = HrrScheduler(
            sim, frame_seconds=0.1, slots_per_flow={"a": 1, "b": 1}
        )
        sched.enqueue(make_packet(flow_id="a"), 0.0)
        sched.enqueue(make_packet(flow_id="b"), 0.0)
        served = {sched.dequeue(0.0).flow_id, sched.dequeue(0.0).flow_id}
        assert served == {"a", "b"}

    def test_rate_limited_end_to_end(self, sim):
        """10 slots per 0.1 s frame = at most ~100 pkt/s leaves the port,
        however fast the source pushes."""
        net = TopologySpec.single_link(buffer_packets=500).build(
            sim,
            lambda n, l: HrrScheduler(
                sim, frame_seconds=0.1, slots_per_flow={"f": 10}
            ),
        )
        got = []
        net.hosts["dst-host"].register_flow_handler(
            "f", lambda packet: got.append(sim.now)
        )
        port = net.port_for_link("A->B")
        for i in range(300):
            port.enqueue(make_packet(flow_id="f", sequence=i,
                                     destination="dst-host"))
        sim.run(until=2.0)
        # 2 seconds -> 20 frames -> at most 200 packets.
        assert len(got) <= 200
        assert len(got) >= 190  # and the slots are actually used


class TestJitterEdd:
    def test_rejects_bad_targets(self, sim):
        with pytest.raises(ValueError):
            JitterEddScheduler(sim, delay_targets={"a": 0.0})
        with pytest.raises(ValueError):
            JitterEddScheduler(sim, default_target=-1.0)
        sched = JitterEddScheduler(sim, default_target=0.1)
        with pytest.raises(ValueError):
            sched.set_target("a", 0.0)

    def test_unknown_flow_refused_without_default(self, sim):
        sched = JitterEddScheduler(sim, delay_targets={"a": 0.1})
        assert not sched.enqueue(make_packet(flow_id="x"), 0.0)
        assert sched.refused == 1

    def test_deadline_order_when_no_holds(self, sim):
        sched = JitterEddScheduler(
            sim, delay_targets={"tight": 0.01, "loose": 1.0}
        )
        loose = make_packet(flow_id="loose")
        tight = make_packet(flow_id="tight")
        sched.enqueue(loose, 0.0)
        sched.enqueue(tight, 0.0)
        assert sched.dequeue(0.0) is tight

    def test_ahead_packet_is_held(self, sim):
        sched = JitterEddScheduler(sim, default_target=0.1)
        early = make_packet(flow_id="f")
        early.jitter_offset = 0.05  # left the last hop 50 ms early
        sched.enqueue(early, 0.0)
        assert sched.dequeue(0.0) is None  # held
        assert sched.dequeue(0.04) is None
        assert sched.dequeue(0.05) is early

    def test_departure_stamps_new_ahead_time(self, sim):
        sched = JitterEddScheduler(sim, default_target=0.1)
        packet = make_packet(flow_id="f")
        sched.enqueue(packet, 0.0)  # deadline 0.1
        out = sched.dequeue(0.02)  # departs 80 ms early
        assert out is packet
        assert packet.jitter_offset == pytest.approx(0.08)

    def test_jitter_cancellation_over_two_hops(self, sim):
        """The defining property: hop-2 hold + hop-1 earliness = target, so
        total (hold + service) time is deterministic for an unloaded path."""
        sched1 = JitterEddScheduler(sim, default_target=0.1)
        sched2 = JitterEddScheduler(sim, default_target=0.1)
        packet = make_packet(flow_id="f")
        sched1.enqueue(packet, 0.0)
        out = sched1.dequeue(0.03)  # served 70 ms early at hop 1
        assert out.jitter_offset == pytest.approx(0.07)
        sched2.enqueue(out, 0.03)
        # Held until 0.03 + 0.07 = 0.10 — exactly one target after origin.
        assert sched2.dequeue(0.09) is None
        assert sched2.dequeue(0.10) is out

    def test_len_counts_held_and_ready(self, sim):
        sched = JitterEddScheduler(sim, default_target=0.1)
        ready = make_packet(flow_id="f", sequence=0)
        held = make_packet(flow_id="f", sequence=1)
        held.jitter_offset = 1.0
        sched.enqueue(ready, 0.0)
        sched.enqueue(held, 0.0)
        assert len(sched) == 2

    def test_wakeup_delivers_held_packet(self, sim):
        net = TopologySpec.single_link().build(
            sim, lambda n, l: JitterEddScheduler(sim, default_target=0.2)
        )
        got = []
        net.hosts["dst-host"].register_flow_handler(
            "f", lambda packet: got.append(sim.now)
        )
        packet = make_packet(flow_id="f", destination="dst-host")
        packet.jitter_offset = 0.05
        port = net.port_for_link("A->B")
        port.enqueue(packet)
        sim.run(until=1.0)
        assert len(got) == 1
        assert got[0] == pytest.approx(0.051, abs=1e-9)  # hold + 1 ms tx
