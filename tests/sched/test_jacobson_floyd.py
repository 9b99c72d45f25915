"""Tests for the Jacobson-Floyd related-work scheduler (Section 11)."""

import pytest

from repro.net.packet import ServiceClass
from repro.sched.base import GuaranteedServiceUnsupported
from repro.sched.jacobson_floyd import JacobsonFloydScheduler
from tests.conftest import make_packet


def predicted(flow_id, priority=0, seq=0, enq=0.0):
    return make_packet(
        flow_id=flow_id,
        service_class=ServiceClass.PREDICTED,
        priority_class=priority,
        sequence=seq,
        enqueued_at=enq,
    )


class TestStructure:
    def test_rejects_zero_classes(self):
        with pytest.raises(ValueError):
            JacobsonFloydScheduler(num_classes=0)

    def test_datagram_rides_bottom_level(self):
        sched = JacobsonFloydScheduler(num_classes=2)
        sched.enqueue(make_packet(flow_id="d"), 0.0)
        sched.enqueue(predicted("p", priority=1), 0.0)
        assert sched.dequeue(0.0).flow_id == "p"
        assert sched.dequeue(0.0).flow_id == "d"

    def test_priority_levels_ordered(self):
        sched = JacobsonFloydScheduler(num_classes=2)
        sched.enqueue(predicted("low", priority=1), 0.0)
        sched.enqueue(predicted("high", priority=0), 0.0)
        assert sched.dequeue(0.0).flow_id == "high"

    def test_overflow_priority_clamped(self):
        sched = JacobsonFloydScheduler(num_classes=2)
        assert sched.enqueue(predicted("p", priority=9), 0.0)
        assert sched.dequeue(0.0).flow_id == "p"


class TestRoundRobinWithinLevel:
    def test_flows_alternate_not_fifo(self):
        """The defining contrast with CSZ: within a level, a burst from
        one flow does NOT ride through as a clump."""
        sched = JacobsonFloydScheduler(num_classes=1)
        for seq in range(3):
            sched.enqueue(predicted("burster", seq=seq), 0.0)
        sched.enqueue(predicted("meek", seq=0), 0.0)
        order = [sched.dequeue(0.0).flow_id for _ in range(4)]
        # Round robin interleaves; FIFO would give b,b,b,meek.
        assert order == ["burster", "meek", "burster", "burster"]

    def test_aggregate_groups_share_a_slot(self):
        """Flows mapped to one group are FIFO inside it and round-robin
        against other groups ('combine the traffic ... into some number of
        aggregate groups, and do FIFO within each group')."""
        group_of = lambda packet: "voice" if packet.flow_id.startswith("v") else "video"
        sched = JacobsonFloydScheduler(num_classes=1, group_of=group_of)
        sched.enqueue(predicted("v1", seq=0), 0.0)
        sched.enqueue(predicted("v2", seq=1), 0.0)
        sched.enqueue(predicted("x1", seq=2), 0.0)
        order = [sched.dequeue(0.0).flow_id for _ in range(3)]
        # voice and video alternate; v1 precedes v2 inside the voice group.
        assert order == ["v1", "x1", "v2"]


class TestPerSwitchPolicing:
    def test_policer_drops_nonconforming(self):
        sched = JacobsonFloydScheduler(
            num_classes=1, police={"p": (1000.0, 2000.0)}
        )
        # Bucket depth = 2 packets; a 4-packet instantaneous burst loses 2.
        accepted = [
            sched.enqueue(predicted("p", seq=i), 0.0) for i in range(4)
        ]
        assert accepted == [True, True, False, False]
        assert sched.policed_drops == 2

    def test_policer_refills_over_time(self):
        sched = JacobsonFloydScheduler(
            num_classes=1, police={"p": (1000.0, 1000.0)}
        )
        assert sched.enqueue(predicted("p", seq=0), 0.0)
        assert not sched.enqueue(predicted("p", seq=1), 0.0)
        # One second at 1000 bit/s refills a full packet.
        assert sched.enqueue(predicted("p", seq=2), 1.0)

    def test_unpoliced_flows_unaffected(self):
        sched = JacobsonFloydScheduler(
            num_classes=1, police={"p": (1000.0, 1000.0)}
        )
        for seq in range(5):
            assert sched.enqueue(predicted("other", seq=seq), 0.0)

    def test_add_policer_later(self):
        sched = JacobsonFloydScheduler(num_classes=1)
        sched.add_policer("p", 1000.0, 1000.0)
        assert sched.enqueue(predicted("p"), 0.0)
        assert not sched.enqueue(predicted("p", seq=1), 0.0)

    def test_no_guaranteed_service(self):
        """The paper: 'there is no provision for guaranteed service in
        their mechanism' — guaranteed packets are just high-priority
        predicted traffic with no WFQ isolation (clamped into class 0)."""
        sched = JacobsonFloydScheduler(num_classes=2)
        g = make_packet(
            flow_id="g", service_class=ServiceClass.GUARANTEED,
            priority_class=0,
        )
        assert sched.enqueue(g, 0.0)
        with pytest.raises(GuaranteedServiceUnsupported):
            sched.install_guaranteed("g", 100_000.0)


class TestAccounting:
    def test_len_and_queue_lengths(self):
        sched = JacobsonFloydScheduler(num_classes=2)
        sched.enqueue(predicted("a", priority=0), 0.0)
        sched.enqueue(predicted("b", priority=1), 0.0)
        sched.enqueue(make_packet(flow_id="d"), 0.0)
        assert len(sched) == 3
        assert sched.queue_lengths() == {0: 1, 1: 1, 2: 1}
