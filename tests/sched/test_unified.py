"""Tests for the unified CSZ scheduler (Section 7)."""

import pytest

from repro.net.packet import ServiceClass
from repro.sched.unified import PSEUDO_FLOW_0, UnifiedConfig, UnifiedScheduler
from tests.conftest import make_packet


def build(capacity=1_000_000, classes=2, **kwargs):
    return UnifiedScheduler(
        UnifiedConfig(capacity_bps=capacity, num_predicted_classes=classes, **kwargs)
    )


def guaranteed(flow="g", **kw):
    return make_packet(flow_id=flow, service_class=ServiceClass.GUARANTEED, **kw)


def predicted(priority=0, flow="p", **kw):
    return make_packet(
        flow_id=flow, service_class=ServiceClass.PREDICTED, priority_class=priority, **kw
    )


def datagram(flow="d", **kw):
    return make_packet(flow_id=flow, service_class=ServiceClass.DATAGRAM, **kw)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            UnifiedConfig(capacity_bps=0)
        with pytest.raises(ValueError):
            UnifiedConfig(capacity_bps=1e6, num_predicted_classes=0)
        with pytest.raises(ValueError):
            UnifiedConfig(capacity_bps=1e6, min_pseudo_flow_rate_bps=0)


class TestGuaranteedFlows:
    def test_unregistered_guaranteed_refused(self):
        sched = build()
        assert not sched.enqueue(guaranteed(), 0.0)
        assert sched.refused_guaranteed == 1

    def test_install_then_accept(self):
        sched = build()
        sched.install_guaranteed_flow("g", 100_000.0)
        assert sched.enqueue(guaranteed(), 0.0)
        assert sched.dequeue(0.0) is not None

    def test_duplicate_install_rejected(self):
        sched = build()
        sched.install_guaranteed_flow("g", 100_000.0)
        with pytest.raises(ValueError):
            sched.install_guaranteed_flow("g", 100_000.0)

    def test_cannot_reserve_whole_link(self):
        sched = build(capacity=1_000_000)
        with pytest.raises(ValueError):
            sched.install_guaranteed_flow("hog", 1_000_000.0)

    def test_pseudo_flow_rate_shrinks_with_reservations(self):
        sched = build(capacity=1_000_000)
        sched.install_guaranteed_flow("g1", 300_000.0)
        sched.install_guaranteed_flow("g2", 200_000.0)
        assert sched.guaranteed_rate_sum == 500_000.0
        assert sched.vt.rate_of(PSEUDO_FLOW_0) == pytest.approx(500_000.0)

    def test_remove_restores_rate(self):
        sched = build(capacity=1_000_000)
        sched.install_guaranteed_flow("g", 400_000.0)
        sched.remove_guaranteed_flow("g")
        assert sched.vt.rate_of(PSEUDO_FLOW_0) == pytest.approx(1_000_000.0)
        assert not sched.enqueue(guaranteed(), 0.0)  # no longer installed

    def test_remove_with_queued_packets_rejected(self):
        """Teardown under backlog: new arrivals are rejected, the queued
        packets drain on the tags they hold, and pseudo-flow 0 gets the
        whole residual rate from ``now``."""
        sched = build(capacity=1_000_000)
        sched.install_guaranteed_flow("g", 400_000.0)
        queued = [guaranteed(sequence=i) for i in range(3)]
        for packet in queued:
            assert sched.enqueue(packet, 0.0)
        assert sched.enqueue(datagram(), 0.0)
        sched.remove_guaranteed_flow("g", 0.001)
        assert sched.vt.rate_of(PSEUDO_FLOW_0) == 1_000_000.0
        assert sched.vt.vtime == pytest.approx(0.001)  # advanced to `now`
        assert not sched.enqueue(guaranteed(sequence=3), 0.001)
        assert sched.refused_guaranteed == 1
        # Tags: g at 1000/400k per packet (0.0025, 0.005, 0.0075), the
        # datagram at 1000/600k (0.00167): tag order, not arrival order.
        out = [sched.dequeue(0.001) for __ in range(4)]
        assert [p.flow_id for p in out] == ["d", "g", "g", "g"]
        assert [p.sequence for p in out[1:]] == [0, 1, 2]
        assert len(sched) == 0 and sched.dequeue(0.001) is None

    def test_guaranteed_share_under_overload(self):
        """With r_g = half the link and both queues saturated, the
        guaranteed flow gets half the dequeues — isolation in action."""
        sched = build(capacity=1_000_000)
        sched.install_guaranteed_flow("g", 500_000.0)
        for i in range(50):
            sched.enqueue(guaranteed(sequence=i), 0.0)
            sched.enqueue(datagram(sequence=i), 0.0)
        first20 = [sched.dequeue(0.0) for _ in range(20)]
        g_count = sum(1 for p in first20 if p.flow_id == "g")
        assert g_count == 10


class TestFlowZeroHierarchy:
    def test_predicted_outranks_datagram(self):
        sched = build()
        d = datagram(sequence=0)
        p = predicted(priority=1, sequence=1)
        sched.enqueue(d, 0.0)
        sched.enqueue(p, 0.0)
        assert sched.dequeue(0.0) is p
        assert sched.dequeue(0.0) is d

    def test_priority_classes_ordered(self):
        sched = build(classes=3)
        low = predicted(priority=2, sequence=0)
        high = predicted(priority=0, sequence=1)
        mid = predicted(priority=1, sequence=2)
        for p in (low, high, mid):
            sched.enqueue(p, 0.0)
        out = [sched.dequeue(0.0) for _ in range(3)]
        assert [p.priority_class for p in out] == [0, 1, 2]

    def test_fifo_plus_inside_predicted_class(self):
        sched = build()
        on_time = predicted(priority=0, sequence=0)
        on_time.enqueued_at = 10.0
        unlucky = predicted(priority=0, sequence=1)
        unlucky.jitter_offset = 5.0
        unlucky.enqueued_at = 10.5
        sched.enqueue(on_time, 10.0)
        sched.enqueue(unlucky, 10.5)
        assert sched.dequeue(11.0).sequence == 1

    def test_tag_book_stays_consistent(self):
        sched = build()
        for i in range(10):
            sched.enqueue(predicted(priority=i % 2, sequence=i), 0.0)
            sched.enqueue(datagram(sequence=i), 0.0)
        seen = 0
        while len(sched):
            assert sched.dequeue(0.0) is not None
            seen += 1
        assert seen == 20
        assert len(sched) == 0
        assert not any(sched.queue_lengths().values())

    def test_datagram_fifo_order(self):
        sched = build()
        packets = [datagram(sequence=i) for i in range(5)]
        for p in packets:
            sched.enqueue(p, 0.0)
        out = [sched.dequeue(0.0) for _ in range(5)]
        assert [p.sequence for p in out] == [0, 1, 2, 3, 4]


class TestPushOut:
    def test_realtime_evicts_datagram(self):
        sched = build()
        victim_candidate = datagram()
        sched.enqueue(victim_candidate, 0.0)
        victim = sched.select_push_out(predicted(priority=0))
        assert victim is victim_candidate
        assert len(sched) == 0

    def test_datagram_cannot_push_out(self):
        sched = build()
        sched.enqueue(predicted(priority=1), 0.0)
        assert sched.select_push_out(datagram()) is None

    def test_guaranteed_packets_never_evicted(self):
        sched = build()
        sched.install_guaranteed_flow("g", 100_000.0)
        sched.enqueue(guaranteed(), 0.0)
        assert sched.select_push_out(predicted(priority=0)) is None


class TestAccounting:
    def test_len_spans_both_sides(self):
        sched = build()
        sched.install_guaranteed_flow("g", 100_000.0)
        sched.enqueue(guaranteed(), 0.0)
        sched.enqueue(predicted(), 0.0)
        sched.enqueue(datagram(), 0.0)
        assert len(sched) == 3

    def test_queue_lengths_labelled(self):
        sched = build(classes=2)
        sched.install_guaranteed_flow("g", 100_000.0)
        sched.enqueue(guaranteed(), 0.0)
        sched.enqueue(predicted(priority=1), 0.0)
        sched.enqueue(datagram(), 0.0)
        lengths = sched.queue_lengths()
        assert lengths["g"] == 1
        assert lengths["predicted[1]"] == 1
        assert lengths["datagram"] == 1

    def test_empty_dequeue(self):
        assert build().dequeue(0.0) is None
