"""Property-based tests for the unified CSZ scheduler's invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packet import ServiceClass
from repro.sched.unified import UnifiedConfig, UnifiedScheduler
from tests.conftest import make_packet

# A random mixture: (kind, flow index, arrival gap).
kinds = st.sampled_from(["guaranteed", "high", "low", "datagram"])
mixture = st.lists(
    st.tuples(
        kinds,
        st.integers(min_value=0, max_value=2),
        st.floats(min_value=0.0, max_value=0.01),
    ),
    min_size=1,
    max_size=60,
)

GUARANTEED_FLOWS = {"g0": 100_000.0, "g1": 150_000.0, "g2": 50_000.0}


def build_scheduler():
    scheduler = UnifiedScheduler(
        UnifiedConfig(capacity_bps=1_000_000, num_predicted_classes=2)
    )
    for flow_id, rate in GUARANTEED_FLOWS.items():
        scheduler.install_guaranteed(flow_id, rate)
    return scheduler


def make_mixture_packet(kind, index, seq):
    if kind == "guaranteed":
        return make_packet(
            flow_id=f"g{index}",
            service_class=ServiceClass.GUARANTEED,
            sequence=seq,
        )
    if kind == "datagram":
        return make_packet(
            flow_id=f"d{index}",
            service_class=ServiceClass.DATAGRAM,
            sequence=seq,
        )
    priority = 0 if kind == "high" else 1
    return make_packet(
        flow_id=f"p{index}-{priority}",
        service_class=ServiceClass.PREDICTED,
        priority_class=priority,
        sequence=seq,
    )


class TestUnifiedProperties:
    @given(mix=mixture)
    @settings(max_examples=80, deadline=None)
    def test_conservation(self, mix):
        """Every accepted packet comes out exactly once; len() is exact."""
        scheduler = build_scheduler()
        accepted = []
        t = 0.0
        for seq, (kind, index, gap) in enumerate(mix):
            t += gap
            packet = make_mixture_packet(kind, index, seq)
            packet.enqueued_at = t
            if scheduler.enqueue(packet, t):
                accepted.append(packet.packet_id)
        assert len(scheduler) == len(accepted)
        out = []
        while len(scheduler):
            packet = scheduler.dequeue(t)
            assert packet is not None, "work conservation violated"
            out.append(packet.packet_id)
        assert sorted(out) == sorted(accepted)
        assert scheduler.dequeue(t) is None

    @given(mix=mixture)
    @settings(max_examples=60, deadline=None)
    def test_work_conserving(self, mix):
        """Interleaved enqueue/dequeue: dequeue never returns None while
        packets are queued (the CSZ scheduler is work-conserving)."""
        scheduler = build_scheduler()
        queued = 0
        t = 0.0
        for seq, (kind, index, gap) in enumerate(mix):
            t += gap
            packet = make_mixture_packet(kind, index, seq)
            packet.enqueued_at = t
            if scheduler.enqueue(packet, t):
                queued += 1
            if seq % 3 == 0 and queued:
                assert scheduler.dequeue(t) is not None
                queued -= 1
        assert len(scheduler) == queued

    @given(mix=mixture)
    @settings(max_examples=60, deadline=None)
    def test_per_flow_fifo_for_guaranteed(self, mix):
        """Within one guaranteed flow, packets depart in arrival order
        (WFQ never reorders a single flow)."""
        scheduler = build_scheduler()
        t = 0.0
        for seq, (kind, index, gap) in enumerate(mix):
            t += gap
            packet = make_mixture_packet(kind, index, seq)
            packet.enqueued_at = t
            scheduler.enqueue(packet, t)
        last_seq = {}
        while len(scheduler):
            packet = scheduler.dequeue(t)
            if packet.service_class is ServiceClass.GUARANTEED:
                previous = last_seq.get(packet.flow_id, -1)
                assert packet.sequence > previous
                last_seq[packet.flow_id] = packet.sequence

    @given(mix=mixture)
    @settings(max_examples=60, deadline=None)
    def test_priority_order_within_flow0_drain(self, mix):
        """When the queue is drained with no further arrivals, a low-class
        predicted packet never precedes a high-class one enqueued earlier
        AND pending — i.e. within flow 0 the priority structure holds at
        each dequeue instant."""
        scheduler = build_scheduler()
        t = 0.0
        for seq, (kind, index, gap) in enumerate(mix):
            t += gap
            packet = make_mixture_packet(kind, index, seq)
            packet.enqueued_at = t
            scheduler.enqueue(packet, t)
        pending_high = sum(
            1
            for level, count in scheduler.queue_lengths().items()
            if level == "predicted[0]"
            for __ in range(count)
        )
        while len(scheduler):
            packet = scheduler.dequeue(t)
            if packet.service_class is ServiceClass.PREDICTED:
                if packet.priority_class == 0:
                    pending_high -= 1
                else:
                    assert pending_high == 0
            elif packet.service_class is ServiceClass.DATAGRAM:
                # Datagram only leaves flow 0 when no predicted remains.
                lengths = scheduler.queue_lengths()
                assert lengths.get("predicted[0]", 0) == 0
                assert lengths.get("predicted[1]", 0) == 0
