"""The flattened per-packet steps against the objects they were inlined from.

Each hot-path step that used to be a call into a small accumulator is now
written out in its caller's frame.  The accumulators stay the definition:
these tests drive them side by side with the flattened code and demand
*bitwise* equality, so "same arithmetic, fewer frames" is checked rather
than promised.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import Link
from repro.net.node import Host, Node, Switch
from repro.net.packet import Packet, ServiceClass
from repro.net.port import OutputPort
from repro.scenario import ScenarioRunner, registry
from repro.sched.fifo import FifoScheduler
from repro.sim.engine import Simulator
from repro.stats.percentile import PercentileTracker
from repro.stats.summary import SummaryStats
from repro.stats.timeseries import TimeWeightedValue
from repro.traffic.sink import DelayRecordingSink
from repro.traffic.source import PacketSource
from repro.traffic.token_bucket import (
    NonconformingPolicy,
    TokenBucket,
    TokenBucketFilter,
)
from tests.conftest import make_packet


# ----------------------------------------------------------------------
# Link utilization == TimeWeightedValue over the same busy edges
# ----------------------------------------------------------------------


class AuditedLink(Link):
    """A link that also feeds every busy edge to a ``TimeWeightedValue``."""

    def __init__(self, sim, name, rate_bps, **kwargs):
        super().__init__(sim, name, rate_bps, **kwargs)
        self.reference = TimeWeightedValue(start_time=sim.now, initial=0.0)
        self.edges = []

    def _edge(self, now, busy):
        self.edges.append((now, busy))
        self.reference.update(now, busy)

    def transmit(self, packet):
        if not self.busy and self.receiver is not None:
            self._edge(self.sim.now, 1.0)
        super().transmit(packet)

    def _complete(self):
        if self._in_flight is not None and self.sim.now == self._complete_at:
            self._edge(self.sim.now, 0.0)
        super()._complete()

    def serve_inline(self, packet, complete_at):
        self._edge(self.sim.now, 1.0)
        self._edge(complete_at, 0.0)
        super().serve_inline(packet, complete_at)

    def fail(self):
        if self.up and self._in_flight is not None:
            self._edge(self.sim.now, 0.0)
        super().fail()


class Discard(Node):
    def receive(self, packet):
        pass


def test_link_utilization_is_bitwise_the_time_weighted_busy_flag():
    sim = Simulator()
    link = AuditedLink(sim, "L", rate_bps=1_000_000.0 / 7.0)
    link.connect(Discard(sim, "sink"))
    port = OutputPort(sim, "P", FifoScheduler(), link, 200)
    sizes = [937, 1213, 1000, 411, 1500, 777]
    probes = []

    def probe():
        now = sim.now
        probes.append(
            (
                now,
                link.utilization(),
                link.reference.average(now),
                # an explicit, later ``now`` extrapolates the current state
                link.utilization(now + 0.0123),
                link.reference.average(now + 0.0123),
            )
        )

    def burst(count, flow_id="f"):
        for i in range(count):
            port.enqueue(make_packet(flow_id=flow_id, size_bits=sizes[i % 6]))

    # A quiet burst: the first packet is transmitted, the rest are served
    # inline by the batched drain.
    sim.schedule(0.013, lambda: burst(6))
    sim.schedule(0.2, probe)  # idle, after the burst
    # Per-packet service: probes land mid-transmission and break batching.
    sim.schedule(0.3001, lambda: burst(4))
    for t in (0.3017, 0.3105, 0.3333):
        sim.schedule(t, probe)
    # Probe mid-transmission, then while idle.
    sim.schedule(0.5, lambda: burst(3))
    sim.schedule(0.5032, probe)
    sim.schedule(0.7, probe)
    sim.schedule(0.71, probe)
    # Fail mid-transmission, probe while down, restore with a backlog.
    sim.schedule(0.8, lambda: burst(5))
    sim.schedule(0.8042, link.fail)
    sim.schedule(0.8042, port.flush_queue)
    sim.schedule(0.81, probe)
    sim.schedule(0.85, lambda: burst(2))  # queued behind the dead wire
    sim.schedule(0.9, link.restore)
    sim.schedule(0.9003, probe)
    sim.schedule(1.5, probe)
    sim.run_until_idle()

    assert port.batched_departures > 0
    assert link.packets_failed == 1
    assert len(probes) == 10
    for now, got, want, got_later, want_later in probes:
        assert got == want, now
        assert got_later == want_later, now
    assert any(0.0 < got < 1.0 for _, got, _, _, _ in probes)
    # Edges alternate busy/idle and never run backwards.
    assert [busy for _, busy in link.edges[:4]] == [1.0, 0.0, 1.0, 0.0]
    assert all(a[0] <= b[0] for a, b in zip(link.edges, link.edges[1:]))


# ----------------------------------------------------------------------
# DelayRecordingSink == SummaryStats + PercentileTracker
# ----------------------------------------------------------------------


def _deliver(sim, host, samples):
    """Deliver packets carrying ``(at, queueing_delay, created_at)``."""
    for at, queueing_delay, created_at in samples:
        packet = make_packet(flow_id="f", created_at=created_at)
        packet.queueing_delay = queueing_delay
        sim.schedule(at - sim.now, lambda p=packet: host.receive(p))
    sim.run_until_idle()


def _samples(count, seed):
    rng = random.Random(seed)
    out = []
    at = 0.0
    for _ in range(count):
        at += rng.expovariate(200.0)
        delay = rng.expovariate(300.0) * (10.0 if rng.random() < 0.02 else 1.0)
        out.append((at, delay, at - delay - rng.random() * 0.004))
    return out


def _assert_same_summary(got: SummaryStats, want: SummaryStats):
    assert got.count == want.count
    assert got.total == want.total
    assert got.mean == want.mean
    assert got.variance == want.variance
    assert got.sample_variance == want.sample_variance
    assert got.min == want.min
    assert got.max == want.max


@pytest.mark.parametrize("warmup", [0.0, 1.0])
def test_sink_recording_is_bitwise_the_accumulators(warmup):
    sim = Simulator()
    host = Host(sim, "dst")
    sink = DelayRecordingSink(sim, host, "f", warmup=warmup)
    samples = _samples(600, seed=11)
    _deliver(sim, host, samples)

    queueing, end_to_end = SummaryStats(), SummaryStats()
    tracker = PercentileTracker()
    kept = [s for s in samples if not s[0] < warmup]
    for at, delay, created_at in kept:
        queueing.add(delay)
        tracker.add(delay)
        end_to_end.add(at - created_at)

    assert sink.received == len(samples)
    assert sink.recorded == len(kept)
    assert (len(kept) < len(samples)) == (warmup > 0.0)
    assert sink.last_arrival == samples[-1][0]
    _assert_same_summary(sink.queueing, queueing)
    _assert_same_summary(sink.end_to_end, end_to_end)
    assert sink.queueing_pct.count == tracker.count
    assert len(sink.queueing_pct) == len(tracker)
    for pct in (0.0, 50.0, 99.0, 99.9, 100.0):
        assert sink.queueing_pct.percentile(pct) == tracker.percentile(pct)
    assert sink.max_queueing() == tracker.max
    # Recording keeps working after a percentile query re-sorted the store.
    _deliver(sim, host, [(sim.now + 0.5, 0.25, sim.now)])
    tracker.add(0.25)
    assert sink.queueing_pct.percentile(99.9) == tracker.percentile(99.9)


def test_sink_recording_honours_a_reservoir_tracker():
    sim = Simulator()
    host = Host(sim, "dst")
    sink = DelayRecordingSink(sim, host, "f")
    sink.queueing_pct = PercentileTracker(
        reservoir_size=32, rng=random.Random(5)
    )
    tracker = PercentileTracker(reservoir_size=32, rng=random.Random(5))
    samples = _samples(400, seed=3)
    _deliver(sim, host, samples)
    for _, delay, _ in samples:
        tracker.add(delay)
    assert sink.queueing_pct.count == tracker.count == 400
    assert len(sink.queueing_pct) == len(tracker) == 32
    for pct in (50.0, 99.9):
        assert sink.queueing_pct.percentile(pct) == tracker.percentile(pct)
    assert sink.queueing.count == 400


# ----------------------------------------------------------------------
# TokenBucketFilter.check == TokenBucket.try_consume
# ----------------------------------------------------------------------

arrival_sequences = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.05, allow_nan=False),
        st.integers(min_value=1, max_value=4000),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(
    arrivals=arrival_sequences,
    rate=st.floats(min_value=1e3, max_value=1e6),
    depth=st.floats(min_value=500.0, max_value=2e4),
    policy=st.sampled_from(list(NonconformingPolicy)),
)
def test_filter_check_is_try_consume(arrivals, rate, depth, policy):
    edge = TokenBucketFilter(rate, depth, policy=policy)
    bucket = TokenBucket(rate, depth)
    now = 0.0
    conforming = 0
    for gap, size in arrivals:
        now += gap
        packet = make_packet(size_bits=size)
        conforms = bucket.try_consume(size, now)
        conforming += conforms
        passed = edge.check(packet, now)
        if policy is NonconformingPolicy.TAG:
            assert passed
            assert packet.tagged == (not conforms)
        else:
            assert passed == conforms
            assert not packet.tagged
        assert edge.bucket.tokens_at(now) == bucket.tokens_at(now)
    assert edge.conforming == conforming
    assert edge.nonconforming == len(arrivals) - conforming


def test_filter_check_rejects_a_backwards_clock():
    edge = TokenBucketFilter(1000.0, 5000.0)
    assert edge.check(make_packet(), 5.0)
    with pytest.raises(ValueError, match="time went backwards: 4.0 < 5.0"):
        edge.check(make_packet(), 4.0)
    assert edge.conforming == 1 and edge.nonconforming == 0


# ----------------------------------------------------------------------
# PacketSource.emit builds the packet positionally
# ----------------------------------------------------------------------


def test_emitted_packet_equals_its_keyword_built_twin(sim):
    host = Host(sim, "src")
    switch = Switch(sim, "S")
    host.attach(switch)
    sent = []
    switch.receive = sent.append
    source = PacketSource(
        sim,
        host,
        "flow-7",
        "dst",
        packet_size_bits=1234,
        service_class=ServiceClass.PREDICTED,
        priority_class=1,
    )
    sim.schedule(0.25, source.emit)
    sim.schedule(0.75, source.emit)
    sim.run_until_idle()
    assert [p.sequence for p in sent] == [0, 1]
    assert sent[1].packet_id > sent[0].packet_id
    for packet, created_at, sequence in zip(sent, (0.25, 0.75), (0, 1)):
        twin = Packet(
            flow_id="flow-7",
            size_bits=1234,
            created_at=created_at,
            source="src",
            destination="dst",
            service_class=ServiceClass.PREDICTED,
            priority_class=1,
            sequence=sequence,
            packet_id=packet.packet_id,
        )
        assert packet == twin


# ----------------------------------------------------------------------
# The port's flow-policer table
# ----------------------------------------------------------------------


class TestFlowPolicerTable:
    def build(self, sim):
        link = Link(sim, "L", rate_bps=1_000_000.0)
        link.connect(Discard(sim, "sink"))
        return OutputPort(sim, "P", FifoScheduler(), link, 200)

    def test_only_the_keyed_flow_is_policed(self, sim):
        port = self.build(sim)
        policer = TokenBucketFilter(1000.0, 2000.0)
        port.flow_policers["p"] = policer
        drops = []
        port.on_drop.append(lambda packet, now: drops.append(packet.flow_id))
        for i in range(4):
            port.enqueue(make_packet(flow_id="p", sequence=i))
            port.enqueue(make_packet(flow_id="other", sequence=i))
        assert drops == ["p", "p"]  # a 2-packet bucket, 4 packets
        assert policer.conforming == 2 and policer.nonconforming == 2
        assert port.packets_dropped == 2 and port.packets_in == 8

    def test_port_wide_filters_still_run(self, sim):
        port = self.build(sim)
        port.flow_policers["p"] = TokenBucketFilter(1e6, 1e6)
        port.filters.append(lambda packet, now: packet.sequence != 1)
        assert port.enqueue(make_packet(flow_id="p", sequence=0))
        assert not port.enqueue(make_packet(flow_id="p", sequence=1))
        assert not port.enqueue(make_packet(flow_id="q", sequence=1))

    def test_remove_flow_clears_the_policer(self):
        spec = registry.build("table3", duration=1.0, seed=1)
        context = ScenarioRunner(spec).build()
        predicted = [
            name
            for name, grant in context.grants.items()
            if grant.service_class is ServiceClass.PREDICTED
        ]
        assert predicted
        for name in predicted:
            grant = context.grants[name]
            edge = context.net.port_for_link(grant.link_names[0])
            assert name in edge.flow_policers
            for later in grant.link_names[1:]:
                assert name not in context.net.port_for_link(later).flow_policers
        # No established flow left a closure in a port-wide filter list.
        assert all(port.filters == [] for port in context.net.ports.values())
        name = predicted[0]
        edge = context.net.port_for_link(context.grants[name].link_names[0])
        context.remove_flow(name)
        assert name not in edge.flow_policers
        assert context.signaling.edge_filter_of(name) is None
        context.run()  # and the run goes on without it
