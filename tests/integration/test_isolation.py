"""End-to-end isolation: a misbehaving flow cannot break commitments.

The paper's fundamental claim (Sections 4 and 12): "The network cannot
make any commitments if it cannot prevent the unexpected behavior of one
source from disrupting others."  These tests flood the unified scheduler
with traffic that violates every assumption and verify the victims'
guarantees still hold.
"""

import pytest

from repro.core.bounds import parekh_gallager_packet_bound
from repro.scenario import TopologySpec, paper
from repro.net.packet import ServiceClass
from repro.sched.unified import UnifiedConfig, UnifiedScheduler
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.onoff import OnOffMarkovSource, OnOffParams
from repro.traffic.sink import DelayRecordingSink

DURATION = 30.0
FLOOD = OnOffParams(
    average_rate_pps=400.0, mean_burst_packets=60.0, peak_rate_pps=950.0
)


def unified_net(sim, **kwargs):
    schedulers = []

    def factory(name, link):
        scheduler = UnifiedScheduler(
            UnifiedConfig(capacity_bps=link.rate_bps, num_predicted_classes=2)
        )
        schedulers.append(scheduler)
        return scheduler

    return TopologySpec.single_link(**kwargs).build(sim, factory), schedulers


class TestGuaranteedIsolation:
    def test_victim_bound_holds_against_flooding_datagrams(self, sim):
        """A guaranteed flow's P-G bound survives a datagram flood."""
        net, schedulers = unified_net(sim)
        rate = 170_000.0
        for scheduler in schedulers:
            scheduler.install_guaranteed("victim", rate)
        streams = RandomStreams(seed=1)
        OnOffMarkovSource.paper_source(
            sim, net.hosts["src-host"], "victim", "dst-host",
            streams.stream("victim"),
            average_rate_pps=85.0,
            service_class=ServiceClass.GUARANTEED,
        )
        sink = DelayRecordingSink(
            sim, net.hosts["dst-host"], "victim", warmup=0.0
        )
        for i in range(3):
            OnOffMarkovSource(
                sim, net.hosts["src-host"], f"flood-{i}", "dst-host",
                FLOOD, streams.stream(f"flood-{i}"),
                service_class=ServiceClass.DATAGRAM,
            )
        net.hosts["dst-host"].default_handler = lambda packet: None
        sim.run(until=DURATION)
        bound = parekh_gallager_packet_bound(
            paper.BUCKET_PACKETS * paper.PACKET_BITS,
            rate,
            paper.PACKET_BITS,
            [paper.LINK_RATE_BPS],
        )
        assert sink.recorded > 1000
        assert sink.max_queueing(1.0) < bound

    def test_misbehaving_guaranteed_flow_hurts_only_itself(self, sim):
        """A guaranteed flow sending far beyond its clock rate builds its
        own queue; a well-behaved guaranteed peer stays fast."""
        net, schedulers = unified_net(sim, buffer_packets=400)
        for scheduler in schedulers:
            scheduler.install_guaranteed("honest", 170_000.0)
            scheduler.install_guaranteed("hog", 170_000.0)
        streams = RandomStreams(seed=3)
        OnOffMarkovSource.paper_source(
            sim, net.hosts["src-host"], "honest", "dst-host",
            streams.stream("honest"),
            average_rate_pps=85.0,
            service_class=ServiceClass.GUARANTEED,
        )
        # The hog ignores its characterization: 400 pkt/s against a
        # 170 kbit/s clock rate, no token bucket.
        OnOffMarkovSource(
            sim, net.hosts["src-host"], "hog", "dst-host",
            FLOOD, streams.stream("hog"),
            service_class=ServiceClass.GUARANTEED,
        )
        honest = DelayRecordingSink(
            sim, net.hosts["dst-host"], "honest", warmup=0.0
        )
        hog = DelayRecordingSink(sim, net.hosts["dst-host"], "hog", warmup=0.0)
        sim.run(until=DURATION)
        unit = paper.TX_TIME_SECONDS
        assert honest.recorded > 1000
        # The honest flow rides its WFQ share, essentially undisturbed...
        assert honest.percentile_queueing(99.9, unit) < 60.0
        # ...while the hog's own backlog explodes.
        assert hog.percentile_queueing(99.9, unit) > 5.0 * honest.percentile_queueing(99.9, unit)

    def test_predicted_flood_cannot_starve_guaranteed(self, sim):
        net, schedulers = unified_net(sim)
        for scheduler in schedulers:
            scheduler.install_guaranteed("victim", 170_000.0)
        streams = RandomStreams(seed=7)
        OnOffMarkovSource.paper_source(
            sim, net.hosts["src-host"], "victim", "dst-host",
            streams.stream("victim"),
            average_rate_pps=85.0,
            service_class=ServiceClass.GUARANTEED,
        )
        sink = DelayRecordingSink(
            sim, net.hosts["dst-host"], "victim", warmup=0.0
        )
        # The flood rides predicted class 1 (in the real architecture no
        # such flood survives the edge policer; class-0 floods could still
        # fill the shared buffer, which push-out does not reclaim from an
        # equal class).
        for i in range(3):
            OnOffMarkovSource(
                sim, net.hosts["src-host"], f"pflood-{i}", "dst-host",
                FLOOD, streams.stream(f"pflood-{i}"),
                service_class=ServiceClass.PREDICTED,
                priority_class=1,
            )
        net.hosts["dst-host"].default_handler = lambda packet: None
        sim.run(until=DURATION)
        # Throughput held: the victim delivered its offered load.
        assert sink.recorded > 0.9 * 85.0 * DURATION * 0.9


class TestDatagramQuotaEffect:
    def test_datagram_still_progresses_under_realtime_pressure(self, sim):
        """Real-time load within the unified scheduler's residual still
        lets datagram traffic trickle (it is never priority-starved
        forever because real-time flows are not saturating)."""
        net, schedulers = unified_net(sim)
        streams = RandomStreams(seed=9)
        for i in range(9):  # 9 x 85 = 765 pkt/s of predicted load
            OnOffMarkovSource.paper_source(
                sim, net.hosts["src-host"], f"rt-{i}", "dst-host",
                streams.stream(f"rt-{i}"),
                service_class=ServiceClass.PREDICTED,
                priority_class=0,
            )
            net.hosts["dst-host"].default_handler = lambda packet: None
        from repro.traffic.cbr import CbrSource

        CbrSource(
            sim, net.hosts["src-host"], "dgram", "dst-host", rate_pps=100.0
        )
        sink = DelayRecordingSink(
            sim, net.hosts["dst-host"], "dgram", warmup=0.0
        )
        sim.run(until=DURATION)
        # ~100 pkt/s offered; most get through the ~23% residual.
        assert sink.recorded > 0.8 * 100.0 * DURATION
