"""Network-wide packet conservation: nothing vanishes, nothing duplicates.

For every scheduler the library ships, run a loaded multi-hop simulation,
freeze the clock, and check the books balance exactly:

    sent by sources = delivered to sinks + dropped at ports
                      + lost on lossy wires + still queued + in flight.

This is the invariant every other measurement (delays, utilization, drop
rates) silently relies on; a scheduler that loses or duplicates a packet
corrupts every table downstream.
"""

import random

import pytest

from repro.scenario import TopologySpec, paper
from repro.net.packet import ServiceClass
from repro.sched.fifo import FifoScheduler
from repro.sched.fifoplus import FifoPlusScheduler
from repro.sched.jacobson_floyd import JacobsonFloydScheduler
from repro.sched.nonwork import (
    HrrScheduler,
    JitterEddScheduler,
    StopAndGoScheduler,
)
from repro.sched.priority import PriorityScheduler
from repro.sched.round_robin import (
    DeficitRoundRobinScheduler,
    RoundRobinScheduler,
)
from repro.sched.unified import UnifiedConfig, UnifiedScheduler
from repro.sched.virtual_clock import VirtualClockScheduler
from repro.sched.wfq import WfqScheduler
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.onoff import OnOffMarkovSource
from repro.traffic.sink import DelayRecordingSink

DURATION = 20.0
SMALL_BUFFER = 30  # force drops so the drop path is exercised too


def scheduler_factories(sim):
    link_share = paper.LINK_RATE_BPS / 10
    return {
        "FIFO": lambda n, l: FifoScheduler(),
        "FIFO+": lambda n, l: FifoPlusScheduler(),
        "WFQ": lambda n, l: WfqScheduler(
            l.rate_bps, auto_register_rate=link_share
        ),
        "VirtualClock": lambda n, l: VirtualClockScheduler(
            auto_register_rate=link_share
        ),
        "RR": lambda n, l: RoundRobinScheduler(),
        "DRR": lambda n, l: DeficitRoundRobinScheduler(),
        "Priority": lambda n, l: PriorityScheduler(
            num_classes=2, sub_scheduler_factory=FifoScheduler
        ),
        "Unified": lambda n, l: UnifiedScheduler(
            UnifiedConfig(capacity_bps=l.rate_bps, num_predicted_classes=2)
        ),
        "JacobsonFloyd": lambda n, l: JacobsonFloydScheduler(num_classes=2),
        "StopAndGo": lambda n, l: StopAndGoScheduler(sim, frame_seconds=0.05),
        "HRR": lambda n, l: HrrScheduler(
            sim, frame_seconds=0.05, default_slots=6
        ),
        "JitterEDD": lambda n, l: JitterEddScheduler(sim, default_target=0.1),
    }


def run_and_audit(name, buffer_packets=paper.BUFFER_PACKETS):
    sim = Simulator()
    streams = RandomStreams(seed=3)
    factory = scheduler_factories(sim)[name]
    net = TopologySpec.figure1(
        rate_bps=paper.LINK_RATE_BPS, buffer_packets=buffer_packets,
    ).build(sim, factory)
    placements = paper.figure1_flow_placements()
    sources = []
    sinks = {}
    for placement in placements:
        sources.append(
            OnOffMarkovSource.paper_source(
                sim,
                net.hosts[placement.source_host],
                placement.name,
                placement.dest_host,
                streams.stream(f"source:{placement.name}"),
                service_class=ServiceClass.PREDICTED,
                priority_class=1,
            )
        )
        sinks[placement.name] = DelayRecordingSink(
            sim, net.hosts[placement.dest_host], placement.name, warmup=0.0
        )
    sim.run(until=DURATION)

    sent = sum(source.sent for source in sources)
    delivered = sum(sink.received for sink in sinks.values())
    dropped = net.total_drops()
    queued = sum(len(port.scheduler) for port in net.ports.values())
    wire_lost = sum(link.packets_lost for link in net.links.values())
    # In flight: a link that is busy holds exactly one packet.
    in_flight = sum(1 for link in net.links.values() if link.busy)
    return sent, delivered + dropped + queued + wire_lost + in_flight


ALL_SCHEDULERS = [
    "FIFO", "FIFO+", "WFQ", "VirtualClock", "RR", "DRR", "Priority",
    "Unified", "JacobsonFloyd", "StopAndGo", "HRR", "JitterEDD",
]


class TestConservation:
    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_books_balance_with_ample_buffers(self, name):
        sent, accounted = run_and_audit(name)
        assert sent > 1000  # the workload really ran
        assert sent == accounted

    @pytest.mark.parametrize(
        "name", ["FIFO", "WFQ", "Unified", "JacobsonFloyd", "StopAndGo"]
    )
    def test_books_balance_under_buffer_pressure(self, name):
        """Tiny buffers force the drop path; conservation must still hold."""
        sent, accounted = run_and_audit(name, buffer_packets=SMALL_BUFFER)
        assert sent == accounted


class TestConservationWithWireLoss:
    def test_books_balance_on_lossy_links(self):
        sim = Simulator()
        streams = RandomStreams(seed=5)
        net = TopologySpec.figure1(rate_bps=paper.LINK_RATE_BPS).build(
            sim, lambda n, l: FifoScheduler()
        )
        for i, link in enumerate(net.links.values()):
            link.loss_probability = 0.05
            link._loss_rng = random.Random(100 + i)
        placements = paper.figure1_flow_placements()
        sources = []
        sinks = {}
        for placement in placements:
            sources.append(
                OnOffMarkovSource.paper_source(
                    sim,
                    net.hosts[placement.source_host],
                    placement.name,
                    placement.dest_host,
                    streams.stream(f"source:{placement.name}"),
                )
            )
            sinks[placement.name] = DelayRecordingSink(
                sim, net.hosts[placement.dest_host], placement.name, warmup=0.0
            )
        sim.run(until=DURATION)
        sent = sum(source.sent for source in sources)
        delivered = sum(sink.received for sink in sinks.values())
        dropped = net.total_drops()
        queued = sum(len(port.scheduler) for port in net.ports.values())
        lost = sum(link.packets_lost for link in net.links.values())
        in_flight = sum(1 for link in net.links.values() if link.busy)
        assert lost > 100  # loss genuinely happened
        assert sent == delivered + dropped + queued + lost + in_flight
