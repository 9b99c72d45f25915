"""Tests for the cyclic trace replay (TraceSource.repeat_every)."""

import pytest

from repro.scenario import TopologySpec
from repro.sched.fifo import FifoScheduler
from repro.traffic.trace import TraceSource


@pytest.fixture
def rig(sim):
    net = TopologySpec.single_link().build(sim, lambda n, l: FifoScheduler())
    arrivals = []
    net.hosts["dst-host"].register_flow_handler(
        "f", lambda packet: arrivals.append((sim.now, packet.size_bits))
    )
    return net, arrivals


class TestTraceRepeat:
    def test_single_shot_without_repeat(self, sim, rig):
        net, arrivals = rig
        TraceSource(
            sim, net.hosts["src-host"], "f", "dst-host",
            schedule=[(0.0, 1000), (0.1, 1000)],
        )
        sim.run(until=5.0)
        assert len(arrivals) == 2

    def test_repeat_replays_each_period(self, sim, rig):
        net, arrivals = rig
        source = TraceSource(
            sim, net.hosts["src-host"], "f", "dst-host",
            schedule=[(0.0, 1000), (0.1, 500)],
            repeat_every=1.0,
        )
        sim.run(until=3.5)  # cycles at 0, 1, 2, 3
        assert len(arrivals) == 8
        # Cycle 5 (offset 4.0) is already *scheduled* — arming happens at
        # the previous cycle's last emission — but has not emitted.
        assert source.cycles_started == 5
        # Sizes replay identically each cycle.
        sizes = [size for __, size in arrivals]
        assert sizes == [1000, 500] * 4
        # Second cycle lands exactly one period later.
        assert arrivals[2][0] == pytest.approx(arrivals[0][0] + 1.0)

    def test_stop_halts_future_cycles(self, sim, rig):
        net, arrivals = rig
        source = TraceSource(
            sim, net.hosts["src-host"], "f", "dst-host",
            schedule=[(0.0, 1000)],
            repeat_every=0.5,
        )
        sim.schedule(1.2, source.stop)
        sim.run(until=5.0)
        # Cycles fired at 0, 0.5, 1.0; stopped before 1.5.
        assert len(arrivals) == 3

    def test_period_must_exceed_span(self, sim, rig):
        net, __ = rig
        with pytest.raises(ValueError):
            TraceSource(
                sim, net.hosts["src-host"], "f", "dst-host",
                schedule=[(0.0, 1000), (1.0, 1000)],
                repeat_every=1.0,
            )

    def test_empty_schedule_rejected(self, sim, rig):
        net, __ = rig
        with pytest.raises(ValueError):
            TraceSource(sim, net.hosts["src-host"], "f", "dst-host", schedule=[])
