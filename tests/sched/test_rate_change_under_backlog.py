"""Clock-rate changes while a flow is GPS-active.

The unified scheduler resizes pseudo-flow 0 whenever a guaranteed flow is
installed or removed — mid-run re-admission does it under backlog.  The
virtual-time tracker must then keep ``_active_sum`` equal to the sum of
the *current* rates of the GPS-active flows, or V(t) runs at the wrong
slope until the port fully idles.
"""

import heapq

import pytest

from repro.net.packet import ServiceClass
from repro.sched.unified import PSEUDO_FLOW_0, UnifiedConfig, UnifiedScheduler
from repro.sched.wfq import VirtualTime
from tests.conftest import make_packet

C = 1_000_000.0


def true_active_sum(vt):
    return sum(vt._rates[flow] for flow in vt._active)


def rebuilt(vt, now):
    """A from-scratch tracker holding ``vt``'s observable state at ``now``
    (V, the outstanding final tags) under ``vt``'s *current* rates, with
    the active-rate sum computed from those rates."""
    assert vt._last_real == now
    fresh = VirtualTime(vt.capacity_bps)
    for flow, rate in vt._rates.items():
        fresh.register(flow, rate)
    fresh._vtime = vt.vtime
    fresh._last_real = now
    fresh._last_tag = dict(vt._last_tag)
    fresh._active = dict(vt._active)
    fresh._active_sum = sum(fresh._rates[flow] for flow in fresh._active)
    fresh._tag_heap = [(tag, flow) for flow, tag in fresh._active.items()]
    heapq.heapify(fresh._tag_heap)
    return fresh


def datagram(seq):
    return make_packet(flow_id="d", sequence=seq)


def guaranteed(seq, flow_id="g"):
    return make_packet(
        flow_id=flow_id, service_class=ServiceClass.GUARANTEED, sequence=seq
    )


class TestSetRate:
    def test_idle_flow_just_takes_the_rate(self):
        vt = VirtualTime(C)
        vt.set_rate("a", 250_000.0)
        assert vt.rate_of("a") == 250_000.0
        assert vt._active_sum == 0.0
        vt.set_rate("a", 300_000.0, now=1.0)
        assert vt.rate_of("a") == 300_000.0
        # An idle flow's rate is not in the slope: V is left alone.
        assert vt._last_real == 0.0

    def test_rejects_nonpositive_rate(self):
        vt = VirtualTime(C)
        with pytest.raises(ValueError):
            vt.set_rate("a", 0.0)

    def test_active_flow_changes_the_slope_from_now(self):
        vt = VirtualTime(C)
        vt.register("p", 1_000_000.0)
        for _ in range(5):
            vt.assign_tag("p", 1000, 0.0)  # final tag 0.005, slope 1
        vt.set_rate("p", 600_000.0, now=0.002)
        assert vt.vtime == pytest.approx(0.002)  # old slope up to now
        assert vt._active_sum == 600_000.0
        vt.advance(0.003)
        assert vt.vtime == pytest.approx(0.002 + 0.001 * C / 600_000.0)
        # V reaches the final tag at 0.002 + 0.003 * 0.6 and the flow idles.
        vt.advance(0.0038 + 1e-9)
        assert vt.vtime == pytest.approx(0.005)
        assert vt._active == {} and vt._active_sum == 0.0

    def test_flow_that_idles_before_now_is_not_counted(self):
        vt = VirtualTime(C)
        vt.register("p", 1_000_000.0)
        vt.assign_tag("p", 1000, 0.0)
        vt.set_rate("p", 500_000.0, now=0.5)  # idle since t = 0.001
        assert vt._active == {} and vt._active_sum == 0.0
        assert vt.rate_of("p") == 500_000.0

    def test_vtime_equals_a_from_scratch_tracker_with_the_final_rates(self):
        vt = VirtualTime(C)
        vt.register("p", 1_000_000.0)
        vt.register("g", 1.0)
        for _ in range(5):
            vt.assign_tag("p", 1000, 0.0)
        install = 0.0015
        vt.set_rate("g", 400_000.0, now=install)
        vt.set_rate("p", 600_000.0, now=install)
        reference = rebuilt(vt, install)
        arrivals = [
            (0.0020, "g", 1000),
            (0.0024, "p", 1000),
            (0.0031, "g", 800),
            (0.0100, "p", 1000),  # after everything idled
            (0.0101, "g", 1000),
        ]
        for now, flow, size in arrivals:
            assert vt.assign_tag(flow, size, now) == reference.assign_tag(
                flow, size, now
            )
            assert vt.vtime == reference.vtime
            assert vt._active_sum == reference._active_sum
            assert vt._active_sum == true_active_sum(vt)


class TestUnifiedUnderBacklog:
    def build(self):
        return UnifiedScheduler(UnifiedConfig(capacity_bps=C))

    def test_active_sum_after_install_under_backlog(self):
        sched = self.build()
        for i in range(5):
            assert sched.enqueue(datagram(i), 0.0)
        sched.install_guaranteed_flow("g", 400_000.0)
        assert sched.vt._active_sum == true_active_sum(sched.vt) == 600_000.0
        assert sched.enqueue(guaranteed(0), 0.0)
        # 0.6 + 0.4 of the link, not the stale 1.0 + 0.4.
        assert sched.vt._active_sum == true_active_sum(sched.vt) == 1_000_000.0

    def test_active_sum_after_remove_under_backlog(self):
        sched = self.build()
        sched.install_guaranteed_flow("g", 400_000.0)
        for i in range(5):
            sched.enqueue(datagram(i), 0.0)
        sched.enqueue(guaranteed(0), 0.0)
        # Serve until g's queue is empty (its removal precondition); the
        # datagram backlog keeps pseudo-flow 0 active throughout.
        now = 0.0
        while sched.queue_lengths()["g"]:
            assert sched.dequeue(now) is not None
            now += 0.001
        assert sched.queue_lengths()["datagram"] > 0
        sched.remove_guaranteed_flow("g", now)
        vt = sched.vt
        assert PSEUDO_FLOW_0 in vt._active
        assert vt.rate_of(PSEUDO_FLOW_0) == C
        assert vt._active_sum == true_active_sum(vt)
        # ... and stays exact as the remaining backlog drains.
        while len(sched):
            sched.dequeue(now)
            now += 0.001
            assert vt._active_sum == true_active_sum(vt)

    def test_vtime_after_mid_run_install_matches_a_rebuilt_tracker(self):
        sched = self.build()
        for i in range(5):
            sched.enqueue(datagram(i), 0.0)
        install = 0.001
        assert sched.dequeue(install) is not None
        sched.install_guaranteed_flow("g", 400_000.0, now=install)
        reference = rebuilt(sched.vt, install)
        steps = [
            (0.0015, guaranteed(0)),
            (0.0020, None),
            (0.0022, datagram(5)),
            (0.0030, None),
            (0.0040, guaranteed(1)),
            (0.0050, None),
            (0.0060, None),
        ]
        for now, arrival in steps:
            if arrival is None:
                assert sched.dequeue(now) is not None
                reference.advance(now)
            else:
                assert sched.enqueue(arrival, now)
                flow = (
                    arrival.flow_id
                    if arrival.service_class is ServiceClass.GUARANTEED
                    else PSEUDO_FLOW_0
                )
                reference.assign_tag(flow, arrival.size_bits, now)
            assert sched.vt.vtime == reference.vtime
            assert sched.vt._active_sum == true_active_sum(sched.vt)

    def test_reinstall_while_still_gps_active(self):
        """Tear-down then re-admission on a port the flow still shares:
        its last tag may not have been passed by V yet."""
        sched = self.build()
        sched.install_guaranteed_flow("g", 100_000.0)
        sched.enqueue(guaranteed(0), 0.0)
        assert sched.dequeue(0.0) is not None  # queue empty, tag still ahead
        assert "g" in sched.vt._active
        sched.remove_guaranteed_flow("g", 0.001)
        sched.install_guaranteed_flow("g", 200_000.0, now=0.002)
        assert sched.vt.rate_of("g") == 200_000.0
        assert sched.vt._active_sum == true_active_sum(sched.vt)
