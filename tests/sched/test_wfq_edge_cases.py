"""Edge-case tests for VirtualTime / WfqScheduler not covered elsewhere."""

import pytest

from repro.net.packet import ServiceClass
from repro.sched.unified import UnifiedConfig, UnifiedScheduler
from repro.sched.wfq import VirtualTime, WfqScheduler
from tests.conftest import make_packet


class TestVirtualTimeRateChanges:
    def test_reregister_while_idle_allowed(self):
        vt = VirtualTime(1_000_000)
        vt.register("a", 100_000)
        vt.register("a", 200_000)  # idle: renegotiation is fine
        assert vt.rate_of("a") == 200_000

    def test_reregister_while_backlogged_refused(self):
        vt = VirtualTime(1_000_000)
        vt.register("a", 100_000)
        vt.assign_tag("a", 1000, now=0.0)  # now GPS-active
        with pytest.raises(RuntimeError):
            vt.register("a", 200_000)

    def test_backlog_clears_then_reregister_ok(self):
        vt = VirtualTime(1_000_000)
        vt.register("a", 100_000)
        vt.assign_tag("a", 1000, now=0.0)
        # Advance far enough for the flow's final tag to pass.
        vt.advance(1.0)
        vt.register("a", 200_000)
        assert vt.rate_of("a") == 200_000

    def test_rejects_nonpositive_rate(self):
        vt = VirtualTime(1_000_000)
        with pytest.raises(ValueError):
            vt.register("a", 0.0)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            VirtualTime(0.0)

    def test_registered_rate_sum(self):
        vt = VirtualTime(1_000_000)
        vt.register("a", 100_000)
        vt.register("b", 300_000)
        assert vt.registered_rate_sum() == 400_000


class TestVirtualTimeDynamics:
    def test_vtime_grows_faster_with_fewer_active_flows(self):
        """V's slope is C / (sum of active rates): fewer active flows
        means the active ones get more than their nominal share."""
        vt = VirtualTime(1_000_000)
        vt.register("a", 500_000)
        vt.register("b", 500_000)
        vt.assign_tag("a", 100_000, now=0.0)  # only a is active
        vt.advance(0.1)
        only_a = vt.vtime
        vt2 = VirtualTime(1_000_000)
        vt2.register("a", 500_000)
        vt2.register("b", 500_000)
        vt2.assign_tag("a", 100_000, now=0.0)
        vt2.assign_tag("b", 100_000, now=0.0)  # both active
        vt2.advance(0.1)
        assert only_a > vt2.vtime

    def test_idle_system_vtime_static(self):
        vt = VirtualTime(1_000_000)
        vt.register("a", 500_000)
        vt.advance(10.0)
        assert vt.vtime == 0.0


class TestWfqSchedulerEdges:
    def test_unknown_flow_refused_without_auto(self):
        sched = WfqScheduler(1_000_000)
        assert not sched.enqueue(make_packet(flow_id="ghost"), 0.0)

    def test_empty_dequeue(self):
        sched = WfqScheduler(1_000_000)
        assert sched.dequeue(0.0) is None

    def test_auto_register(self):
        sched = WfqScheduler(1_000_000, auto_register_rate=100_000)
        assert sched.enqueue(make_packet(flow_id="new"), 0.0)
        assert sched.dequeue(0.0).flow_id == "new"


class TestUnifiedReconfiguration:
    def test_remove_missing_flow_is_noop(self):
        sched = UnifiedScheduler(UnifiedConfig(capacity_bps=1_000_000))
        sched.remove_guaranteed("never-there")

    def test_pseudo_flow_floor_enforced(self):
        sched = UnifiedScheduler(
            UnifiedConfig(capacity_bps=1_000_000, min_pseudo_flow_rate_bps=100_000)
        )
        sched.install_guaranteed("a", 800_000)
        with pytest.raises(ValueError):
            sched.install_guaranteed("b", 150_000)

    def test_refused_guaranteed_counted(self):
        sched = UnifiedScheduler(UnifiedConfig(capacity_bps=1_000_000))
        packet = make_packet(
            flow_id="no-reservation", service_class=ServiceClass.GUARANTEED
        )
        assert not sched.enqueue(packet, 0.0)
        assert sched.refused_guaranteed == 1
