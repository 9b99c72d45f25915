"""Equal finish tags: which flow PGPS serves first.

WFQ and the unified CSZ frame order departures by finish tag; when two
tags are equal the discipline's tie-break decides.  Equal tags are easy to
make on an idle port: every arrival lands at ``now = 0`` with V(t) frozen
at 0, so equal-rate flows sending equal-size packets get the very same tag
``size / rate``.

* WFQ serves equal tags in arrival order.
* The unified scheduler serves the earliest-installed guaranteed flow
  first, and pseudo-flow 0 (predicted + datagram) loses every tie; a flow
  that is removed and installed again goes to the back.
"""

import pytest

from repro.net.packet import ServiceClass
from repro.sched.unified import PSEUDO_FLOW_0, UnifiedConfig, UnifiedScheduler
from repro.sched.wfq import WfqScheduler
from tests.conftest import make_packet

RATE = 100_000.0
TAG = 1000 / RATE  # every first packet's finish tag


def drain(sched):
    out = []
    while len(sched):
        out.append(sched.dequeue(0.0).flow_id)
    return out


def guaranteed(flow):
    return make_packet(flow_id=flow, service_class=ServiceClass.GUARANTEED)


def csz(*flows):
    """Pseudo-flow 0 gets the same rate as each guaranteed flow."""
    sched = UnifiedScheduler(UnifiedConfig(capacity_bps=RATE * (len(flows) + 1)))
    for flow in flows:
        sched.install_guaranteed_flow(flow, RATE)
    assert sched.vt.rate_of(PSEUDO_FLOW_0) == RATE
    return sched


class TestWfqTies:
    def test_equal_tags_leave_in_arrival_order(self):
        sched = WfqScheduler(RATE * 3, rates_bps={"a": RATE, "b": RATE, "c": RATE})
        for flow in ("b", "c", "a"):
            assert sched.enqueue(make_packet(flow_id=flow), 0.0)
        assert sched.vt.vtime == 0.0
        assert drain(sched) == ["b", "c", "a"]


class TestUnifiedTies:
    def test_tags_are_equal(self):
        sched = csz("g1", "g2")
        tags = {
            flow: sched.vt.assign_tag(flow, 1000, 0.0)
            for flow in ("g2", "g1", PSEUDO_FLOW_0)
        }
        assert tags == {"g1": TAG, "g2": TAG, PSEUDO_FLOW_0: TAG}

    def test_earliest_installed_first_and_flow_0_last(self):
        sched = csz("g1", "g2")
        assert sched.enqueue(make_packet(flow_id="d"), 0.0)
        assert sched.enqueue(guaranteed("g2"), 0.0)
        assert sched.enqueue(guaranteed("g1"), 0.0)
        assert drain(sched) == ["g1", "g2", "d"]

    @pytest.mark.parametrize("first", ["g1", "g2"])
    def test_flow_0_loses_to_every_guaranteed_flow(self, first):
        sched = csz("g1", "g2")
        assert sched.enqueue(make_packet(flow_id="d"), 0.0)
        assert sched.enqueue(guaranteed(first), 0.0)
        assert drain(sched) == [first, "d"]

    def test_reinstalled_flow_goes_to_the_back(self):
        sched = csz("g1", "g2")
        sched.remove_guaranteed_flow("g1", 0.0)
        sched.install_guaranteed_flow("g1", RATE, 0.0)
        assert sched.vt.rate_of(PSEUDO_FLOW_0) == RATE
        assert sched.enqueue(make_packet(flow_id="d"), 0.0)
        assert sched.enqueue(guaranteed("g1"), 0.0)
        assert sched.enqueue(guaranteed("g2"), 0.0)
        assert drain(sched) == ["g2", "g1", "d"]
