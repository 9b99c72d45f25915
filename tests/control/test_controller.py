"""LinkStateController over a live network: failure, flush, reroute.

These tests drive the controller directly against small hand-built
networks (FIFO ports, datagram traffic, no signaling) — the
admission-controlled re-establishment policies are covered at the
scenario layer in ``tests/validate/test_reroute_invariants.py``.
"""

import pytest

from repro.control import LinkStateController
from repro.scenario import FlowSpec, TopologySpec
from repro.sched.fifo import FifoScheduler
from repro.sim.engine import Simulator
from tests.conftest import make_packet


#: The tracked datagram flow every test pumps (no request, so the
#: controller reroutes it but never re-admits it).
FLOW = FlowSpec(name="f", source_host="h-src", dest_host="h-dst")


def diamond():
    """S-A->{S-B,S-D}->S-C with a host on each end; primary via S-B."""
    sim = Simulator()
    net = TopologySpec.graph(
        ("S-A", "S-B", "S-C", "S-D"),
        [
            {"src": src, "dst": dst}
            for src, dst in (
                ("S-A", "S-B"), ("S-B", "S-C"), ("S-A", "S-D"), ("S-D", "S-C")
            )
        ],
        [("h-src", "S-A"), ("h-dst", "S-C")],
    ).build(sim, lambda name, link: FifoScheduler())
    return sim, net


def chain():
    """S-A->S-B over a single link: no alternate path exists."""
    sim = Simulator()
    net = TopologySpec.graph(
        ("S-A", "S-B"),
        [{"src": "S-A", "dst": "S-B"}],
        [("h-src", "S-A"), ("h-dst", "S-B")],
    ).build(sim, lambda name, link: FifoScheduler())
    return sim, net


def pump(sim, net, count, flow_id="f", dest="h-dst", every=0.0005):
    """Schedule ``count`` sends from h-src, one every ``every`` seconds."""
    host = net.hosts["h-src"]
    for i in range(count):
        packet = make_packet(
            flow_id=flow_id, source="h-src", destination=dest, sequence=i
        )
        sim.schedule(i * every, lambda p=packet: host.send(p))


class TestFailureAccounting:
    def test_in_flight_packet_killed_and_ledgered(self):
        sim, net = diamond()
        controller = LinkStateController(net)
        link = net.links["S-A->S-B"]
        pump(sim, net, 1)
        sim.run(until=0.0005)  # mid-transmission (packet takes 1 ms)
        assert link.busy
        controller.fail_link("S-A->S-B")
        sim.run_until_idle()
        assert link.packets_failed == 1
        assert link.failure_drops == {"f": 1}
        assert net.hosts["h-dst"].packets_received == 0

    def test_queue_behind_dead_link_flushed_as_port_drops(self):
        sim, net = diamond()
        controller = LinkStateController(net)
        port = net.ports["S-A->S-B"]
        # 5 back-to-back packets: 1 transmitting, 4 queued behind it.
        pump(sim, net, 5, every=0.0)
        sim.run(until=0.0005)
        assert port.queue_length == 4
        controller.fail_link("S-A->S-B")
        assert controller.flushed_packets == 4
        assert port.queue_length == 0
        assert port.packets_dropped == 4
        # Port books still close: in = out + dropped + queued.
        assert port.packets_in == (
            port.packets_out + port.packets_dropped + port.queue_length
        )

    def test_fail_and_restore_are_idempotent(self):
        sim, net = diamond()
        controller = LinkStateController(net)
        controller.fail_link("S-A->S-B")
        controller.fail_link("S-A->S-B")
        assert controller.outages == 1
        controller.restore_link("S-A->S-B")
        controller.restore_link("S-A->S-B")
        assert controller.restores == 1
        assert controller.recomputes == 2

    def test_transmit_on_down_link_raises(self):
        sim, net = diamond()
        controller = LinkStateController(net)
        controller.fail_link("S-A->S-B")
        with pytest.raises(RuntimeError, match="down"):
            net.links["S-A->S-B"].transmit(make_packet())


class TestRerouting:
    def test_datagrams_follow_swapped_tables(self):
        sim, net = diamond()
        controller = LinkStateController(net)
        controller.track_flow(FLOW)
        controller.fail_link("S-A->S-B")
        pump(sim, net, 10)
        sim.run_until_idle()
        assert net.hosts["h-dst"].packets_received == 10
        assert net.ports["S-A->S-D"].packets_out == 10
        assert net.ports["S-A->S-B"].packets_in == 0
        [flow] = controller.summary().flows
        assert flow.reroutes == 1 and not flow.torn_down

    def test_restore_returns_exact_original_routes(self):
        sim, net = diamond()
        original = net.path("h-src", "h-dst")
        controller = LinkStateController(net)
        controller.fail_link("S-A->S-B")
        assert net.path("h-src", "h-dst") != original
        controller.restore_link("S-A->S-B")
        assert net.path("h-src", "h-dst") == original

    def test_back_to_back_flap_converges_home(self):
        """A fail+restore flap with no intervening traffic lands back on
        the original tables and counts one outage, one restore."""
        sim, net = diamond()
        original = net.path("h-src", "h-dst")
        controller = LinkStateController(net)
        controller.track_flow(FLOW)
        controller.fail_link("S-A->S-B")
        controller.restore_link("S-A->S-B")
        assert net.path("h-src", "h-dst") == original
        assert (controller.outages, controller.restores) == (1, 1)
        [flow] = controller.summary().flows
        assert flow.reroutes == 2  # out and back

    def test_outage_on_link_carrying_no_flows_disturbs_nothing(self):
        sim, net = diamond()
        controller = LinkStateController(net)
        controller.track_flow(FLOW)
        # The backup path's second hop: no flow routes over it.
        controller.fail_link("S-D->S-C")
        pump(sim, net, 10)
        sim.run_until_idle()
        assert net.hosts["h-dst"].packets_received == 10
        summary = controller.summary()
        assert summary.wire_killed == ()
        assert summary.flushed_packets == 0
        [flow] = summary.flows
        assert flow.reroutes == 0

    def test_partition_ledgers_no_route_drops(self):
        sim, net = chain()
        controller = LinkStateController(net)
        controller.track_flow(FLOW)
        controller.fail_link("S-A->S-B")
        pump(sim, net, 7)
        sim.run_until_idle()
        assert net.hosts["h-dst"].packets_received == 0
        assert net.switches["S-A"].no_route_drops == {"f": 7}
        summary = controller.summary()
        assert summary.no_route_drops == (("f", 7),)
        # Best-effort flow (no signaling): not torn down, just unroutable.
        [flow] = summary.flows
        assert not flow.torn_down

    def test_untracked_and_duplicate_flow_registry(self):
        sim, net = diamond()
        controller = LinkStateController(net)
        controller.track_flow(FLOW)
        with pytest.raises(ValueError):
            controller.track_flow(FLOW)
        controller.untrack_flow("f")
        controller.untrack_flow("ghost")  # no-op
        assert controller.summary().flows == ()

    def test_repr_names_down_links(self):
        sim, net = diamond()
        controller = LinkStateController(net)
        controller.fail_link("S-A->S-B")
        assert "S-A->S-B" in repr(controller)
