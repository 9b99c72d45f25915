"""The switch forwarding table: resolve once, invalidate at one seam.

``Switch.receive`` answers "which port?" from a destination -> port table
filled on the first miss.  The oracle throughout is a switch that resolves
*every* packet the pre-table way; the cached switch must be
indistinguishable from it — counts and identities only, no wall clock.
"""

import pytest

import repro.net.network as network_module
from repro.control.spf import spf_from_network
from repro.net.link import Link
from repro.net.network import Network
from repro.net.node import Host, Switch
from repro.net.routing import RoutingError
from repro.scenario import ScenarioRunner, registry
from repro.sched.fifo import FifoScheduler
from repro.sim.engine import Simulator
from tests.conftest import make_packet


class PerPacketSwitch(Switch):
    """The oracle: ask the routing function for every packet."""

    def receive(self, packet):
        destination = packet.destination
        host = self.attached_hosts.get(destination)
        if host is not None:
            host.receive(packet)
            return
        if self.next_hop_fn is None:
            raise RuntimeError(f"switch {self.name} has no routing function")
        try:
            next_hop = self.next_hop_fn(destination)
        except RoutingError:
            drops = self.no_route_drops
            drops[packet.flow_id] = drops.get(packet.flow_id, 0) + 1
            return
        port = self.ports.get(next_hop)
        if port is None:
            raise RuntimeError(
                f"switch {self.name}: route to {destination} via {next_hop} "
                f"but no such port"
            )
        self.packets_forwarded += 1
        port.enqueue(packet)


def diamond():
    """S-A->{S-B,S-D}->S-C with a host on each end; primary via S-B."""
    sim = Simulator()
    net = Network(sim, lambda name, link: FifoScheduler())
    for name in ("S-A", "S-B", "S-C", "S-D"):
        net.add_switch(name)
    for src, dst in (
        ("S-A", "S-B"), ("S-B", "S-C"), ("S-A", "S-D"), ("S-D", "S-C")
    ):
        net.add_link(src, dst, rate_bps=1_000_000)
    net.add_host("h-src", "S-A")
    net.add_host("h-dst", "S-C")
    return sim, net


def send(net, sequence=0, flow_id="f", destination="h-dst"):
    net.hosts["h-src"].send(
        make_packet(
            flow_id=flow_id,
            source="h-src",
            destination=destination,
            sequence=sequence,
        )
    )


# ----------------------------------------------------------------------
# Differential: cached switch == per-packet oracle on outage scenarios
# ----------------------------------------------------------------------


def _outage_spec(gen_seed):
    return registry.build(
        "gen:outage",
        gen_seed=gen_seed,
        duration=3.0,
        warmup=1.0,
        seed=1,
        outage_rate_per_second=2.0,
        mean_outage_seconds=0.5,
    )


def _run(spec):
    runner = ScenarioRunner(spec)
    contexts = [runner.build(d).run() for d in spec.disciplines]
    return contexts, [c.collect().comparable_dict() for c in contexts]


# Runs on the compiled core when it is built; the tests-compiled CI leg
# re-runs this file under REPRO_PURE_PYTHON=1 for the pure engine.  The
# ids name the event store so these cells keep the node ids CI tracks.
@pytest.mark.parametrize("gen_seed", [1, 2, 3], ids="{}-heap".format)
def test_cached_run_equals_per_packet_oracle(monkeypatch, gen_seed):
    spec = _outage_spec(gen_seed)
    cached_contexts, cached = _run(spec)
    monkeypatch.setattr(network_module, "Switch", PerPacketSwitch)
    oracle_contexts, oracle = _run(spec)
    assert cached == oracle
    # Both arms really were what they claim to be, and reroutes happened.
    for context in oracle_contexts:
        assert all(
            type(s) is PerPacketSwitch for s in context.net.switches.values()
        )
        assert not any(s._forwarding for s in context.net.switches.values())
    for context in cached_contexts:
        assert all(type(s) is Switch for s in context.net.switches.values())
        assert any(s._forwarding for s in context.net.switches.values())
        assert context.controller.recomputes > 0


# ----------------------------------------------------------------------
# Targeted cells
# ----------------------------------------------------------------------


class TestResolveOnce:
    def test_routing_function_consulted_once_per_destination(self):
        sim, net = diamond()
        switch = net.switches["S-A"]
        asked = []
        resolve = switch.next_hop_fn
        switch.next_hop_fn = lambda dest: (asked.append(dest), resolve(dest))[1]
        for i in range(5):
            send(net, i)
        sim.run_until_idle()
        assert asked == ["h-dst"]
        assert switch.packets_forwarded == 5
        assert switch._forwarding == {"h-dst": switch.ports["S-B"]}
        assert net.ports["S-A->S-B"].packets_in == 5

    def test_install_routing_moves_the_next_packet(self):
        sim, net = diamond()
        send(net, 0)
        assert net.ports["S-A->S-B"].packets_in == 1
        net.install_routing(spf_from_network(net, {"S-A->S-B": False}))
        send(net, 1)
        assert net.ports["S-A->S-B"].packets_in == 1
        assert net.ports["S-A->S-D"].packets_in == 1
        # ... and back again on the heal, also from the very next packet.
        net.install_routing(spf_from_network(net, {}))
        send(net, 2)
        assert net.ports["S-A->S-B"].packets_in == 2
        assert net.ports["S-A->S-D"].packets_in == 1

    def test_every_switch_is_invalidated(self):
        sim, net = diamond()
        send(net, 0)
        sim.run_until_idle()
        assert net.switches["S-A"]._forwarding
        assert net.switches["S-B"]._forwarding
        net.install_routing(spf_from_network(net, {}))
        assert not any(s._forwarding for s in net.switches.values())

    def test_partitioned_destination_is_ledgered_every_time(self):
        sim, net = diamond()
        delivered = []
        net.hosts["h-dst"].default_handler = delivered.append
        send(net, 0)
        sim.run_until_idle()
        assert len(delivered) == 1
        switch = net.switches["S-A"]
        net.install_routing(
            spf_from_network(net, {"S-A->S-B": False, "S-A->S-D": False})
        )
        for i in range(1, 4):
            send(net, i)
            # Dropped *and* never cached: each packet takes the miss path.
            assert switch.no_route_drops == {"f": i}
            assert "h-dst" not in switch._forwarding
        assert switch.packets_forwarded == 1
        net.install_routing(spf_from_network(net, {}))
        send(net, 4)
        sim.run_until_idle()
        assert len(delivered) == 2
        assert switch.no_route_drops == {"f": 3}
        assert switch.packets_forwarded == 2

    def test_topology_edits_invalidate(self):
        sim, net = diamond()
        send(net, 0)
        assert net.switches["S-A"]._forwarding
        net.add_switch("S-E")
        net.add_link("S-A", "S-E", rate_bps=1_000_000)
        assert not net.switches["S-A"]._forwarding
        send(net, 1)
        assert net.switches["S-A"]._forwarding
        net.add_host("h-late", "S-E")
        assert not net.switches["S-A"]._forwarding
        delivered = []
        net.hosts["h-late"].default_handler = delivered.append
        send(net, 2, destination="h-late")
        sim.run_until_idle()
        assert [p.sequence for p in delivered] == [2]

    def test_host_attached_after_first_forward_is_delivered_locally(self):
        sim = Simulator()
        switch = Switch(sim, "S")
        neighbor = Switch(sim, "N")
        link = Link(sim, "S->N", 1_000_000)
        link.connect(neighbor)
        port = switch.add_port("N", FifoScheduler(), link)
        switch.next_hop_fn = lambda dest: "N"
        switch.receive(make_packet(destination="x", sequence=0))
        assert port.packets_in == 1 and "x" in switch._forwarding
        late = Host(sim, "x")
        late.attach(switch)
        got = []
        late.default_handler = got.append
        switch.receive(make_packet(destination="x", sequence=1))
        assert [p.sequence for p in got] == [1]
        assert port.packets_in == 1


class TestMissPathErrors:
    def test_no_routing_function(self, sim):
        switch = Switch(sim, "lonely")
        for _ in range(2):
            with pytest.raises(RuntimeError, match="has no routing function"):
                switch.receive(make_packet(destination="anywhere"))

    def test_route_via_missing_port(self, sim):
        switch = Switch(sim, "S")
        switch.next_hop_fn = lambda dest: "ghost"
        for _ in range(2):
            with pytest.raises(RuntimeError, match="via ghost but no such port"):
                switch.receive(make_packet(destination="anywhere"))
        assert switch._forwarding == {}
        assert switch.packets_forwarded == 0
