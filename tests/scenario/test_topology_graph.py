"""Graph-native topology layer: the named kinds' wire form, heterogeneous
links, per-port disciplines, and routing-error surfacing."""

import json

import pytest

from repro.net.routing import RoutingError
from repro.sched.fifo import FifoScheduler
from repro.sched.wfq import WfqScheduler
from repro.scenario import (
    DisciplineSpec,
    FlowSpec,
    ScenarioBuilder,
    ScenarioRunner,
    SpecError,
    TopologySpec,
    resolve_port_discipline,
)
from repro.sim.engine import Simulator


def fifo_factory(name, link):
    return FifoScheduler()


class TestNamedKindsAreGraphs:
    """The named constructors are graphs on the wire (their exact bytes
    and built networks are pinned in ``test_topology_pin.py``)."""

    def test_named_specs_serialize_as_graphs(self):
        spec = TopologySpec.chain(3)
        payload = json.loads(json.dumps(spec.to_dict()))
        assert payload["nodes"] == ["S-1", "S-2", "S-3"]
        assert [l["src"] for l in payload["links"]] == ["S-1", "S-2"]
        assert TopologySpec.from_dict(payload) == spec

    def test_pre_graph_serialized_form_refused_by_name(self):
        """The pre-graph payload (kind + scalars, no ``nodes``) is not a
        wire form: it is refused, naming the keys it does not know."""
        payload = {
            "kind": "chain",
            "num_switches": 3,
            "rate_bps": 64_000,
            "buffer_packets": 10,
            "duplex": True,
        }
        with pytest.raises(
            SpecError,
            match=r"^unknown key\(s\) \['buffer_packets', 'duplex', "
            r"'num_switches', 'rate_bps'\] for TopologySpec; "
            r"accepted keys are \[",
        ):
            TopologySpec.from_dict(payload)


class TestHeterogeneousGraphs:
    def test_per_link_rates_and_buffers(self):
        spec = TopologySpec.graph(
            nodes=["A", "B", "C"],
            links=[
                {"src": "A", "dst": "B", "rate_bps": 1_000_000,
                 "buffer_packets": 100},
                {"src": "B", "dst": "C", "rate_bps": 64_000,
                 "buffer_packets": 5, "propagation_delay": 0.01},
            ],
            host_attachments=[("h-a", "A"), ("h-c", "C")],
        )
        net = spec.build(Simulator(), fifo_factory)
        assert net.links["A->B"].rate_bps == 1_000_000
        assert net.links["B->C"].rate_bps == 64_000
        assert net.links["B->C"].propagation_delay == 0.01
        assert net.ports["B->C"].buffer_packets == 5
        assert net.path("h-a", "h-c") == ["h-a", "A", "B", "C", "h-c"]

    def test_branching_merge_graph_routes_each_flow(self):
        """Two access switches feed one bottleneck — the merge shape the
        legacy kinds cannot express."""
        spec = TopologySpec.graph(
            nodes=["L1", "L2", "M", "R"],
            links=[
                {"src": "L1", "dst": "M"},
                {"src": "L2", "dst": "M"},
                {"src": "M", "dst": "R"},
            ],
            host_attachments=[("h1", "L1"), ("h2", "L2"), ("sink", "R")],
        )
        net = spec.build(Simulator(), fifo_factory)
        assert net.link_names_on_path("h1", "sink") == ["L1->M", "M->R"]
        assert net.link_names_on_path("h2", "sink") == ["L2->M", "M->R"]


class TestPerPortDisciplines:
    def chain_spec(self, discipline):
        return (
            ScenarioBuilder("hetero")
            .chain(3)
            .add_flow("f0", "Host-1", "Host-3")
            .discipline(discipline)
            .duration(5.0)
            .warmup(0.5)
            .build()
        )

    def test_resolution_order_and_fallback(self):
        base = DisciplineSpec.fifo(name="mixed")
        spec = base.override("S-2->*", DisciplineSpec.wfq()).override(
            "*", DisciplineSpec.round_robin()
        )
        assert resolve_port_discipline(spec, "S-2->S-3").kind == "wfq"
        assert resolve_port_discipline(spec, "S-1->S-2").kind == "round_robin"
        assert resolve_port_discipline(base, "S-1->S-2") is base

    def test_fifo_edges_wfq_bottleneck(self):
        """The ISSUE's flagship mix: FIFO edge ports, WFQ at the
        bottleneck — one discipline entry, two scheduler types, and the
        result reports which port got which."""
        mixed = DisciplineSpec.fifo(name="edge-fifo/wfq-core").override(
            "S-2->S-3", DisciplineSpec.wfq(auto_register_rate_bps=100_000)
        )
        context = ScenarioRunner(self.chain_spec(mixed)).build()
        assert isinstance(context.net.ports["S-1->S-2"].scheduler, FifoScheduler)
        assert isinstance(context.net.ports["S-2->S-3"].scheduler, WfqScheduler)
        run = context.run().collect()
        assert run.port_discipline("S-1->S-2") == "edge-fifo/wfq-core"
        assert run.port_discipline("S-2->S-3") == "WFQ"
        assert run.flow("f0").recorded > 0
        # The per-hop queueing profile covers both ports.
        assert dict(run.link_queueing).keys() == {"S-1->S-2", "S-2->S-3"}

    def test_overrides_round_trip_through_json(self):
        mixed = DisciplineSpec.fifo(name="mixed").override(
            "*->S-3", DisciplineSpec.wfq(equal_share_flows=4)
        )
        assert DisciplineSpec.from_dict(
            json.loads(json.dumps(mixed.to_dict()))
        ) == mixed

    def test_nested_overrides_rejected(self):
        inner = DisciplineSpec.fifo().override("x", DisciplineSpec.wfq())
        with pytest.raises(ValueError, match="must not carry"):
            DisciplineSpec.fifo(name="outer").override("*", inner)


class TestMergeLinkAdmission:
    """Admission where paths converge: the shared link is the arbiter."""

    def merge_spec(self):
        topology = TopologySpec.graph(
            nodes=["L1", "L2", "M", "R"],
            links=[
                {"src": "L1", "dst": "M"},
                {"src": "L2", "dst": "M"},
                {"src": "M", "dst": "R"},
            ],
            host_attachments=[("h1", "L1"), ("h2", "L2"), ("sink", "R")],
        )
        from repro.scenario import GuaranteedRequest

        return (
            ScenarioBuilder("merge-admission")
            .topology(topology)
            .add_flow(
                "g1", "h1", "sink",
                request=GuaranteedRequest(clock_rate_bps=500_000),
            )
            .add_flow(
                "g2", "h2", "sink",
                request=GuaranteedRequest(clock_rate_bps=500_000),
            )
            .discipline(DisciplineSpec.unified())
            .admission(realtime_quota=0.9)
            .duration(5.0)
            .build()
        )

    def test_second_branch_rejected_at_the_merge_link_only(self):
        from repro.core.signaling import FlowEstablishmentError

        with pytest.raises(FlowEstablishmentError) as excinfo:
            ScenarioRunner(self.merge_spec()).build()
        # g2's own branch link had room; the shared M->R link did not.
        decisions = excinfo.value.decisions
        assert decisions[-1].link_name == "M->R"
        assert not decisions[-1].accepted
        assert all(d.accepted for d in decisions[:-1])

    def test_decisions_for_merge_link_show_both_flows(self):
        from repro.core.signaling import FlowEstablishmentError

        spec = self.merge_spec()
        context = None
        with pytest.raises(FlowEstablishmentError):
            context = ScenarioRunner(spec).build()
        # Rebuild flow-by-flow to inspect the controller's per-link log.
        single = spec.replace(flows=(spec.flow("g1"),))
        context = ScenarioRunner(single).build()
        merge_log = context.admission.decisions_for("M->R")
        assert [d.accepted for d in merge_log] == [True]
        branch_log = context.admission.decisions_for("L2->M")
        assert branch_log == []


class TestRoutingErrorSurfacing:
    def disconnected_spec(self, **flow_kwargs):
        topology = TopologySpec.graph(
            nodes=["A", "B"],
            links=[],  # no inter-switch connectivity at all
            host_attachments=[("h-a", "A"), ("h-b", "B")],
        )
        return (
            ScenarioBuilder("disconnected")
            .topology(topology)
            .add_flow("f0", "h-a", "h-b", **flow_kwargs)
            .discipline(DisciplineSpec.fifo())
            .duration(5.0)
            .build()
        )

    def test_unroutable_flow_raises_at_build_with_flow_named(self):
        with pytest.raises(RoutingError, match="f0"):
            ScenarioRunner(self.disconnected_spec()).build()

    def test_unknown_host_rejected_at_spec_construction(self):
        with pytest.raises(ValueError, match="ghost-host"):
            (
                ScenarioBuilder("bad")
                .single_link()
                .add_flow("f0", "src-host", "ghost-host")
                .discipline(DisciplineSpec.fifo())
                .build()
            )
