"""Tests for the declarative spec layer (validation, immutability, JSON)."""

import dataclasses

import pytest

from repro.net.packet import ServiceClass
from repro.scenario import (
    AdmissionSpec,
    DisciplineSpec,
    FlowSpec,
    GuaranteedRequest,
    OutageEvent,
    OutageSpec,
    PredictedRequest,
    ScenarioSpec,
    TopologySpec,
)


def minimal_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="t",
        topology=TopologySpec.single_link(),
        flows=(FlowSpec("f0", "src-host", "dst-host"),),
        disciplines=(DisciplineSpec.fifo(),),
        duration=10.0,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestTopologySpec:
    def test_kinds_validated(self):
        with pytest.raises(ValueError, match="unknown topology kind"):
            TopologySpec(nodes=("A",), kind="torus")

    def test_chain_needs_length(self):
        with pytest.raises(ValueError, match="at least 2 switches"):
            TopologySpec.chain(1)

    def test_single_link_compiles_to_graph(self):
        spec = TopologySpec.single_link()
        assert spec.nodes == ("A", "B")
        assert spec.link_names == ("A->B",)
        assert spec.host_names == ("src-host", "dst-host")
        assert spec.kind == "single_link"

    def test_chain_duplex_compiles_both_directions(self):
        spec = TopologySpec.chain(3, duplex=True)
        assert spec.link_names == (
            "S-1->S-2", "S-2->S-1", "S-2->S-3", "S-3->S-2"
        )

    def test_paper_defaults(self):
        spec = TopologySpec.figure1()
        assert spec.rate_bps == 1_000_000
        assert spec.buffer_packets == 200
        assert spec.num_switches == 5

    def test_uniform_rate_raises_on_heterogeneous_links(self):
        spec = TopologySpec.graph(
            nodes=["A", "B", "C"],
            links=[
                {"src": "A", "dst": "B", "rate_bps": 1_000_000},
                {"src": "B", "dst": "C", "rate_bps": 64_000},
            ],
            host_attachments=[("h-a", "A"), ("h-c", "C")],
        )
        with pytest.raises(ValueError, match="heterogeneous"):
            spec.rate_bps

    def test_graph_validation(self):
        with pytest.raises(ValueError, match="unknown switch"):
            TopologySpec.graph(
                nodes=["A"],
                links=[{"src": "A", "dst": "ghost"}],
                host_attachments=[],
            )
        with pytest.raises(ValueError, match="duplicate link"):
            TopologySpec.graph(
                nodes=["A", "B"],
                links=[{"src": "A", "dst": "B"}, {"src": "A", "dst": "B"}],
                host_attachments=[],
            )
        with pytest.raises(ValueError, match="unknown switch"):
            TopologySpec.graph(
                nodes=["A"], links=[], host_attachments=[("h", "ghost")]
            )

    def test_frozen(self):
        spec = TopologySpec.single_link()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.nodes = ("X",)


class TestFlowSpec:
    def test_paper_defaults(self):
        flow = FlowSpec("f", "a", "b")
        assert flow.average_rate_pps == 85.0
        assert flow.bucket_packets == 50.0
        assert flow.packet_size_bits == 1000
        assert flow.service_class is ServiceClass.DATAGRAM

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowSpec("", "a", "b")
        with pytest.raises(ValueError):
            FlowSpec("f", "a", "b", average_rate_pps=0)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            GuaranteedRequest(clock_rate_bps=0)
        with pytest.raises(ValueError):
            PredictedRequest(
                token_rate_bps=1, bucket_depth_bits=1, target_delay_seconds=0
            )


class TestDisciplineSpec:
    def test_params_are_hashable_and_sorted(self):
        spec = DisciplineSpec.of("X", "wfq", b=2, a=1)
        assert spec.params == (("a", 1), ("b", 2))
        hash(spec)

    def test_param_dict(self):
        spec = DisciplineSpec.wfq(equal_share_flows=10)
        assert spec.param_dict["equal_share_flows"] == 10

    def test_custom_factory_not_serializable(self):
        spec = DisciplineSpec.custom("X", lambda sim, name, link: None)
        with pytest.raises(ValueError, match="custom factory"):
            spec.to_dict()


class TestScenarioSpec:
    def test_duplicate_flow_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            minimal_spec(
                flows=(
                    FlowSpec("f0", "src-host", "dst-host"),
                    FlowSpec("f0", "src-host", "dst-host"),
                )
            )

    def test_duplicate_discipline_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            minimal_spec(
                disciplines=(DisciplineSpec.fifo(), DisciplineSpec.fifo())
            )

    def test_establish_order_must_name_known_flows(self):
        with pytest.raises(ValueError, match="unknown flows"):
            minimal_spec(establish_order=("ghost",))

    def test_establish_order_rejects_duplicates(self):
        with pytest.raises(ValueError, match="repeat"):
            minimal_spec(establish_order=("f0", "f0"))

    def test_at_least_one_discipline(self):
        with pytest.raises(ValueError, match="discipline"):
            minimal_spec(disciplines=())

    def test_replace_returns_modified_copy(self):
        spec = minimal_spec()
        other = spec.replace(seed=99)
        assert other.seed == 99
        assert spec.seed == 1
        assert other.flows == spec.flows

    def test_lookups(self):
        spec = minimal_spec()
        assert spec.flow("f0").name == "f0"
        assert spec.discipline("FIFO").kind == "fifo"
        with pytest.raises(KeyError):
            spec.flow("nope")


class TestJsonRoundTrip:
    def test_round_trip_preserves_spec(self):
        spec = minimal_spec(
            flows=(
                FlowSpec(
                    "g",
                    "src-host",
                    "dst-host",
                    request=GuaranteedRequest(clock_rate_bps=170_000),
                    service_class=ServiceClass.GUARANTEED,
                ),
                FlowSpec(
                    "p",
                    "src-host",
                    "dst-host",
                    request=PredictedRequest(
                        token_rate_bps=85_000,
                        bucket_depth_bits=50_000,
                        target_delay_seconds=0.3,
                    ),
                ),
            ),
            admission=AdmissionSpec(),
            establish_order=("g", "p"),
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_survives_json(self):
        import json

        spec = minimal_spec()
        payload = json.loads(json.dumps(spec.to_dict()))
        assert ScenarioSpec.from_dict(payload) == spec

    def test_unknown_top_level_key_rejected_by_name(self):
        """A misspelt ``outages`` must not run the scenario without its
        control plane."""
        payload = dict(minimal_spec().to_dict(), outage={"events": []}, sed=3)
        with pytest.raises(ValueError) as excinfo:
            ScenarioSpec.from_dict(payload)
        message = str(excinfo.value)
        assert "unknown key(s) ['outage', 'sed']" in message
        assert "'outages'" in message and "'seed'" in message  # accepted

    def test_missing_required_keys_named(self):
        payload = minimal_spec().to_dict()
        del payload["name"], payload["flows"]
        with pytest.raises(ValueError, match=r"missing required key\(s\) "
                           r"\['name', 'flows'\]"):
            ScenarioSpec.from_dict(payload)

    def test_optional_keys_stay_optional(self):
        spec = minimal_spec()
        required = {
            key: spec.to_dict()[key]
            for key in ("name", "topology", "flows", "disciplines")
        }
        assert ScenarioSpec.from_dict(required) == ScenarioSpec(
            name=spec.name, topology=spec.topology, flows=spec.flows,
            disciplines=spec.disciplines,
        )


class TestOutageSpec:
    def _with_outages(self, outages, **overrides):
        return minimal_spec(outages=outages, **overrides)

    def test_round_trip_explicit_and_sampled(self):
        spec = self._with_outages(
            OutageSpec(
                events=(OutageEvent(link="A->B", at=2.0, duration=1.0),),
                rate_per_second=0.25,
                mean_duration_seconds=0.8,
                correlated_links=2,
                links=("A->B",),
                start_after=5.0,
                max_outages=3,
            )
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_omits_outages_when_none(self):
        """Bit-identity guard: outage-free specs serialize exactly as
        they did before the control plane existed."""
        assert "outages" not in minimal_spec().to_dict()

    def test_event_validation(self):
        with pytest.raises(ValueError, match="at"):
            OutageEvent(link="A->B", at=-1.0, duration=1.0)
        with pytest.raises(ValueError, match="duration"):
            OutageEvent(link="A->B", at=1.0, duration=0.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="rate"):
            OutageSpec(rate_per_second=-0.1)
        with pytest.raises(ValueError, match="correlated"):
            OutageSpec(correlated_links=0)
        with pytest.raises(ValueError, match="max_outages"):
            OutageSpec(max_outages=0)

    def test_unknown_event_link_rejected(self):
        with pytest.raises(ValueError, match="unknown link"):
            self._with_outages(
                OutageSpec(events=(OutageEvent("ghost", at=1.0, duration=1.0),))
            )

    def test_unknown_candidate_links_rejected(self):
        with pytest.raises(ValueError, match="candidates"):
            self._with_outages(OutageSpec(rate_per_second=0.1, links=("ghost",)))

    def test_service_request_without_admission_rejected(self):
        with pytest.raises(ValueError, match="admission"):
            self._with_outages(
                OutageSpec(events=(OutageEvent("A->B", at=1.0, duration=1.0),)),
                flows=(
                    FlowSpec(
                        "p",
                        "src-host",
                        "dst-host",
                        request=PredictedRequest(
                            token_rate_bps=85_000,
                            bucket_depth_bits=50_000,
                            target_delay_seconds=0.3,
                        ),
                    ),
                ),
            )
