"""A column-backed population is the tuple of its rows, to every reader.

``FlowTable`` keeps a generated fabric's flows as columns and builds each
``FlowSpec`` on demand.  These properties pin that it is observationally
the tuple it stands for: rows, equality, hashing, the wire bytes, pickling
and the spec's own rejections, on generated fabrics and on every
registered scenario interned through ``FlowTable.of``.
"""

import functools
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario import ScenarioSpec, registry
from repro.scenario.spec import FlowSpec, FlowTable, TopologySpec

#: Generated fabrics the tables are built from (small: the table, not
#: the population size, is under test).
FABRICS = {
    "fat-tree-k2": ("gen:fat-tree", dict(k=2)),
    "fat-tree-k4": ("gen:fat-tree", dict(k=4, num_flows=300)),
    "leaf-spine": ("gen:leaf-spine", dict(num_flows=300)),
}


@functools.lru_cache(maxsize=None)
def fabric(shape: str, gen_seed: int, with_requests: bool) -> ScenarioSpec:
    name, sizes = FABRICS[shape]
    return registry.build(
        name, gen_seed=gen_seed, with_requests=with_requests,
        admission=with_requests, duration=10.0, **sizes,
    )


@functools.lru_cache(maxsize=None)
def registered(name: str) -> ScenarioSpec:
    sizes = dict(k=4, num_flows=200) if name in (
        "gen:fat-tree", "gen:leaf-spine"
    ) else {}
    return registry.build(name, duration=10.0, **sizes)


@st.composite
def table_specs(draw):
    """A spec whose flows are a :class:`FlowTable`, drawn from a
    generated fabric (a table from birth) or a registered scenario (its
    flows interned by :meth:`FlowTable.of`)."""
    if draw(st.booleans()):
        spec = fabric(
            draw(st.sampled_from(sorted(FABRICS))),
            draw(st.integers(1, 3)),
            draw(st.booleans()),
        )
    else:
        spec = registered(draw(st.sampled_from(registry.names())))
    return spec.replace(flows=FlowTable.of(spec.flows))


def wire(spec: ScenarioSpec) -> bytes:
    return json.dumps(spec.to_dict()).encode()


def rejection(spec: ScenarioSpec, **changes) -> str:
    with pytest.raises(ValueError) as raised:
        spec.replace(**changes)
    return str(raised.value)


class TestGenerated:
    @pytest.mark.parametrize("shape", sorted(FABRICS))
    @pytest.mark.parametrize("with_requests", [False, True])
    def test_fabrics_are_table_backed_with_few_prototypes(
        self, shape, with_requests
    ):
        flows = fabric(shape, 1, with_requests).flows
        assert type(flows) is FlowTable
        # service x recorded x hop count
        assert len(flows.protos) <= 4 * 2 * 3
        assert FlowTable.of(flows) is flows


class TestRows:
    @settings(max_examples=60)
    @given(table_specs(), st.data())
    def test_table_is_the_tuple_of_its_rows(self, spec, data):
        table = spec.flows
        rows = tuple(table)
        assert all(type(row) is FlowSpec for row in rows)
        assert table == rows and rows == table and not table != rows
        assert hash(table) == hash(rows)
        assert len(table) == len(rows)
        if rows:
            i = data.draw(st.integers(-len(rows), len(rows) - 1))
            assert table[i] == rows[i]
            assert table[1::2] == rows[1::2]
        with pytest.raises(IndexError):
            table[len(rows)]
        assert FlowTable.of(rows) == table

    @settings(max_examples=60)
    @given(table_specs())
    def test_wire_bytes_equality_and_hash_match_the_tuple_form(self, spec):
        plain = spec.replace(flows=tuple(spec.flows))
        assert type(plain.flows) is tuple
        assert wire(spec) == wire(plain)
        assert spec == plain and plain == spec
        assert hash(spec) == hash(plain)
        assert ScenarioSpec.from_dict(json.loads(wire(spec))) == spec

    @settings(max_examples=40)
    @given(table_specs())
    def test_pickle_ships_the_columns(self, spec):
        table = pickle.loads(pickle.dumps(spec.flows))
        assert type(table) is FlowTable and table == spec.flows
        clone = pickle.loads(pickle.dumps(spec))
        assert type(clone.flows) is FlowTable
        assert clone == spec and wire(clone) == wire(spec)

    def test_columns_are_read_only(self):
        table = fabric("leaf-spine", 1, False).flows
        with pytest.raises(TypeError):
            table.src[0] = 1
        with pytest.raises(AttributeError):
            table.names = ()


class TestRejections:
    """``ScenarioSpec`` says the same thing about a table as about the
    tuple of its rows."""

    @settings(max_examples=40)
    @given(table_specs())
    def test_duplicate_name(self, spec):
        table = spec.flows
        if len(table) < 2:
            return
        names = list(table.names)
        names[-1] = names[0]
        twin = FlowTable(
            names, table.hosts, table.src, table.dst, table.protos, table.kind
        )
        message = rejection(spec, flows=twin)
        assert message == "flow names must be unique"
        assert rejection(spec, flows=tuple(twin)) == message

    @settings(max_examples=40)
    @given(table_specs())
    def test_unknown_host(self, spec):
        if not spec.flows:
            return
        missing = spec.flows[len(spec.flows) // 2].dest_host
        topology = spec.topology
        fewer = TopologySpec(
            kind=topology.kind, nodes=topology.nodes, links=topology.links,
            host_attachments=tuple(
                att for att in topology.host_attachments
                if att.host != missing
            ),
        )
        message = rejection(spec, topology=fewer)
        assert f"references host {missing!r}" in message
        assert rejection(
            spec.replace(flows=tuple(spec.flows)), topology=fewer
        ) == message

    @settings(max_examples=40)
    @given(table_specs())
    def test_unknown_establish_order_name(self, spec):
        order = ("no-such-flow",)
        message = rejection(spec, establish_order=order)
        assert "establish_order names unknown flows" in message
        assert rejection(
            spec.replace(flows=tuple(spec.flows)), establish_order=order
        ) == message
