"""One compile path: a table-backed spec compiles to what its tuple does.

``compile_fluid`` reads every population as a ``FlowTable`` and works
per prototype.  The oracle is the same spec with its flows as a plain
tuple of ``FlowSpec`` (interned on the way in): every ``CompiledFluid``
field must come out equal, control plan included.
"""

import dataclasses

import pytest

from repro.fluid.compile import CompiledFluid
from repro.fluid.model import FluidOptions, FluidSimulation
from repro.scenario import registry
from repro.scenario.spec import FlowTable, OutageEvent, OutageSpec


def leaf_spine_with_outage():
    spec = registry.build(
        "gen:leaf-spine", gen_seed=2, num_flows=600, duration=12.0,
        target_utilization=0.95, with_requests=True, admission=True,
    )
    link = sorted(n for n in spec.topology.link_names if "SP-" in n)[1]
    return spec.replace(outages=OutageSpec(
        events=(OutageEvent(link=link, at=4.0, duration=3.0),)
    ))


SPECS = {
    "fat-tree-k4": lambda: registry.build(
        "gen:fat-tree", gen_seed=1, k=4, duration=10.0
    ),
    "leaf-spine-admission-outage": leaf_spine_with_outage,
    "table3-fluid": lambda: registry.build("table3", duration=10.0).replace(
        engine="fluid", tcps=()
    ),
}


def fields(compiled: CompiledFluid) -> dict:
    """Every field, the control plan's mutable flow records by value."""
    out = {f.name: getattr(compiled, f.name)
           for f in dataclasses.fields(compiled)}
    plan = out.pop("control_plan")
    if plan is not None:
        out["control_plan"] = {
            f.name: getattr(plan, f.name) for f in dataclasses.fields(plan)
        }
        out["control_plan"]["records"] = [r.stats() for r in plan.records]
    return out


@pytest.mark.parametrize("name", sorted(SPECS))
def test_table_and_tuple_compile_alike(name):
    spec = SPECS[name]()
    table = spec.replace(flows=FlowTable.of(spec.flows))
    plain = spec.replace(flows=tuple(spec.flows))
    assert type(plain.flows) is tuple and type(table.flows) is FlowTable
    if name == "leaf-spine-admission-outage":
        assert spec.outages is not None and spec.admission is not None
    for discipline in spec.disciplines:
        compiled = [
            FluidSimulation(s, discipline, FluidOptions(backend="pure")).compiled
            for s in (table, plain)
        ]
        mine, oracle = map(fields, compiled)
        assert mine.keys() == oracle.keys()
        for key in oracle:
            assert mine[key] == oracle[key], (discipline.name, key)
        if name == "leaf-spine-admission-outage":
            assert compiled[0].admitted and compiled[0].segments
