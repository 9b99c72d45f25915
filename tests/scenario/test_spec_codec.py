"""The spec wire codec: strict, path-naming decoding and one wire format.

Every spec type reads and writes JSON through one field-driven codec.  A
malformed payload must fail as a :class:`SpecError` whose ``path`` names
the offending value — never as a bare ``TypeError``/``KeyError`` from deep
inside a constructor, and never by being silently accepted.
"""

import functools
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario import ScenarioSpec, SpecError, registry

#: Fabrics are built small: the codec, not the population, is under test.
FABRIC = dict(k=4, num_flows=200)


@functools.lru_cache(maxsize=None)
def small(name: str) -> ScenarioSpec:
    fabric = FABRIC if name in ("gen:fat-tree", "gen:leaf-spine") else {}
    return registry.build(name, duration=10.0, **fabric)


def payload(name: str) -> str:
    """The registered scenario's wire form, as JSON text (immutable)."""
    return json.dumps(small(name).to_dict())


def edited(name: str, *path, value):
    """The scenario's payload with ``value`` set at ``path``."""
    data = json.loads(payload(name))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


# (scenario, path to the edited value, new value, expected SpecError.path)
PROBES = [
    # Accepted at the parent and run as something else.
    ("table3", ("outages",), {"event": []}, "outages"),
    ("table3", ("validate",), "yes", "validate"),
    ("table3", ("percentile_points",), "99", "percentile_points"),
    ("table3", ("disciplines", 0, "seed"), 1, "disciplines[0]"),
    ("table3", ("seed",), True, "seed"),
    ("table3", ("flows", 0, "hops"), "2", "flows[0].hops"),
    ("table3", ("ecmp_seed",), "1", "ecmp_seed"),
    ("table3", ("percentile_points",), [150.0], ""),
    ("table3", ("percentile_points",), [-1.0], ""),
    # Raised a bare TypeError / KeyError at the parent.
    ("table3", ("duration",), "ten", "duration"),
    ("table3", ("topology",), None, "topology"),
    ("table3", ("flows", 3, "service_class"), "GOLD", "flows[3].service_class"),
    ("table3", ("topology", "links", 1, "rate_bps"), "x",
     "topology.links[1].rate_bps"),
    # Constructor rejections, re-raised with the object's path.
    ("table3", ("flows", 3, "average_rate_pps"), -1, "flows[3]"),
    ("table3", ("flows", 0, "request", "service"), "bogus",
     "flows[0].request.service"),
    # The --sweep-over values, as the CLI hands them to the codec.
    ("table1", ("validate",), "yes", "validate"),
    ("table1", ("percentile_points",), 99, "percentile_points"),
    ("table1", ("topology",), None, "topology"),
    ("table1", ("duration",), "ten", "duration"),
]


class TestNamedErrors:
    @pytest.mark.parametrize(
        "scenario, path, value, expected", PROBES,
        ids=[f"{s}:{'.'.join(map(str, p))}={v!r}" for s, p, v, _ in PROBES],
    )
    def test_probe_fails_with_named_path(self, scenario, path, value, expected):
        with pytest.raises(SpecError) as excinfo:
            ScenarioSpec.from_dict(edited(scenario, *path, value=value))
        assert excinfo.value.path == expected
        assert str(excinfo.value).startswith(f"{expected}: " if expected else "")

    def test_decode_field_names_the_field(self):
        with pytest.raises(SpecError) as excinfo:
            ScenarioSpec.decode_field("duration", "ten")
        assert excinfo.value.path == "duration"
        with pytest.raises(SpecError, match="accepted keys") as excinfo:
            ScenarioSpec.decode_field("no_such_field", 1)
        assert excinfo.value.path == "no_such_field"
        assert ScenarioSpec.decode_field("warmup", 0) == 0  # kept as given

    def test_spec_error_pickles_with_its_path(self):
        error = pickle.loads(pickle.dumps(SpecError("bad", "flows[3].hops")))
        assert (error.path, str(error)) == ("flows[3].hops", "flows[3].hops: bad")


class TestPercentileRange:
    @pytest.mark.parametrize("point", [150.0, -1.0, float("nan")])
    def test_out_of_range_point_rejected_at_construction(self, point):
        spec = registry.build("table1", duration=5.0)
        with pytest.raises(ValueError, match=f"percentile point {point!r}"):
            spec.replace(percentile_points=(50.0, point))

    def test_bounds_are_inclusive(self):
        spec = registry.build("table1", duration=5.0)
        assert spec.replace(percentile_points=(0, 100)).percentile_points == (0, 100)


class TestWireIdentity:
    @pytest.mark.parametrize("name", registry.names())
    def test_json_round_trip_is_identity(self, name):
        spec = small(name)
        assert ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_values_are_kept_as_given(self):
        """An integer duration stays an integer, so the bytes do not move."""
        data = json.loads(payload("table1"))
        data["duration"] = 30
        spec = ScenarioSpec.from_dict(data)
        assert type(spec.duration) is int
        assert json.dumps(spec.to_dict()) == json.dumps(data)


# ----------------------------------------------------------------------
# Mutation fuzz
# ----------------------------------------------------------------------

#: One value of each JSON type; a swap picks one of a different type.
JSON_VALUES = [None, True, 0, -1, 2.5, "x", [], {}]


def entries(node, path=()):
    """Every (container path, key, value) of a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path, key, value
        if isinstance(value, (dict, list)):
            yield from entries(value, path + (key,))


def mutate(node, path, op):
    """A copy of ``node`` with ``op`` applied to the container at ``path``;
    only the containers along the path are copied."""
    copy = dict(node) if isinstance(node, dict) else list(node)
    if path:
        copy[path[0]] = mutate(node[path[0]], path[1:], op)
    else:
        op(copy)
    return copy


@st.composite
def mutated_payloads(draw):
    data = json.loads(payload(draw(st.sampled_from(registry.names()))))
    every = list(entries(data))
    path, key, value = draw(st.sampled_from(every))
    kind = draw(st.sampled_from(["drop", "add", "swap", "wrap", "unwrap", "retag"]))
    if kind == "drop" and isinstance(key, str):
        return mutate(data, path, lambda c: c.pop(key))
    if kind == "add":
        objects = [()] + [p + (k,) for p, k, v in every if isinstance(v, dict)]
        target = draw(st.sampled_from(objects))
        return mutate(data, target, lambda c: c.__setitem__("unexpected", 1))
    if kind == "swap" and not isinstance(value, (dict, list)):
        other = draw(st.sampled_from(
            [v for v in JSON_VALUES if type(v) is not type(value)]
        ))
        return mutate(data, path, lambda c: c.__setitem__(key, other))
    if kind == "unwrap" and isinstance(value, list) and value:
        return mutate(data, path, lambda c: c.__setitem__(key, value[0]))
    if kind == "retag":
        requests = [e for e in every if e[1] == "service"]
        if requests:
            path, key, value = draw(st.sampled_from(requests))
            tag = draw(st.sampled_from(["guaranteed", "predicted", "bogus"]))
            return mutate(data, path, lambda c: c.__setitem__(key, tag))
    return mutate(data, path, lambda c: c.__setitem__(key, [value]))  # wrap


class TestMutationFuzz:
    @settings(max_examples=400)
    @given(mutated_payloads())
    def test_decode_returns_a_spec_or_raises_spec_error(self, data):
        try:
            spec = ScenarioSpec.from_dict(data)
        except SpecError:
            return
        assert isinstance(spec, ScenarioSpec)

    def test_property_profile_is_deterministic(self):
        assert settings.default.derandomize and settings.default.deadline is None
