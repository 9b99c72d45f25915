"""Tests for the keyed per-flow draw (``stream_key`` / ``KeyedDraws``).

Every ECMP branch choice and every fluid on/off phase is one of these
draws, so what is pinned here is range, purity, independence between
purposes and seeds, key collisions at population scale, and uniformity
on the two populations the benchmark of record runs.  Process stability
(``PYTHONHASHSEED``) is in ``tests/validate/test_seed_stability.py``.
"""

import math

import pytest

from repro.fluid.model import _PHASE_SALT
from repro.net.fabric import EcmpPaths
from repro.scenario import registry
from repro.sim.randomness import KeyedDraws, stream_key


def words(seed, purpose, name, count=8):
    stream = KeyedDraws(seed, purpose, name)
    return [stream.word() for _ in range(count)]


class TestRange:
    @pytest.mark.parametrize(
        "n", [1, 2, 3, 7, 8, 1000, 2**20 + 1, 2**32, 2**40]
    )
    def test_draw_lands_in_range_n(self, n):
        seen = set()
        for flow in range(50):
            stream = KeyedDraws(flow - 25, "range", f"dc-{flow}")
            for _ in range(40):
                value = stream.draw(n)
                assert type(value) is int and 0 <= value < n
                seen.add(value)
        # Every small range is covered; a large one is not stuck.
        if n <= 8:
            assert seen == set(range(n))
        else:
            assert len(seen) > min(n, 2000) // 2

    def test_word_is_64_bit_and_uniform_is_in_the_unit_interval(self):
        stream = KeyedDraws(1, "range", "f")
        for _ in range(2000):
            assert 0 <= stream.word() < 2**64
            assert 0.0 <= stream.uniform() < 1.0

    def test_uniform_is_the_top_53_bits_of_the_word(self):
        a, b = KeyedDraws(3, "p", "f"), KeyedDraws(3, "p", "f")
        for _ in range(100):
            assert a.uniform() == (b.word() >> 11) / 2.0**53


class TestPurity:
    def test_same_arguments_same_stream(self):
        assert words(7, "ecmp", "dc-1") == words(7, "ecmp", "dc-1")
        assert stream_key(7, "ecmp", "dc-1") == stream_key(7, "ecmp", "dc-1")

    def test_a_stream_does_not_repeat_itself(self):
        assert len(set(words(7, "ecmp", "dc-1", count=1000))) == 1000

    def test_purpose_separates_the_streams_of_one_flow(self):
        """A flow's ECMP choice and its phase are not tied: over a
        population, first words never coincide and the two draws are
        uncorrelated."""
        ties, both_low = 0, 0
        for i in range(4000):
            route = KeyedDraws(1, "ecmp", f"dc-{i}")
            phase = KeyedDraws(1, _PHASE_SALT, f"dc-{i}")
            a, b = route.uniform(), phase.uniform()
            ties += a == b
            both_low += a < 0.5 and b < 0.5
        assert ties == 0
        # Independent halves: 1000 expected, sigma = sqrt(4000 * 3/16).
        assert abs(both_low - 1000) < 3 * math.sqrt(750)

    def test_name_and_seed_separate_streams(self):
        assert words(1, "ecmp", "dc-1") != words(1, "ecmp", "dc-2")
        assert words(1, "ecmp", "dc-1") != words(2, "ecmp", "dc-1")

    @pytest.mark.parametrize(
        "seed", [-1, 0, 1, -(2**70), 2**63, 2**63 + 1, 2**200]
    )
    def test_any_int_seed_is_accepted(self, seed):
        stream = KeyedDraws(seed, "ecmp", "dc-0")
        assert 0 <= stream.draw(5) < 5
        assert 0 <= stream_key(seed, "ecmp", "dc-0") < 2**64

    def test_neighbouring_seeds_give_three_different_streams(self):
        streams = [tuple(words(seed, "ecmp", "dc-0")) for seed in (-1, 0, 1)]
        assert len(set(streams)) == 3
        assert len({w for stream in streams for w in stream}) == 24

    def test_population_names_have_distinct_keys(self):
        keys = {stream_key(1, "ecmp", f"dc-{i}") for i in range(100_000)}
        assert len(keys) == 100_000


class TestUniformity:
    def test_spine_choice_is_even_over_the_failover_population(self):
        """The ``fluid_failover`` fabric: 16 leaves x 4 spines, 8 000
        flows.  Each inter-leaf flow takes exactly one draw — its spine
        — and each spine gets a quarter of them to within 3 sigma."""
        spec = registry.build(
            "gen:leaf-spine", gen_seed=1, seed=1, leaves=16, spines=4,
            hosts_per_leaf=16, num_flows=8_000, duration=5.0,
        )
        chooser = EcmpPaths(spec.topology, seed=spec.ecmp_seed)
        counts = dict.fromkeys(("SP-1", "SP-2", "SP-3", "SP-4"), 0)
        for flow in spec.flows:
            nodes = chooser.path(flow.source_host, flow.dest_host, flow.name)
            if len(nodes) == 5:  # host, leaf, spine, leaf, host
                counts[nodes[2]] += 1
        total = sum(counts.values())
        assert total > 7_000
        sigma = math.sqrt(total * 0.25 * 0.75)
        for spine, count in counts.items():
            assert abs(count - total / 4) < 3 * sigma, (spine, counts)

    def test_phases_are_uniform_over_the_fabric_population(self):
        """The ``fluid_fabric`` population's 25 000 phases against the
        uniform CDF: Kolmogorov–Smirnov D below the 1 % critical value
        1.63 / sqrt(n)."""
        n = 25_000
        phases = sorted(
            KeyedDraws(1, _PHASE_SALT, f"dc-{i}").uniform() for i in range(n)
        )
        d = max(
            max((i + 1) / n - x, x - i / n) for i, x in enumerate(phases)
        )
        assert d < 1.63 / math.sqrt(n)
        assert abs(sum(phases) / n - 0.5) < 3 / math.sqrt(12 * n)
