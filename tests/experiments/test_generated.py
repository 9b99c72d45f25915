"""Flagship golden: FIFO+'s jitter ranking across 20 generated graphs.

The golden file was captured at duration 6 s / warmup 1 s / seed 1 over
generator seeds 1..20 (the flagship defaults).  Every per-graph jitter
number is pinned bit-for-bit — generation, routing, flow sizing, and the
paired simulations are all deterministic — and the aggregate pins the
architectural claim: FIFO+ ranks best on jitter across sampled
multi-bottleneck topologies, with every invariant clean on every run.
"""

import json
import pathlib

import pytest

from repro.experiments import generated

DATA = pathlib.Path(__file__).parent / "data"
DURATION = 6.0
WARMUP = 1.0


@pytest.fixture(scope="module")
def golden():
    with open(DATA / "golden_generated_seed1.json") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def result():
    return generated.run(duration=DURATION, warmup=WARMUP, seed=1, workers=2)


class TestGeneratedGolden:
    def test_twenty_graphs(self, result):
        assert [row.gen_seed for row in result.rows] == list(range(1, 21))

    def test_rows_bit_identical(self, result, golden):
        for row, expected in zip(result.rows, golden["rows"]):
            assert row.gen_seed == expected["gen_seed"]
            assert row.num_flows == expected["num_flows"]
            assert row.num_multihop == expected["num_multihop"]
            assert row.num_links == expected["num_links"]
            assert row.jitter_ms == expected["jitter_ms"]

    def test_jitter_ranking_pinned(self, result, golden):
        """The per-graph winner list is the golden's, exactly."""
        assert [row.winner for row in result.rows] == [
            row["winner"] for row in golden["rows"]
        ]
        assert result.summary["wins"] == golden["wins"]

    def test_fifoplus_ranks_best_on_jitter(self, result):
        """The architectural claim across sampled topologies: FIFO+ wins
        more graphs than any alternative and has the lowest mean
        multi-hop jitter."""
        wins = result.summary["wins"]
        assert wins["FIFO+"] == max(wins.values())
        means = result.summary["mean_jitter_ms"]
        assert means["FIFO+"] < means["FIFO"]
        assert means["FIFO+"] == min(means.values())

    def test_invariants_clean_on_every_run(self, result):
        assert result.summary["all_invariants_clean"]
        assert all(row.invariants_clean for row in result.rows)

    def test_mean_jitter_bit_identical(self, result, golden):
        assert result.summary["mean_jitter_ms"] == golden["mean_jitter_ms"]

    def test_render_mentions_the_verdict(self, result):
        out = result.render()
        assert "20 seeded multi-bottleneck topologies" in out
        assert "clean on every run" in out
        assert "FIFO+" in out
