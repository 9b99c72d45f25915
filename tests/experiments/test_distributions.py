"""Tests for the delay-distribution view of the Table-1 comparison."""

import pytest

from repro.experiments import distributions

DURATION = 45.0


@pytest.fixture(scope="module")
def result():
    return distributions.run(duration=DURATION, seed=1)


class TestDistributionsShape:
    def test_percentiles_monotone(self, result):
        for row in result.rows:
            values = [row.percentiles[p] for p in distributions.CDF_POINTS]
            assert values == sorted(values)

    def test_fifo_tail_beats_wfq_beyond_p99(self, result):
        wfq = result.row("WFQ")
        fifo = result.row("FIFO")
        assert fifo.percentiles[99.9] < 0.85 * wfq.percentiles[99.9]
        assert fifo.percentiles[99.99] < wfq.percentiles[99.99]

    def test_medians_comparable(self, result):
        wfq = result.row("WFQ").percentiles[50.0]
        fifo = result.row("FIFO").percentiles[50.0]
        assert abs(wfq - fifo) / max(wfq, fifo) < 0.2
        assert abs(wfq - fifo) < 1.0  # transmission times

    def test_fifo_tail_fairness_at_least_wfqs(self, result):
        """§5: FIFO spreads jitter evenly across homogeneous flows."""
        assert result.row("FIFO").tail_fairness >= result.row("WFQ").tail_fairness
        assert result.row("FIFO").tail_fairness > 0.95

    def test_render_contains_bars_and_table(self, result):
        text = result.render()
        assert "p99.9" in text
        assert "|#" in text
        assert "tail fairness" in text

    def test_unknown_row(self, result):
        with pytest.raises(KeyError):
            result.row("LIFO")
