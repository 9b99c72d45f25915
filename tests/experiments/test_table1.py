"""Shape tests for the Table 1 reproduction (WFQ vs FIFO, single link).

Short horizons keep the suite fast; the benchmarks run the paper's full
600 s.  The paper's qualitative claims hold well before full convergence.
"""

import pytest

from repro.experiments import table1

DURATION = 60.0


@pytest.fixture(scope="module")
def result():
    return table1.run(duration=DURATION, seed=7)


class TestTable1Shape:
    def test_means_comparable(self, result):
        """Work conservation: WFQ and FIFO means within ~10 % (paper: 3.16
        vs 3.17)."""
        wfq = result.row("WFQ").mean
        fifo = result.row("FIFO").mean
        assert abs(wfq - fifo) / max(wfq, fifo) < 0.10

    def test_fifo_tail_beats_wfq(self, result):
        """The paper's headline: sharing (FIFO) yields a much smaller
        99.9th percentile than isolation (WFQ) for homogeneous sources."""
        wfq = result.row("WFQ").p999
        fifo = result.row("FIFO").p999
        assert fifo < 0.85 * wfq

    def test_utilization_near_paper(self, result):
        # Paper: 83.5 %.  Allow slack for a short horizon.
        assert 0.75 < result.summary["utilization"] < 0.92

    def test_flows_are_similar(self, result):
        """'The data from the various flows are similar' — no flow's mean
        is wildly off the pack."""
        for row in result.rows:
            mean_of_means = sum(row.flow_means) / len(row.flow_means)
            for value in row.flow_means:
                assert value < 3.0 * mean_of_means

    def test_delays_positive_in_tx_units(self, result):
        for row in result.rows:
            assert row.mean > 0.1  # some real queueing happens at 83.5 %
            assert row.p999 > row.mean


class TestTable1Determinism:
    def test_same_seed_reproduces(self):
        a = table1.run_single("FIFO", duration=10.0, seed=3)
        b = table1.run_single("FIFO", duration=10.0, seed=3)
        assert a.mean == b.mean
        assert a.p999 == b.p999

    def test_different_seed_differs(self):
        a = table1.run_single("FIFO", duration=10.0, seed=3)
        b = table1.run_single("FIFO", duration=10.0, seed=4)
        assert a.mean != b.mean

    def test_render_contains_both_rows(self):
        result = table1.run(duration=20.0, seed=1)
        text = result.render()
        assert "WFQ" in text and "FIFO" in text
        assert "83.5%" in text
        # The paper's cells are rendered from PAPER_VALUES, every one.
        for cells in table1.PAPER_VALUES.values():
            for value in cells.values():
                assert f"{value:.2f}" in text
