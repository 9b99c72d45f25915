"""Shape tests for the Table 2 reproduction (WFQ/FIFO/FIFO+ vs hops)."""

import pytest

from repro.experiments import table2

DURATION = 90.0


@pytest.fixture(scope="module")
def result():
    return table2.run(duration=DURATION, seed=11)


class TestTable2Shape:
    def test_means_grow_with_path_length(self, result):
        for row in result.rows:
            means = [row.by_hops[h].mean for h in (1, 2, 3, 4)]
            assert means == sorted(means)

    def test_means_comparable_across_disciplines(self, result):
        """Per path length, the three disciplines' means agree within ~25 %
        (paper: e.g. 9.64 / 10.33 / 10.11 at 4 hops)."""
        for hops in (1, 2, 3, 4):
            means = [row.by_hops[hops].mean for row in result.rows]
            assert max(means) < 1.25 * min(means)

    def test_tails_grow_with_path_length(self, result):
        for row in result.rows:
            tails = [row.by_hops[h].p999 for h in (1, 2, 3, 4)]
            assert tails[-1] > tails[0]

    def test_fifoplus_flattens_tail_growth(self, result):
        """The paper's Section 6 claim: 99.9 %ile growth from 1 to 4 hops is
        much smaller with FIFO+ than with WFQ."""
        wfq = result.row("WFQ")
        fifoplus = result.row("FIFO+")
        wfq_growth = wfq.by_hops[4].p999 - wfq.by_hops[1].p999
        plus_growth = fifoplus.by_hops[4].p999 - fifoplus.by_hops[1].p999
        assert plus_growth < 0.75 * wfq_growth

    def test_fifoplus_beats_fifo_at_four_hops(self, result):
        fifo = result.row("FIFO").by_hops[4].p999
        plus = result.row("FIFO+").by_hops[4].p999
        assert plus < fifo

    def test_wfq_has_worst_long_path_tail(self, result):
        at4 = {row.scheduling: row.by_hops[4].p999 for row in result.rows}
        assert at4["WFQ"] == max(at4.values())

    def test_links_utilized_near_paper(self, result):
        for name, utilization in result.summary["link_utilizations"].items():
            assert 0.70 < utilization < 0.92, name

    def test_flows_of_same_length_similar(self, result):
        """Flows sharing a path length should see similar means."""
        from repro.scenario.paper import figure1_flow_placements

        hops_of = {p.name: p.hops for p in figure1_flow_placements()}
        for row in result.rows:
            by_hops = {}
            for flow, mean in row.all_means.items():
                by_hops.setdefault(hops_of[flow], []).append(mean)
            for hops, means in by_hops.items():
                center = sum(means) / len(means)
                for value in means:
                    assert value < 2.5 * center, (row.scheduling, hops)

    def test_render(self, result):
        text = result.render()
        for token in ("WFQ", "FIFO", "FIFO+", "4h 99.9%"):
            assert token in text
