"""Shape tests for the Table 3 reproduction (the unified scheduler)."""

import pytest

from repro.experiments import table3

DURATION = 90.0


@pytest.fixture(scope="module")
def result():
    return table3.run(duration=DURATION, seed=5)


class TestGuaranteedShape:
    def test_every_guaranteed_flow_under_pg_bound(self, result):
        """The central guarantee: measured max delay < the P-G bound for
        every guaranteed flow (Table 3's shape criterion (i))."""
        for flow, bound in result.summary["pg_bound_by_flow"].items():
            assert result.summary["all_max_by_flow"][flow] < bound, flow

    def test_peak_sees_less_delay_than_average(self, result):
        """Clock rate at peak generation rate -> small bursts drain fast;
        rate at average -> the bucket's worth of backlog can build."""
        peak4 = result.row("Peak", 4)
        avg3 = result.row("Average", 3)
        avg1 = result.row("Average", 1)
        assert peak4.mean < avg1.mean
        assert peak4.p999 < avg3.p999

    def test_pg_bounds_match_paper_exactly(self, result):
        expected = {
            ("Peak", 4): 23.53,
            ("Peak", 2): 11.76,
            ("Average", 3): 611.76,
            ("Average", 1): 588.24,
        }
        for (flow_type, hops), bound in expected.items():
            row = result.row(flow_type, hops)
            assert row.pg_bound == pytest.approx(bound, abs=0.01)


class TestPredictedShape:
    def test_high_beats_low(self, result):
        """Priority isolation: the high class's tail sits far below the low
        class's."""
        high4 = result.row("High", 4)
        low3 = result.row("Low", 3)
        low1 = result.row("Low", 1)
        assert high4.p999 < low3.p999
        assert high4.mean < low3.mean
        assert result.row("High", 2).mean < low1.p999

    def test_predicted_rows_have_no_pg_bound(self, result):
        for flow_type in ("High", "Low"):
            for row in result.rows:
                if row.flow_type == flow_type:
                    assert row.pg_bound is None


class TestSystemShape:
    def test_network_highly_utilized(self, result):
        """Paper: >99 % utilization.  Short horizons and TCP ramp-up cost a
        little; demand >90 % on every forward link."""
        for name, utilization in result.summary["link_utilizations"].items():
            assert utilization > 0.90, (name, utilization)

    def test_realtime_fraction_near_paper(self, result):
        """83.5 % of the load should be real-time traffic."""
        for name, fraction in result.summary["realtime_fraction"].items():
            assert 0.70 < fraction < 0.95, (name, fraction)

    def test_datagram_drop_rate_small(self, result):
        """Paper: ~0.1 % datagram drops.  TCP keeps its load matched to the
        leftovers; assert the drop rate stays within an order of magnitude."""
        assert result.summary["datagram_drop_rate"] < 0.02

    def test_tcp_makes_progress(self, result):
        for name, goodput in result.summary["tcp_goodput_bps"].items():
            assert goodput > 10_000, (name, goodput)

    def test_render(self, result):
        text = result.render()
        for token in ("Peak", "Average", "High", "Low", "P-G bound"):
            assert token in text


class TestSamples:
    def test_all_eight_sample_rows_present(self, result):
        kinds = {(row.flow_type, row.hops) for row in result.rows}
        assert kinds == {
            ("Peak", 4), ("Peak", 2),
            ("Average", 3), ("Average", 1),
            ("High", 4), ("High", 2),
            ("Low", 3), ("Low", 1),
        }
