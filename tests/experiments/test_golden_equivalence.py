"""Legacy-equivalence goldens: the scenario-founded experiment wrappers
reproduce the pre-refactor implementation bit for bit at the same seed.

The JSON files under ``data/`` were captured from the hand-wired
implementations (before the experiments were re-founded on
:mod:`repro.scenario`) at seed 1 / 60 s (tables), seed 1 / 30 s
(distributions), and seed 9 / 10 s-phases (dynamics).  Every comparison
below is exact float equality — paired arrivals, scheduling, utilization
accounting, admission decisions, and TCP dynamics all have to match.
"""

import json
import pathlib

import pytest

from repro.experiments import distributions, dynamics, table1, table2, table3

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def golden():
    with open(DATA / "golden_seed1_pre_scenario.json") as handle:
        return json.load(handle)


class TestTable1Golden:
    @pytest.fixture(scope="class")
    def result(self):
        return table1.run(duration=60.0, seed=1)

    def test_rows_bit_identical(self, result, golden):
        for row in result.rows:
            expected = golden["table1"]["rows"][row.scheduling]
            assert row.mean == expected["mean"]
            assert row.p999 == expected["p999"]
            assert row.flow_means == expected["flow_means"]
            assert row.flow_p999s == expected["flow_p999s"]

    def test_utilization_bit_identical(self, result, golden):
        """The deduplicated measurement (from the FIFO run, not a third
        dedicated simulation) equals the legacy third-run value exactly."""
        assert result.summary["utilization"] == golden["table1"]["utilization"]


class TestTable2Golden:
    @pytest.fixture(scope="class")
    def result(self):
        return table2.run(duration=60.0, seed=1)

    def test_rows_bit_identical(self, result, golden):
        for row in result.rows:
            expected = golden["table2"]["rows"][row.scheduling]
            got = {
                str(hops): [cell.mean, cell.p999]
                for hops, cell in row.by_hops.items()
            }
            assert got == expected["by_hops"]
            assert row.all_means == expected["all_means"]
            assert row.all_p999s == expected["all_p999s"]

    def test_utilizations_bit_identical(self, result, golden):
        assert result.summary["link_utilizations"] == golden["table2"]["link_utilizations"]


class TestTable3Golden:
    @pytest.fixture(scope="class")
    def result(self):
        return table3.run(duration=60.0, seed=1)

    def test_sample_rows_bit_identical(self, result, golden):
        rows = [
            {
                "flow_type": row.flow_type,
                "flow": row.flow,
                "hops": row.hops,
                "mean": row.mean,
                "p999": row.p999,
                "max": row.max,
                "pg_bound": row.pg_bound,
            }
            for row in result.rows
        ]
        assert rows == golden["table3"]["rows"]

    def test_bounds_and_maxima_bit_identical(self, result, golden):
        assert result.summary["all_max_by_flow"] == golden["table3"]["all_max_by_flow"]
        assert result.summary["pg_bound_by_flow"] == golden["table3"]["pg_bound_by_flow"]

    def test_accounting_bit_identical(self, result, golden):
        expected = golden["table3"]
        assert result.summary["link_utilizations"] == expected["link_utilizations"]
        assert result.summary["realtime_fraction"] == expected["realtime_fraction"]
        assert result.summary["datagram_sent"] == expected["datagram_sent"]
        assert result.summary["datagram_dropped"] == expected["datagram_dropped"]
        assert result.summary["tcp_goodput_bps"] == expected["tcp_goodput_bps"]


class TestDistributionsGolden:
    def test_full_cdf_bit_identical(self, golden):
        result = distributions.run(duration=30.0, seed=1)
        for row in result.rows:
            expected = golden["distributions"][row.scheduling]
            got = {str(pct): value for pct, value in row.percentiles.items()}
            assert got == expected["percentiles"]
            assert row.flow_p999s == expected["flow_p999s"]


class TestDynamicsGolden:
    def test_orchestrated_run_bit_identical(self):
        """Mid-run admission via the live ScenarioContext reproduces the
        hand-wired phase machinery exactly."""
        with open(DATA / "golden_dynamics_seed9_pre_scenario.json") as handle:
            expected = json.load(handle)
        result = dynamics.run(phase_seconds=10.0, seed=9)
        assert [list(e) for e in result.offset_history] == expected["offset_history"]
        assert [p.received for p in result.phases] == expected["received"]
        assert [p.late for p in result.phases] == expected["late"]
        assert [
            p.mean_offset_seconds for p in result.phases
        ] == expected["mean_offsets"]
        assert result.adaptations == expected["adaptations"]
