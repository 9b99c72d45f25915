"""Tests for the shared experiment recipes (the Appendix constants)."""

import pytest

from repro.experiments import common
from repro.scenario import paper


class TestConstants:
    def test_paper_units(self):
        assert paper.PACKET_BITS == 1000
        assert paper.LINK_RATE_BPS == 1_000_000
        assert paper.TX_TIME_SECONDS == pytest.approx(0.001)
        assert paper.BUFFER_PACKETS == 200
        assert paper.AVERAGE_RATE_PPS == 85.0
        assert paper.BUCKET_PACKETS == 50.0
        assert paper.PAPER_DURATION_SECONDS == 600.0

    def test_in_tx_units(self):
        assert paper.in_tx_units(0.001) == pytest.approx(1.0)
        assert paper.in_tx_units(0.0545) == pytest.approx(54.5)


class TestFlowPlacements:
    def test_twenty_two_flows(self):
        assert len(paper.figure1_flow_placements()) == 22

    def test_names_unique(self):
        names = [p.name for p in paper.figure1_flow_placements()]
        assert len(set(names)) == 22

    def test_hops_match_endpoints(self):
        for placement in paper.figure1_flow_placements():
            src = int(placement.source_host.split("-")[1])
            dst = int(placement.dest_host.split("-")[1])
            assert placement.hops == dst - src
            assert 1 <= placement.hops <= 4

    def test_table3_commitment_census_per_link(self):
        """Every inter-switch link carries exactly 2 G-Peak + 1 G-Avg +
        3 P-High + 4 P-Low flows (the paper's stated per-link census)."""
        placements = {p.name: p for p in paper.figure1_flow_placements()}

        def links_of(placement):
            src = int(placement.source_host.split("-")[1])
            dst = int(placement.dest_host.split("-")[1])
            return set(range(src, dst))  # link i joins S-i and S-(i+1)

        census = {link: {"peak": 0, "avg": 0, "high": 0, "low": 0}
                  for link in range(1, 5)}
        groups = [
            (paper.GUARANTEED_PEAK_FLOWS, "peak"),
            (paper.GUARANTEED_AVERAGE_FLOWS, "avg"),
            (paper.PREDICTED_HIGH_FLOWS, "high"),
            (paper.PREDICTED_LOW_FLOWS, "low"),
        ]
        seen = set()
        for flows, kind in groups:
            for name in flows:
                assert name not in seen, f"{name} assigned twice"
                seen.add(name)
                for link in links_of(placements[name]):
                    census[link][kind] += 1
        assert seen == set(placements)
        for link, counts in census.items():
            assert counts == {"peak": 2, "avg": 1, "high": 3, "low": 4}, link

    def test_table3_samples_exist_and_typed_right(self):
        placements = {p.name: p for p in paper.figure1_flow_placements()}
        for flow_type, flow, hops in paper.TABLE3_SAMPLES:
            assert placements[flow].hops == hops
            group = {
                "Peak": paper.GUARANTEED_PEAK_FLOWS,
                "Average": paper.GUARANTEED_AVERAGE_FLOWS,
                "High": paper.PREDICTED_HIGH_FLOWS,
                "Low": paper.PREDICTED_LOW_FLOWS,
            }[flow_type]
            assert flow in group


class TestFormatTable:
    def test_alignment_and_rule(self):
        text = common.format_table(
            ["name", "value"], [["a", "1"], ["bb", "22"]]
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert set(lines[1]) <= {"-", " "}
        # All rows share a width.
        assert len({len(line) for line in lines}) == 1

    def test_wide_cells_stretch_columns(self):
        text = common.format_table(["h"], [["wider-than-header"]])
        assert "wider-than-header" in text
