"""Smoke test of the end-to-end benchmark, collected by the tier-1 command.

One ``bench.py --smoke`` run (every workload at 1/20 size, two timed
passes each) is checked against ``BENCHMARK.json``: nothing here asserts
a speed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402

CONTRACT = bench.load_contract()
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text()), done.stdout


def test_every_named_workload_and_metric_is_emitted_with_its_unit(report):
    data, printed = report
    assert list(data["workloads"]) == WORKLOADS
    assert data["claim"] is None
    for name in WORKLOADS:
        entry = data["workloads"][name]
        for metric in CONTRACT["end_to_end"]:
            row = entry["end_to_end"][metric["name"]]
            assert row["unit"] == metric["unit"]
            assert row["bound"] == metric["bound"]
            assert row["median"] > 0
            assert metric["name"] in printed
        for trace in (False, True):
            line = bench.contract_line(entry, trace)
            expected = CONTRACT["per_layer" if trace else "end_to_end"]
            assert list(line["metrics"]) == [m["name"] for m in expected]
            for metric in expected:
                emitted = line["metrics"][metric["name"]]
                assert emitted["unit"] == metric["unit"]
                assert isinstance(emitted["value"], (int, float))
            assert line["attempted"] >= 1 and line["failed"] == 0
    # Every layer metric is exercised by at least one workload.
    for metric in CONTRACT["per_layer"]:
        assert any(
            data["workloads"][name]["per_layer"][metric["name"]]["value"]
            is not None
            for name in WORKLOADS
        ), metric["name"]


def test_phases_sum_to_wall_within_the_residual(report):
    data, _ = report
    for name in WORKLOADS:
        entry = data["workloads"][name]
        layers = entry["per_layer"]
        spans = sum(layers[phase]["value"] for phase in entry["phases"])
        residual = layers["phase.residual_s"]["value"]
        # One run: wall and spans are both read off its fastest launch.
        assert spans + residual == pytest.approx(
            entry["end_to_end"]["wall_s"]["median"], rel=1e-6
        )
        assert residual >= 0
        assert entry["checks"]["phases_cover_wall"], name


def test_counters_digests_and_checks_hold_across_repeats(report):
    data, _ = report
    assert data["correct"] and data["failed"] == 0
    for name in WORKLOADS:
        entry = data["workloads"][name]
        assert len(entry["launch_walls"][0]) == 2
        assert entry["failed_share"] == 0
        assert all(entry["checks"].values()), entry["checks"]
        assert entry["checks"]["digests_repeat"]
        assert entry["checks"]["counters_repeat"]
        assert len(entry["digest"]) == 64 and entry["counters"]
    table3 = data["workloads"]["packet_table3"]["per_layer"]
    single = data["workloads"]["packet_single_link"]["per_layer"]
    assert table3["net.batched_share"]["value"] == 0
    assert single["net.batched_share"]["value"] > 0.2
    assert table3["verify.pg_bound_margin_min"]["value"] > 0
