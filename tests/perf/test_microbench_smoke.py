"""Smoke tests for the perf microbench suite.

Tiny workloads only — these exist so the benches and the report tool keep
importing and producing sane measurements, not to measure anything.  CI
runs the real (still short) suite via ``tools/perf_report.py --quick``.
"""

import json
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT))

from benchmarks.perf import microbench  # noqa: E402


class TestMicrobenches:
    def test_raw_events(self):
        result = microbench.bench_raw_events(total_events=2000, chains=8)
        assert result["events"] >= 2000
        assert result["events_per_sec"] > 0

    def test_timer_churn(self):
        result = microbench.bench_timer_churn(ops=2000)
        assert result["ops"] == 2000
        assert result["churn_per_sec"] > 0

    def test_scheduler_packets(self):
        out = microbench.bench_scheduler_packets(duration=1.0)
        assert set(out) == {"FIFO", "FIFO+", "WFQ", "CSZ"}
        for row in out.values():
            assert row["packets"] > 0
            assert row["packets_per_sec"] > 0

    def test_table_benches(self):
        assert microbench.bench_table1(duration=1.0)["wall_seconds"] > 0
        assert microbench.bench_table3(duration=1.0)["wall_seconds"] > 0


class TestPerfReport:
    def test_baseline_file_is_wellformed(self):
        with open(REPO_ROOT / "benchmarks" / "perf" / "baseline_pre_fastpath.json") as handle:
            baseline = json.load(handle)
        measurements = baseline["measurements"]
        assert measurements["raw_events"]["events_per_sec"] > 0
        assert measurements["timer_churn"]["churn_per_sec"] > 0
        assert measurements["table1"]["wall_seconds"] > 0

    def test_report_tool_end_to_end(self, tmp_path):
        """The CI entry point produces a parseable report with speedups."""
        out = tmp_path / "BENCH_core.json"
        subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "perf_report.py"),
             "--quick", "--out", str(out)],
            check=True,
            timeout=600,
        )
        report = json.loads(out.read_text())
        assert report["quick"] is True
        assert "raw_events_per_sec" in report["speedup"]
        assert report["current"]["raw_events"]["events_per_sec"] > 0

    def test_quick_baseline_capture_rejected(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "perf_report.py"),
             "--suite", "fluid", "--quick",
             "--capture-baseline", str(tmp_path / "b.json")],
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode != 0
        assert b"full scale" in proc.stderr
