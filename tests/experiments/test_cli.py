"""Tests for the ``python -m repro.experiments`` command line."""

import functools
import json
import os
import signal
import subprocess
import sys

import pytest

import repro
from repro.experiments.__main__ import main

# The CLI with the pool's workers SIGKILLed as the first task is handed
# to them (the submit runs in the parent under every start method).  The
# kill fires on submission, not on a finished run: a single run's
# ``on_result`` only fires once all its tasks are in, too late to lose any.
_KILLING_CLI = r"""
import multiprocessing, os, signal, sys
from concurrent.futures import ProcessPoolExecutor

from repro.experiments.__main__ import main

submit = ProcessPoolExecutor.submit
fired = []


def killing_submit(self, *args, **kwargs):
    future = submit(self, *args, **kwargs)
    if not fired:
        fired.append(True)
        for child in multiprocessing.active_children():
            os.kill(child.pid, signal.SIGKILL)
    return future


ProcessPoolExecutor.submit = killing_submit
sys.exit(main(sys.argv[1:]))
"""


def _env_with_src():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return env


def _run_killing_cli(*argv):
    """``(returncode, stdout, stderr)`` of the killing CLI on ``argv``."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _KILLING_CLI, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_env_with_src(),
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    finally:
        # Nothing the run started may outlive the test, hung or not.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
    return proc.returncode, out, err


class TestCli:
    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "S-1" in out and "10 each" in out

    def test_table1_short(self, capsys):
        assert main(["table1", "--duration", "20", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "WFQ" in out and "FIFO" in out
        assert "seed: 2" in out

    def test_table2_short(self, capsys):
        assert main(["table2", "--duration", "20"]) == 0
        out = capsys.readouterr().out
        assert "FIFO+" in out

    def test_table3_short(self, capsys):
        assert main(["table3", "--duration", "20"]) == 0
        out = capsys.readouterr().out
        assert "P-G bound" in out
        assert "datagram drop rate" in out

    def test_dynamics_short(self, capsys):
        assert main(["dynamics", "--duration", "30"]) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "adaptations" in out

    def test_parkinglot_short(self, capsys):
        assert main(["parkinglot", "--duration", "15"]) == 0
        out = capsys.readouterr().out
        assert "Parking lot" in out and "thru" in out
        assert "FIFO+" in out and "CSZ" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["table9"])

    def test_no_experiment_and_no_spec_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_experiment_and_spec_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            main(["table1", "--spec", "parking_lot"])


class TestSpecCli:
    def test_registered_name(self, capsys):
        assert main(["--spec", "table1", "--duration", "10"]) == 0
        out = capsys.readouterr().out
        assert "flow-0" in out and "A->B" in out

    def test_unknown_name_reports_error(self, capsys):
        assert main(["--spec", "no-such-scenario"]) == 2
        assert "no scenario named" in capsys.readouterr().err

    def test_spec_file_round_trip(self, capsys, tmp_path):
        import json

        from repro.scenario import registry

        spec = registry.build("parking_lot", duration=5.0)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        out_path = tmp_path / "out.json"
        assert main(["--spec", str(path), "--json", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "thru-0" in out
        payload = json.loads(out_path.read_text())
        runs = payload["experiments"]["parking_lot"]["runs"]
        assert [run["discipline"] for run in runs] == ["FIFO", "FIFO+", "CSZ"]
        assert "S-1->S-2" in runs[0]["link_queueing"]

    def test_spec_file_duration_override(self, capsys, tmp_path):
        import json

        from repro.scenario import registry

        spec = registry.build("table1", duration=600.0)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert main(["--spec", str(path), "--duration", "5"]) == 0
        assert "duration: 5s" in capsys.readouterr().out

    def test_list_scenarios(self, capsys):
        assert main(["--list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "parking_lot" in out and "table1" in out

    def test_bare_import_registers_every_experiment_scenario(self):
        """``import repro.experiments`` alone registers every experiment's
        scenarios, and loads neither ``repro.fluid`` nor numpy."""
        code = (
            "import json, sys\n"
            "import repro.experiments\n"
            "heavy = sorted(m for m in sys.modules\n"
            "               if m.split('.')[0] == 'numpy'\n"
            "               or m.startswith('repro.fluid'))\n"
            "from repro.scenario import registry\n"
            "print(json.dumps({'names': registry.names(), 'heavy': heavy}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=_env_with_src(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert "failover" in report["names"]
        assert "failover:fabric" in report["names"]
        assert report["heavy"] == []

    def test_packet_run_loads_neither_fluid_nor_numpy(self):
        """The runner reaches for the fluid engine only when a spec asks
        for it: a packet run leaves ``repro.fluid`` and numpy unloaded."""
        code = (
            "import json, sys\n"
            "from repro.scenario import ScenarioRunner, registry\n"
            "import repro.experiments\n"
            "result = ScenarioRunner(registry.build('table1', duration=1.0)).run()\n"
            "heavy = sorted(m for m in sys.modules\n"
            "               if m.split('.')[0] == 'numpy'\n"
            "               or m.startswith('repro.fluid'))\n"
            "print(json.dumps({'runs': len(result.runs), 'heavy': heavy}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=_env_with_src(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["runs"] == 2
        assert report["heavy"] == []

    @pytest.mark.parametrize(
        "argv", [["fig1"], ["table1", "--duration", "5"]]
    )
    def test_unwritable_json_target_fails_before_any_run(
        self, tmp_path, argv
    ):
        target = tmp_path / "missing" / "x.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments", *argv,
             "--json", str(target)],
            capture_output=True, text=True, env=_env_with_src(), timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert str(target) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "regenerated" not in proc.stdout  # nothing ran
        assert not target.parent.exists()

    def test_json_export(self, capsys, tmp_path):
        path = tmp_path / "results.json"
        assert main(["table1", "--duration", "15", "--json", str(path)]) == 0
        assert str(path) in capsys.readouterr().out
        import json

        payload = json.loads(path.read_text())
        runs = payload["experiments"]["table1"]["runs"]
        assert [run["discipline"] for run in runs] == ["WFQ", "FIFO"]
        assert "flow-0" in runs[0]["flows"]
        assert runs[0]["flows"]["flow-0"]["recorded"] > 0

    def test_workers_flag_matches_serial(self, capsys, tmp_path):
        serial, parallel = tmp_path / "serial.json", tmp_path / "parallel.json"
        assert main(["table1", "--duration", "15", "--json", str(serial)]) == 0
        assert (
            main(
                [
                    "table1",
                    "--duration",
                    "15",
                    "--workers",
                    "2",
                    "--json",
                    str(parallel),
                ]
            )
            == 0
        )
        capsys.readouterr()
        import json

        def comparable(path):
            runs = json.loads(path.read_text())["experiments"]["table1"]["runs"]
            for run in runs:
                del run["runtime"]
            return runs

        assert comparable(serial) == comparable(parallel)

class TestSweepCli:
    def test_seed_range_sweep(self, capsys, tmp_path):
        import json

        path = tmp_path / "sweep.json"
        assert (
            main(
                ["--spec", "table1", "--duration", "5",
                 "--sweep-seeds", "1..3", "--json", str(path)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "[3/3]" in out and "3 completed" in out
        payload = json.loads(path.read_text())["experiments"]["table1"]
        assert payload["counts"]["completed"] == 3
        assert [run["seed"] for run in payload["runs"]] == [1, 2, 3]
        assert all(run["status"] == "completed" for run in payload["runs"])

    def test_sweep_over_cross_product(self, capsys):
        assert (
            main(
                ["--spec", "table1", "--duration", "5",
                 "--sweep-seeds", "1,2", "--sweep-over", "warmup=0,1"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "[4/4]" in out and "4 completed" in out

    def test_budget_marks_runs_expired(self, capsys):
        assert (
            main(
                ["--spec", "table1", "--duration", "5",
                 "--sweep-seeds", "1,2", "--budget-seconds", "0"]
            )
            == 0
        )
        assert "2 budget-expired" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, argument",
        [
            (["--spec", "table1", "--workers", "-4"], "workers"),
            (["table1", "--workers", "-4"], "workers"),
            (["--spec", "table1", "--sweep-seeds", "1,2",
              "--budget-seconds", "-1"], "budget_seconds"),
            (["--spec", "table1", "--sweep-seeds", "1,2",
              "--budget-seconds", "nan"], "budget_seconds"),
        ],
    )
    def test_bad_workers_or_budget_exit_2(self, capsys, argv, argument):
        assert main([*argv, "--duration", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and argument in captured.err
        assert captured.out == ""  # refused before anything ran

    def test_lost_worker_reported_and_exit_nonzero(self, tmp_path):
        """A sweep whose workers are SIGKILLed mid-run finishes, reports
        the lost runs in its summary and JSON, and exits non-zero."""
        path = tmp_path / "sweep.json"
        returncode, out, err = _run_killing_cli(
            "--spec", "table1", "--duration", "5",
            "--sweep-seeds", "1..4", "--workers", "2",
            "--json", str(path),
        )
        assert returncode == 1, err
        assert "worker-lost" in out
        assert "error: worker process died under runs" in err
        counts = json.loads(path.read_text())["experiments"]["table1"][
            "counts"
        ]
        assert counts["worker_lost"] >= 1
        assert counts["completed"] + counts["worker_lost"] == 4

    @pytest.mark.parametrize("target", [["--spec", "table1"], ["table1"]])
    def test_lost_worker_in_a_plain_run_is_an_error_line(
        self, tmp_path, target
    ):
        """A ``--workers N`` run that is not a sweep, whose worker dies,
        reports ``error:``, exits 1 without a traceback, and still writes
        ``--json``."""
        path = tmp_path / "run.json"
        returncode, out, err = _run_killing_cli(
            *target, "--duration", "20", "--workers", "2",
            "--json", str(path),
        )
        assert returncode == 1, err
        assert "Traceback" not in err
        assert "error: " in err and "worker_lost" in err
        assert json.loads(path.read_text()) == {"experiments": {}}

    def test_sweep_flags_require_spec(self):
        with pytest.raises(SystemExit):
            main(["table1", "--sweep-seeds", "1..2"])

    def test_malformed_sweep_over_reports_error(self, capsys):
        assert (
            main(["--spec", "table1", "--sweep-over", "warmup"]) == 2
        )
        assert "field=v1,v2" in capsys.readouterr().err

    def test_valueless_sweep_over_reports_error(self, capsys):
        assert (
            main(["--spec", "table1", "--sweep-over", "warmup="]) == 2
        )
        assert "names no values" in capsys.readouterr().err

    def test_unknown_sweep_field_reports_error(self, capsys):
        assert (
            main(["--spec", "table1", "--sweep-over", "no_such_field=1"]) == 2
        )
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        ["validate=yes", "percentile_points=99", "topology=null", "duration=ten"],
    )
    def test_mistyped_sweep_value_named_before_any_run(self, capsys, override):
        """Each value is decoded as its field's wire value up front."""
        assert main(["--spec", "table1", "--sweep-over", override]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {override.split('=')[0]}: ")
        assert "[1/1]" not in out


class TestGeneratedCli:
    def test_gen_spec_with_gen_seed_runs_validated(self, capsys, tmp_path):
        import json

        path = tmp_path / "gen.json"
        assert (
            main(
                ["--spec", "gen:random-graph", "--gen-seed", "7",
                 "--duration", "4", "--json", str(path)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "random-graph-g7" in out
        assert "port-conservation" in out and "FAIL" not in out
        runs = json.loads(path.read_text())["experiments"][
            "random-graph-g7"
        ]["runs"]
        assert [run["discipline"] for run in runs] == ["FIFO", "FIFO+", "CSZ"]
        for run in runs:
            assert all(check["ok"] for check in run["invariants"])

    def test_gen_seed_changes_the_scenario(self, capsys):
        assert main(["--spec", "gen:access-core", "--gen-seed", "3",
                     "--duration", "3"]) == 0
        assert "access-core-g3" in capsys.readouterr().out

    def test_gen_scenarios_listed(self, capsys):
        assert main(["--list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "gen:random-graph" in out and "gen:wan-path" in out

    def test_validate_flag_opts_any_spec_in(self, capsys):
        assert main(["--spec", "table1", "--duration", "4",
                     "--validate"]) == 0
        out = capsys.readouterr().out
        assert "invariant" in out and "flow-conservation" in out

    def test_gen_spec_sweeps_seeds(self, capsys):
        assert (
            main(
                ["--spec", "gen:wan-path", "--gen-seed", "2",
                 "--duration", "3", "--sweep-seeds", "1,2"]
            )
            == 0
        )
        assert "2 completed" in capsys.readouterr().out

    def test_generated_experiment_with_gen_seeds(self, capsys, tmp_path):
        import json

        path = tmp_path / "generated.json"
        assert (
            main(
                ["generated", "--duration", "3", "--gen-seeds", "1..3",
                 "--workers", "2", "--json", str(path)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "3 seeded multi-bottleneck topologies" in out
        assert "clean on every run" in out
        payload = json.loads(path.read_text())["experiments"]["generated"]
        assert [row["gen_seed"] for row in payload["rows"]] == [1, 2, 3]
        assert payload["all_invariants_clean"] is True

    def test_gen_seeds_requires_generated_experiment(self):
        with pytest.raises(SystemExit):
            main(["table1", "--gen-seeds", "1..3"])

    def test_gen_seed_requires_spec(self):
        with pytest.raises(SystemExit):
            main(["generated", "--gen-seed", "5"])

    def test_validate_requires_spec(self):
        with pytest.raises(SystemExit):
            main(["table1", "--validate"])

    def test_malformed_gen_seeds_reports_error(self, capsys):
        assert main(["generated", "--gen-seeds", "5..2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_violations_flip_exit_code_but_json_still_written(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.scenario.runner import DisciplineRunResult

        monkeypatch.setattr(
            DisciplineRunResult,
            "invariants_clean",
            property(lambda self: False),
        )
        path = tmp_path / "violated.json"
        assert (
            main(
                ["--spec", "gen:access-core", "--gen-seed", "1",
                 "--duration", "2", "--json", str(path)]
            )
            == 1
        )
        assert "invariant violations" in capsys.readouterr().err
        # The payload survives: it is the debugging artifact.
        import json

        assert path.exists()
        assert "experiments" in json.loads(path.read_text())

    def test_sweep_mode_checks_invariants_too(self, capsys, monkeypatch):
        from repro.scenario.runner import DisciplineRunResult

        monkeypatch.setattr(
            DisciplineRunResult,
            "invariants_clean",
            property(lambda self: False),
        )
        assert (
            main(
                ["--spec", "gen:access-core", "--gen-seed", "1",
                 "--duration", "2", "--sweep-seeds", "1,2"]
            )
            == 1
        )
        assert "invariant violations" in capsys.readouterr().err


@pytest.fixture
def small_scale(monkeypatch):
    """The scale flagship on one 300-flow fabric instead of 10k + 100k
    (CI's ``all --duration 10`` smoke keeps the full sizes).  ``run`` is
    wrapped because its ``sizes`` default is bound at definition time."""
    from repro.experiments import scale

    monkeypatch.setattr(
        scale, "run", functools.partial(scale.run, sizes=(300,))
    )


class TestCliAll:
    def test_all_runs_everything(self, capsys, small_scale):
        assert main(["all", "--duration", "5", "--gen-seeds", "1"]) == 0
        out = capsys.readouterr().out
        for token in ("Table 1", "Table 2", "Table 3", "Figure 1",
                      "Dynamic adaptation",
                      "seeded multi-bottleneck topologies",
                      "Scale flagship"):
            assert token in out


class TestEngineCli:
    def test_engine_fluid_on_registered_spec(self, capsys):
        assert (
            main(
                ["--spec", "gen:fat-tree", "--engine", "fluid",
                 "--duration", "5"]
            )
            == 0
        )
        assert "fat-tree-k4-g1" in capsys.readouterr().out

    def test_engine_fluid_on_spec_file(self, capsys, tmp_path):
        import json

        from repro.scenario import registry

        spec = registry.build("parking_lot", duration=5.0)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert main(["--spec", str(path), "--engine", "fluid"]) == 0
        capsys.readouterr()

    def test_engine_requires_spec(self):
        with pytest.raises(SystemExit):
            main(["table1", "--engine", "fluid"])

    def test_scale_experiment_runs_small(self, capsys, small_scale):
        assert main(["scale", "--duration", "5"]) == 0
        out = capsys.readouterr().out
        assert "Scale flagship" in out
        assert "admit" in out
