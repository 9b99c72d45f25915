"""CLI: regenerate any table/figure of the paper, or run any scenario.

Usage::

    python -m repro.experiments NAME [--duration S] [--seed N] [--json PATH]
    python -m repro.experiments all [--duration 600] [--seed 1]
    python -m repro.experiments generated --gen-seeds 1..3 --duration 20
    python -m repro.experiments failover --engine fluid   # fabric-scale leg

    python -m repro.experiments --spec scenario.json     # serialized spec
    python -m repro.experiments --spec parking_lot       # registered name
    python -m repro.experiments --list-scenarios

    # sweep a registered scenario: 8 seeds x 2 durations on 4 workers
    python -m repro.experiments --spec table1 \\
        --sweep-seeds 1..8 --sweep-over duration=20,40 --workers 4

    # generated scenarios: seeded random topologies with invariants on
    python -m repro.experiments --spec gen:random-graph --gen-seed 7
    python -m repro.experiments --spec table1 --validate   # opt any spec in

    # engine seam: run any spec on the flow-level fluid model
    python -m repro.experiments --spec gen:fat-tree --engine fluid

``NAME`` is a key of :data:`EXPERIMENTS`, the one table every named
experiment dispatches from: the module it runs, the flags its ``run()``
takes and its ``--json`` payload.  Unset flags fall back to the
experiment's own defaults (600 s; ``scale`` sizes its own 60 s).
``--workers N`` fans per-discipline simulations out over N processes.
``--json PATH`` writes ``{"experiments": {name: payload}}``: the
``ScenarioResult.to_dict()`` behind table1, table2, table3, distributions
and parkinglot; the result's own ``to_dict()`` — rows plus run-level
values — for generated, failover and scale; the report of fig1 and the
phase record of dynamics.

``--spec`` runs one declarative :class:`~repro.scenario.ScenarioSpec`
loaded from a JSON file (``ScenarioSpec.to_dict`` payload) or built from
the scenario registry, prints a generic per-flow / per-link report and
writes its ``ScenarioResult.to_dict()`` payload.

``--sweep-seeds`` / ``--sweep-over`` / ``--budget-seconds`` turn a
``--spec`` run into a sweep executed by the
:class:`~repro.scenario.SweepExecutor`: seeds are a comma list or an
inclusive ``lo..hi`` range, each (repeatable) ``--sweep-over`` flag is
``field=v1,v2,...`` and the fields cross-multiply, and the optional
budget bounds every run's wall clock.  Progress streams one line per
finished run; ``--json`` then writes the full ``SweepOutcome`` payload
(statuses included).  A run whose worker process died is reported
``worker_lost`` and makes the exit code non-zero.

``gen:`` scenario names (``gen:random-graph``, ``gen:scale-free``,
``gen:wan-path``, ``gen:access-core``, ``gen:wan-guaranteed``,
``gen:outage``) resolve
through :mod:`repro.scenario.generators`: ``--gen-seed`` selects the
sampled topology/population, and the generated spec runs with the
:mod:`repro.validate` invariant checks on.  ``--validate`` opts *any*
``--spec`` run into the same checks; ``generated`` runs the
random-graph flagship across ``--gen-seeds`` topologies.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from typing import Any, Callable, NamedTuple, Tuple

from repro.experiments.common import render_scenario_result
from repro.scenario import (
    IncompleteSweepError,
    ScenarioRunner,
    ScenarioSpec,
    SweepExecutor,
    registry,
)
from repro.scenario.paper import PAPER_DURATION_SECONDS


class Experiment(NamedTuple):
    """One CLI experiment: ``repro.experiments.<module>.run`` (imported
    on dispatch), the flags it takes as keywords, its ``--json`` payload."""

    module: str
    args: Tuple[str, ...]
    payload: Callable[[Any], dict]


def _scenario_payload(result) -> dict:
    return result.scenario.to_dict()


def _own_payload(result) -> dict:
    return result.to_dict()


_FANNED = ("duration", "seed", "workers")

#: Every named experiment, in ``all`` order.
EXPERIMENTS = {
    "fig1": Experiment("topology", (), _own_payload),
    "table1": Experiment("table1", _FANNED, _scenario_payload),
    "table2": Experiment("table2", _FANNED, _scenario_payload),
    "table3": Experiment("table3", ("duration", "seed"), _scenario_payload),
    "dynamics": Experiment("dynamics", ("phase_seconds", "seed"), _own_payload),
    "distributions": Experiment("distributions", _FANNED, _scenario_payload),
    "parkinglot": Experiment("parkinglot", _FANNED, _scenario_payload),
    "generated": Experiment("generated", _FANNED + ("gen_seeds",), _own_payload),
    "failover": Experiment("failover", ("duration", "seed", "engine"), _own_payload),
    "scale": Experiment("scale", ("duration", "seed"), _own_payload),
}


def _parse_sweep_seeds(text: str) -> list:
    """``"1,2,5"`` or an inclusive ``"1..8"`` range."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty seed range {text!r}")
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",") if part.strip()]


def _parse_sweep_over(entries: list) -> list:
    """Repeated ``field=v1,v2,...`` flags -> cross-product override dicts.

    Values are parsed as JSON scalars where possible (numbers, booleans,
    null), fall back to plain strings, and are then decoded as that spec
    field's wire value, so a mistyped value fails here with a
    :class:`~repro.scenario.SpecError` naming the field.
    """
    import itertools

    fields = []
    for entry in entries:
        if "=" not in entry:
            raise ValueError(
                f"--sweep-over expects field=v1,v2,... (got {entry!r})"
            )
        field, values_text = entry.split("=", 1)
        field = field.strip()
        values = []
        for part in values_text.split(","):
            part = part.strip()
            if not part:
                continue  # "field=" or a trailing comma
            try:
                value = json.loads(part)
            except json.JSONDecodeError:
                value = part
            values.append(ScenarioSpec.decode_field(field, value))
        if not values:
            raise ValueError(f"--sweep-over {field}= names no values")
        fields.append((field, values))
    return [
        dict(zip((name for name, _ in fields), combo))
        for combo in itertools.product(*(values for _, values in fields))
    ]


def _parse_sweep_plan(spec: ScenarioSpec, args) -> tuple:
    """Resolve the --sweep-* flags into (over, seeds, total runs).

    Expands eagerly so malformed seeds/overrides fail before simulating.
    """
    from repro.scenario import expand

    seeds = _parse_sweep_seeds(args.sweep_seeds) if args.sweep_seeds else None
    over = _parse_sweep_over(args.sweep_over) if args.sweep_over else None
    return over, seeds, len(expand(spec, over=over, seeds=seeds))


def _run_sweep_cli(spec: ScenarioSpec, sweep_plan: tuple, args) -> tuple:
    """Execute the parsed sweep plan over one spec.

    Returns ``(payload, errors)``: the ``SweepOutcome`` payload plus one
    message per failure the exit code must report — invariant violations
    in a completed validated run, runs whose worker process died.
    """
    over, seeds, total = sweep_plan
    finished = [0]

    def progress(run) -> None:
        finished[0] += 1
        print(
            f"  [{finished[0]}/{total}] seed={run.spec.seed} "
            f"duration={run.spec.duration:g}s {run.status} "
            f"({run.wall_seconds:.2f}s wall)"
        )

    started = time.monotonic()
    with SweepExecutor(
        workers=args.workers, budget_seconds=args.budget_seconds
    ) as executor:
        outcome = executor.run_sweep(
            spec, over=over, seeds=seeds, on_result=progress
        )
    counts = outcome.counts
    print(
        f"[swept {spec.name}: {counts['completed']} completed, "
        f"{counts['budget_expired']} budget-expired, "
        f"{counts['stopped']} stopped, "
        f"{counts['worker_lost']} worker-lost "
        f"in {time.monotonic() - started:.1f}s]"
    )
    errors = []
    if not all(
        run.invariants is None or run.invariants_clean
        for result in outcome.results
        for run in result.runs
    ):
        errors.append("invariant violations detected")
    lost = [run.index for run in outcome.with_status("worker_lost")]
    if lost:
        errors.append(f"worker process died under runs {lost}")
    return outcome.to_dict(), errors


def _run_experiment(name: str, values: dict) -> tuple:
    """Run one named experiment: ``(result, payload)``.  ``values`` maps
    each flag to its value; unset (``None``) flags are not passed."""
    entry = EXPERIMENTS[name]
    run = importlib.import_module(f"repro.experiments.{entry.module}").run
    result = run(
        **{arg: values[arg] for arg in entry.args if values[arg] is not None}
    )
    return result, entry.payload(result)


def _load_spec(args) -> ScenarioSpec:
    """Resolve ``--spec``: a registered scenario name or a JSON file."""
    given = {
        field: value
        for field, value in (("duration", args.duration), ("seed", args.seed))
        if value is not None
    }
    if os.path.isfile(args.spec):
        with open(args.spec) as handle:
            spec = ScenarioSpec.from_dict(json.load(handle))
        overrides = given
    else:
        if args.gen_seed is not None:
            given["gen_seed"] = args.gen_seed
        spec = registry.build(args.spec, **given)
        overrides = {}
    if args.validate:
        overrides["validate"] = True
    # --engine is a plain spec-field override, applied after building so
    # it works identically for JSON files and registered names (most
    # builders don't take an engine kwarg).
    if args.engine is not None:
        overrides["engine"] = args.engine
    return spec.replace(**overrides) if overrides else spec


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the tables and figure of Clark/Shenker/Zhang "
        "SIGCOMM'92, or run any declarative scenario.",
    )
    parser.add_argument(
        "experiment", nargs="?", choices=(*EXPERIMENTS, "all")
    )
    parser.add_argument(
        "--spec",
        metavar="NAME_OR_PATH",
        default=None,
        help="run one scenario: a registered name or a ScenarioSpec JSON file",
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="print the registered scenario names and exit",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="simulated seconds (paper: 600)",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--gen-seed",
        type=int,
        default=None,
        help="with --spec gen:*: the seed the topology/population is "
        "sampled from (distinct from --seed, the traffic seed)",
    )
    parser.add_argument(
        "--gen-seeds",
        metavar="SEEDS",
        default=None,
        help="with the 'generated' experiment: generator seeds to sweep "
        "('1,2,5' or inclusive '1..20'; default 1..20)",
    )
    parser.add_argument(
        "--engine",
        choices=("packet", "fluid"),
        default=None,
        help="with --spec: override the simulation engine (the "
        "packet-level simulator or the flow-level fluid model); "
        "defaults to the spec's own engine field",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="with --spec: run the repro.validate invariant checks on "
        "every simulation (gen: scenarios enable this by themselves)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="processes for per-discipline fan-out (default: serial)",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        metavar="PATH",
        default=None,
        help="write each run's structured payload to this file",
    )
    parser.add_argument(
        "--sweep-seeds",
        metavar="SEEDS",
        default=None,
        help="with --spec: sweep these seeds ('1,2,5' or inclusive '1..8')",
    )
    parser.add_argument(
        "--sweep-over",
        metavar="FIELD=V1,V2,...",
        action="append",
        default=None,
        help="with --spec: sweep a spec field over values (repeatable; "
        "fields cross-multiply)",
    )
    parser.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help="with --spec sweeps: wall-clock budget per discipline "
        "simulation; runs with an over-budget simulation are reported "
        "budget_expired",
    )
    return parser


def _sweep_mode(args) -> bool:
    return (
        args.sweep_seeds is not None
        or args.sweep_over is not None
        or args.budget_seconds is not None
    )


def _check_flags(parser: argparse.ArgumentParser, args) -> None:
    """Reject flag combinations that do not apply (exits 2)."""
    if args.spec is not None and args.experiment is not None:
        parser.error("give either an experiment name or --spec, not both")
    if args.spec is None and args.experiment is None:
        parser.error("an experiment name or --spec is required")
    if _sweep_mode(args) and args.spec is None:
        parser.error("--sweep-seeds/--sweep-over/--budget-seconds need --spec")
    if args.gen_seeds is not None and args.experiment not in ("generated", "all"):
        parser.error("--gen-seeds applies to the 'generated' experiment")
    if args.gen_seed is not None and args.spec is None:
        parser.error(
            "--gen-seed applies to --spec gen:* scenarios (use --gen-seeds "
            "with the 'generated' experiment)"
        )
    if (
        args.engine is not None
        and args.spec is None
        and args.experiment not in ("failover", "all")
    ):
        parser.error(
            "--engine applies to --spec runs and the 'failover' experiment "
            "(other experiments pick their own engine; 'scale' is fluid by "
            "construction)"
        )
    if args.validate and args.spec is None:
        parser.error(
            "--validate applies to --spec runs (the 'generated' experiment "
            "and gen: scenarios validate by themselves)"
        )
    if args.json_path is not None:
        # Written after every run: an unwritable target fails now.
        target = os.path.dirname(os.path.abspath(args.json_path))
        if (
            os.path.isdir(args.json_path)
            or not os.path.isdir(target)
            or not os.access(target, os.W_OK)
        ):
            parser.error(
                f"--json {args.json_path}: not a file in a writable directory"
            )


def _run_spec(spec: ScenarioSpec, sweep_plan, args, payloads: dict) -> int:
    """Run (or sweep) one loaded ``--spec``; returns the exit code."""
    if sweep_plan is not None:
        payloads[spec.name], errors = _run_sweep_cli(spec, sweep_plan, args)
        for error in errors:
            print(f"error: {error}", file=sys.stderr)
        return 1 if errors else 0
    started = time.monotonic()
    try:
        result = ScenarioRunner(spec).run(workers=args.workers)
    except IncompleteSweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render_scenario_result(result))
    print(f"[{spec.name} ran in {time.monotonic() - started:.1f}s]")
    payloads[spec.name] = result.to_dict()
    if spec.validate and not all(run.invariants_clean for run in result.runs):
        print("error: invariant violations detected", file=sys.stderr)
        return 1
    return 0


def _run_experiments(args, gen_seeds, payloads: dict) -> int:
    """Run the named experiment (or ``all``); returns the exit code."""
    duration = args.duration if args.duration is not None else PAPER_DURATION_SECONDS
    values = {
        "duration": args.duration,
        "seed": args.seed,
        "workers": args.workers,
        "gen_seeds": gen_seeds or None,  # an empty list means the default
        "engine": args.engine,
        # dynamics plays the run out as three equal load phases
        "phase_seconds": duration / 3.0,
    }
    exit_code = 0
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        started = time.monotonic()
        # A dead worker fails this experiment only: the others still
        # run, and --json still carries every finished payload.
        try:
            result, payloads[name] = _run_experiment(name, values)
        except IncompleteSweepError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            exit_code = 1
            continue
        print(result.render())
        if not getattr(result, "invariants_clean", True):
            print("error: invariant violations detected", file=sys.stderr)
            exit_code = 1
        print(f"[{name} regenerated in {time.monotonic() - started:.1f}s]\n")
    return exit_code


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.list_scenarios:
        for name in registry.names():
            print(name)
        return 0
    _check_flags(parser, args)
    try:
        # The executor's own checks: a negative or fractional worker
        # count, or a negative or non-finite budget, fails before any run.
        SweepExecutor(workers=args.workers, budget_seconds=args.budget_seconds)
        gen_seeds = (
            _parse_sweep_seeds(args.gen_seeds)
            if args.gen_seeds is not None
            else None
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # Invariant violations flip the exit code but must not suppress the
    # --json payload: the per-check records are the debugging artifact.
    payloads: dict = {}
    if args.spec is None:
        exit_code = _run_experiments(args, gen_seeds, payloads)
    else:
        try:
            spec = _load_spec(args)
            # Parse and expand up front so flag mistakes surface as CLI
            # errors before any simulation starts.
            sweep_plan = _parse_sweep_plan(spec, args) if _sweep_mode(args) else None
        except (
            KeyError, ValueError, TypeError, OSError, json.JSONDecodeError
        ) as exc:
            # KeyError stringifies as the repr of its argument; unwrap it.
            message = (
                exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
            )
            print(f"error: {message}", file=sys.stderr)
            return 2
        exit_code = _run_spec(spec, sweep_plan, args, payloads)

    if args.json_path:
        with open(args.json_path, "w") as handle:
            json.dump({"experiments": payloads}, handle, indent=1)
        print(f"[structured results written to {args.json_path}]")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
