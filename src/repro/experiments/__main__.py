"""CLI: regenerate any table/figure of the paper, or run any scenario.

Usage::

    python -m repro.experiments fig1
    python -m repro.experiments table1 [--duration 600] [--seed 1]
    python -m repro.experiments table2 [--duration 600] [--seed 1]
    python -m repro.experiments table3 [--duration 600] [--seed 1]
    python -m repro.experiments dynamics [--duration 600] [--seed 1]
    python -m repro.experiments parkinglot [--duration 600] [--seed 1]
    python -m repro.experiments failover [--duration 600] [--seed 1]
    python -m repro.experiments scale [--duration 60] [--seed 1]
    python -m repro.experiments all [--duration 600] [--seed 1]

    python -m repro.experiments --spec scenario.json     # serialized spec
    python -m repro.experiments --spec parking_lot       # registered name
    python -m repro.experiments --list-scenarios

    # sweep a registered scenario: 8 seeds x 2 durations on 4 workers
    python -m repro.experiments --spec table1 \\
        --sweep-seeds 1..8 --sweep-over duration=20,40 --workers 4

    # generated scenarios: seeded random topologies with invariants on
    python -m repro.experiments --spec gen:random-graph --gen-seed 7
    python -m repro.experiments generated --gen-seeds 1..3 --duration 20
    python -m repro.experiments --spec table1 --validate   # opt any spec in

    # engine seam: run any spec on the flow-level fluid model
    python -m repro.experiments --spec gen:fat-tree --engine fluid
    python -m repro.experiments --spec parking_lot --engine fluid

    # the failover flagship's fabric-scale leg on the fluid engine
    python -m repro.experiments failover --engine fluid

``--spec`` runs one declarative :class:`~repro.scenario.ScenarioSpec`
loaded from a JSON file (``ScenarioSpec.to_dict`` payload) or built from
the scenario registry, and prints a generic per-flow / per-link report.
``--workers N`` fans the per-discipline simulations of an experiment out
over N processes; ``--json PATH`` writes the structured
``ScenarioResult.to_dict()`` payloads alongside the rendered tables.

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
import json
import os
import sys
import time

from repro.experiments import (
    common,
    distributions,
    dynamics,
    failover,
    generated,
    parkinglot,
    scale,
    table1,
    table2,
    table3,
    topology,
)
from repro.scenario import (
    IncompleteSweepError,
    ScenarioRunner,
    ScenarioSpec,
    SweepExecutor,
    registry,
)

EXPERIMENTS = (
    "fig1",
    "table1",
    "table2",
    "table3",
    "dynamics",
    "distributions",
    "parkinglot",
    "generated",
    "failover",
    "scale",
)


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


#: Experiments whose payload is their ``ScenarioResult`` and whose
#: disciplines fan out over ``--workers``.
_SCENARIO_EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "distributions": distributions,
    "parkinglot": parkinglot,
}


def _run_experiment(name: str, args, duration: float, seed: int,
                    gen_seeds) -> tuple:
    """Run one named experiment: ``(result, payload, invariants clean)``."""
    if name in _SCENARIO_EXPERIMENTS:
        result = _SCENARIO_EXPERIMENTS[name].run(
            duration=duration, seed=seed, workers=args.workers
        )
        return result, result.scenario.to_dict(), True
    if name == "table3":
        result = table3.run(duration=duration, seed=seed)
        return result, result.scenario.to_dict(), True
    clean = True
    if name == "fig1":
        result = topology.run()
    elif name == "generated":
        result = generated.run(
            duration=duration,
            seed=seed,
            gen_seeds=gen_seeds or generated.DEFAULT_GEN_SEEDS,
            workers=args.workers,
        )
        clean = result.all_invariants_clean
    elif name == "dynamics":
        result = dynamics.run(phase_seconds=duration / 3.0, seed=seed)
    elif name == "failover":
        result = failover.run(
            duration=duration, seed=seed, engine=args.engine or "packet",
        )
        clean = all(row.invariants_clean for row in result.rows)
    else:  # scale
        # The fluid flagship sizes its own duration (60s); the 600s
        # paper default is a packet-experiment convention.
        result = scale.run(duration=args.duration, seed=seed)
        clean = result.all_invariants_clean
    return result, result.to_dict(), clean


def _load_spec(
    name_or_path: str, duration, seed, gen_seed=None, validate=False,
    engine=None,
) -> ScenarioSpec:
    """Resolve ``--spec``: a registered scenario name or a JSON file."""
    if os.path.isfile(name_or_path):
        with open(name_or_path) as handle:
            spec = ScenarioSpec.from_dict(json.load(handle))
        overrides = {}
        if duration is not None:
            overrides["duration"] = duration
        if seed is not None:
            overrides["seed"] = seed
        if validate:
            overrides["validate"] = True
    else:
        kwargs = {}
        if duration is not None:
            kwargs["duration"] = duration
        if seed is not None:
            kwargs["seed"] = seed
        if gen_seed is not None:
            kwargs["gen_seed"] = gen_seed
        spec = registry.build(name_or_path, **kwargs)
        overrides = {"validate": True} if validate else {}
    # --engine is a plain spec-field override, applied after building so
    # it works identically for JSON files and registered names (most
    # builders don't take an engine kwarg).
    if engine is not None:
        overrides["engine"] = engine
    return spec.replace(**overrides) if overrides else spec


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the tables and figure of Clark/Shenker/Zhang "
        "SIGCOMM'92, or run any declarative scenario.",
    )
    parser.add_argument(
        "experiment", nargs="?", choices=EXPERIMENTS + ("all",)
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
        help="write structured ScenarioResult payloads to this file",
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
    args = parser.parse_args(argv)

    if args.list_scenarios:
        for name in registry.names():
            print(name)
        return 0
    if args.spec is not None and args.experiment is not None:
        parser.error("give either an experiment name or --spec, not both")
    if args.spec is None and args.experiment is None:
        parser.error("an experiment name or --spec is required")
    sweep_mode = (
        args.sweep_seeds is not None
        or args.sweep_over is not None
        or args.budget_seconds is not None
    )
    if sweep_mode and args.spec is None:
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
    try:
        # The executor's own checks: a negative or fractional worker
        # count, or a negative or non-finite budget, fails before any run.
        SweepExecutor(workers=args.workers, budget_seconds=args.budget_seconds)
        gen_seed_list = (
            _parse_sweep_seeds(args.gen_seeds)
            if args.gen_seeds is not None
            else None
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # Invariant violations flip the exit code but must not suppress the
    # --json payload: the per-check records are the debugging artifact.
    exit_code = 0
    payloads: dict = {}
    if args.spec is not None:
        try:
            spec = _load_spec(
                args.spec,
                args.duration,
                args.seed,
                gen_seed=args.gen_seed,
                validate=args.validate,
                engine=args.engine,
            )
            if sweep_mode:
                # Parse and expand up front so flag mistakes surface as
                # CLI errors before any simulation starts.
                sweep_plan = _parse_sweep_plan(spec, args)
        except (
            KeyError, ValueError, TypeError, OSError, json.JSONDecodeError
        ) as exc:
            # KeyError stringifies as the repr of its argument; unwrap it.
            message = (
                exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
            )
            print(f"error: {message}", file=sys.stderr)
            return 2
        if sweep_mode:
            payloads[spec.name], errors = _run_sweep_cli(
                spec, sweep_plan, args
            )
            for error in errors:
                print(f"error: {error}", file=sys.stderr)
                exit_code = 1
        else:
            started = time.monotonic()
            try:
                result = ScenarioRunner(spec).run(workers=args.workers)
            except IncompleteSweepError as exc:
                print(f"error: {exc}", file=sys.stderr)
                exit_code = 1
            else:
                print(common.render_scenario_result(result))
                print(f"[{spec.name} ran in {time.monotonic() - started:.1f}s]")
                payloads[spec.name] = result.to_dict()
                if spec.validate and not all(
                    run.invariants_clean for run in result.runs
                ):
                    print(
                        "error: invariant violations detected",
                        file=sys.stderr,
                    )
                    exit_code = 1
    else:
        duration = (
            args.duration
            if args.duration is not None
            else common.PAPER_DURATION_SECONDS
        )
        seed = args.seed if args.seed is not None else 1
        todo = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
        for name in todo:
            started = time.monotonic()
            # A dead worker fails this experiment only: the others still
            # run, and --json still carries every finished payload.
            try:
                result, payloads[name], clean = _run_experiment(
                    name, args, duration, seed, gen_seed_list
                )
            except IncompleteSweepError as exc:
                print(f"error: {name}: {exc}", file=sys.stderr)
                exit_code = 1
                continue
            print(result.render())
            if not clean:
                print("error: invariant violations detected", file=sys.stderr)
                exit_code = 1
            print(f"[{name} regenerated in {time.monotonic() - started:.1f}s]\n")

    if args.json_path:
        with open(args.json_path, "w") as handle:
            json.dump({"experiments": payloads}, handle, indent=1)
        print(f"[structured results written to {args.json_path}]")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
