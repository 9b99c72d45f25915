"""Child side of the end-to-end benchmark: one workload in one process.

``bench.py`` launches this file in a fresh interpreter for every timed
repeat, so each measurement pays the cold start a CLI user pays.  The
job arrives as one JSON argument and the answer leaves as one JSON line
on stdout.

Wall time is attributed to layers *from outside*: ``perf_counter`` spans
around the public calls (``registry.build``, ``ScenarioRunner.build``,
``ScenarioContext.run/collect``, ``FluidSimulation(...)/run/collect``,
``SweepExecutor.run_sweep``, ``to_dict``) and counters read off public
attributes afterwards.  Nothing in ``src/`` is instrumented, so the
timed path is the path a user runs.
"""

from __future__ import annotations

import contextlib
import cProfile
import hashlib
import json
import os
import pickle
import platform
import pstats
import random
import resource
import sys
import time
import traceback

# The imports below are the measured set-up: interpreter start until a
# user could build and run a spec on either engine.
import repro  # noqa: F401
import repro.experiments  # noqa: F401  (registers table1/table3/...)
import repro.fluid.model
import repro.scenario
from repro.sim import backend_info

ENGINE_BACKEND = backend_info()
READY_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

from repro.fluid.model import FluidOptions, FluidSimulation  # noqa: E402
from repro.scenario import (  # noqa: E402
    DisciplineSpec,
    ScenarioBuilder,
    ScenarioRunner,
    SweepExecutor,
    registry,
)
from repro.scenario.spec import OutageEvent, OutageSpec  # noqa: E402
from repro.validate.invariants import guaranteed_delay_bound  # noqa: E402

#: Sizes at scale 1.0, chosen so one pass takes 1.5 to 2 s on the
#: pure-Python engine of a 2-core box: short enough that a run fits
#: eight cold launches, of which at least one dodges the host's slow
#: spells.  ``scale`` multiplies the knobs named in ``SCALED``;
#: everything else is fixed.
SIZES = {
    "packet_table3": {"duration": 25.0},
    "packet_single_link": {"duration": 80.0, "flows": 10},
    "fluid_fabric": {
        "k": 16, "num_flows": 25_000, "target_utilization": 0.6,
        "duration": 60.0,
    },
    "fluid_failover": {
        "leaves": 16, "spines": 4, "hosts_per_leaf": 16,
        "num_flows": 8_000, "target_utilization": 0.95,
        "duration": 60.0, "outages": 2,
    },
    "sweep_seeds": {"seeds": 28, "duration": 5.0, "warmup": 2.0, "flows": 10},
}
#: Scaled knob -> the smallest value it may take.  Packet horizons must
#: outlast the 5 s warm-up or nothing is recorded.  The fabrics shrink
#: in flows *and* horizon: the fluid engine's auto epoch spends the same
#: ~12M flow-advances on any population, so fewer flows alone would only
#: buy finer epochs.
SCALED = {
    "packet_table3": {"duration": 6.0},
    "packet_single_link": {"duration": 6.0},
    "fluid_fabric": {"num_flows": 2_000, "duration": 3.0},
    "fluid_failover": {"num_flows": 2_000, "duration": 6.0},
    "sweep_seeds": {"seeds": 3},
}
#: The population draw of the fabric families is pinned: another
#: ``gen_seed`` moves which links congest, and with it the run time, by
#: far more than any bound (85k flows: 0.6 s to 12.6 s in ``fluid.run_s``).
#: ``--seed`` feeds the traffic seed, which moves every flow's phases.
FABRIC_GEN_SEED = 1
#: The packet-vs-fluid twin of ``benchmarks/perf/fluidbench.py``.
CROSSOVER = dict(
    gen_seed=1, seed=1, k=4, num_flows=64, record_flows=16, ecmp=False,
    duration=20.0,
)
CROSSOVER_TOLERANCE = 0.10

PHASES = (
    "scenario.spec_build_s",
    "scenario.context_build_s",
    "sim.run_s",
    "scenario.collect_s",
    "scenario.serialize_s",
    "fluid.compile_s",
    "fluid.run_s",
    "fluid.collect_s",
    "executor.sweep_s",
)

#: cProfile self time is bucketed by ``repro.<package>``; these modules
#: also get a bucket of their own.
TRACE_PACKAGES = (
    "sim", "traffic", "net", "sched", "stats", "core", "transport",
    "control", "scenario", "fluid",
)
TRACE_MODULES = (
    "net.fabric", "scenario.datacenter", "scenario.spec", "fluid.model",
    "fluid.kernel", "fluid.control", "control.spf",
)
#: Call counts, looked up by module prefix and exact function names.
TRACE_CALLS = {
    "trace.sched.dequeue_calls": ("sched", ("dequeue",)),
    "trace.stats.add_calls": ("stats", ("add",)),
    "trace.net.fabric.path_calls": ("net.fabric", ("path",)),
    "trace.fluid.waterfill_calls": (
        "fluid", ("_waterfill", "_waterfill_pure")
    ),
}


def sizes_for(workload: str, scale: float) -> dict:
    sizes = dict(SIZES[workload])
    for knob, floor in SCALED[workload].items():
        value = max(sizes[knob] * scale, floor)
        sizes[knob] = value if knob == "duration" else int(value)
    return sizes


class Ledger:
    """One pass's spans, counters, operation tally and results."""

    def __init__(self) -> None:
        self.phases = dict.fromkeys(PHASES, 0.0)
        self.counters: dict = {}
        self.ops = 0
        self.failed = 0
        self.work = 0
        self.worker_busy_s = 0.0  # sweep only: sum of task wall clocks
        self.results: list = []  # objects with comparable_dict()
        self.pg_margins: list = []  # validated guaranteed flows only

    @contextlib.contextmanager
    def span(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] += time.perf_counter() - started

    def count(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextlib.contextmanager
    def operations(self, count: int = 1):
        """``count`` operations attempted; a raise inside fails them all,
        is reported on stderr, and the pass carries on."""
        self.ops += count
        try:
            yield
        except Exception:
            self.failed += count
            traceback.print_exc(file=sys.stderr)


# ----------------------------------------------------------------------
# Workloads: a spec builder and the engine path that runs it
# ----------------------------------------------------------------------


def _single_link_spec(name, sizes, seed):
    builder = (
        ScenarioBuilder(name)
        .single_link()
        .paper_flows(sizes["flows"])
        .disciplines(
            DisciplineSpec.fifo(),
            DisciplineSpec.fifoplus(),
            DisciplineSpec.wfq(equal_share_flows=sizes["flows"]),
        )
        .duration(sizes["duration"])
        .seed(seed)
    )
    if "warmup" in sizes:
        builder.warmup(sizes["warmup"])
    return builder.build()


def spec_packet_table3(sizes, seed):
    return registry.build("table3", duration=sizes["duration"], seed=seed)


def spec_packet_single_link(sizes, seed):
    return _single_link_spec("e2e-single-link", sizes, seed)


def spec_fluid_fabric(sizes, seed):
    return registry.build(
        "gen:fat-tree", gen_seed=FABRIC_GEN_SEED, seed=seed, k=sizes["k"],
        num_flows=sizes["num_flows"],
        target_utilization=sizes["target_utilization"],
        duration=sizes["duration"], engine="fluid",
    )


def spec_fluid_failover(sizes, seed):
    duration = sizes["duration"]
    spec = registry.build(
        "gen:leaf-spine", gen_seed=FABRIC_GEN_SEED, seed=seed,
        leaves=sizes["leaves"], spines=sizes["spines"],
        hosts_per_leaf=sizes["hosts_per_leaf"], num_flows=sizes["num_flows"],
        target_utilization=sizes["target_utilization"], duration=duration,
        engine="fluid", admission=True, with_requests=True,
    )
    # A fixed number of explicit, evenly spaced outages on seeded
    # leaf-spine links.  A sampled Poisson process draws 1 to 8 outages
    # at the issue's horizon, plan compile costs ~0.3 s for each, and
    # seeded outage times alone move ``fluid.run_s`` by 10 %.
    rng = random.Random(seed)
    fabric_links = sorted(
        name for name in spec.topology.link_names if "SP-" in name
    )
    count = sizes["outages"]
    events = tuple(
        OutageEvent(
            link=rng.choice(fabric_links),
            at=duration * (index + 0.5) / count,
            duration=duration / 36.0,
        )
        for index in range(count)
    )
    return spec.replace(outages=OutageSpec(events=events))


def spec_sweep_seeds(sizes, seed):
    # The base spec's own seed is replaced by the sweep's seed ladder.
    return _single_link_spec("e2e-sweep", sizes, 1)


def run_packet(spec, ledger: Ledger, sizes, seed, workers) -> None:
    """Each discipline of ``spec`` on the packet engine, one operation
    apiece, the way ``ScenarioRunner.run`` runs them serially."""
    for discipline in spec.disciplines:
        with ledger.operations():
            with ledger.span("scenario.context_build_s"):
                context = ScenarioRunner(spec).build(discipline)
            with ledger.span("sim.run_s"):
                context.run()
            with ledger.span("scenario.collect_s"):
                run = context.collect()
            with ledger.span("scenario.serialize_s"):
                json.dumps(run.to_dict())
            ports = list(context.net.ports.values())
            delivered = sum(flow.received for flow in run.flows)
            ledger.count("sim.events", run.events_processed)
            ledger.count("net.packets_delivered", delivered)
            ledger.count("net.packets_dropped", run.total_drops)
            ledger.count(
                "net.batched_departures",
                sum(port.batched_departures for port in ports),
            )
            ledger.count(
                "net.port_departures", sum(port.packets_out for port in ports)
            )
            ledger.work += delivered
            ledger.results.append(run)
            if run.invariants is not None:
                ledger.failed += not run.invariants_clean
                for flow in spec.flows:
                    bound = guaranteed_delay_bound(context, flow)
                    sink = context.sinks.get(flow.name)
                    if bound is not None and sink is not None and sink.recorded:
                        ledger.pg_margins.append(bound - sink.queueing.max)


def run_fluid(spec, ledger: Ledger, sizes, seed, workers) -> None:
    """The CSZ discipline of ``spec`` on the fluid engine with default
    ``FluidOptions``, as ``run_fluid_discipline`` runs it."""
    with ledger.operations():
        with ledger.span("fluid.compile_s"):
            sim = FluidSimulation(spec, spec.discipline("CSZ"))
        with ledger.span("fluid.run_s"):
            sim.run()
        with ledger.span("fluid.collect_s"):
            run = sim.collect()
        with ledger.span("scenario.serialize_s"):
            json.dumps(run.to_dict())
        ledger.count("fluid.flow_advances", run.events_processed)
        ledger.count("fluid.waterfill_exhausted", sim.waterfill_exhausted)
        flows = run.control.flows if run.control is not None else ()
        ledger.count("fluid.control.reroutes", sum(f.reroutes for f in flows))
        ledger.count(
            "fluid.control.readmissions", sum(f.readmissions for f in flows)
        )
        ledger.count(
            "fluid.control.teardowns", sum(f.torn_down for f in flows)
        )
        ledger.work += run.events_processed
        ledger.results.append(run)
        # The fabric generators validate by default, as their users do.
        ledger.failed += not run.invariants_clean


def run_sweep(spec, ledger: Ledger, sizes, seed, workers) -> None:
    """``seeds`` x 3 disciplines through one ``SweepExecutor``: executor
    construction through ``run_sweep`` return and close."""
    count = sizes["seeds"]
    seeds = list(range((seed - 1) * count + 1, seed * count + 1))
    expected = count * len(spec.disciplines)
    with ledger.operations(expected):
        with ledger.span("executor.sweep_s"):
            with SweepExecutor(
                workers=workers, track_task_bytes=True
            ) as executor:
                outcome = executor.run_sweep(spec, seeds=seeds)
                stats = dict(executor.stats)
        tasks = [task for run in outcome.runs for task in run.tasks]
        completed = [task for task in tasks if task.status == "completed"]
        ledger.failed += expected - len(completed)
        ledger.work += len(completed)
        ledger.results.extend(outcome.results)
        ledger.count("executor.tasks", len(completed))
        ledger.count("executor.base_bytes", stats["base_bytes"])
        ledger.count("executor.task_bytes", stats["task_bytes"])
        ledger.count("executor.pools_created", stats["pools_created"])
        ledger.worker_busy_s += sum(task.wall_seconds for task in tasks)
        ledger.count(
            "executor.result_bytes",
            sum(
                len(pickle.dumps(task, pickle.HIGHEST_PROTOCOL))
                for task in tasks
            ),
        )
        for task in completed:
            ledger.count("sim.events", task.result.events_processed)
            ledger.count(
                "net.packets_delivered",
                sum(flow.received for flow in task.result.flows),
            )
            ledger.count("net.packets_dropped", task.result.total_drops)


WORKLOADS = {
    "packet_table3": (spec_packet_table3, run_packet),
    "packet_single_link": (spec_packet_single_link, run_packet),
    "fluid_fabric": (spec_fluid_fabric, run_fluid),
    "fluid_failover": (spec_fluid_failover, run_fluid),
    "sweep_seeds": (spec_sweep_seeds, run_sweep),
}


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------


def run_pass(
    workload, seed, scale, workers, validate=False, profile=None
) -> dict:
    """One complete pass: kwargs in hand until the result is serialised."""
    ledger = Ledger()
    sizes = sizes_for(workload, scale)
    build_spec, run = WORKLOADS[workload]

    def whole_pass():
        with ledger.span("scenario.spec_build_s"):
            spec = build_spec(sizes, seed)
        if validate:
            spec = spec.replace(validate=True)
        run(spec, ledger, sizes, seed, workers)

    started = time.perf_counter()
    if profile is None:
        whole_pass()
    else:
        profile.runcall(whole_pass)
    wall = time.perf_counter() - started
    comparable = [result.comparable_dict() for result in ledger.results]
    blob = json.dumps(comparable, sort_keys=True).encode()
    return {
        "workload": workload,
        "scale": scale,
        "workers": workers,
        "sizes": sizes,
        "wall_s": wall,
        "work": ledger.work,
        "ops": ledger.ops,
        "failed": ledger.failed,
        "phases": ledger.phases,
        "worker_busy_s": ledger.worker_busy_s,
        "counters": ledger.counters,
        "digest": hashlib.sha256(blob).hexdigest(),
        "_comparable": comparable,
        "_pg_margins": ledger.pg_margins,
    }


def _module_of(filename: str):
    """``net.fabric`` for ``.../repro/net/fabric.py``; None outside repro."""
    _head, found, tail = filename.replace(os.sep, "/").rpartition("/repro/")
    if not found:
        return None
    return tail.rsplit(".", 1)[0].replace("/", ".").removesuffix(".__init__")


def traced_pass(workload, seed, scale, workers) -> dict:
    """The same pass under cProfile, self time bucketed by module."""
    profile = cProfile.Profile()
    result = run_pass(workload, seed, scale, workers, profile=profile)
    # {(file, line, name): (primitive calls, calls, self s, cumulative s, callers)}
    stats = pstats.Stats(profile).stats
    total = sum(entry[2] for entry in stats.values()) or 1.0
    buckets = dict.fromkeys(TRACE_PACKAGES + ("other",) + TRACE_MODULES, 0.0)
    calls = dict.fromkeys(TRACE_CALLS)
    for (filename, _line, name), entry in stats.items():
        module = _module_of(filename) or ""
        package = module.split(".")[0]
        buckets[package if package in TRACE_PACKAGES else "other"] += entry[2]
        if module in TRACE_MODULES:
            buckets[module] += entry[2]
        for metric, (prefix, names) in TRACE_CALLS.items():
            if name in names and (module + ".").startswith(prefix + "."):
                calls[metric] = (calls[metric] or 0) + entry[1]
    result["trace"] = {
        f"trace.{name}.self_share": value / total
        for name, value in buckets.items()
    }
    result["trace"].update(calls)
    return result


def verify_pass(workload, seed, scale, workers) -> dict:
    """Untimed output checks, self-contained at half the size."""
    half = scale * 0.5
    checks: dict = {}
    metrics: dict = {}
    invariants_failed = 0
    _build, run = WORKLOADS[workload]
    if run is run_packet:
        plain = run_pass(workload, seed, half, workers)
        validated = run_pass(workload, seed, half, workers, validate=True)
        stripped = []
        for data in validated["_comparable"]:
            invariants = data.pop("invariants", ())
            invariants_failed += sum(not check["ok"] for check in invariants)
            stripped.append(data)
        checks["validated_equals_unvalidated"] = (
            stripped == plain["_comparable"]
        )
        checks["no_operation_failed"] = not (
            plain["failed"] or validated["failed"]
        )
        if workload == "packet_table3":
            margin = min(validated["_pg_margins"], default=0.0)
            metrics["verify.pg_bound_margin_min"] = margin
            checks["pg_bound_holds"] = margin > 0
    elif run is run_fluid:
        # Invariants ride on the timed runs (the generators validate by
        # default); here the simulator's error against the packet engine
        # is restated beside every fluid speed.
        twin = dict(
            CROSSOVER,
            duration=max(CROSSOVER["duration"] * scale, 6.0),
        )
        fluid, packet = (
            ScenarioRunner(
                registry.build("gen:fat-tree", engine=engine, **twin)
            ).run_discipline("CSZ")
            for engine in ("fluid", "packet")
        )
        invariants_failed = sum(
            not check.ok for run in (fluid, packet) for check in run.invariants
        )
        by_name = {flow.name: flow for flow in packet.flows}
        diffs = [
            abs(flow.received - by_name[flow.name].received)
            / max(by_name[flow.name].received, 1)
            for flow in fluid.flows
            if flow.name in by_name
        ]
        rel_diff = sum(diffs) / len(diffs) if diffs else 1.0
        metrics["verify.crossover_received_rel_diff"] = rel_diff
        checks["crossover_within_tolerance"] = rel_diff <= CROSSOVER_TOLERANCE
    else:
        # The executor's contract: pooled results equal serial ones.
        pooled = run_pass(workload, seed, half, workers)
        serial = run_pass(workload, seed, half, 0)
        checks["pooled_equals_serial"] = pooled["digest"] == serial["digest"]
        checks["no_operation_failed"] = not (
            pooled["failed"] or serial["failed"]
        )
    metrics["verify.invariants_failed"] = invariants_failed
    checks["invariants_clean"] = invariants_failed == 0
    return {"workload": workload, "checks": checks, "metrics": metrics}


PASSES = {"timed": run_pass, "traced": traced_pass, "verify": verify_pass}


def environment() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    fluid_backend = FluidOptions.from_env().backend
    if fluid_backend == "auto":
        fluid_backend = "numpy" if numpy_version else "pure"
    return {
        "engine_backend": ENGINE_BACKEND["engine"],
        "fluid_backend": fluid_backend,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
    }


def main(argv) -> int:
    job = json.loads(argv[1])
    answer = {
        "setup_s": READY_AT - job["spawned_at"],
        "environment": environment(),
        "passes": [],
    }
    for entry in job["passes"]:
        result = PASSES[entry["mode"]](
            job["workload"], job["seed"], entry["scale"], entry["workers"]
        )
        result["mode"] = entry["mode"]
        answer["passes"].append(
            {k: v for k, v in result.items() if not k.startswith("_")}
        )
    answer["peak_rss_mb"] = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0
    print(json.dumps(answer))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
