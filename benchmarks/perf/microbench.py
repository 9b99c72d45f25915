"""Engine and hot-path microbenchmarks.

Each function runs one tightly-scoped workload and returns a plain dict of
measurements (rates in operations per *wall-clock* second).  They are the
raw material for ``tools/perf_report.py``, which assembles the tracked
``BENCH_core.json`` trajectory, and for the CI perf-smoke step.

The benches deliberately depend only on stable public API so the identical
workload can be timed against older checkouts of the engine (that is how
the ``baseline`` block in ``BENCH_core.json`` was captured).  The one
accommodation is ``_schedule_handle``: engines before the fast-path split
had a single ``schedule`` that always returned a cancellable handle.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Callable, Dict

import repro
from repro.experiments import table1, table3
from repro.scenario import (
    DisciplineSpec,
    ScenarioBuilder,
    ScenarioRunner,
    ScenarioSpec,
    registry,
)
from repro.sim.engine import Simulator

# Sized so the full suite runs in roughly a minute on a laptop.
RAW_EVENTS_TOTAL = 400_000
RAW_EVENT_CHAINS = 64
TIMER_CHURN_OPS = 150_000
SCHED_DURATION_SECONDS = 8.0
SCHED_NUM_FLOWS = 10
TABLE_DURATION_SECONDS = 15.0
BATCH_DRAIN_PACKETS = 60_000
BATCH_DRAIN_BURST = 32
# A count, not a timing: the same horizon at every ``--quick`` scale.
FRAME_BUDGET_SECONDS = 6.0

SCHED_DISCIPLINES = (
    DisciplineSpec.fifo(),
    DisciplineSpec.fifoplus(),
    DisciplineSpec.wfq(equal_share_flows=SCHED_NUM_FLOWS),
    DisciplineSpec.unified(),
)


def _schedule_handle(sim: Simulator) -> Callable:
    """The cancellable-scheduling entry point, on any engine vintage."""
    return getattr(sim, "schedule_handle", None) or sim.schedule


def bench_raw_events(
    total_events: int = RAW_EVENTS_TOTAL, chains: int = RAW_EVENT_CHAINS
) -> Dict[str, float]:
    """Raw event-loop throughput: self-rescheduling callback chains.

    ``chains`` concurrent callbacks each reschedule themselves at slightly
    different periods, so the heap stays ``chains`` deep and pushes hit
    random positions — the steady-state shape of a packet simulation with
    many independent sources, minus all packet work.
    """
    sim = Simulator()
    budget = [total_events]
    schedule = sim.schedule

    def make_chain(period: float) -> Callable[[], None]:
        def fire() -> None:
            if budget[0] > 0:
                budget[0] -= 1
                schedule(period, fire)

        return fire

    for i in range(chains):
        schedule(0.0, make_chain(0.001 + i * 1e-6))
    started = time.perf_counter()
    sim.run_until_idle()
    elapsed = time.perf_counter() - started
    return {
        "events": sim.events_processed,
        "wall_seconds": elapsed,
        "events_per_sec": sim.events_processed / elapsed,
    }


def bench_timer_churn(ops: int = TIMER_CHURN_OPS) -> Dict[str, float]:
    """Cancel/re-arm churn: the retransmission-timer usage pattern.

    Every iteration cancels the previously armed timer (which never fires)
    and arms a fresh one, while a driving chain advances the clock past the
    cancelled entries so the lazy-deletion pop path is exercised too.
    """
    sim = Simulator()
    schedule = sim.schedule
    schedule_handle = _schedule_handle(sim)
    state = {"handle": None, "remaining": ops}

    def retransmit() -> None:  # pragma: no cover - always cancelled
        raise AssertionError("cancelled timer fired")

    def fire() -> None:
        handle = state["handle"]
        if handle is not None:
            handle.cancel()
        if state["remaining"] > 0:
            state["remaining"] -= 1
            state["handle"] = schedule_handle(0.0025, retransmit)
            schedule(0.001, fire)
        else:
            state["handle"] = None

    schedule(0.0, fire)
    started = time.perf_counter()
    sim.run_until_idle()
    elapsed = time.perf_counter() - started
    return {
        "ops": ops,
        "wall_seconds": elapsed,
        "churn_per_sec": ops / elapsed,
    }


def bench_scheduler_packets(
    duration: float = SCHED_DURATION_SECONDS, num_flows: int = SCHED_NUM_FLOWS
) -> Dict[str, Dict[str, float]]:
    """Per-discipline packets/sec through the Table-1 bottleneck port."""
    spec = (
        ScenarioBuilder("perf-sched")
        .single_link()
        .paper_flows(num_flows)
        .disciplines(*SCHED_DISCIPLINES)
        .duration(duration)
        .warmup(0.0)
        .seed(1)
        .build()
    )
    runner = ScenarioRunner(spec)
    out: Dict[str, Dict[str, float]] = {}
    for discipline in spec.disciplines:
        context = runner.build(discipline)
        started = time.perf_counter()
        context.run()
        elapsed = time.perf_counter() - started
        port = context.net.port_for_link("A->B")
        out[discipline.name] = {
            "packets": port.packets_out,
            "wall_seconds": elapsed,
            "packets_per_sec": port.packets_out / elapsed,
            "events_per_sec": context.sim.events_processed / elapsed,
        }
    return out


def bench_control_seam(
    duration: float = SCHED_DURATION_SECONDS, num_flows: int = SCHED_NUM_FLOWS
) -> Dict[str, float]:
    """Cost of the control-plane seam on a run where nothing ever fails.

    Times the Table-1 FIFO workload twice: once plain, once with an
    inert ``OutageSpec`` attached (one explicit outage scheduled far
    past the horizon, so the controller is built, every flow is
    tracked, and the timer is armed — but no event ever fires).  The
    tracked ``overhead_ratio`` is with/without wall clock; the seam's
    contract is that it stays ~1.0.
    """
    import dataclasses

    import repro.control  # noqa: F401  (one-time import cost off the clock)
    from repro.scenario import OutageEvent, OutageSpec

    def build(outages):
        spec = (
            ScenarioBuilder("perf-control-seam")
            .single_link()
            .paper_flows(num_flows)
            .disciplines(DisciplineSpec.fifo())
            .duration(duration)
            .warmup(0.0)
            .seed(1)
            .build()
        )
        return dataclasses.replace(spec, outages=outages)

    inert = OutageSpec(
        events=(OutageEvent(link="A->B", at=duration * 100.0, duration=1.0),)
    )
    specs = (("without", build(None)), ("with", build(inert)))
    walls = {key: [] for key, _ in specs}
    # Interleave best-of-3 so drift in machine load hits both arms alike.
    for _ in range(3):
        for key, spec in specs:
            started = time.perf_counter()
            ScenarioRunner(spec).run()
            walls[key].append(time.perf_counter() - started)
    out: Dict[str, float] = {"duration": duration}
    for key, _ in specs:
        out[f"{key}_wall_seconds"] = min(walls[key])
    out["overhead_ratio"] = out["with_wall_seconds"] / out["without_wall_seconds"]
    return out


def bench_batched_drain(
    total_packets: int = BATCH_DRAIN_PACKETS, burst: int = BATCH_DRAIN_BURST
) -> Dict[str, object]:
    """Burst-heavy FIFO link: batched vs per-packet service.

    Bursts of ``burst`` packets land on an idle megabit link with idle
    gaps between bursts — the shape the batched drain is built for
    (every packet after a burst's first is served arithmetically).  The
    per-packet arm runs the identical workload on a port built with
    ``batching=False``, so the ratio isolates front
    (a) of the engine work from the compiled core: both arms run the authoritative pure-Python engine, where an elided
    completion event is a real dispatch saved.
    """
    from repro.net.link import Link
    from repro.net.node import Node
    from repro.net.packet import Packet
    from repro.net.port import OutputPort
    from repro.sched.fifo import FifoScheduler
    from repro.sim.engine import PySimulator

    class Sink(Node):
        def receive(self, packet: Packet) -> None:
            pass

    def drive(batching: bool) -> Dict[str, float]:
        sim = PySimulator()
        link = Link(sim, "L", rate_bps=1_000_000.0)
        link.connect(Sink(sim, "sink"))
        port = OutputPort(
            sim, "P", FifoScheduler(), link, burst * 2, batching=batching
        )

        def arrival() -> None:
            now = sim.now
            for _ in range(burst):
                port.enqueue(
                    Packet(
                        flow_id="f",
                        size_bits=1000,
                        created_at=now,
                        source="s",
                        destination="d",
                    )
                )

        # 1 ms per packet on the wire; bursts every 100 ms drain in
        # ``burst`` ms, so the link idles between bursts.
        for index in range(total_packets // burst):
            sim.schedule(index * 0.1, arrival)
        started = time.perf_counter()
        sim.run_until_idle()
        elapsed = time.perf_counter() - started
        return {
            "packets": port.packets_out,
            "batched_departures": port.batched_departures,
            "wall_seconds": elapsed,
            "packets_per_sec": port.packets_out / elapsed,
        }

    batched = drive(True)
    per_packet = drive(False)
    return {
        "batched": batched,
        "per_packet": per_packet,
        "speedup": batched["packets_per_sec"] / per_packet["packets_per_sec"],
    }


def _frames_per_departure(spec: ScenarioSpec) -> Dict[str, float]:
    """Python frames entered in ``repro`` code while ``spec`` runs (every
    discipline, build excluded), per port departure.

    Counted with ``sys.setprofile``: ``call`` events whose code object
    lives under the ``repro`` package.  C calls and frames of the
    standard library are not counted, so the number is a property of how
    the packet path is layered — exactly repeatable, and the same on a
    fast and a slow host.
    """
    package_root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    ours: Dict[object, bool] = {}
    frames = 0

    def hook(frame, event, arg):
        nonlocal frames
        if event == "call":
            code = frame.f_code
            mine = ours.get(code)
            if mine is None:
                mine = ours[code] = code.co_filename.startswith(package_root)
            if mine:
                frames += 1

    departures = 0
    runner = ScenarioRunner(spec)
    for discipline in spec.disciplines:
        context = runner.build(discipline)
        sys.setprofile(hook)
        try:
            context.run()
        finally:
            sys.setprofile(None)
        departures += sum(
            port.packets_out for port in context.net.ports.values()
        )
    return {
        "frames": frames,
        "departures": departures,
        "frames_per_departure": frames / departures,
    }


def bench_frames_per_departure_table3(
    duration: float = FRAME_BUDGET_SECONDS,
) -> Dict[str, float]:
    """Frame budget of the Table-3 path: unified scheduler, admission
    measurement, edge policers, 4 hops, 2 TCPs."""
    return _frames_per_departure(
        registry.build("table3", duration=duration, seed=1)
    )


def bench_frames_per_departure_single_link(
    duration: float = FRAME_BUDGET_SECONDS, num_flows: int = SCHED_NUM_FLOWS
) -> Dict[str, float]:
    """Frame budget of the Table-1 bottleneck under FIFO, FIFO+ and WFQ
    (the batched-drain path; no admission, no forwarding)."""
    return _frames_per_departure(
        ScenarioBuilder("perf-frames-single-link")
        .single_link()
        .paper_flows(num_flows)
        .disciplines(
            DisciplineSpec.fifo(),
            DisciplineSpec.fifoplus(),
            DisciplineSpec.wfq(equal_share_flows=num_flows),
        )
        .duration(duration)
        .seed(1)
        .build()
    )


def bench_table1(duration: float = TABLE_DURATION_SECONDS) -> Dict[str, float]:
    """Wall clock of a shortened Table-1 experiment (two full simulations)."""
    started = time.perf_counter()
    table1.run(duration=duration, seed=1)
    elapsed = time.perf_counter() - started
    return {"duration": duration, "wall_seconds": elapsed}


def bench_table3(duration: float = TABLE_DURATION_SECONDS) -> Dict[str, float]:
    """Wall clock of a shortened Table-3 experiment (unified + admission)."""
    started = time.perf_counter()
    table3.run(duration=duration, seed=1)
    elapsed = time.perf_counter() - started
    return {"duration": duration, "wall_seconds": elapsed}


def run_all(scale: float = 1.0) -> Dict[str, object]:
    """Run every microbench, optionally scaled down (``scale < 1``) for CI.

    Returns the nested measurement dict that ``tools/perf_report.py``
    embeds as the ``current`` block of ``BENCH_core.json``.
    """
    scale = max(scale, 0.01)
    return {
        "raw_events": bench_raw_events(
            total_events=max(int(RAW_EVENTS_TOTAL * scale), 1000)
        ),
        "timer_churn": bench_timer_churn(
            ops=max(int(TIMER_CHURN_OPS * scale), 1000)
        ),
        "scheduler_packets": bench_scheduler_packets(
            duration=max(SCHED_DURATION_SECONDS * scale, 0.5)
        ),
        "control_seam": bench_control_seam(
            duration=max(SCHED_DURATION_SECONDS * scale, 0.5)
        ),
        "batched_drain": bench_batched_drain(
            total_packets=max(int(BATCH_DRAIN_PACKETS * scale), 1024)
        ),
        "table1": bench_table1(
            duration=max(TABLE_DURATION_SECONDS * scale, 1.0)
        ),
        "table3": bench_table3(
            duration=max(TABLE_DURATION_SECONDS * scale, 1.0)
        ),
        "frames_per_departure_table3": bench_frames_per_departure_table3(),
        "frames_per_departure_single_link": (
            bench_frames_per_departure_single_link()
        ),
    }


def _gate(report_path: str, measured_events_per_sec: float,
          tolerance: float = 0.25) -> int:
    """CI perf gate: fail if raw events/s regressed >``tolerance`` vs the
    committed ``BENCH_core.json`` floor.  Absolute rates are noisy across
    machines, but CI compares a checkout against a report captured in the
    same container image, where a 25% drop is a real regression."""
    import json

    with open(report_path) as handle:
        committed = json.load(handle)
    floor = committed["current"]["raw_events"]["events_per_sec"]
    threshold = floor * (1.0 - tolerance)
    verdict = "ok" if measured_events_per_sec >= threshold else "REGRESSION"
    print(
        f"perf gate: measured {measured_events_per_sec:,.0f} events/s vs "
        f"committed floor {floor:,.0f} (threshold {threshold:,.0f}): {verdict}"
    )
    return 0 if measured_events_per_sec >= threshold else 1


def main(argv=None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(
        description="Run the engine microbenches (optionally gating CI)."
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="run at ~1/8 scale (CI sizing)",
    )
    parser.add_argument(
        "--gate", metavar="BENCH_CORE_JSON", default=None,
        help="compare raw events/s against the committed report and exit "
        "non-zero on a >25%% regression",
    )
    args = parser.parse_args(argv)
    scale = 0.125 if args.quick else 1.0
    if args.gate is not None:
        # The gate only needs the raw event loop — keep the CI step fast.
        measured = bench_raw_events(
            total_events=max(int(RAW_EVENTS_TOTAL * scale), 1000)
        )
        return _gate(args.gate, measured["events_per_sec"])
    print(json.dumps(run_all(scale=scale), indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
