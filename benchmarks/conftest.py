"""Benchmark-harness configuration.

Every bench runs one of the paper's design arguments — a Section 4-10
ablation or a Section 11 related-work contrast — and asserts its
direction (the tables and figures themselves are ``python -m
repro.experiments`` subcommands with shape tests in
``tests/experiments/``).  Simulated horizons are shortened from the
paper's 600 s so the whole suite completes in about half a minute.

Each bench run is a complete experiment, so benches execute exactly once
(``rounds=1``): variance across repetitions would measure the host machine,
not the reproduction.
"""

from __future__ import annotations

BENCH_DURATION = 60.0  # simulated seconds per bench run
BENCH_SEED = 1


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark and return its value."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
