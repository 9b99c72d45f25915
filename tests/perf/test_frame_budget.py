"""A frame budget for the packet hot path.

Python frames entered in ``repro`` code per port departure, counted with
``sys.setprofile`` (see ``benchmarks/perf/microbench.py``) — a count, not
a timing, so it repeats exactly on any host.  The ceilings are the values
measured when the forwarding table, the flow-policer table and the
single-frame layer steps landed (pure-Python engine: 31.3 on ``table3``,
22.5 on the single-link trio), plus 10 %.  The tree before that change
sits at 45.7 and 31.2.  Measured now: 31.34 on ``table3`` (one frame per
departure fewer since link accounting moved from a runner listener onto
the port's ledger; 32.34 before) and 22.82 on the single-link trio.

If this fails, somebody re-layered the per-packet path: a new wrapper,
property or listener runs for every packet.  Hang per-packet hooks on the
``on_enqueue`` / ``on_depart`` / ``on_drop`` lists (free when empty) or
resolve the decision at flow set-up (see "Packet hot path" in the README)
— or, if the extra frames buy something, re-freeze the ceiling in the
same PR and say what they bought.
"""

import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT))

from benchmarks.perf import microbench  # noqa: E402

TABLE3_CEILING = 34.5
SINGLE_LINK_CEILING = 24.8


def test_table3_frames_per_departure():
    cell = microbench.bench_frames_per_departure_table3()
    assert cell["departures"] > 20_000
    assert cell["frames_per_departure"] <= TABLE3_CEILING, cell


def test_single_link_frames_per_departure():
    cell = microbench.bench_frames_per_departure_single_link()
    assert cell["departures"] > 10_000
    assert cell["frames_per_departure"] <= SINGLE_LINK_CEILING, cell


def test_the_count_repeats_exactly():
    first = microbench.bench_frames_per_departure_single_link(duration=1.0)
    second = microbench.bench_frames_per_departure_single_link(duration=1.0)
    assert first == second
