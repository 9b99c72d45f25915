#!/usr/bin/env python
"""Check that a packet and a fluid run of one outage spec paired.

Usage::

    python tools/check_outage_pairing.py PACKET.json FLUID.json

Each file is a ``python -m repro.experiments --spec ... --json`` payload
of the same spec on the packet and on the fluid engine.  Both engines
replay one outage schedule, so each discipline's ``outages``,
``restores`` and ``recomputes`` must agree between the two files, and
the run must have fired at least one outage.  Exits 1 otherwise.
"""

import json
import sys

COUNTERS = ("outages", "restores", "recomputes")


def counters(path):
    """``{(scenario, discipline): (outages, restores, recomputes)}``."""
    with open(path) as handle:
        experiments = json.load(handle)["experiments"]
    return {
        (name, run["discipline"]): tuple(run["control"][c] for c in COUNTERS)
        for name, payload in experiments.items()
        for run in payload["runs"]
    }


def main(packet_path, fluid_path):
    packet, fluid = counters(packet_path), counters(fluid_path)
    failures = []
    if packet.keys() != fluid.keys():
        failures.append(f"runs differ: {sorted(packet)} vs {sorted(fluid)}")
    for key in sorted(packet.keys() & fluid.keys()):
        if packet[key] != fluid[key]:
            failures.append(f"{key}: packet {packet[key]} != fluid {fluid[key]}")
        if packet[key][0] == 0:
            failures.append(f"{key}: no outage fired")
    for key, values in sorted(packet.items()):
        print(f"{key[0]} {key[1]}: " + ", ".join(
            f"{name}={value}" for name, value in zip(COUNTERS, values)
        ))
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
