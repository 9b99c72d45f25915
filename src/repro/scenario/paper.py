"""The paper's Appendix constants and canonical workload layouts.

Single source of truth for the numbers every experiment shares: 1000-bit
packets, 1 Mbit/s inter-switch links (so the delay unit — one packet
transmission time — is 1 ms), 200-packet switch buffers, on/off sources
with A = 85 packets/s, B = 5, P = 2A, an (A, 50) token bucket at each
source, and 10-minute runs.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

PACKET_BITS = 1000
LINK_RATE_BPS = 1_000_000
TX_TIME_SECONDS = PACKET_BITS / LINK_RATE_BPS  # 1 ms, the paper's delay unit
BUFFER_PACKETS = 200
AVERAGE_RATE_PPS = 85.0
MEAN_BURST_PACKETS = 5.0
BUCKET_PACKETS = 50.0
PAPER_DURATION_SECONDS = 600.0  # "10 minutes of simulated time"
#: Load of every link the paper's on/off flows share (Tables 1 and 2).
LINK_UTILIZATION = 0.835
DEFAULT_WARMUP_SECONDS = 5.0

# The Figure 1 network: Host-k on switch S-k, a chain of four links.
FIGURE1_SWITCHES = ("S-1", "S-2", "S-3", "S-4", "S-5")
FIGURE1_HOSTS = ("Host-1", "Host-2", "Host-3", "Host-4", "Host-5")

# ----------------------------------------------------------------------
# The Table 2 / Table 3 flow layout on the Figure 1 chain.
#
# 22 flows chosen so each of the four inter-switch links carries exactly
# 10: 12 one-hop, 4 two-hop, 4 three-hop, 2 four-hop (Appendix).  "Hops"
# counts inter-switch links, the paper's path length.
# ----------------------------------------------------------------------

# (name, source host, destination host, hops)
Figure1Placement = Tuple[str, str, str, int]


def _placements() -> List[Figure1Placement]:
    placements: List[Figure1Placement] = []

    def add(count: int, prefix: str, src: int, dst: int) -> None:
        hops = dst - src
        for k in range(count):
            placements.append(
                (f"{prefix}{k + 1}", f"Host-{src}", f"Host-{dst}", hops)
            )

    add(4, "a", 1, 2)  # one-hop on link 1
    add(2, "b", 2, 3)  # one-hop on link 2
    add(2, "c", 3, 4)  # one-hop on link 3
    add(4, "d", 4, 5)  # one-hop on link 4
    add(2, "e", 1, 3)  # two-hop (links 1-2)
    add(2, "f", 3, 5)  # two-hop (links 3-4)
    add(2, "g", 1, 4)  # three-hop (links 1-3)
    add(2, "h", 2, 5)  # three-hop (links 2-4)
    add(2, "i", 1, 5)  # four-hop (links 1-4)
    assert len(placements) == 22
    return placements


FIGURE1_PLACEMENTS: Tuple[Figure1Placement, ...] = tuple(_placements())


@dataclasses.dataclass(frozen=True)
class FlowPlacement:
    """One real-time flow of the Figure-1 workload."""

    name: str
    source_host: str
    dest_host: str
    hops: int  # inter-switch links traversed


def figure1_flow_placements() -> List[FlowPlacement]:
    """The 22-flow layout: each inter-switch link is shared by 10 flows."""
    return [FlowPlacement(*placement) for placement in FIGURE1_PLACEMENTS]

# Table 3's commitment assignment.  Chosen so that every link carries
# exactly 2 Guaranteed-Peak, 1 Guaranteed-Average, 3 Predicted-High, and
# 4 Predicted-Low flows — the per-link census the paper states — and so
# that the sampled (type, path length) combinations of Table 3 all exist:
# Peak/4, Peak/2, Avg/3, Avg/1, High/4, High/2, Low/3, Low/1.
GUARANTEED_PEAK_FLOWS = ("e1", "f1", "i1")
GUARANTEED_AVERAGE_FLOWS = ("g1", "d1")
PREDICTED_HIGH_FLOWS = ("i2", "e2", "f2", "a1", "b1", "c1", "d2")
PREDICTED_LOW_FLOWS = ("a2", "a3", "a4", "b2", "c2", "d3", "d4", "g2", "h1", "h2")

# The Table 3 sample rows, exactly as the paper lists them.
TABLE3_SAMPLES: Tuple[Tuple[str, str, int], ...] = (
    ("Peak", "i1", 4),
    ("Peak", "e1", 2),
    ("Average", "g1", 3),
    ("Average", "d1", 1),
    ("High", "i2", 4),
    ("High", "e2", 2),
    ("Low", "h1", 3),
    ("Low", "a2", 1),
)


def in_tx_units(seconds: float) -> float:
    """Convert seconds to the paper's unit (packet transmission times)."""
    return seconds / TX_TIME_SECONDS
