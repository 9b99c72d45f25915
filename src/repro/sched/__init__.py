"""Packet scheduling algorithms.

One module per discipline discussed or compared in the paper:

* :mod:`repro.sched.fifo` — FIFO, the Section 5 sharing mechanism.
* :mod:`repro.sched.wfq` — packetized weighted fair queueing / PGPS
  (Section 4), the isolation mechanism with the Parekh-Gallager bound.
  PGPS order is defined once there (``PgpsScheduler``: V(t), finish-tag
  queue, tie-break, reservation rule); WFQ and the unified scheduler
  inherit it.
* :mod:`repro.sched.gps` — the fluid-flow GPS reference model used to
  validate WFQ and the bound.
* :mod:`repro.sched.fifoplus` — FIFO+ multi-hop sharing (Section 6).
* :mod:`repro.sched.priority` — strict priority classes (Section 7).
* :mod:`repro.sched.unified` — the unified CSZ scheduling algorithm
  (Section 7): the same WFQ frame around priority classes running FIFO+.
* :mod:`repro.sched.virtual_clock`, :mod:`repro.sched.round_robin`,
  :mod:`repro.sched.edf` — related-work baselines (Section 11).
* :mod:`repro.sched.nonwork` — the non-work-conserving related work
  (Stop-and-Go, Hierarchical Round Robin, Jitter-EDD; Section 11).
"""

from repro.sched.base import GuaranteedServiceUnsupported, Scheduler
from repro.sched.fifo import FifoScheduler
from repro.sched.wfq import WfqScheduler
from repro.sched.gps import GpsFluidModel
from repro.sched.fifoplus import FifoPlusScheduler, ClassDelayTracker
from repro.sched.priority import PriorityScheduler
from repro.sched.unified import UnifiedScheduler, UnifiedConfig
from repro.sched.virtual_clock import VirtualClockScheduler
from repro.sched.round_robin import RoundRobinScheduler, DeficitRoundRobinScheduler
from repro.sched.edf import EdfScheduler
from repro.sched.nonwork import (
    HrrScheduler,
    JitterEddScheduler,
    StopAndGoScheduler,
)
from repro.sched.jacobson_floyd import JacobsonFloydScheduler

__all__ = [
    "Scheduler",
    "GuaranteedServiceUnsupported",
    "FifoScheduler",
    "WfqScheduler",
    "GpsFluidModel",
    "FifoPlusScheduler",
    "ClassDelayTracker",
    "PriorityScheduler",
    "UnifiedScheduler",
    "UnifiedConfig",
    "VirtualClockScheduler",
    "RoundRobinScheduler",
    "DeficitRoundRobinScheduler",
    "EdfScheduler",
    "StopAndGoScheduler",
    "HrrScheduler",
    "JitterEddScheduler",
    "JacobsonFloydScheduler",
]
