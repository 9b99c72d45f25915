"""Dynamic-environment validation of predicted service (Sections 3 and 7).

The paper closes its evaluation admitting that "much of the novelty of our
unified scheduling algorithm is our provision for predicted service, which
can only be meaningfully tested in a dynamic environment with adaptive
clients."  This experiment supplies that environment:

* Phase A — a base population of adaptive packet-voice clients runs over
  predicted service on one bottleneck link; their play-back points settle
  at the (low) post facto delay bound.
* Phase B — a wave of extra flows is admitted mid-run.  Delays rise; the
  adaptive clients gamble on the recent past and lose for a moment (the
  Section 3 loss burst), then re-adapt upward.
* Phase C — the wave departs.  Delays fall; the clients ratchet their
  play-back points back down, recovering latency a rigid client would
  keep paying until renegotiation.

The static part of the workload is a :class:`~repro.scenario.ScenarioSpec`;
the phase orchestration uses the live :class:`~repro.scenario.ScenarioContext`
(``add_flow`` / ``remove_flow``) to admit and tear down the wave through
the real signaling machinery mid-run.

The result records, per phase: the sample client's loss rate, mean
play-back offset, and the measured post facto delay bound — enough to
verify the narrative quantitatively (losses concentrate in the transition
into Phase B; offsets track the delivered service in both directions).
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.core.playback import AdaptivePlayback
from repro.experiments.common import table
from repro.scenario import (
    DisciplineSpec,
    FlowSpec,
    PredictedRequest,
    ScenarioBuilder,
    ScenarioRunner,
    ScenarioSpec,
    paper,
)

BASE_FLOWS = 6
WAVE_FLOWS = 4
CLASS_BOUNDS = (0.15, 1.5)
TARGET_LOSS = 0.01
SAMPLE_FLOW = "base-0"  # the client whose playback point is traced


@dataclasses.dataclass
class PhaseStats:
    """One client's fortunes during one load phase."""

    name: str
    start: float
    end: float
    received: int
    late: int
    mean_offset_seconds: float

    @property
    def loss_rate(self) -> float:
        return self.late / self.received if self.received else 0.0


COLUMNS = (
    ("phase", "{0.name}".format),
    ("interval", "{0.start:.0f}-{0.end:.0f}s".format),
    ("packets", "{0.received}".format),
    ("loss", "{0.loss_rate:.2%}".format),
    ("mean offset", lambda phase: f"{phase.mean_offset_seconds * 1e3:.1f}ms"),
)


@dataclasses.dataclass
class DynamicsResult:
    phases: List[PhaseStats]
    offset_history: List[tuple]  # (time, offset) of the sample client
    adaptations: int
    duration: float
    seed: int

    def phase(self, name: str) -> PhaseStats:
        for phase in self.phases:
            if phase.name == name:
                return phase
        raise KeyError(name)

    def offset_at(self, time: float) -> float:
        """The sample client's play-back offset in force at ``time``."""
        current = self.offset_history[0][1]
        for when, offset in self.offset_history:
            if when > time:
                break
            current = offset
        return current

    def to_dict(self) -> dict:
        return {
            "phases": [dataclasses.asdict(p) for p in self.phases],
            "offset_history": [list(entry) for entry in self.offset_history],
            "adaptations": self.adaptations,
            "duration": self.duration,
            "seed": self.seed,
        }

    def render(self) -> str:
        return (
            "Dynamic adaptation — sample adaptive client under load shifts\n"
            f"{table(COLUMNS, self.phases)}\n"
            f"play-back point adaptations: {self.adaptations}  "
            f"duration: {self.duration:.0f}s  seed: {self.seed}"
        )


class _PhaseRecorder:
    """Snapshots a playback app's counters at phase boundaries."""

    def __init__(self, app: AdaptivePlayback):
        self.app = app
        self._last_received = 0
        self._last_late = 0
        self._last_offset_sum = 0.0

    def snapshot(self, name: str, start: float, end: float) -> PhaseStats:
        received = self.app.received - self._last_received
        late = self.app.late - self._last_late
        offset_sum = self.app._offset_sum - self._last_offset_sum
        self._last_received = self.app.received
        self._last_late = self.app.late
        self._last_offset_sum = self.app._offset_sum
        return PhaseStats(
            name=name,
            start=start,
            end=end,
            received=received,
            late=late,
            mean_offset_seconds=offset_sum / received if received else 0.0,
        )


def scenario_spec(phase_seconds: float = 60.0, seed: int = 1) -> ScenarioSpec:
    """The static bottleneck scenario the phases play out on.

    Flows are added through the live context (phase orchestration), so the
    spec declares topology, discipline, and admission only.
    """
    return (
        ScenarioBuilder("dynamics")
        .single_link()
        .discipline(DisciplineSpec.unified(num_predicted_classes=len(CLASS_BOUNDS)))
        .admission(realtime_quota=0.9, class_bounds_seconds=CLASS_BOUNDS)
        .duration(3 * phase_seconds)
        .seed(seed)
        .build()
    )


def _voice_flow(flow_id: str) -> FlowSpec:
    """One adaptive packet-voice flow over predicted service."""
    return FlowSpec(
        name=flow_id,
        source_host="src-host",
        dest_host="dst-host",
        request=PredictedRequest(
            token_rate_bps=paper.AVERAGE_RATE_PPS * paper.PACKET_BITS,
            bucket_depth_bits=paper.BUCKET_PACKETS * paper.PACKET_BITS,
            target_delay_seconds=CLASS_BOUNDS[1],
            target_loss_rate=TARGET_LOSS,
        ),
        record=False,
    )


def run(
    phase_seconds: float = 60.0,
    seed: int = 1,
) -> DynamicsResult:
    """Run the three-phase scenario; phases are ``phase_seconds`` each."""
    context = ScenarioRunner(scenario_spec(phase_seconds, seed)).build()
    sim = context.sim

    def playback_sink(ctx, flow):
        return AdaptivePlayback(
            ctx.sim,
            ctx.net.hosts[flow.dest_host],
            flow.name,
            target_loss=TARGET_LOSS,
            window=300,
            margin=1.1,
            initial_offset=2 * CLASS_BOUNDS[1],
            adapt_every=25,
        )

    # --- phase A population --------------------------------------------
    for i in range(BASE_FLOWS):
        flow_id = f"base-{i}"
        context.add_flow(
            _voice_flow(flow_id),
            sink_factory=playback_sink if flow_id == SAMPLE_FLOW else None,
        )
    sample_app = context.receivers[SAMPLE_FLOW]
    recorder = _PhaseRecorder(sample_app)
    phases: List[PhaseStats] = []

    # --- phase transitions ----------------------------------------------
    def enter_phase_b() -> None:
        phases.append(recorder.snapshot("A", 0.0, phase_seconds))
        for i in range(WAVE_FLOWS):
            context.add_flow(_voice_flow(f"wave-{i}"))

    def enter_phase_c() -> None:
        phases.append(
            recorder.snapshot("B", phase_seconds, 2 * phase_seconds)
        )
        for i in range(WAVE_FLOWS):
            context.remove_flow(f"wave-{i}")

    sim.schedule(phase_seconds, enter_phase_b)
    sim.schedule(2 * phase_seconds, enter_phase_c)
    duration = 3 * phase_seconds
    context.run(until=duration)
    phases.append(recorder.snapshot("C", 2 * phase_seconds, duration))

    return DynamicsResult(
        phases=phases,
        offset_history=list(sample_app.offset_history),
        adaptations=sample_app.adaptations,
        duration=duration,
        seed=seed,
    )
