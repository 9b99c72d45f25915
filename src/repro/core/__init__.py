"""The paper's architecture: bounds, measurement-based admission control,
signaling, and playback applications.

This is the layer that turns the scheduling *mechanism* (:mod:`repro.sched`)
into the ISPN *architecture* of Sections 3, 8, and 9.  The Section 8
service interface itself is the scenario's request types
(:class:`~repro.scenario.GuaranteedRequest`,
:class:`~repro.scenario.PredictedRequest`), which signaling takes as they
are.
"""

from repro.core.bounds import (
    parekh_gallager_fluid_bound,
    parekh_gallager_packet_bound,
    predicted_path_bound,
)
from repro.core.measurement import SwitchMeasurement, MeasurementConfig
from repro.core.admission import AdmissionController, AdmissionConfig, AdmissionDecision
from repro.core.signaling import SignalingAgent, FlowEstablishmentError
from repro.core.playback import (
    PlaybackApplication,
    RigidPlayback,
    AdaptivePlayback,
    PlaybackStats,
)
from repro.core.pricing import Tariff, UsageMeter, Invoice
from repro.core.taxonomy import (
    Adaptivity,
    Tolerance,
    Recommendation,
    classify_client,
    recommend_service,
)

__all__ = [
    "parekh_gallager_fluid_bound",
    "parekh_gallager_packet_bound",
    "predicted_path_bound",
    "SwitchMeasurement",
    "MeasurementConfig",
    "AdmissionController",
    "AdmissionConfig",
    "AdmissionDecision",
    "SignalingAgent",
    "FlowEstablishmentError",
    "PlaybackApplication",
    "RigidPlayback",
    "AdaptivePlayback",
    "PlaybackStats",
    "Tariff",
    "UsageMeter",
    "Invoice",
    "Adaptivity",
    "Tolerance",
    "Recommendation",
    "classify_client",
    "recommend_service",
]
