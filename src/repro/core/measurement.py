"""Per-switch measurement for admission control (Section 9).

The paper's admission heuristic consumes two measured quantities per output
port, with the "hat" denoting measurement rather than declaration:

* **nu-hat** — the measured utilization of the link due to *real-time*
  traffic (guaranteed + predicted), in bits/s.
* **d-hat_j** — the measured maximal queueing delay of each predicted
  class j at this switch.

"The key to making the predictive service commitments reliable is to choose
appropriately conservative measures": we use sliding-window estimators (a
windowed rate for nu-hat, a windowed maximum for d-hat) with an optional
multiplicative safety factor, both configurable so the admission bench can
explore the conservatism trade-off.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.net.packet import Packet, ServiceClass
from repro.net.port import OutputPort
from repro.stats.timeseries import RateMeter
from repro.stats.windowed import SlidingWindowMax


@dataclasses.dataclass(frozen=True)
class MeasurementConfig:
    """Estimator tuning.

    Attributes:
        utilization_window: trailing window (s) for the real-time bit rate.
        delay_window: trailing window (s) for per-class max delay.
        utilization_safety: multiplier applied to measured utilization
            before use in admission (>= 1 is conservative).
        delay_safety: multiplier applied to measured max delays.
    """

    utilization_window: float = 10.0
    delay_window: float = 30.0
    utilization_safety: float = 1.0
    delay_safety: float = 1.0

    def __post_init__(self):
        if self.utilization_window <= 0 or self.delay_window <= 0:
            raise ValueError("windows must be positive")
        if self.utilization_safety < 1.0 or self.delay_safety < 1.0:
            raise ValueError("safety factors must be >= 1 (conservative)")


class SwitchMeasurement:
    """Attaches to an output port and maintains nu-hat and d-hat_j.

    Wire-up is listener based: departures feed both the real-time rate
    meter (bits of guaranteed/predicted packets) and the per-class delay
    maxima (predicted packets only — guaranteed delay does not define any
    D_j, and datagram delay is uncommitted).
    """

    def __init__(self, port: OutputPort, config: MeasurementConfig | None = None):
        self.port = port
        self.config = config or MeasurementConfig()
        self._rt_bits = RateMeter(window=self.config.utilization_window)
        self._class_delay: Dict[int, SlidingWindowMax] = {}
        port.on_depart.append(self._on_depart)

    def _on_depart(self, packet: Packet, now: float, wait: float) -> None:
        if packet.service_class is not ServiceClass.DATAGRAM:
            self._rt_bits.add(now, packet.size_bits)
        if packet.service_class is ServiceClass.PREDICTED:
            tracker = self._class_delay.get(packet.priority_class)
            if tracker is None:
                tracker = SlidingWindowMax(self.config.delay_window)
                self._class_delay[packet.priority_class] = tracker
            tracker.add(now, wait)

    # ------------------------------------------------------------------
    def realtime_utilization_bps(self, now: float) -> float:
        """nu-hat: measured real-time bits/s over the trailing window,
        scaled by the configured safety factor."""
        return self._rt_bits.windowed_rate(now) * self.config.utilization_safety

    def class_delay_bound(self, priority_class: int, now: float) -> float:
        """d-hat_j: recent maximal queueing delay of class j (seconds),
        scaled by the safety factor; 0 if the class has carried nothing
        recently (an empty class has no measured delay)."""
        tracker = self._class_delay.get(priority_class)
        if tracker is None:
            return 0.0
        return tracker.max(now, default=0.0) * self.config.delay_safety

    def observed_classes(self) -> list[int]:
        return sorted(self._class_delay)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SwitchMeasurement port={self.port.name}>"
