"""The explicit guaranteed-install capability interface.

The ROADMAP flagged a rate-vs-slots mixup: the signaling layer used to
duck-type ``install_guaranteed_flow`` / ``register_flow``, and slot-based
schedulers (HRR) interpret ``register_flow``'s second argument as slots per
frame, silently accepting a bits/s value.  ``Scheduler.install_guaranteed``
makes the capability explicit: rate-capable disciplines implement it,
everything else refuses loudly.
"""

import pytest

from repro.core.signaling import FlowEstablishmentError, install_clock_rate
from repro.net.link import Link
from repro.net.port import OutputPort
from repro.sched.base import GuaranteedServiceUnsupported
from repro.sched.fifo import FifoScheduler
from repro.sched.fifoplus import FifoPlusScheduler
from repro.sched.nonwork import HrrScheduler, StopAndGoScheduler
from repro.sched.unified import UnifiedConfig, UnifiedScheduler
from repro.sched.virtual_clock import VirtualClockScheduler
from repro.sched.wfq import WfqScheduler
from repro.sim.engine import Simulator

RATE = 100_000.0


class TestRateCapableSchedulers:
    def test_wfq_installs_clock_rate(self):
        scheduler = WfqScheduler(capacity_bps=1e6)
        scheduler.install_guaranteed("f", RATE)
        assert scheduler.vt.is_registered("f")
        assert scheduler.vt.rate_of("f") == RATE
        assert scheduler.supports_guaranteed

    def test_virtual_clock_installs_rate(self):
        scheduler = VirtualClockScheduler()
        scheduler.install_guaranteed("f", RATE)
        assert scheduler._rates["f"] == RATE
        assert scheduler.supports_guaranteed

    def test_unified_installs_and_shrinks_pseudo_flow(self):
        scheduler = UnifiedScheduler(UnifiedConfig(capacity_bps=1e6))
        scheduler.install_guaranteed("f", RATE)
        assert scheduler.guaranteed_flows() == {"f": RATE}

    def test_invalid_rate_still_raises_value_error(self):
        scheduler = WfqScheduler(capacity_bps=1e6)
        with pytest.raises(ValueError):
            scheduler.install_guaranteed("f", -1.0)


class TestIncapableSchedulersRefuse:
    @pytest.mark.parametrize(
        "make",
        [
            lambda sim: FifoScheduler(),
            lambda sim: FifoPlusScheduler(),
            lambda sim: StopAndGoScheduler(sim, frame_seconds=0.05),
            lambda sim: HrrScheduler(sim, frame_seconds=0.05),
        ],
    )
    def test_refuses_bit_rate_install(self, sim, make):
        scheduler = make(sim)
        assert not scheduler.supports_guaranteed
        with pytest.raises(GuaranteedServiceUnsupported):
            scheduler.install_guaranteed("f", RATE)

    def test_hrr_rate_is_never_silently_slots(self, sim):
        """The exact ROADMAP mixup: installing 100 kbit/s must not create a
        100000-slot allotment."""
        scheduler = HrrScheduler(sim, frame_seconds=0.05)
        with pytest.raises(GuaranteedServiceUnsupported):
            scheduler.install_guaranteed("f", RATE)
        assert "f" not in scheduler._slots

    def test_hrr_explicit_conversion(self, sim):
        scheduler = HrrScheduler(sim, frame_seconds=0.05)
        # 100 kbit/s of 1000-bit packets = 100 pkt/s = 5 packets per 50 ms
        # frame.
        slots = scheduler.slots_for_rate(RATE, packet_size_bits=1000)
        assert slots == 5
        scheduler.register_flow("f", slots)
        assert scheduler._slots["f"] == 5
        # A trickle flow still needs one slot.
        assert scheduler.slots_for_rate(10.0, packet_size_bits=1000) == 1
        with pytest.raises(ValueError):
            scheduler.slots_for_rate(-5.0, packet_size_bits=1000)
        with pytest.raises(ValueError):
            scheduler.slots_for_rate(RATE, packet_size_bits=0)


class TestSignalingUsesCapability:
    def _port(self, sim, scheduler):
        link = Link(sim, "A->B", rate_bps=1e6)
        return OutputPort(sim, "A->B", scheduler, link)

    def test_install_goes_through_capability(self, sim):
        scheduler = WfqScheduler(capacity_bps=1e6)
        port = self._port(sim, scheduler)
        install_clock_rate(port, "f", RATE)
        assert scheduler.vt.is_registered("f")

    def test_incapable_scheduler_surfaces_establishment_error(self, sim):
        port = self._port(sim, StopAndGoScheduler(sim, frame_seconds=0.05))
        with pytest.raises(FlowEstablishmentError):
            install_clock_rate(port, "f", RATE)

    def test_hrr_mixup_is_an_establishment_error(self, sim):
        """Pre-fix, this silently installed RATE as a slot count."""
        scheduler = HrrScheduler(sim, frame_seconds=0.05)
        port = self._port(sim, scheduler)
        with pytest.raises(FlowEstablishmentError):
            install_clock_rate(port, "f", RATE)
        assert "f" not in scheduler._slots
