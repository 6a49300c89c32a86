"""Slot-scheduled V2V intra-platoon communication simulator with a CSMA/CA baseline."""

from .csma import CsmaConfig, CsmaMac
from .frames import Frame, FrameKind
from .kernel import EventKind, Kernel, RngStreams, MS, SEC, US
from .radio import Medium, Position, RadioConfig, tx_duration
from .scenario import (
    MODE_BASELINE,
    MODE_TSNCTL,
    ScenarioConfig,
    VehicleSpec,
    build_vehicles,
    run_scenario,
)
from .tsnctl import (
    FsmEvent,
    FsmState,
    Role,
    Status,
    TsnCtl,
    WindowConfig,
    admit,
    announce_offset,
    check_schedule,
    slot_count,
)

__version__ = "0.1.0"

__all__ = [
    "CsmaConfig", "CsmaMac", "Frame", "FrameKind",
    "EventKind", "Kernel", "RngStreams", "MS", "SEC", "US",
    "Medium", "Position", "RadioConfig", "tx_duration",
    "MODE_BASELINE", "MODE_TSNCTL", "ScenarioConfig", "VehicleSpec",
    "build_vehicles", "run_scenario",
    "FsmEvent", "FsmState", "Role", "Status", "TsnCtl", "WindowConfig",
    "admit", "announce_offset", "check_schedule", "slot_count",
    "__version__",
]
