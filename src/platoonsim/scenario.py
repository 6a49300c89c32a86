"""Experiment fixtures: vehicle spawner, periodic beacon service, run assembly."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .csma import CsmaConfig, CsmaMac, MessageClock
from .frames import DATA, Frame, PRIO_SAFETY
from .kernel import Kernel, MS, Pcg64, RngStreams, SEC, SPAWN
from .radio import Medium, Position, RadioConfig
from .tsnctl import TsnCtl, WindowClock, WindowConfig, check_slot_geometry

MODE_BASELINE = "baseline"
MODE_TSNCTL = "tsnctl"

# rng stream ids: 0 = spawner geometry, 1000+vid = per-vehicle MAC/controller
SPAWNER_STREAM = 0
VEHICLE_STREAM_BASE = 1000

# [metrics] counting: every sent frame, data frames only, or every reception
COUNTING_RULES = ("frames", "data_frames", "receptions")
MAX_PAYLOAD_B = 800


class ConfigError(ValueError):
    """Invalid scenario configuration, found by `ScenarioConfig.validate` or in a
    config file; the CLI maps this to exit code 2."""


@dataclass(slots=True)
class ScenarioConfig:
    vehicle_count: int = 20
    spawn_interval_ns: int = 1 * MS
    area_length_m: float = 100.0
    message_interval_ns: int = 100 * MS
    payload_size_b: int = 800
    mode: str = MODE_TSNCTL
    sim_duration_ns: int = 10 * SEC
    seed: int = 1
    repetitions: int = 5
    window: WindowConfig = field(default_factory=WindowConfig)
    radio: RadioConfig = field(default_factory=RadioConfig)
    csma: CsmaConfig = field(default_factory=CsmaConfig)
    counting: str = field(default=COUNTING_RULES[0], metadata={"section": "metrics"})

    def validate(self) -> None:
        try:
            if self.vehicle_count < 1:
                raise ValueError("vehicle_count must be >= 1")
            if self.spawn_interval_ns <= 0 or self.message_interval_ns <= 0:
                raise ValueError("spawn and message intervals must be positive")
            if self.sim_duration_ns <= 0:
                raise ValueError("sim_duration_ns must be positive")
            if self.payload_size_b < 1:
                raise ValueError("payload_size_b must be >= 1")
            if self.payload_size_b > MAX_PAYLOAD_B:
                raise ValueError(f"payload_size_b={self.payload_size_b} exceeds the "
                                 f"{MAX_PAYLOAD_B} B ceiling")
            if self.mode not in (MODE_BASELINE, MODE_TSNCTL):
                raise ValueError(f"unknown mode {self.mode!r}")
            if self.repetitions < 1:
                raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
            if self.seed < 0:
                raise ValueError(f"seed must be >= 0, got {self.seed}")
            if not 0 <= self.area_length_m < math.inf:
                raise ValueError(f"area_length_m must be finite and >= 0, got {self.area_length_m}")
            if self.counting not in COUNTING_RULES:
                raise ValueError(f"counting must be one of {', '.join(COUNTING_RULES)}")
            self.csma.validate()
            self.radio.validate()
            self.window.validate()
            if self.mode == MODE_TSNCTL:
                check_slot_geometry(self.window, self.radio, self.payload_size_b)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


@dataclass(slots=True)
class VehicleSpec:
    vid: int
    position: Position
    spawn_at: int


def build_vehicles(cfg: ScenarioConfig, rng: Pcg64) -> list[VehicleSpec]:
    """The i-th vehicle spawns at i*spawn_interval at a uniform x in the area."""
    specs = []
    for i in range(cfg.vehicle_count):
        x = rng.uniform(0.0, cfg.area_length_m)
        specs.append(VehicleSpec(i, Position(x, 0.0), i * cfg.spawn_interval_ns))
    return specs


class ItsService:
    """Mock awareness service: one fixed-size message every interval from spawn.

    Generation is by time alone and raises no event: the k-th message is due
    at spawn_at + k * interval if that lies before the run end, and its MAC
    takes it (`take`) once the clock has reached `next_due`, so a message
    generated at t is queued at t. `generated` is the closed-form count of
    the run.
    """

    def __init__(self, spec: VehicleSpec, cfg: ScenarioConfig) -> None:
        self.vid = spec.vid
        self.size = cfg.payload_size_b
        self.interval = cfg.message_interval_ns
        self.end = cfg.sim_duration_ns
        self.generated = max(0, -((spec.spawn_at - self.end) // self.interval))
        self.seq = 0        # messages taken
        # due time of the next message; None once all are taken
        self.next_due: int | None = spec.spawn_at if self.generated else None

    def take(self) -> Frame:
        """The next message, generated at its due time."""
        due, seq = self.next_due, self.seq
        frame = Frame(DATA, self.vid, self.size, due, PRIO_SAFETY, seq)
        self.seq = seq = seq + 1
        self.next_due = due + self.interval if seq < self.generated else None
        return frame


@dataclass(slots=True)
class RunResult:
    cfg: ScenarioConfig
    medium: Medium
    specs: list[VehicleSpec]
    services: dict[int, ItsService]
    macs: dict[int, CsmaMac]
    controllers: dict[int, TsnCtl]


def run_scenario(cfg: ScenarioConfig, seed: int, *, trace: bool = False) -> RunResult:
    """Execute one seeded run to sim_duration."""
    cfg.validate()
    kernel = Kernel(trace=trace)
    medium = Medium(kernel, cfg.radio)
    streams = RngStreams(seed)
    specs = build_vehicles(cfg, streams.stream(SPAWNER_STREAM))

    services: dict[int, ItsService] = {}
    macs: dict[int, CsmaMac] = {}
    controllers: dict[int, TsnCtl] = {}

    def spawn(spec: VehicleSpec) -> None:
        rng = streams.stream(VEHICLE_STREAM_BASE + spec.vid)
        service = services[spec.vid] = ItsService(spec, cfg)
        if cfg.mode == MODE_BASELINE:
            macs[spec.vid] = CsmaMac(spec.vid, clock, cfg.csma, rng, source=service)
            medium.register(spec.vid, spec.position)
        else:
            ctl = TsnCtl(spec.vid, clock, rng, source=service)
            controllers[spec.vid] = ctl
            medium.register(spec.vid, spec.position, handler=ctl.on_frame_delivery)

    for spec in specs:
        kernel.at(spec.spawn_at, spec.vid, SPAWN, spawn, spec)
    # made after the spawns, so one spawned on a window boundary joins before
    # the window clock's event there
    clock = (WindowClock(kernel, medium, cfg.window) if cfg.mode == MODE_TSNCTL
             else MessageClock(kernel, medium))

    kernel.run_until(cfg.sim_duration_ns)
    # nothing dispatches the events pending past the end, and their bound
    # methods would tie the run's objects into cycles: dropped, a finished
    # run is freed by reference counting
    kernel.drop_pending()
    for ctl in controllers.values():
        ctl.pull(cfg.sim_duration_ns)      # what fell due since its last burst
    return RunResult(cfg, medium, specs, services, macs, controllers)
