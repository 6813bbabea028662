"""Experiment configuration: one JSON document that pins a whole run.

Everything the CLI does is derived from an ExperimentConfig; in sim mode
the (config, seed) pair fully determines the output bytes. parse(serialize)
is the identity, which the verify suite checks.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

from .arch.common import OP_KINDS, SCHEMES, ExecCosts, RingConfig
from .arch.pool import EXEC_MODES, POLICIES, THREADING_MODES
from .arch.pool import ControllerConfig
from .device import DeviceConfig, PollConfig

ARCHITECTURES = ("shared_nothing", "direct_access", "static_pool",
                 "dynamic_pool")
BACKENDS = ("sim", "native")


class ConfigInvalid(Exception):
    """Carries the dotted path of the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass
class ArchitectureConfig:
    kind: str = "static_pool"
    n_workers: int = 4
    m_instances: int = 2            # direct access
    k_instances: int = 2            # pools
    exec_mode: str = "io_threads"
    dispatch_policy: str = "round_robin"
    inbox_capacity: int = 1024
    instance_threading: str = "single_thread"
    ring: RingConfig = field(default_factory=RingConfig)
    costs: ExecCosts = field(default_factory=ExecCosts)
    controller: ControllerConfig = field(default_factory=ControllerConfig)


@dataclass
class WorkloadConfig:
    kind: str = "requests"          # requests | tasks | arrivals
    op_count: int = 1_000_000       # 1M ops per run
    op_kind: str = "seq_read"
    block_size: int = 4096
    queue_depth: int = 32
    callback_cost_ns: int = 0
    task_count: int = 200           # tasks kind
    task_max_steps: int = 16
    corpus_path: str = ""           # optional pre-generated corpus
    phases: list = field(default_factory=list)  # arrivals: [[ns, ops/s], ..]


@dataclass
class NativeConfig:
    path: str = ""
    direct_io: bool = True
    sq_poll: bool = False
    io_poll: bool = False
    ring_entries: int = 256


@dataclass
class ExperimentConfig:
    backend: str = "sim"
    device: DeviceConfig = field(default_factory=DeviceConfig)
    native: NativeConfig = field(default_factory=NativeConfig)
    architecture: ArchitectureConfig = field(default_factory=ArchitectureConfig)
    scheme: str = "full"
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    runs: int = 1
    seed: int = 42
    mode: str = "virtual"


_NESTED = {
    "device": DeviceConfig,
    "native": NativeConfig,
    "architecture": ArchitectureConfig,
    "workload": WorkloadConfig,
    "ring": RingConfig,
    "costs": ExecCosts,
    "controller": ControllerConfig,
    "poll": PollConfig,
}


def to_dict(cfg: ExperimentConfig) -> dict:
    return asdict(cfg)


def _build(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigInvalid(path or "<root>", f"expected an object, got "
                            f"{type(data).__name__}")
    known = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigInvalid(f"{path}.{key}" if path else key,
                                "unknown field")
        sub = _NESTED.get(key)
        if sub is not None:
            kwargs[key] = _build(sub, value, f"{path}.{key}" if path else key)
        else:
            kwargs[key] = value
    return cls(**kwargs)


def from_dict(data: dict) -> ExperimentConfig:
    cfg = _build(ExperimentConfig, data, "")
    validate(cfg)
    return cfg


def serialize(cfg: ExperimentConfig) -> str:
    return json.dumps(to_dict(cfg), indent=2, sort_keys=False) + "\n"


def parse(text: str) -> ExperimentConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid("<json>", str(exc)) from None
    return from_dict(data)


def load(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _check(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigInvalid(path, message)


def _validated(section, path: str, *args) -> None:
    """Raise a section's ``validate`` error at its field's dotted path."""
    try:
        section.validate(*args)
    except ValueError as exc:
        name, _, rule = str(exc).partition(" ")
        raise ConfigInvalid(f"{path}.{name}", rule) from None


def validate(cfg: ExperimentConfig) -> None:
    _check(cfg.backend in BACKENDS, "backend", f"must be one of {BACKENDS}")
    _check(cfg.scheme in SCHEMES, "scheme", f"must be one of {SCHEMES}")
    _check(cfg.mode in ("virtual", "wall"), "mode", "virtual or wall")
    _check(cfg.runs >= 1, "runs", "must be >= 1")
    _validated(cfg.device, "device")
    a = cfg.architecture
    _check(a.kind in ARCHITECTURES, "architecture.kind",
           f"must be one of {ARCHITECTURES}")
    _check(a.n_workers >= 1, "architecture.n_workers", "must be >= 1")
    _check(a.m_instances >= 1, "architecture.m_instances", "must be >= 1")
    _check(a.k_instances >= 1, "architecture.k_instances", "must be >= 1")
    _check(a.exec_mode in EXEC_MODES, "architecture.exec_mode",
           f"must be one of {EXEC_MODES}")
    _check(a.dispatch_policy in POLICIES, "architecture.dispatch_policy",
           f"must be one of {POLICIES}")
    _check(a.instance_threading in THREADING_MODES,
           "architecture.instance_threading",
           f"must be one of {THREADING_MODES}")
    _check(a.inbox_capacity >= 1, "architecture.inbox_capacity", ">= 1")
    _validated(a.ring, "architecture.ring")
    _validated(a.costs, "architecture.costs")
    # only the dynamic pool runs the controller over its k instances
    _validated(a.controller, "architecture.controller",
               a.k_instances if a.kind == "dynamic_pool" else None)
    w = cfg.workload
    _check(w.kind in ("requests", "tasks", "arrivals"), "workload.kind",
           "requests | tasks | arrivals")
    _check(w.op_kind in OP_KINDS, "workload.op_kind",
           f"must be one of {OP_KINDS}")
    if w.kind == "requests":
        _check(w.op_count >= 1, "workload.op_count", "must be >= 1")
        _check(w.queue_depth >= 1, "workload.queue_depth", "must be >= 1")
    if w.kind == "tasks":
        _check(w.task_count >= 1 or bool(w.corpus_path),
               "workload.task_count", "must be >= 1 (or give corpus_path)")
        _check(w.task_max_steps >= 1, "workload.task_max_steps", ">= 1")
    _check(w.block_size >= 1, "workload.block_size", "must be >= 1")
    _check(w.callback_cost_ns >= 0, "workload.callback_cost_ns", ">= 0")
    if w.kind == "arrivals":
        _check(bool(w.phases), "workload.phases",
               "arrivals need at least one [duration_ns, rate] phase")
        for i, ph in enumerate(w.phases):
            _check(isinstance(ph, (list, tuple)) and len(ph) == 2,
                   f"workload.phases[{i}]", "must be [duration_ns, rate]")
            _check(ph[0] > 0, f"workload.phases[{i}]", "duration must be > 0")
            _check(0 <= ph[1] <= 1e9, f"workload.phases[{i}]",
                   "rate must be in [0, 1e9] ops/s")
    if cfg.backend == "native":
        _check(bool(cfg.native.path), "native.path",
               "a target file or device is required")
        _check(cfg.native.ring_entries >= 1, "native.ring_entries", ">= 1")


def defaults() -> ExperimentConfig:
    return ExperimentConfig()
