"""Experiment configuration: one JSON document that pins a whole run.

Everything the CLI does is derived from an ExperimentConfig; in sim mode
the (config, seed) pair fully determines the output bytes. parse(serialize)
is the identity, which the verify suite checks.
"""

from __future__ import annotations

import json
from dataclasses import (MISSING, asdict, dataclass, field, fields,
                         is_dataclass)

from .arch.common import (SCHEMES, ArrivalWorkload, ExecCosts, RequestWorkload,
                          RingConfig, TaskWorkload)
from .arch.driver import check_sizes
from .arch.pool import EXEC_MODES, POLICIES, THREADING_MODES, ControllerConfig
from .device import DeviceConfig
from .tasks import generate_corpus, read_corpus

ARCHITECTURES = ("shared_nothing", "direct_access", "static_pool",
                 "dynamic_pool")
BACKENDS = ("sim", "native")
# workload.op_kind's names: checked, then ignored (every request reads a block)
OP_KINDS = ("seq_read", "rand_read", "write_mix", "nop")


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


def to_dict(cfg: ExperimentConfig) -> dict:
    return asdict(cfg)


def _fits(value, kind: type) -> bool:
    """Whether a leaf value has its field's type: a float field also takes
    an int, and only a bool field takes a bool."""
    if kind is bool or isinstance(value, bool):
        return type(value) is kind
    return isinstance(value, (int, float) if kind is float else kind)


def _build(cls, data: dict, path: str):
    """``cls`` from ``data``; a field whose default is a dataclass is a
    section, built the same way."""
    if not isinstance(data, dict):
        raise ConfigInvalid(path or "<root>", f"expected an object, got "
                            f"{type(data).__name__}")
    known = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in known:
            raise ConfigInvalid(where, "unknown field")
        f = known[key]
        kind = type(f.default_factory() if f.default is MISSING
                    else f.default)
        if is_dataclass(kind):
            kwargs[key] = _build(kind, value, where)
            continue
        if not _fits(value, kind):
            raise ConfigInvalid(where, f"must be {kind.__name__}, got "
                                f"{type(value).__name__}")
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


def _validated(check, path: str) -> None:
    """Raise a ``check()`` error naming a field at its dotted path."""
    try:
        check()
    except ValueError as exc:
        name, _, rule = str(exc).partition(" ")
        raise ConfigInvalid(f"{path}.{name}", rule) from None


def build_workload(cfg: ExperimentConfig, seed: int):
    w = cfg.workload
    if w.kind == "requests":
        return RequestWorkload(op_count=w.op_count,
                               queue_depth=w.queue_depth,
                               callback_cost_ns=w.callback_cost_ns)
    if w.kind == "tasks":
        if w.corpus_path:
            specs = read_corpus(w.corpus_path)
        else:
            specs = generate_corpus(seed, w.task_count,
                                    max_steps=w.task_max_steps)
        return TaskWorkload(specs=specs)
    if w.kind == "arrivals":
        return ArrivalWorkload(phases=[tuple(p) for p in w.phases])
    raise ConfigInvalid("workload.kind", f"unknown kind {w.kind!r}")


def validate(cfg: ExperimentConfig) -> None:
    """The config's own rules; the rest are the runners' and the
    workloads' own checks, raised at the field's dotted path."""
    _check(cfg.backend in BACKENDS, "backend", f"must be one of {BACKENDS}")
    _check(cfg.scheme in SCHEMES, "scheme", f"must be one of {SCHEMES}")
    _check(cfg.mode in ("virtual", "wall"), "mode", "virtual or wall")
    _check(cfg.runs >= 1, "runs", "must be >= 1")
    _validated(cfg.device.validate, "device")
    a = cfg.architecture
    _check(a.kind in ARCHITECTURES, "architecture.kind",
           f"must be one of {ARCHITECTURES}")
    _validated(lambda: check_sizes(
        n_workers=a.n_workers, m_instances=a.m_instances,
        k_instances=a.k_instances, inbox_capacity=a.inbox_capacity),
        "architecture")
    _check(a.exec_mode in EXEC_MODES, "architecture.exec_mode",
           f"must be one of {EXEC_MODES}")
    _check(a.dispatch_policy in POLICIES, "architecture.dispatch_policy",
           f"must be one of {POLICIES}")
    _check(a.instance_threading in THREADING_MODES,
           "architecture.instance_threading",
           f"must be one of {THREADING_MODES}")
    _validated(a.ring.validate, "architecture.ring")
    _validated(a.costs.validate, "architecture.costs")
    # only the dynamic pool runs the controller over its k instances
    _validated(lambda: a.controller.validate(
        a.k_instances if a.kind == "dynamic_pool" else None),
        "architecture.controller")
    w = cfg.workload
    _check(w.kind in ("requests", "tasks", "arrivals"), "workload.kind",
           "requests | tasks | arrivals")
    _check(w.op_kind in OP_KINDS, "workload.op_kind",
           f"must be one of {OP_KINDS}")
    for i, ph in enumerate(w.phases):
        _check(isinstance(ph, (list, tuple)) and len(ph) == 2
               and all(_fits(x, float) for x in ph), f"workload.phases[{i}]",
               "must be [duration_ns, rate], two numbers")
    if w.kind == "tasks":
        _check(w.task_count >= 1 or bool(w.corpus_path),
               "workload.task_count", "must be >= 1 (or give corpus_path)")
        _check(w.task_max_steps >= 1, "workload.task_max_steps", ">= 1")
    else:
        _validated(lambda: build_workload(cfg, cfg.seed), "workload")
    if cfg.backend == "native":
        _check(bool(cfg.native.path), "native.path",
               "a target file or device is required")
        _check(cfg.native.ring_entries >= 1, "native.ring_entries", ">= 1")


def defaults() -> ExperimentConfig:
    return ExperimentConfig()
