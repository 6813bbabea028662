"""Task model and the three partitioning schemes.

A task is an alternating sequence of compute and I/O steps over an opaque
64-bit state, transformed only by pure functions; that purity is what
makes "same final state under every scheme and every architecture" a
bit-exact, testable property rather than a hope.

The three schemes produce the same logical execution:

* full partitioning: every compute subtask is its own tasklet; each I/O
  gets a dedicated poll tasklet that respawns itself on a miss and spawns
  the successor on success.
* callback partitioning: the poll tasklet is fused with the successor
  subtask, binding that subtask to whichever thread polled.
* coroutines: the whole task lives in one heap frame with a resume-point
  marker; it suspends at each submission and resumes only with that
  I/O's completion.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from .ring import Completion, IoRequest, OpKind

MASK64 = (1 << 64) - 1

COMPUTE_OPS = ("mix", "add", "xor")

_IO_KINDS = {"read": OpKind.READ, "write": OpKind.WRITE,
             "fsync": OpKind.FSYNC, "nop": OpKind.NOP}


@dataclass(frozen=True)
class ComputeStep:
    cost_ns: int
    op: str = "mix"
    operand: int = 0


@dataclass(frozen=True)
class IoStep:
    kind: str = "read"          # read | write | fsync | nop
    blocks: int = 1
    offset_rule: str = "stride"  # stride (task/step derived) | state


@dataclass(frozen=True)
class NestedStep:
    """A compute step that owns a whole sub-task; coroutine-only.

    Tasklet partitioners reject it: flattening a nested frame into tasklets
    would need a state stack the tasklet model deliberately does not have.
    """
    spec: "TaskSpec"


Step = Union[ComputeStep, IoStep, NestedStep]


@dataclass(frozen=True)
class TaskSpec:
    task_id: int
    steps: tuple
    initial_state: int = 0


class Geometry(NamedTuple):
    block_size: int
    capacity_bytes: int


# -- the state algebra (single source for every scheme) ------------------------


def apply_compute(state: int, op: str, operand: int) -> int:
    if op == "mix":
        state ^= (state >> 33)
        state = (state * 0xFF51AFD7ED558CCD + operand) & MASK64
    elif op == "add":
        state = (state * 6364136223846793005 + operand + 1) & MASK64
    elif op == "xor":
        state ^= operand
        state = ((state << 7) | (state >> 57)) & MASK64
    else:
        raise ValueError(f"unknown compute op {op!r}")
    return state


def run_compute(state: int, steps) -> int:
    for s in steps:
        state = apply_compute(state, s.op, s.operand)
    return state


def apply_io_result(state: int, io_index: int, status: int, nbytes: int) -> int:
    state ^= (io_index * 0x9E3779B97F4A7C15) & MASK64
    state = (state * 0xC2B2AE3D27D4EB4F + (status << 32 | (nbytes & 0xFFFFFFFF))) & MASK64
    return state


def apply_nested_result(state: int, inner_final: int) -> int:
    # folded like an I/O result on a reserved lane so the algebra stays pure
    return apply_io_result(state, 63, 0, inner_final & 0xFFFFFFFF)


def io_request_for(spec: TaskSpec, step: IoStep, io_index: int, state: int,
                   geometry: Geometry) -> IoRequest:
    """Materialize an I/O step; offsets may depend on prior-step state."""
    op = _IO_KINDS[step.kind]
    if op in (OpKind.FSYNC, OpKind.NOP):
        return IoRequest(op)
    bs, cap = geometry
    nblocks = cap // bs
    blocks = min(step.blocks, nblocks)
    span = max(1, nblocks - blocks + 1)
    if step.offset_rule == "state":
        block = state % span
    else:
        block = (spec.task_id * 1009 + io_index * 131) % span
    return IoRequest(op, offset=block * bs, length=blocks * bs)


def interpret_task(spec: TaskSpec, geometry: Geometry) -> int:
    """Independent oracle: sequential walk assuming every I/O completes OK."""
    state = spec.initial_state
    io_index = 0
    for step in spec.steps:
        if isinstance(step, ComputeStep):
            state = apply_compute(state, step.op, step.operand)
        elif isinstance(step, IoStep):
            req = io_request_for(spec, step, io_index, state, geometry)
            state = apply_io_result(state, io_index, 0, req.length)
            io_index += 1
        elif isinstance(step, NestedStep):
            inner = interpret_task(step.spec, geometry)
            state = apply_nested_result(state, inner)
        else:
            raise TypeError(f"unknown step {step!r}")
    return state


def oracle_states(specs, geometry: Geometry) -> dict:
    """task_id -> ``interpret_task``'s final state, for every spec."""
    return {s.task_id: interpret_task(s, geometry) for s in specs}


def io_count(specs) -> int:
    """The I/Os a run of the specs submits, nested sub-tasks' included."""
    return sum(io_count((step.spec,)) if isinstance(step, NestedStep)
               else isinstance(step, IoStep)
               for spec in specs for step in spec.steps)


# -- tasklets -----------------------------------------------------------------

KIND_COMPUTE = "compute"
KIND_POLL = "poll"
KIND_POLL_FUSED = "poll_fused"


class Tasklet:
    """Uninterruptible unit: runs start to finish on one thread.

    ``compute`` is the subtask (tuple of ComputeSteps) executed by this
    tasklet, ``submit_io``/``submit_index`` the request submission appended
    to its end, ``awaits_index`` the I/O a poll(-fused) tasklet checks, and
    ``next_index`` the successor tasklet position (None ends the task).
    """

    __slots__ = ("kind", "compute", "submit_io", "submit_index",
                 "awaits_index", "next_index")

    def __init__(self, kind, compute=(), submit_io=None, submit_index=None,
                 awaits_index=None, next_index=None):
        self.kind = kind
        self.compute = compute
        self.submit_io = submit_io
        self.submit_index = submit_index
        self.awaits_index = awaits_index
        self.next_index = next_index

    def compute_cost(self) -> int:
        return sum(s.cost_ns for s in self.compute)


def _subtasks(spec: TaskSpec):
    """Split steps into (compute-run, following IoStep|None) pairs."""
    runs = []
    current = []
    io_index = 0
    for step in spec.steps:
        if isinstance(step, ComputeStep):
            current.append(step)
        elif isinstance(step, IoStep):
            runs.append((tuple(current), step, io_index))
            io_index += 1
            current = []
        elif isinstance(step, NestedStep):
            raise ValueError("nested sub-tasks are coroutine-only")
        else:
            raise TypeError(f"unknown step {step!r}")
    runs.append((tuple(current), None, None))
    return runs


def partition_full(spec: TaskSpec) -> list[Tasklet]:
    """One tasklet per compute subtask plus one poll tasklet per I/O."""
    runs = _subtasks(spec)
    out = []
    for compute, io, io_index in runs:
        if io is not None:
            out.append(Tasklet(KIND_COMPUTE, compute, submit_io=io,
                               submit_index=io_index,
                               next_index=len(out) + 1))
            out.append(Tasklet(KIND_POLL, awaits_index=io_index,
                               next_index=len(out) + 1))
        elif compute or not out:
            out.append(Tasklet(KIND_COMPUTE, compute))
    out[-1].next_index = None
    return out


def partition_callback(spec: TaskSpec) -> list[Tasklet]:
    """Like full partitioning with each poll fused into its successor."""
    runs = _subtasks(spec)
    out = []
    pending_await = None
    for compute, io, io_index in runs:
        kind = KIND_COMPUTE if pending_await is None else KIND_POLL_FUSED
        out.append(Tasklet(kind, compute, submit_io=io,
                           submit_index=io_index,
                           awaits_index=pending_await,
                           next_index=len(out) + 1))
        pending_await = io_index
        if io is None:
            break
    out[-1].next_index = None
    return out


# -- coroutines ----------------------------------------------------------------

STATE_DONE = -1


class ResumeAfterDone(Exception):
    pass


class CompletionMismatch(Exception):
    pass


class SuspendedOnIo(NamedTuple):
    request: IoRequest
    io_index: int


class Done(NamedTuple):
    final_state: int


class CoroutineFrame:
    """Heap frame: args, current locals, and a resume-point marker.

    ``frame_bytes`` approximates the allocated footprint (self plus captured
    values plus any nested frame): the cache-hostility figure the runtime
    reports but sets no target for.
    """

    __slots__ = ("frame_id", "task_id", "spec", "geometry", "state_enum",
                 "locals_state", "args", "io_seq", "awaiting", "inner",
                 "frame_bytes")

    _next_id = 0

    def __init__(self, spec: TaskSpec, geometry: Geometry):
        CoroutineFrame._next_id += 1
        self.frame_id = CoroutineFrame._next_id
        self.task_id = spec.task_id
        self.spec = spec
        self.geometry = geometry
        self.state_enum = 0            # resume point: next step index
        self.locals_state = spec.initial_state
        self.args = (spec.task_id, spec.initial_state)
        self.io_seq = 0
        self.awaiting: Optional[SuspendedOnIo] = None
        self.inner: Optional[CoroutineFrame] = None
        self.frame_bytes = (sys.getsizeof(self) + sys.getsizeof(self.args)
                            + sys.getsizeof(self.locals_state)
                            + sys.getsizeof(self.state_enum))

    def upcoming_compute_cost(self) -> int:
        """Virtual cost of the segment the next successful resume executes.

        Nested frames are opaque here: with one in progress only its next
        segment is charged, and a nested step ahead ends the sum. The
        corpus generator makes no nested steps; they arrive only in a
        corpus read through ``corpus_path``, and only the coroutine scheme
        runs them.
        """
        if self.inner is not None:
            return self.inner.upcoming_compute_cost()
        cost = 0
        for idx in range(self.state_enum, len(self.spec.steps)):
            step = self.spec.steps[idx]
            if isinstance(step, ComputeStep):
                cost += step.cost_ns
            else:
                break
        return cost


def make_coroutine(spec: TaskSpec, geometry: Geometry) -> CoroutineFrame:
    return CoroutineFrame(spec, geometry)


def resume(frame: CoroutineFrame,
           completion: Optional[Completion] = None):
    """Advance a frame; returns SuspendedOnIo or Done.

    A frame awaiting an I/O resumes only with its completion: resuming
    it with none, or with the wrong request's, raises CompletionMismatch
    and changes nothing in the frame. Resuming a finished frame raises
    ResumeAfterDone.
    """
    if frame.state_enum == STATE_DONE:
        raise ResumeAfterDone(f"frame {frame.frame_id} already finished")

    if frame.inner is not None:
        result = resume(frame.inner, completion)
        if isinstance(result, SuspendedOnIo):
            return result
        frame.locals_state = apply_nested_result(frame.locals_state,
                                                 result.final_state)
        frame.inner = None
        completion = None

    elif frame.awaiting is not None:
        if completion is None:
            raise CompletionMismatch(
                f"frame {frame.frame_id} awaits a completion")
        expect = frame.awaiting.request.request_id
        if expect is not None and completion.request_id != expect:
            raise CompletionMismatch(
                f"expected completion for {expect}, got "
                f"{completion.request_id}")
        frame.locals_state = apply_io_result(
            frame.locals_state, frame.awaiting.io_index,
            int(completion.status), completion.value)
        frame.awaiting = None
    elif completion is not None:
        raise CompletionMismatch("no I/O pending on this frame")

    steps = frame.spec.steps
    idx = frame.state_enum
    while idx < len(steps):
        step = steps[idx]
        if isinstance(step, ComputeStep):
            frame.locals_state = apply_compute(frame.locals_state, step.op,
                                               step.operand)
            idx += 1
        elif isinstance(step, IoStep):
            req = io_request_for(frame.spec, step, frame.io_seq,
                                 frame.locals_state, frame.geometry)
            frame.awaiting = SuspendedOnIo(req, frame.io_seq)
            frame.io_seq += 1
            frame.state_enum = idx + 1
            return frame.awaiting
        else:  # NestedStep
            frame.inner = make_coroutine(step.spec, frame.geometry)
            frame.frame_bytes += frame.inner.frame_bytes
            frame.state_enum = idx + 1
            inner_result = resume(frame.inner)
            if isinstance(inner_result, SuspendedOnIo):
                return inner_result
            frame.locals_state = apply_nested_result(
                frame.locals_state, inner_result.final_state)
            frame.inner = None
            idx += 1
    frame.state_enum = STATE_DONE
    return Done(frame.locals_state)


# -- corpus generation and persistence -------------------------------------------


def generate_corpus(seed: int, count: int, max_steps: int = 16,
                    compute_cost_range=(200, 4000),
                    max_blocks: int = 4) -> list[TaskSpec]:
    """Seeded random task corpus; alternates compute and I/O organically."""
    rng = random.Random(seed)
    specs = []
    for task_id in range(count):
        n = rng.randint(1, max_steps)
        steps = []
        for _ in range(n):
            if rng.random() < 0.5:
                steps.append(ComputeStep(
                    cost_ns=rng.randint(*compute_cost_range),
                    op=rng.choice(COMPUTE_OPS),
                    operand=rng.getrandbits(32)))
            else:
                kind = rng.choice(("read", "read", "write", "fsync", "nop"))
                steps.append(IoStep(
                    kind=kind,
                    blocks=rng.randint(1, max_blocks) if kind in ("read", "write") else 1,
                    offset_rule=rng.choice(("stride", "state"))))
        specs.append(TaskSpec(task_id=task_id, steps=tuple(steps),
                              initial_state=rng.getrandbits(64)))
    return specs


def _step_to_dict(step) -> dict:
    if isinstance(step, ComputeStep):
        return {"t": "c", "cost": step.cost_ns, "op": step.op,
                "x": step.operand}
    if isinstance(step, IoStep):
        return {"t": "io", "kind": step.kind, "blocks": step.blocks,
                "rule": step.offset_rule}
    if isinstance(step, NestedStep):
        return {"t": "sub", "spec": _spec_to_dict(step.spec)}
    raise TypeError(f"unknown step {step!r}")


def _step_from_dict(d: dict):
    t = d["t"]
    if t == "c":
        return ComputeStep(cost_ns=d["cost"], op=d["op"], operand=d["x"])
    if t == "io":
        return IoStep(kind=d["kind"], blocks=d["blocks"],
                      offset_rule=d["rule"])
    if t == "sub":
        return NestedStep(spec=_spec_from_dict(d["spec"]))
    raise ValueError(f"unknown step tag {t!r}")


def _spec_to_dict(spec: TaskSpec) -> dict:
    return {"task_id": spec.task_id,
            "initial_state": spec.initial_state,
            "steps": [_step_to_dict(s) for s in spec.steps]}


def _spec_from_dict(d: dict) -> TaskSpec:
    return TaskSpec(task_id=d["task_id"],
                    steps=tuple(_step_from_dict(s) for s in d["steps"]),
                    initial_state=d["initial_state"])


def write_corpus(path, specs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for spec in specs:
            fh.write(json.dumps(_spec_to_dict(spec), separators=(",", ":")))
            fh.write("\n")


def read_corpus(path) -> list[TaskSpec]:
    specs = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                specs.append(_spec_from_dict(json.loads(line)))
    return specs
