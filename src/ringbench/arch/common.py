"""Machinery shared by the four execution architectures.

Three workload drivers exist: a lean closed-loop request driver
(queue-depth benchmarks), an open-loop arrival driver, and a task engine
that executes partitioned TaskSpecs under any scheme. All are actor
generators that take from an architecture only the worker (an
``ExecContext`` with its submission path) and, where it reaps, a reap
callable; each architecture supplies only those and its parking signal.

Placement rules the engine enforces:

* full partitioning: poll tasklets run on the owning worker; a miss costs
  poll_cost_ns and re-enqueues at the back of the ready queue.
* callback partitioning: the fused poll+compute unit executes on whatever
  executor reaped the completion (worker in shared-nothing/direct access,
  I/O-instance thread in pools); only a blocked follow-up submission is
  handed back to the owner.
* coroutines: the owner resumes the frame with its completion; a miss
  costs resume+poll and leaves the frame suspended, not resumed.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from dataclasses import dataclass, field, fields
from graphlib import CycleError, TopologicalSorter
from typing import Optional

from ..metrics import MetricsCollector
from ..ring import (ApiInstance, Completion, IoRequest, OpKind)
from ..tasks import (Geometry, KIND_COMPUTE, KIND_POLL, KIND_POLL_FUSED,
                     TaskSpec, apply_io_result, io_request_for,
                     make_coroutine, partition_callback, partition_full,
                     resume, run_compute, Done)


class WorkloadNotPartitionable(Exception):
    """The workload declares dependencies that cross static shards."""


class PoolShutdown(Exception):
    """Submission refused because the pool is draining or stopped."""


class TimeoutExceeded(Exception):
    """Drain deadline passed with work still in flight."""

    def __init__(self, abandoned: int):
        super().__init__(f"drain deadline exceeded with {abandoned} "
                         f"requests abandoned")
        self.abandoned = abandoned


@dataclass
class ExecCosts:
    """CPU charged on the executing thread per engine action (ns)."""

    submit_cost_ns: int = 150
    reap_cost_ns: int = 150
    poll_cost_ns: int = 100
    resume_cost_ns: int = 300
    lock_hold_ns: int = 250        # direct access critical sections
    inbox_push_cost_ns: int = 100  # dispatch-layer handoff

    def validate(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be >= 0")


@dataclass
class RingConfig:
    sq_capacity: int = 256
    cq_capacity: int = 512
    sq_poll: bool = True
    idle_timeout_ns: int = 1_000_000

    def validate(self) -> None:
        for name in ("sq_capacity", "cq_capacity"):
            n = getattr(self, name)
            if n < 1 or n & (n - 1):
                raise ValueError(f"{name} must be a power of two")
        if self.cq_capacity < self.sq_capacity:
            raise ValueError("cq_capacity must be >= sq_capacity")
        if self.idle_timeout_ns <= 0:
            raise ValueError("idle_timeout_ns must be > 0")

    def build(self, executor_id=None) -> ApiInstance:
        return ApiInstance(self.sq_capacity, self.cq_capacity,
                           self.sq_poll, self.idle_timeout_ns, executor_id)


@dataclass
class RequestWorkload:
    """Closed-loop request stream: keep queue_depth in flight."""

    op_count: int = 100_000
    queue_depth: int = 32
    callback_cost_ns: int = 0

    def __post_init__(self):
        for name in ("op_count", "queue_depth"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.callback_cost_ns < 0:
            raise ValueError("callback_cost_ns must be >= 0")


@dataclass
class TaskWorkload:
    """A corpus of TaskSpecs with distinct task ids; a task starts once the
    tasks it depends on have finished. ``prerequisites`` maps a task id to
    the ids it waits for, built once from ``dependencies``."""

    specs: list
    dependencies: list = field(default_factory=list)  # (before_id, after_id)
    max_live_per_worker: int = 8

    def __post_init__(self):
        if self.max_live_per_worker < 1:
            raise ValueError("max_live_per_worker must be >= 1")
        ids = set()
        for spec in self.specs:
            if spec.task_id in ids:
                raise ValueError(f"specs must have distinct task ids: "
                                 f"{spec.task_id} repeats")
            ids.add(spec.task_id)
        prerequisites = {}
        for before, after in self.dependencies:
            if before not in ids or after not in ids:
                raise ValueError(f"dependencies must name tasks of specs: "
                                 f"{before}->{after}")
            prerequisites.setdefault(after, []).append(before)
        try:
            TopologicalSorter(prerequisites).prepare()
        except CycleError as exc:
            raise ValueError(f"dependencies form a cycle: "
                             f"{'->'.join(map(str, exc.args[1]))}") from None
        self.prerequisites = prerequisites


@dataclass
class ArrivalWorkload:
    """Open-loop arrivals: (duration_ns, ops_per_sec) phases, played once."""

    phases: list

    def __post_init__(self):
        if not self.phases:
            raise ValueError("phases must hold at least one "
                             "(duration_ns, rate) phase")
        for i, (duration_ns, rate) in enumerate(self.phases):
            if duration_ns <= 0:
                raise ValueError(f"phases[{i}] duration must be > 0")
            if duration_ns % 1:  # also true of inf and nan
                raise ValueError(f"phases[{i}] duration must be a whole "
                                 f"number of ns")
            if not 0 <= rate <= 1e9:  # at most one arrival per ns
                raise ValueError(f"phases[{i}] rate must be in [0, 1e9] "
                                 f"ops/s")
        # a float duration would make every later delay a float, which the
        # runtime cannot tell from a yielded miss streak
        self.phases = [(int(dur), rate) for dur, rate in self.phases]

    @staticmethod
    def phase_schedule(duration_ns, rate) -> tuple:
        """(gap_ns, count): a phase issues ``count`` arrivals ``gap_ns``
        apart from its start, the last one before its end."""
        gap = int(round(1e9 / rate)) if rate > 0 else 0
        return gap, int(-(-duration_ns // gap)) if gap else 0

    def total_ops(self) -> int:
        return sum(self.phase_schedule(dur, rate)[1]
                   for dur, rate in self.phases)


def request_stream(geometry: Geometry):
    """Request factory for request and arrival workloads: every request is
    a READ of one device block at offset 0. The device serves every op
    kind, offset and length alike, so no other request would change a
    run."""
    block_size = geometry.block_size

    def next_request() -> IoRequest:
        return IoRequest(OpKind.READ, 0, block_size)

    return next_request


# -- request handles ------------------------------------------------------------

class RequestHandle:
    """Pollable request state; the completion slot is written exactly once,
    and a handle is done once it is."""

    __slots__ = ("handle_id", "completion", "owner", "inline_cont")

    def __init__(self, handle_id: int, owner=None):
        self.handle_id = handle_id
        self.completion: Optional[Completion] = None
        self.owner = owner              # worker awaiting this handle
        self.inline_cont = None         # (task, unit_index) for fused units

    def complete(self, comp: Completion) -> None:
        assert self.completion is None, "completion slot written twice"
        self.completion = comp


# -- per-worker state --------------------------------------------------------------


class LiveTask:
    __slots__ = ("spec", "units", "state", "pending_handle", "owner",
                 "frame")

    def __init__(self, spec: TaskSpec, units, state: int, owner):
        self.spec = spec
        self.units = units
        self.state = state
        self.pending_handle = None
        self.owner = owner
        self.frame = None


class ExecContext:
    """The executor of one actor that charges CPU.

    ``ExecContext(run)`` makes its own collector and joins ``run.ectxs``.
    The architecture sets ``submit``, a generator:
    ``ok = yield from ectx.submit(req, handle)``. ``new_handle`` is the
    run's ``HandleFactory``.
    """

    __slots__ = ("rt", "costs", "collector", "submit", "geometry",
                 "results", "new_handle", "dep_broadcast")

    def __init__(self, run):
        self.rt = run.rt
        self.costs = run.costs
        self.collector = MetricsCollector(run.run_id)
        self.submit = None
        self.geometry = run.geometry
        self.results = run.results    # shared task_id -> final_state
        self.new_handle = run.new_handle
        self.dep_broadcast = ()       # signals to poke on task finish
        run.ectxs.append(self)


class Worker(ExecContext):
    """A worker actor's executor and its queues."""

    __slots__ = ("index", "name", "signal", "cqs", "ready", "blocked",
                 "handoff", "done_handles", "live", "finished", "spinning")

    def __init__(self, index: int, run):
        super().__init__(run)
        self.index = index
        self.name = f"worker-{index}"
        self.signal = run.rt.signal()
        self.cqs = ()                # the CQs its reap hook reaps, if any
        self.ready = deque()         # runnable items, FIFO (fair respawn)
        self.blocked = deque()       # submissions that bounced off a full SQ
        self.handoff = deque()       # cross-executor item handoffs (MPSC)
        self.done_handles = None     # the request driver's done deque (MPSC)
        self.live = 0                # tasks started and not finished
        self.finished = deque()      # tasks finished off-owner (MPSC)
        self.spinning = None         # its armed MissStreak, if any


# -- task engine --------------------------------------------------------------------


# the partitioning schemes start_task runs a task under
SCHEMES = ("full", "callback", "coroutine")


def start_task(spec: TaskSpec, scheme: str, owner: Worker,
               geometry: Geometry) -> tuple:
    """Create the LiveTask for one of ``SCHEMES``; return its entry item."""
    if scheme == "coroutine":
        task = LiveTask(spec, None, spec.initial_state, owner)
        task.frame = make_coroutine(spec, geometry)
        return ("frame", task)
    units = partition_full(spec) if scheme == "full" \
        else partition_callback(spec)
    task = LiveTask(spec, units, spec.initial_state, owner)
    return ("unit", task, 0)


def _finish_task(task: LiveTask, ectx: ExecContext) -> None:
    ectx.results[task.spec.task_id] = task.state
    owner = task.owner
    if ectx is not owner:
        ectx.collector.cross_thread_msgs += 1
        owner.finished.append(task)
        owner.signal.notify()
    else:
        owner.live -= 1
    for sig in ectx.dep_broadcast:
        sig.notify()


def _hand_to_owner(owner: Worker, item, ectx: ExecContext) -> None:
    if ectx is owner:
        (owner.blocked if item[0] == "submit" else owner.ready).append(item)
    else:
        owner.handoff.append(item)
        ectx.collector.cross_thread_msgs += 1
        owner.signal.notify()


def _submit(task: LiveTask, req, handle, follow_up, ectx: ExecContext):
    """Submit a task's request: the one submit-and-bounce rule. A refused
    request goes back to the task's owner as a ``"submit"`` item to retry;
    an accepted one queues ``follow_up`` there, if any. Generator returning
    whether the SQ took it."""
    ok = yield from ectx.submit(req, handle)
    if not ok:
        ectx.collector.sq_full_retries += 1
        _hand_to_owner(task.owner, ("submit", task, req, handle, follow_up),
                       ectx)
        return False
    ectx.collector.on_submit()
    if follow_up is not None:
        _hand_to_owner(task.owner, follow_up, ectx)
    return True


def _submit_unit_io(task: LiveTask, unit, ectx: ExecContext):
    """Build and submit a unit's trailing I/O. Generator."""
    req = io_request_for(task.spec, unit.submit_io, unit.submit_index,
                         task.state, ectx.geometry)
    handle = ectx.new_handle(req, task.owner)
    nxt = unit.next_index
    follow_up = None
    if nxt is not None and task.units[nxt].kind == KIND_POLL_FUSED:
        handle.inline_cont = (task, nxt)
    else:
        assert nxt is not None, "submission without a poll successor"
        follow_up = ("unit", task, nxt)
    task.pending_handle = handle
    yield from _submit(task, req, handle, follow_up, ectx)


def execute_item(item, ectx: ExecContext):
    """Run one schedulable item; generator yielding CPU costs.

    A poll item reaches here only once its handle is done: the owner's
    ready loop charges a miss and respawns it without a call. Returns False
    only when a bounced submission bounces again, True otherwise.
    """
    kind = item[0]
    costs = ectx.costs

    if kind == "unit" or kind == "fused":
        task = item[1]
        unit = task.units[item[2]]
        if kind == "fused":
            # runs on the reaping executor; completion already in hand
            comp = item[3]
        elif unit.kind == KIND_POLL:
            yield costs.poll_cost_ns
            comp = task.pending_handle.completion
        else:
            assert unit.kind == KIND_COMPUTE, f"owner cannot run {unit.kind}"
            comp = None
        if comp is not None:
            task.pending_handle = None
            task.state = apply_io_result(task.state, unit.awaits_index,
                                         int(comp.status), comp.value)
        if unit.kind != KIND_POLL:
            yield unit.compute_cost()
            task.state = run_compute(task.state, unit.compute)
            if unit.submit_io is not None:
                yield from _submit_unit_io(task, unit, ectx)
                return True
        if unit.next_index is not None:
            _hand_to_owner(task.owner, ("unit", task, unit.next_index), ectx)
        else:
            _finish_task(task, ectx)
        return True

    if kind == "frame":
        _, task = item
        frame = task.frame
        handle = task.pending_handle
        comp = None
        if handle is not None:
            comp = handle.completion
            task.pending_handle = None
        yield costs.resume_cost_ns + frame.upcoming_compute_cost()
        out = resume(frame, comp)
        ectx.collector.coroutine_resumes += 1
        if ectx.collector.frame_bytes_peak < frame.frame_bytes:
            ectx.collector.frame_bytes_peak = frame.frame_bytes
        if isinstance(out, Done):
            task.state = out.final_state
            _finish_task(task, ectx)
            return True
        handle = ectx.new_handle(out.request, task.owner)
        task.pending_handle = handle
        yield from _submit(task, out.request, handle, ("frame", task), ectx)
        return True

    if kind == "submit":
        _, task, req, handle, follow_up = item
        return (yield from _submit(task, req, handle, follow_up, ectx))

    raise AssertionError(f"unknown item kind {kind}")


def deliver_completion(handle: RequestHandle, comp: Completion,
                       ectx: ExecContext):
    """Reaper-side routing; runs fused continuations inline. Generator."""
    handle.complete(comp)
    cont = handle.inline_cont
    if cont is not None:
        task, idx = cont
        yield from execute_item(("fused", task, idx, comp), ectx)
        return
    owner = handle.owner
    if owner is not None:
        if ectx is not owner:
            ectx.collector.cross_thread_msgs += 1
        if owner.done_handles is not None:
            owner.done_handles.append(handle)
        if owner.spinning is not None:
            owner.spinning.delivered()
        owner.signal.notify()


class MissStreak:
    """The respawn rule, for a run of poll misses at the front of one
    worker's ready queue.

    The queue holds coroutine frames under the coroutine scheme and
    tasklets otherwise. An item misses while its task awaits a handle that
    is not done: a poll tasklet or a frame. A miss costs ``poll_cost_ns``
    (a frame also pays ``resume_cost_ns``, but is not resumed), counts a
    respawn, for a frame also a resume, and sends the item to the back of
    the queue.

    In virtual mode a streak with a positive miss cost is settled by one
    calendar event, its end. A streak starts at ``t0`` with ``left`` items
    in its rotation and checks item ``k`` at ``t0 + k * cost``; a check
    sees a completion only if it was delivered strictly before the check's
    time. The streak ends at its first check that hits, or at
    ``k = left``, with one ``VirtualClock.at_last`` entry, which fires
    after every other event due then. ``arm`` finds the first item that
    hits now; ``deliver_completion`` tells the streak of each completion
    for its worker (``Worker.spinning``), and a hit on an item yet to be
    checked moves the end earlier with a new entry. Each entry carries its
    arming token, so an entry the streak moved past does nothing. The end
    settles the queue and the counters once, then resumes the worker;
    nothing else reads them before that. In wall mode, and for zero-cost
    misses, the worker charges each miss itself and calls ``settle(1)``.
    """

    __slots__ = ("worker", "ready", "collector", "frames", "cost", "left",
                 "count", "t0", "token", "clock", "resume")

    def __init__(self, worker: Worker, scheme: str):
        costs = worker.costs
        self.worker = worker
        self.ready = worker.ready
        self.collector = worker.collector
        self.frames = scheme == "coroutine"
        self.cost = costs.poll_cost_ns + (
            costs.resume_cost_ns if self.frames else 0)
        self.left = 0       # items left in the worker's ready-queue rotation
        self.count = 0      # the check the streak ends at: its misses
        self.t0 = 0         # when the armed streak began
        self.token = 0      # the arming of the end entry that counts
        self.clock = worker.rt.clock
        self.resume = None  # resumes the worker; set by arm

    def start(self, left: int) -> bool:
        """Begin a streak at the front of a rotation with ``left`` items
        to go; True when the front item misses."""
        self.left = left
        handle = self.ready[0][1].pending_handle
        return handle is not None and handle.completion is None

    def _first_hit(self, k: int, end: int) -> int:
        """The index of the first of items ``k`` .. ``end - 1`` that hits
        now, else ``end``."""
        for item in itertools.islice(self.ready, k, end):
            handle = item[1].pending_handle
            if handle is None or handle.completion is not None:
                return k
            k += 1
        return end

    def arm(self, resume) -> None:
        """Schedule the end of a streak that starts now (virtual mode)."""
        self.resume = resume
        self.t0 = self.clock.now
        self.worker.spinning = self
        self._end_at(self._first_hit(1, self.left))

    def delivered(self) -> None:
        """A completion for the worker was just delivered: the first item
        yet to be checked that now hits, if before the end, ends the
        streak."""
        end = self._first_hit((self.clock.now - self.t0) // self.cost + 1,
                              self.count)
        if end < self.count:
            self._end_at(end)

    def _end_at(self, k: int) -> None:
        self.count = k
        self.token += 1
        self.clock.at_last(self.t0 + k * self.cost,
                           functools.partial(self._end, self.token))

    def _end(self, token: int) -> None:
        if token == self.token:
            self.worker.spinning = None
            self.settle(self.count)
            self.resume()

    def settle(self, count: int) -> None:
        """Charge the first ``count`` items of the ready queue a miss each
        and move them to its back."""
        collector = self.collector
        collector.tasklet_respawns += count
        if self.frames:
            # a missed frame counts a resume but is not resumed
            collector.coroutine_resumes += count
        self.ready.rotate(-count)


# -- worker loops ----------------------------------------------------------------------


def request_worker_loop(worker: Worker, reap, shard_ops: int, qd: int,
                        next_request, worker_cb_cost: int):
    """Closed-loop request driver: keep qd in flight until shard_ops done.

    ``reap`` is None when another executor reaps this worker's completions.
    """
    cqs = worker.cqs
    submitted = 0
    done = 0
    pending_req = None
    pending_handle = None
    # deliver_completion queues onto it from the first completion on
    dq = worker.done_handles = deque()
    while done < shard_ops:
        sig_version = worker.signal.version  # park guard: see Signal docs
        progressed = False
        n = len(dq)
        if n:
            for _ in range(n):
                dq.popleft()
            done += n
            progressed = True
        for cq in cqs:
            if cq.tail != cq.head:  # an empty reap would charge nothing
                reaped = yield from reap()
                progressed = progressed or reaped
                break
        while submitted - done < qd and submitted < shard_ops:
            if pending_req is None:
                pending_req = next_request()
                pending_handle = worker.new_handle(pending_req, worker)
            ok = yield from worker.submit(pending_req, pending_handle)
            if not ok:
                worker.collector.sq_full_retries += 1
                break
            worker.collector.on_submit()
            pending_req = None
            pending_handle = None
            submitted += 1
            progressed = True
        # callbacks run after replenishment so they overlap fresh I/O
        if n:
            yield worker_cb_cost * n
        if not progressed and done < shard_ops \
                and worker.signal.version == sig_version:
            yield worker.signal


def arrival_loop(worker: Worker, workload: ArrivalWorkload, n: int,
                 next_request):
    """Open-loop arrival driver: worker i of n issues arrivals i, i+n, ...
    of each phase at their scheduled times. Another executor reaps."""
    rt = worker.rt
    start = rt.now()
    for duration_ns, rate in workload.phases:
        gap, count = workload.phase_schedule(duration_ns, rate)
        mine = range(worker.index, count, n)
        for i in mine:
            delay = start + i * gap - rt.now()
            if delay > 0:
                yield delay
            req = next_request()
            yield from worker.submit(req, worker.new_handle(req))
            worker.collector.on_submit()
        start += duration_ns
        if not mine:
            # a phase without arrivals of its own still takes its time
            delay = start - rt.now()
            if delay > 0:
                yield delay


def task_worker_loop(worker: Worker, reap, shard_specs, scheme: str,
                     workload: TaskWorkload):
    """Scheme-aware task driver; see module docstring for placement rules.
    Below ``max_live_per_worker`` live tasks it starts the first pending
    task, in shard order, whose prerequisites have all finished."""
    pending = deque(shard_specs)
    prerequisites = workload.prerequisites
    max_live = workload.max_live_per_worker
    miss_streak = 0
    results = worker.results
    cqs = worker.cqs
    streak = MissStreak(worker, scheme)
    miss_cost = streak.cost
    # zero-cost misses make no event: they stay inline
    armed = miss_cost > 0 and worker.rt.mode == "virtual"
    while True:
        sig_version = worker.signal.version  # park guard: see Signal docs
        progressed = False
        # cross-executor handoffs first: they represent completed work
        hq = worker.handoff
        while hq:
            item = hq.popleft()
            (worker.blocked if item[0] == "submit"
             else worker.ready).append(item)
            progressed = True
        for cq in cqs:
            if cq.tail != cq.head:  # an empty reap would charge nothing
                reaped = yield from reap()
                progressed = progressed or reaped
                break
        # retry bounced submissions once per pass
        for _ in range(len(worker.blocked)):
            item = worker.blocked.popleft()
            ok = yield from execute_item(item, worker)
            progressed = progressed or ok
        # prune tasks finished on other executors, start new ones
        finished = worker.finished
        while finished:
            finished.popleft()
            worker.live -= 1
            progressed = True
        while worker.live < max_live and pending:
            for i, spec in enumerate(pending):
                if all(d in results
                       for d in prerequisites.get(spec.task_id, ())):
                    break
            else:
                break  # rescanned once a prerequisite finishes
            del pending[i]
            entry = start_task(spec, scheme, worker, worker.geometry)
            worker.live += 1
            worker.ready.append(entry)
            progressed = True
        # run up to one full rotation of the ready queue per pass; a run of
        # items that miss is one streak (the respawn rule, see MissStreak)
        ready = worker.ready
        left = len(ready)
        while left:
            if not streak.start(left):
                left -= 1
                yield from execute_item(ready.popleft(), worker)
                progressed = True
                miss_streak = 0
                continue
            if armed:
                yield streak
                missed = streak.count
            else:
                yield miss_cost
                streak.settle(1)
                missed = 1
            left -= missed
            miss_streak += missed
        if (not pending and not worker.live and not worker.ready
                and not worker.blocked and not worker.handoff):
            return
        if not progressed and miss_streak >= len(worker.ready) \
                and worker.signal.version == sig_version:
            yield worker.signal
            miss_streak = 0


def shard_specs(workload: TaskWorkload, n_workers: int):
    """task_id modulo n_workers; the static sharding rule used everywhere."""
    shards = [[] for _ in range(n_workers)]
    for spec in workload.specs:
        shards[spec.task_id % n_workers].append(spec)
    return shards


def check_partitionable(workload: TaskWorkload, n_workers: int) -> None:
    for before, after in workload.dependencies:
        if before % n_workers != after % n_workers:
            raise WorkloadNotPartitionable(
                f"dependency {before}->{after} crosses shards under "
                f"{n_workers} static shards")


class HandleFactory:
    """Makes a run's handles, as new_handle(req, owner), and maps each from
    its id, which it writes into its request as ``user_data``, until the
    reaper pops it. A handle is registered when it is made, so its
    completion finds it however the submission bounced or raced.

    The id, not the handle, goes into ``user_data``: a handle there would
    make a handle <-> completion reference cycle, which took the cyclic
    collector from 3 to 92-117 collections per two benchmark passes and
    peak RSS up 0.6-1.1 MiB on ``req_sn`` and ``tasks_pool_cb``."""

    __slots__ = ("_ids", "_live")

    def __init__(self):
        self._ids = itertools.count(1)
        self._live = {}  # handle_id -> handle awaiting its completion

    def __call__(self, req: IoRequest, owner=None) -> RequestHandle:
        handle = RequestHandle(next(self._ids), owner)
        req.user_data = handle.handle_id
        self._live[handle.handle_id] = handle
        return handle

    def pop(self, comp: Completion) -> RequestHandle:
        """The handle a reaped completion belongs to, now unregistered."""
        return self._live.pop(comp.user_data)
