"""Static and dynamic I/O thread pools.

Workers submit to a dispatch layer and poll the handle they get back; each
I/O instance is a dedicated actor (or submit/reap actor pair) exclusively
owning one ring instance, which enforces that ownership. Both threading
modes run one instance loop; a pair splits its submit and reap passes over
two actors. The dynamic variant adds a scaling controller that widens or
narrows the active prefix of instances by at most one per window; starved
instances drain, their poll threads time out, and the actors park.

This module supplies the pool units and their actors, the dispatch layer,
the worker hooks that submit through it, the controller, and the report
extras (inbox peaks, the active-instance timeline); the run assembly is
``driver.RunContext``.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from dataclasses import dataclass

from ..metrics import MetricsCollector
from ..ring import PushResult
from .common import (ArrivalWorkload, ExecContext, PoolShutdown,
                     TimeoutExceeded, deliver_completion)
from .driver import RunContext, RunOptions, check_sizes

EXEC_IO_THREADS = "io_threads"
EXEC_INLINE_CALLBACKS = "inline_callbacks"
EXEC_MODES = (EXEC_IO_THREADS, EXEC_INLINE_CALLBACKS)

POLICY_ROUND_ROBIN = "round_robin"
POLICY_LEAST_LOADED = "least_loaded"
POLICIES = (POLICY_ROUND_ROBIN, POLICY_LEAST_LOADED)

THREADING_SINGLE = "single_thread"
THREADING_PAIR = "submit_reap_pair"
THREADING_MODES = (THREADING_SINGLE, THREADING_PAIR)


@dataclass
class ControllerConfig:
    """Dual-watermark load controller; one admissible instantiation of
    "scale to the current I/O load". All constants are deliberately exposed."""

    window_ns: int = 5_000_000
    high_water: float = 0.75   # of sq_capacity, per active instance
    low_water: float = 0.25    # projected onto (active - 1) instances
    min_active: int = 1

    def validate(self, k_instances: int = None) -> None:
        if self.window_ns <= 0:
            raise ValueError("window_ns must be > 0")
        if not 0 < self.low_water < self.high_water:
            raise ValueError("low_water must be in (0, high_water)")
        if self.min_active < 1:
            raise ValueError("min_active must be >= 1")
        if k_instances is not None and self.min_active > k_instances:
            raise ValueError("min_active must be <= k_instances")


class LoadMeter:
    """Time-weighted mean of in-flight (dispatched, not completed) requests."""

    __slots__ = ("level", "_last_t", "_integral", "_window_start",
                 "_window_integral", "_lock")

    def __init__(self, locked: bool):
        self.level = 0
        self._last_t = 0
        self._integral = 0
        self._window_start = 0
        self._window_integral = 0
        self._lock = threading.Lock() if locked else None

    def change(self, delta: int, now: int) -> None:
        lock = self._lock
        if lock:
            lock.acquire()
        self._integral += self.level * (now - self._last_t)
        self._last_t = now
        self.level += delta
        if lock:
            lock.release()

    def window_mean(self, now: int) -> float:
        lock = self._lock
        if lock:
            lock.acquire()
        self._integral += self.level * (now - self._last_t)
        self._last_t = now
        span = now - self._window_start
        mean = ((self._integral - self._window_integral) / span
                if span > 0 else float(self.level))
        self._window_start = now
        self._window_integral = self._integral
        if lock:
            lock.release()
        return mean


class IoInstanceUnit:
    __slots__ = ("index", "inst", "inbox", "inbox_capacity", "inbox_peak",
                 "signal", "reap_signal", "pending_sub")

    def __init__(self, index, inst, inbox_capacity, rt):
        self.index = index
        self.inst = inst
        self.inbox = deque()
        self.inbox_capacity = inbox_capacity
        self.inbox_peak = 0
        self.signal = rt.signal()
        self.reap_signal = None  # separate signal in pair threading
        self.pending_sub = None  # request popped from inbox, SQ was full


class IoPool:
    """Dispatch layer plus k I/O-instance actors over one run's device,
    and the actor of its ``controller``, if it has one."""

    def __init__(self, ctx: RunContext, k_instances: int,
                 controller: ControllerConfig = None,
                 policy: str = POLICY_ROUND_ROBIN, inbox_capacity: int = 1024,
                 threading_mode: str = THREADING_SINGLE):
        check_sizes(k_instances=k_instances, inbox_capacity=inbox_capacity)
        if policy not in POLICIES:
            raise ValueError(f"unknown dispatch policy {policy!r}")
        if threading_mode not in THREADING_MODES:
            raise ValueError(f"unknown threading mode {threading_mode!r}")
        if controller is not None:
            controller.validate(k_instances)
        rt = self.rt = ctx.rt
        rt.pool = self
        self.ctx = ctx
        self.k = k_instances
        self.policy = policy
        self.controller_cfg = controller
        self.threading_mode = threading_mode
        self.stopping = False
        self.inline_cost_ns = 0  # inline callback, charged at reap
        # open-loop load starts on the fewest instances
        self.active_count = controller.min_active if controller is not None \
            and isinstance(ctx.workload, ArrivalWorkload) else k_instances
        self.timeline = [(rt.now(), self.active_count)]
        self.overflow = deque()
        self.pending = LoadMeter(locked=(rt.mode == "wall"))
        self._rr = itertools.count()
        self.instances = []
        for i in range(k_instances):
            unit = IoInstanceUnit(i, ctx.ring.build(rt.executor_id),
                                  inbox_capacity, rt)
            if self.threading_mode == THREADING_PAIR:
                unit.reap_signal = rt.signal()
            ctx.device.attach(unit.inst,
                              reaper_signal=unit.reap_signal or unit.signal,
                              space_signal=unit.signal)
            self.instances.append(unit)
        self._spawn_instance_actors()
        if controller is not None:
            rt.spawn(self.controller_actor(), "controller")

    # -- dispatch layer --------------------------------------------------------

    def _pick(self) -> int:
        active = self.active_count
        if self.policy == POLICY_ROUND_ROBIN:
            return next(self._rr) % active
        return min(range(active), key=lambda i: len(self.instances[i].inbox))

    def _deliver_to_inbox(self, unit: IoInstanceUnit, entry) -> None:
        if unit.index >= self.active_count:
            raise RuntimeError(
                f"dispatch delivered to inactive instance {unit.index} "
                f"(active {self.active_count} of {self.k})")
        unit.inbox.append(entry)
        depth = len(unit.inbox)
        if depth > unit.inbox_peak:
            unit.inbox_peak = depth
        unit.signal.notify()

    def _dispatch(self, req, handle) -> None:
        self.pending.change(1, self.rt.now())
        # earlier parked requests go first
        self.overflow.append((req, handle))
        self._drain_overflow()

    def _drain_overflow(self) -> None:
        overflow = self.overflow
        while overflow:
            unit = self.instances[self._pick()]
            if len(unit.inbox) >= unit.inbox_capacity:
                return
            try:
                entry = overflow.popleft()
            except IndexError:
                return  # wall mode: another thread's drain emptied it
            self._deliver_to_inbox(unit, entry)

    def submitter_for(self, collector: MetricsCollector):
        """Generator-style submit hook bound to the executor's collector."""
        costs = self.ctx.costs

        def submit(req, handle):
            if self.stopping:
                raise PoolShutdown("pool is draining")
            yield costs.inbox_push_cost_ns
            collector.cross_thread_msgs += 1
            self._dispatch(req, handle)
            return True

        return submit

    def pool_submit(self, req):
        """Immediate-return submission (the non-actor API surface)."""
        if self.stopping:
            raise PoolShutdown("pool is draining")
        handle = self.ctx.new_handle(req)
        self._dispatch(req, handle)
        self.ctx.collector.on_submit()
        return handle

    def held(self) -> str:
        """The requests the dispatch layer holds: the overflow queue's
        depth, then per instance its inbox depth and the request popped
        from it that waits for SQ room."""
        units = self.instances
        inbox = "/".join(str(len(u.inbox)) for u in units)
        waiting = "/".join(str(int(u.pending_sub is not None))
                           for u in units)
        return (f"overflow {len(self.overflow)}, inbox {inbox}, "
                f"waiting for SQ room {waiting}")

    # -- instance execution ------------------------------------------------------

    def _submit_pass(self, unit: IoInstanceUnit, ectx: ExecContext):
        """Move inbox entries into the SQ; generator returning progress."""
        costs = ectx.costs
        rt = ectx.rt
        progressed = False
        while True:
            if unit.pending_sub is None:
                if not unit.inbox:
                    break
                unit.pending_sub = unit.inbox.popleft()
            req, handle = unit.pending_sub
            yield costs.submit_cost_ns
            if unit.inst.sq_push(req, rt.now()) != PushResult.ACCEPTED:
                break  # backpressure: wait for completions to free headroom
            unit.pending_sub = None
            progressed = True
        return progressed

    def _reap_pass(self, unit: IoInstanceUnit, ectx: ExecContext):
        """Deliver reaped completions; generator returning progress. Each
        completion's inline callback, if any, is charged here, before its
        delivery. The SQ's producer refills between long inline callbacks
        and after the reap; in pair threading that is the submit actor, so
        it is woken."""
        costs = ectx.costs
        comps = unit.inst.cq_reap(64)
        if not comps:
            return False
        yield costs.reap_cost_ns * len(comps)
        handles = ectx.new_handle
        meter = self.pending
        now = self.rt.now
        pair = unit.reap_signal is not None
        inline = self.inline_cost_ns
        for c in comps:
            handle = handles.pop(c)
            meter.change(-1, now())
            yield inline
            yield from deliver_completion(handle, c, ectx)
            if inline and (unit.inbox or unit.pending_sub):
                if pair:
                    unit.signal.notify()
                else:
                    yield from self._submit_pass(unit, ectx)
        if pair and unit.pending_sub is not None:
            unit.signal.notify()
        return True

    def _unit_drained(self, unit: IoInstanceUnit, reaps: bool) -> bool:
        """Nothing left to submit and, for a reaping actor, to reap."""
        if unit.inbox or unit.pending_sub is not None:
            return False
        return not reaps or (unit.inst.pending_completion_count() == 0
                             and not len(unit.inst.cq))

    def _io_actor(self, unit: IoInstanceUnit, ectx: ExecContext,
                  submits: bool = True, reaps: bool = True):
        """An I/O-instance actor; a pair's reaper parks on
        ``unit.reap_signal``."""
        signal = unit.signal if submits else unit.reap_signal
        cq = unit.inst.cq
        while True:
            sig_version = signal.version  # park guard: see Signal docs
            # a pass with nothing to push or to reap takes and charges
            # nothing
            submitted = reaped = False
            if submits and (unit.inbox or unit.pending_sub is not None):
                submitted = yield from self._submit_pass(unit, ectx)
            if reaps and cq.tail != cq.head:
                reaped = yield from self._reap_pass(unit, ectx)
            if submits and self.overflow and not unit.inbox \
                    and unit.index < self.active_count:
                self._drain_overflow()
                if not reaps:
                    continue  # a reaping actor may park; a submitter retries
            if submitted or reaped:
                continue
            if self.stopping and self._unit_drained(unit, reaps) and (
                    not submits or not self.overflow
                    or unit.index >= self.active_count):
                return
            if signal.version == sig_version:
                yield signal

    def _spawn_instance_actors(self) -> None:
        # (name suffix, submits, reaps) of each actor an instance runs
        roles = ((("-submit", True, False), ("-reap", False, True))
                 if self.threading_mode == THREADING_PAIR
                 else (("", True, True),))
        for unit in self.instances:
            for suffix, submits, reaps in roles:
                # an I/O actor submits a follow-up through the dispatch layer
                ectx = ExecContext(self.ctx)
                ectx.submit = self.submitter_for(ectx.collector)
                self.rt.spawn(self._io_actor(unit, ectx, submits, reaps),
                              f"io-{unit.index}{suffix}")

    # -- scaling controller ---------------------------------------------------------

    def set_active(self, n: int) -> None:
        assert abs(n - self.active_count) <= 1, "hysteresis: one step per window"
        assert self.controller_cfg is None or n >= self.controller_cfg.min_active
        assert 1 <= n <= self.k
        self.active_count = n
        self.timeline.append((self.rt.now(), n))
        self._drain_overflow()
        for unit in self.instances:
            unit.signal.notify()

    def controller_actor(self):
        """One scaling decision per window until the pool stops.

        In virtual mode a window that changes nothing while no other event
        is pending ends the controller: nothing can ever happen again, and
        re-arming would hide that deadlock from ``drive``.
        """
        cfg = self.controller_cfg
        sq_cap = self.ctx.ring.sq_capacity
        hi = cfg.high_water * sq_cap
        lo = cfg.low_water * sq_cap
        clock = self.rt.clock
        virtual = self.rt.mode == "virtual"
        while not self.stopping:
            yield cfg.window_ns
            if self.stopping:
                return
            mean = self.pending.window_mean(self.rt.now())
            active = self.active_count
            if mean / active > hi and active < self.k:
                self.set_active(active + 1)
            elif active > cfg.min_active and mean / (active - 1) < lo:
                self.set_active(active - 1)
            elif virtual and clock.idle():
                return

    # -- shutdown ---------------------------------------------------------------------

    def drained(self) -> bool:
        # a dispatch raises the meter and the request's reap lowers it
        return self.pending.level == 0

    def request_stop(self) -> None:
        self.stopping = True
        for unit in self.instances:
            unit.signal.notify()
            if unit.reap_signal is not None:
                unit.reap_signal.notify()

    def drain_and_shutdown(self, deadline_ns=None):
        """Outside-the-engine API: refuse new work, finish what is in flight.

        Returns the final MetricsReport; raises TimeoutExceeded with the
        abandoned count when the deadline passes first. Virtual mode drives
        the calendar directly, so this must not be called from inside an
        actor.
        """
        self.request_stop()
        rt = self.rt
        start = rt.now()

        def drained():
            if self.drained():
                return True
            if deadline_ns is not None and rt.now() - start >= deadline_ns:
                raise TimeoutExceeded(self.pending.level)
            return False

        self.ctx.run(drained)
        return self.report()

    def report(self):
        return self.ctx.report(
            inbox_peaks=[u.inbox_peak for u in self.instances],
            timeline=self.timeline)


def _pool_args(kw: dict) -> tuple:
    """Split a pool runner's keywords into ``IoPool``'s knobs and the
    ``RunOptions``."""
    knobs = {k: kw.pop(k) for k in ("policy", "inbox_capacity",
                                    "threading_mode") if k in kw}
    return knobs, RunOptions(**kw)


def open_pool(k_instances: int, *, controller: ControllerConfig = None,
              **kw) -> IoPool:
    """Stand up a live pool for direct pool_submit/handle use.

    Takes the ``RunOptions`` keywords and ``policy``, ``inbox_capacity``
    and ``threading_mode``. Callers submit with ``pool.pool_submit`` and
    finish with ``pool.drain_and_shutdown()``, which returns the final
    report.
    """
    knobs, opts = _pool_args(kw)
    pool = IoPool(RunContext("pool", None, opts), k_instances, controller,
                  **knobs)
    if pool.rt.mode == "wall":
        pool.rt.clock.start(pool.rt.fail)
    return pool


def _run_pool(arch, workload, n_workers, k_instances, scheme, controller,
              exec_mode, kw):
    check_sizes(n_workers=n_workers)
    if exec_mode not in EXEC_MODES:
        raise ValueError(f"unknown exec mode {exec_mode!r}")
    knobs, opts = _pool_args(kw)
    ctx = RunContext(arch, workload, opts)
    pool = IoPool(ctx, k_instances, controller, **knobs)

    inline = exec_mode == EXEC_INLINE_CALLBACKS
    if inline:
        # inline callbacks run on the reaping I/O-instance actor
        pool.inline_cost_ns = getattr(workload, "callback_cost_ns", 0)
    # I/O-instance actors reap; workers only poll handles
    worker_actors = ctx.spawn_workers(
        n_workers, scheme,
        lambda worker: (pool.submitter_for(worker.collector), None),
        inline_callbacks=inline)

    def workers_done():
        return pool.pending.level == 0 and all(a.done for a in worker_actors)

    ctx.run(workers_done, pool.request_stop)
    return pool.report()


def run_static_pool(workload, n_workers: int, k_instances: int,
                    scheme: str = "full", exec_mode: str = EXEC_IO_THREADS,
                    **kw):
    """N workers submitting through the dispatch layer to k I/O instances.

    Takes the ``open_pool`` keywords but ``controller``.
    """
    return _run_pool("static_pool", workload, n_workers, k_instances, scheme,
                     None, exec_mode, kw)


def run_dynamic_pool(workload, n_workers: int, k_instances: int,
                     controller: ControllerConfig = None,
                     scheme: str = "full",
                     exec_mode: str = EXEC_IO_THREADS, **kw):
    """The static pool plus a controller scaling the active instances.

    Takes the ``open_pool`` keywords.
    """
    return _run_pool("dynamic_pool", workload, n_workers, k_instances,
                     scheme, controller or ControllerConfig(), exec_mode, kw)
