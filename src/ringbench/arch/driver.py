"""The run assembly the four architectures share, and the run loop.

Every run builds the same things once: a runtime, the device, the device
collector, a handle factory, the results table and the list of executors
(``RunContext``); it shards the workload over worker actors
(``RunContext.spawn_workers``), drives the calendar to quiescence and
finalizes one report. An architecture supplies only how it wires instances
and hooks, its done predicate and its report extras.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..device import DeviceConfig, SimDevice
from ..metrics import InstanceStats, MetricsCollector
from ..runtime import Runtime
from ..tasks import Geometry
from .common import (SCHEMES, ArrivalWorkload, ExecCosts, HandleFactory,
                     RingConfig, TaskWorkload, Worker, arrival_loop,
                     request_stream, request_worker_loop, shard_specs,
                     task_worker_loop)


@dataclass
class RunOptions:
    """The keywords every runner accepts. The pool knobs are keywords of
    the pool runners alone."""

    device_cfg: DeviceConfig = None
    ring: RingConfig = None
    costs: ExecCosts = None
    mode: str = "virtual"
    seed: int = 0
    run_id: str = None
    sched_jitter_ns: int = 0
    results_out: dict = None
    keep_completion_times: bool = False


def check_sizes(**sizes) -> None:
    """Raise a ``ValueError`` naming the first run size below 1."""
    for name, n in sizes.items():
        if n < 1:
            raise ValueError(f"{name} must be >= 1")


class RunContext:
    """One run's runtime, device, collector, executors and inputs.

    ``ectxs`` holds the run's executors, one per actor that charges CPU:
    each ``ExecContext(run)`` joins it when made and carries the run's
    handle factory, ``new_handle``. ``report`` absorbs their collectors
    into the device collector.
    """

    def __init__(self, arch: str, workload, opts: RunOptions):
        self.workload = workload
        self.ring = opts.ring or RingConfig()
        self.costs = opts.costs or ExecCosts()
        self.ring.validate()
        self.costs.validate()
        self.run_id = opts.run_id or f"{arch}-{opts.seed}"
        dcfg = opts.device_cfg or DeviceConfig()
        self.geometry = Geometry(dcfg.block_size, dcfg.capacity_bytes)
        self.rt = Runtime(opts.mode, opts.seed, opts.sched_jitter_ns)
        self.device = self.rt.device = SimDevice(dcfg, self.rt.clock,
                                                 seed=opts.seed)
        self.collector = MetricsCollector(
            self.run_id, keep_completion_times=opts.keep_completion_times)
        self.device.completion_listener = self.collector.on_completion
        self.new_handle = HandleFactory()
        self.results = opts.results_out if opts.results_out is not None \
            else {}
        self.ectxs = []

    def spawn_workers(self, n: int, scheme: str, wire,
                      qd_per_worker: bool = False,
                      inline_callbacks: bool = False) -> list:
        """Spawn one worker actor per shard and return the actors.

        ``wire(worker)`` connects a new worker to the architecture and
        returns ``(submit, reap)``; ``reap`` is None when another
        executor reaps, and otherwise ``wire`` sets ``worker.cqs`` to the
        CQs it reaps: a worker pass reaps only when one of them holds a
        completion. A request workload's queue depth is split over the
        workers unless ``qd_per_worker``. Its callback cost runs on the
        worker after replenishment, unless ``inline_callbacks``: then the
        reaping executor charges it. An arrival workload's arrivals are
        dealt over the workers in turn; it needs workers that do not reap.
        """
        workload = self.workload
        if scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        is_arrivals = isinstance(workload, ArrivalWorkload)
        is_tasks = isinstance(workload, TaskWorkload)
        if is_tasks:
            shards = shard_specs(workload, n)
        next_request = request_stream(self.geometry)
        actors = []
        signals = []
        for i in range(n):
            worker = Worker(i, self)
            worker.submit, reap = wire(worker)
            assert (reap is None) == (not worker.cqs), "reap without CQs"
            if is_arrivals:
                if reap is not None:
                    raise ValueError(
                        "workload must be a request or task workload: an "
                        "ArrivalWorkload runs on the pools")
                gen = arrival_loop(worker, workload, n, next_request)
            elif is_tasks:
                gen = task_worker_loop(worker, reap, shards[i], scheme,
                                       workload)
            else:
                ops = workload.op_count // n + (
                    1 if i < workload.op_count % n else 0)
                qd = workload.queue_depth if qd_per_worker \
                    else max(1, workload.queue_depth // n)
                worker_cb = 0 if inline_callbacks \
                    else workload.callback_cost_ns
                gen = request_worker_loop(worker, reap, ops, qd,
                                          next_request, worker_cb)
            if worker.signal not in signals:
                signals.append(worker.signal)
            actors.append(self.rt.spawn(gen, worker.name))
        if is_tasks and workload.prerequisites:
            # a pending task may wait on another worker's task: every
            # finish, wherever it runs, wakes the workers to rescan
            for ectx in self.ectxs:
                ectx.dep_broadcast = tuple(signals)
        return actors

    def run(self, done_pred, on_done=None) -> None:
        wall = self.rt.mode == "wall"
        if wall:
            self.rt.clock.start(self.rt.fail)
        try:
            drive(self.rt, done_pred, on_done)
        finally:
            if wall:
                self.rt.clock.stop()

    def report(self, inbox_peaks=None, timeline=()):
        ectxs, self.ectxs = self.ectxs, []
        for ectx in ectxs:
            self.collector.absorb(ectx.collector)
        return finalize_report(self.collector, self.rt, self.device,
                               inbox_peaks, timeline)


# the run loop's limits: a virtual run's events, a wall run's seconds
MAX_EVENTS = 500_000_000
WALL_TIMEOUT_S = 300.0


def drive(rt, done_pred, on_done=None) -> None:
    """Drive a run to quiescence.

    Runs until ``done_pred`` holds, then fires ``on_done`` once (typically
    a stop broadcast that lets service actors exit) and lets the actors
    finish. Virtual: steps the calendar, then drains the remaining events;
    an idle calendar with the predicate still false is a deadlock and
    raises with that diagnosis, naming the parked actors and the rings.
    Wall: polls the predicate, then joins every actor. The first error, an
    actor's own or the run's (a timeout, a raising predicate), is raised at
    once and stops every actor at its next yield.
    """
    virtual = rt.mode == "virtual"
    n = 0
    if virtual:
        step = rt.clock.step
        while not done_pred():
            if not step():
                raise RuntimeError(_deadlock(rt))
            n += 1
            if n >= MAX_EVENTS:
                raise RuntimeError(f"event budget exhausted after {n} events")
    else:
        deadline = time.monotonic() + WALL_TIMEOUT_S
        try:
            while not done_pred():
                if rt.error is not None:
                    raise rt.error
                if time.monotonic() > deadline:
                    raise RuntimeError("wall run timed out before completion")
                time.sleep(0.0005)
        except BaseException as exc:
            rt.fail(exc)
            raise
    rt.workload_done_ns = rt.now()
    if on_done is not None:
        on_done()
    if virtual:
        rt.clock.run_until_idle(MAX_EVENTS - n)
        return
    for actor in rt.actors:
        actor.thread.join(max(0.0, deadline - time.monotonic()))
        if actor.thread.is_alive():
            rt.fail(RuntimeError(f"actor {actor.name} failed to finish"))
        if rt.error is not None:
            raise rt.error


def _deadlock(rt) -> str:
    """What an idle calendar leaves stuck: every live actor, each parked on
    a signal; each ring's SQ and CQ depths and the requests it accepted
    that have not completed; and in a pool run, the requests its dispatch
    layer holds."""
    parked = ", ".join(a.name for a in rt.actors if not a.done)
    rings = "".join(
        f"; ring {st.inst.instance_id}: sq {len(st.inst.sq)}, cq "
        f"{len(st.inst.cq)}, in flight {st.inst.pending_completion_count()}"
        for st in (rt.device.instances if rt.device else ()))
    pool = f"; pool: {rt.pool.held()}" if rt.pool else ""
    return ("virtual run deadlocked: calendar idle before completion; "
            f"parked: {parked}{rings}{pool}")


def finalize_report(collector, rt, device, inbox_peaks=None, timeline=()):
    # the measurement window ends at the last completion, not when the last
    # service actor tore down
    elapsed = (collector.last_completion_ns or rt.workload_done_ns
               or rt.now())
    device.finalize(device.clock.now)
    per_instance = [
        InstanceStats(i, util, poll, inbox_peaks[i] if inbox_peaks else 0)
        for i, (util, poll) in enumerate(zip(device.utilization(elapsed),
                                             device.poll_busy_ns()))]
    return collector.finalize(elapsed, per_instance, timeline)
