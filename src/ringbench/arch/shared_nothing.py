"""Shared-nothing: every worker owns a private instance, zero cross-thread
communication. Parallelism is fully independent copies of the single-thread
loop, which is why the workload must be statically partitionable.

This module supplies the private-instance wiring, which makes the worker
its ring's only producer and reaper, and the hooks that submit to and reap
from that instance; the run assembly is ``driver.RunContext``.
"""

from __future__ import annotations

from ..ring import PushResult
from .common import TaskWorkload, check_partitionable, deliver_completion
from .driver import RunContext, RunOptions, check_sizes


class _SnHooks:
    """Submission and reaping against the worker's private instance."""

    def __init__(self, inst, worker):
        self.inst = inst
        self.rt = worker.rt
        self.costs = worker.costs
        self.worker = worker

    def submit(self, req, handle):
        yield self.costs.submit_cost_ns
        return self.inst.sq_push(req, self.rt.now()) == PushResult.ACCEPTED

    def reap_phase(self):
        comps = self.inst.cq_reap(64)
        if not comps:
            return False
        yield self.costs.reap_cost_ns * len(comps)
        worker = self.worker
        for c in comps:
            yield from deliver_completion(worker.new_handle.pop(c), c, worker)
        return True


def run_shared_nothing(workload, n_threads: int, scheme: str = "full", **kw):
    """Run the workload over n private (instance, worker) pairs.

    Takes the ``RunOptions`` keywords.
    """
    check_sizes(n_threads=n_threads)
    if isinstance(workload, TaskWorkload):
        check_partitionable(workload, n_threads)
    ctx = RunContext("shared_nothing", workload, RunOptions(**kw))

    def wire(worker):
        inst = ctx.ring.build(ctx.rt.executor_id)
        ctx.device.attach(inst, reaper_signal=worker.signal,
                          space_signal=worker.signal)
        hooks = _SnHooks(inst, worker)
        worker.cqs = (inst.cq,)
        return hooks.submit, hooks.reap_phase

    # each worker is a whole single-thread loop: it keeps the full qd
    ctx.spawn_workers(n_threads, scheme, wire, qd_per_worker=True)
    ctx.run(ctx.rt.all_exited())
    return ctx.report()
