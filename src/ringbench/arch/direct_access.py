"""Direct access: N workers share M instances behind per-queue locks.

The deliberate exception to the SPSC contract: every ring side is guarded
by a mutex, contention is counted, and a full SQ bounces the request back
to the caller because this architecture provides no buffering of its own.

This module supplies the lock-shared instances, the hooks that submit and
reap under those locks, and the contention count in the report; the run
assembly is ``driver.RunContext``.
"""

from __future__ import annotations

from ..ring import PushResult
from .common import deliver_completion
from .driver import RunContext, RunOptions, check_sizes


class _SharedInstance:
    __slots__ = ("inst", "sq_lock", "cq_lock")

    def __init__(self, inst, rt):
        self.inst = inst
        self.sq_lock = rt.lock()
        self.cq_lock = rt.lock()


class _DaHooks:
    def __init__(self, shared, worker):
        self.shared = shared
        self.rt = worker.rt
        self.costs = worker.costs
        self.worker = worker
        self._rr = worker.index  # spread first picks across workers

    def submit(self, req, handle):
        costs = self.costs
        sh = self.shared[self._rr % len(self.shared)]
        self._rr += 1
        yield from sh.sq_lock.acquire()
        yield costs.lock_hold_ns + costs.submit_cost_ns
        res = sh.inst.sq_push(req, self.rt.now())
        sh.sq_lock.release()
        # no buffering here: a refused request bounces back
        return res == PushResult.ACCEPTED

    def reap_phase(self):
        costs = self.costs
        progressed = False
        base = self._rr
        for k in range(len(self.shared)):
            sh = self.shared[(base + k) % len(self.shared)]
            if not len(sh.inst.cq):
                continue
            yield from sh.cq_lock.acquire()
            comps = sh.inst.cq_reap(32)
            yield costs.lock_hold_ns + costs.reap_cost_ns * len(comps)
            sh.cq_lock.release()
            if not comps:
                continue
            progressed = True
            worker = self.worker
            for c in comps:
                yield from deliver_completion(worker.new_handle.pop(c), c,
                                              worker)
        return progressed


def run_direct_access(workload, n_workers: int, m_instances: int,
                      scheme: str = "full", **kw):
    """N workers submitting directly to M mutex-guarded instances.

    Takes the ``RunOptions`` keywords.
    """
    check_sizes(n_workers=n_workers, m_instances=m_instances)
    ctx = RunContext("direct_access", workload, RunOptions(**kw))
    rt = ctx.rt
    wake_all = rt.signal()  # completions may matter to any worker
    shared = []
    for _ in range(m_instances):
        inst = ctx.ring.build()  # shared by design: no owner check
        ctx.device.attach(inst, reaper_signal=wake_all, space_signal=wake_all)
        shared.append(_SharedInstance(inst, rt))

    cqs = tuple(sh.inst.cq for sh in shared)

    def wire(worker):
        worker.signal = wake_all
        worker.cqs = cqs
        hooks = _DaHooks(shared, worker)
        return hooks.submit, hooks.reap_phase

    ctx.spawn_workers(n_workers, scheme, wire)
    ctx.run(rt.all_exited())
    for sh in shared:
        ctx.collector.contention_events += (sh.sq_lock.contention
                                            + sh.cq_lock.contention)
    return ctx.report()
