"""Traced runs: spans and exact counts around each layer's entry points.

Nothing in ``src/`` knows about tracing. ``Tracer.install`` patches class
attributes and module globals where the caller looks them up (for
example ``ringbench.arch.common.resume`` rather than
``ringbench.tasks.resume``, and ``drive`` as re-bound in each ``arch``
module); ``uninstall`` puts every original back and checks that it did.

A span has a name ("<layer>:<callable>"), start, end, parent and, where
the wrapped call sees a request or completion, its (instance_id,
request_id). Calendar work is attributed by wrapping ``VirtualClock.at``:
each scheduled callable runs inside a span named after its
``__qualname__`` and placed in the layer of its module. For generator
functions each resumption segment is a span, not the call that creates the
generator. Self time is a span's duration minus its child spans'.

Spans are kept in memory (up to ``max_spans``; later spans still count
towards the totals) and written out after the run.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

from ringbench import device, metrics, ring, runtime, tasks
from ringbench.arch import common, direct_access, driver, pool, \
    shared_nothing
from ringbench.tasks import KIND_POLL

# module of a scheduled callable -> layer its calendar event belongs to
_EVENT_LAYERS = {
    "ringbench.device": "device.sim",
    "ringbench.runtime": "runtime",
}

COUNTERS = ("events", "at_calls", "at_zero_delay", "sweeps", "empty_sweeps",
            "poll_wakes", "push_calls", "push_refused", "reap_calls",
            "reap_misses", "resumes", "notifies", "lock_acquisitions",
            "lock_contention", "items", "poll_hits", "pool_dispatches",
            "controller_steps", "pred_calls")


class Tracer:
    def __init__(self, max_spans: int = 0):
        self.max_spans = max_spans
        self.names = []
        self._ids = {}
        self.self_ns = []
        self.incl_ns = []
        self.calls = []
        self.top_ns = 0       # time covered by spans with no parent
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.n_spans = 0
        self._stack = []
        self._patches = []
        self.missing = []         # entry points this program does not have
        self._comp_instance = {}  # id(completion) -> instance_id, reap->deliver
        self.origin = time.perf_counter_ns()
        # kept spans, one entry per array: index, name, start, duration,
        # parent index, instance id, request id
        self.sp_idx = array("q")
        self.sp_name = array("i")
        self.sp_start = array("q")
        self.sp_dur = array("q")
        self.sp_parent = array("q")
        self.sp_iid = array("q")
        self.sp_rid = array("q")

    # -- spans -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.incl_ns.append(0)
            self.calls.append(0)
        return nid

    def open(self, nid: int) -> list:
        stack = self._stack
        parent = stack[-1][3] if stack else -1
        idx = self.n_spans
        self.n_spans = idx + 1
        entry = [nid, time.perf_counter_ns(), 0, idx, parent, -1, -1]
        stack.append(entry)
        return entry

    def close(self) -> None:
        end = time.perf_counter_ns()
        stack = self._stack
        nid, start, child, idx, parent, iid, rid = stack.pop()
        dur = end - start
        self.self_ns[nid] += dur - child
        self.incl_ns[nid] += dur
        self.calls[nid] += 1
        if stack:
            stack[-1][2] += dur
        else:
            self.top_ns += dur
        if idx < self.max_spans:
            self.sp_idx.append(idx)
            self.sp_name.append(nid)
            self.sp_start.append(start - self.origin)
            self.sp_dur.append(dur)
            self.sp_parent.append(parent)
            self.sp_iid.append(iid)
            self.sp_rid.append(rid)

    # -- wrappers ----------------------------------------------------------

    def _call(self, f, name, before=None, after=None):
        """Span around a plain call. ``before(entry, *args)`` may set the
        span's ident and returns state handed to ``after(state, result,
        *args)``, which runs inside the span so it can still set the
        ident."""
        nid = self.name_id(name)
        open_, close = self.open, self.close

        if before is None and after is None:
            @functools.wraps(f)
            def w(*args, **kw):
                open_(nid)
                try:
                    return f(*args, **kw)
                finally:
                    close()
            return w

        @functools.wraps(f)
        def w(*args, **kw):
            entry = open_(nid)
            state = before(entry, *args) if before is not None else None
            try:
                result = f(*args, **kw)
            except BaseException:
                close()
                raise
            if after is not None:
                after(state, result, *args)
            close()
            return result
        return w

    def _gen(self, f, name, ident=None, done=None):
        """Span around each resumption segment of a generator function.
        ``ident(*args)`` gives the segment spans' (instance_id, request_id);
        ``done(state, result)`` sees the return value, with ``state`` taken
        by ``ident`` before the first segment."""
        nid = self.name_id(name)
        open_, close = self.open, self.close

        @functools.wraps(f)
        def w(*args, **kw):
            state = ident(*args) if ident is not None else None
            gen = f(*args, **kw)
            send = gen.send
            value = None
            while True:
                entry = open_(nid)
                if state is not None:
                    entry[5], entry[6] = state[0], state[1]
                try:
                    item = send(value)
                except StopIteration as stop:
                    if done is not None:
                        done(state, stop.value)
                    return stop.value
                finally:
                    close()
                value = yield item
        return w

    def _patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)``. An entry point a
        later version of the program no longer has is skipped and listed in
        ``missing``, so the traced run still works with fewer spans."""
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _patch_function(self, home, attr: str, make) -> None:
        """Wrap a module-level function in every ringbench module whose
        globals bind it under its own name: where its callers look it up."""
        original = vars(home).get(attr)
        if original is None:
            self.missing.append(f"{home.__name__}.{attr}")
            return
        wrapper = make(original)
        for name, mod in sorted(sys.modules.items()):
            if (name == "ringbench" or name.startswith("ringbench.")) \
                    and vars(mod).get(attr) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        counts = self.counts
        call, gen = self._call, self._gen
        open_, close = self.open, self.close
        comp_instance = self._comp_instance

        def method(cls, attr, layer, generator=False, **hooks):
            wrap = gen if generator else call
            self._patch(cls, attr, lambda f: wrap(
                f, f"{layer}:{cls.__name__}.{attr}", **hooks))

        def function(home, attr, layer, generator=False, **hooks):
            wrap = gen if generator else call
            self._patch_function(home, attr, lambda f: wrap(
                f, f"{layer}:{attr}", **hooks))

        def count(key):
            def before(_entry, *_):
                counts[key] += 1
            return before

        # device.clock: heap push (at) and pop (step); the fired callable is
        # a child span of step, named by its qualname and layer
        at_nid = self.name_id("device.clock:VirtualClock.at")
        event_ids = {}

        def traced_at(orig_at):
            @functools.wraps(orig_at)
            def at(clock, t, fn):
                counts["at_calls"] += 1
                if t == clock.now:
                    counts["at_zero_delay"] += 1
                qual = getattr(fn, "__qualname__", type(fn).__qualname__)
                nid = event_ids.get(qual)
                if nid is None:
                    module = getattr(fn, "__module__", "") or ""
                    layer = _EVENT_LAYERS.get(
                        module, module.replace("ringbench.", "", 1))
                    nid = event_ids[qual] = self.name_id(
                        f"{layer}:event:{qual}")

                def event():
                    open_(nid)
                    try:
                        fn()
                    finally:
                        close()

                open_(at_nid)
                try:
                    orig_at(clock, t, event)
                finally:
                    close()
            return at

        def count_event(_state, fired, _clock):
            if fired:
                counts["events"] += 1

        VC = device.VirtualClock
        self._patch(VC, "at", traced_at)
        method(VC, "step", "device.clock", after=count_event)

        # device.sim
        def sweep_before(entry, _dev, st):
            entry[5] = st.inst.instance_id
            counts["sweeps"] += 1
            return st.consumed

        def sweep_after(consumed, _r, _dev, st):
            if st.consumed == consumed:
                counts["empty_sweeps"] += 1

        def st_req_ident(entry, _dev, st, req, *_):
            entry[5], entry[6] = st.inst.instance_id, req.request_id

        def wake_before(entry, _dev, st):
            entry[5] = st.inst.instance_id
            counts["poll_wakes"] += 1

        def inst_ident(entry, _dev, inst):
            entry[5] = inst.instance_id

        SD = device.SimDevice
        method(SD, "_on_submit_hook", "device.sim", before=inst_ident)
        method(SD, "_sweep", "device.sim", before=sweep_before,
               after=sweep_after)
        method(SD, "_complete", "device.sim", before=st_req_ident)
        method(SD, "_deliver", "device.sim", before=st_req_ident)
        method(SD, "_wake_poll", "device.sim", before=wake_before)
        method(SD, "_poll_check", "device.sim")

        # ring
        def push_before(entry, inst, *_):
            entry[5] = inst.instance_id
            counts["push_calls"] += 1
            return entry

        def push_after(entry, result, _inst, req, *_):
            entry[6] = req.request_id if req.request_id is not None else -1
            if result:  # anything but PushResult.ACCEPTED
                counts["push_refused"] += 1

        def reap_before(entry, inst, *_):
            entry[5] = inst.instance_id
            counts["reap_calls"] += 1
            return inst.instance_id

        def reap_after(instance_id, comps, *_):
            if not comps:
                counts["reap_misses"] += 1
            for c in comps:
                comp_instance[id(c)] = instance_id

        def deliver_ident(entry, inst, comp):
            entry[5], entry[6] = inst.instance_id, comp.request_id

        AI = ring.ApiInstance
        method(AI, "sq_push", "ring", before=push_before, after=push_after)
        method(AI, "cq_reap", "ring", before=reap_before, after=reap_after)
        method(AI, "deliver_completion", "ring", before=deliver_ident)
        method(ring.RingQueue, "peek", "ring")
        method(ring.RingQueue, "try_pop", "ring")

        # runtime; VirtualLock is used by direct access only
        def lock_ident(lock):
            return (-1, -1, lock, lock.contention)

        def lock_done(state, _result):
            counts["lock_acquisitions"] += 1
            counts["lock_contention"] += state[2].contention - state[3]

        method(runtime._VirtualActor, "_resume", "runtime",
               before=count("resumes"))
        method(runtime.Signal, "notify", "runtime", before=count("notifies"))
        method(runtime.VirtualLock, "acquire", "runtime", generator=True,
               ident=lock_ident, done=lock_done)
        method(runtime.VirtualLock, "release", "runtime")

        # arch.common: task engine, completion routing, request driver
        def item_ident(item, *_):
            kind, task = item[0], item[1]
            is_poll = ((kind == "unit"
                        and task.units[item[2]].kind == KIND_POLL)
                       or (kind == "frame" and task.pending_handle is not None))
            return (-1, -1, is_poll)

        def item_done(state, progressed):
            counts["items"] += 1
            if state[2] and progressed:
                counts["poll_hits"] += 1

        def completion_ident(_handle, comp, *_):
            return (comp_instance.pop(id(comp), -1), comp.request_id)

        function(common, "execute_item", "arch.common", generator=True,
                 ident=item_ident, done=item_done)
        function(common, "deliver_completion", "arch.common", generator=True,
                 ident=completion_ident)
        function(common, "_submit_unit_io", "arch.common", generator=True)
        for name in ("_finish_task", "_hand_to_owner", "start_task"):
            function(common, name, "arch.common")
        method(common.HandleFactory, "__call__", "arch.common")
        stream_nid = self.name_id("arch.common:request_stream.next_request")

        def traced_request_stream(orig):
            @functools.wraps(orig)
            def request_stream(*args, **kw):
                next_request = orig(*args, **kw)

                def traced_next_request():
                    open_(stream_nid)
                    try:
                        return next_request()
                    finally:
                        close()
                return traced_next_request
            return request_stream

        self._patch_function(common, "request_stream", traced_request_stream)

        # tasks, as the task engine looks them up
        for name in ("apply_io_result", "io_request_for", "make_coroutine",
                     "partition_callback", "partition_full", "resume",
                     "run_compute"):
            function(tasks, name, "tasks")
        method(tasks.Tasklet, "compute_cost", "tasks")

        # arch.driver: the run loop, its done predicate, the final report
        drive_nid = self.name_id("arch.driver:drive")
        pred_nid = self.name_id("arch.driver:done_pred")

        def traced_drive(orig):
            @functools.wraps(orig)
            def drive(rt, *args, **kw):
                if args and callable(args[0]):
                    done_pred = args[0]

                    def traced_pred():
                        counts["pred_calls"] += 1
                        open_(pred_nid)
                        try:
                            return done_pred()
                        finally:
                            close()
                    args = (traced_pred,) + args[1:]
                open_(drive_nid)
                try:
                    return orig(rt, *args, **kw)
                finally:
                    close()
            return drive

        self._patch_function(driver, "drive", traced_drive)
        function(driver, "finalize_report", "arch.driver")

        # per-architecture submit/reap hooks
        for cls, layer in ((shared_nothing._SnHooks, "arch.shared_nothing"),
                           (direct_access._DaHooks, "arch.direct_access")):
            for name in ("submit", "reap_phase"):
                method(cls, name, layer, generator=True)

        # arch.pool: dispatch layer, instance passes, controller
        IP, LM = pool.IoPool, pool.LoadMeter
        method(IP, "_submit_pass", "arch.pool", generator=True)
        method(IP, "_reap_pass", "arch.pool", generator=True)
        method(IP, "_dispatch", "arch.pool", before=count("pool_dispatches"))
        for name in ("_drain_overflow", "_unit_drained", "drained",
                     "set_active"):
            method(IP, name, "arch.pool")
        method(LM, "change", "arch.pool")
        method(LM, "window_mean", "arch.pool",
               before=count("controller_steps"))

        def traced_submitter_for(orig):
            @functools.wraps(orig)
            def submitter_for(pool_, collector):
                return gen(orig(pool_, collector),
                           "arch.pool:IoPool.submitter")
            return submitter_for

        self._patch(IP, "submitter_for", traced_submitter_for)

        # metrics
        for name in ("on_submit", "on_completion", "absorb", "finalize"):
            method(metrics.MetricsCollector, name, "metrics")
        method(metrics.LatencyHistogram, "add", "metrics")

    def uninstall(self) -> list:
        """Restore every patched attribute; return those that did not
        come back to the original object."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        wrong = [f"{getattr(owner, '__name__', owner)}.{attr}"
                 for owner, attr, original in self._patches
                 if vars(owner).get(attr) is not original]
        self._patches = []
        return wrong

    # -- results -------------------------------------------------------------

    def layer_self_ns(self) -> dict:
        out = {}
        for name, ns in zip(self.names, self.self_ns):
            layer = name.split(":", 1)[0]
            out[layer] = out.get(layer, 0) + ns
        return out

    def ns_of(self, suffix: str, table=None) -> int:
        table = self.self_ns if table is None else table
        return sum(ns for name, ns in zip(self.names, table)
                   if name.endswith(suffix))

    def exact(self) -> tuple:
        """Counts that must repeat bit-for-bit for the same inputs."""
        return (tuple(sorted(self.counts.items())),
                tuple(sorted(zip(self.names, self.calls))))

    def write(self, path: str) -> None:
        """Kept spans as Chrome/Perfetto trace-event JSON (gzip)."""
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write('{"displayTimeUnit":"ns","traceEvents":[\n')
            sep = ""
            for i in range(len(self.sp_idx)):
                name = names[self.sp_name[i]]
                iid, rid = self.sp_iid[i], self.sp_rid[i]
                extra = f',"iid":{iid}' if iid >= 0 else ""
                if rid >= 0:
                    extra += f',"rid":{rid}'
                fh.write(
                    f'{sep}{{"name":"{name}","cat":"{name.split(":", 1)[0]}",'
                    f'"ph":"X","pid":1,"tid":1,'
                    f'"ts":{self.sp_start[i] / 1000:.3f},'
                    f'"dur":{self.sp_dur[i] / 1000:.3f},'
                    f'"args":{{"id":{self.sp_idx[i]},'
                    f'"parent":{self.sp_parent[i]}{extra}}}}}')
                sep = ",\n"
            fh.write(f'\n],"otherData":{{"spans_total":{self.n_spans},'
                     f'"spans_kept":{len(self.sp_idx)}}}}}\n')
