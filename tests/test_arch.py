"""Shared-nothing and direct-access architecture behavior."""

import itertools
import re
import sys
import threading
from collections import deque
from dataclasses import asdict
from types import SimpleNamespace

import pytest

from ringbench.arch import (ArrivalWorkload, ControllerConfig,
                            RequestWorkload, RingConfig, TaskWorkload,
                            THREADING_PAIR, WorkloadNotPartitionable,
                            run_direct_access, run_dynamic_pool,
                            run_shared_nothing, run_static_pool)
from ringbench.arch import common, driver
from ringbench.arch.common import (ExecContext, ExecCosts, HandleFactory,
                                   MissStreak, RequestHandle, Worker)
from ringbench.arch.driver import drive
from ringbench.bench import run_experiment
from ringbench.config import ARCHITECTURES, from_dict
from ringbench.device import DeviceConfig, SimDevice, VirtualClock
from ringbench.ring import (ApiInstance, Completion, CompletionStatus,
                            PushResult)
from ringbench.runtime import Runtime
from ringbench.tasks import (Geometry, IoStep, TaskSpec, generate_corpus,
                             io_count, oracle_states)
from ringbench.verify import (isolation_violations, run_violations,
                              scheme_violations)

US = 1_000
MS = 1_000_000

FAST_DEV = DeviceConfig(service_time_ns=2 * US, jitter_frac=0.0,
                        parallelism=64)
GEO = Geometry(FAST_DEV.block_size, FAST_DEV.capacity_bytes)


SCHEMES = ("full", "callback", "coroutine")
TASKS = {"kind": "tasks"}


def config(kind, seed, workers=2, instances=2, workload=TASKS, ring=None,
           **fields):
    """A config document on ``FAST_DEV``: ``workers`` workers over
    ``instances`` instances (shared-nothing: one each), the ``workload``
    section (a task run is given its specs) and top-level ``fields``."""
    arch = {"kind": kind, "n_workers": workers, "m_instances": instances,
            "k_instances": instances}
    if ring is not None:
        arch["ring"] = ring
    return from_dict({"device": asdict(FAST_DEV), "architecture": arch,
                      "workload": workload, "seed": seed, **fields})


class TestSharedNothing:
    def test_single_thread_equals_baseline(self):
        wl = RequestWorkload(op_count=5000, queue_depth=8)
        a = run_shared_nothing(wl, 1, device_cfg=FAST_DEV, seed=1)
        b = run_shared_nothing(wl, 1, device_cfg=FAST_DEV, seed=1)
        assert a.iops == b.iops
        assert run_violations(a, 5000) == []

    def test_zero_cross_thread_messages(self):
        wl = RequestWorkload(op_count=10_000, queue_depth=16)
        r = run_shared_nothing(wl, 4, device_cfg=FAST_DEV, seed=3)
        specs = generate_corpus(5, 30)
        r2 = run_shared_nothing(TaskWorkload(specs=specs), 4,
                                device_cfg=FAST_DEV, seed=3)
        assert isolation_violations([(4, r), (4, r2)]) == []

    def test_cross_shard_dependency_rejected(self):
        specs = generate_corpus(5, 8)
        wl = TaskWorkload(specs=specs, dependencies=[(0, 1)])
        with pytest.raises(WorkloadNotPartitionable):
            run_shared_nothing(wl, 2, device_cfg=FAST_DEV)

    def test_same_shard_dependency_allowed_and_ordered(self):
        specs = generate_corpus(6, 8)
        # 0 and 2 share a shard under 2 workers
        wl = TaskWorkload(specs=specs, dependencies=[(0, 2)])
        results = {}
        r = run_shared_nothing(wl, 2, device_cfg=FAST_DEV, seed=1,
                               results_out=results)
        assert run_violations(r, io_count(specs), results,
                              oracle_states(specs, GEO)) == []

    def test_spsc_audit_clean(self):
        wl = RequestWorkload(op_count=4000, queue_depth=8)
        run_shared_nothing(wl, 3, device_cfg=FAST_DEV, seed=4)

    def test_single_task_throughput_bounded_by_single_instance_max(self):
        # a sequential task cannot beat the measured qd=1 rate of one instance
        dcfg = DeviceConfig(service_time_ns=50 * US, jitter_frac=0.0,
                            parallelism=64)
        qd1 = run_shared_nothing(
            RequestWorkload(op_count=2000, queue_depth=1), 1,
            device_cfg=dcfg, seed=5)
        single_instance_max = qd1.iops
        spec = TaskSpec(task_id=0, steps=tuple(IoStep("read", 1, "stride")
                                               for _ in range(500)))
        r = run_shared_nothing(TaskWorkload(specs=[spec]), 1,
                               device_cfg=dcfg, seed=5)
        task_io_rate = r.completed_ok * 1e9 / r.elapsed_ns
        assert task_io_rate <= single_instance_max * 1.02

    def test_wall_mode_conserves(self):
        wl = RequestWorkload(op_count=1200, queue_depth=8)
        r = run_shared_nothing(wl, 2, device_cfg=FAST_DEV, mode="wall",
                               seed=6)
        assert run_violations(r, 1200) == []
        assert isolation_violations([(2, r)]) == []


class TestDirectAccess:
    def test_n1_m1_equals_shared_nothing_no_contention(self):
        wl = RequestWorkload(op_count=3000, queue_depth=8)
        r = run_direct_access(wl, 1, 1, device_cfg=FAST_DEV, seed=1)
        assert r.contention_events == 0
        assert run_violations(r, 3000) == []

    def test_contention_with_shared_instance(self):
        wl = RequestWorkload(op_count=20_000, queue_depth=32)
        r = run_direct_access(wl, 8, 1, device_cfg=FAST_DEV, seed=2)
        assert r.contention_events > 0

    def test_iops_not_above_static_pool_on_identical_workload(self):
        # consumer-bound configuration, identical seed: A/B comparison
        wl = RequestWorkload(op_count=30_000, queue_depth=32)
        da = run_direct_access(wl, 8, 1, device_cfg=FAST_DEV, seed=7)
        sp = run_static_pool(wl, 8, 1, device_cfg=FAST_DEV, seed=7)
        assert da.contention_events > 0
        assert da.iops <= sp.iops * 1.02

    def test_full_sq_bounces_to_caller_with_retry_count(self):
        # tiny rings and a slow device force bouncing
        slow = DeviceConfig(service_time_ns=5 * MS, jitter_frac=0.0,
                            parallelism=1)
        ring = RingConfig(sq_capacity=4, cq_capacity=8)
        wl = RequestWorkload(op_count=64, queue_depth=64)
        r = run_direct_access(wl, 2, 1, device_cfg=slow, ring=ring, seed=3)
        assert r.sq_full_retries > 0
        assert run_violations(r, 64) == []

    def test_task_schemes_match_oracle(self):
        assert scheme_violations(generate_corpus(8, 30), [
            config("direct_access", 4, workers=3)]) == []

    def test_wall_mode_conserves(self):
        wl = RequestWorkload(op_count=1000, queue_depth=8)
        r = run_direct_access(wl, 3, 2, device_cfg=FAST_DEV, mode="wall",
                              seed=5)
        assert run_violations(r, 1000) == []


# task ids shard as task_id % 2 over two workers: shared-nothing
# takes only same-shard dependencies, the other architectures also cross
SAME_SHARD_DEPS = [(0, 2), (2, 6), (4, 6), (1, 7), (3, 5)]
CROSS_SHARD_DEPS = SAME_SHARD_DEPS + [(0, 3), (5, 2), (6, 7)]


def recorded_starts(monkeypatch, workload):
    """Patch ``start_task`` to list the ids of the tasks started, in order,
    and to fail a start whose prerequisites have not all finished."""
    started = []
    start_task = common.start_task

    def recording(spec, scheme, owner, geometry):
        unmet = [before for before, after in workload.dependencies
                 if after == spec.task_id and before not in owner.results]
        assert not unmet, f"task {spec.task_id} started before {unmet}"
        started.append(spec.task_id)
        return start_task(spec, scheme, owner, geometry)

    monkeypatch.setattr(common, "start_task", recording)
    return started


class TestDependencies:
    """A worker starts the first pending task of its shard, in shard order,
    whose prerequisites have all finished, on every architecture and under
    every scheme."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_states_equal_oracle(self, monkeypatch, arch, scheme):
        specs = generate_corpus(9, 10)
        deps = SAME_SHARD_DEPS if arch == "shared_nothing" \
            else CROSS_SHARD_DEPS
        wl = TaskWorkload(specs=specs, dependencies=deps,
                          max_live_per_worker=2)
        started = recorded_starts(monkeypatch, wl)
        results = {}
        r = run_experiment(config(arch, 2, scheme=scheme), workload=wl,
                           results_out=results)
        assert run_violations(r, io_count(specs), results,
                              oracle_states(specs, GEO)) == []
        assert sorted(started) == list(range(10))

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_ready_tasks_start_in_shard_order(self, monkeypatch, arch):
        # 1 finishes long before 0, so 3 starts while 2 and 4 still wait
        # on 0; once 0 finishes, 2 must start before 4
        read = IoStep("read", 1, "stride")
        specs = [TaskSpec(0, (read,) * 6)] + [
            TaskSpec(i, (read,)) for i in range(1, 5)]
        wl = TaskWorkload(specs=specs,
                          dependencies=[(0, 2), (1, 3), (0, 4)])
        started = recorded_starts(monkeypatch, wl)
        run_experiment(config(arch, 1, workers=1, instances=1), workload=wl)
        assert started == [0, 1, 3, 2, 4]


def requests_50():
    return RequestWorkload(op_count=50, queue_depth=4)


def arrivals():
    return ArrivalWorkload(phases=[(MS, 20_000)])


def tasks_with_deps(dependencies):
    return TaskWorkload(specs=generate_corpus(1, 4),
                        dependencies=dependencies)


class TestRunArguments:
    """Each runner takes its own sizes and knobs: a size below 1, a
    negative callback cost or scheduling jitter, an unknown op kind or
    scheme, an arrival phase that cannot run, an arrival workload off the
    pools, two specs with one task id, or a dependency on a task outside
    the corpus or in a cycle raises a ``ValueError`` that starts with the
    argument's or field's name, and a pool knob given to shared-nothing or
    direct access is a ``TypeError``."""

    @pytest.mark.parametrize("call,arg", [
        (lambda: run_shared_nothing(requests_50(), 0), "n_threads"),
        (lambda: run_direct_access(requests_50(), 0, 1), "n_workers"),
        (lambda: run_direct_access(requests_50(), 1, 0), "m_instances"),
        (lambda: run_static_pool(requests_50(), 0, 1), "n_workers"),
        (lambda: run_static_pool(TaskWorkload(specs=generate_corpus(1, 4)),
                                 0, 1), "n_workers"),
        (lambda: run_static_pool(requests_50(), 1, 0), "k_instances"),
        (lambda: run_dynamic_pool(requests_50(), 1, 0), "k_instances"),
        (lambda: run_static_pool(requests_50(), 1, 1, inbox_capacity=0),
         "inbox_capacity"),
        (lambda: RequestWorkload(op_count=50, queue_depth=0), "queue_depth"),
        (lambda: RequestWorkload(callback_cost_ns=-5000), "callback_cost_ns"),
        (lambda: TaskWorkload(specs=generate_corpus(1, 4),
                              max_live_per_worker=0), "max_live_per_worker"),
        (lambda: run_shared_nothing(arrivals(), 1), "workload"),
        (lambda: run_direct_access(arrivals(), 1, 1), "workload"),
        (lambda: RequestWorkload(op_count=0), "op_count"),
        (lambda: RequestWorkload(op_count=-3), "op_count"),
        (lambda: ArrivalWorkload(phases=[]), "phases"),
        (lambda: ArrivalWorkload(phases=[(-MS, 20_000)]), "phases[0]"),
        (lambda: ArrivalWorkload(phases=[(MS, 20_000), (MS, -5)]),
         "phases[1]"),
        (lambda: run_shared_nothing(RequestWorkload(op_count=10), 1,
                                    scheme="bogus"), "scheme"),
        (lambda: run_static_pool(TaskWorkload(specs=generate_corpus(1, 4)),
                                 1, 1, scheme="bogus"), "scheme"),
        (lambda: run_dynamic_pool(arrivals(), 0, 2), "n_workers"),
        (lambda: run_static_pool(arrivals(), 1, 2, scheme="bogus"), "scheme"),
        (lambda: run_shared_nothing(RequestWorkload(op_count=10,
                                                    queue_depth=2), 1,
                                    sched_jitter_ns=-5), "sched_jitter_ns"),
        (lambda: run_shared_nothing(RequestWorkload(op_count=10,
                                                    queue_depth=2), 1,
                                    mode="wall", sched_jitter_ns=-5),
         "sched_jitter_ns"),
        (lambda: tasks_with_deps([(99, 0)]), "dependencies"),
        (lambda: tasks_with_deps([(0, 99)]), "dependencies"),
        (lambda: tasks_with_deps([(0, 0)]), "dependencies"),
        (lambda: tasks_with_deps([(0, 1), (1, 2), (2, 0)]), "dependencies"),
        (lambda: TaskWorkload(specs=generate_corpus(1, 4)
                              + generate_corpus(2, 1)), "specs"),
    ], ids=["shared_nothing-threads", "direct_access-workers",
            "direct_access-instances", "static_pool-workers",
            "static_pool-task-workers", "static_pool-instances",
            "dynamic_pool-instances", "inbox_capacity", "queue_depth",
            "negative-callback-cost", "max_live_per_worker",
            "shared_nothing-arrivals", "direct_access-arrivals",
            "op_count-zero", "op_count-negative", "no-phases",
            "negative-duration", "negative-rate", "shared_nothing-scheme",
            "static_pool-task-scheme", "dynamic_pool-arrival-workers",
            "static_pool-arrival-scheme", "negative-jitter",
            "negative-jitter-wall", "dependency-before-unknown",
            "dependency-after-unknown", "dependency-on-itself",
            "dependency-cycle", "duplicate-task-id"])
    def test_size_below_one_rejected(self, call, arg):
        with pytest.raises(ValueError, match=f"^{re.escape(arg)} "):
            call()

    @pytest.mark.parametrize("knob", [
        {"exec_mode": "io_threads"}, {"policy": "round_robin"},
        {"inbox_capacity": 8}, {"threading_mode": THREADING_PAIR}],
        ids=["exec_mode", "policy", "inbox_capacity", "threading_mode"])
    @pytest.mark.parametrize("fn,args", [
        (run_shared_nothing, (1,)), (run_direct_access, (1, 1))],
        ids=["shared_nothing", "direct_access"])
    def test_pool_knob_rejected(self, fn, args, knob):
        with pytest.raises(TypeError, match=list(knob)[0]):
            fn(requests_50(), *args, device_cfg=FAST_DEV, **knob)


class TestRunPredicate:
    """Shared-nothing and direct access run until every actor has exited:
    a live-actor count in virtual mode, the actors' done flags in wall
    mode."""

    @pytest.mark.parametrize("runner,extra", [
        (run_shared_nothing, (2,)), (run_direct_access, (2, 2))])
    def test_actor_parked_forever_is_diagnosed(self, monkeypatch, runner,
                                               extra):
        # a device that loses every completion leaves the workers parked
        # on their signals with nothing left on the calendar, and each
        # ring holding the requests it lost: a shared-nothing worker keeps
        # the whole depth 4 on its own ring, direct access splits it
        monkeypatch.setattr(SimDevice, "_deliver", lambda *args: None)
        wl = RequestWorkload(op_count=40, queue_depth=4)
        in_flight = 4 if runner is run_shared_nothing else 2
        rings = "".join(f"; ring {i}: sq 0, cq 0, in flight {in_flight}"
                        for i in range(2))
        with pytest.raises(RuntimeError, match=(
                "^virtual run deadlocked: calendar idle before completion; "
                f"parked: worker-0, worker-1{rings}$")):
            runner(wl, *extra, device_cfg=FAST_DEV, seed=1)

    @pytest.mark.parametrize("scheme", ("full", "coroutine"))
    @pytest.mark.parametrize("runner,extra", [
        (run_shared_nothing, (2,)), (run_direct_access, (2, 2))])
    def test_spinning_workers_park_and_are_diagnosed(self, monkeypatch,
                                                     runner, extra, scheme):
        # a streak of poll misses is one calendar event, its end; with
        # every completion lost, each streak must still end, and the
        # workers park
        monkeypatch.setattr(SimDevice, "_deliver", lambda *args: None)
        wl = TaskWorkload(specs=generate_corpus(53, 12))
        with pytest.raises(RuntimeError, match="virtual run deadlocked"):
            runner(wl, *extra, scheme=scheme, device_cfg=FAST_DEV, seed=1)

    def test_counts_live_virtual_actors(self):
        rt = Runtime("virtual")
        never = rt.signal()

        def exits():
            yield 1_000

        def parks():
            yield never

        rt.spawn(exits(), "exits")
        rt.spawn(parks(), "parks")
        done = rt.all_exited()
        assert rt.live == 2 and not done()
        with pytest.raises(RuntimeError, match="virtual run deadlocked"):
            drive(rt, done)
        assert rt.live == 1

    def test_wall_mode_reads_done_flags(self):
        rt = Runtime("wall")

        def short():
            yield 1_000

        for i in range(3):
            rt.spawn(short(), f"a{i}")
        drive(rt, rt.all_exited())
        assert rt.live == 0  # wall actors are not counted
        assert all(a.done for a in rt.actors)


class TestYieldProtocol:
    """A yielded ``0`` charges nothing: the virtual runtime sends it
    straight back, so the actor goes on in the same calendar event and as
    the same executor."""

    def test_zero_charge_continues_in_the_same_event(self):
        rt = Runtime("virtual")
        steps = []

        def charges_zero():
            steps.append(("a", rt.executor_id()))
            yield 0
            steps.append(("a", rt.executor_id()))

        def other():
            steps.append(("b", rt.executor_id()))
            yield from ()

        rt.spawn(charges_zero(), "a")
        rt.spawn(other(), "b")
        assert rt.clock.run_until_idle() == 2
        assert steps == [("a", "a"), ("a", "a"), ("b", "b")]
        assert rt.live == 0


class TestMissStreak:
    """``MissStreak`` against a per-miss model of its rule, in which each
    check is a plain event. A streak that starts at ``T0`` with ``n``
    items checks item k at ``T0 + k * cost`` and sees a completion only if
    it was delivered strictly before then; it ends at its first check
    that hits, or at k = n. Each item's completion comes never, or at a
    check's instant, one ns before it or one ns after it."""

    T0 = 50
    COSTS = ExecCosts(poll_cost_ns=6, resume_cost_ns=4)

    def deliveries(self, n, cost):
        # item 0 is the front item: it misses, so its completion is not
        # delivered before the streak starts
        times = [self.T0 + j * cost + d for j in range(n + 1)
                 for d in (-1, 0, 1)]
        return itertools.product(
            *([None] + [t for t in times if t >= self.T0 or i]
              for i in range(n)))

    def make(self, scheme):
        """A run's stand-in: its runtime, a worker, its streak and a
        reaper."""
        rt = Runtime("virtual")
        run = SimpleNamespace(rt=rt, costs=self.COSTS, geometry=GEO,
                              results={}, new_handle=None, ectxs=[],
                              run_id="streak")
        worker = Worker(0, run)
        return rt, worker, MissStreak(worker, scheme), ExecContext(run)

    def streak(self, scheme, done_at):
        """The end of an armed ``MissStreak`` of ``len(done_at)`` items,
        whose completions are delivered at ``done_at``: [(time, misses,
        rotation, respawns, which items are done)] per resume. A
        completion from ``T0`` on is scheduled after the streak is armed,
        so that it can tie with the streak's end."""
        rt, worker, streak, reaper = self.make(scheme)
        handles = [RequestHandle(i, worker) for i in range(len(done_at))]
        worker.ready.extend(("unit", SimpleNamespace(pending_handle=h), i)
                            for i, h in enumerate(handles))
        ends = []

        def start():
            assert streak.start(len(handles))
            streak.arm(lambda: ends.append((
                rt.now(), streak.count, [item[2] for item in worker.ready],
                worker.collector.tasklet_respawns,
                [item[1].pending_handle.completion is not None
                 for item in worker.ready])))

        def deliver(handle):
            comp = Completion(handle.handle_id, handle.handle_id,
                              CompletionStatus.OK, 0, rt.now())
            assert list(common.deliver_completion(handle, comp,
                                                  reaper)) == []

        def schedule(late):
            for handle, t in zip(handles, done_at):
                if t is not None and (t >= self.T0) == late:
                    rt.clock.at(t, lambda h=handle: deliver(h))

        schedule(late=False)
        rt.clock.at(self.T0, start)
        rt.clock.at(self.T0, lambda: schedule(late=True))
        rt.clock.run_until_idle()
        assert worker.spinning is None
        return ends

    def reference(self, cost, done_at):
        """The rule, one plain event per check."""
        clock = VirtualClock()
        ready = deque(range(len(done_at)))
        ends = []
        missed = [0]

        def end(t):
            # the worker resumes after every completion due at t
            ends.append((t, missed[0], list(ready), missed[0],
                         [done_at[i] is not None and done_at[i] <= t
                          for i in ready]))

        def check():
            t = done_at[ready[0]]
            if missed[0] and t is not None and t < clock.now:
                end(clock.now)
                return
            missed[0] += 1
            ready.rotate(-1)
            if missed[0] == len(done_at):
                end(clock.now + cost)
            else:
                clock.at(clock.now + cost, check)

        clock.at(self.T0, check)
        clock.run_until_idle()
        return ends

    @pytest.mark.parametrize("scheme", ("full", "coroutine"))
    def test_streak_ends_where_the_per_miss_model_does(self, scheme):
        cost = self.make(scheme)[2].cost
        wrong = []
        for n in (1, 2, 3):
            for done_at in self.deliveries(n, cost):
                got, want = self.streak(scheme, done_at), \
                    self.reference(cost, done_at)
                if got != want:
                    wrong.append((done_at, got, want))
        assert wrong == []


class TestBouncedTaskSubmissions:
    """A task submission refused by a full SQ goes back to its owner as a
    retry item; the retried tasks must still end in the oracle states."""

    @pytest.mark.parametrize("capacity", (1, 2))
    @pytest.mark.parametrize("fn,args", [
        pytest.param(run_shared_nothing, (3,), id="shared_nothing"),
        pytest.param(run_direct_access, (4, 2), id="direct_access")])
    def test_retries_reach_oracle_states(self, fn, args, capacity):
        specs = generate_corpus(5, 120)
        expect = oracle_states(specs, GEO)
        ring = RingConfig(sq_capacity=capacity, cq_capacity=capacity)
        for scheme in SCHEMES:
            results = {}
            r = fn(TaskWorkload(specs=list(specs)), *args, scheme=scheme,
                   device_cfg=FAST_DEV, ring=ring, seed=1,
                   sched_jitter_ns=300, results_out=results)
            assert run_violations(r, io_count(specs), results, expect) \
                == [], scheme
            assert r.sq_full_retries > 0, scheme
            if fn is run_direct_access:
                # a reaping worker hands others' bounced tasks back
                assert r.cross_thread_msgs > 0, scheme


class TestSpaceWakeups:
    """A consume wakes a ring's producers only after a refused push. On
    one- and two-entry rings pushes are refused all the time, so a
    producer that waits for room and is not woken shows as a deadlock."""

    RUNS = {
        "shared_nothing": (run_shared_nothing, (2,), {}),
        "direct_access": (run_direct_access, (3, 2), {}),
        "static_pool": (run_static_pool, (2, 2), {}),
        "static_pool_pair": (run_static_pool, (2, 2),
                             {"threading_mode": THREADING_PAIR}),
        "dynamic_pool": (run_dynamic_pool, (2, 2), {}),
        "dynamic_pool_pair": (run_dynamic_pool, (2, 2),
                              {"threading_mode": THREADING_PAIR}),
    }

    @pytest.mark.parametrize("capacity", (1, 2))
    @pytest.mark.parametrize("run", list(RUNS))
    def test_no_lost_wakeup(self, monkeypatch, run, capacity):
        refused = [0]
        sq_push = ApiInstance.sq_push

        def counting_push(inst, req, now=0):
            result = sq_push(inst, req, now)
            refused[0] += result != PushResult.ACCEPTED
            return result

        monkeypatch.setattr(ApiInstance, "sq_push", counting_push)
        fn, args, kw = self.RUNS[run]
        dev = DeviceConfig(service_time_ns=2 * US, jitter_frac=0.2,
                           parallelism=2)
        kw = dict(kw, device_cfg=dev, seed=5, sched_jitter_ns=300,
                  ring=RingConfig(sq_capacity=capacity, cq_capacity=capacity))
        r = fn(RequestWorkload(op_count=300, queue_depth=8), *args, **kw)
        assert run_violations(r, 300) == [], "requests"
        specs = generate_corpus(5, 40)
        expect = oracle_states(specs, GEO)
        for scheme in SCHEMES:
            results = {}
            r = fn(TaskWorkload(specs=list(specs)), *args, scheme=scheme,
                   results_out=results, **kw)
            assert run_violations(r, io_count(specs), results, expect) \
                == [], scheme
        assert refused[0] > 0


class TestWallDeviceThread:
    """In wall mode only the device thread touches the device's state: a
    push hands the submission hook to it, so every sweep and every poll
    thread's wake is scheduled there."""

    @pytest.mark.parametrize("name", ARCHITECTURES)
    def test_sweeps_and_wakes_run_on_the_device_thread(self, monkeypatch,
                                                       name):
        seen = {"_sweep_soon": set(), "_wake_poll": set()}
        for method, threads in seen.items():
            def recording(device, *args, _orig=getattr(SimDevice, method),
                          _threads=threads):
                _threads.add(threading.current_thread().name)
                return _orig(device, *args)

            monkeypatch.setattr(SimDevice, method, recording)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            # a 1 us idle timeout puts the poll threads to sleep between
            # pushes
            r = run_experiment(config(
                name, 2, workload={"op_count": 400, "queue_depth": 8},
                ring={"idle_timeout_ns": 1_000}, mode="wall"))
        finally:
            sys.setswitchinterval(interval)
        assert run_violations(r, 400) == []
        assert seen == {"_sweep_soon": {"ringbench-device"},
                        "_wake_poll": {"ringbench-device"}}


class TestPlacementInstrumentation:
    """Tasklet atomicity and the callback-placement rule: every unit
    execution is recorded as (phase, executor, item) at its begin and end
    by wrapping the task engine's ``execute_item``."""

    @staticmethod
    def _run_traced(monkeypatch, cfg):
        events = []
        execute_item = common.execute_item

        def traced(item, ectx):
            events.append(("begin", ectx.rt.executor_id(), item))
            result = yield from execute_item(item, ectx)
            events.append(("end", ectx.rt.executor_id(), item))
            return result

        monkeypatch.setattr(common, "execute_item", traced)
        run_experiment(cfg, workload=TaskWorkload(
            specs=generate_corpus(77, 20)))
        return events

    # the static pool cases keep the bare scheme as their id
    @pytest.mark.parametrize("arch,scheme", [
        pytest.param(arch, scheme, id=scheme if arch == "static_pool"
                     else f"{arch}-{scheme}")
        for arch in ARCHITECTURES for scheme in SCHEMES])
    def test_tasklet_starts_and_ends_on_one_executor(self, monkeypatch, arch,
                                                      scheme):
        events = self._run_traced(monkeypatch,
                                  config(arch, 9, scheme=scheme))
        stack = {}
        for phase, executor, item in events:
            key = id(item)
            if phase == "begin":
                stack[key] = executor
            else:
                assert stack.pop(key) == executor, \
                    "tasklet migrated executors mid-run"
        assert not stack

    def test_callback_fused_units_run_on_reaping_executor(self, monkeypatch):
        # in a pool, completions are reaped by io-instance actors; under
        # callback partitioning the fused unit must execute right there
        events = self._run_traced(monkeypatch, config(
            "static_pool", 9, workers=3, scheme="callback"))
        fused = [e for e in events if e[2][0] == "fused" and e[0] == "begin"]
        assert fused, "callback scheme must produce fused executions"
        assert all(str(executor).startswith("io-")
                   for _, executor, _ in fused)

    def test_full_scheme_polls_stay_on_workers(self, monkeypatch):
        events = self._run_traced(monkeypatch,
                                  config("static_pool", 9, workers=3))
        units = [e for e in events if e[2][0] == "unit" and e[0] == "begin"]
        assert units
        assert all(str(executor).startswith("worker-")
                   for _, executor, _ in units)


class TestSchemeEquivalence:
    @pytest.mark.parametrize("arch,extra", [
        ("shared_nothing", {"n_workers": 2}),
        ("static_pool", {"n_workers": 2, "k_instances": 2}),
        ("direct_access", {"n_workers": 2, "m_instances": 2}),
        ("dynamic_pool", {"n_workers": 2, "k_instances": 2})])
    def test_final_states_bit_identical_across_schemes(self, arch, extra):
        cfg = from_dict({"device": asdict(FAST_DEV),
                         "architecture": dict(extra, kind=arch),
                         "workload": TASKS, "seed": 11})
        assert scheme_violations(generate_corpus(31, 40), [cfg]) == []

    def test_interleave_jitter_does_not_change_states(self):
        specs = generate_corpus(32, 25)
        expect = oracle_states(specs, GEO)
        for jitter_seed in (1, 2, 3):
            results = {}
            r = run_static_pool(TaskWorkload(specs=list(specs)), 2, 2,
                                scheme="full", device_cfg=FAST_DEV,
                                seed=jitter_seed, sched_jitter_ns=400,
                                results_out=results)
            assert run_violations(r, io_count(specs), results, expect) == []


class TestHandleRegistry:
    """The run's handle factory maps each handle it made until the reaper
    pops it, bounced submissions included: a finished run leaves none."""

    @staticmethod
    def record_factories(monkeypatch):
        factories = []

        class Recording(HandleFactory):
            def __init__(self):
                super().__init__()
                factories.append(self)

        monkeypatch.setattr(driver, "HandleFactory", Recording)
        return factories

    @pytest.mark.parametrize("mode", ("virtual", "wall"))
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_finished_run_leaves_no_handle(self, monkeypatch, arch, mode):
        factories = self.record_factories(monkeypatch)
        ring = {"sq_capacity": 1, "cq_capacity": 1}
        specs = generate_corpus(9, 24, max_steps=6)
        results = {}
        r = run_experiment(config(arch, 2, ring=ring, scheme="callback",
                                  mode=mode),
                           workload=TaskWorkload(specs=specs),
                           results_out=results)
        assert run_violations(r, io_count(specs), results,
                              oracle_states(specs, GEO)) == []
        r = run_experiment(config(
            arch, 3, workload={"op_count": 300, "queue_depth": 8}, ring=ring,
            mode=mode))
        assert run_violations(r, 300) == []
        assert len(factories) == 2
        assert [f._live for f in factories] == [{}, {}]

    @pytest.mark.parametrize("fn", (run_direct_access, run_static_pool))
    def test_wall_threads_share_one_registry(self, monkeypatch, fn):
        # more threads than cores and a short switch interval: handles made
        # and popped by racing threads still come out exactly once each
        factories = self.record_factories(monkeypatch)
        ring = RingConfig(sq_capacity=2, cq_capacity=2)
        prev = sys.getswitchinterval()
        sys.setswitchinterval(5e-5)
        try:
            r = fn(RequestWorkload(op_count=4000, queue_depth=16), 4, 2,
                   device_cfg=FAST_DEV, ring=ring, mode="wall", seed=4)
        finally:
            sys.setswitchinterval(prev)
        assert run_violations(r, 4000) == []
        assert factories[0]._live == {}


class TestExecutors:
    """Every actor that charges CPU runs on an executor of its own, made
    through the run's ``RunContext``, and the report absorbs each
    executor's collector."""

    SPECS = generate_corpus(11, 12, max_steps=4)
    ARRIVALS = ArrivalWorkload(phases=[(MS, 20_000)])

    @pytest.mark.parametrize("fn,workload,args,threading,expect", [
        (run_shared_nothing, "tasks", (3,), None, 3),
        (run_direct_access, "tasks", (3, 2), None, 3),
        (run_static_pool, "tasks", (3, 2), None, 3 + 2),
        (run_static_pool, "tasks", (3, 2), THREADING_PAIR, 3 + 2 * 2),
        (run_dynamic_pool, "arrivals", (1, 3), None, 1 + 3),
        (run_dynamic_pool, "arrivals", (1, 3), THREADING_PAIR, 1 + 3 * 2),
    ], ids=["shared_nothing", "direct_access", "static_pool",
            "static_pool-pair", "arrivals", "arrivals-pair"])
    def test_one_executor_per_actor(self, monkeypatch, fn, workload, args,
                                    threading, expect):
        seen = []
        report = driver.RunContext.report

        def counting_report(ctx, *a, **kw):
            seen.append([id(e.collector) for e in ctx.ectxs])
            return report(ctx, *a, **kw)

        monkeypatch.setattr(driver.RunContext, "report", counting_report)
        tasks = workload == "tasks"
        wl = TaskWorkload(specs=list(self.SPECS)) if tasks else self.ARRIVALS
        kw = {"threading_mode": threading} if threading else {}
        r = fn(wl, *args, device_cfg=FAST_DEV, seed=5, **kw)
        assert run_violations(r, io_count(self.SPECS) if tasks
                              else self.ARRIVALS.total_ops()) == []
        [collectors] = seen
        assert len(collectors) == expect
        assert len(set(collectors)) == expect


class TestRingOwnership:
    """Every ring outside direct access enforces its own single producer
    and single reaper; after a run each side's owner is the actor the
    architecture gives it (in wall mode, the actor's thread)."""

    SPECS = generate_corpus(13, 16, max_steps=4)
    # a burst on small rings makes the controller activate all 3 instances
    ARRIVALS = ArrivalWorkload(phases=[(MS, 20_000), (MS, 4_000_000)])
    ARRIVAL_KW = {"controller": ControllerConfig(window_ns=100 * US),
                  "ring": RingConfig(sq_capacity=4, cq_capacity=8)}
    PAIR = {"threading_mode": THREADING_PAIR}

    def io(i):
        return f"io-{i}", f"io-{i}"

    def io_pair(i):
        return f"io-{i}-submit", f"io-{i}-reap"

    @pytest.mark.parametrize("fn,args,kw,owners", [
        (run_shared_nothing, (3,), {}, lambda i: (f"worker-{i}",) * 2),
        (run_direct_access, (3, 2), {}, lambda i: (None, None)),
        (run_static_pool, (3, 2), {}, io),
        (run_static_pool, (3, 2), PAIR, io_pair),
        (run_dynamic_pool, (3, 2), {}, io),
        (run_dynamic_pool, (1, 3), ARRIVAL_KW, io),
        (run_static_pool, (3, 2), {"mode": "wall"}, io),
        (run_static_pool, (3, 2), {"mode": "wall", **PAIR}, io_pair),
    ], ids=["shared_nothing", "direct_access", "static_pool",
            "static_pool-pair", "dynamic_pool", "arrivals",
            "static_pool-wall", "static_pool-pair-wall"])
    def test_each_side_owned_by_its_actor(self, monkeypatch, fn, args, kw,
                                          owners):
        rings = []
        attach = SimDevice.attach

        def recording_attach(device, inst, *a, **kw):
            rings.append(inst)
            return attach(device, inst, *a, **kw)

        monkeypatch.setattr(SimDevice, "attach", recording_attach)
        arrivals = kw is self.ARRIVAL_KW
        wl = self.ARRIVALS if arrivals \
            else TaskWorkload(specs=list(self.SPECS))
        r = fn(wl, *args, device_cfg=FAST_DEV, seed=7, **kw)
        assert run_violations(r, self.ARRIVALS.total_ops() if arrivals
                              else io_count(self.SPECS)) == []
        assert [inst.instance_id for inst in rings] == list(range(args[-1]))
        for i, inst in enumerate(rings):
            assert (inst.producer, inst.reaper) == owners(i), i


class TestNoEmptyReaps:
    """An actor reaps only when a CQ it reaps holds a completion: an empty
    ``cq_reap`` takes nothing and charges nothing. Direct access is left
    out: a worker that waited for a CQ lock can find the CQ emptied by a
    rival, which is model behaviour."""

    SPECS = generate_corpus(13, 40, max_steps=4)

    @pytest.mark.parametrize("fn,args,workload,kw", [
        (run_shared_nothing, (2,),
         RequestWorkload(op_count=400, queue_depth=8), {}),
        (run_shared_nothing, (2,), None, {}),
        (run_static_pool, (2, 2), None, {}),
        (run_static_pool, (2, 2), None, {"threading_mode": THREADING_PAIR}),
    ], ids=["shared_nothing-requests", "shared_nothing-tasks",
            "static_pool-tasks", "static_pool_pair-tasks"])
    def test_no_reap_finds_an_empty_cq(self, monkeypatch, fn, args,
                                       workload, kw):
        reaps = []
        cq_reap = ApiInstance.cq_reap

        def counted_cq_reap(inst, max_completions):
            comps = cq_reap(inst, max_completions)
            reaps.append(len(comps))
            return comps

        monkeypatch.setattr(ApiInstance, "cq_reap", counted_cq_reap)
        wl = workload or TaskWorkload(specs=list(self.SPECS))
        r = fn(wl, *args, device_cfg=FAST_DEV, seed=5, sched_jitter_ns=300,
               **kw)
        ops = wl.op_count if workload else io_count(self.SPECS)
        assert run_violations(r, ops) == []
        assert sum(reaps) == ops
        assert reaps.count(0) == 0
