"""Static/dynamic pool behavior: dispatch, handles, scaling, shutdown."""

import itertools
import sys
import threading
import time
from dataclasses import asdict

import pytest

import ringbench.arch.pool as pool_module
from ringbench.arch import (ArrivalWorkload, ControllerConfig,
                            EXEC_INLINE_CALLBACKS, EXEC_IO_THREADS, ExecCosts,
                            POLICY_LEAST_LOADED, PoolShutdown,
                            RequestWorkload, RingConfig, TaskWorkload,
                            THREADING_PAIR, TimeoutExceeded, open_pool,
                            run_dynamic_pool, run_static_pool)
from ringbench.arch import driver
from ringbench.arch.common import Worker
from ringbench.config import from_dict
from ringbench.device import DeviceConfig, PollConfig, SimDevice, VirtualClock
from ringbench.ring import CompletionStatus, IoRequest, OpKind
from ringbench.tasks import Geometry, generate_corpus, io_count, oracle_states
from ringbench.verify import (callback_collapse_violations,
                              dynamic_pool_violations, littles_law_violations,
                              run_violations, scheme_violations)

US = 1_000
MS = 1_000_000

FAST = DeviceConfig(service_time_ns=2 * US, jitter_frac=0.0, parallelism=64)
GEO = Geometry(FAST.block_size, FAST.capacity_bytes)


class TestHandles:
    def test_happy_path_transitions(self):
        pool = open_pool(1, device_cfg=FAST)
        h = pool.pool_submit(IoRequest(OpKind.NOP))
        assert h.completion is None
        report = pool.drain_and_shutdown()
        assert h.completion is not None
        assert h.completion.status == CompletionStatus.OK
        assert run_violations(report, 1) == []

    def test_poll_is_side_effect_free(self):
        pool = open_pool(1, device_cfg=FAST)
        h = pool.pool_submit(IoRequest(OpKind.NOP))
        before = pool.rt.now()
        for _ in range(1000):
            assert h.completion is None
        assert pool.rt.now() == before  # no virtual time consumed
        pool.drain_and_shutdown()

    def test_user_data_passthrough(self):
        pool = open_pool(2, device_cfg=FAST)
        handles = [pool.pool_submit(IoRequest(OpKind.NOP)) for _ in range(50)]
        pool.drain_and_shutdown()
        for h in handles:
            assert h.completion.user_data == h.handle_id

    def test_submit_after_shutdown_raises(self):
        pool = open_pool(1, device_cfg=FAST)
        pool.pool_submit(IoRequest(OpKind.NOP))
        pool.drain_and_shutdown()
        with pytest.raises(PoolShutdown):
            pool.pool_submit(IoRequest(OpKind.NOP))

    def test_multiset_of_handles_all_done(self):
        pool = open_pool(4, device_cfg=FAST)
        handles = [pool.pool_submit(IoRequest(OpKind.NOP))
                   for _ in range(5000)]
        report = pool.drain_and_shutdown()
        assert all(h.completion is not None for h in handles)
        ids = [h.completion.request_id for h in handles]
        assert len(ids) == 5000
        assert run_violations(report, 5000) == []

    def test_160k_handles_from_16_submitters(self):
        # 16 submitters x 10k requests: every handle Done, no loss, no dup
        wl = RequestWorkload(op_count=160_000, queue_depth=64)
        r = run_static_pool(wl, 16, 4, device_cfg=FAST, seed=12)
        assert run_violations(r, 160_000) == []

    def test_many_pollers_do_not_change_device_iops(self):
        # 100 in-flight handles polled by 1 vs by 100 workers: within 2%.
        # Jitter desynchronizes completion waves so refill timing, not
        # polling, is held constant between the two runs.
        dcfg = DeviceConfig(service_time_ns=100 * US, jitter_frac=0.1,
                            parallelism=64)
        wl = RequestWorkload(op_count=30_000, queue_depth=100)
        one = run_static_pool(wl, 1, 2, device_cfg=dcfg, seed=5)
        hundred = run_static_pool(wl, 100, 2, device_cfg=dcfg, seed=5)
        assert hundred.iops == pytest.approx(one.iops, rel=0.02)


class TestDispatchLayer:
    def test_overflow_absorbs_and_drains_in_order(self):
        slow = DeviceConfig(service_time_ns=200 * US, jitter_frac=0.0,
                            parallelism=2)
        ring = RingConfig(sq_capacity=4, cq_capacity=8)
        pool = open_pool(1, device_cfg=slow, ring=ring, inbox_capacity=4)
        handles = [pool.pool_submit(IoRequest(OpKind.NOP))
                   for _ in range(200)]
        assert len(pool.overflow) > 0  # inbox (4) and rings are tiny
        report = pool.drain_and_shutdown()
        assert all(h.completion is not None for h in handles)
        assert run_violations(report, 200) == []
        times = [h.completion.complete_time for h in handles]
        assert times == sorted(times)  # FIFO through inbox + overflow

    def test_drain_tolerates_overflow_emptied_meanwhile(self, monkeypatch):
        # in wall mode another thread's drain can take the last parked
        # request between this drain's check and its pop; the other
        # thread then delivers it
        pool = open_pool(1, device_cfg=FAST)
        taken = []

        def racing_pick(p):
            taken.append(p.overflow.popleft())
            return 0

        monkeypatch.setattr(pool_module.IoPool, "_pick", racing_pick)
        pool.pool_submit(IoRequest(OpKind.NOP))
        monkeypatch.undo()
        pool._deliver_to_inbox(pool.instances[0], taken.pop())
        assert run_violations(pool.drain_and_shutdown(), 1) == []

    def test_least_loaded_policy_balances(self):
        wl = RequestWorkload(op_count=20_000, queue_depth=64)
        r = run_static_pool(wl, 4, 4, device_cfg=FAST, seed=6,
                            policy=POLICY_LEAST_LOADED)
        assert run_violations(r, 20_000) == []

    def test_pair_threading_mode(self):
        wl = RequestWorkload(op_count=10_000, queue_depth=32)
        r = run_static_pool(wl, 2, 2, device_cfg=FAST, seed=7,
                            threading_mode=THREADING_PAIR)
        assert run_violations(r, 10_000) == []

    @pytest.mark.parametrize("knob", [{"policy": "leastloaded"},
                                      {"threading_mode": "pair"},
                                      {"exec_mode": "inline"}],
                             ids=["policy", "threading_mode", "exec_mode"])
    def test_unknown_knob_rejected(self, knob):
        wl = RequestWorkload(op_count=10, queue_depth=1)
        with pytest.raises(ValueError, match="unknown"):
            run_static_pool(wl, 1, 1, device_cfg=FAST, **knob)

    def test_deadlock_names_the_requests_the_pool_holds(self, monkeypatch):
        # with every completion lost, the 16 requests in flight sit 2 on
        # each ring, 8 in the overflow queue, 1 in each inbox and 1 in each
        # instance waiting for SQ room
        monkeypatch.setattr(SimDevice, "_deliver", lambda *args: None)
        wl = RequestWorkload(op_count=100, queue_depth=16)
        rings = "".join(f"; ring {i}: sq 0, cq 0, in flight 2"
                        for i in range(2))
        with pytest.raises(RuntimeError, match=(
                "^virtual run deadlocked: calendar idle before completion; "
                f"parked: io-0, io-1, worker-0, worker-1{rings}; pool: "
                "overflow 8, inbox 1/1, waiting for SQ room 1/1$")):
            run_static_pool(wl, 2, 2, ring=RingConfig(2, 2),
                            inbox_capacity=1, device_cfg=FAST, seed=1)

    def test_task_workloads_supported_in_pair_mode(self):
        specs = generate_corpus(41, 20)
        results = {}
        r = run_static_pool(TaskWorkload(specs=specs), 2, 2, scheme="full",
                            device_cfg=FAST, seed=8, results_out=results,
                            threading_mode=THREADING_PAIR)
        assert run_violations(r, io_count(specs), results,
                              oracle_states(specs, GEO)) == []


class TestPairThreading:
    """Submit/reap actor pairs: the submit actor is the SQ's only producer
    and is woken whenever the reaper frees what a stalled push waits for."""

    DEV = DeviceConfig(service_time_ns=20 * US, jitter_frac=0.1,
                       parallelism=16)

    def run_pair(self, callback_cost_ns=0, **kw):
        wl = RequestWorkload(op_count=3000, queue_depth=64,
                             callback_cost_ns=callback_cost_ns)
        return run_static_pool(wl, 4, 2, threading_mode=THREADING_PAIR,
                               device_cfg=self.DEV, seed=1, **kw)

    def assert_exactly_once(self, r):
        assert run_violations(r, 3000) == []

    def test_reap_wakes_push_stalled_on_cq_headroom(self):
        # a 4/8 ring under qd 64 keeps the push waiting for CQ headroom,
        # which only a reap frees
        self.assert_exactly_once(self.run_pair(ring=RingConfig(4, 8)))

    def test_inline_callbacks_leave_sq_to_submit_actor(self):
        # refilling between inline callbacks must not push from the reaper
        self.assert_exactly_once(self.run_pair(
            callback_cost_ns=500, exec_mode=EXEC_INLINE_CALLBACKS))

    def test_reaper_that_pushes_is_named(self, monkeypatch):
        # a reap actor that also refills the SQ is a second producer: the
        # ring names it at its first push instead of finishing clean
        reap_pass = pool_module.IoPool._reap_pass

        def refilling_reap_pass(pool, unit, ectx):
            reaped = yield from reap_pass(pool, unit, ectx)
            if reaped:
                yield from pool._submit_pass(unit, ectx)
            return reaped

        monkeypatch.setattr(pool_module.IoPool, "_reap_pass",
                            refilling_reap_pass)
        with pytest.raises(RuntimeError, match=r"SQ (\d): 'io-\1-reap' "
                                               r"pushes after 'io-\1-submit'"):
            self.run_pair(ring=RingConfig(4, 8))


class TestLittleLawThroughPool:
    def test_static_pool_matches_prediction(self):
        dcfg = DeviceConfig(service_time_ns=100 * US, jitter_frac=0.0,
                            parallelism=64)
        wl = RequestWorkload(op_count=50_000, queue_depth=32)
        r = run_static_pool(wl, 2, 1, device_cfg=dcfg, seed=9)
        assert littles_law_violations(dcfg, {32: r.iops}, 0.05) == []


class TestCallbackPlacement:
    def test_io_threads_mode_stays_flat(self):
        dcfg = DeviceConfig(service_time_ns=100 * US, jitter_frac=0.0,
                            parallelism=64)
        iops = {cost: run_static_pool(
            RequestWorkload(op_count=20_000, queue_depth=8,
                            callback_cost_ns=cost),
            16, 1, exec_mode=EXEC_IO_THREADS, device_cfg=dcfg, seed=11).iops
            for cost in (0, 1 * US, 10 * US, 100 * US)}
        assert callback_collapse_violations(dcfg, ExecCosts(), 8, 1, {},
                                            iops) == []


class TestDrainAndShutdown:
    def test_zero_inflight_immediate(self):
        pool = open_pool(2, device_cfg=FAST)
        report = pool.drain_and_shutdown()
        assert run_violations(report, 0) == []

    def test_deadline_zero_with_inflight_reports_abandoned(self):
        slow = DeviceConfig(service_time_ns=10 * MS, jitter_frac=0.0,
                            parallelism=1)
        pool = open_pool(1, device_cfg=slow)
        for _ in range(10):
            pool.pool_submit(IoRequest(OpKind.NOP))
        with pytest.raises(TimeoutExceeded) as exc:
            pool.drain_and_shutdown(deadline_ns=0)
        assert exc.value.abandoned == 10

    def test_inflight_completes_before_return(self):
        pool = open_pool(2, device_cfg=FAST)
        handles = [pool.pool_submit(IoRequest(OpKind.NOP))
                   for _ in range(2000)]
        report = pool.drain_and_shutdown()
        assert all(h.completion is not None for h in handles)
        assert run_violations(report, 2000) == []


class TestCrossWorkerDependencies:
    # a hang on either pool fails fast: the dynamic pool's controller ends
    # once the calendar is idle, so the deadlock is named (see
    # test_lost_completions_are_diagnosed)
    @pytest.mark.parametrize("runner,scheme", [
        pytest.param(fn, scheme, id=f"{fn.__name__[4:]}-{scheme}")
        for fn in (run_static_pool, run_dynamic_pool)
        for scheme in ("full", "callback", "coroutine")])
    def test_states_equal_oracle(self, runner, scheme):
        # 0 -> 3 and 2 -> 1 each cross the two workers' shards: a deferred
        # task must wake when the other worker finishes its prerequisite
        specs = generate_corpus(5, 8)
        results = {}
        r = runner(TaskWorkload(specs=specs, dependencies=[(0, 3), (2, 1)]),
                   2, 2, scheme=scheme, device_cfg=FAST, seed=1,
                   results_out=results)
        assert run_violations(r, io_count(specs), results,
                              oracle_states(specs, GEO)) == []


class TestWallMode:
    def test_static_pool_wall_requests_and_tasks(self):
        wl = RequestWorkload(op_count=1200, queue_depth=16)
        r = run_static_pool(wl, 2, 2, device_cfg=FAST, mode="wall", seed=21)
        assert run_violations(r, 1200) == []
        specs = generate_corpus(61, 16, max_steps=8)
        expect = oracle_states(specs, GEO)
        for scheme in ("full", "callback", "coroutine"):
            results = {}
            r = run_static_pool(TaskWorkload(specs=list(specs)), 2, 2,
                                scheme=scheme, device_cfg=FAST, mode="wall",
                                seed=22, results_out=results)
            assert run_violations(r, io_count(specs), results, expect) \
                == [], scheme

    def test_dynamic_pool_wall(self):
        wl = RequestWorkload(op_count=1000, queue_depth=8)
        r = run_dynamic_pool(wl, 2, 2, device_cfg=FAST, mode="wall", seed=23)
        assert run_violations(r, 1000) == []

    @staticmethod
    def assert_run_fails_fast(match):
        # the run ends with the error at once, not at WALL_TIMEOUT_S, and no
        # thread of the run outlives it
        before = set(threading.enumerate())
        start = time.monotonic()
        with pytest.raises(ValueError, match=match):
            run_static_pool(RequestWorkload(op_count=2000, queue_depth=8),
                            2, 1, mode="wall",
                            device_cfg=DeviceConfig(service_time_ns=20 * US,
                                                    jitter_frac=0.0))
        assert time.monotonic() - start < 5.0
        deadline = time.monotonic() + 2.0
        while True:
            left = [t.name for t in threading.enumerate()
                    if t not in before and t.is_alive()]
            if not left or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        assert left == []

    def test_actor_error_stops_the_run(self, monkeypatch):
        # an I/O actor raises
        deliver = pool_module.deliver_completion
        seen = itertools.count(1)

        def fail_50th(*args):
            if next(seen) == 50:
                raise ValueError("completion 50 failed")
            return (yield from deliver(*args))

        monkeypatch.setattr(pool_module, "deliver_completion", fail_50th)
        self.assert_run_fails_fast("completion 50 failed")

    def test_device_error_stops_the_run(self, monkeypatch):
        # a callback on the device thread raises
        deliver = SimDevice._deliver
        seen = itertools.count(1)

        def fail_50th(self, *args):
            if next(seen) == 50:
                raise ValueError("delivery 50 failed")
            return deliver(self, *args)

        monkeypatch.setattr(SimDevice, "_deliver", fail_50th)
        self.assert_run_fails_fast("delivery 50 failed")

    def test_concurrent_submitters_share_the_overflow(self):
        # 8 threads dispatch into 2-entry inboxes, so drains race on the
        # overflow queue; every request must still complete exactly once
        pool = open_pool(3, device_cfg=FAST, mode="wall", inbox_capacity=2,
                         ring=RingConfig(sq_capacity=4, cq_capacity=8))

        def submit():
            for _ in range(500):
                pool.pool_submit(IoRequest(OpKind.NOP))

        threads = [threading.Thread(target=submit) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        report = pool.drain_and_shutdown(deadline_ns=60_000_000_000)
        assert run_violations(report, 4000) == []

    def test_drain_and_shutdown_wall(self):
        pool = open_pool(1, device_cfg=FAST, mode="wall")
        h = pool.pool_submit(IoRequest(OpKind.NOP))
        report = pool.drain_and_shutdown()
        assert h.completion is not None
        assert h.completion.status == CompletionStatus.OK
        assert run_violations(report, 1) == []

    def test_drain_and_shutdown_stops_the_device_thread(self):
        # also when the drain raises
        slow = DeviceConfig(service_time_ns=10 * MS, jitter_frac=0.0,
                            parallelism=1)
        for device_cfg, deadline_ns in ((FAST, None), (slow, 0)):
            before = set(threading.enumerate())
            pool = open_pool(1, device_cfg=device_cfg, mode="wall")
            for _ in range(10):
                pool.pool_submit(IoRequest(OpKind.NOP))
            started = [t for t in threading.enumerate()
                       if t not in before and t.name == "ringbench-device"]
            assert len(started) == 1
            if deadline_ns is None:
                assert run_violations(pool.drain_and_shutdown(), 10) == []
            else:
                with pytest.raises(TimeoutExceeded):
                    pool.drain_and_shutdown(deadline_ns=deadline_ns)
            assert not started[0].is_alive()


class TestDynamicPool:
    DCFG = DeviceConfig(service_time_ns=100 * US, jitter_frac=0.0,
                        parallelism=64, submission_cpu_cost_ns=20 * US,
                        poll=PollConfig(wakeup_cost_ns=5 * US))
    RING = RingConfig(sq_capacity=16, cq_capacity=32)
    CTRL = ControllerConfig(window_ns=5 * MS, high_water=0.75,
                            low_water=0.25)

    PHASES = [(50 * MS, 5_000), (50 * MS, 100_000)] * 3

    def run_square_wave(self, dynamic: bool, seed=13):
        wl = ArrivalWorkload(phases=self.PHASES)
        if dynamic:
            r = run_dynamic_pool(wl, 1, 4, controller=self.CTRL,
                                 device_cfg=self.DCFG, ring=self.RING,
                                 seed=seed, keep_completion_times=True)
        else:
            r = run_static_pool(wl, 1, 4, device_cfg=self.DCFG,
                                ring=self.RING, seed=seed,
                                keep_completion_times=True)
        assert run_violations(r, wl.total_ops()) == []
        return r

    def test_square_wave_shrinks_and_regrows(self):
        # one step per window, 1 to at least k - 1 instances
        r = self.run_square_wave(dynamic=True)
        assert dynamic_pool_violations(r, None, self.PHASES,
                                       self.CTRL.window_ns) == []

    def test_dynamic_saves_poll_busy_at_equal_peak_iops(self):
        stat = self.run_square_wave(dynamic=False)
        dyn = self.run_square_wave(dynamic=True)
        assert dynamic_pool_violations(dyn, stat, self.PHASES,
                                       self.CTRL.window_ns) == []

    def test_constant_saturating_load_never_scales_down(self):
        wl = RequestWorkload(op_count=60_000, queue_depth=64)
        r = run_dynamic_pool(wl, 4, 4, controller=self.CTRL,
                             device_cfg=self.DCFG, ring=self.RING, seed=14)
        counts = [n for _, n in r.active_instance_timeline]
        assert counts[0] == 4
        assert all(n == 4 for n in counts)

    def test_skip_rule_enforced(self):
        # a delivery to an inactive instance raises at once;
        # run_square_wave checks the run contract
        self.run_square_wave(dynamic=True, seed=15)

    @pytest.mark.parametrize("workload,first", [
        (ArrivalWorkload(phases=[(MS, 5_000)]), 2), (None, 4)])
    def test_pool_builds_its_controller_and_open_loop_start(self, workload,
                                                            first):
        # an open-loop load starts on the fewest instances, other loads on
        # every instance
        ctx = driver.RunContext("pool", workload,
                                driver.RunOptions(device_cfg=FAST))
        pool = pool_module.IoPool(ctx, 4, ControllerConfig(min_active=2))
        assert pool.timeline == [(0, first)] and pool.active_count == first
        assert ctx.rt.actors[-1].name == "controller"

    def arrivals_from_one_active(self):
        run_dynamic_pool(ArrivalWorkload(phases=self.PHASES[:2]), 1, 4,
                         controller=self.CTRL, device_cfg=self.DCFG,
                         ring=self.RING, seed=15)

    def live_pool_shrunk_to_one(self):
        pool = open_pool(4, controller=self.CTRL, device_cfg=FAST)
        for n in (3, 2, 1):
            pool.set_active(n)
        pool.pool_submit(IoRequest(OpKind.NOP))
        pool.drain_and_shutdown()

    @pytest.mark.parametrize("run", ["arrivals_from_one_active",
                                     "live_pool_shrunk_to_one"])
    def test_delivery_to_inactive_instance_raises(self, monkeypatch, run):
        # a broken policy that always picks the last of 4 instances
        monkeypatch.setattr(pool_module.IoPool, "_pick", lambda p: p.k - 1)
        with pytest.raises(RuntimeError, match=(
                r"^dispatch delivered to inactive instance 3 "
                r"\(active 1 of 4\)$")):
            getattr(self, run)()

    def test_scheme_matrix_on_dynamic_pool(self):
        cfg = from_dict({"device": asdict(FAST), "workload": {"kind": "tasks"},
                         "architecture": {"kind": "dynamic_pool",
                                          "n_workers": 2, "k_instances": 2},
                         "seed": 16})
        assert scheme_violations(generate_corpus(51, 24), [cfg]) == []

    @pytest.mark.parametrize("workload", [
        pytest.param(lambda: RequestWorkload(op_count=40, queue_depth=4),
                     id="requests"),
        pytest.param(lambda: TaskWorkload(specs=generate_corpus(52, 8)),
                     id="tasks-full")])
    def test_lost_completions_are_diagnosed(self, monkeypatch, workload):
        # with every completion lost, only the controller's windows stay on
        # the calendar; a window that changes nothing must end it, so the
        # run raises instead of spinning towards the event budget
        monkeypatch.setattr(SimDevice, "_deliver", lambda *args: None)
        step = VirtualClock.step
        steps = [0]

        def counted_step(clock):
            steps[0] += 1
            if steps[0] > 100_000:
                pytest.fail("deadlock not diagnosed within 100 000 events")
            return step(clock)

        monkeypatch.setattr(VirtualClock, "step", counted_step)
        with pytest.raises(RuntimeError, match="virtual run deadlocked"):
            run_dynamic_pool(workload(), 2, 2, scheme="full",
                             controller=ControllerConfig(window_ns=MS),
                             device_cfg=FAST, seed=1)


class TestInputsValidated:
    """Costs, rings and the controller validate themselves: a library call
    with a bad value fails at once with a ``ValueError`` that starts with
    the field, instead of crashing, hanging or running on it."""

    @pytest.mark.parametrize("kw,field", [
        ({"costs": ExecCosts(submit_cost_ns=-1)}, "submit_cost_ns"),
        ({"ring": RingConfig(idle_timeout_ns=-5)}, "idle_timeout_ns"),
        ({"ring": RingConfig(idle_timeout_ns=0)}, "idle_timeout_ns"),
        ({"controller": ControllerConfig(low_water=0.8, high_water=0.5)},
         "low_water"),
        ({"controller": ControllerConfig(window_ns=0)}, "window_ns"),
        ({"controller": ControllerConfig(min_active=3)}, "min_active"),
    ], ids=["negative-cost", "negative-idle-timeout", "zero-idle-timeout",
            "low-above-high-water", "zero-window", "min-active-above-k"])
    def test_rejected_naming_the_field(self, monkeypatch, kw, field):
        # a zero window re-arms the controller at the same instant forever:
        # count calendar steps so that a hang fails instead of hanging
        step = VirtualClock.step
        steps = [0]

        def counted_step(clock):
            steps[0] += 1
            if steps[0] > 100_000:
                pytest.fail("not rejected within 100 000 events")
            return step(clock)

        monkeypatch.setattr(VirtualClock, "step", counted_step)
        with pytest.raises(ValueError, match=f"^{field} "):
            run_dynamic_pool(ArrivalWorkload(phases=[(MS, 20_000)]), 1, 2,
                             device_cfg=FAST, seed=1, **kw)


class TestArrivalSchedule:
    """One arrival rule: the arrival workers issue exactly the
    ``ArrivalWorkload.total_ops()`` requests perfbench expects, worker i of
    n taking arrivals i, i+n, ... of each phase."""

    @pytest.mark.parametrize("phases,ops", [
        ([(50 * MS, 3000)], 151),
        ([(10 * MS, 7000), (10 * MS, 0), (10 * MS, 30000)], 372)],
        ids=["uneven-gap", "idle-middle-phase"])
    def test_total_ops_equals_submitted(self, phases, ops):
        wl = ArrivalWorkload(phases=phases)
        r = run_dynamic_pool(wl, 1, 2, device_cfg=FAST, seed=3)
        assert wl.total_ops() == ops
        assert run_violations(r, ops) == []

    def test_rate_above_one_per_ns_rejected(self):
        with pytest.raises(ValueError, match="1e9"):
            ArrivalWorkload(phases=[(1000, 3e9)])

    @pytest.mark.parametrize("runner", [run_static_pool, run_dynamic_pool],
                             ids=["static_pool", "dynamic_pool"])
    def test_sharding_keeps_the_schedule(self, monkeypatch, runner):
        # no arrival here ties another event at the same ns, so dealing
        # the arrivals over 1, 2 or 5 workers gives the same run
        wl = ArrivalWorkload(phases=[(MS, 20_000), (2 * MS, 3_000), (MS, 0),
                                     (MS, 50_000)])
        shares = []
        report = driver.RunContext.report

        def recording_report(ctx, *a, **kw):
            shares.append([(e.name, e.collector.submitted)
                           for e in ctx.ectxs if isinstance(e, Worker)])
            return report(ctx, *a, **kw)

        monkeypatch.setattr(driver.RunContext, "report", recording_report)
        counts = [wl.phase_schedule(*ph)[1] for ph in wl.phases]
        runs = []
        for n in (1, 2, 5):
            r = runner(wl, n, 2, seed=3, keep_completion_times=True)
            assert run_violations(r, wl.total_ops()) == []
            runs.append((r.to_row()[1:], sorted(r.completion_times)))
            assert shares.pop() == [
                (f"worker-{i}", sum(len(range(i, c, n)) for c in counts))
                for i in range(n)]
        assert runs[1] == runs[0] and runs[2] == runs[0]
