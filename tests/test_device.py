"""Simulated device: event calendar, throughput model, poll-thread upkeep."""

import heapq
import random
import threading
import time

import pytest

from ringbench.device import (DeviceConfig, POLL_ASLEEP, PollConfig,
                              SimDevice, VirtualClock, WallClock,
                              steady_state_iops)
from ringbench.ring import ApiInstance, IoRequest, OpKind, PushResult
from ringbench.verify import littles_law_violations, poll_gap_violations

US = 1_000
MS = 1_000_000


def make(cfg=None, seed=0, sq=512, cq=1024, poll=True, idle_timeout=MS):
    clock = VirtualClock()
    dev = SimDevice(cfg or DeviceConfig(jitter_frac=0.0), clock, seed=seed)
    inst = ApiInstance(sq_capacity=sq, cq_capacity=cq, sq_poll_enabled=poll,
                       sq_poll_idle_timeout=idle_timeout)
    dev.attach(inst)
    return clock, dev, inst


def drain(clock, inst):
    clock.run_until_idle()
    return inst.cq_reap(inst.cq.capacity)


class TestServiceModel:
    def test_single_nop_completes_after_service_time(self):
        clock, dev, inst = make(DeviceConfig(service_time_ns=100 * US,
                                             jitter_frac=0.0, parallelism=1))
        inst.sq_push(IoRequest(OpKind.NOP), clock.now)
        (comp,) = drain(clock, inst)
        assert comp.complete_time == 100 * US

    def test_parallelism_waves(self):
        # 32 ops, 16 slots: first 16 finish at 100us, the rest at 200us
        clock, dev, inst = make(DeviceConfig(service_time_ns=100 * US,
                                             jitter_frac=0.0, parallelism=16))
        for _ in range(32):
            inst.sq_push(IoRequest(OpKind.NOP), clock.now)
        comps = drain(clock, inst)
        times = sorted(c.complete_time for c in comps)
        assert times[:16] == [100 * US] * 16
        assert times[16:] == [200 * US] * 16

    def test_fault_plan_flips_only_marked_request(self):
        clock, dev, inst = make()
        reqs = [IoRequest(OpKind.NOP) for _ in range(10)]
        for r in reqs:
            inst.sq_push(r, clock.now)
        dev.inject_fault(inst.instance_id, reqs[7].request_id, code=11)
        comps = {c.request_id: c for c in drain(clock, inst)}
        for i, r in enumerate(reqs):
            expect = 1 if i == 7 else 0
            assert int(comps[r.request_id].status) == expect
        assert comps[reqs[7].request_id].value == 11

    def test_device_step_counts_events(self):
        clock, dev, inst = make()
        inst.sq_push(IoRequest(OpKind.NOP), clock.now)
        steps = 0
        while clock.step():
            steps += 1
        assert steps >= 2  # at least a consume sweep and a completion
        assert len(inst.cq) == 1

    def test_submission_cpu_cost_serializes_consumption(self):
        cfg = DeviceConfig(service_time_ns=10 * US, jitter_frac=0.0,
                           parallelism=64, submission_cpu_cost_ns=1 * US)
        clock, dev, inst = make(cfg)
        for _ in range(4):
            inst.sq_push(IoRequest(OpKind.NOP), clock.now)
        comps = drain(clock, inst)
        # consumed at 1,2,3,4us; each completes consume_time + 10us
        assert sorted(c.complete_time for c in comps) == [
            11 * US, 12 * US, 13 * US, 14 * US]


def closed_loop_count(cfg, qd, duration_ns, seed=0):
    """Keep qd requests in flight; count completions inside the window."""
    clock = VirtualClock()
    dev = SimDevice(cfg, clock, seed=seed)
    inst = ApiInstance(sq_capacity=512, cq_capacity=1024)
    dev.attach(inst)
    done_in_window = 0

    def refill():
        while (inst.pending_completion_count() < qd
               and clock.now < duration_ns):
            if inst.sq_push(IoRequest(OpKind.NOP), clock.now) != PushResult.ACCEPTED:
                break

    def listener(comp, submit_time):
        nonlocal done_in_window
        if comp.complete_time <= duration_ns:
            done_in_window += 1
        inst.cq_reap(256)
        refill()

    dev.completion_listener = listener
    refill()
    clock.run_until_idle()
    return done_in_window


class TestThroughputModel:
    def test_little_law_closed_form(self):
        cfg = DeviceConfig(service_time_ns=100 * US, jitter_frac=0.0,
                           parallelism=16)
        assert steady_state_iops(cfg, 1) == pytest.approx(10_000)
        assert steady_state_iops(cfg, 32) == pytest.approx(160_000)
        assert steady_state_iops(cfg, 64) == steady_state_iops(cfg, 32)

    @pytest.mark.parametrize("qd,expect", [(1, 10_000), (8, 80_000),
                                           (32, 160_000), (64, 160_000)])
    def test_simulation_converges_to_prediction(self, qd, expect):
        # one simulated second, zero jitter: within 1% of min(qd, P)/S
        cfg = DeviceConfig(service_time_ns=100 * US, jitter_frac=0.0,
                           parallelism=16)
        assert steady_state_iops(cfg, qd) == expect
        count = closed_loop_count(cfg, qd, 1_000_000_000)
        assert littles_law_violations(cfg, {qd: count}, 0.01) == []

    def test_monotone_then_flat(self):
        # completions in 100 ms, as IOPS
        cfg = DeviceConfig(service_time_ns=100 * US, jitter_frac=0.0,
                           parallelism=16)
        iops = {qd: 10 * closed_loop_count(cfg, qd, 100 * MS)
                for qd in (1, 2, 4, 8, 16, 32)}
        assert littles_law_violations(cfg, iops, 0.01) == []

    def test_throughput_never_exceeds_ceiling(self):
        cfg = DeviceConfig(service_time_ns=50 * US, jitter_frac=0.2,
                           parallelism=4)
        count = closed_loop_count(cfg, 64, 100 * MS, seed=3)
        ceiling = steady_state_iops(cfg, 64) * 0.1 * 1.25  # window + jitter slack
        assert count <= ceiling


class TestDeterminism:
    def trace_of(self, seed):
        events = []
        clock, dev, inst = make(DeviceConfig(service_time_ns=10 * US,
                                             jitter_frac=0.3), seed=seed)
        dev.trace = lambda *row: events.append(row)
        for _ in range(200):
            inst.sq_push(IoRequest(OpKind.NOP), clock.now)
        drain(clock, inst)
        return events

    def test_identical_seed_identical_trace(self):
        assert self.trace_of(42) == self.trace_of(42)

    def test_different_seed_different_trace(self):
        assert self.trace_of(42) != self.trace_of(43)

    @pytest.mark.parametrize("jitter", (0.05, 0.1, 0.3, 0.999))
    def test_service_times_are_random_uniform_draws(self, jitter):
        # each jittered service time is one draw of random.uniform(-j, j)
        # from the device's generator
        cfg = DeviceConfig(service_time_ns=10 * US, jitter_frac=jitter)
        for seed in range(5):
            dev = SimDevice(cfg, VirtualClock(), seed=seed)
            ref = random.Random(seed ^ 0x5DEECE66D)
            want = [max(1, int(cfg.service_time_ns
                               * (1.0 + ref.uniform(-jitter, jitter))))
                    for _ in range(2000)]
            assert [dev._service_ns() for _ in range(2000)] == want


class TestPollThreadModel:
    def test_steady_submissions_never_sleep(self):
        # gaps of 0.5 ms against a 1 ms timeout: busy the whole 100 ms
        assert poll_gap_violations(DeviceConfig(jitter_frac=0.0), MS // 2,
                                   201) == []

    def test_sleeps_after_exactly_idle_timeout(self):
        # last activity at t=0, asleep at exactly 1 ms
        assert poll_gap_violations(DeviceConfig(jitter_frac=0.0), 2 * MS,
                                   1) == []

    def test_wakeup_costs_are_charged_and_delay_consumption(self):
        cfg = DeviceConfig(service_time_ns=10 * US, jitter_frac=0.0,
                           poll=PollConfig(wakeup_cost_ns=5 * US))
        clock, dev, inst = make(cfg, idle_timeout=MS)
        poll = dev.instances[0].poll
        inst.sq_push(IoRequest(OpKind.NOP), clock.now)
        clock.run_until(2 * MS)
        assert poll.state == POLL_ASLEEP
        clock.run_until(4 * MS)
        inst.sq_push(IoRequest(OpKind.NOP), clock.now)
        clock.run_until_idle()
        comps = sorted(c.complete_time for c in inst.cq_reap(8))
        # second op waits for the 5us wake before its 10us service
        assert comps[1] == 4 * MS + 5 * US + 10 * US
        assert poll.wakeups == 1

    def test_late_wall_idle_check_does_not_strand_a_submission(self):
        # the device thread starts after the first idle check was due and
        # more than a timeout after a submission: run late, that check must
        # not put the poll thread to sleep over the entry in the SQ
        clock = WallClock()
        dev = SimDevice(DeviceConfig(service_time_ns=10 * US,
                                     jitter_frac=0.0), clock)
        inst = ApiInstance(sq_capacity=8, cq_capacity=8, sq_poll_enabled=True,
                           sq_poll_idle_timeout=MS)
        dev.attach(inst)  # idle check due at 1 ms
        time.sleep(0.002)
        inst.sq_push(IoRequest(OpKind.NOP), clock.now)
        time.sleep(0.002)
        errors = []
        clock.start(errors.append)
        try:
            deadline = time.monotonic() + 1.0
            while not len(inst.cq) and time.monotonic() < deadline:
                time.sleep(0.001)
        finally:
            clock.stop()
        assert len(inst.cq) == 1 and errors == []

    def test_disabled_poll_has_no_model(self):
        clock, dev, inst = make(poll=False)
        assert dev.instances[0].poll is None
        inst.sq_push(IoRequest(OpKind.NOP), clock.now)
        assert len(drain(clock, inst)) == 1


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceConfig(service_time_ns=0).validate()
        with pytest.raises(ValueError):
            DeviceConfig(parallelism=0).validate()
        with pytest.raises(ValueError):
            DeviceConfig(jitter_frac=1.5).validate()

    def test_desk_nvme_preset(self):
        # the defaults are the desk-nvme preset
        cfg = DeviceConfig()
        assert cfg.service_time_ns == 100 * US
        assert cfg.parallelism == 64
        assert cfg.jitter_frac == 0.1
        assert cfg.block_size == 4096


class TestTrace:
    def test_trace_schema(self):
        # rows are (time_ns, event_kind, instance_id, request_id); events
        # not about one request carry request_id -1
        events = []
        clock, dev, inst = make()
        dev.trace = lambda *row: events.append(row)
        inst.sq_push(IoRequest(OpKind.NOP), clock.now)
        drain(clock, inst)
        assert events == [(0, "submit", 0, -1), (0, "consume", 0, 0),
                          (100 * US, "complete", 0, 0),
                          (MS, "poll_sleep", 0, -1)]


class ReferenceClock:
    """Every ``at`` event through one ``(t, seq)`` heap and every
    ``at_last`` event through another: the order the calendar must keep.
    A last event fires once no ``at`` event is due at or before its time."""

    def __init__(self):
        self.now = 0
        self._heap = []
        self._last = []
        self._seq = 0

    def at(self, t, fn):
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, fn))

    def at_last(self, t, fn):
        self._seq += 1
        heapq.heappush(self._last, (t, self._seq, fn))

    def _next(self):
        heap, last = self._heap, self._last
        if heap and (not last or heap[0][0] <= last[0][0]):
            return heap
        return last

    def step(self):
        queue = self._next()
        if not queue:
            return False
        t, _, fn = heapq.heappop(queue)
        self.now = t
        fn()
        return True

    def run_until(self, t):
        while self._next() and self._next()[0][0] <= t:
            self.step()
        self.now = max(self.now, t)


def firing_order(clock, program, children):
    """Run ``program`` on ``clock``: ("at", delay) schedules an event,
    ("last", delay) an ``at_last`` event (``delay > 0``), ("run_until",
    dt) advances time, ("step",) fires one event. Event k, when it fires,
    schedules one event per entry of ``children[k]``: a delay for ``at``
    or a ("last", delay) pair. Returns (event, time) per firing and the
    time after each run_until."""
    fired = []
    count = [0]

    def schedule(delay, last=False):
        k = count[0]
        count[0] += 1

        def event():
            fired.append((k, clock.now))
            for d in (children[k] if k < len(children) else ()):
                if type(d) is int:
                    schedule(d)
                else:
                    schedule(d[1], last=True)
        (clock.at_last if last else clock.at)(clock.now + delay, event)

    for op in program:
        if op[0] in ("at", "last"):
            schedule(op[1], op[0] == "last")
        elif op[0] == "run_until":
            clock.run_until(clock.now + op[1])
            fired.append(("now", clock.now))
        else:
            clock.step()
    while clock.step():
        pass
    return fired


class TestClockOrder:
    def test_heap_entry_due_now_fires_before_new_same_instant_events(self):
        clock = VirtualClock()
        order = []

        def a():
            order.append("a")
            clock.at(clock.now, x)  # b is already due now: x goes after it

        def x():
            order.append("x")
            clock.at(clock.now, lambda: order.append("y"))
            clock.at(clock.now + 1, lambda: order.append("z"))

        clock.at(10, a)
        clock.at(10, lambda: order.append("b"))
        clock.run_until_idle()
        assert order == ["a", "b", "x", "y", "z"]
        assert clock.now == 11

    def test_run_until_drains_same_instant_events(self):
        clock = VirtualClock()
        order = []
        clock.at(0, lambda: order.append(0))
        clock.at(0, lambda: clock.at(0, lambda: order.append(2)))
        clock.at(0, lambda: order.append(1))
        clock.run_until(0)
        assert order == [0, 1, 2]
        assert not clock.step()
        clock.at(0, lambda: order.append(3))
        clock.run_until(5)
        assert order == [0, 1, 2, 3]
        assert clock.now == 5

    def test_random_schedules_fire_in_reference_order(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        delays = st.sampled_from((0, 0, 0, 1, 2, 7))
        ops = st.one_of(st.tuples(st.just("at"), delays),
                        st.tuples(st.just("run_until"), delays),
                        st.tuples(st.just("step")))

        @hyp.settings(max_examples=300, deadline=None)
        @hyp.given(program=st.lists(ops, max_size=25),
                   children=st.lists(st.lists(delays, max_size=3),
                                     max_size=40))
        def check(program, children):
            expect = firing_order(ReferenceClock(), program, children)
            assert firing_order(VirtualClock(), program, children) == expect

        check()

    def test_last_entries_fire_after_every_event_due_with_them(self):
        # last entries tie with plain events scheduled before and after
        # them, also during their instant, and with each other
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        delays = st.sampled_from((0, 0, 0, 1, 2, 7))
        lasts = st.tuples(st.just("last"), st.sampled_from((1, 1, 2, 7)))
        ops = st.one_of(st.tuples(st.just("at"), delays), lasts,
                        st.tuples(st.just("run_until"), delays),
                        st.tuples(st.just("step")))

        @hyp.settings(max_examples=400, deadline=None)
        @hyp.given(program=st.lists(ops, max_size=25),
                   children=st.lists(st.lists(st.one_of(delays, lasts),
                                              max_size=3), max_size=40))
        def check(program, children):
            expect = firing_order(ReferenceClock(), program, children)
            assert firing_order(VirtualClock(), program, children) == expect

        check()

    def test_last_entry_waits_for_events_scheduled_in_its_instant(self):
        clock = VirtualClock()
        order = []

        def a():
            order.append("a")
            clock.at(clock.now, lambda: order.append("b"))

        clock.at_last(5, lambda: order.append("last"))
        clock.at_last(5, lambda: order.append("last2"))
        clock.at(5, a)
        clock.run_until_idle()
        assert order == ["a", "b", "last", "last2"]
        # a last entry still due in its instant holds back no event
        # scheduled then
        seen = []
        clock.at_last(10, lambda: seen.append(clock.due_now()))
        clock.at_last(10, lambda: None)
        clock.run_until_idle()
        assert seen == [False]


class TestSlotHandoff:
    """One completion frees one slot; the backlogged instances get their
    chance in attach order, the completing one first, and the wake of a
    sleeping poll thread at zero cost keeps its place among the sweeps."""

    def consume_order(self, cost_us, push_at_us, idle_us=(1000, 1, 1000)):
        # A's first request holds one slot; its second, pushed at push_at,
        # takes the other. A's third request and one request of each other
        # instance then wait for the first slot to free; an instance whose
        # poll thread times out after 1 us sleeps again 1 us after its push
        cfg = DeviceConfig(service_time_ns=10 * US, jitter_frac=0.0,
                           parallelism=2, submission_cpu_cost_ns=cost_us * US,
                           poll=PollConfig(wakeup_cost_ns=0))
        clock = VirtualClock()
        dev = SimDevice(cfg, clock)
        insts = [ApiInstance(sq_capacity=8, cq_capacity=8,
                             sq_poll_idle_timeout=idle * US)
                 for idle in idle_us]
        for inst in insts:
            dev.attach(inst)
        consumed = []
        dev.trace = lambda t, kind, i, r: (
            consumed.append((t // US, "abcd"[i])) if kind == "consume"
            else None)
        a = insts[0]
        a.sq_push(IoRequest(OpKind.NOP), clock.now)
        clock.run_until(push_at_us * US)
        for inst in [a, *insts]:
            inst.sq_push(IoRequest(OpKind.NOP), clock.now)
        clock.run_until((push_at_us + 1) * US)
        assert [st.poll.state == POLL_ASLEEP for st in dev.instances] == [
            idle == 1 for idle in idle_us]
        clock.run_until_idle()
        return consumed

    def test_completing_instance_sweeps_before_a_wake(self):
        # the first slot frees at 10 us and A takes it at once
        assert self.consume_order(0, 5) == [
            (0, "a"), (5, "a"), (10, "a"), (15, "b"), (20, "c")]

    def test_wake_runs_between_the_sweeps(self):
        # the first slot frees at 15 us while A's consumer is busy until
        # 17 us: B's wake runs after A's sweep and before C's, so B gets it
        assert self.consume_order(5, 12) == [
            (0, "a"), (12, "a"), (15, "b"), (27, "a"), (30, "c")]

    def test_two_sleeping_instances_each_close_a_batch(self):
        # as above, with D asleep too: at 15 us the freed slot's batch is
        # A, B's wake, C, D's wake, so each wake closes a batch of its own
        assert self.consume_order(5, 12, (1000, 1, 1000, 1)) == [
            (0, "a"), (12, "a"), (15, "b"), (27, "a"), (30, "c"), (42, "d")]


class TestFullDevice:
    """A full device pops, notifies and reschedules nothing, so it is not
    swept: a completion's batch stops once a sweep fills the freed slot,
    and a push schedules no sweep unless its poll thread needs a wake or a
    heap entry, perhaps the completion that frees a slot, is due first."""

    CFG = DeviceConfig(service_time_ns=10 * US, jitter_frac=0.0,
                       parallelism=1)

    def full(self, n_instances):
        clock = VirtualClock()
        dev = SimDevice(self.CFG, clock)
        insts = [ApiInstance(sq_capacity=8, cq_capacity=8)
                 for _ in range(n_instances)]
        for inst in insts:
            dev.attach(inst)
        insts[0].sq_push(IoRequest(OpKind.NOP), clock.now)
        clock.run_until(1 * US)
        assert dev.in_service == 1
        return clock, dev, insts

    @staticmethod
    def record_at(monkeypatch):
        scheduled = []
        at = VirtualClock.at

        def recording_at(clock, t, fn):
            scheduled.append(t)
            at(clock, t, fn)

        monkeypatch.setattr(VirtualClock, "at", recording_at)
        return scheduled

    def test_push_to_a_full_device_schedules_nothing(self, monkeypatch):
        clock, dev, (a, b) = self.full(2)
        scheduled = self.record_at(monkeypatch)
        b.sq_push(IoRequest(OpKind.NOP), clock.now)
        assert scheduled == []
        # the completion frees the slot and sweeps the backlog
        clock.run_until_idle()
        assert len(b.cq) == 1 and b.cq.peek().complete_time == 20 * US

    def test_a_freed_slot_is_swept_once(self, monkeypatch):
        clock, dev, insts = self.full(4)
        for inst in insts[1:]:
            inst.sq_push(IoRequest(OpKind.NOP), clock.now)
        clock.run_until(2 * US)
        swept = []
        sweep = SimDevice._sweep

        def recording_sweep(device, st):
            swept.append(st.inst.instance_id)
            sweep(device, st)

        monkeypatch.setattr(SimDevice, "_sweep", recording_sweep)
        clock.run_until(10 * US)
        assert swept == [1] and dev.in_service == 1
        clock.run_until_idle()
        assert swept == [1, 2, 3]
        assert [inst.cq.peek().complete_time for inst in insts] == [
            10 * US, 20 * US, 30 * US, 40 * US]

    def test_push_behind_a_completion_due_now_is_swept(self, monkeypatch):
        clock = VirtualClock()
        dev = SimDevice(self.CFG, clock)
        a, b = ApiInstance(8, 8), ApiInstance(8, 8)
        dev.attach(a)
        dev.attach(b)
        during_push = []

        def push_b():
            # a's completion, scheduled after this event, is due now too
            assert dev.in_service == 1
            scheduled = self.record_at(monkeypatch)
            b.sq_push(IoRequest(OpKind.NOP), clock.now)
            during_push.extend(scheduled)

        clock.at(10 * US, push_b)
        a.sq_push(IoRequest(OpKind.NOP), clock.now)
        clock.run_until_idle()
        assert during_push == [10 * US]
        assert b.cq.peek().complete_time == 20 * US


class CountingSignal:
    def __init__(self):
        self.notifies = 0

    def notify(self):
        self.notifies += 1


class TestSpaceWakeups:
    """A consume wakes the instance's ``space_signal`` only after a refused
    push, once, and clears the refusal: as with ``IORING_ENTER_SQ_WAIT``,
    no producer that did not ask for room is woken."""

    CFG = DeviceConfig(service_time_ns=10 * US, jitter_frac=0.0,
                       parallelism=1)

    def make(self, sq=2, cq=2):
        clock = VirtualClock()
        dev = SimDevice(self.CFG, clock)
        inst = ApiInstance(sq_capacity=sq, cq_capacity=cq)
        space = CountingSignal()
        dev.attach(inst, space_signal=space)
        return clock, inst, space

    def test_a_consume_with_no_refused_push_notifies_nothing(self):
        clock, inst, space = self.make(sq=4, cq=4)
        for _ in range(3):
            assert inst.sq_push(IoRequest(OpKind.NOP), clock.now) \
                == PushResult.ACCEPTED
        clock.run_until_idle()
        assert len(inst.cq) == 3 and space.notifies == 0

    def test_the_next_consume_after_a_refusal_notifies_once(self):
        clock, inst, space = self.make()
        for _ in range(2):
            inst.sq_push(IoRequest(OpKind.NOP), clock.now)
        assert inst.sq_push(IoRequest(OpKind.NOP), clock.now) \
            == PushResult.QUEUE_FULL
        assert inst.space_wanted
        clock.run_until(0)  # one consume: the device has one slot
        assert (len(inst.sq), space.notifies, inst.space_wanted) \
            == (1, 1, False)
        clock.run_until_idle()  # the second consume finds no refusal
        assert (len(inst.cq), space.notifies) == (2, 1)

    def test_a_refusal_for_cq_headroom_is_recorded(self):
        clock, inst, space = self.make()
        for _ in range(2):
            inst.sq_push(IoRequest(OpKind.NOP), clock.now)
        clock.run_until_idle()
        assert len(inst.sq) == 0 and len(inst.cq) == 2
        assert not inst.space_wanted
        assert inst.sq_push(IoRequest(OpKind.NOP), clock.now) \
            == PushResult.QUEUE_FULL
        assert inst.space_wanted
        inst.cq_reap(2)
        assert inst.sq_push(IoRequest(OpKind.NOP), clock.now) \
            == PushResult.ACCEPTED
        clock.run_until_idle()
        assert (space.notifies, inst.space_wanted) == (1, False)


class TestWallClock:
    """The device thread sleeps until it has work: untimed on an empty
    calendar and until the first deadline otherwise, since every ``at``
    and ``stop`` wakes it. ``start`` runs one thread however often it is
    called, and ``stop`` ends it."""

    @staticmethod
    def waits_of(clock):
        """Record the timeout of each wait on the clock's condition."""
        waits = []

        class Counting(threading.Condition):
            def wait(self, timeout=None):
                waits.append(timeout)
                return super().wait(timeout)

        clock._cond = Counting()
        return waits

    @staticmethod
    def device_threads():
        return [t for t in threading.enumerate()
                if t.name == "ringbench-device"]

    def test_idle_clock_waits_once(self):
        clock = WallClock()
        waits = self.waits_of(clock)
        clock.start(None)
        time.sleep(0.1)
        clock.stop()
        assert not clock._thread.is_alive()
        assert waits == [None]

    def test_waits_for_the_first_deadline_and_wakes_for_an_earlier_one(self):
        clock = WallClock()
        waits = self.waits_of(clock)
        clock.at(clock.now + 10_000 * MS, lambda: None)
        clock.start(None)
        time.sleep(0.1)
        ran = threading.Event()
        clock.at(clock.now, ran.set)
        assert ran.wait(5)
        clock.stop()
        assert not clock._thread.is_alive()
        assert len(waits) == 2 and all(9 < w <= 10 for w in waits)

    def test_a_second_start_runs_no_second_thread(self):
        before = len(self.device_threads())
        clock = WallClock()
        clock.start(None)
        first = clock._thread
        clock.start(None)
        assert clock._thread is first
        assert len(self.device_threads()) == before + 1
        ran = []
        done = threading.Event()

        def record():
            ran.append(threading.current_thread())
            done.set()

        clock.at(clock.now, record)
        assert done.wait(5)
        clock.stop()
        assert ran == [first] and not first.is_alive()
        assert len(self.device_threads()) == before

    def test_stop_without_start_returns_at_once(self):
        clock = WallClock()
        began = time.monotonic()
        clock.stop()
        assert time.monotonic() - began < 0.1
        assert clock._thread is None and not clock._stop
