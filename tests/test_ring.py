"""Ring, request/completion model, and ApiInstance contract tests."""

import random
import threading

import pytest

from ringbench.device import DeviceConfig, SimDevice, VirtualClock
from ringbench.ring import (ApiInstance, Completion, CompletionStatus,
                            IoRequest, OpKind, PushResult, RingQueue)
from ringbench.verify import spsc_violations


def nop():
    return IoRequest(OpKind.NOP)


def depths(inst):
    """SQ depth, CQ depth and completions not yet written, as the
    architectures read them."""
    return len(inst.sq), len(inst.cq), inst.pending_completion_count()


class TestRingQueue:
    def test_capacity_must_be_power_of_two(self):
        for bad in (0, 3, 6, 100):
            with pytest.raises(ValueError):
                RingQueue(bad)
        for ok in (1, 2, 8, 256):
            RingQueue(ok)

    def test_fifo_single_threaded(self):
        q = RingQueue(8)
        for i in range(8):
            assert q.try_push(i)
        assert not q.try_push(99)
        assert [q.try_pop() for _ in range(8)] == list(range(8))
        assert q.try_pop() is None

    def test_wraparound_preserves_order(self):
        rng = random.Random(5)
        q = RingQueue(4)
        out = []
        for i in range(1000):
            while not q.try_push(i):
                out.append(q.try_pop())
            while len(q) and rng.random() < 0.4:
                out.append(q.try_pop())
        out.extend(iter(q.try_pop, None))
        assert out == sorted(out) == list(range(1000))

    def test_batch_ops(self):
        # items are pushed one at a time; pops come in batches, across the
        # wrap of the slot index
        q = RingQueue(16)
        assert [q.try_push(i) for i in range(17)] == [True] * 16 + [False]
        assert q.try_pop_many(6) == list(range(6))
        assert all(q.try_push(i) for i in range(100, 106))
        assert not q.try_push(106)
        rest = q.try_pop_many(64)
        assert rest == list(range(6, 16)) + list(range(100, 106))
        assert q.try_pop_many(4) == []

    def test_peek_does_not_consume(self):
        q = RingQueue(2)
        assert q.peek() is None
        q.try_push("a")
        assert q.peek() == "a"
        assert len(q) == 1
        assert q.try_pop() == "a"


@pytest.fixture
def fast_thread_switching():
    # spin loops between two threads starve each other at the default 5 ms
    # switch interval; stress tests run with a tighter one
    import sys
    prev = sys.getswitchinterval()
    sys.setswitchinterval(5e-5)
    yield
    sys.setswitchinterval(prev)


class TestSpscThreads:
    """The produced sequence must equal the consumed sequence exactly."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_concurrent_fifo_no_loss_no_dup(self, seed):
        rng = random.Random(seed)
        capacity = 2 ** rng.randint(2, 10)
        pop_batch = rng.randint(1, 512)
        assert spsc_violations(30_000, capacity, pop_batch) == []


class TestSqPush:
    def test_empty_queue_accept(self):
        inst = ApiInstance(sq_capacity=8, cq_capacity=8)
        assert inst.sq_push(nop()) == PushResult.ACCEPTED
        assert depths(inst) == (1, 0, 1)

    def test_full_queue_rejected_state_unchanged(self):
        inst = ApiInstance(sq_capacity=8, cq_capacity=16)
        for _ in range(8):
            assert inst.sq_push(nop()) == PushResult.ACCEPTED
        before = depths(inst)
        assert inst.sq_push(nop()) == PushResult.QUEUE_FULL
        assert depths(inst) == before == (8, 0, 8)

    def test_request_ids_assigned_monotonically(self):
        inst = ApiInstance(sq_capacity=8, cq_capacity=8)
        reqs = [nop() for _ in range(4)]
        for r in reqs:
            inst.sq_push(r)
        assert [r.request_id for r in reqs] == [0, 1, 2, 3]

    def test_push_stamps_the_submit_time(self):
        inst = ApiInstance(sq_capacity=8, cq_capacity=8)
        reqs = [nop() for _ in range(2)]
        inst.sq_push(reqs[0], 5)
        inst.sq_push(reqs[1], 7)
        assert [r.submit_time for r in reqs] == [5, 7]

    def test_a_request_is_pushed_once(self):
        # also once its completion has been reaped: the ring owns its id
        inst = ApiInstance(sq_capacity=8, cq_capacity=8)
        req = nop()
        assert inst.sq_push(req) == PushResult.ACCEPTED
        with pytest.raises(AssertionError):
            inst.sq_push(req)
        inst.sq.try_pop()
        inst.deliver_completion(Completion(
            req.request_id, 0, CompletionStatus.OK, 0, 0))
        assert len(inst.cq_reap(8)) == 1
        with pytest.raises(AssertionError, match="request already pushed"):
            inst.sq_push(req)
        assert (inst.accepted_total, len(inst.sq)) == (1, 0)

    def test_stress_against_concurrent_consumer(self, fast_thread_switching):
        # capacity 8, 1000 pushes with retries; consumer sees push order
        inst = ApiInstance(sq_capacity=8, cq_capacity=8)
        seen = []

        def consumer():
            import time
            while len(seen) < 1000:
                req = inst.sq.try_pop()
                if req is not None:
                    seen.append(req.request_id)
                    # emulate the backend so inflight bounding frees up
                    inst.deliver_completion(Completion(
                        req.request_id, 0, CompletionStatus.OK, 0, 0))
                    inst.cq_reap(8)
                else:
                    time.sleep(0)

        import time
        t = threading.Thread(target=consumer)
        t.start()
        accepted = 0
        while accepted < 1000:
            if inst.sq_push(nop()) == PushResult.ACCEPTED:
                accepted += 1
            else:
                time.sleep(0)
        t.join(30)
        assert not t.is_alive()
        assert seen == list(range(1000))

    def test_headroom_blocks_when_cq_backed_up(self):
        # cq full of unreaped completions must stall submission
        inst = ApiInstance(sq_capacity=8, cq_capacity=8)
        for _ in range(8):
            inst.sq_push(nop())
        for _ in range(8):
            req = inst.sq.try_pop()
            inst.deliver_completion(Completion(
                req.request_id, 0, CompletionStatus.OK, 0, 0))
        # 8 completions sit unreaped: zero headroom even though SQ is empty
        assert inst.sq_push(nop()) == PushResult.QUEUE_FULL
        inst.cq_reap(8)
        assert inst.sq_push(nop()) == PushResult.ACCEPTED


class TestCqReap:
    def _completed_instance(self, n):
        inst = ApiInstance(sq_capacity=8, cq_capacity=8)
        for _ in range(n):
            inst.sq_push(nop())
        for _ in range(n):
            req = inst.sq.try_pop()
            inst.deliver_completion(Completion(
                req.request_id, 0, CompletionStatus.OK, 0, 0))
        return inst

    def test_nothing_ready_is_empty_list(self):
        inst = ApiInstance()
        assert inst.cq_reap(4) == []

    def test_max_truncates(self):
        inst = self._completed_instance(3)
        first = inst.cq_reap(2)
        assert [c.request_id for c in first] == [0, 1]
        second = inst.cq_reap(2)
        assert [c.request_id for c in second] == [2]

    def test_max_must_be_positive(self):
        with pytest.raises(ValueError):
            ApiInstance().cq_reap(0)

    def test_reap_counts_what_it_returns(self):
        inst = self._completed_instance(2)
        inst.sq_push(nop())  # accepted; its completion is not written yet

        def counts():
            return (inst.accepted_total, inst.reaped_total,
                    inst.pending_completion_count())

        assert counts() == (3, 0, 1)
        assert len(inst.cq_reap(8)) == 2
        assert counts() == (3, 2, 1)

    def test_bulk_id_conservation_through_device(self):
        # every submitted id comes back exactly once, in a multiset sense
        clock = VirtualClock()
        dev = SimDevice(DeviceConfig(service_time_ns=1_000, jitter_frac=0.0,
                                     parallelism=8), clock, seed=7)
        inst = ApiInstance(sq_capacity=256, cq_capacity=512)
        dev.attach(inst)
        total = 20_000
        reaped = []
        submitted = 0
        queued = 0

        def pump():
            nonlocal submitted, queued
            while submitted < total and queued < 200:
                if inst.sq_push(nop(), clock.now) != PushResult.ACCEPTED:
                    break
                submitted += 1
                queued += 1

        pump()
        while len(reaped) < total:
            if not clock.step():
                break
            for c in inst.cq_reap(64):
                reaped.append(c.request_id)
                queued -= 1
            pump()
        assert len(reaped) == total
        assert len(set(reaped)) == total
        assert sorted(reaped) == list(range(total))


class TestRingOwnership:
    """Given an executor identity, an instance enforces its own single
    producer and single reaper."""

    @staticmethod
    def owned(running):
        inst = ApiInstance(sq_capacity=8, cq_capacity=8,
                           executor_id=lambda: running[0])
        inst.instance_id = 3
        return inst

    @staticmethod
    def complete_one(inst):
        assert inst.sq_push(nop()) == PushResult.ACCEPTED
        req = inst.sq.try_pop()
        inst.deliver_completion(Completion(
            req.request_id, 0, CompletionStatus.OK, 0, 0))

    def test_second_pusher_is_named(self):
        running = ["w0"]
        inst = self.owned(running)
        inst.sq_push(nop())
        running[0] = "w1"
        with pytest.raises(RuntimeError,
                           match="SQ 3: 'w1' pushes after 'w0'"):
            inst.sq_push(nop())
        assert inst.producer == "w0" and inst.accepted_total == 1

    def test_second_reaper_is_named(self):
        running = ["w0"]
        inst = self.owned(running)
        self.complete_one(inst)
        self.complete_one(inst)
        running[0] = "reaper"
        assert len(inst.cq_reap(1)) == 1
        running[0] = "w0"
        with pytest.raises(RuntimeError,
                           match="CQ 3: 'w0' reaps after 'reaper'"):
            inst.cq_reap(1)
        assert inst.reaper == "reaper"

    def test_one_executor_on_both_sides_passes(self):
        inst = self.owned(["w0"])
        for _ in range(3):
            self.complete_one(inst)
            assert len(inst.cq_reap(8)) == 1
        assert inst.producer == inst.reaper == "w0"
        assert inst.quiescent_conservation_holds()

    def test_refused_push_and_empty_reap_claim_nothing(self):
        running = ["w0"]
        inst = self.owned(running)
        assert inst.cq_reap(8) == []
        for _ in range(8):
            inst.sq_push(nop())
        running[0] = "w1"
        assert inst.sq_push(nop()) == PushResult.QUEUE_FULL
        assert (inst.producer, inst.reaper) == ("w0", None)

    def test_no_executor_id_means_no_check(self):
        inst = ApiInstance(sq_capacity=8, cq_capacity=8)
        for _ in range(3):
            self.complete_one(inst)
            inst.cq_reap(8)
        assert inst.producer is None and inst.reaper is None


class TestFaultedRequests:
    """The ERROR path through the device: ``fault_plan`` marks requests
    independently; nothing else fails, and nothing is ever CANCELED."""

    SERVICE_NS = 100_000

    def _device(self, jitter, seed=0, parallelism=16):
        clock = VirtualClock()
        cfg = DeviceConfig(service_time_ns=self.SERVICE_NS,
                           jitter_frac=jitter, parallelism=parallelism)
        dev = SimDevice(cfg, clock, seed=seed)
        inst = ApiInstance(sq_capacity=64, cq_capacity=128)
        dev.attach(inst)
        return clock, dev, inst

    @pytest.mark.parametrize("seed", range(100))
    def test_faults_complete_once_with_their_codes(self, seed):
        jitter = 0.3
        clock, dev, inst = self._device(jitter=jitter, seed=seed)
        rng = random.Random(seed)
        reqs = []
        for i in range(rng.randint(4, 40)):
            op = rng.choice((OpKind.NOP, OpKind.READ, OpKind.WRITE,
                             OpKind.FSYNC))
            length = 4096 * rng.randint(1, 8) \
                if op in (OpKind.READ, OpKind.WRITE) else 0
            req = IoRequest(op, offset=4096 * i, length=length, user_data=i)
            assert inst.sq_push(req, clock.now) == PushResult.ACCEPTED
            reqs.append(req)
        codes = {r.request_id: rng.randint(1, 125)
                 for r in rng.sample(reqs, rng.randint(0, len(reqs)))}
        for rid, code in codes.items():
            dev.inject_fault(inst.instance_id, rid, code=code)
        clock.run_until_idle()
        assert inst.quiescent_conservation_holds()
        comps = inst.cq_reap(len(reqs) + 1)
        assert sorted(c.request_id for c in comps) == \
            sorted(r.request_id for r in reqs)
        by_id = {c.request_id: c for c in comps}
        floor_ns = int(self.SERVICE_NS * (1.0 - jitter))
        for r in reqs:
            c = by_id[r.request_id]
            assert c.user_data == r.user_data
            assert c.complete_time >= floor_ns
            if r.request_id in codes:
                assert c.status == CompletionStatus.ERROR
                assert c.value == codes[r.request_id]
            else:
                assert c.status == CompletionStatus.OK
                assert c.value == r.length
        assert inst.quiescent_conservation_holds()

    def test_single_request_round_trip(self):
        clock, dev, inst = self._device(jitter=0.0)
        single = IoRequest(OpKind.NOP, user_data=42)
        assert inst.sq_push(single, clock.now) == PushResult.ACCEPTED
        clock.run_until_idle()
        (comp,) = inst.cq_reap(8)
        assert comp.request_id == single.request_id
        assert comp.user_data == 42
        assert comp.status == CompletionStatus.OK
        assert comp.complete_time == self.SERVICE_NS

    def test_fault_leaves_the_next_request_ok(self):
        clock, dev, inst = self._device(jitter=0.0)
        read = IoRequest(OpKind.READ, offset=0, length=4096)
        write = IoRequest(OpKind.WRITE, offset=4096, length=4096)
        inst.sq_push(read, clock.now)
        inst.sq_push(write, clock.now)
        dev.inject_fault(inst.instance_id, read.request_id, code=5)
        clock.run_until_idle()
        comps = {c.request_id: c for c in inst.cq_reap(8)}
        assert comps[read.request_id].status == CompletionStatus.ERROR
        assert comps[read.request_id].value == 5
        assert comps[write.request_id].status == CompletionStatus.OK
        assert comps[write.request_id].value == 4096

    def test_fault_plan_is_per_instance(self):
        # request ids restart at 0 on every instance; a fault names both
        clock, dev, a = self._device(jitter=0.0)
        b = ApiInstance(sq_capacity=64, cq_capacity=128)
        dev.attach(b)
        for inst in (a, b):
            for _ in range(4):
                inst.sq_push(nop(), clock.now)
        dev.inject_fault(a.instance_id, 2, code=9)
        clock.run_until_idle()
        status_a = {c.request_id: c.status for c in a.cq_reap(8)}
        status_b = {c.request_id: c.status for c in b.cq_reap(8)}
        assert status_a == {0: CompletionStatus.OK, 1: CompletionStatus.OK,
                            2: CompletionStatus.ERROR, 3: CompletionStatus.OK}
        assert set(status_b.values()) == {CompletionStatus.OK}

    def test_one_slot_completes_in_submission_order(self):
        clock, dev, inst = self._device(jitter=0.25, seed=11, parallelism=1)
        reqs = [IoRequest(OpKind.NOP) for _ in range(6)]
        for r in reqs:
            inst.sq_push(r, clock.now)
        dev.inject_fault(inst.instance_id, reqs[2].request_id)
        clock.run_until_idle()
        order = {c.request_id: c.complete_time for c in inst.cq_reap(16)}
        times = [order[r.request_id] for r in reqs]
        assert times == sorted(times)
        assert len(set(times)) == len(times)


class TestInstanceDepth:
    def test_fresh_instance(self):
        assert depths(ApiInstance()) == (0, 0, 0)

    def test_counts_after_pushes(self):
        inst = ApiInstance(sq_capacity=8, cq_capacity=8)
        for _ in range(4):
            inst.sq_push(nop())
        assert depths(inst) == (4, 0, 4)

    def test_counts_after_partial_completion(self):
        # device consumes all four (parallelism >= 4), completes two
        clock = VirtualClock()
        dev = SimDevice(DeviceConfig(service_time_ns=100_000, jitter_frac=0.0,
                                     parallelism=2), clock)
        inst = ApiInstance(sq_capacity=8, cq_capacity=8)
        dev.attach(inst)
        for _ in range(4):
            inst.sq_push(nop(), clock.now)
        clock.run_until(100_000)  # first two ops complete, next two consumed
        sq_depth, cq_depth, inflight = depths(inst)
        assert cq_depth == 2
        assert inflight == 2
        assert sq_depth == 0  # device consumed the remaining pair into slots

    def test_conservation_at_quiescence(self):
        clock = VirtualClock()
        dev = SimDevice(DeviceConfig(service_time_ns=1_000, jitter_frac=0.0),
                        clock)
        inst = ApiInstance()
        dev.attach(inst)
        for _ in range(100):
            inst.sq_push(nop(), clock.now)
        clock.run_until_idle()
        assert inst.quiescent_conservation_holds()
        inst.cq_reap(512)
        assert inst.quiescent_conservation_holds()

    def test_lost_completion_breaks_conservation(self, monkeypatch):
        clock = VirtualClock()
        dev = SimDevice(DeviceConfig(service_time_ns=1_000, jitter_frac=0.0),
                        clock)
        deliver = SimDevice._deliver
        seen = []

        def drop_fifth(self, st, req, status, value, t):
            seen.append(req.request_id)
            if len(seen) != 5:
                deliver(self, st, req, status, value, t)

        monkeypatch.setattr(SimDevice, "_deliver", drop_fifth)
        inst = ApiInstance()
        dev.attach(inst)
        for _ in range(10):
            inst.sq_push(nop(), clock.now)
        clock.run_until_idle()
        assert len(inst.cq_reap(512)) == 9
        assert inst.pending_completion_count() == 1
        assert not inst.quiescent_conservation_holds()


class TestValidation:
    def test_cq_must_cover_sq(self):
        with pytest.raises(ValueError):
            ApiInstance(sq_capacity=16, cq_capacity=8)
