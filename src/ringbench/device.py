"""Deterministic discrete-event storage device behind the ring interface.

The device is an event calendar plus a small amount of per-instance state:
a bounded set of in-service slots (internal parallelism), a fixed service
time with optional seeded jitter, fault injection, and an accounting model
of the per-instance submission-poll thread (the steep upkeep cost of ring
instances).

The same device logic runs in two modes:

* virtual time: events execute on a ``VirtualClock`` driven by the caller;
  identical (config, seed) gives bit-identical traces.
* wall clock: events execute on a dedicated thread draining the same
  calendar against ``time.monotonic_ns()``; used by the real-thread test
  paths where timing is approximate but conservation must hold.

In both modes the device thread/engine is the sole consumer of every
attached SQ and the sole producer of every attached CQ, preserving the
rings' SPSC contract. In wall mode it also runs the submission hook a
push calls, so the device's own state has one writer.
"""

from __future__ import annotations

import heapq
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from .ring import ApiInstance, Completion, CompletionStatus

POLL_ACTIVE = 0
POLL_ASLEEP = 1


# an ``at_last`` entry's seq offset: it sorts after every ``at`` entry
_LAST = 1 << 62

# how long ``WallClock.stop`` waits for the device thread to end
STOP_TIMEOUT_S = 10.0


class VirtualClock:
    """Time-ordered event calendar; ties fire in insertion order.

    Events due later wait in a heap keyed by ``(t, seq)``. An event
    scheduled for ``now`` while no heap entry is due at ``now`` goes to a
    FIFO lane instead, which ``step`` drains before it pops the heap: every
    heap entry due at ``now`` was scheduled earlier, so it fires first, and
    the lane keeps the exact ``(t, seq)`` order without a push and a pop.
    An ``at_last`` entry is keyed ``(t, _LAST + seq)``: it fires after
    every ``at`` entry due at ``t``.
    """

    __slots__ = ("now", "_heap", "_seq", "_lane")

    def __init__(self):
        self.now = 0
        self._heap = []
        self._seq = 0
        self._lane = deque()

    def at(self, t: int, fn) -> None:
        now = self.now
        if t == now:
            heap = self._heap
            if not heap or heap[0][0] != now:
                self._lane.append(fn)
                return
        assert t >= now, "cannot schedule into the past"
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, fn))

    def at_last(self, t: int, fn) -> None:
        """Schedule ``fn`` at ``t`` (``t > now``) after every other event
        due then, also one scheduled during that instant; two of these due
        at the same time fire in the order they were scheduled."""
        assert t > self.now, "a last entry goes after now"
        self._seq += 1
        heapq.heappush(self._heap, (t, _LAST + self._seq, fn))

    def idle(self) -> bool:
        """True when no event is pending."""
        return not (self._heap or self._lane)

    def due_now(self) -> bool:
        """True when an ``at`` entry of the heap is due at ``now``: then an
        event scheduled now waits behind it, not only behind the
        same-instant lane."""
        heap = self._heap
        return bool(heap) and heap[0][0] == self.now and heap[0][1] < _LAST

    def step(self) -> bool:
        lane = self._lane
        if lane:
            lane.popleft()()
            return True
        if not self._heap:
            return False
        t, _, fn = heapq.heappop(self._heap)
        self.now = t
        fn()
        return True

    def run_until_idle(self, max_events: int = 500_000_000) -> int:
        n = 0
        while self.step():
            n += 1
            if n >= max_events:
                raise RuntimeError(f"event budget exhausted after {n} events")
        return n

    def run_until(self, t: int) -> None:
        heap = self._heap
        lane = self._lane
        while (lane and self.now <= t) or (heap and heap[0][0] <= t):
            self.step()
        if self.now < t:
            self.now = t


class WallClock:
    """Same calendar interface against the OS monotonic clock.

    Scheduling is thread-safe; ``start`` runs ``drain_loop`` on the one
    device thread, which executes callbacks as their deadlines pass, and
    ``stop`` ends it.
    """

    def __init__(self):
        self._origin = time.monotonic_ns()
        self._heap = []
        self._seq = 0
        self._cond = threading.Condition()
        self._stop = False
        self._thread = None

    @property
    def now(self) -> int:
        return time.monotonic_ns() - self._origin

    def due_now(self) -> bool:
        """Always True: a deadline may pass before an event scheduled now
        runs."""
        return True

    def at(self, t: int, fn) -> None:
        with self._cond:
            self._seq += 1
            heapq.heappush(self._heap, (t, self._seq, fn))
            self._cond.notify()

    def start(self, on_error) -> None:
        """Start the device thread, once (see ``drain_loop``)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.drain_loop, args=(on_error,),
                name="ringbench-device", daemon=True)
            self._thread.start()

    def stop(self) -> None:
        """End the device thread, if it started, and wait for it."""
        if self._thread is None:
            return
        with self._cond:
            self._stop = True
            self._cond.notify()
        self._thread.join(STOP_TIMEOUT_S)
        if self._thread.is_alive():
            raise RuntimeError("device thread failed to stop")

    def drain_loop(self, on_error) -> None:
        """Run each callback once its deadline passes; an error one raises
        ends the loop and goes to ``on_error``. Every ``at`` and ``stop``
        notifies, so the loop sleeps untimed on an empty calendar and
        otherwise until the first deadline."""
        while True:
            with self._cond:
                if self._stop:
                    return
                if not self._heap:
                    self._cond.wait()
                    continue
                wait_ns = self._heap[0][0] - self.now
                if wait_ns > 0:
                    self._cond.wait(wait_ns / 1e9)
                    continue
                _, _, fn = heapq.heappop(self._heap)
            try:
                fn()
            except Exception as exc:
                on_error(exc)
                return


@dataclass
class PollConfig:
    """SQ-poll thread costs; its idle timeout is the ring's (RingConfig)."""

    wakeup_cost_ns: int = 5_000       # syscall-scale; tunable, not ground truth


@dataclass
class DeviceConfig:
    """Parameterized device model; defaults are the ``desk-nvme`` preset.

    ``validate`` raises ``ValueError`` whose message starts with the
    offending field.
    """

    service_time_ns: int = 100_000
    jitter_frac: float = 0.1
    parallelism: int = 64
    capacity_bytes: int = 1 << 30
    block_size: int = 4096
    submission_cpu_cost_ns: int = 0
    poll: PollConfig = field(default_factory=PollConfig)

    def validate(self) -> None:
        if self.service_time_ns <= 0:
            raise ValueError("service_time_ns must be > 0")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if not 0.0 <= self.jitter_frac < 1.0:
            raise ValueError("jitter_frac must be in [0, 1)")
        if self.block_size < 1 or self.capacity_bytes < self.block_size:
            raise ValueError("capacity_bytes must hold at least one block")
        if self.submission_cpu_cost_ns < 0:
            raise ValueError("submission_cpu_cost_ns must be >= 0")
        if self.poll.wakeup_cost_ns < 0:
            raise ValueError("poll.wakeup_cost_ns must be >= 0")


def steady_state_iops(cfg: DeviceConfig, queue_depth: int) -> float:
    """Little's-law prediction the simulator must converge to (zero jitter)."""
    if queue_depth < 1:
        raise ValueError("queue_depth must be >= 1")
    return min(queue_depth, cfg.parallelism) * 1e9 / cfg.service_time_ns


class PollThread:
    """Activity model of one instance's submission-polling kernel thread.

    Active -> Asleep exactly when now - last_submission_seen reaches the
    idle timeout; waking charges wakeup_cost. busy_ns accumulates wall time
    over Active periods (a polling thread burns CPU whether or not entries
    arrive), which is what makes low-rate submission streams expensive.
    """

    __slots__ = ("state", "last_submission_seen", "idle_timeout",
                 "wakeup_cost", "busy_ns", "active_since", "wakeups",
                 "sleeps", "_wake_pending", "_check_pending")

    def __init__(self, cfg: PollConfig, idle_timeout: int, now: int = 0):
        self.state = POLL_ACTIVE
        self.last_submission_seen = now
        self.idle_timeout = idle_timeout
        self.wakeup_cost = cfg.wakeup_cost_ns
        self.busy_ns = 0
        self.active_since = now
        self.wakeups = 0
        self.sleeps = 0
        self._wake_pending = False
        self._check_pending = False

    def wake(self, now: int) -> None:
        assert self.state == POLL_ASLEEP
        self.state = POLL_ACTIVE
        self.active_since = now
        self.last_submission_seen = now
        self.busy_ns += self.wakeup_cost  # charged at the activation instant
        self.wakeups += 1

    def sleep(self, now: int) -> None:
        assert self.state == POLL_ACTIVE
        self.busy_ns += now - self.active_since
        self.state = POLL_ASLEEP
        self.sleeps += 1

    def finalize(self, now: int) -> None:
        if self.state == POLL_ACTIVE:
            self.busy_ns += now - self.active_since
            self.active_since = now


class _InstState:
    __slots__ = ("inst", "poll", "consumer_free_at", "sweep_pending",
                 "reaper_signal", "space_signal", "in_service", "busy_since",
                 "busy_ns", "consumed")

    def __init__(self, inst: ApiInstance, poll):
        self.inst = inst
        self.poll = poll
        self.consumer_free_at = 0
        self.sweep_pending = False
        self.reaper_signal = None
        self.space_signal = None
        self.in_service = 0
        self.busy_since = 0
        self.busy_ns = 0
        self.consumed = 0


class SimDevice:
    """Shared device multiplexing any number of attached instances.

    Service slots (internal parallelism) are global; consumption from each
    SQ is gated by free slots, the instance's poll-thread state and the
    per-entry submission CPU cost.
    """

    def __init__(self, cfg: DeviceConfig, clock, seed: int = 0):
        cfg.validate()
        self.cfg = cfg
        self.clock = clock
        self.rng = random.Random(seed ^ 0x5DEECE66D)
        self.instances: list[_InstState] = []
        self.in_service = 0
        self.fault_plan: dict[tuple[int, int], int] = {}
        self.completion_listener = None  # fn(comp, submit_time)
        self.trace = None                # fn(time, kind, instance_id, req_id)
        # random.uniform(-j, j)'s arithmetic, without its Python frame
        self._jitter_lo = -cfg.jitter_frac
        self._jitter_span = cfg.jitter_frac - self._jitter_lo

    # -- wiring ---------------------------------------------------------------

    def attach(self, inst: ApiInstance, reaper_signal=None,
               space_signal=None) -> int:
        poll = None
        if inst.sq_poll_enabled:
            poll = PollThread(self.cfg.poll, inst.sq_poll_idle_timeout,
                              self.clock.now)
        st = _InstState(inst, poll)
        st.reaper_signal = reaper_signal
        st.space_signal = space_signal
        inst.instance_id = len(self.instances)
        self.instances.append(st)
        inst.on_submit = (self._on_submit_wall
                          if isinstance(self.clock, WallClock)
                          else self._on_submit_hook)
        if poll is not None:
            self._arm_poll_check(st)
        return inst.instance_id

    def inject_fault(self, instance_id: int, request_id: int,
                     code: int = 5) -> None:
        self.fault_plan[(instance_id, request_id)] = code

    # -- submission side ----------------------------------------------------------

    def _on_submit_wall(self, inst: ApiInstance) -> None:
        # a push runs on its producer's thread; the device thread alone
        # touches the instances' and poll threads' state, so the hook runs
        # there, as an event due now
        clock = self.clock
        clock.at(clock.now, lambda: self._on_submit_hook(inst))

    def _on_submit_hook(self, inst: ApiInstance) -> None:
        st = self.instances[inst.instance_id]
        now = self.clock.now
        if self.trace is not None:
            self.trace(now, "submit", inst.instance_id, -1)
        poll = st.poll
        if poll is None or poll.state == POLL_ACTIVE:
            if poll is not None:
                poll.last_submission_seen = now
            # a full device sweeps nothing, and unless an entry is due now
            # only the same-instant lane runs before this sweep would: no
            # slot frees there, as a completion is never due in the
            # instant it is scheduled. The next completion sweeps this SQ.
            if self.in_service >= self.cfg.parallelism \
                    and not self.clock.due_now():
                return
        self._sweep_soon((st,), now)

    # -- poll thread events ------------------------------------------------------

    def _wake_poll(self, st: _InstState) -> None:
        poll = st.poll
        now = self.clock.now
        poll._wake_pending = False
        poll.wake(now)
        if self.trace is not None:
            self.trace(now, "poll_wake", st.inst.instance_id, -1)
        self._arm_poll_check(st)
        self._sweep(st)

    def _arm_poll_check(self, st: _InstState) -> None:
        poll = st.poll
        if poll._check_pending or poll.state != POLL_ACTIVE:
            return
        poll._check_pending = True
        t = poll.last_submission_seen + poll.idle_timeout
        self.clock.at(t, lambda: self._poll_check(st, t))

    def _poll_check(self, st: _InstState, t: int) -> None:
        # judged at the check's own time t, not when it runs: a wall-clock
        # device thread running it late must not time out the poll thread
        # over a submission seen after t
        poll = st.poll
        poll._check_pending = False
        if poll.state != POLL_ACTIVE:
            return
        idle_deadline = poll.last_submission_seen + poll.idle_timeout
        if t >= idle_deadline:
            poll.sleep(idle_deadline)
            if self.trace is not None:
                self.trace(idle_deadline, "poll_sleep",
                           st.inst.instance_id, -1)
        else:
            self._arm_poll_check(st)

    # -- consumption --------------------------------------------------------------

    def _sweep_soon(self, sts, t: int) -> None:
        """Sweep each of ``sts`` at ``t``, in order, in one event.

        A poll thread that slept over a saturation stall leaves SQ entries
        stranded; the producer-side NEED_WAKEUP check is modeled here: an
        asleep one is woken instead, and its wake closes the batch, so that
        a zero-cost wake keeps its place between the sweeps.
        """
        clock = self.clock
        batch = []
        for st in sts:
            poll = st.poll
            if poll is not None and poll.state == POLL_ASLEEP:
                if not poll._wake_pending:
                    # the defaults bind this batch and this instance
                    if batch:
                        clock.at(t, lambda b=batch: self._run_sweeps(b))
                        batch = []
                    poll._wake_pending = True
                    clock.at(t + poll.wakeup_cost,
                             lambda st=st: self._wake_poll(st))
            elif not st.sweep_pending:
                st.sweep_pending = True
                batch.append(st)
        if batch:
            clock.at(t, lambda: self._run_sweeps(batch))

    def _run_sweeps(self, batch) -> None:
        # one event for several sweeps due at the same time, in the order
        # separate events would have run them; a full device pops nothing,
        # so once one fills it the rest are skipped
        parallelism = self.cfg.parallelism
        for st in batch:
            st.sweep_pending = False
            if self.in_service < parallelism:
                self._sweep(st)

    def _service_ns(self) -> int:
        base = self.cfg.service_time_ns
        span = self._jitter_span
        if not span:
            return base
        return max(1, int(base * (1.0 + (self._jitter_lo
                                         + span * self.rng.random()))))

    def _sweep(self, st: _InstState) -> None:
        clock = self.clock
        inst = st.inst
        sq = inst.sq
        poll = st.poll
        parallelism = self.cfg.parallelism
        cost = self.cfg.submission_cpu_cost_ns
        fault_plan = self.fault_plan
        popped = 0
        # a full device pops nothing: its test comes before the
        # consumer-busy test, which reschedules
        while self.in_service < parallelism:
            if poll is not None and poll.state != POLL_ACTIVE:
                break
            req = sq.peek()
            if req is None:
                break
            now = clock.now
            if cost:
                if now < st.consumer_free_at:
                    self._sweep_soon((st,), st.consumer_free_at)
                    break
                st.consumer_free_at = now + cost
            sq.try_pop()
            popped += 1
            st.consumed += 1
            if poll is not None:
                # consuming counts as seen traffic; a draining thread is busy
                poll.last_submission_seen = now
            if st.in_service == 0:
                st.busy_since = now
            st.in_service += 1
            self.in_service += 1
            if self.trace is not None:
                self.trace(now, "consume", inst.instance_id, req.request_id)
            status, value = CompletionStatus.OK, req.length
            if fault_plan:
                fault = fault_plan.get((inst.instance_id, req.request_id))
                if fault is not None:
                    status, value = CompletionStatus.ERROR, fault
            done_at = now + cost + self._service_ns()
            clock.at(done_at,
                     self._completion_fn(st, req, status, value, done_at))
        # as with IORING_ENTER_SQ_WAIT, only a producer that was refused
        # waits for room: nobody else is woken. In wall mode the refusal
        # is recorded on the producer's thread, so one that races this
        # consume can miss its notify; the producer then waits out one of
        # Signal._wait_wall's 1 ms slices.
        if popped and inst.space_wanted:
            inst.space_wanted = False
            if st.space_signal is not None:
                st.space_signal.notify()

    def _completion_fn(self, st, req, status, value, done_at):
        return lambda: self._complete(st, req, status, value, done_at)

    def _complete(self, st: _InstState, req, status, value, t: int) -> None:
        self.in_service -= 1
        st.in_service -= 1
        if st.in_service == 0:
            st.busy_ns += t - st.busy_since
        self._deliver(st, req, status, value, t)
        # a slot freed: give every backlogged instance a chance, self first
        backlog = [other for other in self.instances
                   if other is not st and len(other.inst.sq)]
        if len(st.inst.sq):
            backlog.insert(0, st)
        self._sweep_soon(backlog, t)

    def _deliver(self, st: _InstState, req, status, value, t: int) -> None:
        inst = st.inst
        comp = Completion(req.request_id, req.user_data, status, value, t)
        inst.deliver_completion(comp)
        if self.trace is not None:
            self.trace(t, "complete", inst.instance_id, req.request_id)
        listener = self.completion_listener
        if listener is not None:
            listener(comp, req.submit_time)
        if st.reaper_signal is not None:
            st.reaper_signal.notify()

    # -- reporting ------------------------------------------------------------------

    def finalize(self, now: int) -> None:
        for st in self.instances:
            if st.poll is not None:
                st.poll.finalize(now)
            if st.in_service > 0:
                st.busy_ns += now - st.busy_since
                st.busy_since = now

    def poll_busy_ns(self) -> list[int]:
        return [st.poll.busy_ns if st.poll else 0 for st in self.instances]

    def utilization(self, elapsed: int) -> list[float]:
        if elapsed <= 0:
            return [0.0 for _ in self.instances]
        return [min(1.0, st.busy_ns / elapsed) for st in self.instances]
