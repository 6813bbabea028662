"""Actor runtime shared by all execution architectures.

An actor is a plain generator that yields what it wants from the scheduler:

* an ``int`` of ns: consume that much CPU (a virtual-time charge, or a
  calibrated spin on a real thread); ``0`` takes no time and makes no
  event, so a charge site yields its cost whatever it is;
* a ``Signal``: park until someone notifies it;
* in virtual mode, a poll-miss streak (``arch.common.MissStreak``): it
  arms one calendar entry, its end, and the actor resumes when that
  fires.

In virtual mode all actors plus the device share one ``VirtualClock`` and
run interleaved on the calling thread; actor steps are atomic between
yields, which makes check-then-park race-free. In wall mode each actor gets
a real thread and signals degrade to event-plus-timeout waits, so actors
must be written condition-loop style (they are).

An optional scheduling jitter (seeded) perturbs virtual signal wakeups to
explore different interleavings deterministically; it is off for metric
runs.
"""

from __future__ import annotations

import functools
import random
import threading
import time

from .device import VirtualClock, WallClock


def _thread_name() -> str:
    """A wall actor's name: its thread's."""
    return threading.current_thread().name


class Signal:
    """Wait/notify rendezvous usable from actors in either mode.

    ``version`` increments on every notify; actors that interleave yields
    between observing state and parking snapshot it first and skip the park
    if it moved (the eventcount pattern: a notify can fire while the actor
    is mid-pass and not yet parked).
    """

    __slots__ = ("_rt", "_waiters", "_event", "version")

    def __init__(self, rt: "Runtime"):
        self._rt = rt
        self._waiters = []
        self._event = threading.Event() if rt.mode == "wall" else None
        self.version = 0

    def notify(self) -> None:
        self.version += 1
        if self._event is not None:
            self._event.set()
            return
        waiters = self._waiters
        if not waiters:
            return
        self._waiters = []
        rt = self._rt
        clock = rt.clock
        jitter = rt._jitter
        for actor in waiters:
            delay = jitter() if jitter else 0
            clock.at(clock.now + delay, actor._resume)

    # wall-mode side, called from the actor thread
    def _wait_wall(self) -> None:
        self._event.wait(0.001)
        self._event.clear()


class _VirtualActor:
    __slots__ = ("rt", "gen", "name", "done")

    def __init__(self, rt, gen, name):
        self.rt = rt
        self.gen = gen
        self.name = name
        self.done = False
        rt.live += 1
        delay = rt._jitter() if rt._jitter else 0
        rt.clock.at(rt.clock.now + delay, self._resume)

    def _resume(self) -> None:
        rt = self.rt
        prev = rt.current_executor
        rt.current_executor = self.name
        try:
            item = self.gen.send(None)
            while type(item) is int and not item:
                item = self.gen.send(None)  # a zero charge: no event
        except StopIteration:
            self.done = True
            rt.live -= 1
            rt.current_executor = prev
            return
        rt.current_executor = prev
        if type(item) is int:
            rt.clock.at(rt.clock.now + item, self._resume)
        elif type(item) is Signal:
            item._waiters.append(self)
        else:
            # a poll-miss streak: its end resumes this actor
            item.arm(self._resume)


class _WallActor:
    __slots__ = ("rt", "gen", "name", "thread", "done")

    # below this, sleeping is less accurate than burning the CPU
    SPIN_CEILING_NS = 200_000

    def __init__(self, rt, gen, name):
        self.rt = rt
        self.gen = gen
        self.name = name
        self.done = False
        self.thread = threading.Thread(target=self._run, name=name,
                                       daemon=True)
        self.thread.start()

    def _run(self) -> None:
        rt = self.rt
        monotonic_ns = time.monotonic_ns
        try:
            for item in self.gen:
                if rt.error is not None:
                    return  # the run failed: stop at this yield
                if type(item) is int:
                    if item <= 0:
                        continue
                    if item > self.SPIN_CEILING_NS:
                        time.sleep(item / 1e9)
                    else:
                        deadline = monotonic_ns() + item
                        while monotonic_ns() < deadline:
                            pass
                else:
                    item._wait_wall()
        except BaseException as exc:  # re-raised by the run loop
            rt.fail(exc)
        finally:
            self.done = True


class VirtualLock:
    """Mutual exclusion between actors, with contention accounting.

    Critical sections cost virtual time (`hold_cost`), so overlapping
    acquire attempts actually contend; a zero-duration section could never
    collide in a discrete-event world.
    """

    __slots__ = ("rt", "held", "signal", "contention")

    def __init__(self, rt):
        self.rt = rt
        self.held = False
        self.signal = Signal(rt)
        self.contention = 0

    def acquire(self):
        while self.held:
            self.contention += 1
            yield self.signal
        self.held = True

    def release(self) -> None:
        assert self.held
        self.held = False
        self.signal.notify()


class WallLock:
    """threading.Lock wrapper counting failed immediate acquires."""

    __slots__ = ("_lock", "contention")

    def __init__(self, rt=None):
        self._lock = threading.Lock()
        self.contention = 0

    def acquire(self):
        if not self._lock.acquire(blocking=False):
            self.contention += 1  # benign racy increment: a count, not a gate
            self._lock.acquire()
        return
        yield  # pragma: no cover - keeps the actor-side protocol uniform

    def release(self) -> None:
        self._lock.release()


class Runtime:
    """Facade choosing virtual or wall execution for a whole run."""

    def __init__(self, mode: str = "virtual", seed: int = 0,
                 sched_jitter_ns: int = 0):
        if mode not in ("virtual", "wall"):
            raise ValueError(f"unknown mode {mode!r}")
        if sched_jitter_ns < 0:
            raise ValueError("sched_jitter_ns must be >= 0")
        self.mode = mode
        self.clock = VirtualClock() if mode == "virtual" else WallClock()
        self.actors = []
        self.live = 0  # virtual actors whose generator has not ended
        self.device = None  # the run's device: a deadlock names its rings
        # a pool run's dispatch layer: a deadlock names the requests it holds
        self.pool = None
        self.error = None  # wall mode: the run's first error, see fail()
        self.workload_done_ns = None  # set by drive once done_pred holds
        self._error_lock = threading.Lock()
        self.current_executor = "main"
        # the running actor's name; owned rings check it per push and reap
        self.executor_id = (
            functools.partial(getattr, self, "current_executor")
            if mode == "virtual" else _thread_name)
        if sched_jitter_ns and mode == "virtual":
            rng = random.Random(seed ^ 0x9E3779B9)
            self._jitter = lambda: rng.randrange(sched_jitter_ns)
        else:
            self._jitter = None

    def now(self) -> int:
        return self.clock.now

    def signal(self) -> Signal:
        return Signal(self)

    def lock(self):
        return VirtualLock(self) if self.mode == "virtual" else WallLock(self)

    def spawn(self, gen, name: str):
        actor = (_VirtualActor(self, gen, name) if self.mode == "virtual"
                 else _WallActor(self, gen, name))
        self.actors.append(actor)
        return actor

    def all_exited(self):
        """A predicate that holds once every spawned actor has finished.

        Virtual mode tests the live-actor count, so the run loop pays no
        scan per event; wall mode reads each actor's ``done`` flag.
        """
        if self.mode == "virtual":
            return lambda: not self.live
        actors = self.actors
        return lambda: all(a.done for a in actors)

    def fail(self, exc: BaseException) -> None:
        """Record the run's first error (wall mode); every actor stops at
        its next yield."""
        with self._error_lock:  # actor threads can fail at once
            if self.error is None:
                self.error = exc
