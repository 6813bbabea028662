"""Request/completion data model and the SPSC ring pair they travel through.

The concurrency contract mirrors ring-based async I/O APIs: a submission
queue with exactly one producer thread, a completion queue with exactly one
consumer thread, and no locks on either hot path. Under CPython the GIL
makes the int head/tail stores atomic and program-ordered, which is the
acquire/release discipline these rings need: the slot is always written
before the counter that publishes it.

Cross-side counters are strictly single-writer (the producer owns
accepted_total, the backend owns completed_total, the reaper owns
reaped_total); derived quantities are computed from them so no counter is
ever read-modify-written by two threads.
"""

from __future__ import annotations

import enum
from typing import Optional


class OpKind(enum.IntEnum):
    READ = 0
    WRITE = 1
    FSYNC = 2
    NOP = 3


class CompletionStatus(enum.IntEnum):
    OK = 0
    ERROR = 1
    CANCELED = 2


class PushResult(enum.IntEnum):
    # QUEUE_FULL is routine backpressure, not an error: the layer above owns
    # the buffer-or-retry decision.
    ACCEPTED = 0
    QUEUE_FULL = 1


class IoRequest:
    """One I/O operation. An ``ApiInstance`` push assigns ``request_id``
    and stamps ``submit_time`` (ns); the native backend's caller sets its
    own ids."""

    __slots__ = ("request_id", "op", "offset", "length", "buffer_id",
                 "user_data", "submit_time")

    def __init__(self, op: OpKind, offset: int = 0, length: int = 0,
                 buffer_id: int = 0, user_data: int = 0,
                 request_id: Optional[int] = None):
        self.request_id = request_id
        self.op = op
        self.offset = offset
        self.length = length
        self.buffer_id = buffer_id
        self.user_data = user_data
        self.submit_time = None

    def __repr__(self):
        return (f"IoRequest(id={self.request_id}, op={OpKind(self.op).name}, "
                f"off={self.offset}, len={self.length})")


class Completion:
    """Result notification for one accepted request; delivered exactly once.

    ``value`` is bytes transferred for OK, an error code for ERROR, 0 for
    CANCELED. ``complete_time`` is ns on the clock of the run (virtual or
    wall).
    """

    __slots__ = ("request_id", "user_data", "status", "value", "complete_time")

    def __init__(self, request_id: int, user_data: int,
                 status: CompletionStatus, value: int, complete_time: int):
        self.request_id = request_id
        self.user_data = user_data
        self.status = status
        self.value = value
        self.complete_time = complete_time

    def __repr__(self):
        return (f"Completion(id={self.request_id}, "
                f"{CompletionStatus(self.status).name}, value={self.value}, "
                f"t={self.complete_time})")


class RingQueue:
    """Fixed-capacity single-producer/single-consumer FIFO.

    head and tail are monotonically increasing; the slot index is
    ``counter & mask``. Only the producer writes tail, only the consumer
    writes head, so each side reads one foreign counter that can only move
    in the direction that creates more room: a stale read is always safe.
    """

    __slots__ = ("capacity", "_mask", "_slots", "head", "tail")

    def __init__(self, capacity: int):
        if capacity < 1 or capacity & (capacity - 1):
            raise ValueError(f"capacity must be a power of two, got {capacity}")
        self.capacity = capacity
        self._mask = capacity - 1
        self._slots = [None] * capacity
        self.head = 0  # consumer counter
        self.tail = 0  # producer counter

    def __len__(self) -> int:
        # Third-party snapshot; can be momentarily stale under real threads.
        return self.tail - self.head

    def try_push(self, item) -> bool:
        tail = self.tail
        depth = tail - self.head
        assert 0 <= depth <= self.capacity
        if depth == self.capacity:
            return False
        self._slots[tail & self._mask] = item
        self.tail = tail + 1  # publish after the slot write
        return True

    def try_pop(self):
        """Return the oldest item, or None when empty."""
        head = self.head
        avail = self.tail - head
        assert 0 <= avail <= self.capacity
        if avail == 0:
            return None
        i = head & self._mask
        item = self._slots[i]
        self._slots[i] = None
        self.head = head + 1
        return item

    def try_pop_many(self, max_items: int) -> list:
        head = self.head
        n = self.tail - head
        if n > max_items:
            n = max_items
        if n <= 0:
            return []
        slots, mask = self._slots, self._mask
        out = []
        for k in range(n):
            i = (head + k) & mask
            out.append(slots[i])
            slots[i] = None
        self.head = head + n
        return out

    def peek(self):
        """Consumer-side: oldest item without consuming it, or None."""
        head = self.head
        if self.tail == head:
            return None
        return self._slots[head & self._mask]


class ApiInstance:
    """One SQ+CQ pair plus in-flight counters.

    The CQ can never overflow: submission is refused unless the CQ could
    absorb every not-yet-completed request plus this one, so the backend's
    completion write is guaranteed a slot. A refused push sets
    ``space_wanted``: the producer waits for room, and the backend wakes
    it on its next consume and clears the flag. Given ``executor_id``, the
    first executors to push and to reap are its only ``producer`` and
    ``reaper``; rings shared by design behind locks pass none.
    """

    __slots__ = ("sq", "cq", "sq_poll_enabled", "sq_poll_idle_timeout",
                 "instance_id", "executor_id", "producer",
                 "reaper", "accepted_total", "completed_total",
                 "reaped_total", "on_submit", "space_wanted",
                 "_next_request_id")

    def __init__(self, sq_capacity: int = 256, cq_capacity: int = 512,
                 sq_poll_enabled: bool = True,
                 sq_poll_idle_timeout: int = 1_000_000, executor_id=None):
        if cq_capacity < sq_capacity:
            raise ValueError(f"cq capacity {cq_capacity} must be >= sq "
                             f"capacity {sq_capacity}")
        self.sq = RingQueue(sq_capacity)
        self.cq = RingQueue(cq_capacity)
        self.sq_poll_enabled = sq_poll_enabled
        self.sq_poll_idle_timeout = sq_poll_idle_timeout
        self.instance_id = -1  # assigned by the backend on attach
        self.accepted_total = 0   # written by the producer only
        self.completed_total = 0  # written by the backend only
        self.reaped_total = 0     # written by the reaper only
        self.on_submit = None  # backend hook: fn(instance)
        self.space_wanted = False  # set by a refused push, see above
        self.executor_id = executor_id
        self.producer = None
        self.reaper = None
        self._next_request_id = 0

    # -- producer side -------------------------------------------------------

    def pending_completion_count(self) -> int:
        """Requests accepted whose completion has not been written yet."""
        # completed_total is foreign here; a stale (low) read only makes the
        # estimate conservative.
        return self.accepted_total - self.completed_total

    def sq_push(self, req: IoRequest, now: int = 0) -> PushResult:
        sq = self.sq
        cq = self.cq
        # refused when the SQ is full or the CQ lacks headroom: its free
        # slots less the completions owed
        if sq.tail - sq.head == sq.capacity or (
                cq.capacity - (cq.tail - cq.head)
                - (self.accepted_total - self.completed_total) < 1):
            self.space_wanted = True
            return PushResult.QUEUE_FULL
        executor_id = self.executor_id
        if executor_id is not None and executor_id() != self.producer:
            self.producer = self._owner("SQ", "pushes", self.producer)
        assert req.request_id is None, "request already pushed"
        # stamped before the tail publish: the backend reads both
        req.request_id = self._next_request_id
        self._next_request_id += 1
        req.submit_time = now
        self.accepted_total += 1
        pushed = sq.try_push(req)
        assert pushed  # single producer + the checks above make full impossible
        hook = self.on_submit
        if hook is not None:
            hook(self)
        return PushResult.ACCEPTED

    # -- consumer side -------------------------------------------------------

    def cq_reap(self, max_completions: int) -> list[Completion]:
        """Return 0..max completions in device order; empty means poll miss."""
        if max_completions < 1:
            raise ValueError("max_completions must be >= 1")
        out = self.cq.try_pop_many(max_completions)
        if out:
            executor_id = self.executor_id
            if executor_id is not None and executor_id() != self.reaper:
                self.reaper = self._owner("CQ", "reaps", self.reaper)
            self.reaped_total += len(out)
        return out

    def _owner(self, side: str, verb: str, owner):
        who = self.executor_id()
        if owner is not None:
            raise RuntimeError(f"{side} {self.instance_id}: {who!r} {verb} "
                               f"after {owner!r}")
        return who

    # -- backend side --------------------------------------------------------

    def deliver_completion(self, comp: Completion) -> None:
        """Write one completion; callable only by the backend's CQ producer."""
        if not self.cq.try_push(comp):
            raise RuntimeError("CQ overflow despite inflight bounding")
        # Increment after the push: a racing producer then double-counts this
        # completion (once in cq depth, once in pending) and stays conservative.
        self.completed_total += 1

    # -- observers -------------------------------------------------------------

    def quiescent_conservation_holds(self) -> bool:
        """Once the backend is idle: every accepted request has its
        completion written, and each one was reaped or still sits in the CQ.
        """
        return (self.pending_completion_count() == 0 and
                self.accepted_total == self.reaped_total + len(self.cq))
