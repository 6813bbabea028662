"""Optional native backend over the OS ring-based async I/O API (Linux).

Gated: everything else in this package works without it. It activates only
when (a) the host is Linux with a ring-capable kernel and (b) a liburing
binding is importable. Absent either, ``native_open`` raises
UnsupportedPlatform with the reason; nothing is partially initialized.

The backend satisfies the same push/reap contract as the simulated device:
one submitter thread, one reaper thread, exactly-once completions.
"""

from __future__ import annotations

import os
import sys

from .config import NativeConfig
from .ring import Completion, CompletionStatus, IoRequest, OpKind

LOGICAL_BLOCK_SIZE = 512  # direct I/O alignment floor; real devices may be 4K


class NativeBackendError(Exception):
    pass


class UnsupportedPlatform(NativeBackendError):
    pass


class PrivilegeRequired(NativeBackendError):
    pass


class AlignmentError(NativeBackendError):
    pass


def _load_binding():
    try:
        import liburing  # type: ignore
        return liburing
    except ImportError:
        return None


def _kernel_version() -> tuple:
    """The Linux kernel's ``(major, minor)``, or ``(0, 0)`` if unknown."""
    if not sys.platform.startswith("linux"):
        return (0, 0)
    try:
        major, minor = (int(x) for x in os.uname().release.split(".")[:2])
    except (ValueError, AttributeError):
        return (0, 0)
    return major, minor


def native_available() -> bool:
    return _kernel_version() >= (5, 1) and _load_binding() is not None


def validate_alignment(offset: int, length: int,
                       block: int = LOGICAL_BLOCK_SIZE) -> None:
    """Direct I/O demands logical-block alignment of offset and length."""
    if offset % block or length % block:
        raise AlignmentError(
            f"direct I/O needs {block}-byte alignment, got offset={offset} "
            f"length={length}")


class BufferRegistry:
    """Caller-owned buffers addressed by the request's buffer_id."""

    def __init__(self):
        self._buffers = {}
        self._next = 0

    def register(self, size: int) -> int:
        self._next += 1
        self._buffers[self._next] = bytearray(size)
        return self._next

    def view(self, buffer_id: int) -> bytearray:
        return self._buffers[buffer_id]


def native_open(cfg: NativeConfig):
    """Open the native backend or raise with the precise blocker.

    Check order: platform, binding, privileges, target; no partial
    initialization on any failure path. Linux 5.11 and later allow
    submission-queue polling without privileges.
    """
    kernel = _kernel_version()
    if kernel < (5, 1):
        raise UnsupportedPlatform(
            "ring-based async I/O needs Linux >= 5.1; this host runs "
            f"{sys.platform} {getattr(os.uname(), 'release', '?') if hasattr(os, 'uname') else '?'}")
    binding = _load_binding()
    if binding is None:
        raise UnsupportedPlatform(
            "no liburing binding importable; pip install liburing to enable "
            "the native backend")
    if cfg.sq_poll and kernel < (5, 11) and os.geteuid() != 0:
        raise PrivilegeRequired(
            "submission-queue polling below Linux 5.11 needs "
            "CAP_SYS_NICE/root")
    if not cfg.path:
        raise NativeBackendError("native.path is required")
    return _UringBackend(binding, cfg)


class _UringBackend:
    """Thin adapter from the package's request model to a liburing ring.

    Exercised only where the binding exists; the simulated device is the
    reference implementation of the contract and the default everywhere.
    """

    def __init__(self, binding, cfg: NativeConfig):
        self._uring = binding
        self.cfg = cfg
        self.block_size = LOGICAL_BLOCK_SIZE
        flags = os.O_RDWR
        if cfg.direct_io:
            flags |= os.O_DIRECT
        self._fd = os.open(cfg.path, flags)
        try:
            self.capacity = os.lseek(self._fd, 0, os.SEEK_END)
            ring_flags = 0
            if cfg.sq_poll:
                ring_flags |= binding.IORING_SETUP_SQPOLL
            if cfg.io_poll:
                ring_flags |= binding.IORING_SETUP_IOPOLL
            self._ring = binding.io_uring()
            rc = binding.io_uring_queue_init(cfg.ring_entries, self._ring,
                                             ring_flags)
            if rc < 0:
                raise NativeBackendError(f"io_uring_queue_init: {-rc}")
        except Exception:
            os.close(self._fd)
            raise
        self.buffers = BufferRegistry()
        self._iov = {}
        self._cqe = binding.io_uring_cqe()

    def push_submission(self, req: IoRequest) -> bool:
        b = self._uring
        sqe = b.io_uring_get_sqe(self._ring)
        if not sqe:
            return False
        if req.op in (OpKind.READ, OpKind.WRITE):
            if self.cfg.direct_io:
                validate_alignment(req.offset, req.length)
            buf = self.buffers.view(req.buffer_id)
            iov = b.iovec(buf)
            self._iov[req.request_id] = iov
            if req.op == OpKind.READ:
                b.io_uring_prep_readv(sqe, self._fd, iov, 1, req.offset)
            else:
                b.io_uring_prep_writev(sqe, self._fd, iov, 1, req.offset)
        elif req.op == OpKind.FSYNC:
            b.io_uring_prep_fsync(sqe, self._fd, 0)
        else:
            b.io_uring_prep_nop(sqe)
        sqe.user_data = req.request_id
        b.io_uring_submit(self._ring)
        return True

    def reap_completions(self, max_completions: int) -> list:
        b = self._uring
        out = []
        while len(out) < max_completions:
            rc = b.io_uring_peek_cqe(self._ring, self._cqe)
            if rc != 0:
                break
            res = self._cqe.res
            rid = self._cqe.user_data
            self._iov.pop(rid, None)
            if res >= 0:
                comp = Completion(rid, rid, CompletionStatus.OK, res, 0)
            elif res == -125:  # ECANCELED
                comp = Completion(rid, rid, CompletionStatus.CANCELED, 0, 0)
            else:
                comp = Completion(rid, rid, CompletionStatus.ERROR, -res, 0)
            b.io_uring_cqe_seen(self._ring, self._cqe)
            out.append(comp)
        return out

    def close(self) -> None:
        self._uring.io_uring_queue_exit(self._ring)
        os.close(self._fd)


def closed_loop_read_bench(backend: _UringBackend, op_count: int,
                           queue_depth: int, block_size: int = 4096,
                           seed: int = 0) -> dict:
    """Wall-clock closed loop straight against the backend.

    This is the real-hardware benchmark surface: no simulated device, no
    architecture layer, just keep queue_depth random reads in flight.
    Returns elapsed_ns, completed counts by status, and iops.
    """
    import random as _random
    import time as _time
    rng = _random.Random(seed)
    nblocks = max(1, backend.capacity // block_size)
    buffers = [backend.buffers.register(block_size)
               for _ in range(queue_depth)]
    t0 = _time.monotonic_ns()
    submitted = 0
    done = 0
    ok = err = 0
    inflight = {}
    next_id = 0
    while done < op_count:
        while len(inflight) < queue_depth and submitted < op_count:
            buf = buffers[next_id % queue_depth]
            req = IoRequest(OpKind.READ,
                            offset=rng.randrange(nblocks) * block_size,
                            length=block_size, buffer_id=buf,
                            request_id=next_id)
            if not backend.push_submission(req):
                break
            inflight[next_id] = buf
            next_id += 1
            submitted += 1
        for comp in backend.reap_completions(queue_depth):
            inflight.pop(comp.request_id)
            done += 1
            if comp.status == CompletionStatus.OK:
                ok += 1
            else:
                err += 1
    elapsed = _time.monotonic_ns() - t0
    return {"elapsed_ns": elapsed, "completed_ok": ok, "errored": err,
            "iops": ok * 1e9 / elapsed if elapsed else 0.0}
