"""Native backend gate: error taxonomy always testable, I/O parity only on
hosts that actually have a ring-capable kernel plus a liburing binding."""

import os
from types import SimpleNamespace

import pytest

import ringbench.native as native
from ringbench.config import NativeConfig
from ringbench.native import (AlignmentError, BufferRegistry,
                              NativeBackendError, PrivilegeRequired,
                              UnsupportedPlatform, native_available,
                              native_open, validate_alignment)

HAVE_NATIVE = native_available()


class TestGate:
    def test_unsupported_platform_raises_cleanly(self):
        if HAVE_NATIVE:
            pytest.skip("host supports the native backend")
        with pytest.raises(UnsupportedPlatform):
            native_open(NativeConfig(path="/tmp/whatever"))

    @pytest.mark.parametrize("release,error,match", [
        ("5.10.0", PrivilegeRequired, "CAP_SYS_NICE"),
        ("5.11.0", NativeBackendError, "native.path is required")])
    def test_sq_poll_needs_privilege_only_below_5_11(self, monkeypatch,
                                                     release, error, match):
        # an unprivileged SQPOLL request on a faked kernel; the empty path
        # is the next check, so passing the privilege gate raises there
        monkeypatch.setattr(native, "_load_binding", object)
        monkeypatch.setattr(native.sys, "platform", "linux")
        monkeypatch.setattr(native.os, "uname",
                            lambda: SimpleNamespace(release=release))
        monkeypatch.setattr(native.os, "geteuid", lambda: 1000)
        with pytest.raises(NativeBackendError, match=match) as exc:
            native_open(NativeConfig(path="", sq_poll=True))
        assert type(exc.value) is error

    def test_alignment_validation(self):
        validate_alignment(0, 4096)
        validate_alignment(512, 512)
        with pytest.raises(AlignmentError):
            validate_alignment(100, 4096)
        with pytest.raises(AlignmentError):
            validate_alignment(0, 1000)

    def test_buffer_registry(self):
        reg = BufferRegistry()
        bid = reg.register(4096)
        view = reg.view(bid)
        assert len(view) == 4096
        view[0] = 0xAB
        assert reg.view(bid)[0] == 0xAB


@pytest.mark.skipif(not HAVE_NATIVE, reason="needs Linux >= 5.1 + liburing")
class TestNativeParity:
    """Optional (non-gating): the ring contract against real hardware."""

    def _target(self, tmp_path, size=1 << 20):
        path = tmp_path / "target.bin"
        payload = bytes(range(256)) * (size // 256)
        path.write_bytes(payload)
        return path, payload

    def test_read_matches_blocking_read(self, tmp_path):
        from ringbench.ring import IoRequest, OpKind
        path, payload = self._target(tmp_path)
        backend = native_open(NativeConfig(path=str(path), direct_io=False))
        try:
            bid = backend.buffers.register(4096)
            req = IoRequest(OpKind.READ, offset=0, length=4096,
                            buffer_id=bid, request_id=1)
            assert backend.push_submission(req)
            comps = []
            while not comps:
                comps = backend.reap_completions(8)
            assert bytes(backend.buffers.view(bid)) == payload[:4096]
        finally:
            backend.close()

    def test_id_multiset_round_trip(self, tmp_path):
        import random
        from ringbench.ring import IoRequest, OpKind
        path, _ = self._target(tmp_path)
        backend = native_open(NativeConfig(path=str(path), direct_io=False))
        rng = random.Random(7)
        try:
            submitted = set()
            reaped = set()
            for rid in range(1000):
                bid = backend.buffers.register(4096)
                off = rng.randrange(0, 256) * 4096
                while not backend.push_submission(
                        IoRequest(OpKind.READ, offset=off, length=4096,
                                  buffer_id=bid, request_id=rid)):
                    for c in backend.reap_completions(64):
                        reaped.add(c.request_id)
                submitted.add(rid)
            while len(reaped) < 1000:
                for c in backend.reap_completions(64):
                    reaped.add(c.request_id)
            assert reaped == submitted
        finally:
            backend.close()

    def test_sq_poll_without_privilege(self, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("running as root; privilege check not observable")
        path, _ = self._target(tmp_path)
        cfg = NativeConfig(path=str(path), sq_poll=True)
        if native._kernel_version() < (5, 11):
            with pytest.raises(PrivilegeRequired):
                native_open(cfg)
        else:
            native_open(cfg).close()  # unprivileged SQPOLL since 5.11
