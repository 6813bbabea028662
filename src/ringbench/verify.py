"""Self-contained invariant suite behind the verify command.

Each check prints one machine-readable line; the command exits 0 iff all
pass. Failures are reported, never thrown.
"""

from __future__ import annotations

import threading
import time

from .arch import (RequestWorkload, TaskWorkload, run_direct_access,
                   run_dynamic_pool, run_shared_nothing, run_static_pool)
from .arch.pool import ControllerConfig
from .arch.common import RingConfig
from .config import ConfigInvalid, ExperimentConfig, parse, serialize
from .device import DeviceConfig, PollConfig, SimDevice, VirtualClock, \
    steady_state_iops
from .ring import ApiInstance, CompletionStatus, IoRequest, OpKind, RingQueue
from .tasks import Geometry, generate_corpus, interpret_task

US = 1_000
MS = 1_000_000


class CheckResult:
    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name = name
        self.ok = ok
        self.detail = detail

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        detail = f" {self.detail}" if self.detail else ""
        return f"CHECK {self.name} {status}{detail}"


def _ring_config_invariants(cfg: ExperimentConfig) -> CheckResult:
    r = cfg.architecture.ring
    try:
        r.validate()
    except ValueError as exc:
        return CheckResult("ring_config_invariants", False, str(exc))
    return CheckResult("ring_config_invariants", True,
                       f"sq={r.sq_capacity} cq={r.cq_capacity}")


def _spsc_order(cfg) -> CheckResult:
    prev = None
    try:
        import sys
        prev = sys.getswitchinterval()
        sys.setswitchinterval(5e-5)
        for seed in (1, 2):
            n = 100_000
            q = RingQueue(256)
            out = []

            def producer():
                i = 0
                items = list(range(n))
                while i < n:
                    pushed = q.try_push_many(items[i:i + 256])
                    i += pushed
                    if not pushed:
                        time.sleep(0)

            def consumer():
                got = 0
                while got < n:
                    batch = q.try_pop_many(512)
                    if batch:
                        out.extend(batch)
                        got += len(batch)
                    else:
                        time.sleep(0)

            t1 = threading.Thread(target=producer)
            t2 = threading.Thread(target=consumer)
            t1.start(); t2.start()
            t1.join(30); t2.join(30)
            if t1.is_alive() or t2.is_alive():
                return CheckResult("spsc_order", False, "stress timed out")
            if out != list(range(n)):
                return CheckResult("spsc_order", False,
                                   f"loss/dup/reorder at seed {seed}")
        return CheckResult("spsc_order", True, "2x100k items, FIFO exact")
    finally:
        if prev is not None:
            import sys
            sys.setswitchinterval(prev)


def _fault_conservation(cfg) -> CheckResult:
    clock = VirtualClock()
    dev = SimDevice(DeviceConfig(service_time_ns=10 * US, jitter_frac=0.0),
                    clock, seed=3)
    inst = ApiInstance(64, 128)
    dev.attach(inst)
    reqs = [IoRequest(OpKind.NOP) for _ in range(14)]
    for req in reqs:
        inst.sq_push(req, clock.now)
    dev.inject_fault(inst.instance_id, reqs[0].request_id, code=7)
    clock.run_until_idle()
    comps = inst.cq_reap(64)
    ok = sum(1 for c in comps if c.status == CompletionStatus.OK)
    err = sum(1 for c in comps if c.status == CompletionStatus.ERROR)
    canc = sum(1 for c in comps if c.status == CompletionStatus.CANCELED)
    good = (len(comps) == 14 and err == 1 and canc == 0 and ok == 13
            and inst.quiescent_conservation_holds())
    return CheckResult("fault_conservation", good,
                       f"ok={ok} err={err} canceled={canc}")


def _device_determinism(cfg) -> CheckResult:
    def trace(seed):
        events = []
        clock = VirtualClock()
        dev = SimDevice(DeviceConfig(service_time_ns=20 * US, jitter_frac=0.2),
                        clock, seed=seed)
        dev.trace = lambda *row: events.append(row)
        inst = ApiInstance(128, 256)
        dev.attach(inst)
        for _ in range(300):
            inst.sq_push(IoRequest(OpKind.NOP), clock.now)
        clock.run_until_idle()
        inst.cq_reap(256)
        return events

    same = trace(11) == trace(11)
    differ = trace(11) != trace(12)
    return CheckResult("device_determinism", same and differ,
                       "bit-identical traces per seed")


def _littles_law(cfg) -> CheckResult:
    dev = DeviceConfig(service_time_ns=100 * US, jitter_frac=0.0,
                       parallelism=16)
    for qd in (1, 8, 32):
        wl = RequestWorkload(op_count=20_000, queue_depth=qd)
        r = run_shared_nothing(wl, 1, device_cfg=dev, seed=5)
        want = steady_state_iops(dev, qd)
        if abs(r.iops - want) / want > 0.01:
            return CheckResult("littles_law", False,
                               f"qd={qd} got {r.iops:.0f} want {want:.0f}")
    return CheckResult("littles_law", True, "qd in {1,8,32} within 1%")


def _scheme_equivalence(cfg) -> CheckResult:
    dev = DeviceConfig(service_time_ns=5 * US, jitter_frac=0.0,
                       parallelism=32)
    specs = generate_corpus(23, 24)
    geo = Geometry(dev.block_size, dev.capacity_bytes)
    expect = {s.task_id: interpret_task(s, geo) for s in specs}
    for scheme in ("full", "callback", "coroutine"):
        for fn, args in ((run_shared_nothing, (2,)),
                         (run_static_pool, (2, 2))):
            results = {}
            fn(TaskWorkload(specs=list(specs)), *args, scheme=scheme,
               device_cfg=dev, seed=7, results_out=results)
            if results != expect:
                return CheckResult("scheme_equivalence", False,
                                   f"{fn.__name__}/{scheme} diverged")
    return CheckResult("scheme_equivalence", True,
                       "24 tasks x 3 schemes x 2 architectures")


def _exactly_once(cfg) -> CheckResult:
    dev = DeviceConfig(service_time_ns=5 * US, jitter_frac=0.0,
                       parallelism=32)
    wl = RequestWorkload(op_count=1500, op_kind="nop", queue_depth=16)
    runs = (("shared_nothing", lambda: run_shared_nothing(
                wl, 2, device_cfg=dev, seed=9)),
            ("direct_access", lambda: run_direct_access(
                wl, 2, 1, device_cfg=dev, seed=9)),
            ("static_pool", lambda: run_static_pool(
                wl, 2, 2, device_cfg=dev, seed=9)),
            ("dynamic_pool", lambda: run_dynamic_pool(
                wl, 2, 2, device_cfg=dev, seed=9)))
    for name, fn in runs:
        r = fn()
        if not (r.conservation_holds() and r.completed_ok == wl.op_count):
            return CheckResult("exactly_once", False,
                               f"{name}: submitted={r.submitted} "
                               f"ok={r.completed_ok}")
    return CheckResult("exactly_once", True, "4 architectures, 1500 ops each")


def _shared_nothing_isolation(cfg) -> CheckResult:
    wl = RequestWorkload(op_count=8000, queue_depth=8)
    r = run_shared_nothing(wl, 4, device_cfg=DeviceConfig(
        service_time_ns=20 * US, jitter_frac=0.0, parallelism=64), seed=13)
    good = r.cross_thread_msgs == 0 and r.conservation_holds()
    return CheckResult("shared_nothing_isolation", good,
                       f"cross_thread_msgs={r.cross_thread_msgs}")


def _dynamic_pool_rules(cfg) -> CheckResult:
    from .arch import ArrivalWorkload
    dev = DeviceConfig(service_time_ns=100 * US, jitter_frac=0.0,
                       parallelism=64, submission_cpu_cost_ns=20 * US,
                       poll=PollConfig(wakeup_cost_ns=5 * US))
    ring = RingConfig(sq_capacity=16, cq_capacity=32)
    ctrl = ControllerConfig(window_ns=5 * MS)
    wl = ArrivalWorkload(phases=[(40 * MS, 4_000), (40 * MS, 90_000)] * 2)
    dyn = run_dynamic_pool(wl, 0, 4, controller=ctrl, device_cfg=dev,
                           ring=ring, seed=17)
    stat = run_static_pool(wl, 0, 4, device_cfg=dev, ring=ring, seed=17)
    tl = dyn.active_instance_timeline
    hysteresis = all(abs(b[1] - a[1]) <= 1 for a, b in zip(tl, tl[1:]))
    scaled = min(n for _, n in tl) < max(n for _, n in tl)
    saved = dyn.poll_busy_ns_total() < stat.poll_busy_ns_total()
    good = hysteresis and scaled and saved and dyn.conservation_holds()
    return CheckResult("dynamic_pool_rules", good,
                       f"hysteresis={hysteresis} scaled={scaled} "
                       f"poll_busy_saved={saved}")


def _poll_timeout(cfg) -> CheckResult:
    clock = VirtualClock()
    dev = SimDevice(DeviceConfig(
        service_time_ns=10 * US, jitter_frac=0.0,
        poll=PollConfig(wakeup_cost_ns=5 * US)),
        clock, seed=1)
    inst = ApiInstance(64, 128)
    dev.attach(inst)
    sleeps = []
    dev.trace = lambda t, kind, i, r: (kind == "poll_sleep"
                                       and sleeps.append(t))
    inst.sq_push(IoRequest(OpKind.NOP), clock.now)
    clock.run_until(5 * MS)
    good = sleeps == [MS]
    return CheckResult("poll_timeout", good, f"slept at {sleeps}")


def _config_round_trip(cfg) -> CheckResult:
    try:
        again = parse(serialize(cfg))
    except ConfigInvalid as exc:
        return CheckResult("config_round_trip", False, str(exc))
    return CheckResult("config_round_trip", again == cfg,
                       "parse(serialize(config)) == config")


CHECKS = (
    _ring_config_invariants,
    _config_round_trip,
    _spsc_order,
    _fault_conservation,
    _device_determinism,
    _littles_law,
    _scheme_equivalence,
    _exactly_once,
    _shared_nothing_isolation,
    _dynamic_pool_rules,
    _poll_timeout,
)


def cmd_verify(cfg: ExperimentConfig = None, out=None) -> int:
    """Run every check; print one line each plus a summary. Returns the
    number of failures (0 means exit code 0)."""
    import sys
    out = out or sys.stdout
    cfg = cfg or ExperimentConfig()
    failures = 0
    for check in CHECKS:
        try:
            result = check(cfg)
        except Exception as exc:  # a crash is a failing check, not a crash
            result = CheckResult(check.__name__.lstrip("_"), False,
                                 f"{type(exc).__name__}: {exc}")
        if not result.ok:
            failures += 1
        print(result.line(), file=out)
    status = "PASS" if failures == 0 else "FAIL"
    print(f"VERIFY {status} checks={len(CHECKS)} failures={failures}",
          file=out)
    return failures
