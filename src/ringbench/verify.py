"""Self-contained invariant suite behind the verify command.

Each check prints one machine-readable line; the command exits 0 iff all
pass. Failures are reported, never thrown.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import replace

from .arch import ExecCosts, TaskWorkload
from .bench import consumer_rate_oracle, phase_counts, run_experiment
from .config import (ARCHITECTURES, ConfigInvalid, ExperimentConfig,
                     build_workload, from_dict, parse, serialize)
from .device import DeviceConfig, PollConfig, SimDevice, VirtualClock, \
    steady_state_iops
from .ring import (ApiInstance, CompletionStatus, IoRequest, OpKind,
                   PushResult, RingQueue)
from .tasks import Geometry, generate_corpus, io_count, oracle_states

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


def run_violations(report, expected_ops: int, results: dict = None,
                   oracle: dict = None) -> list:
    """The run contract: each request completed OK exactly once, the
    report reconciles, ``expected_ops`` completed and, given an
    ``oracle``, ``results`` equals it. Returns the broken rules, named."""
    failed = []
    if report.submitted != report.completed_ok:
        failed.append(f"submitted {report.submitted} != completed_ok "
                      f"{report.completed_ok}")
    if report.errored or report.canceled:
        failed.append(f"errored {report.errored}, canceled {report.canceled}")
    if not report.conservation_holds():
        failed.append("conservation does not hold")
    if report.completed_ok != expected_ops:
        failed.append(f"completed_ok {report.completed_ok} != expected "
                      f"{expected_ops}")
    if oracle is not None and results != oracle:
        results = results or {}
        wrong = sorted(t for t in set(oracle) | set(results)
                       if results.get(t) != oracle.get(t))
        failed.append(f"{len(wrong)} task states differ from interpret_task "
                      f"(first: task {wrong[0]})")
    return failed


def spsc_violations(n: int, capacity: int, pop_batch: int) -> list:
    """Stream ``n`` items through a ``RingQueue`` from a producer thread
    pushing one at a time to a consumer thread popping batches of up to
    ``pop_batch``, under a short switch interval; names any stall, loss,
    duplication or reordering."""
    q = RingQueue(capacity)
    out = []
    pushed_all = threading.Event()

    def producer():
        for i in range(n):
            while not q.try_push(i):
                time.sleep(0)
        pushed_all.set()

    def consumer():
        # an empty queue after the last push ends the stream: a lost item
        # shows as a short count, not as a stall
        while len(out) < n:
            batch = q.try_pop_many(pop_batch)
            if batch:
                out.extend(batch)
            elif pushed_all.is_set() and not len(q):
                return
            else:
                time.sleep(0)

    prev = sys.getswitchinterval()
    sys.setswitchinterval(5e-5)
    try:
        threads = [threading.Thread(target=producer, daemon=True),
                   threading.Thread(target=consumer, daemon=True)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(prev)
    if any(t.is_alive() for t in threads):
        return [f"stalled after {len(out)} of {n} items"]
    if len(out) != n:
        return [f"{len(out)} items out for {n} in: loss or duplication"]
    if out != list(range(n)):
        first = next(i for i, x in enumerate(out) if x != i)
        return [f"order broken at item {first}"]
    return []


def scheme_violations(specs, cfgs) -> list:
    """Run the specs under every scheme on each config; every run must
    keep the run contract with ``interpret_task``'s states, so the states
    are bit-identical across schemes and architectures. A failure names
    its cell ``<kind>/<scheme>``."""
    ios = io_count(specs)
    failed = []
    for scheme in ("full", "callback", "coroutine"):
        for cfg in cfgs:
            results = {}
            report = run_experiment(replace(cfg, scheme=scheme),
                                    workload=TaskWorkload(specs=list(specs)),
                                    results_out=results)
            oracle = oracle_states(specs, Geometry(
                cfg.device.block_size, cfg.device.capacity_bytes))
            failed += [f"{cfg.architecture.kind}/{scheme}: {v}" for v in
                       run_violations(report, ios, results, oracle)]
    return failed


def littles_law_violations(device_cfg: DeviceConfig, iops_by_qd: dict,
                           tol: float) -> list:
    """Little's law at zero jitter, on IOPS by queue depth: each depth is
    within ``tol`` of ``steady_state_iops``, IOPS never falls as the depth
    grows, and from ``parallelism`` on it is flat within ``tol``."""
    qds = sorted(iops_by_qd)
    failed = []
    for qd in qds:
        got, want = iops_by_qd[qd], steady_state_iops(device_cfg, qd)
        if abs(got - want) > tol * want:
            failed.append(f"qd={qd} got {got:.0f} want {want:.0f}")
    failed += [f"IOPS falls from qd={a} to qd={b}"
               for a, b in zip(qds, qds[1:]) if iops_by_qd[b] < iops_by_qd[a]]
    flat = [iops_by_qd[qd] for qd in qds if qd >= device_cfg.parallelism]
    if flat and max(flat) - min(flat) > tol * min(flat):
        failed.append(f"not flat from qd={device_cfg.parallelism} on: "
                      f"{min(flat):.0f} to {max(flat):.0f}")
    return failed


def callback_collapse_violations(device_cfg: DeviceConfig, costs: ExecCosts,
                                 qd: int, k: int, inline: dict,
                                 io_threads: dict) -> list:
    """Inline callbacks collapse to the consumer rate, on IOPS by callback
    cost: inline IOPS is at most 1.10 x ``consumer_rate_oracle`` and,
    where the callback cost rather than the device bounds the oracle,
    within 10% of it; with I/O threads IOPS stays within 5% of the
    cheapest cost's."""
    device_rate = steady_state_iops(device_cfg, qd)
    failed = []
    for cost, got in sorted(inline.items()):
        oracle = consumer_rate_oracle(device_cfg, costs, qd, k, cost)
        if got > 1.10 * oracle or (oracle < device_rate
                                   and abs(got - oracle) > 0.10 * oracle):
            failed.append(f"inline cost {cost} ns: {got:.0f} IOPS vs oracle "
                          f"{oracle:.0f}")
    if io_threads:
        base = io_threads[min(io_threads)]
        failed += [f"io_threads cost {cost} ns: {got:.0f} IOPS vs "
                   f"{base:.0f} at cost {min(io_threads)} ns"
                   for cost, got in sorted(io_threads.items())
                   if abs(got - base) > 0.05 * base]
    return failed


def isolation_violations(runs, tol: float = 0.05) -> list:
    """Shared-nothing isolation, on ``(n_threads, report)`` pairs: no run
    sends a cross-thread message and, given a one-thread run, n threads
    reach n x its IOPS within ``tol``."""
    failed = [f"{n} threads: cross_thread_msgs {r.cross_thread_msgs} != 0"
              for n, r in runs if r.cross_thread_msgs]
    one = next((r.iops for n, r in runs if n == 1), None)
    if one is not None:
        failed += [f"{n} threads: {r.iops:.0f} IOPS vs {n} x {one:.0f}"
                   for n, r in runs if abs(r.iops - n * one) > tol * n * one]
    return failed


def dynamic_pool_violations(dyn, stat, phases, window_ns: int) -> list:
    """The dynamic pool's rules on a run of ``phases``: each controller
    step moves the active count by at most 1, a window or more after the
    last, and the count shrinks to 1 and grows to at least k - 1. Given
    the static pool's run (``stat``) on the same load and seed, the
    dynamic pool's poll busy time is lower and, where completion times
    were kept, each peak phase's completions are within 5% of it."""
    tl = dyn.active_instance_timeline
    failed = []
    for (ta, na), (tb, nb) in zip(tl, tl[1:]):
        if abs(nb - na) > 1:
            failed.append(f"step of {nb - na} instances at {tb} ns")
        if tb - ta < window_ns:
            failed.append(f"two steps within one window at {tb} ns")
    k = len(dyn.per_instance)
    low, high = min(n for _, n in tl), max(n for _, n in tl)
    if low != 1 or high < k - 1:
        failed.append(f"active instances span {low}..{high} of {k}, not "
                      f"1..{k - 1} or more")
    if stat is None:
        return failed
    if dyn.poll_busy_ns_total() >= stat.poll_busy_ns_total():
        failed.append(f"poll busy {dyn.poll_busy_ns_total()} ns not below "
                      f"static {stat.poll_busy_ns_total()} ns")
    if dyn.completion_times is not None:
        peak = max(rate for _, rate in phases)
        dc, sc = phase_counts(dyn, phases), phase_counts(stat, phases)
        failed += [f"peak phase {i}: {dc[i]} completions vs static {sc[i]}"
                   for i, (_, rate) in enumerate(phases)
                   if rate == peak and abs(dc[i] - sc[i]) > 0.05 * sc[i]]
    return failed


def poll_gap_violations(device_cfg: DeviceConfig, gap_ns: int,
                        count: int) -> list:
    """Submit ``count`` NOPs ``gap_ns`` apart to a fresh instance with a
    1 ms poll idle timeout. Below the timeout its poll thread never
    sleeps and is busy for the whole window. At or above it, the thread
    sleeps exactly one timeout after each submission it saw, the first at
    once and each later one a wakeup after it was made, and is busy at
    most count x (timeout + wakeup)."""
    clock = VirtualClock()
    dev = SimDevice(device_cfg, clock, seed=1)
    inst = ApiInstance(64, 128, sq_poll_idle_timeout=MS)
    dev.attach(inst)
    poll = dev.instances[0].poll
    sleeps = []
    dev.trace = lambda t, kind, i, r: (kind == "poll_sleep"
                                       and sleeps.append(t))
    for n in range(count):
        clock.run_until(n * gap_ns)
        if inst.sq_push(IoRequest(OpKind.NOP), clock.now) \
                != PushResult.ACCEPTED:
            return [f"submission {n} refused"]
        inst.cq_reap(64)
    timeout = inst.sq_poll_idle_timeout
    if gap_ns < timeout:
        end = (count - 1) * gap_ns
        clock.run_until(end)
        dev.finalize(end)
        failed = [f"slept {poll.sleeps} times"] if poll.sleeps else []
        if poll.busy_ns != end:
            failed.append(f"busy {poll.busy_ns} of {end} ns")
        return failed
    clock.run_until_idle()
    dev.finalize(clock.now)
    wakeup = device_cfg.poll.wakeup_cost_ns
    want = [timeout] + [n * gap_ns + wakeup + timeout
                        for n in range(1, count)]
    failed = [] if sleeps == want else [f"slept at {sleeps}, not {want}"]
    bound = count * (timeout + wakeup)
    if poll.busy_ns > bound:
        failed.append(f"busy {poll.busy_ns} ns above {bound}")
    return failed


def _result(name: str, failed: list, passed: str) -> CheckResult:
    return CheckResult(name, not failed, "; ".join(failed) or passed)


def _spsc_order(cfg) -> CheckResult:
    failed = [v for _ in range(2)
              for v in spsc_violations(100_000, 256, 512)]
    return _result("spsc_order", failed, "2x100k items, FIFO exact")


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


def check_config(kind: str, workload: dict, seed: int, device: dict,
                 scheme: str = "full", **architecture) -> ExperimentConfig:
    """A check's run as a config document; its device has no jitter."""
    return from_dict({"device": dict(device, jitter_frac=0.0),
                      "architecture": dict(architecture, kind=kind),
                      "scheme": scheme, "workload": workload, "seed": seed})


def _littles_law(cfg) -> CheckResult:
    points = {qd: check_config(
        "shared_nothing", {"op_count": 20_000, "queue_depth": qd}, 5,
        {"service_time_ns": 100 * US, "parallelism": 16}, n_workers=1)
        for qd in (1, 8, 32)}
    iops = {qd: run_experiment(point).iops for qd, point in points.items()}
    return _result("littles_law", littles_law_violations(
        points[1].device, iops, 0.01), "qd in {1,8,32} within 1%")


def _callback_collapse(cfg) -> CheckResult:
    runs = {}
    for mode, n_workers, ops in (("inline_callbacks", 4, 600),
                                 ("io_threads", 16, 2000)):
        for c in (0, 10 * US, 100 * US):
            point = check_config(
                "static_pool", {"op_count": ops, "queue_depth": 16,
                                "callback_cost_ns": c}, 3,
                {"service_time_ns": 100 * US, "parallelism": 64},
                n_workers=n_workers, k_instances=1, exec_mode=mode)
            runs.setdefault(mode, {})[c] = run_experiment(point).iops
    return _result("callback_collapse", callback_collapse_violations(
        point.device, point.architecture.costs, 16, 1,
        runs["inline_callbacks"], runs["io_threads"]),
        "inline at the consumer rate, io_threads flat")


def _scheme_equivalence(cfg) -> CheckResult:
    failed = scheme_violations(generate_corpus(23, 24), [check_config(
        kind, {"kind": "tasks"}, 7,
        {"service_time_ns": 5 * US, "parallelism": 32}, n_workers=2,
        k_instances=2) for kind in ("shared_nothing", "static_pool")])
    return _result("scheme_equivalence", failed,
                   "24 tasks x 3 schemes x 2 architectures")


def _exactly_once(cfg) -> CheckResult:
    failed = [f"{kind}: {v}" for kind in ARCHITECTURES
              for v in run_violations(run_experiment(check_config(
                  kind, {"op_count": 1500, "queue_depth": 16}, 9,
                  {"service_time_ns": 5 * US, "parallelism": 32},
                  n_workers=2, m_instances=1, k_instances=2)), 1500)]
    return _result("exactly_once", failed, "4 architectures, 1500 ops each")


def _shared_nothing_isolation(cfg) -> CheckResult:
    r = run_experiment(check_config(
        "shared_nothing", {"op_count": 8000, "queue_depth": 8}, 13,
        {"service_time_ns": 20 * US, "parallelism": 64}, n_workers=4))
    return _result("shared_nothing_isolation", run_violations(r, 8000)
                   + isolation_violations([(4, r)]), "cross_thread_msgs=0")


def _dynamic_pool_rules(cfg) -> CheckResult:
    phases = [[40 * MS, 4_000], [40 * MS, 90_000]] * 2
    dyn = check_config(
        "dynamic_pool", {"kind": "arrivals", "phases": phases}, 17,
        {"service_time_ns": 100 * US, "parallelism": 64,
         "submission_cpu_cost_ns": 20 * US,
         "poll": {"wakeup_cost_ns": 5 * US}},
        n_workers=1, k_instances=4,
        ring={"sq_capacity": 16, "cq_capacity": 32},
        controller={"window_ns": 5 * MS})
    ops = build_workload(dyn, dyn.seed).total_ops()
    runs = {kind: run_experiment(replace(dyn, architecture=replace(
        dyn.architecture, kind=kind)), keep_completion_times=True)
        for kind in ("dynamic_pool", "static_pool")}
    failed = [f"{kind}: {v}" for kind, r in runs.items()
              for v in run_violations(r, ops)]
    failed += dynamic_pool_violations(*runs.values(), phases,
                                      dyn.architecture.controller.window_ns)
    return _result("dynamic_pool_rules", failed,
                   "steps, scaling, poll busy saving and peak phases hold")


def _poll_timeout(cfg) -> CheckResult:
    dev = DeviceConfig(service_time_ns=10 * US, jitter_frac=0.0,
                       poll=PollConfig(wakeup_cost_ns=5 * US))
    return _result("poll_timeout", poll_gap_violations(dev, 2 * MS, 1),
                   f"asleep {MS} ns after the one submission")


def _config_round_trip(cfg) -> CheckResult:
    try:
        again = parse(serialize(cfg))
    except ConfigInvalid as exc:
        return CheckResult("config_round_trip", False, str(exc))
    return CheckResult("config_round_trip", again == cfg,
                       "parse(serialize(config)) == config")


CHECKS = (
    _config_round_trip,
    _spsc_order,
    _fault_conservation,
    _device_determinism,
    _littles_law,
    _callback_collapse,
    _scheme_equivalence,
    _exactly_once,
    _shared_nothing_isolation,
    _dynamic_pool_rules,
    _poll_timeout,
)


def cmd_verify(cfg: ExperimentConfig = None, out=None) -> int:
    """Run every check; print one line each plus a summary. Returns the
    number of failures (0 means exit code 0)."""
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
