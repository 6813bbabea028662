"""Host-speed benchmark for the ringbench simulator.

    python3 perfbench/run.py --workload req_sn --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

One run builds one workload from ``--seed`` and measures the simulator on
it for ``--seconds``. ``--trace 0`` repeats untraced passes in worker
processes started one after another and reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes in one worker and
reports the per-layer split. Every pass is checked (see ``checks.py``);
the last line of standard output is the result JSON. See README.md.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from probe import ROOT, import_checkout

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOADS = ("req_sn", "tasks_da_full", "tasks_pool_cb", "arrivals_dyn")
SETUP_PROBES = 10   # median of these; one more runs first to warm caches
WORKERS = 5         # --trace 0 splits --seconds over this many processes
MIN_PASSES = 3      # untraced passes per --trace 0 worker, at least
MIN_PAIRS = 2       # untraced + traced pass pairs per --trace 1 run
MAX_SPANS = 500_000  # spans kept for the written trace


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {0: {m["name"]: m["unit"] for m in doc["end_to_end"]},
            1: {m["name"]: m["unit"] for m in doc["per_layer"]}}


def stamp() -> dict:
    """Where and what was measured. Git fields read "unknown" outside a
    git work tree (git is not allowed to look above the checkout)."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*cmd):
        try:
            out = subprocess.run(("git",) + cmd, cwd=ROOT, env=env,
                                 capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if commit else None
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_model": cpu, "nproc": os.cpu_count(),
            "nproc_usable": len(os.sched_getaffinity(0)),
            "git_commit": commit or "unknown",
            "git_dirty": "unknown" if status is None else bool(status)}


def setup_probe(name: str, seed: int) -> dict:
    """One fresh process, from its start to its first simulated event."""
    start = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), name, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    probe["setup_s"] = (probe["first_event_ns"] - start) / 1e9
    return probe


class Pass:
    """One full simulated run of the workload and what it cost the host."""

    def __init__(self, w, tracer=None, gc_clock=None):
        self.results = {}
        gc0 = gc_clock.total_ns if gc_clock else 0
        c0 = time.process_time()
        t0 = time.perf_counter_ns()
        if tracer is not None:
            tracer.install()
            try:
                self.report = w.run(self.results)
            finally:
                t1 = time.perf_counter_ns()
                self.not_restored = tracer.uninstall()
        else:
            self.report = w.run(self.results)
            t1 = time.perf_counter_ns()
        self.cpu_s = time.process_time() - c0
        self.wall_ns = t1 - t0
        self.gc_ns = gc_clock.total_ns - gc0 if gc_clock else 0
        self.tracer = tracer
        self.ios = self.report.completed_ok


class GcClock:
    """Host time inside the cyclic garbage collector, via gc.callbacks."""

    def __init__(self):
        self.total_ns = 0
        self._start = 0

    def __call__(self, phase, _info):
        if phase == "start":
            self._start = time.perf_counter_ns()
        else:
            self.total_ns += time.perf_counter_ns() - self._start


class Run:
    """The passes of one benchmark run and every check they failed."""

    def __init__(self, w):
        self.expected_ops = w.expected_ops()
        self.expected_states = w.expected_states()
        self.first = None
        self.first_exact = None
        self.attempted = 0
        self.failures = []

    def check(self, p: Pass) -> None:
        self.attempted += p.report.submitted
        fails = checks.check_pass(p.report, p.results, self.expected_ops,
                                  self.expected_states)
        fp = checks.fingerprint(p.report, p.results)
        if self.first is None:
            self.first = fp
            for case, failed, _ in checks.self_test(p.report, p.results,
                                                    self.expected_ops,
                                                    self.expected_states):
                if not failed:
                    fails.append(f"self-test: {case} was not caught")
        elif fp != self.first:
            fails.append("simulated outputs differ from the first pass of "
                         "the same inputs" + (" (traced pass)"
                                              if p.tracer else ""))
        if p.tracer is not None:
            if p.not_restored:
                fails.append(f"tracer left patched: {p.not_restored}")
            exact = p.tracer.exact()
            if self.first_exact is None:
                self.first_exact = exact
            elif exact != self.first_exact:
                fails.append("traced exact counters differ between passes")
        self.failures.extend(fails)


def layer_metrics(p: Pass) -> dict:
    tr, rep = p.tracer, p.report
    io = rep.completed_ok
    c = tr.counts
    own = tr.layer_self_ns()

    def share(a, b):
        return a / b if b else 0.0

    return {
        "device.clock.events_per_io": c["events"] / io,
        "device.clock.zero_delay_share": share(c["at_zero_delay"],
                                               c["at_calls"]),
        "device.clock.self_ns_per_event": share(own.get("device.clock", 0),
                                                c["events"]),
        "device.sim.sweeps_per_io": c["sweeps"] / io,
        "device.sim.empty_sweep_share": share(c["empty_sweeps"], c["sweeps"]),
        "device.sim.complete_ns_per_io":
            tr.ns_of("SimDevice._complete", tr.incl_ns) / io,
        "device.sim.poll_wakes_per_io": c["poll_wakes"] / io,
        "device.sim.self_ns_per_io": own.get("device.sim", 0) / io,
        "ring.push_calls_per_io": c["push_calls"] / io,
        "ring.push_refused_share": share(c["push_refused"], c["push_calls"]),
        "ring.reap_miss_share": share(c["reap_misses"], c["reap_calls"]),
        "ring.self_ns_per_io": own.get("ring", 0) / io,
        "runtime.resumes_per_io": c["resumes"] / io,
        "runtime.notifies_per_io": c["notifies"] / io,
        "runtime.lock_contention_share": share(c["lock_contention"],
                                               c["lock_acquisitions"]),
        "runtime.resume_self_ns_per_io":
            tr.ns_of("_VirtualActor._resume") / io,
        "runtime.self_ns_per_io": own.get("runtime", 0) / io,
        "arch.common.respawns_per_io": rep.tasklet_respawns / io,
        "arch.common.poll_hit_share": share(
            c["poll_hits"], c["poll_hits"] + rep.tasklet_respawns),
        "arch.common.items_per_io": c["items"] / io,
        "arch.common.self_ns_per_io": own.get("arch.common", 0) / io,
        "tasks.self_ns_per_io": own.get("tasks", 0) / io,
        "arch.pool.xmsgs_per_io": c["pool_dispatches"] / io,
        "arch.pool.controller_steps": c["controller_steps"],
        "arch.pool.self_ns_per_io": own.get("arch.pool", 0) / io,
        "arch.direct_access.self_ns_per_io":
            own.get("arch.direct_access", 0) / io,
        "arch.shared_nothing.self_ns_per_io":
            own.get("arch.shared_nothing", 0) / io,
        "arch.driver.pred_calls_per_io": c["pred_calls"] / io,
        "arch.driver.pred_self_ns_per_io":
            tr.ns_of("arch.driver:done_pred") / io,
        "arch.driver.self_ns_per_io": own.get("arch.driver", 0) / io,
        "metrics.self_ns_per_io": own.get("metrics", 0) / io,
        "host.unattributed_share": share(p.wall_ns - tr.top_ns, p.wall_ns),
    }


def model_metrics(rep) -> dict:
    """Simulated outputs: identical for any change that only speeds up
    the simulator."""
    per = rep.per_instance
    return {
        "model.sim_iops": rep.iops,
        "model.lat_p50_us": rep.lat_p50_ns / 1000,
        "model.lat_p99_us": rep.lat_p99_ns / 1000,
        "model.poll_busy_us_per_io":
            rep.poll_busy_ns_total() / 1000 / rep.completed_ok,
        "model.util_mean": sum(s.utilization for s in per) / len(per),
    }


def median_of(dicts: list) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def measure(w, seconds: float, trace: bool, run: Run) -> dict:
    """One process's passes: raw samples (trace 0) or the per-layer
    split (trace 1)."""
    warm = Pass(w)  # also the pass the self-test tampers with
    run.check(warm)
    deadline = time.monotonic() + seconds
    if not trace:
        passes = []
        while len(passes) < MIN_PASSES or time.monotonic() < deadline:
            p = Pass(w)
            run.check(p)
            passes.append(p)
        return {
            "ios_per_s": [p.ios / (p.wall_ns / 1e9) for p in passes],
            "ios_per_cpu_s": [p.ios / p.cpu_s for p in passes],
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "passes": 1 + len(passes),
        }

    import tracer
    gc_clock = GcClock()
    untraced, traced = [], []
    while len(traced) < MIN_PAIRS or time.monotonic() < deadline:
        gc.callbacks.append(gc_clock)
        try:
            p = Pass(w, gc_clock=gc_clock)
        finally:
            gc.callbacks.remove(gc_clock)
        run.check(p)
        untraced.append(p)
        p = Pass(w, tracer=tracer.Tracer(0 if traced else MAX_SPANS))
        run.check(p)
        traced.append(p)
    OUT.mkdir(exist_ok=True)
    traced[0].tracer.write(str(OUT / f"spans-{w.name}.json.gz"))
    values = median_of([layer_metrics(p) for p in traced])
    values.update(model_metrics(warm.report))
    values["host.trace_overhead_x"] = (
        statistics.median(p.wall_ns for p in traced)
        / statistics.median(p.wall_ns for p in untraced))
    values["host.gc_share"] = statistics.median(p.gc_ns / p.wall_ns
                                                for p in untraced)
    return {"values": values, "passes": 1 + len(untraced) + len(traced),
            "missing_entry_points": traced[0].tracer.missing}


def worker(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure in this process; print the samples as one JSON line."""
    import_checkout()
    import workloads
    w = workloads.build(name, seed)
    run = Run(w)
    sample = measure(w, seconds, trace, run)
    sample["attempted"] = run.attempted
    sample["failures"] = run.failures[:20]
    print(json.dumps(sample))
    return 0


def spawn_worker(name: str, seed: int, seconds: float, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--worker", "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.exit(f"perfbench: worker failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench(name: str, seed: int, seconds: float, trace: bool) -> int:
    declared = declared_metrics()[int(trace)]
    info = {"stamp": stamp(), "workload": name, "seed": seed,
            "trace": int(trace)}
    # Set-up probes are spread over the run, between the workers, so that
    # their median sees the same machine load as the throughput passes.
    setup_probe(name, seed)  # fills the bytecode cache; discarded
    n_workers = 1 if trace else WORKERS
    probes, samples = [], []
    for _ in range(n_workers):
        probes += [setup_probe(name, seed)
                   for _ in range(SETUP_PROBES // n_workers)]
        samples.append(spawn_worker(name, seed, seconds / n_workers, trace))
    if trace:
        values = dict(samples[0]["values"])
        values["setup.import_s"] = statistics.median(
            p["import_s"] for p in probes)
        values["setup.corpus_s"] = statistics.median(
            p["corpus_s"] for p in probes)
    else:
        values = {
            "sim_ios_per_s": statistics.median(
                x for s in samples for x in s["ios_per_s"]),
            "sim_ios_per_cpu_s": statistics.median(
                x for s in samples for x in s["ios_per_cpu_s"]),
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"]
                                             for s in samples),
        }
    if set(values) != set(declared):
        sys.exit(f"perfbench: metrics {sorted(set(values) ^ set(declared))} "
                 f"do not match BENCHMARK.json")
    failures = [f for s in samples for f in s["failures"]]
    attempted = sum(s["attempted"] for s in samples)
    result = {
        "correct": not failures,
        "attempted": max(1, attempted),
        "failed": attempted if failures else 0,
        "metrics": {k: {"value": values[k], "unit": declared[k]}
                    for k in declared},
    }
    info["passes"] = sum(s["passes"] for s in samples)
    if trace:
        info["missing_entry_points"] = samples[0]["missing_entry_points"]
    info["failures"] = failures
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(dict(info, result=result, worker_samples=samples), fh,
                  indent=1)
    for line in failures:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


def self_test() -> int:
    """Show the checks bite, the tracer restores what it patches and
    leaves the simulation unchanged, and the workloads separate the layers."""
    import_checkout()
    import tracer
    import workloads
    ok = True
    for name in WORKLOADS:
        w = workloads.build(name, 1)
        run = Run(w)
        plain = Pass(w)
        run.check(plain)
        run.check(Pass(w))
        traced = Pass(w, tracer=tracer.Tracer())
        run.check(traced)
        print(f"{name}: {plain.report.submitted} I/Os per pass; repeat and "
              f"traced passes identical: {not run.failures}; entry points "
              f"not found: {traced.tracer.missing or 'none'}")
        ok &= not run.failures
        for msg in run.failures:
            print(f"  FAILED {msg}")
        for case, failed, why in checks.self_test(
                plain.report, plain.results, run.expected_ops,
                run.expected_states):
            print(f"  tampered ({case}): failed ops {failed} <- {why[0]}")
            ok &= failed == plain.report.submitted
        lm = layer_metrics(traced)
        for key in ("arch.common.respawns_per_io", "arch.pool.xmsgs_per_io",
                    "device.sim.poll_wakes_per_io"):
            print(f"  {key} = {lm[key]:.4f}")
        expect_zero = {
            "req_sn": ("arch.pool.xmsgs_per_io", "arch.common.respawns_per_io"),
            "tasks_da_full": ("arch.pool.xmsgs_per_io",),
            "tasks_pool_cb": ("arch.common.respawns_per_io",),
            "arrivals_dyn": ("arch.common.respawns_per_io",),
        }[name]
        for key in expect_zero:
            if lm[key] != 0:
                print(f"  FAILED {key} should be 0")
                ok = False
        if name == "req_sn" and lm["device.sim.poll_wakes_per_io"] > 0.01:
            print("  FAILED req_sn should show ~0 poll wakes")
            ok = False
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check the checks, the tracer and the workloads")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    run = worker if args.worker else bench
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
