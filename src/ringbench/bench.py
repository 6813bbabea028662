"""Experiment execution: config in, reports and CSV rows out.

Sweeps mirror the benchmark methodology: each point runs ``runs`` measured
repetitions, numbered from 1. Every simulated run builds its device,
runtime and RNG afresh from its own seed, so a warm-up run would condition
nothing (the native sweep keeps one). Points run sequentially so CPU
attribution stays clean.
"""

from __future__ import annotations

import itertools
import os
from bisect import bisect_left
from dataclasses import replace

from .arch import (run_direct_access, run_dynamic_pool, run_shared_nothing,
                   run_static_pool)
from .config import ConfigInvalid, ExperimentConfig, build_workload
from .device import steady_state_iops
from .metrics import MetricsReport, write_csv, write_summary_csv


def run_experiment(cfg: ExperimentConfig, *, seed: int = None,
                   workload=None, **run_options) -> MetricsReport:
    """The one place a config becomes a runner call. ``run_options`` are
    the ``RunOptions`` a config does not hold: ``run_id``,
    ``keep_completion_times``, ``results_out`` and ``sched_jitter_ns``."""
    if cfg.backend == "native":
        from . import native
        raise ConfigInvalid(
            "backend", "the architecture runners use the sim backend; "
            "the native backend runs sweep-qd only "
            f"(native available: {native.native_available()})")
    seed = cfg.seed if seed is None else seed
    workload = workload if workload is not None else build_workload(cfg, seed)
    a = cfg.architecture
    kw = dict(device_cfg=cfg.device, ring=a.ring, costs=a.costs,
              mode=cfg.mode, seed=seed, **run_options)
    pool = dict(exec_mode=a.exec_mode, policy=a.dispatch_policy,
                inbox_capacity=a.inbox_capacity,
                threading_mode=a.instance_threading)
    runners = {
        "shared_nothing": (run_shared_nothing, (a.n_workers,), {}),
        "direct_access": (run_direct_access, (a.n_workers, a.m_instances),
                          {}),
        "static_pool": (run_static_pool, (a.n_workers, a.k_instances), pool),
        "dynamic_pool": (run_dynamic_pool,
                         (a.n_workers, a.k_instances, a.controller), pool),
    }
    if a.kind not in runners:
        raise ConfigInvalid("architecture.kind", f"unknown kind {a.kind!r}")
    runner, sizes, knobs = runners[a.kind]
    return runner(workload, *sizes, scheme=cfg.scheme, **knobs, **kw)


def _point_seed(base: int, a: int, b: int) -> int:
    return (base * 1_000_003 + a * 101 + b) & 0x7FFFFFFF


def run_sweep(path, extra_columns, points) -> str:
    """Run ``points`` in order, each an (extra column values, config, seed,
    run id) tuple, and write one summary row per point to ``path``."""
    reports = [run_experiment(point, seed=seed, run_id=run_id)
               for _, point, seed, run_id in points]
    write_summary_csv(path, reports, extra_columns,
                      [extra for extra, *_ in points])
    return path


def cmd_sweep_qd(cfg: ExperimentConfig, qd_list, out_dir) -> str:
    """One row per (qd, measured run); prediction column in sim mode."""
    if not qd_list or any(qd < 1 for qd in qd_list):
        raise ConfigInvalid("qd_list", "needs queue depths, each >= 1")
    if cfg.backend == "native":
        return _native_sweep_qd(cfg, qd_list, out_dir)
    if cfg.workload.kind != "requests":
        raise ConfigInvalid("workload.kind", "sweep-qd needs a request "
                            "workload")
    points = [((qd, run, steady_state_iops(cfg.device, qd)),
               replace(cfg, workload=replace(cfg.workload, queue_depth=qd)),
               _point_seed(cfg.seed, qd, run), f"qd{qd}-run{run}")
              for qd in qd_list for run in range(1, cfg.runs + 1)]
    return run_sweep(os.path.join(out_dir, "sweep_qd.csv"),
                     ("qd", "run", "little_law_iops"), points)


def _native_sweep_qd(cfg: ExperimentConfig, qd_list, out_dir) -> str:
    """Wall-clock closed loops of random reads straight at the hardware: no
    simulated device, no architecture layer. Run 0 of each point
    preconditions the device and is left out of the CSV."""
    from . import native
    rows = []
    try:
        for qd in qd_list:
            for run in range(cfg.runs + 1):
                backend = native.native_open(cfg.native)
                try:
                    s = native.closed_loop_read_bench(
                        backend, cfg.workload.op_count, qd,
                        cfg.device.block_size, seed=cfg.seed + run)
                finally:
                    backend.close()
                if run:
                    rows.append((qd, run, s["elapsed_ns"], s["completed_ok"],
                                 s["errored"], s["iops"]))
    except native.NativeBackendError as exc:
        raise ConfigInvalid("backend", f"native backend unavailable: "
                            f"{exc}") from None
    path = os.path.join(out_dir, "sweep_qd_native.csv")
    write_csv(path, ("qd", "run", "elapsed_ns", "completed_ok", "errored",
                     "iops"), rows)
    return path


def cmd_sweep_callback(cfg: ExperimentConfig, cost_list, out_dir) -> str:
    """Rows for {inline_callbacks, io_threads} x cost."""
    a = cfg.architecture
    if a.kind not in ("static_pool", "dynamic_pool"):
        raise ConfigInvalid("architecture.kind",
                            "sweep-callback needs a pool architecture "
                            "(both exec modes must exist)")
    if cfg.workload.kind != "requests":
        raise ConfigInvalid("workload.kind", "sweep-callback needs a "
                            "request workload")
    if not cost_list or any(cost < 0 for cost in cost_list):
        raise ConfigInvalid("cost_list", "needs costs, each >= 0 ns")
    points = [((mode, cost, run,
                consumer_rate_oracle(cfg.device, a.costs,
                                     cfg.workload.queue_depth,
                                     a.k_instances, cost)),
               replace(cfg, workload=replace(cfg.workload,
                                             callback_cost_ns=cost),
                       architecture=replace(a, exec_mode=mode)),
               _point_seed(cfg.seed, cost, run), f"{mode}-c{cost}-run{run}")
              for mode in ("inline_callbacks", "io_threads")
              for cost in cost_list for run in range(1, cfg.runs + 1)]
    return run_sweep(os.path.join(out_dir, "sweep_callback.csv"),
                     ("exec_mode", "callback_cost_ns", "run", "oracle_iops"),
                     points)


def consumer_rate_oracle(device_cfg, costs, queue_depth: int,
                         k_instances: int, cost_ns: int) -> float:
    """Closed-form ceiling for inline execution: the reaping thread pays
    callback + reap + submit per op, across k instances, capped by the
    device."""
    per_op = cost_ns + costs.reap_cost_ns + costs.submit_cost_ns
    device_rate = steady_state_iops(device_cfg, queue_depth)
    if per_op <= 0:
        return device_rate
    return min(device_rate, k_instances * 1e9 / per_op)


def cmd_scaling_trace(cfg: ExperimentConfig, out_dir) -> tuple:
    """Dynamic vs static A/B on the same load profile and seed."""
    if cfg.architecture.kind != "dynamic_pool":
        raise ConfigInvalid("architecture.kind",
                            "scaling-trace needs the dynamic_pool "
                            "architecture")
    if cfg.workload.kind != "arrivals":
        raise ConfigInvalid("workload.kind", "scaling-trace needs an "
                            "arrivals workload (phases of [ns, rate])")
    dyn = run_experiment(cfg, run_id="dynamic", keep_completion_times=True)
    static_cfg = replace(cfg, architecture=replace(cfg.architecture,
                                                   kind="static_pool"))
    stat = run_experiment(static_cfg, run_id="static",
                          keep_completion_times=True)

    phases = cfg.workload.phases
    summary = os.path.join(out_dir, "scaling_trace.csv")
    write_csv(summary, ("variant", "phase", "offered_rate", "completions",
                        "iops", "poll_busy_ns_total"),
              [(name, i, rate, count, count * 1e9 / dur,
                rep.poll_busy_ns_total())
               for name, rep in (("dynamic", dyn), ("static", stat))
               for i, ((dur, rate), count)
               in enumerate(zip(phases, phase_counts(rep, phases)))])
    timeline_path = os.path.join(out_dir, "scaling_timeline.csv")
    write_csv(timeline_path, ("time_ns", "active_count"),
              dyn.active_instance_timeline)
    return summary, timeline_path, dyn, stat


def phase_counts(report: MetricsReport, phases) -> list:
    """Completions per phase, by completion time; a phase ends at its end
    time, and the completions that land after the last phase ends count
    in it."""
    ends = list(itertools.accumulate(dur for dur, _ in phases))
    last = len(ends) - 1
    counts = [0] * len(ends)
    for ct in report.completion_times or ():
        counts[min(bisect_left(ends, ct), last)] += 1
    return counts

