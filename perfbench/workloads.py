"""The four benchmark workloads and how one pass of each is run.

Each workload is an experiment-config document (overrides of the
``ringbench.config`` defaults), so set-up exercises the same config and
``bench.build_workload`` path the CLI uses. A pass calls the public
``ringbench.arch.run_*`` entry point directly, because only those accept
``results_out`` (the final task states the correctness checks need).

All four run in virtual mode: host time is then the simulator's own work,
with no sleeps, spins or OS scheduling of actor threads in it.
"""

from __future__ import annotations

import copy

from ringbench import arch, bench, config
from ringbench.tasks import Geometry, IoStep, interpret_task

# One task corpus shape serves both task workloads, so tasks_pool_cb is the
# same-corpus control for anything that changes the respawn path.
_TASKS = {"kind": "tasks", "task_count": 2000, "task_max_steps": 16}

# configs/scaling_trace.json's square wave: 50 ms phases alternating 5k and
# 100k ops/s in simulated time. Random reads so the request offsets come
# from the seed; the device treats offsets uniformly.
_SQUARE_WAVE = [[50_000_000, rate] for rate in (5_000, 100_000) * 4]

WORKLOADS = {
    # Leanest driver, saturated: 4 x qd 64 = 256 in flight on 64 device
    # slots. Ring push/reap, the completion scan, calendar and histogram.
    "req_sn": {
        "architecture": {"kind": "shared_nothing", "n_workers": 4},
        "workload": {"kind": "requests", "op_kind": "rand_read",
                     "op_count": 20_000, "queue_depth": 64},
    },
    # Poll-miss respawn spin and the shared wake_all signal; locks.
    "tasks_da_full": {
        "architecture": {"kind": "direct_access", "n_workers": 4,
                         "m_instances": 2},
        "scheme": "full",
        "workload": _TASKS,
    },
    # Fused callbacks on the I/O-instance actors: zero respawns; pool
    # dispatch and the fused path of deliver_completion.
    "tasks_pool_cb": {
        "architecture": {"kind": "static_pool", "n_workers": 4,
                         "k_instances": 2, "exec_mode": "io_threads"},
        "scheme": "callback",
        "workload": _TASKS,
    },
    # Controller, load meter, poll-thread sleep/wake, the arrival actor.
    "arrivals_dyn": {
        "device": {"jitter_frac": 0.0, "submission_cpu_cost_ns": 20_000},
        "architecture": {
            "kind": "dynamic_pool", "n_workers": 1, "k_instances": 4,
            "ring": {"sq_capacity": 16, "cq_capacity": 32, "sq_poll": True,
                     "idle_timeout_ns": 1_000_000}},
        "workload": {"kind": "arrivals", "op_kind": "rand_read",
                     "phases": _SQUARE_WAVE},
    },
}


def experiment_config(name: str, seed: int):
    doc = copy.deepcopy(WORKLOADS[name])
    doc["seed"] = seed
    return config.from_dict(doc)


class Workload:
    """One workload built for one seed: its inputs and what they must give."""

    def __init__(self, name: str, cfg, inputs):
        self.name = name
        self.cfg = cfg
        self.inputs = inputs
        self.seed = cfg.seed

    def run(self, results: dict):
        """One full simulated run; fills ``results`` with final task states."""
        cfg = self.cfg
        a = cfg.architecture
        common = dict(device_cfg=cfg.device, ring=a.ring, costs=a.costs,
                      mode=cfg.mode, seed=self.seed, run_id=self.name,
                      results_out=results)
        if a.kind == "shared_nothing":
            return arch.run_shared_nothing(self.inputs, a.n_workers,
                                           cfg.scheme, **common)
        if a.kind == "direct_access":
            return arch.run_direct_access(self.inputs, a.n_workers,
                                          a.m_instances, cfg.scheme, **common)
        pool = dict(policy=a.dispatch_policy, inbox_capacity=a.inbox_capacity,
                    threading_mode=a.instance_threading, **common)
        if a.kind == "static_pool":
            return arch.run_static_pool(self.inputs, a.n_workers,
                                        a.k_instances, cfg.scheme,
                                        a.exec_mode, **pool)
        return arch.run_dynamic_pool(self.inputs, a.n_workers, a.k_instances,
                                     a.controller, cfg.scheme, a.exec_mode,
                                     **pool)

    def expected_ops(self) -> int:
        """Simulated I/Os a correct run completes OK."""
        w = self.inputs
        if isinstance(w, arch.ArrivalWorkload):
            return w.total_ops()
        if isinstance(w, arch.RequestWorkload):
            return w.op_count
        return sum(isinstance(s, IoStep) for spec in w.specs
                   for s in spec.steps)

    def expected_states(self):
        """task_id -> final state from the sequential oracle; None for
        workloads without tasks."""
        if not isinstance(self.inputs, arch.TaskWorkload):
            return None
        dev = self.cfg.device
        geometry = Geometry(dev.block_size, dev.capacity_bytes)
        return {spec.task_id: interpret_task(spec, geometry)
                for spec in self.inputs.specs}


def build(name: str, seed: int) -> Workload:
    cfg = experiment_config(name, seed)
    if cfg.mode != "virtual":
        raise ValueError(f"{name}: the benchmark measures virtual mode only")
    return Workload(name, cfg, bench.build_workload(cfg, seed))
