"""Acceptance gate: one test per criterion, stated tolerances, budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Everything here is sim-mode except criterion 1 (real threads)
and criterion 10 (optional, auto-skipped without a native ring backend).
"""

import random
import time

import pytest

from dataclasses import replace

from ringbench.arch import TaskWorkload
from ringbench.bench import cmd_scaling_trace, cmd_sweep_qd, run_experiment
from ringbench.config import (ARCHITECTURES, build_workload, defaults,
                              from_dict, to_dict)
from ringbench.device import DeviceConfig, PollConfig, steady_state_iops
from ringbench.tasks import (ComputeStep, Geometry, IoStep, TaskSpec,
                             generate_corpus, oracle_states)
from ringbench.verify import (callback_collapse_violations, check_config,
                              dynamic_pool_violations, isolation_violations,
                              littles_law_violations, poll_gap_violations,
                              run_violations, scheme_violations,
                              spsc_violations)

US = 1_000
MS = 1_000_000

ZERO_COSTS = dict.fromkeys(
    ("submit_cost_ns", "reap_cost_ns", "poll_cost_ns", "resume_cost_ns",
     "lock_hold_ns", "inbox_push_cost_ns"), 0)
_BUDGETS = {}

def _report(num, name, t0, budget_s):
    elapsed = time.time() - t0
    _BUDGETS[num] = (name, elapsed, budget_s)
    print(f"\nACCEPTANCE {num} {name} PASS ({elapsed:.1f}s < {budget_s}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


class TestCriterion1SpscCorrectness:
    """10^6-item producer/consumer stress across 10 seeds; zero loss, zero
    duplication, FIFO order; completes < 30 s."""

    def test_spsc_stress(self):
        t0 = time.time()
        for seed in range(10):
            rng = random.Random(seed)
            capacity = 2 ** rng.randint(6, 10)
            max_batch = rng.randint(64, 1024)
            assert spsc_violations(1_000_000, capacity, max_batch) \
                == [], f"seed {seed}"
        _report(1, "spsc_ring_correctness", t0, 30)


class TestCriterion2LittlesLaw:
    """desk-nvme, zero jitter: IOPS matches min(qd, P)/S within 1% for
    qd in {1..256}, monotone then flat; < 60 s."""

    def test_qd_sweep_convergence(self, tmp_path):
        t0 = time.time()
        data = to_dict(defaults())
        data["device"]["jitter_frac"] = 0.0  # desk-nvme, closed-form path
        data["architecture"]["kind"] = "shared_nothing"
        data["architecture"]["n_workers"] = 1
        data["architecture"]["costs"] = ZERO_COSTS
        data["workload"]["op_count"] = 20_000
        cfg = from_dict(data)
        qds = [1, 2, 4, 8, 16, 32, 64, 128, 256]
        path = cmd_sweep_qd(cfg, qds, tmp_path)
        import csv
        rows = list(csv.DictReader(open(path)))
        for row in rows:
            assert float(row["little_law_iops"]) == steady_state_iops(
                cfg.device, int(row["qd"]))
        iops = {int(row["qd"]): float(row["iops"]) for row in rows}
        assert littles_law_violations(cfg.device, iops, 0.01) == []
        _report(2, "littles_law_convergence", t0, 60)


class TestCriterion3CallbackCollapse:
    """Inline callbacks bounded by the single-consumer rate at large cost
    (within 10% of the sim oracle); IoThreads flat within 5%; < 120 s."""

    COSTS = (0, 1 * US, 10 * US, 100 * US)

    def test_inline_collapse_and_io_threads_flat(self):
        t0 = time.time()
        runs = {}
        for mode, n_workers, ops in (("inline_callbacks", 4, 3000),
                                     ("io_threads", 16, 20_000)):
            for c in self.COSTS:
                cfg = check_config(
                    "static_pool", {"op_count": ops, "queue_depth": 16,
                                    "callback_cost_ns": c}, 3,
                    {"service_time_ns": 100 * US, "parallelism": 64},
                    n_workers=n_workers, k_instances=1, exec_mode=mode)
                runs.setdefault(mode, {})[c] = run_experiment(cfg).iops
        assert callback_collapse_violations(
            cfg.device, cfg.architecture.costs, 16, 1,
            runs["inline_callbacks"], runs["io_threads"]) == []
        _report(3, "callback_latency_collapse", t0, 120)


def _exactly_once_corpus(seed, total_ios, ios_per_task=8):
    rng = random.Random(seed)
    specs, tid, ios = [], 0, 0
    while ios < total_ios:
        n = min(ios_per_task, total_ios - ios)
        steps = []
        for _ in range(n):
            steps.append(ComputeStep(rng.randint(100, 500), "mix",
                                     rng.getrandbits(32)))
            steps.append(IoStep("read", 1, "stride"))
        specs.append(TaskSpec(task_id=tid, steps=tuple(steps),
                              initial_state=rng.getrandbits(64)))
        tid += 1
        ios += n
    return specs


_C4_DEVICE = {"service_time_ns": 20 * US, "parallelism": 64}
_C4_T0 = []
_C4_CORPASES = {}  # seed -> (specs, interpret_task's final states)


class TestCriterion4ExactlyOnce:
    """10^5 requests x 4 architectures x 3 schemes x 5 seeds: every handle
    Done exactly once, conservation in every report, final task states
    equal to ``interpret_task``; < 10 min total."""

    REQUESTS = 100_000
    SEEDS = (0, 1, 2, 3, 4)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    @pytest.mark.parametrize("scheme", ("full", "callback", "coroutine"))
    def test_matrix(self, arch, scheme):
        if not _C4_T0:
            _C4_T0.append(time.time())
        for seed in self.SEEDS:
            cfg = check_config(arch, {"kind": "tasks"}, seed, _C4_DEVICE,
                               scheme, n_workers=4, m_instances=2,
                               k_instances=2, costs=ZERO_COSTS)
            if seed not in _C4_CORPASES:
                geo = Geometry(cfg.device.block_size,
                               cfg.device.capacity_bytes)
                specs = _exactly_once_corpus(seed, self.REQUESTS)
                _C4_CORPASES[seed] = (specs, oracle_states(specs, geo))
            specs, oracle = _C4_CORPASES[seed]
            results = {}
            report = run_experiment(
                cfg, workload=TaskWorkload(specs=list(specs),
                                           max_live_per_worker=4),
                sched_jitter_ns=300, results_out=results)
            # handle completion slots are written exactly once (asserted in
            # RequestHandle.complete); the report must reconcile
            assert run_violations(report, self.REQUESTS, results, oracle) \
                == [], f"{arch}/{scheme}/seed{seed}"

    def test_budget(self):
        assert _C4_T0, "matrix must run first"
        t0 = _C4_T0[0]
        name = "exactly_once_delivery"
        elapsed = time.time() - t0
        _BUDGETS[4] = (name, elapsed, 600)
        print(f"\nACCEPTANCE 4 {name} PASS ({elapsed:.1f}s < 600s)")
        assert elapsed < 600


class TestCriterion5SchemeEquivalence:
    """200 random TaskSpecs x 3 schemes x {static_pool, shared_nothing}:
    bit-identical final task states; < 60 s."""

    def test_equivalence(self):
        t0 = time.time()
        device = {"service_time_ns": 10 * US, "parallelism": 32}
        specs = generate_corpus(97, 200, max_steps=16)
        assert scheme_violations(specs, [
            check_config("shared_nothing", {"kind": "tasks"}, 5, device,
                         n_workers=4),
            check_config("static_pool", {"kind": "tasks"}, 5, device,
                         n_workers=4, k_instances=2)]) == []
        _report(5, "scheme_equivalence", t0, 60)


class TestCriterion6SharedNothingIsolationScaling:
    """cross_thread_msgs == 0; 4-thread aggregate = 4x single within 5%;
    < 60 s."""

    def test_isolation_and_scaling(self):
        t0 = time.time()
        # P >= 4x single-thread demand
        device = {"service_time_ns": 100 * US, "parallelism": 64}
        one, four = (run_experiment(check_config(
            "shared_nothing", {"op_count": 20_000 * n, "queue_depth": 8}, 6,
            device, n_workers=n)) for n in (1, 4))
        assert isolation_violations([(1, one), (4, four)], 0.05) == []
        assert run_violations(one, 20_000) == []
        assert run_violations(four, 80_000) == []
        _report(6, "shared_nothing_isolation_scaling", t0, 60)


class TestCriterion7DynamicPoolEfficiency:
    """Square wave, same seed: dynamic poll busy strictly < static, peak
    IOPS within 5%, hysteresis |delta|<=1 per window, skip rule holds;
    < 120 s."""

    def test_square_wave_ab(self):
        t0 = time.time()
        phases = [[50 * MS, 5_000], [50 * MS, 100_000]] * 4
        cfg = check_config(
            "dynamic_pool", {"kind": "arrivals", "phases": phases}, 7,
            {"service_time_ns": 100 * US, "parallelism": 64,
             "submission_cpu_cost_ns": 20 * US,
             "poll": {"wakeup_cost_ns": 5 * US}},
            n_workers=1, k_instances=4,
            ring={"sq_capacity": 16, "cq_capacity": 32},
            controller={"window_ns": 5 * MS, "high_water": 0.75,
                        "low_water": 0.25})
        dyn, stat = (run_experiment(replace(cfg, architecture=replace(
            cfg.architecture, kind=kind)), keep_completion_times=True)
            for kind in ("dynamic_pool", "static_pool"))
        assert dynamic_pool_violations(
            dyn, stat, phases, cfg.architecture.controller.window_ns) == []
        # the skip rule (zero deliveries to inactive instances) raises
        # inside the pool run itself; reaching here means it held
        ops = build_workload(cfg, cfg.seed).total_ops()
        assert run_violations(dyn, ops) == []
        assert run_violations(stat, ops) == []
        _report(7, "dynamic_pool_efficiency", t0, 120)


class TestCriterion8PollTimeoutSemantics:
    """0.5 ms gaps vs 1 ms timeout: never asleep, busy the whole window;
    2 ms gaps: asleep after exactly 1 ms idle each cycle; exact in virtual
    time."""

    def test_poll_thread_accounting(self):
        t0 = time.time()
        cfg = DeviceConfig(service_time_ns=10 * US, jitter_frac=0.0,
                           poll=PollConfig(wakeup_cost_ns=5 * US))
        # sub-timeout gaps: never sleeps, busy the whole 100 ms window
        assert poll_gap_violations(cfg, MS // 2, 201) == []
        # super-timeout gaps: asleep exactly idle_timeout after each burst
        assert poll_gap_violations(cfg, 2 * MS, 20) == []
        _report(8, "poll_timeout_semantics", t0, 60)


class TestCriterion9Determinism:
    """Identical config+seed => byte-identical CSV, any sim experiment."""

    def test_sweep_and_trace_bytes(self, tmp_path):
        t0 = time.time()
        data = to_dict(defaults())
        data["architecture"]["kind"] = "shared_nothing"
        data["architecture"]["n_workers"] = 2
        data["workload"]["op_count"] = 5000
        data["device"]["jitter_frac"] = 0.2  # jitter must be seed-stable too
        cfg = from_dict(data)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            out.mkdir()
            cmd_sweep_qd(cfg, [1, 8, 64], out)
            outs.append((out / "sweep_qd.csv").read_bytes())
        assert outs[0] == outs[1]

        data = to_dict(defaults())
        data["architecture"].update(kind="dynamic_pool", k_instances=4)
        data["architecture"]["ring"].update(sq_capacity=16, cq_capacity=32)
        data["device"]["submission_cpu_cost_ns"] = 20 * US
        data["device"]["jitter_frac"] = 0.1
        data["workload"] = dict(to_dict(defaults())["workload"],
                                kind="arrivals",
                                phases=[[50 * MS, 5000], [50 * MS, 100_000]])
        cfg = from_dict(data)
        outs = []
        for sub in ("c", "d"):
            out = tmp_path / sub
            out.mkdir()
            cmd_scaling_trace(cfg, out)
            outs.append(((out / "scaling_trace.csv").read_bytes(),
                         (out / "scaling_timeline.csv").read_bytes()))
        assert outs[0] == outs[1]
        _report(9, "determinism", t0, 60)


class TestCriterion10NativeOptional:
    """Optional, non-gating: ring contract against the OS backend."""

    def test_native_parity_if_available(self):
        from ringbench.native import native_available
        if not native_available():
            print("\nACCEPTANCE 10 native_backend SKIPPED "
                  "(no ring-capable kernel/binding; criterion is optional)")
            pytest.skip("native ring backend unavailable on this host")
        # the full parity suite lives in tests/test_native.py and runs
        # automatically on capable hosts
        print("\nACCEPTANCE 10 native_backend PASS (see test_native.py)")
