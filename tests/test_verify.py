"""The run contract names what a run broke: each tampered copy of a correct
run's report or final task states fails with the rule it breaks, the way
perfbench's self-test feeds its checks."""

from dataclasses import asdict, replace

import pytest

from ringbench.arch import TaskWorkload, common, run_shared_nothing
from ringbench.config import from_dict
from ringbench.device import DeviceConfig
from ringbench.tasks import (ComputeStep, Geometry, IoStep, NestedStep,
                             TaskSpec, generate_corpus, io_count,
                             oracle_states)
from ringbench.verify import run_violations, scheme_violations

DEV = DeviceConfig(service_time_ns=2_000, jitter_frac=0.0, parallelism=64)
GEO = Geometry(DEV.block_size, DEV.capacity_bytes)
SPECS = generate_corpus(3, 12)
IOS = io_count(SPECS)


def flipped(results):
    results = dict(results)
    results[min(results)] ^= 1
    return results


# case -> (tamper(report, results), the violations it must be named by)
TAMPERED = {
    "correct": (lambda r, res: (r, res), []),
    "flipped_task_state": (
        lambda r, res: (r, flipped(res)),
        ["1 task states differ from interpret_task (first: task 0)"]),
    "missing_completion": (
        lambda r, res: (replace(r, completed_ok=r.completed_ok - 1), res),
        [f"submitted {IOS} != completed_ok {IOS - 1}",
         "conservation does not hold",
         f"completed_ok {IOS - 1} != expected {IOS}"]),
    "submitted_plus_one": (
        lambda r, res: (replace(r, submitted=r.submitted + 1), res),
        [f"submitted {IOS + 1} != completed_ok {IOS}",
         "conservation does not hold"]),
}


@pytest.mark.parametrize("case", list(TAMPERED))
def test_tampered_run_is_named(case):
    results = {}
    report = run_shared_nothing(TaskWorkload(specs=list(SPECS)), 2,
                                device_cfg=DEV, seed=1, results_out=results)
    tamper, named = TAMPERED[case]
    report, results = tamper(report, results)
    assert run_violations(report, IOS, results,
                          oracle_states(SPECS, GEO)) == named


def test_nested_ios_are_counted():
    # a coroutine runs a nested sub-task's I/Os on the owner's ring
    inner = TaskSpec(9, (IoStep(), ComputeStep(100), IoStep("write", 2)))
    specs = [TaskSpec(0, (IoStep(), NestedStep(inner), ComputeStep(5))),
             TaskSpec(1, (NestedStep(inner),))]
    assert io_count(specs) == 5
    results = {}
    report = run_shared_nothing(TaskWorkload(specs=specs), 1, "coroutine",
                                device_cfg=DEV, seed=1, results_out=results)
    assert run_violations(report, 5, results,
                          oracle_states(specs, GEO)) == []


def test_broken_cells_are_named_by_kind_and_scheme(monkeypatch):
    # full and callback partitioning apply an I/O's result to a task's
    # state in the engine; a coroutine frame applies it itself
    apply_io_result = common.apply_io_result
    monkeypatch.setattr(common, "apply_io_result",
                        lambda state, *args: apply_io_result(state, *args) ^ 1)
    cfgs = [from_dict({"device": asdict(DEV), "workload": {"kind": "tasks"},
                       "architecture": {"kind": kind, "n_workers": 2},
                       "seed": 1})
            for kind in ("shared_nothing", "static_pool")]
    failed = scheme_violations(SPECS, cfgs)
    assert [v.partition(":")[0] for v in failed] == [
        "shared_nothing/full", "static_pool/full",
        "shared_nothing/callback", "static_pool/callback"]
    assert all("task states differ from interpret_task" in v for v in failed)
