"""Byte-level pins of small seeded runs: every architecture on requests and
on tasks under each scheme, arrivals on the dynamic pool, and the static
pool's submit/reap actor pairs.

Device jitter and scheduling jitter are both on, so a change in the order
in which a run spawns actors or draws random numbers shows up as a
different digest, not only a change in the model. Each case also pins the
number of calendar events it fires, which moves when the event loop does
more or less work for the same output.
"""

import hashlib

import pytest

from ringbench.arch import (ArrivalWorkload, ControllerConfig,
                            EXEC_INLINE_CALLBACKS, RequestWorkload,
                            RingConfig, TaskWorkload, THREADING_PAIR,
                            run_direct_access, run_dynamic_pool,
                            run_shared_nothing, run_static_pool)
from ringbench.device import DeviceConfig, VirtualClock
from ringbench.metrics import write_summary_csv
from ringbench.tasks import generate_corpus

US = 1_000
MS = 1_000_000

DEV = DeviceConfig(service_time_ns=20 * US, jitter_frac=0.1, parallelism=16)
ARRIVALS_DEV = DeviceConfig(service_time_ns=100 * US, jitter_frac=0.1,
                           submission_cpu_cost_ns=20 * US)
JITTER = dict(device_cfg=DEV, seed=3, sched_jitter_ns=500)

RUNS = {
    "shared_nothing": lambda wl, **kw: run_shared_nothing(wl, 2, **kw),
    "direct_access": lambda wl, **kw: run_direct_access(wl, 3, 2, **kw),
    "static_pool": lambda wl, **kw: run_static_pool(wl, 3, 2, **kw),
    "dynamic_pool": lambda wl, **kw: run_dynamic_pool(wl, 3, 2, **kw),
    "static_pool_pair": lambda wl, **kw: run_static_pool(
        wl, 3, 2, threading_mode=THREADING_PAIR, **kw),
}


def requests():
    return RequestWorkload(op_count=3001, op_kind="rand_read",
                           queue_depth=12, callback_cost_ns=2 * US)


def tasks():
    return TaskWorkload(specs=generate_corpus(19, 40))


def csv_digest(report, tmp_path) -> str:
    path = tmp_path / "summary.csv"
    write_summary_csv(path, [report])
    return hashlib.sha256(path.read_bytes()).hexdigest()


GOLDEN = {
    "shared_nothing-requests":
        "a6fb117695d2ea59bba62e321599753b62066fa3503a3f3850f8f029edb62015",
    "shared_nothing-tasks-full":
        "4953623effcd14f4afda2a78f1cd33c92b8a07cca659491c2eab4171bfc019af",
    "shared_nothing-tasks-callback":
        "7f1f2fec966c0280f41ad7d3e24dc7fabbf51a5a9a3697aa63d4108c252f893d",
    "shared_nothing-tasks-coroutine":
        "d83b42f973ad316129491814856cbe94d361e25baa2476827e760ca1839617ea",
    "direct_access-requests":
        "a23fa5eefa3a3b9b2e4dbf6efdf89dba28298e594cdab7fecff42390851995a8",
    "direct_access-tasks-full":
        "106d2e2bea29562a87635c7b555530616f8a1c42ff55fb7f21409c15796985ed",
    "direct_access-tasks-callback":
        "33294cd380ae6b5a242cd05d72a9d8ab7c45ef9b14ce06549c3d8d31921787b9",
    "direct_access-tasks-coroutine":
        "7af25495a457c6026a556b359bf64fe697a722a1b987d4762de18b6d79458d5c",
    "static_pool-requests":
        "6211d6621efbb9509d4942d66250fe2dd0bc25aba3eb7bd9a6cbc217661639c6",
    "static_pool-tasks-full":
        "2f616eaa33e4300bb638db646095eb407bf3a4b8b5c00461f16aee1bcced6b71",
    "static_pool-tasks-callback":
        "6fc2c6311fc1383af0d637427317dfa3a267df1f25021f0a56b402d9692d2e0a",
    "static_pool-tasks-coroutine":
        "d22daf264a6b6d8fe240fdb5db4f17c5f3e7bab19874c18d363f4be0052a53f8",
    "dynamic_pool-requests":
        "508c1b3240733bbefe5c494e08986b25cb0fd07d431d8e7820ddc23e812582a1",
    "dynamic_pool-tasks-full":
        "86d1c6f5decee8dbcc873f3c6d8b18cdbcf3f043731173e34976b67a16cae076",
    "dynamic_pool-tasks-callback":
        "8b59ba8819517ceb861aa0f0ad48f5417d1656919dc9ed63c7a8d2b3ae1e86ed",
    "dynamic_pool-tasks-coroutine":
        "f151e431cb4d9e3d01c701af89bd359531a03c64ad91f3b612d0e139c56f1dca",
    "dynamic_pool-arrivals":
        "d7e62f82f1d19605123fdd8c706363a544e31078d91ccbb14e3018fd8339c4cc",
    "static_pool_pair-requests":
        "5a89fd2817aa059957200c6bc182ad1b2af99c6683a6bd06fc9f1c59bd2a0712",
    "static_pool_pair-inline_requests":
        "5fe9b003fac335ff02bed26a0e083f3b00c6d300115aa41348fdf51aa0b6d31f",
    "static_pool_pair-tasks-callback":
        "740380a96fbb92f42c73ae4a46cdf5219d10f4acf9c3aa26744122c6910cc465",
}


# calendar events each case fires (VirtualClock.step calls that ran one):
# an exact count of the simulator's work, pinned next to its output
EVENTS = {
    "shared_nothing-requests": 16237,
    "shared_nothing-tasks-full": 1500,
    "shared_nothing-tasks-callback": 898,
    "shared_nothing-tasks-coroutine": 1218,
    "direct_access-requests": 23571,
    "direct_access-tasks-full": 2014,
    "direct_access-tasks-callback": 1179,
    "direct_access-tasks-coroutine": 1482,
    "static_pool-requests": 27623,
    "static_pool-tasks-full": 2528,
    "static_pool-tasks-callback": 1196,
    "static_pool-tasks-coroutine": 2054,
    "dynamic_pool-requests": 27585,
    "dynamic_pool-tasks-full": 2497,
    "dynamic_pool-tasks-callback": 1184,
    "dynamic_pool-tasks-coroutine": 2072,
    "dynamic_pool-arrivals": 11062,
    "static_pool_pair-requests": 35510,
    "static_pool_pair-inline_requests": 28854,
    "static_pool_pair-tasks-callback": 1456,
}

def run_case(case: str):
    arch, kind, *scheme = case.split("-")
    if kind == "arrivals":
        # a per-entry submission cost makes the high phase need more than
        # one instance, so the controller scales both ways
        wl = ArrivalWorkload(phases=[(5 * MS, 5_000), (5 * MS, 100_000)] * 2)
        return run_dynamic_pool(
            wl, 0, 4, controller=ControllerConfig(window_ns=MS),
            ring=RingConfig(sq_capacity=16, cq_capacity=32),
            **dict(JITTER, device_cfg=ARRIVALS_DEV))
    if kind == "requests":
        if arch == "static_pool_pair":
            # a 2/2 ring makes pushes wait for CQ headroom that only a
            # reap frees
            return RUNS[arch](requests(), ring=RingConfig(2, 2), **JITTER)
        return RUNS[arch](requests(), **JITTER)
    if kind == "inline_requests":
        return RUNS[arch](requests(), exec_mode=EXEC_INLINE_CALLBACKS,
                          **JITTER)
    return RUNS[arch](tasks(), scheme=scheme[0], **JITTER)


@pytest.mark.parametrize("case", list(GOLDEN))
def test_summary_csv_digest(case, tmp_path, monkeypatch):
    step = VirtualClock.step
    events = [0]

    def counted_step(clock):
        fired = step(clock)
        events[0] += fired
        return fired

    monkeypatch.setattr(VirtualClock, "step", counted_step)
    assert csv_digest(run_case(case), tmp_path) == GOLDEN[case]
    assert events[0] == EVENTS[case]
