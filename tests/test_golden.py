"""Byte-level pins of small seeded runs: every architecture on requests and
on tasks under each scheme, arrivals on the dynamic pool, and the pool's
forks: submit/reap actor pairs on both pools, small inboxes that park
requests in the overflow queue, and the least-loaded dispatch policy.

Device jitter and scheduling jitter are both on, so a change in the order
in which a run spawns actors or draws random numbers shows up as a
different digest, not only a change in the model. Each case also pins the
number of calendar events it fires, which moves when the event loop does
more or less work for the same output.
"""

import hashlib

import pytest

from ringbench.arch import (ArrivalWorkload, ControllerConfig,
                            EXEC_INLINE_CALLBACKS, ExecCosts, POLICY_LEAST_LOADED,
                            RequestWorkload, RingConfig, TaskWorkload,
                            THREADING_PAIR, run_direct_access,
                            run_dynamic_pool, run_shared_nothing,
                            run_static_pool)
from ringbench.device import DeviceConfig, VirtualClock
from ringbench.metrics import write_summary_csv
from ringbench.tasks import generate_corpus

US = 1_000
MS = 1_000_000

DEV = DeviceConfig(service_time_ns=20 * US, jitter_frac=0.1, parallelism=16)
ARRIVALS_DEV = DeviceConfig(service_time_ns=100 * US, jitter_frac=0.1,
                           submission_cpu_cost_ns=20 * US)
JITTER = dict(device_cfg=DEV, seed=3, sched_jitter_ns=500)


def shared_nothing(wl, **kw):
    return run_shared_nothing(wl, 2, **kw)


def direct_access(wl, **kw):
    return run_direct_access(wl, 3, 2, **kw)


def static_pool(wl, **kw):
    return run_static_pool(wl, 3, 2, **kw)


def dynamic_pool(wl, **kw):
    return run_dynamic_pool(wl, 3, 2, **kw)


def arrivals_pool(wl, **kw):
    return run_dynamic_pool(wl, 1, 4, controller=ControllerConfig(
        window_ns=MS), **kw)


def requests():
    return RequestWorkload(op_count=3001, queue_depth=12,
                           callback_cost_ns=2 * US)


def zero_cost_requests():
    return RequestWorkload(op_count=3001, queue_depth=12)


def tasks():
    return TaskWorkload(specs=generate_corpus(19, 40))


def arrivals():
    return ArrivalWorkload(phases=[(5 * MS, 5_000), (5 * MS, 100_000)] * 2)


PAIR = dict(threading_mode=THREADING_PAIR)
# a 2/2 ring makes pushes wait for CQ headroom that only a reap frees
RING_2_2 = dict(ring=RingConfig(2, 2))
# a per-entry submission cost makes the high phase need more than one
# instance, so the controller scales both ways
ARRIVALS = dict(ring=RingConfig(sq_capacity=16, cq_capacity=32),
                device_cfg=ARRIVALS_DEV)
ZERO_COSTS = dict(costs=ExecCosts(0, 0, 0, 0, 0, 0))

# case -> (runner, workload, keywords on top of JITTER)
CASES = {
    "shared_nothing-requests": (shared_nothing, requests, {}),
    "shared_nothing-tasks-full": (shared_nothing, tasks, {"scheme": "full"}),
    "shared_nothing-tasks-callback": (shared_nothing, tasks,
                                      {"scheme": "callback"}),
    "shared_nothing-tasks-coroutine": (shared_nothing, tasks,
                                       {"scheme": "coroutine"}),
    "direct_access-requests": (direct_access, requests, {}),
    "direct_access-tasks-full": (direct_access, tasks, {"scheme": "full"}),
    "direct_access-tasks-callback": (direct_access, tasks,
                                     {"scheme": "callback"}),
    "direct_access-tasks-coroutine": (direct_access, tasks,
                                      {"scheme": "coroutine"}),
    "static_pool-requests": (static_pool, requests, {}),
    "static_pool-tasks-full": (static_pool, tasks, {"scheme": "full"}),
    "static_pool-tasks-callback": (static_pool, tasks,
                                   {"scheme": "callback"}),
    "static_pool-tasks-coroutine": (static_pool, tasks,
                                    {"scheme": "coroutine"}),
    "dynamic_pool-requests": (dynamic_pool, requests, {}),
    "dynamic_pool-tasks-full": (dynamic_pool, tasks, {"scheme": "full"}),
    "dynamic_pool-tasks-callback": (dynamic_pool, tasks,
                                    {"scheme": "callback"}),
    "dynamic_pool-tasks-coroutine": (dynamic_pool, tasks,
                                     {"scheme": "coroutine"}),
    "dynamic_pool-arrivals": (arrivals_pool, arrivals, ARRIVALS),
    "static_pool_pair-requests": (static_pool, requests,
                                  dict(PAIR, **RING_2_2)),
    "static_pool_pair-inline_requests": (
        static_pool, requests, dict(PAIR, exec_mode=EXEC_INLINE_CALLBACKS)),
    "static_pool_pair-tasks-callback": (static_pool, tasks,
                                        dict(PAIR, scheme="callback")),
    "dynamic_pool_pair-requests": (dynamic_pool, requests,
                                   dict(PAIR, **RING_2_2)),
    "dynamic_pool_pair-tasks-full": (dynamic_pool, tasks,
                                     dict(PAIR, scheme="full")),
    "dynamic_pool_pair-tasks-callback": (dynamic_pool, tasks,
                                         dict(PAIR, scheme="callback")),
    # small inboxes park requests in the overflow queue
    "static_pool_inbox2-requests": (static_pool, requests,
                                    {"inbox_capacity": 2}),
    "static_pool_pair_inbox2-requests": (
        static_pool, requests, dict(PAIR, inbox_capacity=2, **RING_2_2)),
    "static_pool_least_loaded_inbox2-requests": (
        static_pool, requests,
        {"policy": POLICY_LEAST_LOADED, "inbox_capacity": 2}),
    "dynamic_pool_inbox1-tasks-coroutine": (
        dynamic_pool, tasks, {"inbox_capacity": 1, "scheme": "coroutine"}),
    # after a drain that filled no inbox of its own, a single actor parks
    # and a pair's submit actor drains again: each case moves if its actor
    # takes the other's rule
    "dynamic_pool_inbox1-arrivals": (
        arrivals_pool, arrivals, dict(inbox_capacity=1, **ARRIVALS)),
    "dynamic_pool_pair_inbox1-arrivals": (
        arrivals_pool, arrivals, dict(PAIR, inbox_capacity=1, **ARRIVALS)),
    # zero lock holds and poll misses, settled without a spin lane
    "direct_access-tasks-full-zero_costs": (
        direct_access, tasks, dict(ZERO_COSTS, scheme="full")),
    # zero inbox push, submit and reap
    "static_pool_pair-requests-zero_costs": (
        static_pool, requests, dict(PAIR, **ZERO_COSTS)),
    # zero inline callbacks: no refill between them
    "static_pool-inline_requests-zero_costs": (
        static_pool, zero_cost_requests,
        dict(ZERO_COSTS, exec_mode=EXEC_INLINE_CALLBACKS)),
    # zero frame resumes, and zero worker callbacks on requests
    "shared_nothing-tasks-coroutine-zero_costs": (
        shared_nothing, tasks, dict(ZERO_COSTS, scheme="coroutine")),
    "shared_nothing-requests-zero_costs": (
        shared_nothing, zero_cost_requests, ZERO_COSTS),
}


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
    "dynamic_pool_pair-requests":
        "ba90febe76aa534fb95e80319d968bc1d55f4946d2fa06e0d537be67678206bb",
    "dynamic_pool_pair-tasks-full":
        "278fc80c3fabf5eeadbf5cf51d157e4928f9ed82d206797ede26cf10521e4102",
    "dynamic_pool_pair-tasks-callback":
        "ea4e48266b6ce8ca33fa3088c8cfb4fbb9abc91f33df13bdac9bc7d9f187d0af",
    "static_pool_inbox2-requests":
        "5c5602a4219d85c40745bcabc5904c4d467481ac891343997341125352d6774b",
    "static_pool_pair_inbox2-requests":
        "795c9ad1419fdb328236353784513fdab9b8e8eb5239b01039f4b7bd93f20ccd",
    "static_pool_least_loaded_inbox2-requests":
        "db101b94effb0d7127d7469f8310956a0d36be23717481fc516684096e8fd84a",
    "dynamic_pool_inbox1-tasks-coroutine":
        "6fc739876fb5200d23a8c8f2780e742bc5da51be638fe2d88175d61724c94283",
    "dynamic_pool_inbox1-arrivals":
        "37f5e867359433396be9dc0329660ffeb72240b03eedc8dd5db9e9752b6a2df8",
    "dynamic_pool_pair_inbox1-arrivals":
        "79de19ca61d0a42756bd2161c3fec81aa8ddc447a45fd7771fb6882effe2ec62",
    "direct_access-tasks-full-zero_costs":
        "7d2fe40b5f442ff1dc9f4ce4f3c6a895b149b04f89c2c76e82bf5f1c0676df67",
    "static_pool_pair-requests-zero_costs":
        "f3507c246d739b3548537c77e0f1ceee543079322cb10ed39e4636477f23dd86",
    "static_pool-inline_requests-zero_costs":
        "de89fa59edbccee2c31f4dd5d0099a686045fc5dc60187b4a1d9f64a1545392c",
    "shared_nothing-tasks-coroutine-zero_costs":
        "d09ce470ddd5b5cf24964c3d92523cfcc551a12664e3fcc3871aadc7ed5960eb",
    "shared_nothing-requests-zero_costs":
        "4e12c0b670e6f2c49eb99920a8df5fb026cc3a44c5b4aca590aaa6a7b7bce1d2",
}


# calendar events each case fires (VirtualClock.step calls that ran one):
# an exact count of the simulator's work, pinned next to its output
EVENTS = {
    "shared_nothing-requests": 13306,
    "shared_nothing-tasks-full": 1500,
    "shared_nothing-tasks-callback": 898,
    "shared_nothing-tasks-coroutine": 1218,
    "direct_access-requests": 23571,
    "direct_access-tasks-full": 1942,
    "direct_access-tasks-callback": 1084,
    "direct_access-tasks-coroutine": 1432,
    "static_pool-requests": 27623,
    "static_pool-tasks-full": 2441,
    "static_pool-tasks-callback": 1115,
    "static_pool-tasks-coroutine": 1982,
    "dynamic_pool-requests": 27585,
    "dynamic_pool-tasks-full": 2417,
    "dynamic_pool-tasks-callback": 1119,
    "dynamic_pool-tasks-coroutine": 1989,
    "dynamic_pool-arrivals": 11062,
    "static_pool_pair-requests": 35510,
    "static_pool_pair-inline_requests": 28854,
    "static_pool_pair-tasks-callback": 1372,
    "dynamic_pool_pair-requests": 35447,
    "dynamic_pool_pair-tasks-full": 2571,
    "dynamic_pool_pair-tasks-callback": 1355,
    "static_pool_inbox2-requests": 27749,
    "static_pool_pair_inbox2-requests": 35426,
    "static_pool_least_loaded_inbox2-requests": 26463,
    "dynamic_pool_inbox1-tasks-coroutine": 1972,
    "dynamic_pool_inbox1-arrivals": 10412,
    "dynamic_pool_pair_inbox1-arrivals": 10514,
    "direct_access-tasks-full-zero_costs": 769,
    "static_pool_pair-requests-zero_costs": 19928,
    "static_pool-inline_requests-zero_costs": 16880,
    "shared_nothing-tasks-coroutine-zero_costs": 540,
    "shared_nothing-requests-zero_costs": 8952,
}

def run_case(case: str):
    run, workload, kw = CASES[case]
    return run(workload(), **dict(JITTER, **kw))


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
