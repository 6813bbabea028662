"""Byte-level pins of small seeded runs: every architecture on requests and
on tasks under each scheme, arrivals on the dynamic pool, and the pool's
forks: submit/reap actor pairs on both pools, small inboxes that park
requests in the overflow queue, and the least-loaded dispatch policy.

Each case is a config document that ``bench.run_experiment`` runs, the
entry the CLI uses. Device jitter and scheduling jitter are both on, so a
change in the order in which a run spawns actors or draws random numbers
shows up as a different digest, not only a change in the model. Each case also pins the
number of calendar events it fires, which moves when the event loop does
more or less work for the same output.
"""

import hashlib

import pytest

from ringbench import tasks
from ringbench.arch import TaskWorkload, common
from ringbench.bench import run_experiment
from ringbench.config import from_dict
from ringbench.device import VirtualClock
from ringbench.metrics import write_summary_csv
from ringbench.tasks import generate_corpus

US = 1_000
MS = 1_000_000

# the run sizes of each architecture's cases
SIZES = {
    "shared_nothing": {"n_workers": 2},
    "direct_access": {"n_workers": 3, "m_instances": 2},
    "static_pool": {"n_workers": 3, "k_instances": 2},
    "dynamic_pool": {"n_workers": 3, "k_instances": 2},
}
REQUESTS = {"op_count": 3001, "queue_depth": 12, "callback_cost_ns": 2 * US}
ZERO_COST_REQUESTS = {"op_count": 3001, "queue_depth": 12}
TASKS = {"kind": "tasks"}
# a per-entry submission cost makes the high phase need more than one
# instance, so the controller scales both ways
ARRIVALS = {
    "device": {"service_time_ns": 100 * US, "jitter_frac": 0.1,
               "submission_cpu_cost_ns": 20 * US},
    "workload": {"kind": "arrivals",
                 "phases": [[5 * MS, 5_000], [5 * MS, 100_000]] * 2},
}
ARRIVALS_POOL = {"n_workers": 1, "k_instances": 4,
                 "controller": {"window_ns": MS},
                 "ring": {"sq_capacity": 16, "cq_capacity": 32}}
PAIR = {"instance_threading": "submit_reap_pair"}
INLINE = {"exec_mode": "inline_callbacks"}
# a 2/2 ring makes pushes wait for CQ headroom that only a reap frees
RING_2_2 = {"ring": {"sq_capacity": 2, "cq_capacity": 2}}
ZERO_COSTS = {"costs": dict.fromkeys(
    ("submit_cost_ns", "reap_cost_ns", "poll_cost_ns", "resume_cost_ns",
     "lock_hold_ns", "inbox_push_cost_ns"), 0)}


def doc(kind, workload=REQUESTS, scheme="full", **architecture) -> dict:
    """A case's config document: seed 3 on a jittered device."""
    return {"device": {"service_time_ns": 20 * US, "jitter_frac": 0.1,
                       "parallelism": 16},
            "architecture": {"kind": kind, **SIZES[kind], **architecture},
            "scheme": scheme, "workload": workload, "seed": 3}


def arrivals_case(**architecture) -> dict:
    """An arrivals case: one worker on four instances of a dynamic pool."""
    return dict(doc("dynamic_pool", **ARRIVALS_POOL, **architecture),
                **ARRIVALS)


CASES = {
    "shared_nothing-requests": doc("shared_nothing"),
    "shared_nothing-tasks-full": doc("shared_nothing", TASKS),
    "shared_nothing-tasks-callback": doc("shared_nothing", TASKS,
                                         "callback"),
    "shared_nothing-tasks-coroutine": doc("shared_nothing", TASKS,
                                          "coroutine"),
    "direct_access-requests": doc("direct_access"),
    "direct_access-tasks-full": doc("direct_access", TASKS),
    "direct_access-tasks-callback": doc("direct_access", TASKS, "callback"),
    "direct_access-tasks-coroutine": doc("direct_access", TASKS,
                                         "coroutine"),
    "static_pool-requests": doc("static_pool"),
    "static_pool-tasks-full": doc("static_pool", TASKS),
    "static_pool-tasks-callback": doc("static_pool", TASKS, "callback"),
    "static_pool-tasks-coroutine": doc("static_pool", TASKS, "coroutine"),
    "dynamic_pool-requests": doc("dynamic_pool"),
    "dynamic_pool-tasks-full": doc("dynamic_pool", TASKS),
    "dynamic_pool-tasks-callback": doc("dynamic_pool", TASKS, "callback"),
    "dynamic_pool-tasks-coroutine": doc("dynamic_pool", TASKS,
                                        "coroutine"),
    "dynamic_pool-arrivals": arrivals_case(),
    "static_pool_pair-requests": doc("static_pool", **PAIR, **RING_2_2),
    "static_pool_pair-inline_requests": doc("static_pool", **PAIR,
                                            **INLINE),
    "static_pool_pair-tasks-callback": doc("static_pool", TASKS, "callback",
                                           **PAIR),
    "dynamic_pool_pair-requests": doc("dynamic_pool", **PAIR, **RING_2_2),
    "dynamic_pool_pair-tasks-full": doc("dynamic_pool", TASKS, **PAIR),
    "dynamic_pool_pair-tasks-callback": doc("dynamic_pool", TASKS,
                                            "callback", **PAIR),
    # small inboxes park requests in the overflow queue
    "static_pool_inbox2-requests": doc("static_pool", inbox_capacity=2),
    "static_pool_pair_inbox2-requests": doc(
        "static_pool", inbox_capacity=2, **PAIR, **RING_2_2),
    "static_pool_least_loaded_inbox2-requests": doc(
        "static_pool", dispatch_policy="least_loaded", inbox_capacity=2),
    "dynamic_pool_inbox1-tasks-coroutine": doc(
        "dynamic_pool", TASKS, "coroutine", inbox_capacity=1),
    # after a drain that filled no inbox of its own, a single actor parks
    # and a pair's submit actor drains again: each case moves if its actor
    # takes the other's rule
    "dynamic_pool_inbox1-arrivals": arrivals_case(inbox_capacity=1),
    "dynamic_pool_pair_inbox1-arrivals": arrivals_case(inbox_capacity=1,
                                                       **PAIR),
    # zero lock holds and poll misses, settled inline without an end event
    "direct_access-tasks-full-zero_costs": doc("direct_access", TASKS,
                                               **ZERO_COSTS),
    # zero inbox push, submit and reap
    "static_pool_pair-requests-zero_costs": doc("static_pool", **PAIR,
                                                **ZERO_COSTS),
    # zero inline callbacks: no refill between them
    "static_pool-inline_requests-zero_costs": doc(
        "static_pool", ZERO_COST_REQUESTS, **INLINE, **ZERO_COSTS),
    # zero frame resumes, and zero worker callbacks on requests
    "shared_nothing-tasks-coroutine-zero_costs": doc(
        "shared_nothing", TASKS, "coroutine", **ZERO_COSTS),
    "shared_nothing-requests-zero_costs": doc(
        "shared_nothing", ZERO_COST_REQUESTS, **ZERO_COSTS),
}


def csv_digest(report, tmp_path) -> str:
    path = tmp_path / "summary.csv"
    write_summary_csv(path, [report])
    return hashlib.sha256(path.read_bytes()).hexdigest()


GOLDEN = {
    "shared_nothing-requests":
        "d7cc7463f30dee34d9d2049aa6cc9da1d757b381cea4b2da195bf99975d302e0",
    "shared_nothing-tasks-full":
        "9fef351fd6fcd12d763a42b2c5d3e0f59ab8a1b38fd2472b7417e3cbd2cd6003",
    "shared_nothing-tasks-callback":
        "7a6f7203a318526549ce64d22d1213b59b9668cbfecb4adf9d0c8566a36a54de",
    "shared_nothing-tasks-coroutine":
        "8121ce3fd016fd68aa353174f39af040e40caeda42ee8349fcb555b2f57cd4d2",
    "direct_access-requests":
        "07bd5ab54095377a0e574027e659df7ddb1698cb5fb87a6610a5e8bfa6eb2e41",
    "direct_access-tasks-full":
        "7e9cf7016b035c327419e0ca9e7d6a96b2fc0812af3935ad5d23c2cc810f1738",
    "direct_access-tasks-callback":
        "5ea137ef81aa128baa40ffbc595f0fd975c0ba428eaac83256cf8ccfb74da684",
    "direct_access-tasks-coroutine":
        "2a6f389906bd7c8753f39de17d864f2313eb3600f4f288190461e4e8e904148c",
    "static_pool-requests":
        "30dac87a61b7d941fe380064f22de93cfe4c6525e59136fd6840eebca4608e8d",
    "static_pool-tasks-full":
        "8bd29c8c094ff39c2c69e5bc6585e11414eabbcdc0df49c4aa49260309f0de72",
    "static_pool-tasks-callback":
        "ea41c5daca62a36c825c7a4853db4db4115695da318a5caa6b39441d562285bf",
    "static_pool-tasks-coroutine":
        "cd53748ef88f7801dd3438d7425aa4759c61fc68bfdbef3cec1887faad3b79a4",
    "dynamic_pool-requests":
        "40ffe79f98192ba8e7d2e13345b143e1d945fe0836e07bdf93de6154ede76d51",
    "dynamic_pool-tasks-full":
        "3b7b1461fe6af7097ea101d16c24102f6dafde4e8b175ec697e787d9d9be5bc3",
    "dynamic_pool-tasks-callback":
        "fd82ffaf5b5f32cd4c07cfbbd0b14f2d8804b6e9550e5b13cf6c0a00637c878d",
    "dynamic_pool-tasks-coroutine":
        "e505429b5dede94ee389e6c0cffe6c923e079616c6e45f8eb551b2ede10333d1",
    "dynamic_pool-arrivals":
        "3fab919446de6b0d38cde4caa49cb763e1378cf203c6e1f04baa9f2fce50547a",
    "static_pool_pair-requests":
        "d377d5652990afe7ee151d4e145afbe80c8b4b4b6b6f5434b5815daafec3a1c3",
    "static_pool_pair-inline_requests":
        "72c0cc998587df37cfa0187ed82eba11018d11094e3d9a9cec2c49fa47cf17c5",
    "static_pool_pair-tasks-callback":
        "3fe900170e7879f179438205889f883b0996f215734f58664e0b9fdb49692bc7",
    "dynamic_pool_pair-requests":
        "b344047b02f6128cbd367062c5038720d6478b224cf72c89c77e02c8ec4c1d3b",
    "dynamic_pool_pair-tasks-full":
        "57f2510f69493e16e81b724610844ed1960e6ec7b4ff2403eb99748d6aa0b55a",
    "dynamic_pool_pair-tasks-callback":
        "39041a75d12f9576e81d4693ba0eb0bd27379b0f7c1b1d4c6d82fde06a440a96",
    "static_pool_inbox2-requests":
        "859a35d439733a7053d2236f014985db74766ab44431d734c643704ef2c4be0d",
    "static_pool_pair_inbox2-requests":
        "416c8f570dc9748ab3c35515a3dfe8633ba44216d756bbe6d79d1bc0a8ae81ff",
    "static_pool_least_loaded_inbox2-requests":
        "82455c8d719b1b273c81c6e08278e57ed80f3fbc376d1ba97ed4639999b037e8",
    "dynamic_pool_inbox1-tasks-coroutine":
        "eb08c53750e67e4dcc0f3b498d3d6d6a3ae30e37253bd1105a86932f25d6a052",
    "dynamic_pool_inbox1-arrivals":
        "14f25acee874343b0c92e8c4682f7e824567102d5f4205df9adfb893445fccc5",
    "dynamic_pool_pair_inbox1-arrivals":
        "e36d74d3704ed892e333c36e6b715db7d63a0041a7fb42e451f200e0489c39d1",
    "direct_access-tasks-full-zero_costs":
        "f3b36bcf09374198d51b91095ad958065d1a3b27890627634311d827eaf5dadb",
    "static_pool_pair-requests-zero_costs":
        "5da1b9e7edd01a2dcd7ee5fad84c473d37adaa635a4792d30f112b7c0c776155",
    "static_pool-inline_requests-zero_costs":
        "a55b5ecfd30a7b48305a0e3b896c60b437e7148142acd76bebf26c93caf3fdae",
    "shared_nothing-tasks-coroutine-zero_costs":
        "8df372dbbce906793e6f9efb25e4c216479c64b290291bb4f0b7077c149c0761",
    "shared_nothing-requests-zero_costs":
        "3a2d84a72ace0fe983e5b8ccc57fc0b4759a9acb20ed00962319fb7da14e23c8",
}


# calendar events each case fires (VirtualClock.step calls that ran one):
# an exact count of the simulator's work, pinned next to its output
EVENTS = {
    "shared_nothing-requests": 13625,
    "shared_nothing-tasks-full": 1370,
    "shared_nothing-tasks-callback": 828,
    "shared_nothing-tasks-coroutine": 1090,
    "direct_access-requests": 21564,
    "direct_access-tasks-full": 1623,
    "direct_access-tasks-callback": 1028,
    "direct_access-tasks-coroutine": 1206,
    "static_pool-requests": 25383,
    "static_pool-tasks-full": 2005,
    "static_pool-tasks-callback": 1079,
    "static_pool-tasks-coroutine": 1669,
    "dynamic_pool-requests": 25337,
    "dynamic_pool-tasks-full": 1999,
    "dynamic_pool-tasks-callback": 1076,
    "dynamic_pool-tasks-coroutine": 1669,
    "dynamic_pool-arrivals": 10372,
    "static_pool_pair-requests": 35510,
    "static_pool_pair-inline_requests": 25860,
    "static_pool_pair-tasks-callback": 1209,
    "dynamic_pool_pair-requests": 35447,
    "dynamic_pool_pair-tasks-full": 2010,
    "dynamic_pool_pair-tasks-callback": 1216,
    "static_pool_inbox2-requests": 25346,
    "static_pool_pair_inbox2-requests": 35426,
    "static_pool_least_loaded_inbox2-requests": 24630,
    "dynamic_pool_inbox1-tasks-coroutine": 1663,
    "dynamic_pool_inbox1-arrivals": 9754,
    "dynamic_pool_pair_inbox1-arrivals": 9804,
    "direct_access-tasks-full-zero_costs": 705,
    "static_pool_pair-requests-zero_costs": 16930,
    "static_pool-inline_requests-zero_costs": 14248,
    "shared_nothing-tasks-coroutine-zero_costs": 491,
    "shared_nothing-requests-zero_costs": 8713,
}

def run_case(name: str, **run_options):
    """The case's run, with scheduling jitter on; a task case runs the
    corpus of seed 19."""
    document = CASES[name]
    workload = TaskWorkload(specs=generate_corpus(19, 40)) \
        if document["workload"] == TASKS else None
    return run_experiment(from_dict(document), workload=workload,
                          sched_jitter_ns=500, **run_options)


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


def test_task_io_offsets_reach_no_output(monkeypatch):
    # a task's state folds in each completion's status and length, and
    # the simulated device serves every offset alike
    task_cases = [c for c in CASES if CASES[c]["workload"] == TASKS]
    assert len(task_cases) == 18

    def outputs():
        out = {}
        for case in task_cases:
            results = {}
            out[case] = run_case(case, results_out=results).to_row(), results
        return out

    expected = outputs()
    io_request_for = tasks.io_request_for

    def at_offset_0(*args):
        req = io_request_for(*args)
        req.offset = 0
        return req

    monkeypatch.setattr(tasks, "io_request_for", at_offset_0)
    monkeypatch.setattr(common, "io_request_for", at_offset_0)
    assert outputs() == expected
