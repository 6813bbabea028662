"""Pins of the standing gates that no other test covers: the CSVs the CLI
writes on ``configs/*.json``, and one traced perfbench pass per workload.

A change that moves one of these re-pins it and says why, as it does for
the digests in ``test_golden.py``. The perfbench modules are loaded by
path, as ``test_tracer.py`` loads the tracer.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from ringbench.cli import main
from ringbench.metrics import write_summary_csv

ROOT = Path(__file__).resolve().parents[1]

# command -> the config it runs on and the files it writes
CLI_RUNS = {
    "sweep-qd": ("qd_sweep.json", ("sweep_qd.csv",)),
    "sweep-callback": ("callback_sweep.json", ("sweep_callback.csv",)),
    "scaling-trace": ("scaling_trace.json",
                      ("scaling_timeline.csv", "scaling_trace.csv")),
}
CSV_SHA256 = {
    "sweep_qd.csv":
        "ccf8e8bb8f9097a4d419519ce4cb4346134dab9aefaaafa777ef0285ca1ef08d",
    "sweep_callback.csv":
        "04ce6b7d6537769b075bbb15048c1b5cc87a865f3f816214c588f790709fdc80",
    "scaling_trace.csv":
        "c9c80f8c2a772801d78eac4f61bef90df1ac8244bffc7e356213d2d6df2aee32",
    "scaling_timeline.csv":
        "d1766e44fb3ac03acd5068470ae2f554495a4ce816153f1a6764ec43edd985f4",
}


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("command", list(CLI_RUNS))
def test_cli_csvs(tmp_path, command):
    config, files = CLI_RUNS[command]
    rc = main([command, "--config", str(ROOT / "configs" / config),
               "--out", str(tmp_path)])
    assert rc == 0
    written = {p.name: sha256(p) for p in sorted(tmp_path.glob("*.csv"))}
    assert written == {name: CSV_SHA256[name] for name in files}


def load_perfbench(module: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{module}", ROOT / "perfbench" / f"{module}.py")
    loaded = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loaded)
    return loaded


# workload -> (Tracer.counts of one traced pass at seed 1, SHA-256 of its
# report row as write_summary_csv writes it)
TRACED = {
    "req_sn": ({
        "events": 99308, "at_calls": 99308, "at_zero_delay": 39201,
        "sweeps": 19995, "empty_sweeps": 0, "poll_wakes": 0,
        "push_calls": 20000, "push_refused": 0, "reap_calls": 19978,
        "reap_misses": 0, "resumes": 58974, "notifies": 40000,
        "lock_acquisitions": 0, "lock_contention": 0, "items": 0,
        "poll_hits": 0, "pool_dispatches": 0, "controller_steps": 0,
        "pred_calls": 99305},
        "cafb3dec8fb0c1870cb052449e144fe45ac9130fef35a5bf73ed9c6bbf76b7f8"),
    "tasks_da_full": ({
        "events": 123389, "at_calls": 60639, "at_zero_delay": 22896,
        "sweeps": 8282, "empty_sweeps": 0, "poll_wakes": 0,
        "push_calls": 8282, "push_refused": 0, "reap_calls": 8169,
        "reap_misses": 8, "resumes": 105519, "notifies": 33015,
        "lock_acquisitions": 16451, "lock_contention": 485, "items": 17558,
        "poll_hits": 8282, "pool_dispatches": 0, "controller_steps": 0,
        "pred_calls": 123386},
        "a2995f6aeec8e037b6598a7f7c5cfbe605b929ed40804da6b0c5b4ba50d8bd4c"),
    "tasks_pool_cb": ({
        "events": 56713, "at_calls": 56713, "at_zero_delay": 19492,
        "sweeps": 8282, "empty_sweeps": 0, "poll_wakes": 0,
        "push_calls": 8282, "push_refused": 0, "reap_calls": 7648,
        "reap_misses": 0, "resumes": 40090, "notifies": 18438,
        "lock_acquisitions": 0, "lock_contention": 0, "items": 10282,
        "poll_hits": 0, "pool_dispatches": 8282, "controller_steps": 0,
        "pred_calls": 56709},
        "bda54299205b54af16b4e672590ae6fd04ff29d8048f4b6c82b22acb7f7e663b"),
    "arrivals_dyn": ({
        "events": 162253, "at_calls": 162253, "at_zero_delay": 41181,
        "sweeps": 22008, "empty_sweeps": 1008, "poll_wakes": 14,
        "push_calls": 30552, "push_refused": 9552, "reap_calls": 21000,
        "reap_misses": 0, "resumes": 118145, "notifies": 46226,
        "lock_acquisitions": 0, "lock_contention": 0, "items": 0,
        "poll_hits": 0, "pool_dispatches": 21000, "controller_steps": 80,
        "pred_calls": 162241},
        "810c0d78f85f8e45d94919e305a390e74ed11dc989b9576fec42c96cbf6c953f"),
}


@pytest.mark.parametrize("name", list(TRACED))
def test_traced_perfbench_pass(tmp_path, name):
    workload = load_perfbench("workloads").build(name, 1)
    tracer = load_perfbench("tracer").Tracer()
    try:
        tracer.install()
        report = workload.run({})
    finally:
        assert tracer.uninstall() == []
    path = tmp_path / "row.csv"
    write_summary_csv(path, [report])
    counts, row = TRACED[name]
    assert (tracer.counts, sha256(path)) == (counts, row)
