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
        "f6e286cf89f9cfef4ebd67534a01920724f89f90a70a0b15c605dc6c33c1f858",
    "sweep_callback.csv":
        "1051bc718d659aac73b1627837116f31579b43fc8c17c16766c1f07577fd5d77",
    "scaling_trace.csv":
        "1f935f472a9ab9d4bb45b2282176492175a0d00b921bf1da2ee1c924ccc0496c",
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
        "events": 99509, "at_calls": 99509, "at_zero_delay": 39402,
        "sweeps": 19995, "empty_sweeps": 0, "poll_wakes": 0,
        "push_calls": 20000, "push_refused": 0, "reap_calls": 19978,
        "reap_misses": 0, "resumes": 59175, "notifies": 59995,
        "lock_acquisitions": 0, "lock_contention": 0, "items": 0,
        "poll_hits": 0, "pool_dispatches": 0, "controller_steps": 0,
        "pred_calls": 99506},
        "cafb3dec8fb0c1870cb052449e144fe45ac9130fef35a5bf73ed9c6bbf76b7f8"),
    "tasks_da_full": ({
        "events": 165847, "at_calls": 65685, "at_zero_delay": 27965,
        "sweeps": 8282, "empty_sweeps": 0, "poll_wakes": 0, "push_calls": 8282,
        "push_refused": 0, "reap_calls": 8146, "reap_misses": 34,
        "resumes": 123010, "notifies": 41274, "lock_acquisitions": 16428,
        "lock_contention": 600, "items": 17558, "poll_hits": 8282,
        "pool_dispatches": 0, "controller_steps": 0, "pred_calls": 165844},
        "22b924b7c7c814ae6b954afa6edae0b0abd7625c953fcbbf5d0844022d914d2d"),
    "tasks_pool_cb": ({
        "events": 62993, "at_calls": 62993, "at_zero_delay": 25772,
        "sweeps": 8282, "empty_sweeps": 0, "poll_wakes": 0, "push_calls": 8282,
        "push_refused": 0, "reap_calls": 7648, "reap_misses": 0,
        "resumes": 46370, "notifies": 26720, "lock_acquisitions": 0,
        "lock_contention": 0, "items": 10282, "poll_hits": 0,
        "pool_dispatches": 8282, "controller_steps": 0, "pred_calls": 62989},
        "694b51d5d184f91520eb4397587d7356b1d90a0717ef3952377852c85545201e"),
    "arrivals_dyn": ({
        "events": 163346, "at_calls": 163346, "at_zero_delay": 42274,
        "sweeps": 22008, "empty_sweeps": 1008, "poll_wakes": 14,
        "push_calls": 30552, "push_refused": 9552, "reap_calls": 21000,
        "reap_misses": 0, "resumes": 119238, "notifies": 63088,
        "lock_acquisitions": 0, "lock_contention": 0, "items": 0,
        "poll_hits": 0, "pool_dispatches": 21000, "controller_steps": 80,
        "pred_calls": 163334},
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
