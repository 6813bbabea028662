"""Checks of the committed benchmark result records (``BENCH_*.json`` at
the repository root) against the benchmark they claim to measure
(``BENCHMARK.json``): a claim names one of its end-to-end metrics and one
of its workloads, and every recorded run was correct with no failed
operation."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def load(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


BENCHMARK = load(ROOT / "BENCHMARK.json")


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_claim_names_a_declared_metric_and_workload(path):
    record = load(path)
    claim = record["claim"]
    assert claim["metric"] in {m["name"] for m in BENCHMARK["end_to_end"]}
    assert claim["workload"] in {w["name"] for w in BENCHMARK["workloads"]}
    assert claim["workload"] in record["workloads"]


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_every_pair_ran_correct_without_failures(path):
    record = load(path)
    bad = []
    for workload, runs in record["workloads"].items():
        assert runs["pairs"], workload
        for i, pair in enumerate(runs["pairs"]):
            for side in SIDES:
                result = pair[side]["result"]
                if not result["correct"] or result["failed"] != 0:
                    bad.append((workload, i, side))
    assert bad == []
