"""Histogram accuracy, collector absorb semantics, CSV stability."""

import random

import pytest

from ringbench.metrics import (IncompatibleWindows, InstanceStats,
                               LatencyHistogram, MetricsCollector,
                               MetricsReport, write_summary_csv)
from ringbench.ring import Completion, CompletionStatus


def comp(t=1000, status=CompletionStatus.OK, rid=0):
    return Completion(rid, 0, status, 4096, t)


class TestHistogram:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_quantile_error_within_bucket_width(self, seed):
        rng = random.Random(seed)
        h = LatencyHistogram()
        samples = [int(10 ** rng.uniform(3.1, 9.9)) for _ in range(100_000)]
        for s in samples:
            h.add(s)
        samples.sort()
        for q in (0.5, 0.9, 0.99):
            exact = samples[min(len(samples) - 1,
                                max(0, int(q * len(samples)) - 1))]
            approx = h.quantile(q)
            assert abs(approx - exact) / exact <= 0.05
        assert h.max_ns == samples[-1]

    def test_out_of_range_clamped(self):
        h = LatencyHistogram()
        h.add(10)           # below 1us
        h.add(10 ** 11)     # above 10s
        assert h.total == 2
        assert h.max_ns == 10 ** 11
        assert h.quantile(0.1) > 0

    def test_empty(self):
        assert LatencyHistogram().quantile(0.5) == 0

    @pytest.mark.parametrize("ns", [100_000, 1_000, 20_097])
    def test_quantile_never_exceeds_the_maximum(self, ns):
        # 100 000 ns lies in the lower half of its bucket, whose geometric
        # middle is 100 551 ns
        h = LatencyHistogram()
        for _ in range(10):
            h.add(ns)
        for q in (0.5, 0.99, 1.0):
            assert ns / 1.05 <= h.quantile(q) <= ns


def collector_from(run_id, completions):
    c = MetricsCollector(run_id)
    for comp_ in completions:
        c.on_submit()
        c.on_completion(comp_, 0)
    return c


def report_from(run_id, completions, elapsed=1_000_000):
    return collector_from(run_id, completions).finalize(elapsed)


class TestMerge:
    def test_two_shards_equal_concatenated_trace(self):
        # oracle: recompute the report over the concatenation
        rng = random.Random(4)
        times = [int(10 ** rng.uniform(3.2, 7.0)) for _ in range(4000)]
        whole = report_from("run", [comp(t) for t in times])
        merged = collector_from("run", [comp(t) for t in times[:1500]])
        merged.absorb(collector_from("run", [comp(t) for t in times[1500:]]))
        merged = merged.finalize(1_000_000)
        assert merged.submitted == whole.submitted
        assert merged.completed_ok == whole.completed_ok
        assert merged.lat_p50_ns == whole.lat_p50_ns
        assert merged.lat_p99_ns == whole.lat_p99_ns
        assert merged.lat_max_ns == whole.lat_max_ns
        assert merged.iops == whole.iops

    def test_collector_absorb_guard(self):
        a = MetricsCollector("x")
        b = MetricsCollector("y")
        with pytest.raises(IncompatibleWindows):
            a.absorb(b)


class TestConservation:
    def test_counts_by_status(self):
        c = MetricsCollector("run")
        statuses = ([CompletionStatus.OK] * 5 + [CompletionStatus.ERROR] * 2
                    + [CompletionStatus.CANCELED] * 3)
        for s in statuses:
            c.on_submit()
            c.on_completion(comp(status=s), 0)
        r = c.finalize(1000)
        assert (r.completed_ok, r.errored, r.canceled) == (5, 2, 3)
        assert r.conservation_holds()

    def test_violation_detected(self):
        c = MetricsCollector("run")
        c.on_submit(10)
        r = c.finalize(1000)
        assert not r.conservation_holds()


class TestCsv:
    def test_stable_header_and_determinism(self, tmp_path):
        r = report_from("run", [comp(t) for t in range(1000, 2000, 10)])
        r.per_instance.append(InstanceStats(0, 0.5, 123, 4))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_summary_csv(p1, [r], extra_columns=("qd",), extra_values=[(8,)])
        write_summary_csv(p2, [r], extra_columns=("qd",), extra_values=[(8,)])
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        assert b1 == b2
        header = b1.decode().splitlines()[0]
        assert header.startswith("qd,run_id,elapsed_ns,submitted")
        assert header.split(",") == ["qd"] + list(MetricsReport.COLUMNS)
