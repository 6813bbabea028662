"""Uniform accounting across simulated and wall-clock runs.

Latency is kept in a fixed log-bucket histogram (1 us .. 10 s, 5% bucket
width) rather than raw samples: runs reach millions of ops and the claims
being checked are order-of-magnitude shaped. Quantile error is bounded by
the bucket width; the maximum is tracked exactly on the side.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

from .ring import CompletionStatus


class IncompatibleWindows(Exception):
    """Collectors from different runs/windows cannot be combined."""


_BUCKET_RATIO = 1.05
_LAT_LO = 1_000            # 1 us
_LAT_HI = 10_000_000_000   # 10 s


def _make_bounds():
    bounds = []
    b = float(_LAT_LO)
    while b < _LAT_HI:
        bounds.append(int(b))
        b *= _BUCKET_RATIO
    bounds.append(_LAT_HI)
    return tuple(bounds)


_BOUNDS = _make_bounds()
_NBUCKETS = len(_BOUNDS)


class LatencyHistogram:
    __slots__ = ("counts", "total", "max_ns")

    def __init__(self):
        self.counts = [0] * _NBUCKETS
        self.total = 0
        self.max_ns = 0

    def add(self, ns: int) -> None:
        i = bisect_left(_BOUNDS, ns)
        if i >= _NBUCKETS:
            i = _NBUCKETS - 1
        self.counts[i] += 1
        self.total += 1
        if ns > self.max_ns:
            self.max_ns = ns

    def merge(self, other: "LatencyHistogram") -> None:
        counts = self.counts
        for i, c in enumerate(other.counts):
            counts[i] += c
        self.total += other.total
        if other.max_ns > self.max_ns:
            self.max_ns = other.max_ns

    def quantile(self, q: float) -> int:
        """Representative ns value at quantile q (0 when empty): the
        bucket's geometric middle, never above the exact maximum."""
        if self.total == 0:
            return 0
        rank = max(1, math.ceil(q * self.total))
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                lo = _BOUNDS[i - 1] if i else _LAT_LO / _BUCKET_RATIO
                return min(int(math.sqrt(lo * _BOUNDS[i])), self.max_ns)
        return self.max_ns


@dataclass
class InstanceStats:
    instance_id: int
    utilization: float      # fraction of elapsed with >=1 op in service
    poll_busy_ns: int
    inbox_peak: int


@dataclass
class MetricsReport:
    run_id: str
    elapsed_ns: int
    submitted: int
    completed_ok: int
    errored: int
    canceled: int
    iops: float
    lat_p50_ns: int
    lat_p99_ns: int
    lat_max_ns: int
    contention_events: int
    cross_thread_msgs: int
    sq_full_retries: int
    tasklet_respawns: int
    coroutine_resumes: int
    frame_bytes_peak: int
    per_instance: list = field(default_factory=list)
    active_instance_timeline: list = field(default_factory=list)
    histogram: LatencyHistogram = field(default_factory=LatencyHistogram,
                                        repr=False, compare=False)
    completion_times: list = field(default=None, repr=False, compare=False)

    def conservation_holds(self) -> bool:
        return self.submitted == self.completed_ok + self.errored + self.canceled

    def poll_busy_ns_total(self) -> int:
        return sum(s.poll_busy_ns for s in self.per_instance)

    # stable CSV surface -------------------------------------------------------

    COLUMNS = ("run_id", "elapsed_ns", "submitted", "completed_ok", "errored",
               "canceled", "iops", "lat_p50_ns", "lat_p99_ns", "lat_max_ns",
               "contention_events", "cross_thread_msgs", "sq_full_retries",
               "tasklet_respawns", "coroutine_resumes", "frame_bytes_peak",
               "poll_busy_ns_total", "utilization_mean", "inbox_peak_max",
               "instances")

    def to_row(self) -> list:
        per = self.per_instance
        util_mean = (sum(s.utilization for s in per) / len(per)) if per else 0.0
        inbox_peak = max((s.inbox_peak for s in per), default=0)
        return [self.run_id, self.elapsed_ns, self.submitted,
                self.completed_ok, self.errored, self.canceled,
                repr(self.iops), self.lat_p50_ns, self.lat_p99_ns,
                self.lat_max_ns, self.contention_events,
                self.cross_thread_msgs, self.sq_full_retries,
                self.tasklet_respawns, self.coroutine_resumes,
                self.frame_bytes_peak, self.poll_busy_ns_total(),
                repr(util_mean), inbox_peak, len(per)]


# the counters a collector sums over executors and reports as they are
SUMMED_COUNTERS = ("submitted", "completed_ok", "errored", "canceled",
                   "contention_events", "cross_thread_msgs",
                   "sq_full_retries", "tasklet_respawns", "coroutine_resumes")


class MetricsCollector:
    """Per-executor accumulation; no shared mutable state during a run."""

    __slots__ = ("run_id", *SUMMED_COUNTERS, "frame_bytes_peak", "hist",
                 "completion_times", "last_completion_ns")

    def __init__(self, run_id: str, keep_completion_times: bool = False):
        self.run_id = run_id
        for name in SUMMED_COUNTERS:
            setattr(self, name, 0)
        self.frame_bytes_peak = 0
        self.hist = LatencyHistogram()
        self.completion_times = [] if keep_completion_times else None
        self.last_completion_ns = 0

    def on_submit(self, n: int = 1) -> None:
        self.submitted += n

    def on_completion(self, comp, submit_time) -> None:
        status = comp.status
        if status == CompletionStatus.OK:
            self.completed_ok += 1
        elif status == CompletionStatus.ERROR:
            self.errored += 1
        else:
            self.canceled += 1
        self.hist.add(comp.complete_time - submit_time)
        if comp.complete_time > self.last_completion_ns:
            self.last_completion_ns = comp.complete_time
        if self.completion_times is not None:
            self.completion_times.append(comp.complete_time)

    def absorb(self, other: "MetricsCollector") -> None:
        if other.run_id != self.run_id:
            raise IncompatibleWindows(
                f"collector {other.run_id!r} does not match {self.run_id!r}")
        for name in SUMMED_COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.frame_bytes_peak = max(self.frame_bytes_peak,
                                    other.frame_bytes_peak)
        self.hist.merge(other.hist)
        if other.last_completion_ns > self.last_completion_ns:
            self.last_completion_ns = other.last_completion_ns
        if self.completion_times is not None and other.completion_times:
            self.completion_times.extend(other.completion_times)

    def finalize(self, elapsed_ns: int, per_instance=(),
                 timeline=()) -> MetricsReport:
        iops = self.completed_ok * 1e9 / elapsed_ns if elapsed_ns else 0.0
        return MetricsReport(
            run_id=self.run_id, elapsed_ns=elapsed_ns, iops=iops,
            lat_p50_ns=self.hist.quantile(0.50),
            lat_p99_ns=self.hist.quantile(0.99),
            lat_max_ns=self.hist.max_ns,
            frame_bytes_peak=self.frame_bytes_peak,
            per_instance=list(per_instance),
            active_instance_timeline=list(timeline), histogram=self.hist,
            completion_times=self.completion_times,
            **{name: getattr(self, name) for name in SUMMED_COUNTERS})


def write_csv(path, header, rows) -> None:
    """The one CSV writer: ``str()`` of each value, comma-separated, UTF-8
    with ``\\n`` line ends. Every row is formed before the file opens, so a
    failing row source leaves no file."""
    lines = [",".join(map(str, row)) + "\n" for row in (header, *rows)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)


def write_summary_csv(path, reports, extra_columns=(), extra_values=None):
    """Emit one row per report with the stable header; byte-deterministic."""
    extra_values = extra_values or [()] * len(reports)
    write_csv(path, [*extra_columns, *MetricsReport.COLUMNS],
              [[*extra, *report.to_row()]
               for extra, report in zip(extra_values, reports, strict=True)])
