"""Correctness checks on one pass, and the tampered results that prove
they bite.

A pass is correct when its report reconciles, it completed exactly the
I/Os its inputs call for, every task ended in the state the sequential
oracle (``tasks.interpret_task``) gives, and its simulated outputs are
bit-identical to the first pass of the same inputs. A run with any failed
check counts every simulated I/O it attempted as failed.
"""

from __future__ import annotations

from dataclasses import replace


def fingerprint(report, results: dict) -> tuple:
    """Everything simulated that one pass produces; equal for equal inputs."""
    return (tuple(report.to_row()), tuple(report.histogram.counts),
            tuple(sorted(results.items())))


def check_pass(report, results: dict, expected_ops: int,
               expected_states) -> list:
    """Return the failed checks (empty when the pass is correct)."""
    failed = []
    if report.submitted != report.completed_ok:
        failed.append(f"submitted {report.submitted} != completed_ok "
                      f"{report.completed_ok}")
    if report.errored or report.canceled:
        failed.append(f"errored {report.errored}, canceled {report.canceled}")
    if not report.conservation_holds():
        failed.append("conservation does not hold")
    if report.completed_ok != expected_ops:
        failed.append(f"completed_ok {report.completed_ok} != expected "
                      f"{expected_ops}")
    if expected_states is not None and results != expected_states:
        wrong = sorted(t for t in set(expected_states) | set(results)
                       if results.get(t) != expected_states.get(t))
        failed.append(f"{len(wrong)} task states differ from interpret_task "
                      f"(first: task {wrong[0]})")
    return failed


def tampered(report, results: dict):
    """Yield (case, report, results) copies that a correct check rejects."""
    if results:
        flipped = dict(results)
        task = min(flipped)
        flipped[task] ^= 1
        yield "flipped task state", report, flipped
    yield ("missing completion",
           replace(report, completed_ok=report.completed_ok - 1), results)
    yield ("conservation broken",
           replace(report, submitted=report.submitted + 1), results)


def self_test(report, results: dict, expected_ops: int,
              expected_states) -> list:
    """Feed the checks each tampered copy of a correct pass.

    Returns (case, failed_ops, failures) per case, failed_ops counted
    against the I/Os the pass attempted; 0 means that check does not bite.
    """
    out = []
    for case, rep, res in tampered(report, results):
        failures = check_pass(rep, res, expected_ops, expected_states)
        out.append((case, report.submitted if failures else 0, failures))
    return out
