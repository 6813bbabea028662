"""Set-up probe: one fresh process from start to the first simulated event.

``run.py`` starts this script several times per run and takes the median.
It imports the checkout's ringbench, builds the workload (config, corpus,
workload objects), enters the architecture's run function and stops at the
first ``VirtualClock.step``. It prints one JSON line: the monotonic clock
at that event (the parent took the same clock before starting the process)
and how long the imports and the workload build took.

    python3 perfbench/probe.py <workload> <seed>
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_checkout():
    """Import ringbench from this checkout's src/, never an installed copy."""
    if not (SRC / "ringbench" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ringbench sources under {SRC}")
    if "ringbench" in sys.modules:
        sys.exit("perfbench: ringbench was imported before the checkout's "
                 "src/ was put on sys.path")
    sys.path.insert(0, str(SRC))
    import ringbench
    loaded = Path(ringbench.__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        sys.exit(f"perfbench: imported ringbench from {loaded}, not from "
                 f"the measured checkout {SRC}")
    return ringbench


class FirstEvent(Exception):
    pass


def main(name: str, seed: int) -> None:
    t0 = time.perf_counter()
    import_checkout()
    import workloads
    t1 = time.perf_counter()
    w = workloads.build(name, seed)
    t2 = time.perf_counter()

    from ringbench.device import VirtualClock

    def first_step(_clock):
        raise FirstEvent(time.monotonic_ns())

    VirtualClock.step = first_step
    try:
        w.run({})
    except FirstEvent as ev:
        first_event_ns = ev.args[0]
    else:
        sys.exit("perfbench: the run ended without a simulated event")
    print(json.dumps({"first_event_ns": first_event_ns, "import_s": t1 - t0,
                      "corpus_s": t2 - t1}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
