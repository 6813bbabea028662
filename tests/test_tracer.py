"""perfbench's tracer finds every entry point it wraps in this program, and
puts each one back: an entry point renamed or deleted under src/ leaves a
layer of the traced split without its spans, which the tracer lists in
``missing`` and this guard turns into a failure."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_point_found_and_restored():
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        assert tracer.uninstall() == []
