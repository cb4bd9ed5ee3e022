"""The benchmark's tracer wraps goo's functions and methods by name.

``bench/tracing.py`` is frozen with the benchmark, so a function it names
must not be renamed or deleted; this catches that here rather than as a
KeyError in a traced benchmark run.
"""

import importlib.util
from pathlib import Path


def test_every_bench_trace_target_exists():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        (owner.__name__, attr)
        for owner, attr, _name in tracing.TARGETS
        if attr not in vars(owner)
    ]
    assert missing == []
