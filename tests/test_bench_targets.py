"""Every function the benchmark's tracer wraps still exists where it looks.

bench/tracer.py finds each target with vars() on its owner, so a rename or a
move in pqlab breaks the traced benchmark run; this guard fails first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def test_every_trace_target_resolves():
    missing = []
    for name, module, path, _ in tracer.TARGETS:
        importlib.import_module(module)
        owner, attr = tracer._resolve(module, path)
        if attr not in vars(owner):
            missing.append(f"{name}: {module}.{path}")
    assert tracer.TARGETS
    assert missing == []
