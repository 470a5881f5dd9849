"""The library calls the benchmark's workloads make directly still work.

bench/workloads.py calls some of pqlab outside the CLI: GoppaCode and its
generator, encode and is_codeword, random_weight_vector and the three
exhaustive code oracles.  This runs every workload's set-up and one
desk-analysis cycle, so a change that breaks one of those calls fails here
and not only in a benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name, alias):
    spec = importlib.util.spec_from_file_location(alias, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


_load("speed", "speed")  # workloads.py imports it by this name
workloads = _load("workloads", "bench_workloads")


def test_every_setup_and_a_desk_analysis_cycle(tmp_path):
    desk = workloads.WORKLOADS["desk-analysis"]
    expected = json.loads(workloads.DIGESTS_FILE.read_text())[desk.name]
    session = workloads.Session(workloads.DEFAULT_SEED, expected)
    try:
        for name, wl in workloads.WORKLOADS.items():
            session.workdir = tmp_path / name
            session.workdir.mkdir()
            state = wl.setup(session)
            if wl is desk:
                wl.cycle(session, state, 0)
    finally:
        session.probe.close()
    assert session.failed_checks == []
    assert session.digests.keys() == expected.keys()
    assert {op.kind for op in session.ops} == set(desk.kinds)
