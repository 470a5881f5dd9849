"""Self-tests for the benchmark harness.

    python3 -m pytest bench/test_bench.py
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from pqlab import convring, f2linalg, gf2m, goppa, ntru  # noqa: E402


def test_self_time_of_synthetic_span_tree():
    spans = [
        ["op.x", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.child", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["b.first", 5.0, 7.0, 3, 0],
        ["b.overlap", 6.0, 8.0, 3, 0],  # overlapping cover is counted once
        ["op.y", 20.0, 21.0, -1, 1],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.0, 2.0, 2.0, 1.0])


def _attributes():
    """Identity of every pqlab module attribute and class attribute."""
    seen = {}
    for mod in tracing.pqlab_modules():
        for attr, val in vars(mod).items():
            seen[(mod.__name__, attr)] = val
            if isinstance(val, type) and val.__module__ == mod.__name__:
                for name, member in vars(val).items():
                    seen[(mod.__name__, attr, name)] = member
    return seen


def test_traced_cycle_records_spans_and_restores_every_original(tmp_path):
    wl = workloads.WORKLOADS["mce-stream"]
    tracer = tracing.Tracer()
    session = workloads.Session(workloads.DEFAULT_SEED, None, tracer)
    session.workdir = tmp_path
    state = wl.setup(session)
    before = _attributes()

    session.traced = True
    with tracer.installed():
        # names bound with `from ... import` are rebound too
        assert goppa.sqrt_mod_g is gf2m.sqrt_mod_g
        assert hasattr(goppa.sqrt_mod_g, "__bench_original__")
        assert hasattr(ntru.conv_mul, "__bench_original__")
        assert ntru.conv_mul is convring.conv_mul
        assert hasattr(f2linalg.RowSolver.__init__, "__bench_original__")
        try:
            wl.cycle(session, state, 0)
        finally:
            session.probe.close()

    after = _attributes()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert tracing.installed_wrappers() == []
    assert session.failed_checks == []

    names = [span[0] for span in tracer.spans]
    assert names.count("op.encrypt") == names.count("op.decrypt") == 1
    assert names.count("gf2m.sqrt_mod_g") == 47
    # wrapped self times plus the unwrapped remainder make up the op time
    own = tracing.self_times(tracer.spans)
    roots = sum(s[2] - s[1] for s in tracer.spans if s[3] == -1)
    assert sum(own) == pytest.approx(roots)
    assert all(s[3] >= 0 for s in tracer.spans if not s[0].startswith("op."))


def _fingerprint(workdir: Path, state) -> str:
    def norm(x):
        if isinstance(x, str):
            return x.replace(str(workdir), "")
        if isinstance(x, (list, tuple)):
            return [norm(y) for y in x]
        if isinstance(x, goppa.GoppaCode):
            return [x.support, x.g.coeffs]
        if isinstance(x, f2linalg.BinVector):
            return [x.n, x.bits]
        return x

    digest = hashlib.sha256(repr(norm(state)).encode())
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(workdir)).encode() + path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_workload_seed(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    prints = []
    for run, seed in enumerate((5, 5, 6)):
        session = workloads.Session(seed, None)
        session.workdir = tmp_path / str(run)
        session.workdir.mkdir()
        prints.append(_fingerprint(session.workdir, wl.setup(session)))
    assert prints[0] == prints[1]
    assert prints[0] != prints[2]


def _benchmark_spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_workloads():
    spec = _benchmark_spec()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: wl.why for name, wl in workloads.WORKLOADS.items()}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_exactly_the_listed_metrics(trace, section, capsys):
    rc = run.main(["--workload", "mce-stream", "--seconds", "0", "--trace", str(trace)])
    assert rc == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    listed = {m["name"]: m["unit"] for m in _benchmark_spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mce-stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
