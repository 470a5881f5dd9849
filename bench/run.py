"""Run one pqlab benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 every cycle runs twice, once
plain and once under the span tracer, and the metrics are the per-layer ones
plus the tracing overhead.  A full report (run record, every metric, failed
checks) is written to .bench_out/, and a traced run also writes its spans
there.  See bench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5

# name -> (unit, operation kind, scale from seconds, whether a sample is the
# kind's total per cycle rather than one call)
OP_METRICS = {
    "keygen_p50_ms": ("ms", "keygen", 1e3, False),
    "encrypt_p50_ms": ("ms", "encrypt", 1e3, False),
    "decrypt_p50_ms": ("ms", "decrypt", 1e3, False),
    "attack_s": ("s", "attack", 1.0, True),
    "oracle_s": ("s", "oracle", 1.0, True),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- run record --


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _commit() -> str | None:
    """HEAD of the repository at ROOT, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(seed: int) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pqlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "machine": {"nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model()},
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha256": src.hexdigest(),
        "workload_seed": seed,
    }


# -- measurement --


def run_cycles(wl, session, state, seconds: float, tracer) -> int:
    """Run whole cycles until `seconds` have passed; returns the cycle count.

    Traced runs execute each cycle twice on the same inputs, plain and
    traced, alternating which goes first.
    """
    start = time.perf_counter()
    i = 0
    while True:
        session.cycle = i
        if tracer is None:
            wl.cycle(session, state, i)
        else:
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                session.traced = traced
                if traced:
                    with tracer.installed():
                        wl.cycle(session, state, i)
                else:
                    wl.cycle(session, state, i)
        i += 1
        if time.perf_counter() - start >= seconds:
            return i


def per_cycle(ops, traced: bool, cost=lambda op: op.seconds) -> dict:
    """{kind: [cost per cycle]} and the cycle totals under key None."""
    sums: dict = {}
    for op in ops:
        if op.traced == traced:
            for key in (op.kind, None):
                sums.setdefault(key, {}).setdefault(op.cycle, 0.0)
                sums[key][op.cycle] += cost(op)
    return {key: [v for _, v in sorted(by_cycle.items())] for key, by_cycle in sums.items()}


def in_ref(op) -> float:
    """The op's cost in ref units (see speed.py)."""
    return op.seconds / op.ref


def op_metrics(wl, session) -> dict:
    """The operation metrics that apply to this workload, from its untraced
    operations: name -> (wall-clock value, unit, samples, value in ref)."""
    plain = [op for op in session.ops if not op.traced]
    out = {}
    for name, (unit, kind, scale, whole_cycle) in OP_METRICS.items():
        if kind not in wl.kinds:
            continue
        if whole_cycle:
            wall = per_cycle(plain, False)[kind]
            refs = per_cycle(plain, False, cost=in_ref)[kind]
        else:
            wall = [op.seconds for op in plain if op.kind == kind]
            refs = [in_ref(op) for op in plain if op.kind == kind]
        out[name] = (statistics.median(wall) * scale, unit, len(wall), statistics.median(refs))
    if "attack" in wl.kinds:
        wins, trials = session.attack_tally
        out["attack_success_ratio"] = (wins / trials, f"of {trials} trials", trials, None)
    failed = sum(not op.ok for op in session.ops)
    n = len(session.ops)
    out["fail_ratio"] = (failed / n, f"of {n} ops", n, None)
    return out


def layer_metrics(tracer, tracing, ops) -> dict:
    """Per-layer calls and self time per traced cycle, outcome ratios and
    the tracing overhead."""
    traced = per_cycle(ops, traced=True, cost=in_ref)[None]
    plain = per_cycle(ops, traced=False, cost=in_ref)[None]
    cycles = len(traced)
    calls = dict.fromkeys(tracing.LAYER_NAMES, 0)
    self_s = dict.fromkeys(tracing.LAYER_NAMES, 0.0)
    unwrapped = op_total = 0.0
    for span, own in zip(tracer.spans, tracing.self_times(tracer.spans)):
        name = span[0]
        if name.startswith("op."):
            unwrapped += own
            op_total += span[2] - span[1]
        else:
            calls[name] += 1
            self_s[name] += own
    out = {}
    for name in tracing.LAYER_NAMES:
        out[f"{name}.calls"] = (calls[name] / cycles, "1/cycle")
        out[f"{name}.self_ms"] = (self_s[name] * 1e3 / cycles, "ms/cycle")
    for metric, (layer, label) in tracing.RATIOS.items():
        counts = tracer.outcomes[layer]
        base = sum(counts.values())
        out[metric] = (counts[label] / base if base else 0.0, "ratio")
    overhead = [t / p for t, p in zip(traced, plain)]
    out["trace.overhead_ratio"] = (statistics.median(overhead), "ratio")
    out["trace.op_ms"] = (op_total * 1e3 / cycles, "ms/cycle")
    out["trace.unwrapped_self_ms"] = (unwrapped * 1e3 / cycles, "ms/cycle")
    out["trace.cycles"] = (float(cycles), "count")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    # PQLAB_SEED would override every seed the benchmark passes to the CLI
    os.environ.pop("PQLAB_SEED", None)
    sys.path.insert(0, str(ROOT / "src"))
    probe = speed.SpeedProbe()
    try:
        return _run(args, probe)
    finally:
        probe.close()


def _load():
    import tracer
    import workloads
    from pqlab import convring, gf2m, goppa, ntru
    return tracer, workloads, (convring, gf2m, goppa, ntru)


def _run(args, probe) -> int:
    try:
        (tracing, workloads, (convring, gf2m, goppa, ntru)), import_s, kernel = \
            probe.measure(_load)
    except ImportError as exc:
        print(f"bench: cannot import pqlab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_ref = import_s / kernel

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"bench: unknown workload {args.workload!r}; choices: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    expected = None
    if seed == workloads.DEFAULT_SEED:
        expected = json.loads(workloads.DIGESTS_FILE.read_text()).get(wl.name, {})
    tracer = tracing.Tracer() if args.trace else None
    session = workloads.Session(seed, expected, tracer, probe)

    OUT.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix=f"work-{wl.name}-", dir=OUT))
    try:
        setup_wall, setup_ref = [], []
        for r in range(SETUP_REPEATS):
            session.workdir = base / f"setup{r}"
            session.workdir.mkdir()
            state, net, kernel = probe.measure(lambda: wl.setup(session))
            setup_wall.append(net)
            setup_ref.append(net / kernel)
        cycles = run_cycles(wl, session, state, args.seconds, tracer)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    leftover = tracing.installed_wrappers()
    if leftover or goppa.sqrt_mod_g is not gf2m.sqrt_mod_g \
            or ntru.conv_mul is not convring.conv_mul:
        raise RuntimeError(f"tracer wrappers left installed: {leftover}")

    ops = session.ops
    failed = sum(not op.ok for op in ops)
    setup_s = (import_ref + statistics.median(setup_ref)) * speed.REF_SECONDS
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ops_view = op_metrics(wl, session)

    if tracer is None:
        refs = per_cycle(ops, traced=False, cost=in_ref)
        medians = [statistics.median(refs[k]) for k in wl.kinds]
        metrics = {
            "setup_s": (setup_s, "s"),
            "cycle_p50_ref": (statistics.median(refs[None]), "ref"),
            "op_p50_geomean_ref": (math.prod(medians) ** (1 / len(medians)), "ref"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    else:
        metrics = layer_metrics(tracer, tracing, ops)
        # every workload reports these; an operation it does not run reads 0
        units = {name: spec[0] for name, spec in OP_METRICS.items()}
        units.update(attack_success_ratio="ratio", fail_ratio="ratio")
        for name, unit in units.items():
            metrics[name] = (ops_view[name][0] if name in ops_view else 0.0, unit)

    record = run_record(seed)
    correct = failed == 0 and not session.failed_checks
    report = {
        "workload": wl.name,
        "trace": args.trace,
        "record": record,
        "cycles": cycles,
        "setup_wall_s": import_s + statistics.median(setup_wall),
        "import_wall_s": import_s,
        "setup_repeats_wall_s": setup_wall,
        "cycle_wall_s": {k or "cycle": v for k, v in per_cycle(ops, traced=False).items()},
        "cycle_ref": {k or "cycle": v for k, v in per_cycle(ops, False, in_ref).items()},
        "operations": {k: {"value": v[0], "unit": v[1], "samples": v[2], "ref": v[3]}
                       for k, v in ops_view.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failed_checks": session.failed_checks,
        "digests": session.digests,
    }
    stem = f"{wl.name}-seed{seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}))

    print(f"record: {json.dumps(record)}")
    print(f"{wl.name}: {cycles} cycles, seed {seed}, trace {args.trace}")
    for name, (value, unit, samples, ref) in ops_view.items():
        in_ref_units = "" if ref is None else f"{ref:12.2f} ref"
        print(f"  {name:<22} {value:12.4f} {unit:<14} n={samples:<5} {in_ref_units}")
    if tracer is not None:
        wrapped = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_ms"))
        print(f"  traced op time {metrics['trace.op_ms'][0]:.1f} ms/cycle = wrapped self "
              f"{wrapped:.1f} + unwrapped {metrics['trace.unwrapped_self_ms'][0]:.1f}; "
              f"overhead x{metrics['trace.overhead_ratio'][0]:.3f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
