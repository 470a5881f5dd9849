"""Record the SHA-256 digests of the default seed's cycle-0 artifacts.

    python3 bench/record_digests.py

Run from the repository root.  Writes bench/digests.json, which run.py
compares against on every run with the default workload seed.  Key files,
ciphertexts and attack CSVs must stay byte-identical under fixed seeds, so
re-record only when a change is meant to alter them, and say so.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        session = workloads.Session(workloads.DEFAULT_SEED, expected=None)
        out_dir = HERE.parent / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        session.workdir = Path(tempfile.mkdtemp(prefix="digests-", dir=out_dir))
        try:
            wl.cycle(session, wl.setup(session), 0)
        finally:
            session.probe.close()
            shutil.rmtree(session.workdir, ignore_errors=True)
        if session.failed_checks:
            print(f"{name}: checks failed: {session.failed_checks}", file=sys.stderr)
            return 1
        out[name] = session.digests
        print(f"{name}: {len(session.digests)} digests")
    workloads.DIGESTS_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
