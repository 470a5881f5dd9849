"""The four pqlab benchmark workloads and the session that times them.

Every workload is a closed loop with one caller: a cycle issues its
operations one after another, each waiting for the previous one.  User
operations go through ``pqlab.cli.main(argv)`` in-process with stdout and
stderr captured, so the real path (formats, file I/O, key load) is timed
without the interpreter start of a fresh process per call.  The exhaustive
oracles, which have no CLI, are called in ``pqlab.analysis`` directly.

A workload draws all of its inputs from its workload seed during set-up
(POOL cycles' worth); the program only ever sees the derived argv seeds and
the generated files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

from pqlab import analysis, cli, f2linalg, gf2m, goppa
from speed import SpeedProbe

DEFAULT_SEED = 0
# distinct cycle inputs made at set-up; later cycles reuse them in order
POOL = 64
DIGESTS_FILE = Path(__file__).with_name("digests.json")


@dataclass
class Op:
    """One timed operation: a CLI call or a library oracle call."""

    cycle: int
    kind: str
    traced: bool
    seconds: float = 0.0
    ref: float = 0.0  # mean reference-kernel seconds over the op (see speed.py)
    ok: bool = True
    result: object = None
    stdout: str = ""


class Session:
    """Runs the operations of one workload process and checks their outputs.

    ``expected`` holds the stored SHA-256 digests of the default seed's
    cycle-0 artifacts, or None for any other seed.  With a tracer, operations
    issued while ``traced`` is set are wrapped in a root span.
    """

    def __init__(self, seed: int, expected: dict | None, tracer=None, probe=None):
        self.seed = seed
        self.expected = expected
        self.tracer = tracer
        self.workdir = Path(".")
        self.traced = False
        self.cycle = 0
        self.ops: list[Op] = []
        self.failed_checks: list[str] = []
        self.digests: dict[str, str] = {}
        self.attack_tally = [0, 0]  # keys recovered, trials
        self.probe = probe or SpeedProbe()

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def call(self, kind: str, fn, *args) -> Op:
        op = Op(self.cycle, kind, self.traced)
        span = self.tracer.op(kind) if self.traced else contextlib.nullcontext()

        def guarded():
            try:
                with span:
                    return fn(*args), None
            except Exception as exc:
                return None, exc

        # no samples inside traced operations: they would land in the spans
        (op.result, exc), op.seconds, op.ref = self.probe.measure(
            guarded, sample_during=not self.traced)
        if exc is not None:
            traceback.print_exception(exc, file=sys.stderr)
            self.check(op, f"{kind}.raised {type(exc).__name__}: {exc}", False)
        self.ops.append(op)
        return op

    def cli(self, kind: str, *argv) -> Op:
        out, err = io.StringIO(), io.StringIO()

        def run():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return cli.main([str(a) for a in argv])

        op = self.call(kind, run)
        op.stdout = out.getvalue()
        if op.ok:
            self.check(op, f"{kind}.exit_code_{op.result}", op.result == 0)
        return op

    def setup_cli(self, *argv) -> None:
        """An untimed CLI call whose failure stops the run."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main([str(a) for a in argv])
        if rc != 0:
            raise RuntimeError(f"set-up call {argv} exited {rc}: {err.getvalue()}")

    def check(self, op: Op, name: str, ok: bool) -> bool:
        if not ok:
            op.ok = False
            self.failed_checks.append(name)
            print(f"check failed: {name} (cycle {op.cycle}, {op.kind})", file=sys.stderr)
        return ok

    def digest(self, op: Op, label: str, data: bytes | None) -> None:
        """Record cycle 0's artifact digest and compare it with the stored one."""
        if self.cycle != 0:
            return
        value = None if data is None else hashlib.sha256(data).hexdigest()
        self.digests[label] = value
        if self.expected is not None:
            self.check(op, f"digest.{label}", value == self.expected.get(label))

    def digest_file(self, op: Op, label: str, path: str) -> None:
        self.digest(op, label, read_bytes(path))


def read_bytes(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def _roundtrip(s: Session, pub: str, priv: str, plain: str, enc_seed: int, tag: str,
               label: str = ""):
    """CLI encrypt then decrypt of one file, checked against the plaintext."""
    ct, back = s.path(f"{tag}.ct"), s.path(f"{tag}.out")
    en = s.cli("encrypt", "encrypt", "--pub", pub, "--in", plain, "--out", ct,
               "--seed", enc_seed)
    s.digest_file(en, f"{label}ciphertext", ct)
    de = s.cli("decrypt", "decrypt", "--priv", priv, "--in", ct, "--out", back)
    expected = read_bytes(plain)
    s.check(de, "decrypt.matches_plaintext",
            expected is not None and read_bytes(back) == expected)
    return en


class _KeySessions:
    """Each cycle runs `sessions` key sessions: keygen, encrypt, decrypt."""

    kinds = ("keygen", "encrypt", "decrypt")
    scheme = preset = ext = ""
    plain_bytes = 0
    sessions = 1
    # True: the key seeds of every cycle are 0..sessions-1, in an order set
    # by the workload seed; False: every session draws a fresh key seed
    fixed_keys = False

    def setup(self, s: Session):
        rng = random.Random(f"{self.name}:{s.seed}")
        pool = []
        for j in range(POOL):
            plain = s.path(f"plain{j}.bin")
            with open(plain, "wb") as fh:
                fh.write(rng.randbytes(self.plain_bytes))
            pool.append((rng.getrandbits(32), rng.getrandbits(32), plain))
        return pool

    def cycle(self, s: Session, pool, i: int) -> None:
        for k in range(self.sessions):
            j = (i * self.sessions + k) % POOL
            key_seed, enc_seed, plain = pool[j]
            if self.fixed_keys:
                key_seed = (s.seed + k) % self.sessions
            keys = s.path(f"keys{j}")
            kg = s.cli("keygen", "keygen", "--scheme", self.scheme, "--preset", self.preset,
                       "--seed", key_seed, "--out", keys)
            pub, priv = f"{keys}/key.{self.ext}pub", f"{keys}/key.{self.ext}priv"
            s.digest_file(kg, f"{k}.key.{self.ext}pub", pub)
            s.digest_file(kg, f"{k}.key.{self.ext}priv", priv)
            _roundtrip(s, pub, priv, plain, enc_seed, f"c{j}", f"{k}.")


class McElieceLegacySession(_KeySessions):
    name = "mce-legacy-session"
    why = ("four legacy (1024,524,50) keys per cycle, one block each, so per-key "
           "work dominates: keygen and the Goppa rebuild in the private-key load")
    scheme, preset, ext = "mceliece", "legacy", "mc"
    plain_bytes = 64  # 513 padded bits: one k=524 block
    # The search for an irreducible g makes legacy keygen take 0.2 s to 1.5 s
    # depending on the key seed.  A run has room for only about ten keys, so
    # a cycle visits the same four keys every time, and every cycle does the
    # same work.  Plaintexts and encryption seeds come from the workload seed.
    sessions = 4
    fixed_keys = True


class NtruRec443(_KeySessions):
    name = "ntru-rec443"
    why = ("rec443 keygen per cycle plus 16 KiB files (189 blocks): the convring "
           "layer and the NTRU byte packer; no McEliece layer runs")
    scheme, preset, ext = "ntru", "rec443", "nt"
    plain_bytes = 16 * 1024


class McElieceStream:
    name = "mce-stream"
    why = ("one m=8, t=10 key made at set-up, then 1 KiB files of 47 blocks: "
           "per-block decode work dominates and per-key caches amortise")
    kinds = ("encrypt", "decrypt")

    def setup(self, s: Session):
        rng = random.Random(f"{self.name}:{s.seed}")
        keys = s.path("keys")
        s.setup_cli("keygen", "--scheme", "mceliece", "--params", "8,10",
                    "--seed", rng.getrandbits(32), "--out", keys)
        pool = []
        for j in range(POOL):
            plain = s.path(f"plain{j}.bin")
            with open(plain, "wb") as fh:
                fh.write(rng.randbytes(1024))
            pool.append((rng.getrandbits(32), plain))
        return keys, pool

    def cycle(self, s: Session, state, i: int) -> None:
        keys, pool = state
        enc_seed, plain = pool[i % POOL]
        pub, priv = f"{keys}/key.mcpub", f"{keys}/key.mcpriv"
        en = _roundtrip(s, pub, priv, plain, enc_seed, f"c{i % POOL}")
        s.digest_file(en, "key.mcpub", pub)
        s.digest_file(en, "key.mcpriv", priv)


class DeskAnalysis:
    name = "desk-analysis"
    why = ("CLI LLL attack sweep over N=7,9,11 plus the three exhaustive oracles "
           "on a seeded toy Goppa code: the only lattice and analysis workload")
    kinds = ("attack", "oracle")
    attack_n = (7, 9, 11)
    attack_q = 41
    # the CLI draws its trial keys from seeds 0..trials-1, so the attack part
    # is the same for every workload seed
    attack_trials = 10
    code_m, code_t, code_n = 6, 3, 38  # k = n - m*t = 20 message bits

    def setup(self, s: Session):
        rng = random.Random(f"{self.name}:{s.seed}")
        ctx = gf2m.FieldCtx(self.code_m)
        g = gf2m.random_irreducible(ctx, self.code_t, rng)
        code = goppa.GoppaCode(ctx, g, sorted(rng.sample(range(ctx.order), self.code_n)))
        targets = []
        for _ in range(POOL):
            word = code.encode(f2linalg.BinVector(code.k, rng.getrandbits(code.k)))
            error = f2linalg.random_weight_vector(code.n, rng.randint(0, code.t), rng)
            targets.append((word, word + error))
        return code, targets

    def cycle(self, s: Session, state, i: int) -> None:
        code, targets = state
        k = self.attack_trials
        for n in self.attack_n:
            op = s.cli("attack", "demo", "attack", "--scheme", "ntru", "--n", n,
                       "--q", self.attack_q, "--seeds", k)
            s.digest(op, f"attack_n{n}.csv", op.stdout.encode())
            lines = op.stdout.splitlines()
            rows = [line.split(",") for line in lines[1:-1]]
            wins = sum(int(row[2]) for row in rows if len(row) == 4)
            s.check(op, f"attack_n{n}.csv_shape", len(rows) == k and all(
                len(row) == 4 for row in rows))
            s.check(op, f"attack_n{n}.summary_matches_csv",
                    bool(lines) and lines[-1].startswith(f"ntru-lll: {wins}/{k} "))
            s.attack_tally[0] += wins
            s.attack_tally[1] += k

        g = code.generator
        word, target = targets[i % POOL]
        mw = s.call("oracle", analysis.min_weight_bruteforce, g)
        sp = s.call("oracle", analysis.weight_spectrum, g)
        nc = s.call("oracle", analysis.nearest_codeword_bruteforce, g, target)
        if sp.ok:
            s.check(sp, "oracle.spectrum_sums_to_2^k", sum(sp.result.values()) == 1 << code.k)
        if mw.ok and sp.ok:
            d, witness = mw.result
            smallest = min((w for w in sp.result if w > 0), default=None)
            s.check(mw, "oracle.min_weight_is_smallest_spectrum_weight", d == smallest)
            s.check(mw, "oracle.min_weight_at_least_2t+1", d >= 2 * code.t + 1)
            s.check(mw, "oracle.min_weight_witness_is_codeword",
                    witness.weight() == d and code.is_codeword(witness))
        if nc.ok:
            s.check(nc, "oracle.nearest_is_the_sent_codeword", nc.result == word)


WORKLOADS = {w.name: w for w in (
    McElieceLegacySession(), McElieceStream(), NtruRec443(), DeskAnalysis())}
