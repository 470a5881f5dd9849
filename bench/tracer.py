"""Span tracer for the benchmark's traced run.

The tracer wraps pqlab's public layer functions from outside the package: it
rebinds every pqlab module attribute that holds a listed function (so names
imported with ``from ... import`` are caught too) and every listed method on
its class.  Each call records a span (name, start, end, parent, operation
id) in memory; ``uninstall`` puts every original back.  Per-element helpers
such as ``FieldCtx.mul`` and ``convring.center`` are deliberately left
alone: wrapping them would cost more than the work they do.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

from pqlab.errors import DecodingFailure


def _ok(result) -> str:
    return "ok"


def _accept_if_true(result) -> str:
    return "accept" if result else "reject"


def _attack_outcome(report) -> str:
    return "success" if report.successes else "miss"


# (reported name, module, attribute path, classifier for a normal return).
# A raised exception is always recorded under its class name.
TARGETS = [
    ("gf2m.random_irreducible", "pqlab.gf2m", "random_irreducible", _ok),
    ("gf2m.is_irreducible", "pqlab.gf2m", "is_irreducible", _accept_if_true),
    ("gf2m.sqrt_mod_g", "pqlab.gf2m", "sqrt_mod_g", _ok),
    ("gf2m.poly_inv_mod", "pqlab.gf2m", "poly_inv_mod", _ok),
    ("gf2m.poly_eea_partial", "pqlab.gf2m", "poly_eea_partial", _ok),
    ("goppa.build_parity_check", "pqlab.goppa", "build_parity_check", _ok),
    ("goppa.patterson_decode", "pqlab.goppa", "patterson_decode", _ok),
    ("goppa.GoppaCode.syndrome", "pqlab.goppa", "GoppaCode.syndrome", _ok),
    ("goppa.GoppaCode.message_of", "pqlab.goppa", "GoppaCode.message_of", _ok),
    ("f2linalg.invert", "pqlab.f2linalg", "invert", _ok),
    ("f2linalg.null_space", "pqlab.f2linalg", "null_space", _ok),
    ("f2linalg.RowSolver", "pqlab.f2linalg", "RowSolver.__init__", _ok),
    ("f2linalg.random_invertible", "pqlab.f2linalg", "random_invertible", _ok),
    ("f2linalg.mat_mul", "pqlab.f2linalg", "mat_mul", _ok),
    ("f2linalg.vec_mat_mul", "pqlab.f2linalg", "vec_mat_mul", _ok),
    ("f2linalg.PermMatrix.apply_mat", "pqlab.f2linalg", "PermMatrix.apply_mat", _ok),
    ("mceliece.keygen", "pqlab.mceliece", "keygen", _ok),
    ("mceliece.encrypt", "pqlab.mceliece", "encrypt", _ok),
    ("mceliece.decrypt", "pqlab.mceliece", "decrypt", _ok),
    ("mceliece.encrypt_long", "pqlab.mceliece", "encrypt_long", _ok),
    ("mceliece.decrypt_long", "pqlab.mceliece", "decrypt_long", _ok),
    ("convring.invert_mod", "pqlab.convring", "invert_mod", _ok),
    ("convring.invert_mod_prime", "pqlab.convring", "invert_mod_prime", _ok),
    ("convring.conv_mul", "pqlab.convring", "conv_mul", _ok),
    ("convring.sample_ternary", "pqlab.convring", "sample_ternary", _ok),
    ("convring.center_mod", "pqlab.convring", "center_mod", _ok),
    ("ntru.keygen", "pqlab.ntru", "keygen", _ok),
    ("ntru.encrypt", "pqlab.ntru", "encrypt", _ok),
    ("ntru.decrypt", "pqlab.ntru", "decrypt", _ok),
    ("ntru.encrypt_bytes", "pqlab.ntru", "encrypt_bytes", _ok),
    ("ntru.decrypt_bytes", "pqlab.ntru", "decrypt_bytes", _ok),
    ("lattice.build_public_basis", "pqlab.lattice", "build_public_basis", _ok),
    ("lattice.lll_reduce", "pqlab.lattice", "lll_reduce", _ok),
    ("lattice.ConvModLattice.contains", "pqlab.lattice", "ConvModLattice.contains", _ok),
    ("analysis.run_attack_trials", "pqlab.analysis", "run_attack_trials", _ok),
    ("analysis.ntru_lll_attack", "pqlab.analysis", "ntru_lll_attack", _attack_outcome),
    ("analysis.min_weight_bruteforce", "pqlab.analysis", "min_weight_bruteforce", _ok),
    ("analysis.weight_spectrum", "pqlab.analysis", "weight_spectrum", _ok),
    ("analysis.nearest_codeword_bruteforce", "pqlab.analysis",
     "nearest_codeword_bruteforce", _ok),
    ("formats.parse_file", "pqlab.formats", "parse_file", _ok),
] + [
    ("formats.serialize", "pqlab.formats", attr, _ok)
    for attr in (
        "serialize_mceliece_public",
        "serialize_mceliece_private",
        "serialize_ntru_public",
        "serialize_ntru_private",
        "serialize_ciphertext_mceliece",
        "serialize_ciphertext_ntru",
    )
]

LAYER_NAMES = list(dict.fromkeys(name for name, *_ in TARGETS))

# outcome ratios: metric name -> (layer name, outcome label counted as the
# numerator); the base is every recorded call of that layer.  A rejected f
# draw leaves invert_mod as NotInvertible, so "ok" is an accepted draw.
RATIOS = {
    "gf2m.is_irreducible.accept_ratio": ("gf2m.is_irreducible", "accept"),
    "convring.invert_mod.accept_ratio": ("convring.invert_mod", "ok"),
    "goppa.patterson_decode.fail_ratio": (
        "goppa.patterson_decode", DecodingFailure.__name__),
    "mceliece.decrypt.fail_ratio": ("mceliece.decrypt", DecodingFailure.__name__),
    "analysis.ntru_lll_attack.success_ratio": ("analysis.ntru_lll_attack", "success"),
}

_MARK = "__bench_original__"


def _resolve(module: str, path: str):
    """(owner object, attribute name) for a dotted attribute path."""
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def pqlab_modules() -> list:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "pqlab" or name.startswith("pqlab."))
    ]


def installed_wrappers() -> list[str]:
    """Every pqlab module or class attribute that currently holds a wrapper."""
    found = []
    for mod in pqlab_modules():
        for attr, val in vars(mod).items():
            if hasattr(val, _MARK):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(val, type) and val.__module__ == mod.__name__:
                found.extend(
                    f"{mod.__name__}.{attr}.{name}"
                    for name, meth in vars(val).items() if hasattr(meth, _MARK)
                )
    return found


class Tracer:
    """Holds the spans and outcome counts of one traced run."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, operation id]
        self.spans: list[list] = []
        self.outcomes: dict[str, Counter] = {name: Counter() for name in LAYER_NAMES}
        self._stack: list[int] = []
        self._op_id = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- operations (root spans opened by the benchmark around each call) --

    @contextmanager
    def op(self, kind: str):
        self._op_id += 1
        with self._span(f"op.{kind}"):
            yield

    @contextmanager
    def _span(self, name: str):
        spans, stack = self.spans, self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op_id]
        stack.append(len(spans))
        spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    # -- wrappers --

    def _wrap(self, name: str, fn, classify):
        counts = self.outcomes[name]
        span = self._span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                with span(name):
                    result = fn(*args, **kwargs)
            except Exception as exc:
                counts[type(exc).__name__] += 1
                raise
            counts[classify(result)] += 1
            return result

        setattr(traced, _MARK, fn)
        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original) -> (original, wrapper)
        for name, module, path, classify in TARGETS:
            owner, attr = _resolve(module, path)
            fn = vars(owner)[attr]
            if isinstance(owner, type):
                wrapper = self._wrap(name, fn, classify)
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, fn))
            else:
                wrappers[id(fn)] = (fn, self._wrap(name, fn, classify))
        for mod in pqlab_modules():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, val))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out
