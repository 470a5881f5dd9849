"""The README's deterministic quotes: outcomes under fixed seeds, each
checked to appear in README.md and to follow from the computation."""

import random
from pathlib import Path

from pqlab import gf2m, mceliece
from pqlab.analysis import run_attack_trials
from pqlab.ntru import NtruParams

# the README's text with its line breaks and indents folded to single spaces
_README = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text().split())


def test_attack_counts():
    # seeds 0..19 at (q, d_f) = (41, 2), as `demo attack --seeds 20` runs them
    wins = {
        n: run_attack_trials(NtruParams(n, 3, 41, 2), list(range(20))).successes
        for n in (7, 11)
    }
    quote = f"recovers {wins[7]} of 20 NTRU keys at (N, q, d_f) = (7, 41, 2) over seeds 0..19"
    assert quote in _README
    assert f"and {wins[11]} of 20 at N = 11" in _README
    assert (wins[7], wins[11]) == (18, 20)


def test_legacy_candidates_with_a_root(monkeypatch):
    # every g candidate legacy keygen draws goes through is_irreducible once;
    # a candidate has a root when its value over the whole field has a zero
    has_root = []
    irreducible = gf2m.is_irreducible

    def counted(p):
        ctx = p.ctx
        values = gf2m.sliced_eval(p, ctx.root_tables(p.degree))
        has_root.append(gf2m.sliced_zeros(values, (1 << ctx.order) - 1) != 0)
        return irreducible(p)

    monkeypatch.setattr(gf2m, "is_irreducible", counted)
    legacy = mceliece.PRESETS["legacy"]
    for seed in range(4):
        mceliece.keygen(legacy, random.Random(seed))
    assert "Legacy McEliece (1024, 524, 50) in library calls, keys of seeds 0..3" in _README
    quote = f"{sum(has_root)} of the {len(has_root)} candidates the four seeds draw have a root"
    assert quote in _README
    assert (sum(has_root), len(has_root)) == (91, 149)
