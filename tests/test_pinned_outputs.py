"""SHA-256 pins of CLI outputs under fixed seeds.

Covers the desk-scale presets, systematic keygen and toy11 byte encryption,
none of which the benchmark's digests reach, a rec443 key (power-of-two q,
so the mod-2 inversion and its Hensel lift), and a custom m=8, t=10 key
(n=256, the benchmark's mce-stream shape) so the test suite alone pins a
code of that size, and a legacy (1024, 524, 50) key.  The LLL attack report (stdout of `demo attack`) is
pinned for N = 7, 9, 11 and 12, the largest N the CLI accepts.  A
refactor must leave every key file, ciphertext and attack report here
byte-identical; re-pin only for an intended format or algorithm change.
"""

import hashlib

import pytest

from pqlab.cli import main

# name -> (keygen arguments, key file suffix)
KEYGENS = {
    "mce-toy": (["--scheme", "mceliece", "--preset", "toy", "--seed", "21"], "mc"),
    "mce-demo": (["--scheme", "mceliece", "--preset", "demo", "--seed", "22"], "mc"),
    "mce-toy-systematic": (
        ["--scheme", "mceliece", "--preset", "toy", "--systematic", "--seed", "23"],
        "mc",
    ),
    "ntru-toy11": (["--scheme", "ntru", "--preset", "toy11", "--seed", "24"], "nt"),
    "mce-m8-t10": (["--scheme", "mceliece", "--params", "8,10", "--seed", "25"], "mc"),
    "ntru-rec443": (["--scheme", "ntru", "--preset", "rec443", "--seed", "26"], "nt"),
    "mce-legacy": (["--scheme", "mceliece", "--preset", "legacy", "--seed", "1"], "mc"),
}

SIZES = (0, 1, 100)

DIGESTS = {
    "mce-toy/key.mcpub": "2b0e04a26ae3b2e774a589e1531ccacb4c64ca6474dd7739eb66296ed0d6a852",
    "mce-toy/key.mcpriv": "5cc0d6ef256beab953c3196f617b0b7de643c2f256d3b904897193d28165910e",
    "mce-toy/0.ct": "4665d9c5841d9f51be68ab30bc366a7d96c208eb7ef31e6abd7a79a9451c935d",
    "mce-toy/1.ct": "d62d71134fa5a63e812dfd0b7cfc855322dc15472abb00ea3ba25c54a67d1620",
    "mce-toy/100.ct": "c986bce2ecee61d2927069c1d10fe101173fdd94e33d754d187b491ed1c9b46b",
    "mce-demo/key.mcpub": "3161ef921204fe4f8e2e16c3d331bb1abc14558dc1a1a149693458d34260a7c0",
    "mce-demo/key.mcpriv": "d8a3da6f724de47b7f3811c33609a5e66a4f3819ca8fc7c7a1f9eaa61f6f31c1",
    "mce-demo/0.ct": "490ba455f9cf8657bef77f7b305c02276abc6fcd58ac307e83af4a43d07b070a",
    "mce-demo/1.ct": "8b489b90d9b8bbca6632770c0b34aa667c4a0bb219b00e82464884040bc53b61",
    "mce-demo/100.ct": "f4a674dd4477af262c5e61546a79d524265fa9040f6d508352093adde900f9cf",
    "mce-toy-systematic/key.mcpub": "a42b80222a830de7c73d7e94261e001d471bd3db858c79d189f9a7694b9e9301",
    "mce-toy-systematic/key.mcpriv": "77ec90f2ef2f9a34d3372ce4e2d25694c90cc936f578e253e3961ed041a9bd72",
    "mce-toy-systematic/0.ct": "a825d7a1a112c17333220b83b6e28561a7d3584ba0df7a90fcd1b0927192a9a8",
    "mce-toy-systematic/1.ct": "fb127607834f4bf3db1d87f564fb718e91f16d33929b08b25d7588d54da7f145",
    "mce-toy-systematic/100.ct": "f71390c74fd999f407ec9ac0c74535f9a80d974183f2e386e354197afc906e6e",
    "mce-m8-t10/key.mcpub": "7952961718402c1b2f5b37e3b45ddb992495a939b5d46190d4929fa17a0c9ad3",
    "mce-m8-t10/key.mcpriv": "883cb7de6f2f22bd973a03559e6f9b8e6d0c519643ee155039257819b57e7100",
    "mce-m8-t10/0.ct": "391b35ee5fd5a3aa5d9b555e67928be7ed28869b5333fd410e09578250c4cfbf",
    "mce-m8-t10/1.ct": "8074ef25cd710073ebb621caeb481a3d33c32ffc4abd9f843c2de2eb7dc5bf55",
    "mce-m8-t10/100.ct": "4569a71a13c4655c1db5837a61ecae655030a001771fda50049abe3566341ed9",
    "ntru-toy11/key.ntpub": "f10fecb935d0533e59861318acdcff8888411c46014aaab759f8fbcc5a672ff1",
    "ntru-toy11/key.ntpriv": "925f826facc9836c35eb1b0b603fb974c1d7a3015f5e1c8ee66af8b2edb2858d",
    "ntru-toy11/0.ct": "b6d35a7a181cae2720e1675a9b4fca4252da63ef8caad2465aec05a000223a12",
    "ntru-toy11/1.ct": "1cd3881b2db6da2237adae797443fd6fd8d9b1ca31d1ea7d006822e86bc119b4",
    "ntru-toy11/100.ct": "68a724b157ee7eb8a1e0dcf8f264a6946cbe22db85a00e8bcee5796f8db7a6a5",
    "ntru-rec443/key.ntpub": "92bb4490202b117cfaa4a08d2eff5b8f0fbce117caa4395b56ee07931ad26a9e",
    "ntru-rec443/key.ntpriv": "ed96757c430f2ff18785751e93f949af2c41e6d6f4e5e801de74216fa6299f6b",
    "ntru-rec443/0.ct": "0e5500b2133162902bf6f2aa8c90c5b6a94cf7c63e652fdbc60005e051ef5334",
    "ntru-rec443/1.ct": "271de56f9eb1ade9bc5da304d710980dd8c7178bb6493629c924bb5150005379",
    "ntru-rec443/100.ct": "d3848ff0cd737a7222554ecce075f9ab758e459401eb4c93781cfa7396003a76",
    "mce-legacy/key.mcpub": "2a81e79098b3b870dc46f513f4ea19033e12efb8c0bdc1f0a8add4b105bedac9",
    "mce-legacy/key.mcpriv": "dec10d9ac400dd5d5bc0855403e211a74a6046657535421bfbe6e825fec3b1a7",
    "mce-legacy/0.ct": "c711b0f25e7154bb828d97b351a6bba18567f9b61e3276dc3efbc9bd31d24cf4",
    "mce-legacy/1.ct": "188de483ba73d195731c4910876c450a3682745c33129237011fd156973dadfd",
    "mce-legacy/100.ct": "6df8fc68ebe381317140a30145d10dc1a90410a660db859cbfc49b1965d7e4fd",
}


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("PQLAB_SEED", raising=False)


def _payload(size: int) -> bytes:
    return bytes((37 * i + 11) % 256 for i in range(size))


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(KEYGENS))
def test_pinned_keys_and_ciphertexts(tmp_path, name):
    argv, ext = KEYGENS[name]
    keys = tmp_path / "keys"
    assert main(["keygen", "--out", str(keys), *argv]) == 0
    got = {}
    for kind in ("pub", "priv"):
        got[f"{name}/key.{ext}{kind}"] = _sha256(keys / f"key.{ext}{kind}")
    for size in SIZES:
        plain = tmp_path / f"{size}.bin"
        plain.write_bytes(_payload(size))
        ct = tmp_path / f"{size}.ct"
        assert main([
            "encrypt", "--pub", str(keys / f"key.{ext}pub"),
            "--in", str(plain), "--out", str(ct), "--seed", str(size + 1),
        ]) == 0
        got[f"{name}/{size}.ct"] = _sha256(ct)
    assert got == {k: v for k, v in DIGESTS.items() if k.startswith(name + "/")}


# N -> stdout of `demo attack --scheme ntru --n N --q 41 --seeds 10`
ATTACK_DIGESTS = {
    7: "f97d5714594f0db11f55328e294691e8247d49ebb0a2d4522b38fd64f6e645ab",
    9: "f03fd0ed349dca2ddf1f8355ee6e3f682ea21a19c4cc9d6bd9d47c4f26d7c5b3",
    11: "1b572e3070060e50b296fcc58277922f185405640295bb9b3079c8fab999f91e",
    12: "ef206c60035fa113bca03930fff094cbcb9851d012e238cbfd99a27b3dfd1c3c",
}


@pytest.mark.parametrize("n", sorted(ATTACK_DIGESTS))
def test_pinned_attack_report(capsys, n):
    assert main([
        "demo", "attack", "--scheme", "ntru",
        "--n", str(n), "--q", "41", "--seeds", "10",
    ]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ATTACK_DIGESTS[n]
