"""Golden stdout: the SHA-256 of what each command prints, and its exit code, pinned per argv.

All of them run in one fresh interpreter per hash seed, so the digests
also show that stdout does not depend on PYTHONHASHSEED.  The spec files are
written from literal JSON, so no input depends on the code under test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncsolenoid

SRC = str(Path(ncsolenoid.__file__).resolve().parents[1])
THETA = "--theta=-1+sqrt(2)"

# the pinned certify pairs of tests/test_morita.py, as their spec files read
SPECS = {
    "first": {"p": 2, "theta": "(-1 + 1*sqrt(2))/1", "digits": {"p": 2, "ord": 0, "preperiod": [1], "period": [0]}},
    "first-partner": {"p": 2, "theta": "(1 + 1*sqrt(2))/1", "digits": {"p": 2, "ord": 0, "preperiod": [1], "period": [0]}},
    "a": {"p": 3, "theta": "(1 + 1*sqrt(5))/4", "digits": {"p": 3, "ord": 0, "preperiod": [1], "period": [1, 2, 1, 0]}},
    "planted": {
        "p": 3, "theta": "(1555 + 27*sqrt(5))/5937", "digit_horizon": 16,
        "digits": {"p": 3, "ord": 0, "preperiod": [2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2], "period": [0]},
    },
    "wide-planted": {
        "p": 3, "theta": "(1319390 + 81*sqrt(5))/1519055", "digit_horizon": 16,
        "digits": {"p": 3, "ord": 1, "preperiod": [2, 2, 2, 1, 1, 0, 1, 0, 2, 0, 0, 0, 1, 1, 2], "period": [0]},
    },
    "other-field": {"p": 2, "theta": "(-1 + 1*sqrt(3))/1", "digits": {"p": 2, "ord": 0, "preperiod": [1], "period": [0]}},
    "short-horizon": {
        "p": 3, "theta": "(1555 + 27*sqrt(5))/5937", "digit_horizon": 6,
        "digits": {"p": 3, "ord": 0, "preperiod": [2, 0, 2, 0, 2], "period": [0]},
    },
    "other-discriminant": {"p": 2, "theta": "(1 + 1*sqrt(2))/3", "digits": {"p": 2, "ord": 0, "preperiod": [1], "period": [0]}},
    "same-field": {"p": 2, "theta": "(4 - 1*sqrt(2))/2", "digits": {"p": 2, "ord": 0, "preperiod": [1], "period": [0]}},
    "theta-a": {"p": 3, "theta": "(1 + 1*sqrt(2))/3", "digits": {"p": 3, "ord": 0, "preperiod": [1, 0], "period": [1, 2]}},
    "theta-b": {"p": 3, "theta": "(1 + 1*sqrt(2))/3", "digits": {"p": 3, "ord": 0, "preperiod": [2], "period": [2, 2, 1]}},
    "window": {"p": 2, "theta": "(-1 + 1*sqrt(2))/1", "digits": {"p": 2, "ord": 0, "preperiod": [1], "period": [1, 1, 0, 0]}},
    "tower": {"p": 2, "theta": "(2 - 1*sqrt(2))/1", "digits": {"p": 2, "ord": 1, "preperiod": [1, 1, 0], "period": [0, 1]}},
    "past-window": {
        "p": 2, "theta": "(2 - 1*sqrt(2))/1",
        "digits": {"p": 2, "ord": 1, "preperiod": [1, 1, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 1], "period": [1, 0]},
    },
}
PAIRS = [
    ("first", "first-partner"), ("a", "planted"), ("a", "wide-planted"), ("first", "other-field"), ("a", "short-horizon"),
    ("first", "other-discriminant"), ("first", "same-field"), ("theta-a", "theta-b"), ("first-partner", "first"),
    ("window", "tower"), ("window", "past-window"),
]
SPEC = ["--p", "2", THETA, "--digits", "x=1"]

ARGVS = [
    ["suite", "--seed", "0"],
    ["suite", "--seed", "3"],
    *(["bimodule", "verify", "--p", p, THETA, "--digits", "x=1", "--c0", "1", "--d0", "0"] for p in ("2", "7")),
    # the levels the bimodule-levels benchmark runs, where each draw's actions are shared
    *(["bimodule", "verify", "--p", p, THETA, "--digits", "x=1", "--c0", "1", "--d0", "0", "--n", n]
      for p, n in (("3", "1"), ("2", "2"))),
    *(["morita", "certify", "--spec-a", "{%s}" % a, "--spec-b", "{%s}" % b] for a, b in PAIRS),
    ["padic", "inv", "--p", "5", "--value", "7"],
    ["padic", "inv", "--p", "7", "--value=-22/49"],
    ["padic", "inv", "--p", "3", "--value", "1e6"],
    ["padic", "inv", "--p", "3", "--value", "1000/123456789"],
    ["padic", "inv", "--p", "3", "--value=-1000/123456789"],
    ["padic", "inv", "--p", "2", "--value=-3/1024"],
    ["padic", "inv", "--p", "2", "--value", "1/12345"],
    ["padic", "frac", "--p", "3", "--value", "7/9"],
    ["padic", "frac", "--p", "2", "--value=-5/24"],
    ["padic", "trunc", "--p", "2", "--value", "0", "--k", "3"],
    ["padic", "trunc", "--p", "5", "--value", "3/25", "--k", "8"],
    ["padic", "trunc", "--p", "3", "--value=-11/7", "--k", "40"],
    ["solenoid", "alpha", *SPEC, "--n", "3"],
    ["solenoid", "alpha", "--spec", "{a}", "--n", "5"],
    ["solenoid", "alpha", "--spec", "{past-window}", "--n", "4"],
    # the printed windows, and a projection that fails the Condition
    ["morita", "heisenberg", *SPEC],
    ["morita", "heisenberg", "--spec", "{a}", "--entries", "4"],
    ["morita", "projection", *SPEC, "--c0", "1", "--d0", "0"],
    ["morita", "projection", *SPEC, "--c0", "2", "--d0", "0"],
    ["morita", "projection", "--spec", "{a}", "--c0", "1", "--d0", "0", "--entries", "4"],
    ["solenoid", "check-coherence", "--spec", "{a}"],
    ["solenoid", "from-even", "--spec", "{a}"],
    ["multiplier", "check-cocycle"],
    ["multiplier", "check-annihilator", *SPEC],
    ["multiplier", "check-eta-psi", *SPEC],
    ["check", "condition", "--p", "4", "--c0", "1", "--d0", "0", "--x0", "1"],
]

# argv, with spec names for the spec files -> [exit code, SHA-256 of stdout]
GOLDEN = {
    "suite --seed 0":
        [0, "5c137de13dab9d311d3ff330522222c4346a8aa9f5678c57290258e6a3e358af"],
    "suite --seed 3":
        [0, "37fdbc900997271f2e860294ba4de7981bb47e96f0374ecb90f32888e080da52"],
    "bimodule verify --p 2 --theta=-1+sqrt(2) --digits x=1 --c0 1 --d0 0":
        [0, "e2664a9b00f3c465993dfdc4d10e6798f76203aafe34ace2c947f25f783f146e"],
    "bimodule verify --p 7 --theta=-1+sqrt(2) --digits x=1 --c0 1 --d0 0":
        [0, "e52b1253799ca097205c7cf618ba7bb4fc09ec058bab209711f5791c7c474c71"],
    "bimodule verify --p 3 --theta=-1+sqrt(2) --digits x=1 --c0 1 --d0 0 --n 1":
        [0, "97c78d689c78eefb0ee6472c814e95c23117a67a9addcf58b27877d4b9f12dd5"],
    "bimodule verify --p 2 --theta=-1+sqrt(2) --digits x=1 --c0 1 --d0 0 --n 2":
        [0, "ac9488af85e4313e7e499e2523eb72728ba29fc8e5cbe7147ec7a1709c5a121a"],
    "morita certify --spec-a {first} --spec-b {first-partner}":
        [0, "95b1ee4a05d481dcf2048c592263ecfcfd8cbc458113c8c797011deb5e782071"],
    "morita certify --spec-a {a} --spec-b {planted}":
        [0, "07cfb30245a6117f0ebb4cdbaf65cf6b6b8457a9398bcb007b89ce7fe88c58a6"],
    "morita certify --spec-a {a} --spec-b {wide-planted}":
        [0, "1230f01196e3cf003687740b14c186cb940e1a26c2e154607ec8ffcc8a5772fe"],
    "morita certify --spec-a {first} --spec-b {other-field}":
        [0, "ed921a497a28888a6abe9a27b70091065573eced8589e6a5a74ac4880fca744c"],
    "morita certify --spec-a {a} --spec-b {short-horizon}":
        [1, "e414422a950d69b3d44adb6f3f13c81e97a1022bc973e947a84db86be431deb6"],
    "morita certify --spec-a {first} --spec-b {other-discriminant}":
        [0, "79f1ec71334a3eae703a23234d9b5c81831805c8cb0d2a24c12db0b48cb9f257"],
    "morita certify --spec-a {first} --spec-b {same-field}":
        [1, "e414422a950d69b3d44adb6f3f13c81e97a1022bc973e947a84db86be431deb6"],
    "morita certify --spec-a {theta-a} --spec-b {theta-b}":
        [1, "e414422a950d69b3d44adb6f3f13c81e97a1022bc973e947a84db86be431deb6"],
    "morita certify --spec-a {first-partner} --spec-b {first}":
        [0, "ee8c1812eeebd7ca879e3c8b0feb758bfdc3de9d6b819ad1751595faf5af4f6d"],
    "morita certify --spec-a {window} --spec-b {tower}":
        [0, "c1f34d9b915f6fb598f05d09c0eeb6f176dae6e1df6089d2bec1a9a0f12a7e86"],
    "morita certify --spec-a {window} --spec-b {past-window}":
        [1, "e414422a950d69b3d44adb6f3f13c81e97a1022bc973e947a84db86be431deb6"],
    "padic inv --p 5 --value 7":
        [0, "c295ae4fda057d25cbeb99a3d2f9843b16aacd26ec8642d059c88e3ccc898d23"],
    "padic inv --p 7 --value=-22/49":
        [0, "234ace1a973eab4eb732d4fa08d9d366559a2c2109e371245b929ccb82fd54b8"],
    "padic inv --p 3 --value 1e6":
        [0, "6be6e0311da154905bc54ca3fe499379b87d5864f460b003844134e5d007a600"],
    "padic inv --p 3 --value 1000/123456789":
        [0, "72ca4c0f2f76621989c87395f6a54e4c77019085054017695927b6fb028da707"],
    "padic inv --p 3 --value=-1000/123456789":
        [0, "70b5c647a081c6bc921a45949138f21b2d7c178e4c6f46b582f4c32dbf32356e"],
    "padic inv --p 2 --value=-3/1024":
        [0, "fccf6447c3d1e230aaa5b8e311cecff5ef16fcdcb52399aa8ae42a2c8a36b52b"],
    "padic inv --p 2 --value 1/12345":
        [0, "3ab6477bc7af9e69449c8037142b2c3f0d1c1e4019d6596d3d3d25e2be02bf94"],
    "padic frac --p 3 --value 7/9":
        [0, "10a47441be1536f6e9eafd8a9a36cd41ebbff0a5f2d9011ef79eb2e291521ccf"],
    "padic frac --p 2 --value=-5/24":
        [0, "33d671615830419b2f1294ec720ae660469f1162d6b4913c505aaf3357379c59"],
    "padic trunc --p 2 --value 0 --k 3":
        [0, "97521ddb14603099efbbf390912ca2774a4399853f7c4823a13fb7786ffcc426"],
    "padic trunc --p 5 --value 3/25 --k 8":
        [0, "8bf64315480a4a865ff8e230a867535ede2645048eeb4d823cbe339cebc8fba7"],
    "padic trunc --p 3 --value=-11/7 --k 40":
        [0, "77b01a69e7594407cb287f68a587d57621ad16ae77e09f3cd30ffc018883fce4"],
    "solenoid alpha --p 2 --theta=-1+sqrt(2) --digits x=1 --n 3":
        [0, "4f372450c86b7f47acd7fe9edeb0c39cacc83aa3196080f0a0628ac8c153a3e8"],
    "solenoid alpha --spec {a} --n 5":
        [0, "2f0fc8062ef5d5dc3b1853d74b762de51b4cf8647d15871be8c4f4aabb071356"],
    "solenoid alpha --spec {past-window} --n 4":
        [0, "1aa7b46ad79d8b89bf4edecd9702b55e0b933241ae1520b84b6d08fd63c29f50"],
    "morita heisenberg --p 2 --theta=-1+sqrt(2) --digits x=1":
        [0, "c14a530c65d9c3be2c89bff56bc43fd2970e4e7a9f945fa16c4e53c092e742e5"],
    "morita heisenberg --spec {a} --entries 4":
        [0, "ee5a80e580a3d2295f5b899c2722faba8f0059bee92e0dfd6ca88ee668b3589e"],
    "morita projection --p 2 --theta=-1+sqrt(2) --digits x=1 --c0 1 --d0 0":
        [0, "de823d44c092dfc47dd3a4209385e2349aa4cfede1575ed013d3aeb417b157a7"],
    "morita projection --p 2 --theta=-1+sqrt(2) --digits x=1 --c0 2 --d0 0":
        [1, "e9699ea59b7d3b0e80d8f8ced3add665960a8d3e7a6a8ea6cbed120a6bfb19c4"],
    "morita projection --spec {a} --c0 1 --d0 0 --entries 4":
        [0, "0c1f6114818ce59930543f8c8f87240247cb453e811ec79072b9511396cb8943"],
    "solenoid check-coherence --spec {a}":
        [0, "10d4dba389b462065291bd114ef0c018fec5f041dfa815da3f9b865439d1c092"],
    "solenoid from-even --spec {a}":
        [0, "ec8d85f4e48019b274f66f4e9af5b11337a46ff2f5780a02adad76180aaa7cf0"],
    "multiplier check-cocycle":
        [0, "0b39f6442715f5f12315a5ee7c2a8cdb9e62f07a3bbb14f564fe68c0a16b5cf2"],
    "multiplier check-annihilator --p 2 --theta=-1+sqrt(2) --digits x=1":
        [0, "fd1d8e5b82f4597c494abb35416a61b4f3117712c6e662fc3ee52a595701ddfa"],
    "multiplier check-eta-psi --p 2 --theta=-1+sqrt(2) --digits x=1":
        [0, "7070ac021072ee47663fd186fb835d6cd9b099bf9ce43c695bd31fd86145ac19"],
    "check condition --p 4 --c0 1 --d0 0 --x0 1":
        [2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
}




# one interpreter: each argv through cli.main, stdout captured; prints {argv: [code, sha256]} as JSON
DRIVER = """
import contextlib, hashlib, io, json, sys
from ncsolenoid.cli import main
out = {}
for key, argv in json.load(sys.stdin):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out[key] = [code, hashlib.sha256(buf.getvalue().encode()).hexdigest()]
print(json.dumps(out))
"""


def golden_digests(tmp_path, hash_seed: str) -> dict:
    paths = {}
    for name, spec in SPECS.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(spec))
    # the key is the argv with spec names, not the temporary paths
    jobs = [(" ".join(argv), [paths[a[1:-1]] if a.startswith("{") else a for a in argv])
            for argv in ARGVS]
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, "-c", DRIVER], input=json.dumps(jobs), env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_stdout_and_exit_codes_match_the_golden_digests(tmp_path, hash_seed):
    assert golden_digests(tmp_path, hash_seed) == GOLDEN
