"""End-to-end command tests: argument surface, JSON shapes, exit codes,
and byte-level reproducibility."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest

import ncsolenoid
from ncsolenoid import cli, exactnum, morita, padic
from ncsolenoid.cli import COMMANDS, MAX_COUNT, MAX_HATS, MAX_LEVEL, MAX_P_HATS, MAX_TRUNC_K, build_parser, main
from ncsolenoid.exactnum import MAX_LITERAL_DIGITS, MR_LIMIT, QuadReal
from ncsolenoid.morita import ProjectionData, heisenberg_partner, heisenberg_partner_spec, projection_partner
from ncsolenoid.padic import MAX_ORD_BITS, PAdic
from ncsolenoid.solenoid import SolenoidSpec, from_even_entries, truncate_spec

SRC = str(Path(ncsolenoid.__file__).resolve().parents[1])
SPEC_FLAGS = ["--p", "2", "--theta", "(-1 + 1*sqrt(2))/1", "--digits", "x=1"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


def test_check_condition_pass(capsys):
    code, rep = run_json(capsys, ["check", "condition", "--p", "2", "--c0", "1", "--d0", "0", "--x0", "1"])
    assert code == 0
    assert rep["pass"] is True and rep["gcd"] == "1"


def test_check_condition_fail_exit_one(capsys):
    code, rep = run_json(capsys, ["check", "condition", "--p", "2", "--c0", "2", "--d0", "2", "--x0", "1"])
    assert code == 1
    assert rep["pass"] is False and rep["gcd"] == "4"


def test_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == 2
    # the full parser sets no metavar, which would rename the argument here
    assert "error: argument command: invalid choice: 'definitely-not-a-command'" in capsys.readouterr().err


def test_missing_required_flag_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["check", "condition", "--p", "2", "--c0", "1", "--d0", "0"])
    assert exc.value.code == 2


def test_bad_theta_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["solenoid", "alpha", "--p", "2", "--theta", "one plus root two", "--digits", "x=1", "--n", "0"])
    assert exc.value.code == 2


# surds written in an order QuadReal.parse does not read: "1+sqrt(2)/3" is not (1+sqrt(2))/3
UNREAD_SURDS = ("sqrt(2)-1", "2*sqrt(2)+1", "1+sqrt(2)/3")


@pytest.mark.parametrize(
    "argv",
    [
        ["solenoid", "alpha", *SPEC_FLAGS, "--n", "-3"],
        ["morita", "heisenberg", "--p", "2", "--theta", "0", "--digits", "x=1"],
        ["solenoid", "alpha", "--p", "2", "--theta", "sqrt(2)", "--digits", "x=1/0", "--n", "1"],
        ["morita", "certify", "--spec-a", "{spec}", "--spec-b", "{spec}", "--entries", "-1"],
        ["morita", "heisenberg", *SPEC_FLAGS, "--entries", "-2"],
        ["solenoid", "check-coherence", *SPEC_FLAGS, "--entries", "-3"],
        ["multiplier", "check-cocycle", "--count", "-4"],
        ["morita", "projection", *SPEC_FLAGS, "--c0", "1", "--d0", "0", "--m", "0"],
        ["morita", "projection", *SPEC_FLAGS, "--c0", "0", "--d0", "0"],
        ["check", "condition", "--c0", "0", "--p", "2", "--d0", "1", "--x0", "1"],
        ["check", "condition", "--p", "4", "--c0", "1", "--d0", "1", "--x0", "1"],
        ["multiplier", "check-annihilator", "--theta", "0", "--p", "2", "--digits", "x=1"],
        ["multiplier", "check-eta-psi", "--theta", "0", "--p", "2", "--digits", "x=1"],
        ["multiplier", "check-annihilator", "--digits", "0", "--p", "2", "--theta", "sqrt(2)"],
        ["solenoid", "alpha", *SPEC_FLAGS, "--n", "100000"],
        ["SOLENOID_SEED=abc", "suite"],
        ["padic", "trunc", "--p", "2", "--value", "11", "--k", "-1"],
        ["padic", "trunc", "--p", "2", "--value", "11", "--k", str(MAX_TRUNC_K + 1)],
        ["padic", "inv", "--p", "2", "--value", "1/0"],
        ["solenoid", "alpha", "--p", "2", "--theta", "(1+sqrt(2))/0", "--digits", "x=1", "--n", "1"],
        ["bimodule", "verify", *SPEC_FLAGS, "--c0", "1", "--d0", "0", "--hats", "0"],
        ["bimodule", "verify", *SPEC_FLAGS, "--c0", "1", "--d0", "0", "--hats=-3"],
        ["bimodule", "verify", *SPEC_FLAGS, "--c0", "-1", "--d0", "1"],
        *(["solenoid", "alpha", "--p", "2", "--theta", t, "--digits", "x=1", "--n", "1"] for t in UNREAD_SURDS),
    ],
    ids=[
        "negative-index", "zero-theta", "zero-denominator-digits",
        "negative-certify-entries", "negative-heisenberg-entries", "negative-coherence-entries", "negative-count",
        "projection-zero-m", "projection-zero-c0", "condition-zero-c0", "condition-nonprime-p",
        "annihilator-zero-theta", "eta-psi-zero-theta", "annihilator-zero-digits", "alpha-huge-level",
        "non-integer-env-seed", "negative-trunc-k", "trunc-k-over-bound", "zero-denominator-value",
        "zero-denominator-theta", "zero-hats", "negative-hats", "bimodule-negative-c0",
        "surd-minus-first", "surd-coefficient-first", "surd-over-denominator",
    ],
)
def test_domain_errors_usage_error(capsys, monkeypatch, tmp_path, argv):
    if argv[0].startswith("SOLENOID_SEED="):
        monkeypatch.setenv("SOLENOID_SEED", argv[0].split("=", 1)[1])
        argv = argv[1:]
    spec = _write_spec(tmp_path / "spec.json", SolenoidSpec(2, QuadReal.sqrt_of(2) - 1, PAdic.from_rational(2, 1)))
    with pytest.raises(SystemExit) as exc:
        main([a.replace("{spec}", spec) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.strip().splitlines()[-1].startswith("ncsolenoid")
    zero = [a.removeprefix("x=") for a in argv if a.endswith("/0")]  # a zero denominator names its literal
    if zero:
        assert err.strip().splitlines()[-1] == f"ncsolenoid: error: the literal '{zero[0]}' has a zero denominator"
    if any(a.startswith("--hats") for a in argv):  # a sample below one hat names its flag
        assert ": error: argument --hats: must be positive, got " in err.strip().splitlines()[-1]
    if argv[0] == "bimodule" and argv[argv.index("--c0") + 1] == "-1":  # so does a c0 below 1, before any kernel
        assert err.strip().splitlines()[-1] == "ncsolenoid: error: argument --c0: must be positive, got -1"
    surd = [a for a in argv if a in UNREAD_SURDS]  # a surd in no form that is read names itself and the forms
    if surd:
        forms = "(a + b*sqrt(D))/c, a + b*sqrt(D) or b*sqrt(D)/c"
        assert err.strip().splitlines()[-1] == f"ncsolenoid: error: the literal '{surd[0]}' is not {forms}"


def test_padic_inverse_frozen(capsys):
    code, rep = run_json(capsys, ["padic", "inv", "--p", "5", "--value", "7"])
    assert code == 0
    inv = PAdic.from_json(rep["inverse"])
    assert inv.digit(0) == 3  # 7 * 3 = 21 = 1 mod 5


def run_process(argv, timeout=10):
    """The command in a fresh interpreter, bounded by a timeout in seconds."""
    return subprocess.run(
        [sys.executable, "-m", "ncsolenoid.cli", *argv],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=timeout,
    )


def test_padic_inverse_long_period_finishes():
    # 1/1000003 has a 2-adic period of about 10**6 digits; its inverse is an integer
    proc = run_process(["padic", "inv", "--p", "2", "--value", "1/1000003"])
    assert proc.returncode == 0, proc.stderr
    assert PAdic.from_json(json.loads(proc.stdout)["inverse"]) == 1000003


def test_padic_inverse_past_the_display_bound_exits_in_bounded_memory():
    # 1/den, den the product of the primes in [1009, 3600) (3 705 bits), has a 3-adic period past MAX_EXPANSION: the
    # order of 3 mod den is found past the bound from a table of isqrt(MAX_EXPANSION) + 1 residues mod den, and the
    # expansion stops there (exit 2) before any digit is read; a table of every 3 300-bit carry state took 125 MB
    # (seen with 1/10**1000).  The child reads its own peak (RUSAGE_SELF; ru_maxrss is in KiB on Linux):
    # RUSAGE_CHILDREN of this process keeps the largest child it ever waited for.  It is started from a small
    # interpreter, because a process started by fork and exec counts the peak of the one that started it
    code = textwrap.dedent("""
        import resource, sys
        from ncsolenoid.cli import main
        try:
            main(["padic", "inv", "--p", "3", "--value", sys.argv[1]])
        except SystemExit as exc:
            print(exc.code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    """)
    den = math.prod(q for q in range(1009, 3600) if exactnum.is_prime(q))
    assert den.bit_length() == 3705
    hop = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    proc = subprocess.run([sys.executable, "-c", hop, sys.executable, "-c", code, str(den)],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=10)
    exit_code, peak_kib = map(int, proc.stdout.split())
    assert exit_code == 2 and "MAX_EXPANSION" in proc.stderr
    assert peak_kib <= 48 * 1024


def test_spec_file_with_large_ord_finishes(tmp_path):
    # the valuation of 2**300000 must not take one big division per factor of 2
    spec = {"p": 2, "theta": "sqrt(2)", "digits": {"p": 2, "ord": 300000, "preperiod": [1], "period": [0]}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    proc = run_process(["solenoid", "alpha", "--spec", str(path), "--n", "2"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["inputs"]["digits"] == spec["digits"]


def test_spec_file_with_long_period_loads(tmp_path):
    # 7 has order 40128 mod 40129, so 1/40129 has a 7-adic period of 40128 digits; summing d * 7**i took 27 s
    spec = SolenoidSpec(7, QuadReal.sqrt_of(2) - 1, PAdic.from_rational(7, Fraction(1, 40129))).to_json()
    assert len(spec["digits"]["period"]) >= 40000
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    proc = run_process(["morita", "projection", "--spec", str(path), "--c0", "1", "--d0", "0"])
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["condition"] == "pass" and rep["inputs"] == spec


def test_eta_psi_check_at_large_ord_finishes(tmp_path):
    # 2**300000: the pairing's p-adic fractional parts have denominators of about 300000 bits
    spec = {"p": 2, "theta": "sqrt(2)", "digits": {"p": 2, "ord": 300000, "preperiod": [1], "period": [0]}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    proc = run_process(["multiplier", "check-eta-psi", "--spec", str(path)])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pass"] is True


def test_eta_psi_check_strips_a_large_ord_once(capsys, monkeypatch, tmp_path):
    # p is stripped from a value once, when it is built: stripping 3**30000 again at every ord and digit read
    # made about 200 calls on integers of over 10 000 bits, about half the command's time
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"p": 3, "theta": "sqrt(2)", "digits": {"p": 3, "ord": 30000, "preperiod": [1], "period": [0]}}))
    big, strip = [], padic._strip

    def counted(n, p):
        big.extend([n.bit_length()] if n.bit_length() > 10_000 else [])
        return strip(n, p)

    for module in (exactnum, padic, morita):
        monkeypatch.setattr(module, "_strip", counted, raising=False)
    code, rep = run_json(capsys, ["multiplier", "check-eta-psi", "--spec", str(path)])
    assert code == 0 and rep["pass"] is True
    assert len(big) <= 2, big


def test_padic_inverse_large_prime_finishes():
    # a 25-digit prime: primality is decided by Miller-Rabin, not trial division
    proc = run_process(["padic", "inv", "--p", "1000000000000000000000007", "--value", "3"])
    assert proc.returncode == 0, proc.stderr
    assert PAdic.from_json(json.loads(proc.stdout)["inverse"]) * 3 == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["padic", "trunc", "--p", "2", "--value", "11", "--k", "1000000000"],
        ["padic", "inv", "--p", "3317044064679887385961981", "--value", "3"],  # exactnum.MR_LIMIT itself
    ],
    ids=["huge-trunc-k", "prime-past-limit"],
)
def test_oversized_padic_input_usage_error(argv):
    proc = run_process(argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and proc.stderr.strip().splitlines()[-1].startswith("ncsolenoid")


@pytest.mark.parametrize(
    "argv, bound",
    [
        # the 2-adic period of 1/3**20 has 2*3**19 digits
        (["padic", "inv", "--p", "2", "--value", "3486784401"], "MAX_EXPANSION"),
        # the 3-adic period of 1/10**4299 is a multiple of 2**4297: refused by its order, with its message
        (["padic", "inv", "--p", "3", "--value", "1e4299"],
         f"ncsolenoid: error: the value has more than MAX_EXPANSION = {padic.MAX_EXPANSION} 3-adic digits to display"),
        # the 2-adic period of 1/1009**1400 is a multiple of 1009**1399: refused by its order (the carry loop took 2 s)
        (["padic", "inv", "--p", "2", "--value", str(1009**1400)],
         f"ncsolenoid: error: the value has more than MAX_EXPANSION = {padic.MAX_EXPANSION} 2-adic digits to display"),
        # a 31-digit radicand: trial division would take about sqrt(D)/2 steps
        (["solenoid", "alpha", "--p", "2", "--theta", "sqrt(1000000000000000000000000000014)", "--digits", "x=1", "--n", "1"],
         "MAX_RADICAND"),
        # the window reaches level 2*entries: 20000 used to fail only through the int-to-string limit, after 12 s
        (["morita", "heisenberg", *SPEC_FLAGS, "--entries", "20000"], "MAX_LEVEL/2"),
        (["morita", "heisenberg", *SPEC_FLAGS, "--entries", "1000000"], "MAX_LEVEL/2"),
        # time is linear in hats: a million used to run for minutes
        (["bimodule", "verify", *SPEC_FLAGS, "--c0", "1", "--d0", "0", "--hats", "1000000"], "MAX_HATS"),
        # 6827 * 3 = MAX_P_HATS + 1, the least p * hats over the bound: it exits before any hat is drawn,
        # where 1 hat at p = 100003 used to run for about 15 s
        (["bimodule", "verify", "--p", "6827", *SPEC_FLAGS[2:], "--c0", "1", "--d0", "0", "--hats", "3"],
         f"MAX_P_HATS = {MAX_P_HATS}, got 6827 * 3 * 1"),
        # the terms grow with tau/c0 as well: 2 hats at tau = 30000 + theta used to run past 60 s
        (["bimodule", "verify", *SPEC_FLAGS, "--c0", "1", "--d0", "30000", "--m", "30001", "--hats", "2"],
         f"MAX_P_HATS = {MAX_P_HATS}, got 2 * 2 * 30001"),
        # time is linear in the count: 20 000 took about 4 s, so a billion would run for hours
        (["multiplier", "check-eta-psi", "--count", "1000000000"], f"MAX_COUNT = {MAX_COUNT}"),
    ],
    ids=["long-period-display", "longer-period-display", "prime-power-period-display", "huge-radicand", "huge-entries",
         "huger-entries", "huge-hats", "least-p-hats", "large-trace", "huge-count"],
)
def test_unbounded_work_usage_error(argv, bound):
    proc = run_process(argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and proc.stderr.strip().splitlines()[-1].startswith("ncsolenoid")
    assert bound in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["padic", "inv", "--p", "3", "--value", "1e100000000"],
        ["padic", "inv", "--p", "3", "--value", "1e5000"],
        ["solenoid", "alpha", "--p", "3", "--theta", "1/3", "--digits", "1e100000", "--n", "2"],
        ["solenoid", "alpha", "--p", "3", "--theta", "1e10000000", "--digits", "x=1", "--n", "2"],
        # int() would stop each of these at Python's own 4300-digit limit
        ["solenoid", "alpha", "--p", "3", "--theta", "sqrt(" + "7" * 5000 + ")", "--digits", "x=1", "--n", "1"],
        ["solenoid", "alpha", "--p", "3", "--theta", "(1+" + "3" * 5000 + "*sqrt(2))/3", "--digits", "x=1", "--n", "1"],
        ["solenoid", "alpha", "--p", "3", "--theta", "(1+sqrt(2))/" + "3" * 5000, "--digits", "x=1", "--n", "1"],
    ],
    ids=["value", "value-past-int-limit", "digits", "theta", "surd-radicand", "surd-coefficient", "surd-denominator"],
)
def test_exponent_literal_usage_error(argv):
    # Fraction would multiply out the exponent first: 1e100000000 ran for minutes, 1e10000000 for 8 s
    proc = run_process(argv, timeout=2)
    assert proc.returncode == 2
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("ncsolenoid") and f"MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS}" in last


@pytest.mark.parametrize(
    "theta, shown", [("(1+sqrt(2))/3", "(1 + 1*sqrt(2))/3"), ("1+sqrt(2)", "(1 + 1*sqrt(2))/1"), ("(1-sqrt(2))/3", "(1 - 1*sqrt(2))/3")]
)
def test_surd_with_unit_coefficient(theta, shown):
    # the coefficient 1 may be left out, as in a spec file's "(1+sqrt(2))/3"
    proc = run_process(["solenoid", "alpha", "--p", "3", "--theta", theta, "--digits", "x=1", "--n", "1"], timeout=2)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["inputs"]["theta"] == shown


@pytest.mark.parametrize(
    "flags, bound",
    [
        (["--max-c0", "-1"], "max_c0"),
        (["--max-c0", "0"], "max_c0"),
        (["--entries", "17"], "MAX_SEARCH_LEVEL"),
        (["--max-c0", "1001"], "MAX_SEARCH_CANDIDATES"),
    ],
    ids=["negative-max-c0", "zero-max-c0", "level-past-bound", "candidates-past-bound"],
)
def test_certify_bad_bounds_usage_error(capsys, tmp_path, flags, bound):
    # a bad bound is rejected input, not an undecided search
    spec = _write_spec(tmp_path / "spec.json", SolenoidSpec(2, QuadReal.sqrt_of(2) - 1, PAdic.from_rational(2, 1)))
    with pytest.raises(SystemExit) as exc:
        main(["morita", "certify", "--spec-a", spec, "--spec-b", spec, *flags])
    assert exc.value.code == 2
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.startswith("ncsolenoid") and bound in last


def test_certify_has_no_max_k(capsys, tmp_path):
    # the truncations a search reads are worked out from its inputs, so there is no offset bound to pass
    spec = _write_spec(tmp_path / "spec.json", SolenoidSpec(2, QuadReal.sqrt_of(2) - 1, PAdic.from_rational(2, 1)))
    with pytest.raises(SystemExit) as exc:
        main(["morita", "certify", "--spec-a", spec, "--spec-b", spec, "--max-k", "4"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1] == "ncsolenoid: error: unrecognized arguments: --max-k 4"


def test_certify_has_no_max_d0(capsys, tmp_path):
    # d0 is solved from entry 0, so there is no d0 bound to pass
    spec = _write_spec(tmp_path / "spec.json", SolenoidSpec(2, QuadReal.sqrt_of(2) - 1, PAdic.from_rational(2, 1)))
    with pytest.raises(SystemExit) as exc:
        main(["morita", "certify", "--spec-a", spec, "--spec-b", spec, "--max-d0", "4"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1] == "ncsolenoid: error: unrecognized arguments: --max-d0 4"


@pytest.mark.parametrize(
    "ord_, horizon, bound", [(100000000, None, "MAX_ORD_BITS"), (0, 100000000, "MAX_ORD_BITS")], ids=["huge-ord", "huge-horizon"]
)
def test_unbounded_spec_work_usage_error(tmp_path, ord_, horizon, bound):
    spec = {"p": 2, "theta": "sqrt(2)", "digits": {"p": 2, "ord": ord_, "preperiod": [1], "period": [0]}}
    if horizon is not None:  # p**H is refused before it is built
        spec["digit_horizon"] = horizon
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    proc = run_process(["solenoid", "alpha", "--spec", str(path), "--n", "1"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and proc.stderr.strip().splitlines()[-1].startswith("ncsolenoid")
    assert bound in proc.stderr


def test_digit_horizon_at_the_bound_finishes(tmp_path):
    # at the bound a window of 2**19 ones is past the display bound (exit 2) and one of a single one prints; one
    # digit past it the file is refused as it is read
    def run(horizon, pre, per):
        digits = {"p": 2, "ord": 0, "preperiod": pre, "period": per}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"p": 2, "theta": "sqrt(2)", "digits": digits, "digit_horizon": horizon}))
        return run_process(["solenoid", "alpha", "--spec", str(path), "--n", "1"], timeout=5)

    for horizon, bound in ((MAX_ORD_BITS + 1, "MAX_ORD_BITS"), (MAX_ORD_BITS, "MAX_EXPANSION")):
        proc = run(horizon, [], [1])
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert bound in proc.stderr.strip().splitlines()[-1]
    proc = run(MAX_ORD_BITS, [1], [0])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["inputs"]["digits"] == {"p": 2, "ord": 0, "preperiod": [1], "period": [0]}


def test_long_preperiod_echo_finishes(tmp_path):
    # a preperiod is read in halves, not one division a digit: 199 000 digits echo, and 300 000, past
    # MAX_EXPANSION, are refused before any digit is read
    for length, code in ((199_000, 0), (300_000, 2)):
        digits = {"p": 3, "ord": 0, "preperiod": [2] * length, "period": [0]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"p": 3, "theta": "sqrt(2)", "digits": digits}))
        proc = run_process(["solenoid", "alpha", "--spec", str(path), "--n", "1"], timeout=5)
        assert proc.returncode == code and "Traceback" not in proc.stderr
        if code:
            assert "MAX_EXPANSION" in proc.stderr.strip().splitlines()[-1]
        else:
            assert json.loads(proc.stdout)["inputs"]["digits"] == digits


def test_bimodule_modulus_bound(capsys):
    # c = 2**64 at level 32 is past the C ssize_t that random.sample indexes by; c = 2**62 is not
    argv = ["bimodule", "verify", "--p", "2", "--theta", "(-1+1*sqrt(2))/1", "--digits", "x=1", "--c0", "1", "--d0", "0",
            "--hats", "1", "--n"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "32"])
    assert exc.value.code == 2
    assert "MAX_MODULUS" in capsys.readouterr().err.strip().splitlines()[-1]
    code, rep = run_json(capsys, [*argv, "31"])
    assert code in (0, 1) and rep["level"] == 31


@pytest.mark.parametrize(
    "argv",
    [
        ["solenoid", "alpha", *SPEC_FLAGS, "--n", "100000"],
        ["solenoid", "alpha", *SPEC_FLAGS, "--n", str(MAX_LEVEL + 1)],
        ["bimodule", "verify", *SPEC_FLAGS, "--c0", "1", "--d0", "0", "--n", str(MAX_LEVEL + 1)],
    ],
    ids=["alpha-100000", "alpha-past-bound", "bimodule-past-bound"],
)
def test_level_bound_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"MAX_LEVEL = {MAX_LEVEL}" in capsys.readouterr().err.strip().splitlines()[-1]


ENTRIES_LEAVES = [
    ["morita", "heisenberg"],
    ["morita", "projection", "--c0", "1", "--d0", "0"],
    ["morita", "relate"],
    ["solenoid", "check-coherence"],
    ["solenoid", "from-even"],
]


@pytest.mark.parametrize("leaf", ENTRIES_LEAVES, ids=lambda leaf: "-".join(leaf[:2]))
def test_entries_bound(capsys, leaf):
    with pytest.raises(SystemExit) as exc:
        main([*leaf, *SPEC_FLAGS, "--entries", str(MAX_LEVEL // 2 + 1)])
    assert exc.value.code == 2
    assert "MAX_LEVEL/2" in capsys.readouterr().err.strip().splitlines()[-1]
    # the largest window, at the largest prime below MR_LIMIT
    spec = ["--p", str(MR_LIMIT - 168), "--theta", "(-1 + 1*sqrt(2))/1", "--digits", "3/5"]
    code, _ = run_json(capsys, [*leaf, *spec, "--entries", str(MAX_LEVEL // 2)])
    assert code == 0


BIMODULE_ARGV = ["bimodule", "verify", *SPEC_FLAGS, "--c0", "1", "--d0", "0"]


@pytest.mark.parametrize(
    "leaf, flag, bound, limit",
    [(BIMODULE_ARGV, "--hats", "MAX_HATS", MAX_HATS),
     (["multiplier", "check-eta-psi"], "--count", "MAX_COUNT", MAX_COUNT),
     (["solenoid", "alpha", *SPEC_FLAGS], "--n", "MAX_LEVEL", MAX_LEVEL),
     (["padic", "trunc", "--p", "2", "--value", "11"], "--k", "MAX_TRUNC_K", MAX_TRUNC_K)],
    ids=["--hats-MAX_HATS-100", "--count-MAX_COUNT-2000", "--n-MAX_LEVEL-100",
         "--k-MAX_TRUNC_K-3000"],
)
def test_sample_size_bound(capsys, leaf, flag, bound, limit):
    argv = [*leaf, flag]
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(limit + 1)])
    assert exc.value.code == 2
    assert f"must be at most {bound} = {limit}" in capsys.readouterr().err.strip().splitlines()[-1]
    assert getattr(build_parser().parse_args([*argv, str(limit)]), flag[2:]) == limit


@pytest.mark.parametrize("leaf", ["check-eta-psi", "check-annihilator"])
def test_largest_count_at_largest_prime_finishes(leaf):
    # PAdic arithmetic proves its prime once, in from_rational: proving it again for every result made
    # check-eta-psi take about 10 s here, and check-annihilator about 5 s
    spec = ["--p", str(MR_LIMIT - 168), "--theta=-1+sqrt(2)", "--digits", "3/5"]
    start = time.perf_counter()
    proc = run_process(["multiplier", leaf, *spec, "--count", str(MAX_COUNT)])
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pass"] is True
    assert elapsed < 2.0, elapsed


def test_largest_level_prints_at_largest_prime(capsys):
    # the largest prime below MR_LIMIT: alpha_n's denominator has the most digits there
    p = MR_LIMIT - 168
    code, rep = run_json(capsys, ["solenoid", "alpha", "--p", str(p), "--theta", "sqrt(2)", "--digits", "x=1", "--n", str(MAX_LEVEL)])
    assert code == 0
    assert QuadReal.parse(rep["alpha"]) == (QuadReal.sqrt_of(2) + 1) / p**MAX_LEVEL


def test_padic_inverse_of_zero_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["padic", "inv", "--p", "5", "--value", "0"])
    assert exc.value.code == 2


def test_padic_frac_and_trunc(capsys):
    code, rep = run_json(capsys, ["padic", "frac", "--p", "3", "--value", "5/9"])
    assert code == 0
    assert rep["frac_part"] == "5/3^2" and rep["as_rational"] == "5/9"
    code, rep = run_json(capsys, ["padic", "trunc", "--p", "2", "--value", "11", "--k", "3"])
    assert code == 0
    assert rep["digits"] == [1, 1, 0] and rep["precision"] == 3


def test_padic_trunc_of_a_zero_window(capsys):
    # 0 and 8 agree below 3, so they print one window: zero to its precision, so ord 3 and no digit
    for value in ("0", "8"):
        code, rep = run_json(capsys, ["padic", "trunc", "--p", "2", "--value", value, "--k", "3"])
        assert code == 0 and (rep["ord"], rep["digits"], rep["precision"]) == (3, [], 3)


def test_spec_echo_prints_only_the_known_digits(capsys, tmp_path):
    # the digits 2, 2, 2, ... known below 5 are echoed as the window 22222, not as the stream they were read from
    path = tmp_path / "spec.json"
    digits = {"p": 3, "ord": 0, "preperiod": [], "period": [2]}
    path.write_text(json.dumps({"p": 3, "theta": "sqrt(2)", "digits": digits, "digit_horizon": 5}))
    code, rep = run_json(capsys, ["solenoid", "alpha", "--spec", str(path), "--n", "2"])
    assert code == 0 and rep["inputs"]["digit_horizon"] == 5
    assert rep["inputs"]["digits"] == {"p": 3, "ord": 0, "preperiod": [2, 2, 2, 2, 2], "period": [0]}


def test_solenoid_alpha_frozen(capsys):
    code, rep = run_json(capsys, ["solenoid", "alpha", *SPEC_FLAGS, "--n", "3"])
    assert code == 0
    assert QuadReal.parse(rep["alpha"]) == QuadReal.sqrt_of(2) / 8


def test_solenoid_coherence_and_from_even(capsys):
    code, rep = run_json(capsys, ["solenoid", "check-coherence", *SPEC_FLAGS, "--entries", "10"])
    assert code == 0 and rep["pass"] is True
    code, rep = run_json(capsys, ["solenoid", "from-even", *SPEC_FLAGS, "--entries", "6"])
    assert code == 0 and rep["pass"] is True


def test_from_even_past_horizon_names_first_missing_digit(capsys, tmp_path):
    spec = SolenoidSpec(2, QuadReal.sqrt_of(2) - 1, PAdic.from_rational(2, 1).truncate(3))
    code, rep = run_json(capsys, ["solenoid", "from-even", "--spec", _write_spec(tmp_path / "h.json", spec), "--entries", "2"])
    assert code == 1 and rep["error"] == "digit x_3 is beyond the known window (horizon 3)"


def test_heisenberg_partner_stops_at_its_precision(capsys, tmp_path):
    # x = 3 known below 3 is a unit, so its inverse, and the partner's digits, are known below 3 - 2 ord x = 3:
    # the partner reads no entry past 3, as solenoid alpha reads none on the same file
    path = tmp_path / "h.json"
    digits = {"p": 2, "ord": 0, "preperiod": [1, 1, 0], "period": [0]}
    path.write_text(json.dumps({"p": 2, "theta": "(-1 + 1*sqrt(2))/1", "digits": digits, "digit_horizon": 3}))
    code, rep = run_json(capsys, ["morita", "heisenberg", "--spec", str(path), "--entries", "3"])
    assert code == 0 and [n for n, _ in rep["partner"]] == [0, 1, 2, 3]
    for argv in (["morita", "heisenberg", "--entries", "6"], ["solenoid", "alpha", "--n", "6"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--spec", str(path)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.strip().endswith("digit x_3 is beyond the known window (horizon 3)")


@pytest.mark.parametrize("command", ["relate", "heisenberg"])
def test_unknown_digits_are_refused_for_their_horizon(capsys, tmp_path, command):
    # a window zero to its horizon is no zero x: with every digit unknown both commands name the horizon, as
    # check-coherence does; with x_0 = x_1 = x_2 = 0 known, relate reads x_0 = 0 and heisenberg needs x_3
    theta = "(-1 + 1*sqrt(2))/1"
    expected = {
        (0, 1): "digit x_0 is beyond the known window (horizon 0)",
        (3, 0): "comparison needs x_0 != 0" if command == "relate" else "digit x_3 is beyond the known window (horizon 3)",
    }
    for (horizon, x0), message in expected.items():
        path = tmp_path / "h.json"
        digits = {"p": 2, "ord": 0, "preperiod": [x0], "period": [0]}
        path.write_text(json.dumps({"p": 2, "theta": theta, "digits": digits, "digit_horizon": horizon}))
        argvs = [["morita", command]] + ([["solenoid", "check-coherence"]] if horizon == 0 else [])
        for argv in argvs:
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--spec", str(path)])
            assert exc.value.code == 2
            assert capsys.readouterr().err.strip().splitlines()[-1] == f"ncsolenoid: error: {message}"


def test_multiplier_checks_pass(capsys):
    for sub in ("check-cocycle", "check-annihilator", "check-eta-psi"):
        code, rep = run_json(capsys, ["multiplier", sub, "--seed", "9", "--count", "40"])
        assert code == 0
        assert rep["pass"] is True and rep["violations"] == []


def test_morita_heisenberg_window(capsys):
    # the printed window is [[n, "beta_n"], ...], and reads back as the window itself
    code, rep = run_json(capsys, ["morita", "heisenberg", *SPEC_FLAGS, "--entries", "2"])
    assert code == 0
    partner = tuple((n, QuadReal.parse(s)) for n, s in rep["partner"])
    spec = SolenoidSpec(2, QuadReal.sqrt_of(2) - 1, PAdic.from_rational(2, 1))
    assert partner == heisenberg_partner(spec, 2) and partner[0] == (0, QuadReal.sqrt_of(2) + 1)


def test_partner_group_is_gone(capsys):
    # the partner alias duplicated morita heisenberg; its argv is now an unknown group
    with pytest.raises(SystemExit) as exc:
        main(["partner", "heisenberg", *SPEC_FLAGS, "--entries", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "error: argument command: invalid choice: 'partner'" in captured.err


def test_morita_projection_pass_and_fail(capsys):
    code, rep = run_json(capsys, ["morita", "projection", *SPEC_FLAGS, "--c0", "1", "--d0", "0", "--entries", "3"])
    assert code == 0
    assert rep["condition"] == "pass" and len(rep["partner"]) == 4
    bad = ["--p", "2", "--theta", "(-1 + 1*sqrt(2))/1", "--digits", "x=2"]
    code, rep = run_json(capsys, ["morita", "projection", *bad, "--c0", "1", "--d0", "0"])
    assert code == 1
    assert rep["condition"] == "fail" and rep["witness"]["n"] <= 1


def test_morita_relate(capsys):
    code, rep = run_json(capsys, ["morita", "relate", *SPEC_FLAGS, "--entries", "5"])
    assert code == 0 and rep["pass"] is True


def _write_spec(path, spec):
    path.write_text(json.dumps(spec.to_json()))
    return str(path)


def test_morita_certify_roundtrip_and_outcomes(capsys, tmp_path):
    a = SolenoidSpec(2, QuadReal.sqrt_of(2) - 1, PAdic.from_rational(2, 1))
    fa = _write_spec(tmp_path / "a.json", a)
    fb = _write_spec(tmp_path / "b.json", heisenberg_partner_spec(a))
    code, rep = run_json(capsys, ["morita", "certify", "--spec-a", fa, "--spec-b", fb])
    assert code == 0 and rep["status"] == "found"
    assert sorted(rep["certificate"]) == ["c0", "d0", "k", "m", "matched_entries", "precision"]
    assert rep["certificate"]["c0"] == 1 and rep["certificate"]["d0"] == 0
    assert rep["certificate"]["precision"] == "every level"

    fc = _write_spec(tmp_path / "c.json", SolenoidSpec(3, QuadReal.sqrt_of(2) - 1, PAdic.from_rational(3, 1)))
    code, rep = run_json(capsys, ["morita", "certify", "--spec-a", fa, "--spec-b", fc])
    assert code == 0 and rep["status"] == "impossible"

    fd = _write_spec(tmp_path / "d.json", SolenoidSpec(2, QuadReal.sqrt_of(3) - 1, PAdic.from_rational(2, 1)))
    code, rep = run_json(capsys, ["morita", "certify", "--spec-a", fa, "--spec-b", fd])
    assert code == 0 and rep["status"] == "impossible" and rep["reason"] == "field"

    # a det 1 image of a's theta: same field and discriminant, and no candidate of the default box matches
    fe = _write_spec(tmp_path / "e.json", SolenoidSpec(2, (a.theta * 2 + 1) / (a.theta + 1), PAdic.from_rational(2, 1)))
    code, rep = run_json(capsys, ["morita", "certify", "--spec-a", fa, "--spec-b", fe])
    assert code == 1 and rep == {"status": "inconclusive", "pass": False}


def test_morita_certify_different_discriminants(capsys, tmp_path):
    # the same field Q(sqrt(2)); primitive discriminants 8 = 2 * 2^2 and 72 = 18 * 2^2
    fa = _write_spec(tmp_path / "a.json", SolenoidSpec(2, QuadReal.sqrt_of(2) - 1, PAdic.from_rational(2, 1)))
    fb = tmp_path / "b.json"
    fb.write_text(json.dumps({"p": 2, "theta": "(1+sqrt(2))/3", "digits": PAdic.from_rational(2, 1).to_json()}))
    code, rep = run_json(capsys, ["morita", "certify", "--spec-a", fa, "--spec-b", str(fb)])
    assert code == 0
    assert rep == {"status": "impossible", "reason": "discriminant", "invariants": {"a": 2, "b": 18}, "pass": True}
    # a discriminant past Python's int-to-str limit is reported by its size
    fb.write_text(json.dumps({"p": 2, "theta": "(1+sqrt(2))/" + "3" * 3000, "digits": PAdic.from_rational(2, 1).to_json()}))
    code, rep = run_json(capsys, ["morita", "certify", "--spec-a", fa, "--spec-b", str(fb)])
    big = int("3" * 3000)  # b's quadratic is big^2 x^2 - 2 big x - 1, of discriminant 8 big^2 = 2 big^2 * 2^2
    assert code == 0 and rep["invariants"] == {"a": 2, "b": f"{(2 * big * big).bit_length()}-bit integer"}


def test_morita_certify_skips_truncations_past_a_horizon(tmp_path):
    # a 4-entry partner window of a at truncation 4 (digits known to x_5) against a: no truncation's 8-entry
    # window fits inside the horizon, so none is read, and the horizon is never reached
    a = SolenoidSpec(3, QuadReal.parse("(1 + 1*sqrt(5))/4"), PAdic.from_rational(3, Fraction(2, 5)))
    window = projection_partner(truncate_spec(a, 4), ProjectionData(1, 3, -1), 8)
    fw = _write_spec(tmp_path / "w.json", from_even_entries(3, window[:4]))
    proc = run_process(["morita", "certify", "--spec-a", fw, "--spec-b", _write_spec(tmp_path / "a.json", a)], timeout=2)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout) == {"pass": False, "status": "inconclusive"}


def test_morita_certify_stops_at_a_horizon(tmp_path):
    # a planted partner window (digits known to x_9) as a, against the spec it was planted from: no truncation's
    # 8-entry window fits inside a's horizon, so nothing is read past it and the answer is inconclusive, not exit 2
    fa, fb = tmp_path / "a.json", tmp_path / "b.json"
    fa.write_text(json.dumps({"p": 7, "theta": "(36 - 21*sqrt(2))/23", "digit_horizon": 10, "digits": {
        "p": 7, "ord": 0, "preperiod": [2, 1, 0, 4, 5, 6, 1, 0, 0, 2], "period": [0]}}))
    fb.write_text(json.dumps({"p": 7, "theta": "(0 + 3*sqrt(2))/7", "digits": {
        "p": 7, "ord": 0, "preperiod": [6, 4, 3], "period": [6, 3, 0]}}))
    proc = run_process(["morita", "certify", "--spec-a", str(fa), "--spec-b", str(fb)], timeout=2)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout) == {"pass": False, "status": "inconclusive"}


def test_morita_certify_bad_file_usage_error(capsys, tmp_path):
    missing = str(tmp_path / "nope.json")
    with pytest.raises(SystemExit) as exc:
        main(["morita", "certify", "--spec-a", missing, "--spec-b", missing])
    assert exc.value.code == 2
    # the rejected file is reported with the top parser's usage line
    err, usage = capsys.readouterr().err, build_parser().format_usage()
    assert err.startswith(usage) and err[len(usage):].startswith(f"ncsolenoid: error: bad spec file {missing}")
    digits = {"p": 2, "ord": 0, "preperiod": [1], "period": [0]}
    bad_specs = [
        {"p": 2, "theta": "1/0", "digits": digits},
        {"p": "2", "theta": "sqrt(2)", "digits": digits},
        {"p": 2, "theta": 5, "digits": digits},
        [2, "sqrt(2)", digits],
        {"p": 2, "theta": "sqrt(2)", "digits": digits, "digit_horizon": "3"},
    ]
    for i, obj in enumerate(bad_specs):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(SystemExit) as exc:
            main(["morita", "certify", "--spec-a", str(path), "--spec-b", str(path)])
        assert exc.value.code == 2, obj
        if i == 0:  # a zero denominator names its literal, not Fraction(1, 0)
            last = capsys.readouterr().err.strip().splitlines()[-1]
            assert last == f"ncsolenoid: error: bad spec file {path}: the literal '1/0' has a zero denominator"


@pytest.mark.parametrize("command", ["alpha", "certify"])
def test_deeply_nested_spec_file_usage_error(tmp_path, command):
    # a 2 KB file nested 1 000 deep passes the decoder's recursion limit: a bad spec file, not a traceback
    deep = tmp_path / "deep.json"
    deep.write_text('{"p": ' + "[" * 1000 + "]" * 1000 + "}")
    good = _write_spec(tmp_path / "good.json", SolenoidSpec(2, QuadReal.sqrt_of(2) - 1, PAdic.from_rational(2, 1)))
    argv = {
        "alpha": ["solenoid", "alpha", "--spec", str(deep), "--n", "1"],
        "certify": ["morita", "certify", "--spec-a", good, "--spec-b", str(deep)],
    }[command]
    proc = run_process(argv)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines()[-1].startswith(f"ncsolenoid: error: bad spec file {deep}")


@pytest.mark.parametrize("argv", [["solenoid", "alpha", "--n", "0"], ["multiplier", "check-annihilator"]], ids=["alpha", "annihilator"])
def test_negative_digit_horizon_usage_error(capsys, tmp_path, argv):
    spec = {**SolenoidSpec(2, QuadReal.sqrt_of(2) - 1, PAdic.from_rational(2, 1)).to_json(), "digit_horizon": -3}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--spec", str(path)])
    assert exc.value.code == 2
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.startswith("ncsolenoid") and "digit_horizon" in last and "-3" in last


@pytest.mark.parametrize(
    "max_c0, entries, thetas",
    [(1000, 16, "same-field"), (40, 12, "same-field"), (200, 2, "same-field"), (1000, 16, "same-theta"), (58, 0, "rational")],
    ids=["1000-16", "40-12", "200-2", "same-theta", "deepest"],
)
def test_costliest_accepted_search_finishes(tmp_path, max_c0, entries, thetas):
    # the largest prime below MR_LIMIT, at MAX_SEARCH_LEVEL and MAX_SEARCH_CANDIDATES c0 values, none matching:
    # at 16 entries one truncation; at 12 and 2 entries the truncations k <= 8 that the c0 budget allows (40 and
    # 200 c0 values on each); at 0 entries 58 c0 values on each of the 17 truncations k <= MAX_SEARCH_LEVEL,
    # all read for a rational theta, whose discriminant is 0 at every k.  Against itself with other digits, theta
    # matches entry 0 on the rows of its automorphs, which read further entries
    p, x = MR_LIMIT - 168, PAdic.from_rational(MR_LIMIT - 168, Fraction(3, 5))
    y = x
    if thetas == "rational":
        theta_a, theta_b = QuadReal.parse("1/3"), QuadReal.parse("2/97")
    elif thetas == "same-theta":
        theta_a = theta_b = QuadReal.sqrt_of(2) - 1
        y = PAdic.from_rational(p, Fraction(1, 26))
    else:
        theta_a = QuadReal.sqrt_of(2) - 1
        theta_b = (theta_a * 2 + 1) / (theta_a + 1)  # same field and discriminant
    fa = _write_spec(tmp_path / "a.json", SolenoidSpec(p, theta_a, x))
    fb = _write_spec(tmp_path / "b.json", SolenoidSpec(p, theta_b, y))
    bounds = ["--max-c0", str(max_c0), "--entries", str(entries)]
    start = time.perf_counter()
    proc = run_process(["morita", "certify", "--spec-a", fa, "--spec-b", fb, *bounds])
    elapsed = time.perf_counter() - start
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["status"] == "inconclusive"
    assert elapsed < 2.0, elapsed


def test_bimodule_verify_small(capsys):
    argv = [
        "bimodule", "verify", *SPEC_FLAGS,
        "--c0", "1", "--d0", "0", "--n", "0",
        "--seed", "4", "--hats", "3",
    ]
    code, rep = run_json(capsys, argv)
    assert code == 0 and rep["pass"] is True
    assert set(rep["identities"]) == {
        "iota_left_action", "iota_right_action", "phi_left_inner", "psi_right_inner", "imprimitivity",
    }
    assert all(v == 0.0 for v in rep["identities"].values()) and "tolerance" not in rep


def test_bimodule_verify_inf_deviation_fails_in_strict_json(capsys, monkeypatch):
    import ncsolenoid.bimodule as bimodule

    # a 1/sqrt(p)-scaled embedding fails both inner-product identities: inf, written as null
    embed = bimodule.level_embed
    monkeypatch.setattr(bimodule, "level_embed", lambda ctx, F: embed(ctx, F).scaled(1 / ctx.spec.p**0.5))
    code, out = run(capsys, ["bimodule", "verify", *SPEC_FLAGS, "--c0", "1", "--d0", "0", "--hats", "1"])
    assert code == 1
    rep = json.loads(out, parse_constant=lambda name: pytest.fail(f"stdout holds {name}"))
    assert rep["pass"] is False and rep["max_error"] is None
    assert rep["identities"]["phi_left_inner"] is rep["identities"]["psi_right_inner"] is None
    assert rep["identities"]["iota_left_action"] == 0.0


def _timed_runs(argv):
    """Two subprocess runs of argv: the faster one's wall time, and both stdouts."""
    times, outs = [], []
    for _ in range(2):
        start = time.perf_counter()
        proc = run_process(argv)
        times.append(time.perf_counter() - start)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    return min(times), outs


def test_bimodule_verify_large_prime_finishes():
    # for each j1 the aligned j2 are bisected from the classes sorted by key, so an inner
    # product costs about one step per aligned pair, not one per pair of classes (p**2 of
    # them); the p classes level_embed spreads share one term tuple, whose hull and windows
    # are found once.  Two runs print the same bytes; the budget is on the faster one
    argv = ["bimodule", "verify", "--p", "1009", *SPEC_FLAGS[2:], "--c0", "1", "--d0", "0", "--hats", "4"]
    best, outs = _timed_runs(argv)
    assert outs[0] == outs[1]
    assert best < 2.0
    rep = json.loads(outs[0])
    assert rep["pass"] is True
    assert all(e == 0.0 for e in rep["identities"].values())


def test_bimodule_verify_at_the_trace_bound_finishes():
    # p * hats * (floor(tau/c0) + 1) = 2 * 1 * 10239 and 2 * 1 * 10238, just under MAX_P_HATS: the left k
    # windows and the right y windows hold about 10^4 offsets each, and c0 = 7 lets each element fill two
    # classes.  One subprocess run each, about 1 s apiece: the budget is what this test is for
    for c0, d0 in ((1, 10238), (7, 71662)):
        argv = ["bimodule", "verify", *SPEC_FLAGS, "--c0", str(c0), "--d0", str(d0), "--m", str(d0 + c0), "--hats", "1"]
        start = time.perf_counter()
        proc = run_process(argv)
        assert time.perf_counter() - start < 3.0
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["pass"] is True


@pytest.mark.parametrize("argv", [["suite", "--seed", "0"], ["solenoid", "alpha", *SPEC_FLAGS, "--n", "3"]], ids=["suite", "alpha"])
def test_closed_stdout_ends_without_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ncsolenoid.cli", *argv], stdout=write_end, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=SRC), text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_bimodule_verify_rejects_bad_trace():
    argv = ["bimodule", "verify", "--p", "2", "--theta", "sqrt(2)/1", "--digits", "x=1", "--c0", "1", "--d0", "0"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_suite_reproducible_and_env_seed(capsys, monkeypatch):
    code1, out1 = run(capsys, ["suite", "--seed", "11"])
    code2, out2 = run(capsys, ["suite", "--seed", "11"])
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical under identical config
    monkeypatch.setenv("SOLENOID_SEED", "11")
    code3, out3 = run(capsys, ["suite"])
    assert code3 == 0 and out3 == out1
    rep = json.loads(out1)
    assert rep["pass"] is True and len(rep["checks"]) >= 8


def test_text_format(capsys):
    code, out = run(capsys, ["--format", "text", "check", "condition", "--p", "2", "--c0", "1", "--d0", "0", "--x0", "1"])
    assert code == 0
    assert "pass: True" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
    # a list item that is a list or a dict gets its own "-" line, and an empty container is written out
    argv = ["--format", "text", "morita", "heisenberg", "--p", "2", "--theta", "1/3", "--digits", "1", "--entries", "1"]
    assert run(capsys, argv) == (0, "inputs:\n  digits:\n    ord: 0\n    p: 2\n    period:\n      - 0\n    preperiod:\n"
                                    "      - 1\n  p: 2\n  theta: 1/3\npartner:\n  -\n    - 0\n    - 3\n  -\n    - 1\n    - 2\n")
    code, out = run(capsys, ["--format", "text", "suite"])
    assert code == 0 and out.startswith("checks:\n  -\n    count: 200\n    name: multiplier-cocycle\n    pass: True\n"
                                        "    violations: []\n  -\n    count: 200\n    name: multiplier-annihilator\n")
    lines = out.splitlines()
    assert "" not in lines and lines.count("  -") == len(json.loads(run(capsys, ["suite"])[1])["checks"])


def test_spec_file_input(capsys, tmp_path):
    spec = SolenoidSpec(2, QuadReal.sqrt_of(2) - 1, PAdic.from_rational(2, 1))
    f = _write_spec(tmp_path / "s.json", spec)
    code, rep = run_json(capsys, ["solenoid", "alpha", "--spec", f, "--n", "0"])
    assert code == 0
    assert QuadReal.parse(rep["alpha"]) == spec.theta


NO_NUMPY_PROBE = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # every import of numpy now raises ImportError
import ncsolenoid, ncsolenoid.cli
runs = [["ncsolenoid.bimodule" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ncsolenoid.cli.main(argv)
    runs.append([code, json.loads(out.getvalue()).get("pass"), "ncsolenoid.bimodule" in sys.modules])
print(json.dumps(runs))
"""


@pytest.mark.parametrize("float_check", [
    ["suite", "--seed", "0"],
    ["bimodule", "verify", *SPEC_FLAGS, "--c0", "1", "--d0", "0"],
], ids=["suite", "bimodule"])
def test_commands_run_without_numpy(tmp_path, float_check):
    # the package needs the standard library alone; the bimodule layer loads only for the commands that use it
    a = SolenoidSpec(2, QuadReal.sqrt_of(2) - 1, PAdic.from_rational(2, 1))
    b = heisenberg_partner_spec(a)
    exact = [
        ["padic", "inv", "--p", "5", "--value", "7"],
        ["check", "condition", "--p", "2", "--c0", "1", "--d0", "0", "--x0", "1"],
        ["solenoid", "alpha", *SPEC_FLAGS, "--n", "2"],
        ["morita", "certify", "--spec-a", _write_spec(tmp_path / "a.json", a), "--spec-b", _write_spec(tmp_path / "b.json", b)],
        ["multiplier", "check-cocycle", "--count", "5"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_PROBE, json.dumps([*exact, float_check])],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    imported, *runs = json.loads(proc.stdout)
    assert imported == [False] and [code for code, _, _ in runs] == [0] * len(runs)
    # every report that carries a pass reads true: padic inv and solenoid alpha carry none
    assert [ok for _, ok, _ in runs] == [None, True, None, True, True, True]
    assert [loaded for _, _, loaded in runs] == [False] * len(exact) + [True]


def test_every_exported_name_resolves():
    missing = [name for name in ncsolenoid.__all__ if not hasattr(ncsolenoid, name)]
    assert not missing, missing


# one argv per leaf, each parsing cleanly
LEAF_ARGV = {
    ("padic", "inv"): ["--p", "5", "--value", "7"],
    ("padic", "frac"): ["--p", "3", "--value", "5/9"],
    ("padic", "trunc"): ["--p", "2", "--value", "11", "--k", "6"],
    ("solenoid", "alpha"): [*SPEC_FLAGS, "--n", "3"],
    ("solenoid", "check-coherence"): [*SPEC_FLAGS, "--entries", "4"],
    ("solenoid", "from-even"): ["--spec", "s.json"],
    ("multiplier", "check-cocycle"): ["--count", "3", "--seed", "5"],
    ("multiplier", "check-annihilator"): [*SPEC_FLAGS],
    ("multiplier", "check-eta-psi"): [],
    ("morita", "heisenberg"): [*SPEC_FLAGS, "--entries", "3"],
    ("morita", "projection"): [*SPEC_FLAGS, "--c0", "1", "--d0", "0", "--m", "2"],
    ("morita", "relate"): [*SPEC_FLAGS],
    ("morita", "certify"): ["--spec-a", "a.json", "--spec-b", "b.json", "--entries", "2"],
    ("check", "condition"): ["--p", "2", "--c0", "1", "--d0", "0", "--x0", "1"],
    ("bimodule", "verify"): [*SPEC_FLAGS, "--c0", "1", "--d0", "0", "--hats", "3"],
    ("suite",): ["--seed", "4"],
}
PARSE_ARGVS = [
    *([*leaf, *args] for leaf, args in LEAF_ARGV.items()),
    ["--format", "text", "morita", "certify", "--spec-a", "a.json", "--spec-b", "b.json"],
    ["--format=text", "suite"],
    ["--form", "json", "check", "condition", "--p", "2", "--c0", "1", "--d0", "0", "--x0", "1"],
    ["--help"],
    *([group, "--help"] for group in COMMANDS),
    *([*leaf, "--help"] for leaf in LEAF_ARGV),
    ["-h", "morita", "certify"],
    ["morita", "-h", "certify"],
    [],
    ["definitely-not-a-command"],
    ["morita"],
    ["morita", "nope"],
    ["morita", "certify", "--spec-a", "a.json"],
    ["check", "condition", "--p", "2", "--c0", "1", "--d0", "0"],
    ["--format", "xml", "suite"],
    ["suite", "--bogus"],
    ["solenoid", "alpha", "--spec", "morita", "--n", "1"],
    ["morita", "certify", "--spec-a", "certify", "--spec-b", "partner"],
    # the removed partner alias group
    ["partner", "heisenberg", *SPEC_FLAGS],
    ["partner", "--help"],
    ["partner", "heisenberg", "--help"],
    ["solenoid", "from-even", "--spec", "alpha", "--entries", "x"],
    ["bimodule", "verify", "--spec", "suite", "--c0", "1", "--d0", "0", "--hats", str(MAX_HATS + 1)],
    ["a", "morita", "certify"],
    ["--", "morita", "certify"],
    ["--he", "morita", "certify"],
    ["morita", "--he", "certify"],
    ["morita", "x", "certify"],
    ["--format", "morita", "certify"],
]


def test_leaf_table_covers_every_leaf():
    assert set(LEAF_ARGV) == {
        (group, leaf) if dest else (group,)
        for group, (_, _, dest, leaves) in COMMANDS.items()
        for leaf in (leaves if dest else [None])
    }


def _parse(parser, argv):
    """The namespace or exit code, stdout and stderr of parsing argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            outcome = vars(parser.parse_args(argv))
        except SystemExit as exc:
            outcome = exc.code
    return outcome, out.getvalue(), err.getvalue()


def test_one_parser_parses_every_argv_as_a_fresh_one():
    # main keeps one parser per process: parsing must leave no state that a later parse sees
    shared = build_parser()
    for argv in [*PARSE_ARGVS, *reversed(PARSE_ARGVS)]:
        assert _parse(shared, argv) == _parse(build_parser(), argv), argv


@pytest.mark.parametrize("argv", PARSE_ARGVS, ids=" ".join)
def test_scoped_parser_matches_full_parser(argv):
    # the process-scoped parser main uses, after all it parsed earlier in the session, acts as a fresh full one
    assert _parse(cli._parser(), argv) == _parse(build_parser(), argv)


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built, init = [], argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda self, *a, **kw: built.append(self) or init(self, *a, **kw))
    cli._parser.cache_clear()
    argv = ["check", "condition", "--p", "2", "--c0", "1", "--d0", "0", "--x0", "1"]
    assert main(argv) == 0 and main(argv) == 0
    # the first call builds the top parser, one per group and one per leaf; the second builds none
    assert len(built) == 1 + len(COMMANDS) + sum(len(leaves) for _, _, dest, leaves in COMMANDS.values() if dest)
