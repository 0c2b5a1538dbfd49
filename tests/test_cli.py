"""End-to-end command tests: argument surface, JSON shapes, exit codes,
and byte-level reproducibility."""

import json

import pytest

from ncsolenoid.cli import main
from ncsolenoid.exactnum import QuadReal
from ncsolenoid.morita import heisenberg_partner_spec
from ncsolenoid.padic import PAdic
from ncsolenoid.solenoid import SolenoidSpec

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


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == 2


def test_missing_required_flag_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["check", "condition", "--p", "2", "--c0", "1", "--d0", "0"])
    assert exc.value.code == 2


def test_bad_theta_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["solenoid", "alpha", "--p", "2", "--theta", "one plus root two", "--digits", "x=1", "--n", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["solenoid", "alpha", *SPEC_FLAGS, "--n", "-3"],
        ["morita", "heisenberg", "--p", "2", "--theta", "0", "--digits", "x=1"],
        ["solenoid", "alpha", "--p", "2", "--theta", "sqrt(2)", "--digits", "x=1/0", "--n", "1"],
    ],
    ids=["negative-index", "zero-theta", "zero-denominator-digits"],
)
def test_domain_errors_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.strip().splitlines()[-1].startswith("ncsolenoid")


def test_padic_inverse_frozen(capsys):
    code, rep = run_json(capsys, ["padic", "inv", "--p", "5", "--value", "7"])
    assert code == 0
    inv = PAdic.from_json(rep["inverse"])
    assert inv.digit(0) == 3  # 7 * 3 = 21 = 1 mod 5


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


def test_solenoid_alpha_frozen(capsys):
    code, rep = run_json(capsys, ["solenoid", "alpha", *SPEC_FLAGS, "--n", "3"])
    assert code == 0
    assert QuadReal.parse(rep["alpha"]) == QuadReal.sqrt_of(2) / 8


def test_solenoid_coherence_and_from_even(capsys):
    code, rep = run_json(capsys, ["solenoid", "check-coherence", *SPEC_FLAGS, "--entries", "10"])
    assert code == 0 and rep["pass"] is True
    code, rep = run_json(capsys, ["solenoid", "from-even", *SPEC_FLAGS, "--entries", "6"])
    assert code == 0 and rep["pass"] is True


def test_multiplier_checks_pass(capsys):
    for sub in ("check-cocycle", "check-annihilator", "check-eta-psi"):
        code, rep = run_json(capsys, ["multiplier", sub, "--seed", "9", "--count", "40"])
        assert code == 0
        assert rep["pass"] is True and rep["violations"] == []


def test_morita_heisenberg_window(capsys):
    code, rep = run_json(capsys, ["morita", "heisenberg", *SPEC_FLAGS, "--entries", "2"])
    assert code == 0
    entries = {n: QuadReal.parse(s) for n, s in rep["partner"]}
    assert entries[0] == QuadReal.sqrt_of(2) + 1


def test_partner_alias_matches_morita(capsys):
    code1, out1 = run(capsys, ["morita", "heisenberg", *SPEC_FLAGS, "--entries", "3"])
    code2, out2 = run(capsys, ["partner", "heisenberg", *SPEC_FLAGS, "--entries", "3"])
    assert (code1, out1) == (code2, out2)


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
    a = SolenoidSpec(2, QuadReal.sqrt_of(2) - 1, PAdic.from_int(2, 1))
    fa = _write_spec(tmp_path / "a.json", a)
    fb = _write_spec(tmp_path / "b.json", heisenberg_partner_spec(a))
    code, rep = run_json(capsys, ["morita", "certify", "--spec-a", fa, "--spec-b", fb])
    assert code == 0 and rep["status"] == "found"
    assert sorted(rep["certificate"]) == ["c0", "d0", "k", "m", "matched_entries"]
    assert rep["certificate"]["c0"] == 1 and rep["certificate"]["d0"] == 0

    fc = _write_spec(tmp_path / "c.json", SolenoidSpec(3, QuadReal.sqrt_of(2) - 1, PAdic.from_int(3, 1)))
    code, rep = run_json(capsys, ["morita", "certify", "--spec-a", fa, "--spec-b", fc])
    assert code == 0 and rep["status"] == "impossible"

    fd = _write_spec(tmp_path / "d.json", SolenoidSpec(2, QuadReal.sqrt_of(3) - 1, PAdic.from_int(2, 1)))
    code, rep = run_json(capsys, ["morita", "certify", "--spec-a", fa, "--spec-b", fd])
    assert code == 1 and rep["status"] == "inconclusive"


def test_morita_certify_bad_file_usage_error(tmp_path):
    missing = str(tmp_path / "nope.json")
    with pytest.raises(SystemExit) as exc:
        main(["morita", "certify", "--spec-a", missing, "--spec-b", missing])
    assert exc.value.code == 2
    zero_den = tmp_path / "zero.json"
    zero_den.write_text(json.dumps({"p": 2, "theta": "1/0", "digits": {"p": 2, "ord": 0, "preperiod": [1], "period": [0]}}))
    with pytest.raises(SystemExit) as exc:
        main(["morita", "certify", "--spec-a", str(zero_den), "--spec-b", str(zero_den)])
    assert exc.value.code == 2


def test_bimodule_verify_small(capsys):
    argv = [
        "bimodule", "verify", *SPEC_FLAGS,
        "--c0", "1", "--d0", "0", "--n", "0",
        "--seed", "4", "--points", "50", "--hats", "3",
    ]
    code, rep = run_json(capsys, argv)
    assert code == 0 and rep["pass"] is True
    assert set(rep["identities"]) == {
        "iota_left_action", "iota_right_action", "phi_left_inner", "psi_right_inner", "imprimitivity",
    }
    assert all(v <= 1e-9 for v in rep["identities"].values())


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


def test_spec_file_input(capsys, tmp_path):
    spec = SolenoidSpec(2, QuadReal.sqrt_of(2) - 1, PAdic.from_int(2, 1))
    f = _write_spec(tmp_path / "s.json", spec)
    code, rep = run_json(capsys, ["solenoid", "alpha", "--spec", f, "--n", "0"])
    assert code == 0
    assert QuadReal.parse(rep["alpha"]) == spec.theta
