"""Report-producing check runners: shapes, determinism, and failure surfacing."""

import json
from fractions import Fraction

import pytest

from ncsolenoid import cli, morita, suite
from ncsolenoid.bimodule import SamplePlan
from ncsolenoid.morita import ProjectionData, certificate_search
from ncsolenoid.multiplier import PhaseArg
from ncsolenoid.solenoid import SolenoidSpec
from ncsolenoid.padic import PAdic
from ncsolenoid.exactnum import PFrac, QuadReal
from ncsolenoid.suite import (
    check_annihilator,
    check_bimodule,
    check_cocycle,
    check_coherence,
    check_condition,
    check_eta_psi,
    check_from_even,
    check_involution,
    check_relate,
    default_spec,
    run_all,
)


def test_individual_checks_pass():
    spec = default_spec()
    assert check_cocycle(3, count=50)["pass"] is True
    assert check_annihilator(3, count=50)["pass"] is True
    assert check_eta_psi(3, count=30)["pass"] is True
    assert check_coherence(spec, entries=10)["pass"] is True
    assert check_from_even(spec, entries=6)["pass"] is True
    assert check_involution(3, count=5)["pass"] is True
    assert check_relate(3, count=2, entries=5)["pass"] is True


@pytest.mark.parametrize("theta", ["1+sqrt(2)", "sqrt(2)", "5/2", "-sqrt(3)", "-7/3"])
@pytest.mark.parametrize("p", [2, 3])
def test_from_even_reads_theta_outside_the_unit_interval(p, theta):
    # from_even_entries takes entries in [0, 1): floor(theta) has to move into the digit stream first
    spec = SolenoidSpec(p, QuadReal.parse(theta), PAdic.from_rational(p, Fraction(3, 5)))
    assert check_from_even(spec, entries=6) == {"name": "solenoid-from-even", "entries": 6, "pass": True}


def _reports() -> str:
    """Every suite runner, the pinned certify pairs and three bimodule levels, as one JSON string."""
    from test_golden import PAIRS, SPECS

    specs = {name: SolenoidSpec.from_json(obj) for name, obj in SPECS.items()}
    reports = [run_all(0), run_all(3)]
    reports += [certificate_search(specs[a], specs[b]).to_json() for a, b in PAIRS]
    for p, n in ((2, 1), (7, 0), (3, 1)):
        spec = SolenoidSpec(p, QuadReal.sqrt_of(2) - 1, PAdic.from_rational(p, 1))
        reports.append(check_bimodule(spec, ProjectionData(1, 1, 0), n, SamplePlan(seed=0, hats=6)))
    reports += [check_eta_psi(0, 120, default_spec(3)), check_relate(0), check_involution(0)]
    return json.dumps(reports, sort_keys=True)


def test_rationals_cross_layers_without_fractions(monkeypatch):
    # inside the package a rational travels as a PFrac, QuadReal or PAdic: no path reads one back as a Fraction
    want = _reports()

    def refuse(self):
        raise AssertionError(f"{type(self).__name__}.as_fraction read inside the package")

    monkeypatch.setattr(PFrac, "as_fraction", refuse)
    monkeypatch.setattr(PAdic, "as_fraction", refuse)
    assert _reports() == want


def test_check_condition_reports_gcd():
    good = check_condition(2, 1, 0, 1)
    assert good["pass"] is True and good["gcd"] == "1"
    bad = check_condition(2, 2, 2, 1)
    assert bad["pass"] is False and bad["gcd"] == "4"


def test_check_bimodule_report_shape():
    spec = default_spec()
    plan = SamplePlan(seed=2, hats=3, r_points=60, t_points=60)
    rep = check_bimodule(spec, ProjectionData(1, 1, 0), 0, plan)
    assert rep["pass"] is True
    assert set(rep["identities"]) == {
        "iota_left_action", "iota_right_action", "phi_left_inner", "psi_right_inner", "imprimitivity",
    }
    assert rep["max_error"] <= 1e-9


@pytest.mark.parametrize("p, n", [(p, n) for p in (5, 7) for n in range(4)])
def test_check_bimodule_holds_at_larger_primes_and_levels(p, n):
    # the phase offsets are reduced mod c in integers; in float they drifted by up to 1.3e-7 at p = 7, n = 3
    spec = SolenoidSpec(p, QuadReal.sqrt_of(2) - 1, PAdic.from_rational(p, 1))
    rep = check_bimodule(spec, ProjectionData(1, 1, 0), n, SamplePlan(seed=0, hats=6, r_points=120, t_points=120))
    assert "tolerance" not in rep  # every identity is exact: 0.0 or inf
    assert rep["pass"] is True and rep["max_error"] == 0.0


def test_check_coherence_flags_incoherent_spec():
    # a digit stream for p=3 attached to p=2 arithmetic cannot stay coherent
    broken = SolenoidSpec(2, QuadReal.sqrt_of(2) - 1, PAdic.from_rational(2, 1))
    rep = check_coherence(broken, entries=6)
    assert rep["pass"] is True  # sane spec stays coherent
    assert all(0 <= d < 2 for d in rep["defects"])


def test_run_all_deterministic_and_serializable():
    a = run_all(7)
    b = run_all(7)
    assert a == b
    assert a["pass"] is True and len(a["checks"]) >= 8
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = run_all(8)
    assert c["seed"] == 8 and c != a


def test_reports_carry_no_timings():
    rep = run_all(5)
    flat = json.dumps(rep)
    for word in ("time", "elapsed", "seconds", "duration"):
        assert word not in flat


def _assert_failed(report: dict, entries: str, shapes) -> list:
    """A failed report: pass false, strict JSON, and every entry of one of the documented key sets."""
    assert report["pass"] is False and report[entries]
    json.dumps(report, allow_nan=False)
    assert all(set(entry) in shapes for entry in report[entries])
    return report[entries]


def _broken_partner(monkeypatch):
    # the partner of x + p in place of x: its betas differ from the displayed Mobius images of x's alphas
    honest = morita.heisenberg_partner_spec
    monkeypatch.setattr(morita, "heisenberg_partner_spec",
                        lambda spec: honest(SolenoidSpec._of(spec.p, spec.theta, spec.digits + spec.p)))


def test_failing_multiplier_checks_report_their_inputs(monkeypatch):
    nonzero = lambda *args: PhaseArg.of(Fraction(1, 2))
    monkeypatch.setattr(suite, "cocycle_defect", nonzero)
    monkeypatch.setattr(suite, "psi_alpha", nonzero)  # the identity normalizes to 1/2, not 0
    found = _assert_failed(check_cocycle(0, count=3), "violations", ({"r", "s", "t", "defect"}, {"r", "defect"}))
    assert len(found) == 6 and found[1]["defect"] == "identity normalization"
    monkeypatch.setattr(suite, "rho", nonzero)
    assert len(_assert_failed(check_annihilator(0, count=3), "violations", ({"g", "s", "rho"},))) == 3
    monkeypatch.undo()
    monkeypatch.setattr(suite, "eta", lambda *args: None)
    monkeypatch.setattr(suite, "eta_bar", lambda *args: None)
    found = _assert_failed(check_eta_psi(0, count=2), "violations", ({"kind", "g", "h"},))
    assert [entry["kind"] for entry in found] == ["eta-vs-psi", "etabar-vs-partner-psi"] * 2


def test_failing_morita_checks_report_their_inputs(monkeypatch):
    _broken_partner(monkeypatch)
    assert morita.relate_check(default_spec(), 4) is False
    _assert_failed(check_relate(0, count=2), "failures", ({"p", "theta"},))
    monkeypatch.undo()

    def raises(spec, entries):
        raise ArithmeticError("broken")

    monkeypatch.setattr(suite, "relate_check", raises)
    found = _assert_failed(check_relate(0, count=2), "failures", ({"p", "theta", "error"},))
    assert {entry["error"] for entry in found} == {"broken"}
    twice = lambda spec: SolenoidSpec._of(spec.p, spec.theta, spec.digits + 1)  # back is x + 2, not x
    monkeypatch.setattr(suite, "heisenberg_partner_spec", twice)
    found = _assert_failed(check_involution(0, count=2), "violations", ({"p", "theta", "n"},))
    assert all(type(entry["n"]) is int for entry in found)


def test_a_failed_check_exits_1(monkeypatch, capsys):
    _broken_partner(monkeypatch)
    assert cli.main(["morita", "relate", "--p", "2", "--theta=-1+sqrt(2)", "--digits", "x=1"]) == 1
    assert json.loads(capsys.readouterr().out)["pass"] is False
