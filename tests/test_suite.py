"""Report-producing check runners: shapes, determinism, and failure surfacing."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsolenoid import cli, morita, suite
from ncsolenoid.bimodule import SamplePlan
from ncsolenoid.morita import ProjectionData, certificate_search, heisenberg_partner
from ncsolenoid.multiplier import (
    GammaElem,
    PhaseArg,
    cocycle_defect,
    eta,
    eta_bar,
    iota_embed,
    lambda_embed,
    psi_alpha,
    psi_from_window,
    rho,
)
from ncsolenoid.solenoid import SolenoidSpec
from ncsolenoid.padic import PAdic
from ncsolenoid.exactnum import PFrac, QuadReal, frac1
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
    # one entry per failed comparison, naming the generators of its level: K triples for the cocycle, and the
    # levels 0..K for the pairings
    K = suite.K
    nonzero = lambda *args: PhaseArg.of(Fraction(1, 2))
    monkeypatch.setattr(suite, "cocycle_defect", nonzero)
    monkeypatch.setattr(suite, "psi_alpha", nonzero)  # the identity normalizes to 1/2, not 0
    found = _assert_failed(check_cocycle(), "violations", ({"r", "s", "t", "defect"}, {"r", "defect"}))
    assert len(found) == 2 * K and found[1]["defect"] == "identity normalization"
    assert found[0] == {"r": ["1/2", "0"], "s": ["1/2", "0"], "t": ["0", "1"], "defect": "1/2"}
    monkeypatch.setattr(suite, "rho", nonzero)
    found = _assert_failed(check_annihilator(), "violations", ({"g", "s", "rho"},))
    assert len(found) == 2 * (K + 1) and [found[0]["g"], found[1]["s"]] == [["1", "0"]] * 2
    monkeypatch.undo()
    monkeypatch.setattr(suite, "eta", lambda *args: None)
    monkeypatch.setattr(suite, "eta_bar", lambda *args: None)
    found = _assert_failed(check_eta_psi(), "violations", ({"kind", "g", "h"},))
    assert [entry["kind"] for entry in found] == ["eta-vs-psi", "etabar-vs-partner-psi"] * (K + 1)
    assert found[-1]["g"] == [f"1/2^{K}", "0"] and found[-1]["h"] == ["0", "1"]


def _gamma(p: int):
    """Elements of Z[1/p]^2 as the multiplier checks once sampled them: each coordinate j/p^k, |j| <= 40, k <= 4."""
    coordinate = st.builds(lambda j, k: PFrac(p, j, k), st.integers(-40, 40), st.integers(0, 4))
    return st.builds(GammaElem, coordinate, coordinate)


@st.composite
def _multiplier_case(draw):
    """A spec over p in {2, 3, 5, 7}, exact or known below a horizon, and three elements of Z[1/p]^2."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    a, b, D = draw(st.integers(0, 20)), draw(st.integers(1, 6)), draw(st.sampled_from((2, 3, 5)))
    num = draw(st.integers(-60, 60).filter(bool))
    den = draw(st.sampled_from([n for n in range(1, 30) if n % p]))
    x = PAdic.from_rational(p, Fraction(num, den))
    horizon = draw(st.none() | st.integers(0, 12))
    theta = frac1(QuadReal(Fraction(a, 21), Fraction(b, 7), D))
    spec = SolenoidSpec(p, theta, x if horizon is None else x.truncate(horizon))
    return spec, [draw(_gamma(p)) for _ in range(3)]


def _decided(check, spec):
    try:
        return check(spec=spec)
    except ValueError as exc:  # a level reads a digit past the horizon
        return exc


def _times(j: int, v: PhaseArg) -> PhaseArg:
    return PhaseArg(v.t * j)


@settings(max_examples=150, deadline=None)
@given(_multiplier_case())
def test_generators_decide_the_sampled_multiplier_identities(case):
    # the sampler these checks used is the oracle of their decision: on every sampled pair each identity holds, and
    # each compared value is j times its value at the generators (e_k, f) of its level, e_k = (1/p^k, 0), f = (0, 1),
    # for j/p^k = g1*h2 read off the reduced coordinates.  A pair that reads a digit past the horizon is one whose
    # level the decided check reads too, so the check raises as well
    spec, (g, h, s) = case
    p, x, theta = spec.p, spec.digits, spec.theta
    e = lambda k: GammaElem(PFrac(p, 1, k), PFrac(p, 0))
    f = GammaElem(PFrac(p, 0), PFrac(p, 1))
    level = lambda g, h: (g.first.k + h.second.k, g.first.j * h.second.j)
    decided = {check: _decided(check, spec) for check in (check_cocycle, check_annihilator, check_eta_psi)}

    def cocycle():
        sigma = lambda u, v: psi_alpha(spec, u, v)
        for u, v in ((g, h), (h, s), (g + h, s), (g, h + s)):
            k, j = level(u, v)
            assert sigma(u, v) == _times(j, sigma(e(k), f))
        zero = GammaElem.identity(p)
        assert cocycle_defect(sigma, g, h, s).is_zero and sigma(g, zero).is_zero and sigma(zero, g).is_zero

    def annihilator():
        value = lambda u, v: rho(iota_embed(x, theta, u), lambda_embed(x, theta, v))
        (a, j), (b, i) = level(g, s), level(s, g)
        assert value(g, s) == _times(j, value(e(a), f)) + _times(i, value(f, e(b)))
        assert value(g, s).is_zero

    def eta_psi():
        window = heisenberg_partner(spec, suite.K)
        k, j = level(g, h)
        pairs = (
            (lambda u, v: eta(iota_embed(x, theta, u), iota_embed(x, theta, v)), lambda u, v: psi_alpha(spec, u, v)),
            (lambda u, v: eta_bar(lambda_embed(x, theta, u), lambda_embed(x, theta, v)),
             lambda u, v: psi_from_window(window, u, v)),
        )
        for pairing, multiplier in pairs:
            for value in (pairing, multiplier):
                assert value(g, h) == _times(j, value(e(k), f))
            assert pairing(g, h) == multiplier(g, h)

    for check, identity in ((check_cocycle, cocycle), (check_annihilator, annihilator), (check_eta_psi, eta_psi)):
        try:
            identity()
        except ValueError:
            assert isinstance(decided[check], ValueError), check.__name__
            continue
        if not isinstance(decided[check], ValueError):
            assert decided[check]["pass"] is True


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
