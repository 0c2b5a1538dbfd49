"""Report-producing check runners: shapes, determinism, and failure surfacing."""

import json

import pytest

from ncsolenoid.bimodule import SamplePlan
from ncsolenoid.morita import ProjectionData
from ncsolenoid.solenoid import SolenoidSpec
from ncsolenoid.padic import PAdic
from ncsolenoid.exactnum import QuadReal
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
