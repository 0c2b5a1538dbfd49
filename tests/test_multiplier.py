import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsolenoid.exactnum import PFrac, QuadReal, frac1
from ncsolenoid.padic import PAdic, PrecisionError
from ncsolenoid.multiplier import (
    GammaElem,
    MPoint,
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
from ncsolenoid.solenoid import SolenoidSpec, alpha_at

SQRT2 = QuadReal.sqrt_of(2)


def make_spec(p, theta, x):
    return SolenoidSpec(p, theta, PAdic.from_rational(p, x))


def rand_gamma(rng, p, kmax=5, jmax=40):
    return GammaElem(
        PFrac(p, rng.randint(-jmax, jmax), rng.randint(0, kmax)),
        PFrac(p, rng.randint(-jmax, jmax), rng.randint(0, kmax)),
    )


def rand_spec(rng, p):
    theta = frac1(
        QuadReal(Fraction(rng.randint(0, 20), 21), Fraction(rng.randint(1, 6), 7), rng.choice([2, 3, 5]))
    )
    num = rng.randint(1, 60)
    if num % p == 0:
        num += 1
    den = rng.choice([n for n in range(1, 30) if n % p])
    return make_spec(p, theta, Fraction(num, den))


def test_psi_frozen_cases():
    spec = make_spec(2, SQRT2 - 1, 1)
    g = GammaElem.of(2, 1, 0)
    h = GammaElem.of(2, 0, 1)
    assert psi_alpha(spec, g, h).value == SQRT2 - 1  # alpha_0
    g2 = GammaElem.of(2, Fraction(1, 2), 0)
    h2 = GammaElem.of(2, 0, Fraction(1, 2))
    assert psi_alpha(spec, g2, h2).value == SQRT2 / 4  # alpha_2


def test_psi_identity_normalization():
    spec = make_spec(3, QuadReal(Fraction(1, 2)), 2)
    e = GammaElem.identity(3)
    rng = random.Random(61)
    for _ in range(50):
        g = rand_gamma(rng, 3)
        assert psi_alpha(spec, g, e).is_zero
        assert psi_alpha(spec, e, g).is_zero


def test_cocycle_defect_vanishes():
    rng = random.Random(67)
    for p in (2, 3, 5):
        spec = rand_spec(rng, p)
        sigma = lambda g, h: psi_alpha(spec, g, h)
        for _ in range(100):
            r, s, t = (rand_gamma(rng, p) for _ in range(3))
            assert cocycle_defect(sigma, r, s, t).is_zero


def test_cocycle_defect_detects_corruption():
    spec = make_spec(2, SQRT2 - 1, 1)

    def broken(g, h):
        # wrong exponent: drops the second reduced denominator exponent
        k = g.first.k
        return PhaseArg.of(alpha_at(spec, k) * (g.first.j * h.second.j))

    rng = random.Random(71)
    hits = 0
    for _ in range(100):
        r, s, t = (rand_gamma(rng, 2) for _ in range(3))
        if not cocycle_defect(broken, r, s, t).is_zero:
            hits += 1
    assert hits > 0


def test_iota_embed_frozen():
    x = PAdic.from_rational(2, 3)
    theta = SQRT2 - 1
    g = GammaElem.of(2, Fraction(1, 2), 1)
    pt = iota_embed(x, theta, g)
    assert pt[0].q == PAdic.from_rational(2, Fraction(3, 2))
    assert pt[0].r == theta / 2
    assert pt[1].q == PAdic.from_rational(2, 1)
    assert pt[1].r == QuadReal(1)


def test_lambda_embed_frozen():
    x = PAdic.from_rational(5, 2)
    theta = QuadReal(0, 1, 5)
    s = GammaElem.of(5, 0, 1)
    pt = lambda_embed(x, theta, s)
    assert pt[0].q.is_zero and pt[0].r == QuadReal(0)
    assert pt[1].q == PAdic.from_rational(5, Fraction(-1, 2))
    assert pt[1].r == 1 / theta


def test_gamma_elem_of_keeps_one_base():
    assert GammaElem.of(3, PFrac(3, 1, 1), Fraction(2, 9)) == GammaElem(PFrac(3, 1, 1), PFrac(3, 2, 2))
    for a, b in ((PFrac(2, 1, 1), PFrac(2, 3, 0)), (1, PFrac(2, 1, 1))):
        with pytest.raises(ValueError, match="not 3$"):
            GammaElem.of(3, a, b)
    with pytest.raises(ValueError, match="not a p-power fraction"):
        GammaElem.of(3, Fraction(1, 2), 0)


def test_embed_rejects_degenerate_parameters():
    g = GammaElem.of(2, 1, 1)
    with pytest.raises(ValueError):
        iota_embed(PAdic.from_rational(2, 0), SQRT2, g)
    with pytest.raises(ValueError):
        lambda_embed(PAdic.from_rational(2, 1), QuadReal(0), g)


@pytest.mark.parametrize("embed", [iota_embed, lambda_embed])
def test_embeddings_share_their_input_check(embed):
    one = PAdic.from_rational(2, 1)
    cases = [
        ((PAdic.from_rational(2, 0), SQRT2, GammaElem.of(2, 1, 1)), "p-adic zero has no inverse"),
        ((one, QuadReal(0), GammaElem.of(2, 1, 1)), "theta must be nonzero"),
        ((one, SQRT2, GammaElem.of(3, 1, 1)), "prime mismatch between x and lattice point"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            embed(*args)


def test_eta_pullback_is_psi():
    # pairing pulled back along iota must reproduce the multiplier exactly
    rng = random.Random(73)
    for p in (2, 3, 5):
        spec = rand_spec(rng, p)
        x = spec.digits
        for _ in range(60):
            g, h = rand_gamma(rng, p, 4), rand_gamma(rng, p, 4)
            lhs = eta(iota_embed(x, spec.theta, g), iota_embed(x, spec.theta, h))
            assert lhs == psi_alpha(spec, g, h)


def test_rho_annihilator_vanishes():
    rng = random.Random(79)
    for p in (2, 3, 5):
        spec = rand_spec(rng, p)
        x = spec.digits
        for _ in range(60):
            g, s = rand_gamma(rng, p, 4), rand_gamma(rng, p, 4)
            assert rho(iota_embed(x, spec.theta, g), lambda_embed(x, spec.theta, s)).is_zero


def test_rho_generic_points_do_not_annihilate():
    spec = make_spec(2, SQRT2 - 1, 1)
    x = spec.digits
    g = GammaElem.of(2, 1, 0)
    h = GammaElem.of(2, 0, 1)
    val = rho(iota_embed(x, spec.theta, g), iota_embed(x, spec.theta, h))
    assert not val.is_zero  # equals alpha_0 - (-alpha_0) != 0 here


def test_eta_bar_on_lambda_matches_beta_multiplier():
    # the conjugate pairing on the annihilator reproduces the partner multiplier
    from ncsolenoid.morita import heisenberg_partner

    rng = random.Random(83)
    for p in (2, 3, 5):
        spec = rand_spec(rng, p)
        x = spec.digits
        window = heisenberg_partner(spec, 12)
        for _ in range(40):
            s, t = rand_gamma(rng, p, 4), rand_gamma(rng, p, 4)
            lhs = eta_bar(lambda_embed(x, spec.theta, s), lambda_embed(x, spec.theta, t))
            assert lhs == psi_from_window(window, s, t)


def test_eta_truncated_precision():
    # enough digits: frac part determined; too few: PrecisionError
    x = PAdic.from_rational(2, Fraction(3, 4))
    good = MPoint(x.truncate(5), QuadReal(0))
    other = MPoint(PAdic.from_rational(2, 1), QuadReal(0))
    P1 = (good, good)
    P2 = (other, other)
    exact = eta((MPoint(x, QuadReal(0)),) * 2, P2)
    assert eta(P1, P2) == exact
    starved = MPoint(x.truncate(-1), QuadReal(0))
    with pytest.raises(PrecisionError):
        eta((starved, starved), P2)


def test_eta_truncated_matches_exact():
    # truncating either coordinate gives the exact pairing or raises PrecisionError
    rng = random.Random(61)
    agreed = zeros = 0
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        x1, x4 = (
            PAdic.from_rational(p, 0 if rng.random() < 0.15 else Fraction(rng.randint(1, 60), rng.randint(1, 30)))
            * Fraction(p) ** rng.randint(-4, 4)
            for _ in range(2)
        )
        r1, r4 = QuadReal(Fraction(rng.randint(-9, 9), rng.randint(1, 9))), SQRT2 * rng.randint(-3, 3)
        exact = eta((MPoint(x1, r1),) * 2, (MPoint(x4, r4),) * 2)
        t1, t4 = x1.truncate(rng.randint(-6, 12)), x4.truncate(rng.randint(-6, 12))
        for a, b in ((t1, x4), (x1, t4), (t1, t4)):
            try:
                assert eta((MPoint(a, r1),) * 2, (MPoint(b, r4),) * 2) == exact
            except PrecisionError:
                continue
            agreed += 1
            zeros += x1.is_zero or x4.is_zero
    assert agreed > 300 and zeros > 50


def test_phase_arg_reduction():
    assert PhaseArg.of(QuadReal(Fraction(7, 3))).value == QuadReal(Fraction(1, 3))
    assert PhaseArg.of(QuadReal(-1, 1, 2)).value == SQRT2 - 1
    assert PhaseArg.of(Fraction(3, 2)) == PhaseArg.of(Fraction(1, 2))
    assert PhaseArg.of(Fraction(3, 2)).value == QuadReal(Fraction(1, 2))


# -- PhaseArg against the reduced representative ----------------------------------

# derandomized: every run checks the same examples; no example database is written
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)
rationals = st.fractions(min_value=-30, max_value=30, max_denominator=40)


@st.composite
def phase_triples(draw):
    """Three exact reals, all rational or all over one radicand."""
    D = draw(st.sampled_from([0, 2, 3, 5, 7]))
    # small coefficient sets make equal classes mod 1 common
    coeff = st.sampled_from([Fraction(k, 2) for k in range(-4, 5)]) if D else st.just(Fraction(0))
    return tuple(QuadReal(draw(rationals), draw(coeff), D) for _ in range(3))


@PROPERTY
@given(phase_triples())
def test_phase_arg_matches_reduced_reference(xyz):
    x, y, z = xyz
    X, Y, Z = (PhaseArg.of(v) for v in xyz)
    # each phase beside the unreduced value it stands for
    terms = [(X, x), (Y, y), (X + Y, x + y), (X - Y, x - y), (-X, -x), (X + Y - Z, x + y - z), (X - X, QuadReal(0))]
    for phase, t in terms:
        assert phase.is_zero == (frac1(t) == 0)
        assert phase.value == frac1(t) and str(phase) == str(frac1(t))
    for a, ta in terms:
        for b, tb in terms:
            assert (a == b) == (frac1(ta) == frac1(tb))
            if a == b:
                assert hash(a) == hash(b)


def test_phase_arg_compares_without_a_floor(monkeypatch):
    import ncsolenoid.exactnum as exactnum
    import ncsolenoid.multiplier as multiplier

    def refuse(*_):
        raise AssertionError("a comparison reduced its phase")

    x, y = QuadReal(Fraction(7, 3), Fraction(1, 2), 2), QuadReal(Fraction(-5, 3), Fraction(1, 2), 2)
    with monkeypatch.context() as m:
        for mod in (exactnum, multiplier):
            m.setattr(mod, "frac1", refuse)
        m.setattr(QuadReal, "__floor__", refuse)
        a, b = PhaseArg.of(x), PhaseArg.of(y)
        assert a == b and a - b == PhaseArg.of(0) and (a - b).is_zero and not (a + b).is_zero
        assert a != PhaseArg.of(QuadReal(Fraction(1, 3), Fraction(1, 2), 3))  # another field: never equal
        with pytest.raises(AssertionError, match="reduced"):
            a.value
    assert str(a) == str(b) == "(-4 + 3*sqrt(2))/6" and hash(a) == hash(b)
