"""Partner constructions: trace lines, Mobius normalization, Heisenberg route,
closed-form comparison, and the certificate search."""

import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncsolenoid
from ncsolenoid import exactnum, morita
from ncsolenoid.exactnum import MR_LIMIT, PFrac, QuadReal, frac1
from ncsolenoid.morita import (
    MAX_SEARCH_CANDIDATES,
    MAX_SEARCH_LEVEL,
    CertificateResult,
    ConditionError,
    MobiusPair,
    ProjectionData,
    SearchBounds,
    TraceLine,
    ab_normalized,
    certificate_search,
    checked_trace,
    condition_check,
    displayed_mobius,
    heisenberg_partner,
    heisenberg_partner_spec,
    level_table,
    partner_spec,
    projection_partner,
    relate_check,
    trace_line,
)
from ncsolenoid.padic import PAdic
from ncsolenoid.solenoid import (
    SolenoidSpec,
    alpha_at,
    alphas,
    coherence_check,
    equal_in_Xi,
    from_even_entries,
    truncate_spec,
)

ROOT2 = QuadReal.sqrt_of(2)
THETA = ROOT2 - 1  # quadratic irrational in (0,1)
# a det 1 image of THETA, so the same field and discriminant; at p = 2 no candidate of the default box matches it
SAME_FIELD = (THETA * 2 + 1) / (THETA + 1)


def unit_spec(p: int, theta: QuadReal, x0: int, rest: tuple[int, ...] = ()) -> SolenoidSpec:
    digits = PAdic(p, 0, (x0,) + rest, (0,))
    return SolenoidSpec(p, theta, digits)


def random_unit_spec(rng: random.Random, p: int) -> SolenoidSpec:
    # theta = (a + b*sqrt(D))/M arranged into (0, 1)
    D = rng.choice([2, 3, 5, 7])
    b = rng.randint(1, 3)
    M = rng.randint(2, 9)
    theta = frac1((QuadReal.sqrt_of(D) * b + rng.randint(-5, 5)) / M)
    if not theta:
        theta = frac1(QuadReal.sqrt_of(D))
    x0 = rng.randint(1, p - 1)
    pre = tuple(rng.randint(0, p - 1) for _ in range(rng.randint(0, 3)))
    per = tuple(rng.randint(0, p - 1) for _ in range(rng.randint(1, 3)))
    if all(d == 0 for d in pre + per):
        per = (1,)
    return SolenoidSpec(p, theta, PAdic(p, 0, (x0,) + pre, per))


def test_condition_check_frozen():
    assert condition_check(2, ProjectionData(1, 1, 0), 1) is True
    assert condition_check(2, ProjectionData(1, 1, 0), 0) is False  # gcd(2, 0) = 2
    assert condition_check(3, ProjectionData(6, 2, 3), 1) is True  # gcd(6, 1) = 1


def test_projection_data_validation():
    with pytest.raises(ValueError):
        ProjectionData(1, 0, 0)
    with pytest.raises(ValueError):
        ProjectionData(0, 1, 0)
    spec = unit_spec(2, THETA, 1)
    assert checked_trace(spec, ProjectionData(1, 1, 0)) == THETA  # meets the Condition
    with pytest.raises(ValueError, match=r"outside \(0, 1\)$"):
        checked_trace(spec, ProjectionData(1, 1, 1))  # trace > m, refused before the Condition (which it fails)
    with pytest.raises(ValueError, match=r"outside \(0, 1\)$"):
        checked_trace(spec, ProjectionData(1, 1, -1))  # trace < 0


def test_trace_line_frozen():
    spec = unit_spec(2, THETA, 1)
    proj = ProjectionData(1, 1, 0)
    l0 = trace_line(spec, proj, 0)
    assert (l0.c, l0.d) == (1, 0)
    l1 = trace_line(spec, proj, 1)
    assert (l1.c, l1.d) == (4, -1)


def test_mobius_pair_validation():
    # a pair is refused for a determinant 0 when it is built, and for one other than +-p**e when it acts
    MobiusPair(3, -1, 1, 0)  # det +1
    MobiusPair(0, 1, 1, 0)  # det -1
    with pytest.raises(ValueError, match="determinant must be nonzero"):
        MobiusPair(2, 4, 1, 2)
    spec = unit_spec(2, THETA, 1)
    with pytest.raises(ValueError, match=r"^determinant 6 is not a unit of Z\[1/2\]$"):
        MobiusPair(2, 0, 0, 3).act(spec)
    assert MobiusPair(2, 0, 0, 2).act(spec) == spec  # 2 I acts as I at p = 2
    with pytest.raises(ValueError, match=r"^determinant 4 is not a unit of Z\[1/3\]$"):
        MobiusPair(2, 0, 0, 2).act(SolenoidSpec(3, THETA, PAdic.from_rational(3, 1)))


ZERO_AND_INFINITY = """
from ncsolenoid.exactnum import QuadReal, _strip
from ncsolenoid.padic import PAdic
from ncsolenoid.solenoid import MobiusPair, SolenoidSpec
for p in (2, 3):
    spec = lambda x: SolenoidSpec(p, QuadReal.sqrt_of(2), PAdic.from_rational(p, x))
    for call in (lambda: _strip(0, p), lambda: MobiusPair(0, 1, 1, 0).act(spec(0)), lambda: MobiusPair(1, 0, 1, 1).act(spec(1))):
        try:
            call()
        except ValueError as exc:
            print(exc)
"""


def test_act_refuses_a_point_sent_to_infinity():
    # d - c x = 0 sends x to infinity, and _strip(0, p) raised "negative shift count" at p = 2 and looped forever at
    # p = 3: each now raises, which a subprocess with a time bound shows
    src = str(Path(ncsolenoid.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", ZERO_AND_INFINITY], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    lines = ["the exponent of p in 0 is unbounded", "(0 1; 1 0) sends x = 0 to infinity: d - c x = 0",
             "(1 0; 1 1) sends x = 1 to infinity: d - c x = 0"]
    assert proc.stdout.splitlines() == lines * 2


def test_ab_normalized_frozen():
    # (c, d) = (1, 0) at theta = sqrt(2)-1: raw image -1/theta, shifted by 3
    mob, beta = ab_normalized(TraceLine(0, 1, 0), THETA, THETA)
    assert (mob.a, mob.b, mob.c, mob.d) == (3, -1, 1, 0)
    assert mob.det == 1
    assert mob.apply(THETA) == beta == 2 - ROOT2
    # (c, d) = (1, 1): theta/(theta+1) already in (0,1)
    mob2, beta2 = ab_normalized(TraceLine(0, 1, 1), THETA, THETA + 1)
    assert (mob2.a, mob2.b) == (1, 0)
    assert mob2.apply(THETA) == beta2 == THETA / (THETA + 1)
    with pytest.raises(ConditionError):
        ab_normalized(TraceLine(0, 2, 4), THETA, THETA * 2 + 4)


def test_ab_normalized_random_properties():
    rng = random.Random(407)
    for _ in range(80):
        c = rng.randint(1, 40)
        d = rng.choice([x for x in range(-40, 41) if math.gcd(c, x) == 1])
        alpha = frac1(QuadReal.sqrt_of(rng.choice([2, 3, 5])) / rng.randint(2, 7))
        mob, beta = ab_normalized(TraceLine(0, c, d), alpha, alpha * c + d)
        assert mob.det == 1
        assert beta == mob.apply(alpha)
        assert QuadReal(0) <= beta < QuadReal(1)


def _ext_gcd(u: int, v: int) -> tuple[int, int, int]:
    """Extended Euclid, the reference Bezout pair: (g, s, t) with g = gcd(u, v) >= 0 and s*u + t*v = g."""
    old_r, r, old_s, s, old_t, t = abs(u), abs(v), 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, (old_s if u >= 0 else -old_s), (old_t if v >= 0 else -old_t)


@pytest.mark.parametrize("c", [1, -1, 2, -2, -5, -12, 37, -64])
def test_ab_normalized_matches_a_euclid_completion(c):
    # any det +1 completion, shifted into [0,1), gives the same pair: negative c and |c| = 1 included
    rng = random.Random(c)
    for d in [x for x in range(-30, 31) if math.gcd(c, x) == 1]:
        alpha = frac1(QuadReal.sqrt_of(rng.choice([2, 3, 5])) / rng.randint(2, 7))
        tau = alpha * c + d
        g, a, b = _ext_gcd(d, -c)
        assert g == 1 and a * d - b * c == 1
        raw = (alpha * a + b) / tau
        shift = -math.floor(raw)
        mob, beta = ab_normalized(TraceLine(0, c, d), alpha, tau)
        assert (mob.a, mob.b, mob.c, mob.d) == (a + shift * c, b + shift * d, c, d)
        assert beta == raw + shift == mob.apply(alpha) and mob.det == 1
    with pytest.raises(ConditionError) as exc:
        ab_normalized(TraceLine(3, 2 * c, 4), THETA, THETA * 2 * c + 4)
    assert exc.value.witness == (3, 2 * c, 4)


def test_heisenberg_partner_frozen_p2():
    spec = unit_spec(2, THETA, 1)
    assert heisenberg_partner(spec, 2) == (
        (0, ROOT2 + 1), (1, (ROOT2 + 1) / 2 + Fraction(1, 2)), (2, (ROOT2 + 1) / 4 + Fraction(1, 4)),
    )


def test_heisenberg_partner_frozen_p5():
    # x = 2 in Z_5 has inverse 3 + 2*5 + 2*25 + ..., so y_0 = 3
    theta = frac1(QuadReal.sqrt_of(3) / 2)
    spec = SolenoidSpec(5, theta, PAdic.from_rational(5, 2))
    win = heisenberg_partner(spec, 1)
    assert win[1] == (1, 1 / (theta * 5) + Fraction(3, 5))


def test_heisenberg_partner_errors():
    with pytest.raises(ValueError):
        heisenberg_partner(SolenoidSpec(2, THETA, PAdic.from_rational(2, 0)), 3)
    with pytest.raises(ValueError):
        heisenberg_partner(SolenoidSpec(2, QuadReal(0), PAdic.from_rational(2, 1)), 3)


def test_heisenberg_window_coherent_after_mod1():
    rng = random.Random(408)
    for p in (2, 3, 5):
        spec = random_unit_spec(rng, p)
        win = tuple((n, frac1(v)) for n, v in heisenberg_partner(spec, 8))
        defects = coherence_check(win, p, 1)
        assert all(0 <= d < p for d in defects)


def test_heisenberg_involution_exact_for_units():
    rng = random.Random(409)
    for _ in range(10):
        spec = random_unit_spec(rng, rng.choice([2, 3, 5]))
        back = heisenberg_partner_spec(heisenberg_partner_spec(spec))
        assert back == spec
        assert equal_in_Xi(back, spec, 10)


def test_heisenberg_partner_nonunit_digits():
    # x = 2*3 + 3^2 has ord 1; y = invert(x) has a fractional tail folded
    # into the partner theta, and the partner digit stream is integral
    spec = SolenoidSpec(3, THETA, PAdic.from_rational(3, Fraction(15)))
    partner = heisenberg_partner_spec(spec)
    assert partner.digits.is_zero or partner.digits.ord >= 0
    y = spec.digits.invert()
    win = heisenberg_partner(spec, 4)
    for n in range(5):
        expect = (1 / (THETA * 3**n)) + y.truncate_sum(y.ord, n - 1).as_fraction() / Fraction(3**n)
        assert win[n] == (n, expect)


def test_projection_partner_window_and_coherence():
    spec = unit_spec(2, THETA, 1)
    proj = ProjectionData(1, 1, 0)
    win = projection_partner(spec, proj, 3)
    assert [n for n, _ in win] == [0, 2, 4, 6]
    assert win[0] == (0, 2 - ROOT2)
    defects = coherence_check(win, 2, 2)
    assert all(isinstance(d, int) and 0 <= d < 4 for d in defects)


def test_projection_partner_condition_failure_witness():
    spec = unit_spec(2, THETA, 0, rest=(1,))  # x_0 = 0 makes gcd(2, 0) = 2
    with pytest.raises(ConditionError) as exc:
        projection_partner(spec, ProjectionData(1, 1, 0), 2)
    assert exc.value.witness is not None
    n, c, d = exc.value.witness
    assert n <= 25 and math.gcd(c, d) > 1


def test_lemma_coprimality_property():
    rng = random.Random(410)
    for _ in range(25):
        p = rng.choice([2, 3, 5])
        spec = random_unit_spec(rng, p)
        c0 = rng.randint(1, 6)
        d0 = rng.randint(0, 6)
        proj = ProjectionData(c0 + d0 + 1, c0, d0)
        if not condition_check(p, proj, spec.x(0)):
            continue
        for n in range(0, 51, 7):
            line = trace_line(spec, proj, n)
            assert math.gcd(line.c, line.d) == 1


def test_condition_failure_always_has_early_witness():
    rng = random.Random(411)
    found = 0
    while found < 20:
        p = rng.choice([2, 3, 5])
        spec = random_unit_spec(rng, p)
        c0 = rng.randint(1, 6)
        d0 = rng.randint(0, 6)
        proj = ProjectionData(c0 + d0 + 1, c0, d0)
        if condition_check(p, proj, spec.x(0)):
            continue
        found += 1
        hits = [n for n in range(26) if math.gcd(*(lambda L: (L.c, L.d))(trace_line(spec, proj, n))) > 1]
        assert hits and hits[0] <= 1


def test_displayed_mobius_frozen():
    spec = unit_spec(2, THETA, 1)
    m0 = displayed_mobius(spec, 0)
    assert (m0.a, m0.b, m0.c, m0.d) == (0, 1, 1, 0)
    assert m0.det == -1
    assert m0.apply(THETA) == 1 / THETA
    m1 = displayed_mobius(spec, 1)
    assert (m1.c, m1.d) == (4, -1)
    assert m1.det == -1


def test_relate_check_exact_agreement():
    assert relate_check(unit_spec(2, THETA, 1), 5)
    rng = random.Random(412)
    for p in (2, 3, 5, 7):
        for _ in range(3):
            assert relate_check(random_unit_spec(rng, p), 8)


def test_relate_check_rejects_nonunit():
    spec = SolenoidSpec(2, THETA, PAdic.from_rational(2, 2))  # x_0 = 0
    with pytest.raises(ValueError):
        relate_check(spec, 3)


def test_projection_vs_heisenberg_flip():
    # det +1 normalization lands on the mod-1 negative of the Heisenberg value
    spec = unit_spec(2, THETA, 1)
    proj_win = projection_partner(spec, ProjectionData(1, 1, 0), 8)
    heis = heisenberg_partner_spec(spec)
    recovered = from_even_entries(2, proj_win)
    flipped = SolenoidSpec(2, -heis.theta, -heis.digits)
    assert equal_in_Xi(recovered, flipped, 16)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 12), st.randoms(use_true_random=False))
def test_partner_spec_is_the_projection_tower(p, c0, rng):
    # rational digits of any sign and valuation, and any c0, p | c0 included; the row is drawn among those
    # that meet the Condition, with a positive trace
    theta = random_unit_spec(rng, p).theta
    den = rng.choice([d for d in range(1, 30) if d % p])
    spec = SolenoidSpec(p, theta, PAdic.from_rational(p, Fraction(rng.randint(-60, 60) * p ** rng.randint(0, 2), den)))
    rows = [d0 for d0 in range(-3 * c0, 3 * c0 + 1)
            if theta * c0 + d0 > 0 and condition_check(p, ProjectionData(1, c0, d0), spec.x(0))]
    d0 = rng.choice(rows)
    proj = ProjectionData(math.floor(theta * c0 + d0) + 1, c0, d0)
    partner = partner_spec(spec, proj)
    assert partner.digits.precision == math.inf and partner.digits.ord >= 0
    window = projection_partner(spec, proj, 10)
    assert [beta for _, beta in window] == [frac1(alpha) for alpha, _ in level_table(partner, 10)]
    assert window[0] == (0, partner.theta)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.sampled_from((2, 3, 5, 7)), st.randoms(use_true_random=False))
def test_heisenberg_route_is_the_unit_row_of_partner_spec(p, rng):
    # for a unit x the Heisenberg spec, negated, is exactly the tower of (m, c0, d0) = (1, 1, 0)
    spec = random_unit_spec(rng, p)
    assert partner_spec(spec, ProjectionData(1, 1, 0)) == _negated(heisenberg_partner_spec(spec))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 12), st.integers(0, 3), st.randoms(use_true_random=False))
def test_derived_specs_agree_below_their_precision(p, H, e, rng):
    # x of ord e, known below H: its digits from H up are changed, so only the known ones can agree.  truncate_spec
    # keeps H - k, partner_spec H, and the Heisenberg partner H - 2e, the precision of x^-1; each agrees with the
    # derived spec of the exact x at every level up to its precision, and reads no level past it
    unit = random_unit_spec(rng, p)
    exact = SolenoidSpec(p, unit.theta, unit.digits * p**e)
    noise = random_unit_spec(rng, p).digits * p**H
    spec = SolenoidSpec(p, exact.theta, (exact.digits + noise).truncate(H))
    k = rng.randint(0, H)
    proj = _planted_projection(rng, exact)
    derived = [
        (truncate_spec(spec, k), truncate_spec(exact, k), H - k),
        (partner_spec(spec, proj), partner_spec(exact, proj), H),
    ]
    if H < 2 * e:
        with pytest.raises(ValueError):  # x is zero to its precision, or x^-1 has no known fractional digit
            heisenberg_partner_spec(spec)
    else:
        derived.append((heisenberg_partner_spec(spec), heisenberg_partner_spec(exact), H - 2 * e))
    for window, tower, precision in derived:
        assert window.digits.precision == precision and tower.digits.precision == math.inf
        assert alphas(window, precision) == alphas(tower, precision)
        with pytest.raises(ValueError, match=rf"horizon {precision}\)$"):
            alpha_at(window, precision + 1)


def _product_rule_truncation(spec: SolenoidSpec, k: int) -> SolenoidSpec:
    """Reference truncation: (alpha_k, (x - h_k) * p^-k), its precision H - k by PAdic's product rule."""
    return SolenoidSpec(spec.p, alpha_at(spec, k), (spec.digits - spec.head(k)) * PFrac(spec.p, 1, k))


def _inverse_heisenberg(spec: SolenoidSpec) -> SolenoidSpec:
    """Reference Heisenberg partner: (1/theta + f, x^-1 - f), f the fractional part of x^-1, known below H - 2 ord x."""
    y = spec.digits.invert()
    fp = y.frac_part()
    return SolenoidSpec(spec.p, 1 / spec.theta + fp, y - fp)


def _hand_partner(spec: SolenoidSpec, proj: ProjectionData) -> SolenoidSpec:
    """Reference projection partner: y = (a0 n - b0 den)/(d0 den - c0 n) for x = n/den, at x's precision."""
    mob, beta = ab_normalized(TraceLine(0, proj.c0, proj.d0), spec.theta, checked_trace(spec, proj))
    x = spec.digits
    n = x.num * x.p**x.ord if x.num else 0
    y = PAdic._new(x.p, 0, mob.a * n - mob.b * x.den, proj.d0 * x.den - proj.c0 * n, x.precision)
    return SolenoidSpec(spec.p, beta, y)


def _product(g: MobiusPair, h: MobiusPair) -> MobiusPair:
    """The matrix product g h, which acts as h and then g."""
    return MobiusPair(g.a * h.a + g.b * h.c, g.a * h.b + g.b * h.d, g.c * h.a + g.d * h.c, g.c * h.b + g.d * h.d)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 14), st.integers(0, 3), st.booleans(),
       st.randoms(use_true_random=False))
def test_one_precision_rule_is_exact_and_act_equals_what_it_replaces(p, H, e, window, rng):
    # x of ord e, exact or known below H; x1 and x2 are exact extensions of the window that first differ at digit H.
    # Each matrix acts as its reference formula, and for a window its claimed precision P = H + e' - 2w is exact:
    # the images of x1 and x2 agree with the window's below P and differ at digit P
    unit = random_unit_spec(rng, p)
    x1 = unit.digits * p**e
    x2 = x1 + random_unit_spec(rng, p).digits * p**H
    s1, s2 = SolenoidSpec(p, unit.theta, x1), SolenoidSpec(p, unit.theta, x2)
    spec = SolenoidSpec(p, unit.theta, x1.truncate(H)) if window else s1
    k, f = rng.randint(0, H), rng.randint(-9, 9)
    proj = _planted_projection(rng, s1)
    shifted = SolenoidSpec(p, spec.theta - f, spec.digits + f)  # check_from_even's shift, by hand
    cases = [
        (MobiusPair(1, spec.head(k), 0, p**k), truncate_spec(spec, k), _product_rule_truncation(spec, k), H - k),
        (MobiusPair(1, -f, 0, 1), shifted, shifted, H),
        (ab_normalized(TraceLine(0, proj.c0, proj.d0), spec.theta, checked_trace(spec, proj))[0],
         partner_spec(spec, proj), _hand_partner(spec, proj), H),
    ]
    if window and H < 2 * e:
        with pytest.raises(ValueError):  # x is zero to its horizon, or x^-1 has no known fractional digit
            heisenberg_partner_spec(spec)
    else:
        fp = spec.digits.invert().frac_part()
        heisenberg = MobiusPair(fp.j, p**fp.k, p**fp.k, 0)
        cases.append((heisenberg, heisenberg_partner_spec(spec), _inverse_heisenberg(spec), H - 2 * e))
    for g, built, reference, P in cases:
        image = g.act(spec)
        assert image == reference == built
        for s, i in ((1, 1), (-1, 0), (-1, 2)):  # +-p**i g acts as g does
            assert MobiusPair(*(s * p**i * v for v in (g.a, g.b, g.c, g.d))).act(spec) == image
        if window:
            y1, y2 = g.act(s1), g.act(s2)
            assert image.digits.precision == P and y1.theta == image.theta == y2.theta
            assert y1.digits.truncate(P) == image.digits == y2.digits.truncate(P)
            assert y1.digits.truncate(P + 1) != y2.digits.truncate(P + 1)
        else:
            assert image.digits.precision == math.inf
    j = rng.randint(0, H - k)
    first = truncate_spec(spec, j)
    twice = truncate_spec(first, k)
    assert twice == truncate_spec(spec, j + k) and twice.digits.precision == (H - j - k if window else math.inf)
    tj, tk = MobiusPair(1, spec.head(j), 0, p**j), MobiusPair(1, first.head(k), 0, p**k)
    assert _product(tk, tj).act(spec) == twice


def test_partner_spec_keeps_the_horizon_and_the_condition():
    spec = unit_spec(2, THETA, 1)
    for H in (math.inf, 1, 6):
        assert partner_spec(SolenoidSpec(2, THETA, spec.digits.truncate(H)), ProjectionData(1, 1, 0)).digits.precision == H
    with pytest.raises(ValueError, match="horizon 0"):  # the Condition reads x_0
        partner_spec(SolenoidSpec(2, THETA, spec.digits.truncate(0)), ProjectionData(1, 1, 0))
    with pytest.raises(ConditionError):
        partner_spec(unit_spec(2, THETA, 0, rest=(1,)), ProjectionData(1, 1, 0))  # x_0 = 0: gcd(2, 0) = 2


def test_certificate_search_impossible_on_prime_mismatch():
    a = unit_spec(2, THETA, 1)
    b = SolenoidSpec(3, THETA, PAdic.from_rational(3, 1))
    res = certificate_search(a, b)
    assert res.status == "impossible"
    with pytest.raises(ValueError):
        res.certificate_json()


def test_certificate_search_round_trip():
    a = unit_spec(2, THETA, 1)
    b = heisenberg_partner_spec(a)
    res = certificate_search(a, b, SearchBounds(max_c0=4, entries=8))
    assert res.status == "found"
    assert (res.c0, res.d0, res.k) == (1, 0, 0)
    assert res.orientation == "flipped"
    cert = res.certificate_json()
    assert sorted(cert) == ["c0", "d0", "k", "m", "matched_entries", "precision"]
    assert cert["m"] == 1 and cert["matched_entries"] == [0, 2, 4, 6, 8, 10, 12, 14, 16]
    assert cert["precision"] == "every level"  # neither spec has a horizon


def test_certificate_search_inconclusive():
    a = unit_spec(2, THETA, 1)
    b = unit_spec(2, SAME_FIELD, 1)
    res = certificate_search(a, b, SearchBounds(max_c0=2, entries=4))
    assert res.status == "inconclusive"
    assert res.to_json() == {"status": "inconclusive"}


def test_search_bounds_reject_negative_entries():
    # an empty (or negative) window would match vacuously and report "found"
    with pytest.raises(ValueError):
        SearchBounds(entries=-1)
    assert SearchBounds(entries=0).entries == 0


def test_search_bounds_reject_bad_bounds():
    for kwargs in ({"max_c0": 0}, {"max_c0": -1}):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SearchBounds(**kwargs)
    with pytest.raises(ValueError, match="MAX_SEARCH_LEVEL"):
        SearchBounds(entries=MAX_SEARCH_LEVEL // 2 + 1)
    with pytest.raises(ValueError, match="MAX_SEARCH_CANDIDATES"):
        SearchBounds(max_c0=MAX_SEARCH_CANDIDATES + 1)
    with pytest.raises(TypeError):
        SearchBounds(max_k=4)  # the truncations read are worked out from the inputs
    with pytest.raises(TypeError):
        SearchBounds(max_d0=4)  # d0 is solved from entry 0
    # the largest accepted bounds
    bounds = SearchBounds(max_c0=MAX_SEARCH_CANDIDATES, entries=MAX_SEARCH_LEVEL // 2)
    assert (bounds.max_c0, bounds.entries) == (MAX_SEARCH_CANDIDATES, MAX_SEARCH_LEVEL // 2)


def _deepest_truncation(a: SolenoidSpec, bounds: SearchBounds) -> int:
    """The largest even k whose levels k..k+2*entries and digit x_k a search may read, by its three limits."""
    N, H = bounds.entries, a.digits.precision
    return max(
        (k for k in range(0, MAX_SEARCH_LEVEL + 1, 2)
         if k + 2 * N <= MAX_SEARCH_LEVEL
         and k + max(2 * N, 1) <= H
         and (k // 2 + 1) * bounds.max_c0 <= MAX_SEARCH_CANDIDATES),
        default=-1,
    )


def _digit_head(spec: SolenoidSpec, m: int) -> int:
    return sum(spec.x(j) * spec.p**j for j in range(m))


def test_level_table_matches_alpha_at():
    rng = random.Random(413)
    for p in (2, 3, 5, 7):
        specs = [random_unit_spec(rng, p) for _ in range(3)]
        specs.append(SolenoidSpec(p, THETA, PAdic.from_rational(p, Fraction(p * p, 1 - p**3))))  # x_0 = x_1 = 0
        specs.append(truncate_spec(specs[0], 3))
        for spec in specs:
            table = level_table(spec, 9)
            assert table == tuple((alpha_at(spec, 2 * n), _digit_head(spec, 2 * n)) for n in range(10))
            assert all(type(h) is int for _, h in table)
            assert alphas(spec, 18) == tuple((n, alpha_at(spec, n)) for n in range(19))
            assert [spec.head(m) for m in range(19)] == [_digit_head(spec, m) for m in range(19)]


def test_level_table_stops_where_alpha_at_does():
    rng = random.Random(414)
    for p in (2, 3, 5, 7):
        spec = random_unit_spec(rng, p)
        horizons = [SolenoidSpec(p, spec.theta, spec.digits.truncate(H)) for H in range(8)]
        horizons.append(from_even_entries(p, tuple((2 * n, frac1(alpha_at(spec, 2 * n))) for n in range(3))))
        for spec_h in horizons:
            H = spec_h.digits.precision
            for m in range(12):
                reads = [lambda: spec_h.head(m), lambda: alpha_at(spec_h, m), lambda: alphas(spec_h, m)]
                if m % 2 == 0:
                    reads.append(lambda: level_table(spec_h, m // 2))
                if m > H:
                    # every read names the first missing digit the same way
                    for read in reads + [lambda: spec_h.x(m - 1)]:
                        with pytest.raises(ValueError, match=rf"^digit x_{H} is beyond the known window \(horizon {H}\)$"):
                            read()
                    continue
                assert spec_h.head(m) == _digit_head(spec_h, m)
                assert alphas(spec_h, m) == tuple((n, alpha_at(spec_h, n)) for n in range(m + 1))
                if m % 2 == 0:
                    assert level_table(spec_h, m // 2) == tuple(
                        (alpha_at(spec_h, n), _digit_head(spec_h, n)) for n in range(0, m + 1, 2)
                    )


def _reference_search(
    a: SolenoidSpec, b: SolenoidSpec, bounds: SearchBounds, deepest: int, max_d0: int
) -> CertificateResult:
    """The search as a plain loop over the box |d0| <= max_d0 on the truncations k <= deepest.

    It reads alpha_at and MobiusPair.apply at every level.
    """
    if a.p != b.p:
        return CertificateResult("impossible", reason="prime", invariants=(a.p, b.p))
    N = bounds.entries
    try:
        targets = [alpha_at(b, 2 * n) for n in range(N + 1)]
    except ValueError:
        return CertificateResult(status="inconclusive")
    for k in range(0, deepest + 1, 2):
        t = truncate_spec(a, k)
        for c0 in range(1, bounds.max_c0 + 1):
            for d0 in range(-max_d0, max_d0 + 1):
                tau = t.theta * c0 + d0
                if not tau > 0 or not condition_check(t.p, ProjectionData(1, c0, d0), t.x(0)):
                    continue
                values = []
                for n in range(N + 1):
                    alpha = alpha_at(t, 2 * n)
                    c, d = c0 * t.p ** (2 * n), d0 - c0 * _digit_head(t, 2 * n)
                    assert alpha * c + d == tau
                    g, u, v = _ext_gcd(d, -c)
                    assert g == 1
                    values.append(frac1(MobiusPair(u, v, c, d).apply(alpha)))
                for orientation, sign in (("direct", 1), ("flipped", -1)):
                    if values == [frac1(sign * x) for x in targets]:
                        # the search's precision: the smaller digit precision of t and b
                        H = min(t.digits.precision, b.digits.precision)
                        entries = tuple(range(0, 2 * N + 1, 2))
                        return CertificateResult(
                            "found", c0, d0, math.floor(tau) + 1, k, entries, orientation, precision=H
                        )
    return CertificateResult(status="inconclusive")


def _planted_projection(rng: random.Random, t: SolenoidSpec) -> ProjectionData:
    """A random projection (c0, d0) of t that meets the Condition."""
    cands = [(c0, d0) for c0 in (1, 2, 3) for d0 in range(-2, 3)
             if t.theta * c0 + d0 > 0 and condition_check(t.p, ProjectionData(1, c0, d0), t.x(0))]
    c0, d0 = rng.choice(cands)
    return ProjectionData(math.floor(t.theta * c0 + d0) + 1, c0, d0)


def _planted_window(rng: random.Random, a: SolenoidSpec, k: int, N: int) -> tuple[tuple[int, QuadReal], ...]:
    """The partner window of a's truncation k through a random (c0, d0) that meets the Condition."""
    t = truncate_spec(a, k)
    return projection_partner(t, _planted_projection(rng, t), N)


def _random_search_pairs(rng: random.Random, count: int):
    """(kind, a, b) pairs over one prime: partners at k = 0, planted partners, unrelated b, short horizons."""
    kinds = ("heisenberg", "planted", "unrelated", "short-horizon")
    for i in range(count):
        p = (2, 3, 5, 7)[i % 4]
        kind = kinds[(i // 4) % 4]
        a = random_unit_spec(rng, p)
        if kind == "heisenberg":
            yield kind, a, heisenberg_partner_spec(a)
        elif kind == "unrelated":
            yield kind, a, random_unit_spec(rng, p)
        else:
            planted = _planted_window(rng, a, rng.choice((0, 2, 4)), 5)
            keep = 6 if kind == "planted" else rng.randint(1, 5)
            yield kind, a, from_even_entries(p, planted[:keep])


def _window_matches(a: SolenoidSpec, b: SolenoidSpec, res: CertificateResult, N: int) -> bool:
    """Is res's partner window of a, re-derived through projection_partner, b's canonical window or its mod-1 flip?"""
    window = projection_partner(truncate_spec(a, res.k), ProjectionData(res.m, res.c0, res.d0), N)
    sign = 1 if res.orientation == "direct" else -1
    return [beta for _, beta in window] == [frac1(sign * alpha) for alpha, _ in level_table(b, N)]


def _assert_certificate(a: SolenoidSpec, b: SolenoidSpec, res: CertificateResult, N: int) -> None:
    assert _window_matches(a, b, res, N)


def _assert_matches_reference(
    a: SolenoidSpec, b: SolenoidSpec, bounds: SearchBounds, max_d0: int
) -> tuple[CertificateResult, CertificateResult]:
    res, ref = certificate_search(a, b, bounds), _reference_search(a, b, bounds, _deepest_truncation(a, bounds), max_d0)
    if res.reason in ("field", "discriminant"):
        # the loop knows no field or discriminant: where they decide, its box finds nothing
        assert ref.status == "inconclusive"
    elif res != ref and res.status == "inconclusive":
        # the loop compares a window only, the search the whole tower: the loop's certificate misses b by level 40
        assert a.digits.precision == b.digits.precision == math.inf and not _window_matches(a, b, ref, 20)
    elif res != ref:
        # the search solves d0 past the box: its certificate comes first in (k, c0, d0) order, and it verifies
        assert res.status == "found" and abs(res.d0) > max_d0
        assert ref.status == "inconclusive" or (ref.k, ref.c0, ref.d0) > (res.k, res.c0, res.d0)
        _assert_certificate(a, b, res, bounds.entries)
    return res, ref


def test_certificate_search_matches_reference_loop():
    bounds = SearchBounds(max_c0=3, entries=5)
    seen = set()
    for name, (a, b) in _pinned_search_pairs().items():
        _assert_matches_reference(a, b, SearchBounds(), 4)
    for kind, a, b in _random_search_pairs(random.Random(415), 48):
        res, _ = _assert_matches_reference(a, b, bounds, 2)
        seen.add((kind, res.status, res.reason or res.orientation))
    # the pinned same-field pair keeps an exhausted box in the comparison; no unrelated pair shares field and discriminant
    assert {("heisenberg", "found", "flipped"), ("planted", "found", "direct"), ("unrelated", "impossible", "field"),
            ("unrelated", "impossible", "discriminant"), ("short-horizon", "inconclusive", None)} <= seen


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.sampled_from((2, 3, 5, 7)), st.sampled_from(("heisenberg", 0, 2, 4, 6, 8)), st.randoms(use_true_random=False))
def test_found_pairs_share_field_and_discriminant(p, k, rng):
    a = random_unit_spec(rng, p)
    b = heisenberg_partner_spec(a) if k == "heisenberg" else from_even_entries(p, _planted_window(rng, a, k, 4))
    _, ref = _assert_matches_reference(a, b, SearchBounds(max_c0=3, entries=4), 2)
    assert ref.status == "found"  # the plain box, which compares no invariant
    assert morita.invariants(a) == morita.invariants(b)
    assert truncate_spec(a, ref.k).theta.discriminant() == b.theta.discriminant()


def _negated(spec: SolenoidSpec) -> SolenoidSpec:
    """The spec (frac1(-theta), -x - (frac1(-theta) + theta)), whose alpha_n is -alpha_n mod 1; same precision."""
    theta = frac1(-spec.theta)  # -theta - floor(-theta), so -x - (theta' + theta) = -x + floor(-theta)
    return SolenoidSpec(spec.p, theta, -spec.digits + math.floor(-spec.theta))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.sampled_from((2, 3, 5, 7)), st.sampled_from(("heisenberg", 0, 2, 4, 6, 8)), st.randoms(use_true_random=False))
def test_negating_b_swaps_only_the_orientation(p, k, rng):
    # -b has b's invariants and exact discriminant, so the same truncations are read; its entry-0 roots are
    # b's (the shifts q and -q form one set), and its direct images are b's flipped ones.  So the search
    # meets the same first candidate, matched the other way round.  Both orientations match only when
    # every entry is 0 or 1/2, which no irrational theta gives
    a = random_unit_spec(rng, p)
    b = heisenberg_partner_spec(a) if k == "heisenberg" else from_even_entries(p, _planted_window(rng, a, k, 4))
    neg = _negated(b)
    assert [frac1(v) for v, _ in level_table(neg, 4)] == [frac1(-v) for v, _ in level_table(b, 4)]
    bounds = SearchBounds(max_c0=3, entries=4)
    res, res_neg = certificate_search(a, b, bounds), certificate_search(a, neg, bounds)
    assert res.status == res_neg.status == "found"
    cert = lambda r: (r.c0, r.d0, r.m, r.k, r.matched_entries)
    assert cert(res_neg) == cert(res)
    assert {res.orientation, res_neg.orientation} == {"direct", "flipped"}


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.sampled_from((2, 3, 5, 7)), st.sampled_from(("heisenberg", 0, 2, 4, 6, 8)), st.randoms(use_true_random=False))
def test_found_holds_past_its_window(p, k, rng):
    # b has no horizon, so a found certificate holds at every level, not only in its window of levels 0..8:
    # re-derived through projection_partner, it matches b up to level 40
    a = random_unit_spec(rng, p)
    if k == "heisenberg":
        b = heisenberg_partner_spec(a)
    else:
        t = truncate_spec(a, k)
        b = partner_spec(t, _planted_projection(rng, t))
    res = certificate_search(a, b, SearchBounds(max_c0=3, entries=4))
    assert res.status == "found"
    _assert_certificate(a, b, res, 20)


def _pinned_search_pairs():
    first = unit_spec(2, THETA, 1)
    same_theta = lambda x: SolenoidSpec(3, QuadReal.parse("(1+sqrt(2))/3"), PAdic.from_rational(3, x))
    a = SolenoidSpec(3, QuadReal.parse("(1 + 1*sqrt(5))/4"), PAdic.from_rational(3, Fraction(2, 5)))
    # (c0, d0) = (3, -1) at truncation 4 satisfies the Condition, with trace in (0, 1)
    planted = projection_partner(truncate_spec(a, 4), ProjectionData(1, 3, -1), 8)
    # (c0, d0) = (1, 0) of sqrt(2) - 1 at x = 3/5 has the partner tower (2 - sqrt(2), -14/3)
    window_a = SolenoidSpec(2, THETA, PAdic.from_rational(2, Fraction(3, 5)))
    tower = lambda x: SolenoidSpec(2, 2 - ROOT2, PAdic.from_rational(2, x))
    return {
        "first-candidate": (first, heisenberg_partner_spec(first)),
        "planted": (a, from_even_entries(3, planted)),
        # d0 = 7, past |d0| <= 4: found only because d0 is solved from entry 0
        "wide-planted": (a, from_even_entries(3, projection_partner(truncate_spec(a, 4), ProjectionData(8, 1, 7), 8))),
        "different-fields": (first, unit_spec(2, QuadReal.sqrt_of(3) - 1, 1)),
        # digits known up to x_5 only: entries 8..16 of the window cannot be compared
        "short-horizon": (a, from_even_entries(3, planted[:4])),
        # primitive discriminants 8 = 2 * 2^2 and 72 = 18 * 2^2
        "different-discriminants": (first, unit_spec(2, QuadReal.parse("(1+sqrt(2))/3"), 1)),
        "same-field": (first, unit_spec(2, SAME_FIELD, 1)),
        # one theta, two digit streams: the one row that meets the Condition, (3, -2), fails at entry 0
        "same-theta": (same_theta(Fraction(-55, 8)), same_theta(Fraction(1, 26))),
        # the partner as a: the row (1, -2) matches entries 0 and 2 and fails at 4, before (1, 0) is found
        "reversed-partner": (heisenberg_partner_spec(first), first),
        "closed-form": (window_a, tower(Fraction(-14, 3))),
        # the tower with digit 17 changed: it matches the default window, levels 0..16, and differs at 18 and 20
        "past-window": (window_a, tower(Fraction(-14, 3) + 2**17)),
    }


@pytest.mark.parametrize(
    "name, expected",
    [
        ("first-candidate", {
            "status": "found", "orientation": "flipped",
            "certificate": {"c0": 1, "d0": 0, "m": 1, "k": 0, "matched_entries": list(range(0, 17, 2)), "precision": "every level"},
        }),
        ("planted", {
            "status": "found", "orientation": "direct",
            "certificate": {"c0": 3, "d0": -1, "m": 1, "k": 4, "matched_entries": list(range(0, 17, 2)), "precision": 16},
        }),
        ("different-fields", {"status": "impossible", "reason": "field", "invariants": {"a": 2, "b": 3}}),
        ("short-horizon", {"status": "inconclusive"}),
        ("different-discriminants", {"status": "impossible", "reason": "discriminant", "invariants": {"a": 2, "b": 18}}),
        ("same-field", {"status": "inconclusive"}),
        ("wide-planted", {
            "status": "found", "orientation": "direct",
            "certificate": {"c0": 1, "d0": 7, "m": 8, "k": 4, "matched_entries": list(range(0, 17, 2)), "precision": 16},
        }),
        ("closed-form", {
            "status": "found", "orientation": "direct",
            "certificate": {"c0": 1, "d0": 0, "m": 1, "k": 0, "matched_entries": list(range(0, 17, 2)), "precision": "every level"},
        }),
        ("past-window", {"status": "inconclusive"}),
    ],
)
def test_certificate_search_pinned_pairs(name, expected):
    a, b = _pinned_search_pairs()[name]
    assert certificate_search(a, b).to_json() == expected


def _conjugate(x: QuadReal) -> QuadReal:
    return QuadReal(Fraction(x.A, x.M), Fraction(-x.B, x.M), x.D)


def _norm_fits(alpha: QuadReal, theta: QuadReal, c0: int, d0: int) -> bool:
    """Entry 0's necessary condition on (c0, d0), in QuadReal arithmetic, with tau = c0*alpha + d0.

    A det +1 image g.alpha = +-theta + n has g.alpha - conj(g.alpha) = (alpha - conj(alpha)) / N(tau); for a
    rational alpha = A/M, g.alpha has the reduced denominator |tau| * M, which must be theta's, and tau > 0.
    """
    tau = alpha * c0 + d0
    if alpha.B == 0:
        return tau * alpha.M == theta.M
    step = (theta - _conjugate(theta)) * tau * _conjugate(tau)
    return alpha - _conjugate(alpha) in (step, -step)


DROP_CASES = {
    "different-fields": 0, "same-field": 0, "first-candidate": 0, "planted": 0, "same-theta": 1, "reversed-partner": 1,
    "past-window": 3,
}


@pytest.mark.parametrize("name, rejected", DROP_CASES.items(), ids=DROP_CASES)
def test_search_drops_a_candidate_at_its_first_mismatch(monkeypatch, name, rejected):
    # a candidate is decided by one equation on its partner spec, the whole tower: no level is read stage by stage,
    # and the search has checked tau and the Condition itself, so it runs no checked_trace
    a, b = _pinned_search_pairs()[name]
    bounds = SearchBounds()
    stages, traced, decided = [], [], []
    stage, trace, spec_of = morita.stage, morita.checked_trace, morita._partner_spec
    monkeypatch.setattr(morita, "stage", lambda *args: stages.append(args) or stage(*args))
    monkeypatch.setattr(morita, "checked_trace", lambda *args: traced.append(args) or trace(*args))
    monkeypatch.setattr(
        morita, "_partner_spec", lambda t, proj, tau: decided.append((t, proj.c0, proj.d0)) or spec_of(t, proj, tau)
    )
    res = certificate_search(a, b, bounds)
    assert stages == traced == []
    if res.status == "impossible":
        assert decided == []  # decided from the invariants, before any candidate
        return
    # candidates that pass the Condition and entry 0's norm equation, in search order, up to the found one;
    # a truncation whose exact discriminant differs from theta_b's is skipped
    passing = []
    for k in range(0, _deepest_truncation(a, bounds) + 1, 2):
        t = truncate_spec(a, k)
        if t.theta.discriminant() != b.theta.discriminant():
            continue
        passing += [(k, c0, d0) for c0 in range(1, bounds.max_c0 + 1) for d0 in range(-40, 41)
                    if t.theta * c0 + d0 > 0 and condition_check(t.p, ProjectionData(1, c0, d0), t.x(0))
                    and _norm_fits(t.theta, b.theta, c0, d0)]
    assert all(abs(d0) < 40 for _, _, d0 in passing)  # the box holds every solution
    if res.status == "found":
        passing = passing[: passing.index((res.k, res.c0, res.d0)) + 1]
    assert len(passing) - (res.status == "found") == rejected
    assert decided == [(truncate_spec(a, k), c0, d0) for k, c0, d0 in passing]


def _entry0_matches(alpha: QuadReal, theta: QuadReal, c0: int, d0: int) -> bool:
    """Is the det +1 image of alpha with bottom row (c0, d0) theta or -theta mod 1?"""
    g, u, v = _ext_gcd(d0, -c0)
    return g == 1 and frac1(MobiusPair(u, v, c0, d0).apply(alpha)) in (frac1(theta), frac1(-theta))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    st.sampled_from((2, 3, 5, 7)), st.sampled_from((0, 2, 4)), st.booleans(), st.booleans(),
    st.randoms(use_true_random=False),
)
def test_entry0_rows_hold_every_match(p, k, rational, image, rng):
    # alpha a truncation (or a rational), theta of its field: +-g.alpha + n for a random row, or unrelated
    if rational:
        alpha = QuadReal(Fraction(rng.randint(-50, 50), rng.randint(1, 30)))
    else:
        alpha = truncate_spec(random_unit_spec(rng, p), k).theta
    if image:
        c0, d0 = rng.choice([(c0, d0) for c0 in range(1, 7) for d0 in range(-40, 41) if math.gcd(c0, d0) == 1])
        _, u, v = _ext_gcd(d0, -c0)
        theta = MobiusPair(u, v, c0, d0).apply(alpha) * rng.choice((1, -1)) + rng.randint(-3, 3)
    else:
        rational_part = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        theta = QuadReal(rational_part, Fraction(rng.randint(1, 3), rng.randint(1, 9)), alpha.D)
    rows = list(morita._entry0_rows(alpha, theta, 6))
    assert rows == sorted(set(rows)) and all(sum(c0 == c for c, _ in rows) <= 4 for c0 in range(1, 7))
    box = [(c0, d0) for c0 in range(1, 7) for d0 in range(-40, 41)]
    # entry 0 exists for a positive trace only
    assert {(c0, d0) for c0, d0 in box if alpha * c0 + d0 > 0 and _entry0_matches(alpha, theta, c0, d0)} <= set(rows)
    assert [row for row in box if _norm_fits(alpha, theta, *row)] == [row for row in rows if abs(row[1]) <= 40]
    if image and alpha * c0 + d0 > 0:
        assert (c0, d0) in rows


def test_search_reads_only_truncations_with_b_s_discriminant(monkeypatch):
    a, b = _pinned_search_pairs()["planted"]
    read = []
    spec_of = morita._partner_spec
    monkeypatch.setattr(morita, "_partner_spec", lambda spec, proj, tau: read.append(spec) or spec_of(spec, proj, tau))
    assert certificate_search(a, b).k == 4
    assert read == [truncate_spec(a, 4)]  # k = 0 and 2 have another exact discriminant


@pytest.mark.parametrize(
    "bounds, horizon, deepest",
    [
        (SearchBounds(), math.inf, 16),  # MAX_SEARCH_LEVEL - 2*8
        (SearchBounds(max_c0=58, entries=0), math.inf, MAX_SEARCH_LEVEL),  # 17 truncations of 58 c0 values
        (SearchBounds(max_c0=200), math.inf, 8),  # 5 truncations of 200
        (SearchBounds(), 21, 4),  # 4 + 16 <= 21
        (SearchBounds(entries=0), 21, 20),  # x_20 is the last known digit
        (SearchBounds(entries=11), 21, -1),  # no window fits: nothing is read
    ],
    ids=["level", "candidates", "box", "horizon", "horizon-digit", "no-window"],
)
def test_search_reads_every_truncation_up_to_the_deepest(monkeypatch, bounds, horizon, deepest):
    # a rational theta has discriminant 0 at every k, so no truncation is skipped; b matches no row of these
    # bounds (2/7 matches (c0, d0) = (16, -3) at k = 0 and 0 entries)
    a = SolenoidSpec(2, QuadReal.parse("1/3"), PAdic.from_rational(2, Fraction(3, 5)).truncate(horizon))
    b = SolenoidSpec(2, QuadReal.parse("2/97"), PAdic.from_rational(2, Fraction(3, 5)))
    assert _deepest_truncation(a, bounds) == deepest
    # few c0 have a d0 at all here, so the truncations built are counted, not the level tables read
    read = []
    monkeypatch.setattr(morita, "truncate_spec", lambda spec, k: read.append(k) or truncate_spec(spec, k))
    assert certificate_search(a, b, bounds).status == "inconclusive"
    assert read == list(range(0, deepest + 1, 2))


def test_search_proves_no_prime_per_truncation(monkeypatch):
    # a truncation's p is that of the spec it is read off, proved when that spec was built: at the largest
    # prime below MR_LIMIT, proving it twice for each of the 16 truncations k > 0 took most of this search
    p = MR_LIMIT - 168
    a = SolenoidSpec(p, QuadReal.parse("1/3"), PAdic.from_rational(p, Fraction(3, 5)))
    b = SolenoidSpec(p, QuadReal.parse("2/97"), PAdic.from_rational(p, Fraction(3, 5)))
    proved, built = [], []
    monkeypatch.setattr(exactnum, "is_prime", lambda n: proved.append(n) or True)
    monkeypatch.setattr(morita, "truncate_spec", lambda spec, k: built.append(k) or truncate_spec(spec, k))
    assert certificate_search(a, b, SearchBounds(max_c0=58, entries=0)).status == "inconclusive"
    assert built == list(range(0, MAX_SEARCH_LEVEL + 1, 2)) and proved == []


@pytest.mark.parametrize("k", [6, 12])
def test_deep_planted_partner_found_at_default_bounds(k):
    # the offset is found, not chosen: a partner planted past k = 4 is found at its own truncation
    rng = random.Random(416)
    for p in (2, 3, 5, 7):
        a = random_unit_spec(rng, p)
        b = from_even_entries(p, _planted_window(rng, a, k, SearchBounds().entries))
        res = certificate_search(a, b)
        assert (res.status, res.k) == ("found", k)
        _assert_certificate(a, b, res, SearchBounds().entries)


@pytest.mark.parametrize("d0_abs", [5, 9, 12])
def test_wide_planted_partner_found_at_default_bounds(d0_abs):
    # d0 is solved from entry 0, not bounded: a partner planted past |d0| = 4 is found at its own row
    rng = random.Random(417)
    N = SearchBounds().entries
    for p in (2, 3, 5, 7):
        rows = []
        while not rows:  # a digit x_k = 0 can leave no row at this |d0|
            a, k = random_unit_spec(rng, p), rng.choice((0, 2, 4))
            t = truncate_spec(a, k)
            rows = [(c0, d0) for c0 in range(1, 5) for d0 in (-d0_abs, d0_abs)
                    if t.theta * c0 + d0 > 0 and condition_check(p, ProjectionData(1, c0, d0), t.x(0))]
        c0, d0 = rng.choice(rows)
        b = from_even_entries(p, projection_partner(t, ProjectionData(math.floor(t.theta * c0 + d0) + 1, c0, d0), N))
        res = certificate_search(a, b)
        assert (res.status, res.k, res.c0, res.d0) == ("found", k, c0, d0)
        _assert_certificate(a, b, res, N)


def test_short_horizon_matches_inside_its_window():
    a, b = _pinned_search_pairs()["short-horizon"]
    res = certificate_search(a, b, SearchBounds(entries=3))
    assert (res.status, res.c0, res.d0, res.k, res.matched_entries) == ("found", 3, -1, 4, (0, 2, 4, 6))


def test_found_states_its_precision():
    # planted: b's horizon 16 bounds the proof, past the window 0..6; closed-form has no horizon: every level
    found = [certificate_search(*_pinned_search_pairs()[name], SearchBounds(entries=3)) for name in ("planted", "closed-form")]
    assert [res.certificate_json()["precision"] for res in found] == [16, "every level"]


def test_invariants_raise_under_python_O():
    # python -O strips assert statements; the level invariants must still fire
    script = textwrap.dedent(
        """
        import sys
        from ncsolenoid import bimodule, morita
        from ncsolenoid.exactnum import QuadReal
        from ncsolenoid.padic import PAdic
        from ncsolenoid.solenoid import SolenoidSpec, alpha_at, level_table

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        spec = SolenoidSpec(2, QuadReal.sqrt_of(2) - 1, PAdic.from_rational(2, 1))
        proj = morita.ProjectionData(1, 1, 0)
        # a wrong alpha where each reads its levels: projection_partner a table, BimCtx.build one level
        morita.level_table = lambda s, N: tuple((alpha + 1, h) for alpha, h in level_table(s, N))
        bimodule.alpha_at = lambda s, n: alpha_at(s, n) + 1
        for call in (lambda: morita.projection_partner(spec, proj, 2), lambda: bimodule.BimCtx.build(spec, proj, 1)):
            try:
                call()
            except ArithmeticError:
                continue
            sys.exit("returned despite a wrong alpha")
        print("raised")
        """
    )
    src = str(Path(ncsolenoid.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


def test_certificate_result_json_shape():
    res = CertificateResult(
        status="found", c0=1, d0=0, m=1, k=0, matched_entries=(0, 2), orientation="direct"
    )
    assert res.to_json() == {
        "status": "found",
        "certificate": {"c0": 1, "d0": 0, "m": 1, "k": 0, "matched_entries": [0, 2], "precision": "every level"},
        "orientation": "direct",
    }
    assert CertificateResult("found", 1, 0, 1, 0, (0, 2), "direct", precision=4).certificate_json()["precision"] == 4
