import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncsolenoid import exactnum, padic
from ncsolenoid.exactnum import MR_LIMIT, PFrac
from ncsolenoid.padic import MAX_EXPANSION, MAX_ORD_BITS, PAdic, PrecisionError, _digits_value, _int_digits, _strip


def expansion_digit(x: PAdic, j: int) -> int:
    """Digit j read from the minimal (ord, pre, per) expansion, not from the stored rational."""
    if x.is_zero or j < x.ord:
        return 0
    pre, per = x.pre, x.per
    i = j - x.ord
    return pre[i] if i < len(pre) else per[(i - len(pre)) % len(per)]


def test_arithmetic_proves_no_prime(monkeypatch):
    # the prime is proved once, where outside input enters: at p near MR_LIMIT, re-proving it for every
    # arithmetic result took most of a multiplier check's time
    x, y = PAdic.from_rational(7, Fraction(3, 5)), PAdic.from_rational(7, 2)
    proved = []
    monkeypatch.setattr(exactnum, "is_prime", lambda p: proved.append(p) or True)
    results = [x + y, x - y, 1 - x, -x, x * y, x.invert(), x + 1, x * Fraction(1, 3)]
    assert proved == []
    assert [r.as_fraction() for r in results] == [Fraction(13, 5), Fraction(-7, 5), Fraction(2, 5), Fraction(-3, 5),
                                                  Fraction(6, 5), Fraction(5, 3), Fraction(8, 5), Fraction(1, 5)]
    assert all(r.p == 7 for r in results)
    PAdic.from_rational(7, 1)
    assert proved == [7]


def test_expansion_frozen_cases():
    # oracle: hand expansions, then verified below by Hensel window products
    x = PAdic.from_rational(5, Fraction(1, 2))
    assert (x.ord, x.pre, x.per) == (0, (3,), (2,))
    y = PAdic.from_rational(2, 7)
    assert (y.ord, y.pre, y.per) == (0, (1, 1, 1), (0,))
    z = PAdic.from_rational(3, Fraction(1, 3))
    assert (z.ord, z.pre, z.per) == (-1, (1,), (0,))
    assert PAdic.from_rational(2, -1).per == (1,)
    assert PAdic.from_rational(2, -1).pre == ()


def test_expansion_window_hensel_oracle():
    # digits of 1/2 in Q_5 must satisfy 2 * window == 1 mod 5^k
    x = PAdic.from_rational(5, Fraction(1, 2))
    window = x.truncate_sum(0, 2)
    assert window.as_fraction() == 63
    assert (2 * 63) % 125 == 1


def test_zero_and_ord():
    z = PAdic.from_rational(7, 0)
    assert z.is_zero
    assert z.ord == math.inf
    assert z.digit(-3) == 0 and z.digit(10) == 0
    assert PAdic.from_rational(3, Fraction(18)).ord == 2
    assert PAdic.from_rational(3, Fraction(5, 9)).ord == -2


def test_canonical_minimality():
    # (pre, per) pairs that denote the same stream must collapse to one form
    a = PAdic(2, 0, (1, 0, 1), (0, 1))
    b = PAdic(2, 0, (1,), (0, 1))
    assert a == b
    c = PAdic(3, 0, (), (2, 2, 2))
    assert c.per == (2,)
    d = PAdic(5, -2, (0, 0, 3), (0,))
    assert d.ord == 0 and d.pre == (3,)


def test_roundtrip_rational_random():
    rng = random.Random(11)
    for _ in range(400):
        p = rng.choice([2, 3, 5, 7])
        q = Fraction(rng.randint(-80, 80), rng.randint(1, 60))
        x = PAdic.from_rational(p, q)
        assert x.as_fraction() == q
        assert PAdic.from_rational(p, x.as_fraction()) == x


def test_digit_stream_matches_valuation():
    rng = random.Random(13)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        q = Fraction(rng.randint(1, 50), rng.randint(1, 50)) * Fraction(p) ** rng.randint(-4, 4)
        x = PAdic.from_rational(p, q)
        v = x.ord
        assert x.digit(v) != 0
        assert all(x.digit(j) == 0 for j in range(v - 4, v))


def test_invert_frozen_case():
    # oracle: 1/2 in Q_5 is 3 + period(2); the inverse of 2 must match
    x = PAdic.from_rational(5, 2)
    y = x.invert()
    assert (y.pre, y.per) == ((3,), (2,))
    assert y.ord == 0


def test_invert_window_products():
    # window product congruence: the first k+1 digits of x and 1/x multiply to 1 mod p^(k+1)
    rng = random.Random(17)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        v = rng.randint(0, 3)
        num = rng.randint(1, 60)
        while num % p == 0:
            num += 1
        den = rng.randint(1, 60)
        while den % p == 0:
            den += 1
        x = PAdic.from_rational(p, Fraction(num * p**v, den))
        y = x.invert()
        assert y.ord == -v
        k = rng.randint(0, 30)
        xa = sum(x.digit(v + i) * p**i for i in range(k + 1))
        ya = sum(y.digit(-v + i) * p**i for i in range(k + 1))
        assert (xa * ya) % p ** (k + 1) == 1
        assert x * y == PAdic.from_rational(p, 1)


def test_invert_zero():
    with pytest.raises(ZeroDivisionError):
        PAdic.from_rational(3, 0).invert()


def test_frac_part_frozen_cases():
    assert PAdic.from_rational(2, Fraction(3, 2)).frac_part() == PFrac(2, 1, 1)
    assert PAdic.from_rational(3, Fraction(7, 9)).frac_part() == PFrac(3, 7, 2)
    assert PAdic.from_rational(5, 10).frac_part() == PFrac(5, 0)
    assert PAdic.from_rational(2, 0).frac_part() == PFrac(2, 0)


def test_frac_part_congruence_random():
    # frac_part(q) differs from q by a p-adic integer that is also rational,
    # i.e. by an ordinary integer once denominators prime to p are cleared
    rng = random.Random(19)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        q = Fraction(rng.randint(-90, 90), rng.randint(1, 40))
        f = PAdic.from_rational(p, q).frac_part().as_fraction()
        assert 0 <= f < 1
        diff = q - f
        # diff must have no p in its denominator
        den = diff.denominator
        assert den % p != 0


def test_rational_frac_part_matches_padic():
    # the fractional part read from the stored rational equals the negative-index
    # digits of the minimal expansion
    rng = random.Random(29)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        q = Fraction(rng.randint(-60, 60), rng.randint(1, 30)) * Fraction(p) ** rng.randint(-3, 1)
        x = PAdic.from_rational(p, q)
        expanded = sum(expansion_digit(x, j) * Fraction(p) ** j for j in range(min(x.ord, 0), 0))
        assert x.frac_part().as_fraction() == expanded


def test_truncate_sum_bounds():
    x = PAdic.from_rational(5, Fraction(1, 2))
    assert x.truncate_sum(0, 2) == PFrac(5, 63)
    assert x.truncate_sum(3, 1) == PFrac(5, 0)
    y = PAdic.from_rational(2, Fraction(3, 2))
    assert y.truncate_sum(-1, 0) == PFrac(2, 3, 1)


def test_negate_digits_frozen_cases():
    x = PAdic.from_rational(3, Fraction(1, 3))
    n = -x
    assert (n.ord, n.pre, n.per) == (-1, (), (2,))
    one = PAdic.from_rational(2, 1)
    m = -one
    assert (m.pre, m.per) == ((), (1,))
    assert (-PAdic.from_rational(5, 0)).is_zero


def test_negate_digits_is_negation():
    # -x has the digits p - a_v at its order and p - 1 - a_j above it
    rng = random.Random(37)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        q = Fraction(rng.randint(1, 70), rng.randint(1, 40)) * Fraction(p) ** rng.randint(-3, 3)
        x = PAdic.from_rational(p, q)
        n = -x
        v = x.ord
        assert n.as_fraction() == -q and n.ord == v
        assert expansion_digit(n, v) == p - expansion_digit(x, v)
        assert all(expansion_digit(n, j) == p - 1 - expansion_digit(x, j) for j in range(v + 1, v + 25))


def test_frac_parts_of_x_and_minus_x():
    # for x outside Z_p the two fractional parts sum to exactly 1
    rng = random.Random(41)
    checked = 0
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        q = Fraction(rng.randint(1, 50), rng.randint(1, 50)) * Fraction(p) ** rng.randint(-4, -1)
        x = PAdic.from_rational(p, q)
        if x.ord >= 0:
            continue
        checked += 1
        s = x.frac_part().as_fraction() + (-x).frac_part().as_fraction()
        assert s == 1
    assert checked > 100


def test_arithmetic_closure():
    a = PAdic.from_rational(5, Fraction(7, 3))
    b = PAdic.from_rational(5, Fraction(-2, 9))
    assert (a + b).as_fraction() == Fraction(7, 3) - Fraction(2, 9)
    assert (a * b).as_fraction() == Fraction(-14, 27)
    assert (a - b) + b == a
    assert (a * PFrac(5, 3, 1)).as_fraction() == Fraction(7, 5)
    with pytest.raises(ValueError):
        a + PAdic.from_rational(3, 1)
    with pytest.raises(ValueError, match="mixed primes"):  # a PFrac's (j, k) is read in base a.p
        a * PFrac(3, 1, 1)


def test_json_roundtrip():
    rng = random.Random(43)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        q = Fraction(rng.randint(-40, 40), rng.randint(1, 30))
        x = PAdic.from_rational(p, q)
        assert PAdic.from_json(x.to_json()) == x


def test_truncated_basics():
    x = PAdic.from_rational(5, Fraction(1, 2))
    t = x.truncate(4)
    assert t.precision == 4
    assert tuple(t.digit(j) for j in range(t.ord, t.precision)) == (3, 2, 2, 2)
    assert t.digit(0) == 3
    with pytest.raises(PrecisionError):
        t.digit(4)


def test_truncated_mul_precision():
    x = PAdic.from_rational(3, Fraction(4, 5)).truncate(6)
    y = PAdic.from_rational(3, Fraction(7, 2)).truncate(6)
    z = x * y
    exact = PAdic.from_rational(3, Fraction(28, 10))
    for j in range(z.ord, z.precision):
        assert z.digit(j) == exact.digit(j)


def test_truncated_invert_hensel():
    rng = random.Random(53)
    for _ in range(100):
        p = rng.choice([2, 3, 5, 7])
        num = rng.randint(1, 40)
        while num % p == 0:
            num += 1
        den = rng.randint(1, 40)
        while den % p == 0:
            den += 1
        exact = PAdic.from_rational(p, Fraction(num, den))
        t = exact.truncate(12)
        w = t.invert()
        inv_exact = exact.invert()
        for j in range(w.ord, w.precision):
            assert w.digit(j) == inv_exact.digit(j)


def test_truncated_frac_part_precision_error():
    t = PAdic.from_rational(2, Fraction(5, 32)).truncate(-2)  # digits end at index -2 < 0
    with pytest.raises(PrecisionError):
        t.frac_part()
    ok = PAdic.from_rational(2, Fraction(7, 4)).truncate(2)
    assert ok.frac_part() == PFrac(2, 3, 2)


def test_truncated_invert_all_zero_window():
    t = PAdic.from_rational(3, 0).truncate(3)
    with pytest.raises(PrecisionError):
        t.invert()


# -- properties of the stored rational and its digit views -----------------------

# derandomized: every run checks the same examples; no example database is written
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def padics(draw) -> PAdic:
    p = draw(st.sampled_from([2, 3, 5, 7]))
    q = draw(st.fractions(min_value=-1000, max_value=1000, max_denominator=500))
    return PAdic.from_rational(p, q * Fraction(p) ** draw(st.integers(-6, 6)))


@PROPERTY
@given(padics())
def test_json_roundtrip_property(x):
    assert PAdic.from_json(x.to_json()) == x


@PROPERTY
@given(padics(), st.integers(-10, 30))
def test_digit_matches_expansion(x, j):
    assert x.digit(j) == expansion_digit(x, j)


@PROPERTY
@given(padics(), st.integers(-10, 20), st.integers(-10, 20))
def test_truncate_sum_is_digit_sum(x, lo, hi):
    want = sum((x.digit(j) * Fraction(x.p) ** j for j in range(lo, hi + 1)), Fraction(0))
    assert x.truncate_sum(lo, hi).as_fraction() == want


@PROPERTY
@given(padics(), st.integers(-10, 20))
def test_truncate_is_value_mod_p_power(x, n):
    t = x.truncate(n)
    assert t.precision == n
    window = sum((t.digit(j) * Fraction(x.p) ** j for j in range(t.ord, t.precision)), Fraction(0))
    rest = x.as_fraction() - window
    assert rest == 0 or PAdic.from_rational(x.p, rest).ord >= n


@PROPERTY
@given(padics())
def test_frac_part_property(x):
    f = x.frac_part().as_fraction()
    assert 0 <= f < 1
    assert (x.as_fraction() - f).denominator % x.p != 0


@PROPERTY
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(-5, 5),
    st.lists(st.integers(0, 6), max_size=5),
    st.lists(st.integers(0, 6), max_size=5),
)
def test_digit_constructor_reads_back(p, v, pre, per):
    pre, per = [d % p for d in pre], [d % p for d in per]
    x = PAdic(p, v, pre, per)
    stream = pre + (per or [0]) * 30
    for j in range(v - 3, v + len(stream)):
        assert x.digit(j) == (stream[j - v] if j >= v else 0)


def agrees_below(t: PAdic, q: Fraction) -> bool:
    """The window's digits below its precision are those of q: its value equals q mod p**precision."""
    window = sum((t.digit(j) * Fraction(t.p) ** j for j in range(t.ord, t.precision)), Fraction(0))
    rest = q - window
    return rest == 0 or PAdic.from_rational(t.p, rest).ord >= t.precision


def blurred(x: PAdic, n: int, noise: PAdic) -> PAdic:
    """x known below n, its unknown digits changed by the integer part of noise: x + p**n (noise - frac)."""
    return (x + (noise - noise.frac_part()) * Fraction(x.p) ** n).truncate(n)


@st.composite
def padic_pairs(draw) -> tuple[PAdic, PAdic]:
    x = draw(padics())
    q = draw(st.fractions(min_value=-1000, max_value=1000, max_denominator=500))
    return x, PAdic.from_rational(x.p, q * Fraction(x.p) ** draw(st.integers(-6, 6)))


@PROPERTY
@given(padic_pairs(), st.integers(-8, 20), st.integers(-8, 20), st.integers(-8, 20), st.integers(-8, 20))
def test_truncated_window_agrees_with_exact(pair, n1, n2, lo, hi):
    # each window is built from a value whose unknown digits differ from the exact value's
    x, y = pair
    t1, t2 = blurred(x, n1, y), blurred(y, n2, x)
    product = x.as_fraction() * y.as_fraction()
    assert agrees_below(t1, x.as_fraction())
    # a sum or difference is known below the smaller precision, on either side of the operator
    total, diff = x.as_fraction() + y.as_fraction(), x.as_fraction() - y.as_fraction()
    assert agrees_below(t1 + t2, total) and agrees_below(y + t1, total) and agrees_below(t1 - t2, diff)
    assert agrees_below(y - t1, -diff) and agrees_below(1 - t1, 1 - x.as_fraction()) and agrees_below(-t1, -x.as_fraction())
    # a product is known below min(ord1 + N2, ord2 + N1), a window zero to its precision included
    assert agrees_below(t1 * t2, product)
    assert (t1 * t2).precision == min(t1.ord + t2.precision, t2.ord + t1.precision)
    if y.is_zero:
        assert t1 * y == y * t1 == 0
    else:
        assert agrees_below(t1 * y, product) and y * t1 == t1 * y and (t1 * y).precision == y.ord + t1.precision
    if not t1.is_zero:
        assert agrees_below(t1.invert(), 1 / x.as_fraction())
    else:
        with pytest.raises(PrecisionError):
            t1.invert()
    try:
        assert t1.truncate_sum(lo, hi) == x.truncate_sum(lo, hi)
    except PrecisionError:
        assert lo <= hi and hi >= t1.precision
    try:
        assert t1.frac_part() == x.frac_part()
    except PrecisionError:
        assert t1.precision <= -1


@PROPERTY
@given(padic_pairs(), padics(), st.integers(-8, 20), st.integers(-8, 20), st.booleans())
def test_window_is_its_known_digits(pair, third, n, m, windowed):
    # y = x + p**n z, z a p-adic integer, agrees with x below n, so their windows at n are one value: equal, with
    # equal hash and JSON, and every operation with a third exact or windowed value w gives equal results
    x, z = pair
    y = x + z * Fraction(x.p) ** (n - min(z.ord, 0))
    w = PAdic.from_rational(x.p, third.as_fraction())
    w = w.truncate(m) if windowed else w
    tx, ty = x.truncate(n), y.truncate(n)
    assert tx == ty and hash(tx) == hash(ty) and tx.to_json() == ty.to_json()
    for op in (lambda t: t + w, lambda t: t - w, lambda t: w - t, lambda t: t * w, lambda t: w * t):
        assert op(tx) == op(ty)
    try:
        inverse = tx.invert()
    except PrecisionError:
        assert tx.is_zero
        with pytest.raises(PrecisionError):
            ty.invert()
    else:
        assert inverse == ty.invert()


def test_zero_window_product_depends_only_on_the_window():
    # the window 000 at precision 3 is one value, whether it was read off 0 or off 8
    two = PAdic.from_rational(2, 2).truncate(3)
    for value in (0, 8):
        zero = PAdic.from_rational(2, value).truncate(3)
        assert (zero.ord, zero.precision) == (3, 3) and zero.is_zero
        product = zero * two
        assert product == PAdic.from_rational(2, 0).truncate(4) and product.is_zero


def test_display_expansion_bound():
    # 1/3**11 has a 2-adic period of 2*3**10 = 118098 digits, and 1/3**12 one of 354294 and 1/1009**2 one of
    # 504*1009 = 508536, past MAX_EXPANSION: the period's length is the order of 2 mod den, read before any digit
    assert MAX_EXPANSION >= 2 * 3**10
    assert len(PAdic.from_rational(2, Fraction(1, 3**11)).per) == 2 * 3**10
    for den in (3**12, 1009**2):
        x = PAdic.from_rational(2, Fraction(1, den))
        with pytest.raises(ValueError, match="MAX_EXPANSION"):
            x.to_json()
        assert x.invert() == den and x.digit(10**6) in (0, 1)  # values and digit views need no expansion


def test_window_display_bound_is_the_exact_one(monkeypatch):
    # a window's digits are read off its unit: up to MAX_EXPANSION of preperiod and period, as for an exact value
    monkeypatch.setattr(padic, "MAX_EXPANSION", 10)
    for value, fits in ((3**9 - 1, True), (3**10 - 1, False)):
        for x in (PAdic.from_rational(3, value), PAdic.from_rational(3, value).truncate(30)):
            if fits:
                assert x.to_json() == {"p": 3, "ord": 0, "preperiod": [2] * 9, "period": [0]}
            else:
                with pytest.raises(ValueError, match="MAX_EXPANSION = 10 3-adic digits"):
                    x.to_json()


def test_long_window_display():
    # the digits of a window are read in halves, not one division (and one kept carry state) each
    ones = PAdic.from_rational(2, -1).truncate(MAX_EXPANSION - 1)
    assert ones.to_json() == {"p": 2, "ord": 0, "preperiod": [1] * (MAX_EXPANSION - 1), "period": [0]}
    with pytest.raises(ValueError, match="MAX_EXPANSION"):
        PAdic.from_rational(2, -1).truncate(MAX_ORD_BITS).to_json()
    assert PAdic.from_rational(2, 5).truncate(MAX_ORD_BITS).to_json()["preperiod"] == [1, 0, 1]


@PROPERTY
@given(padics(), st.integers(-10, 80))
def test_window_json_roundtrip(x, n):
    t = x.truncate(n)
    assert PAdic.from_json(t.to_json()).truncate(n) == t
    pre = t.to_json()["preperiod"]
    assert pre == [t.digit(j) for j in range(t.ord, t.ord + len(pre))] and (not pre or pre[-1])


@pytest.mark.parametrize("p", [2, 3])
def test_long_period_is_refused_before_any_carry_step(monkeypatch, p):
    # a random period of 210 000 digits: its length is the order of p mod den, so den > p**MAX_EXPANSION refuses
    # it at once, where the carry loop ran 200 000 steps on a state of L log2(p) bits (29 s at p = 2)
    rng = random.Random(p)
    x = PAdic(p, 0, [1], [rng.randrange(p) for _ in range(210_000)])
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"MAX_EXPANSION = {MAX_EXPANSION} {p}-adic digits"):
        x.to_json()
    assert time.perf_counter() - start < 5
    # at the bound: -1/(p**10 - 1) = sum_k p**(10 k) has the period 1 0 ... 0 of 10 digits, and den > p**9
    monkeypatch.setattr(padic, "MAX_EXPANSION", 10)
    assert PAdic.from_rational(p, Fraction(-1, p**10 - 1)).to_json() == {"p": p, "ord": 0, "preperiod": [], "period": [1] + [0] * 9}
    with pytest.raises(ValueError, match=f"MAX_EXPANSION = 10 {p}-adic digits"):
        PAdic.from_rational(p, Fraction(-1, p**11 - 1)).to_json()


@pytest.mark.parametrize("p, length", [(2, MAX_EXPANSION - 1), (3, 120_000)])
def test_long_period_round_trips_through_json(p, length):
    # a random period that fits the bound is read off one order computation and one residue mod p**(U + L), in
    # halves: the carry loop took 24 s (p = 2) and 18 s (p = 3) end to end
    rng = random.Random(p)
    per = [rng.randrange(p) for _ in range(length)]
    start = time.perf_counter()
    x = PAdic(p, 0, [1], per)
    obj = x.to_json()
    assert PAdic.from_json(obj) == x
    assert time.perf_counter() - start < 5
    assert len(obj["preperiod"]) + len(obj["period"]) <= length + 1 and len(obj["period"]) == length


def brute_order(p: int, den: int) -> int:
    """The least k >= 1 with p**k = 1 mod den, one multiplication a step."""
    k, r = 1, p % den
    while r != 1 % den:
        k, r = k + 1, r * p % den
    return k


PRIMES_BELOW_3600 = [q for q in range(2, 3600) if exactnum.is_prime(q)]
# powers of the odd primes below 64, below 500
ODD_PARTS = [q**e for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
             for e in range(1, 9) if q**e < 500]


def exact_order(p: int, den: int) -> int:
    """The order of p mod den, den prime to p with no prime factor past 3600: phi(den) cut down a prime at a time."""
    phi = den
    for f in PRIMES_BELOW_3600:
        if den % f == 0:
            phi = phi // f * (f - 1)
    n = phi
    for f in PRIMES_BELOW_3600:
        while n % f == 0 and pow(p, n // f, den) == 1:
            n //= f
    return n


def check_order(p: int, den: int, order: int, cap: int) -> None:
    """_order reads the order exactly when it is at most the cap, and otherwise only that it is past the cap: at the
    cap drawn and next to the order (both sides); the caps stay below 10**6, as the baby-step table grows with
    sqrt(cap)."""
    for c in {c for c in (cap, order - 1, order, order + 1) if 0 <= c <= 10**6}:
        if order <= c:
            assert padic._order(p, den, c) == order, (p, den, c)
        else:
            assert padic._order(p, den, c) > c, (p, den, c)


@PROPERTY
@given(st.sampled_from([2, 3, 5, 7, 61, 1009]), st.integers(2, 2 * 10**5), st.integers(0, 10**6))
def test_order_is_exact_up_to_the_cap(p, n, cap):
    # every den below 2 * 10**5, against the order read one multiplication a step
    den = n + (n % p == 0)
    check_order(p, den, brute_order(p, den), cap)


@PROPERTY
@given(st.sampled_from([2, 3, 5, 7, 61, 1009]), st.lists(st.sampled_from(ODD_PARTS), max_size=2),
       st.sampled_from([q for q in PRIMES_BELOW_3600 if q > 64]), st.integers(1, 12), st.integers(0, 10**6))
@example(2, [], 1093, 3, 0)  # 2**1092 = 1 mod 1093**2: the order mod 1093**3 is 364 * 1093
@example(2, [25], 3511, 2, 0)  # 2**3510 = 1 mod 3511**2: the order mod 3511**2 * 25 is lcm(1755, 20)
@example(4812209, [], 67, 5, 0)  # p = 1 + 16 * 67**3 has p**66 = 1 mod 67**3: the order mod 67**5 is 67**2
def test_order_reads_a_large_prime_power(p, parts, q, e, cap):
    # q**e, q past 64, times odd prime powers below 64: the order mod q**e is the order mod q times a power of q
    if q == p:
        q = 1013
    den = q**e * math.prod(part for part in parts if part % p)
    check_order(p, den, exact_order(p, den), cap)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_period_past_the_bound_is_refused_before_the_carry_loop(p):
    # 1/10**4299, 1/1009**1400, 1/(1009**1400 * 1013) and 1/den, den the product of the primes in [1009, 3600), have
    # periods past MAX_EXPANSION: _order finds each past the bound before any digit is read, where the carry loop ran
    # up to the bound in 0.6-2.2 s
    product = math.prod(q for q in PRIMES_BELOW_3600 if q >= 1009)
    for den in (10**4299, 1009**1400, 1009**1400 * 1013, product):
        x = PAdic.from_rational(p, Fraction(1, den))
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"MAX_EXPANSION = {MAX_EXPANSION} {p}-adic digits"):
            x.to_json()
        assert time.perf_counter() - start < 0.5


def test_display_expansion_bound_names_p_not_the_value(monkeypatch):
    # 1/10**4301 is past Python's 4300-digit int-to-string limit, so the message must not print it
    monkeypatch.setattr(padic, "MAX_EXPANSION", 10)
    with pytest.raises(ValueError, match="MAX_EXPANSION = 10 3-adic digits"):
        PAdic.from_rational(3, Fraction(1, 10**4301)).to_json()


def test_json_ord_bound():
    # |ord| * floor(log2 p) bits of p**|ord|: p = 2 and the largest prime below MR_LIMIT (81 bits a digit)
    def digits(p, v):
        return {"p": p, "ord": v, "preperiod": [1], "period": [0]}

    assert PAdic.from_json(digits(2, 300000)) == 2**300000
    for p in (2, MR_LIMIT - 168):
        past = MAX_ORD_BITS // (p.bit_length() - 1) + 1
        for v in (past, -past, 10**8):
            with pytest.raises(ValueError, match="MAX_ORD_BITS"):
                PAdic.from_json(digits(p, v))
    big = MR_LIMIT - 168
    assert PAdic.from_json(digits(big, 100)) == big**100


def strip_loop(n: int, p: int) -> tuple[int, int]:
    """The valuation one division at a time."""
    e = 0
    while n % p == 0:
        n, e = n // p, e + 1
    return n, e


def test_strip_matches_division_loop():
    rng = random.Random(89)
    for p in (2, 3, 5, 7, 1000003):
        for _ in range(300):
            n = rng.choice([-1, 1]) * rng.randrange(1, 10**rng.randint(1, 60)) * p ** rng.randint(0, 40)
            assert _strip(n, p) == strip_loop(n, p), (n, p)
    for e in (0, 1, 29, 30, 31, 64, 1000, 300000):
        for unit in (1, -1, 3, -(2**61 - 1)):
            assert _strip(unit * 2**e, 2) == (unit, e)


@PROPERTY
@given(st.sampled_from([2, 3, 5, 7, 1000003]), st.data())
def test_digits_value_is_digit_sum(p, data):
    n = data.draw(st.integers(0, 300))  # past 64 digits the builder and the reader split in halves
    digits = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)))
    assert _digits_value(digits, p) == sum(d * p**i for i, d in enumerate(digits))
    assert _int_digits(_digits_value(digits, p), p, n) == list(digits)


@st.composite
def long_preperiods(draw) -> PAdic:
    """Exact values and windows with long preperiods: units whose numerator dwarfs their denominator (periods below
    3000), and digit streams of 500 to 4000 digits of preperiod and up to 40 of period read by from_json."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 101, 1009]))
    v = draw(st.integers(-5, 5))
    if draw(st.booleans()):
        q = Fraction(draw(st.integers(-(10**30), 10**30)), draw(st.integers(1, 3000)))
        x = PAdic.from_rational(p, q * Fraction(p) ** v)
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        pre, per = ([rng.randrange(p) for _ in range(draw(st.integers(lo, hi)))] for lo, hi in ((500, 4000), (1, 40)))
        x = PAdic.from_json({"p": p, "ord": v, "preperiod": pre, "period": per})
    return x.truncate(draw(st.integers(-3, 5000))) if draw(st.booleans()) else x


def assert_minimal_digit_form(x: PAdic) -> None:
    # oracle, by no carry loop: the digits rebuild x through the constructor, the period is primitive (no rotation
    # by a proper divisor of its length fixes it), and the preperiod cannot give its last digit to the period
    v, pre, per = 0 if x.is_zero else x.ord, x.pre, x.per
    assert all(0 <= d < x.p for d in pre + per)
    if x.is_zero:
        assert (pre, per) == ((), (0,))
    else:
        assert (pre + per)[0] != 0
        assert PAdic(x.p, v, pre, per).truncate(x.precision) == x
    L = len(per)
    assert all(per != per[k:] + per[:k] for k in range(1, L) if L % k == 0)
    assert not pre or pre[-1] != per[-1]
    if x.precision < math.inf:
        assert per == (0,) and len(pre) <= max(x.precision - v, 0)
    # the display bound holds exactly at the total digit count, at small bounds too
    total = len(pre) + len(per)
    with pytest.MonkeyPatch.context() as m:
        for bound in sorted({1, 2, 3, 5, 10, max(total - 1, 1), total}):
            m.setattr(padic, "MAX_EXPANSION", bound)
            if total <= bound:
                assert x.to_json() == {"p": x.p, "ord": v, "preperiod": list(pre), "period": list(per)}
            else:
                with pytest.raises(ValueError, match=f"MAX_EXPANSION = {bound} {x.p}-adic digits"):
                    x.to_json()


@PROPERTY
@given(long_preperiods())
def test_expansion_is_the_minimal_digit_form(x):
    assert_minimal_digit_form(x)


def test_expansion_next_to_powers_of_p():
    # the preperiod is read up to the least U with p**U > max(num, -num - den), which a float only seeds: X at and
    # next to a power of p, both signs
    for p in (2, 3, 5, 1009):
        for k in (1, 2, 30, 64, 300, 2000):
            for den in (1, 143):
                for num in (p**k - 1, p**k + 1, -den - p**k + 1, -den - p**k, -den - p**k - 1):
                    assert_minimal_digit_form(PAdic.from_rational(p, Fraction(num, den)))
