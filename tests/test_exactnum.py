import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncsolenoid.exactnum import (
    MAX_LITERAL_DIGITS,
    MAX_RADICAND,
    MR_LIMIT,
    PFrac,
    QuadReal,
    RadicandMismatchError,
    frac1,
    is_prime,
    require_prime,
    parse_rational,
)


def test_is_prime_small():
    primes = [n for n in range(2, 50) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_is_prime_miller_rabin():
    def trial(n):
        return n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1))

    assert all(is_prime(n) == trial(n) for n in range(-3, 5000))
    # the least strong pseudoprimes to all prime bases up to 23 and up to 37
    assert not is_prime(3825123056546413051) and not is_prime(318665857834031151167461)
    assert is_prime(1000000000000000000000007) and is_prime(2**61 - 1)
    assert not is_prime(MR_LIMIT + 1)  # even: trial division by the bases decides it
    with pytest.raises(ValueError):
        is_prime(MR_LIMIT)


def test_require_prime_names_the_number():
    for p in (2, 3, 1009, 2**61 - 1):
        require_prime(p)
    for n in (-7, 0, 1, 4, 3825123056546413051):
        with pytest.raises(ValueError, match=f"^{n} is not prime$"):
            require_prime(n)


def test_radicand_bound():
    # the largest prime below the bound: the slowest radicand to split that is accepted
    assert QuadReal.parse("sqrt(999999999989)").D == 999999999989 == MAX_RADICAND - 11
    assert QuadReal.sqrt_of(4 * 10**10).D == 0  # a perfect square below the bound
    with pytest.raises(ValueError, match="MAX_RADICAND"):
        QuadReal.sqrt_of(MAX_RADICAND + 1)
    assert QuadReal(3, 0, MAX_RADICAND + 1) == 3  # no sqrt coefficient: nothing to split


def test_pfrac_reduction():
    x = PFrac(2, 4, 2)
    assert (x.j, x.k) == (1, 0)
    assert PFrac(3, 6, 1).as_fraction() == Fraction(2)
    assert PFrac(5, 0, 3) == PFrac(5, 0, 0)
    y = PFrac(2, 3, 4)
    assert (y.j, y.k) == (3, 4)


def test_pfrac_reduction_matches_division_loop():
    # PFrac strips p from j through _strip, capped at k: below, at and past the cap, for 0 and negative j
    def reduce_loop(p, j, k):
        while k and j % p == 0:
            j, k = j // p, k - 1
        return (j, 0) if j == 0 else (j, k)

    rng = random.Random(97)
    for p in (2, 3, 5, 1000003):
        for _ in range(300):
            j = rng.choice([-1, 0, 1, 1]) * rng.randrange(1, 10**6) * p ** rng.randint(0, 12)
            k = rng.randint(0, 12)
            x = PFrac(p, j, k)
            assert (x.j, x.k) == reduce_loop(p, j, k), (p, j, k)


def test_pfrac_arithmetic():
    a = PFrac(2, 1, 1)  # 1/2
    b = PFrac(2, 1, 2)  # 1/4
    assert (a + b).as_fraction() == Fraction(3, 4)
    assert (a - b).as_fraction() == Fraction(1, 4)
    assert (a * b).as_fraction() == Fraction(1, 8)
    assert (a * 6).as_fraction() == Fraction(3)
    with pytest.raises(ValueError):
        a + PFrac(3, 1, 1)


def test_pfrac_print_forms():
    assert str(PFrac(2, 3, 4)) == "3/2^4"
    assert str(PFrac(2, 1, 1)) == "1/2"
    assert str(PFrac(5, -3, 0)) == "-3"


def test_pfrac_from_fraction():
    assert PFrac.from_fraction(2, Fraction(3, 8)) == PFrac(2, 3, 3)
    with pytest.raises(ValueError):
        PFrac.from_fraction(2, Fraction(1, 6))


def test_quadreal_golden_ratio_identity():
    phi = QuadReal(Fraction(1, 2), Fraction(1, 2), 5)
    assert phi * phi == phi + 1


def test_quadreal_floor_frozen():
    # oracle: isqrt bracketing computed by hand; floor(1 + sqrt(2)) = 2
    x = QuadReal(1, 1, 2)
    assert math.floor(x) == 2
    assert math.floor(QuadReal.sqrt_of(2)) == 1
    assert math.floor(-QuadReal.sqrt_of(2)) == -2
    assert math.floor(QuadReal(Fraction(7, 2))) == 3
    assert math.floor(QuadReal(-3)) == -3


def test_quadreal_normalization():
    assert QuadReal(0, 1, 8) == QuadReal(0, 2, 2)
    assert QuadReal(0, 1, 4) == QuadReal(2)
    assert QuadReal(0, 1, 1) == QuadReal(1)
    assert QuadReal(0, 5, 0) == QuadReal(0)
    assert QuadReal(3, 0, 7).D == 0
    with pytest.raises(ValueError):
        QuadReal(0, 1, -2)


def test_quadreal_field_axioms_random():
    rng = random.Random(23)
    for _ in range(300):
        D = rng.choice([2, 3, 5, 7])
        mk = lambda: QuadReal(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            D,
        )
        x, y, z = mk(), mk(), mk()
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        if y != QuadReal(0):
            assert (x / y) * y == x
        if x != QuadReal(0):
            assert x * x**-1 == QuadReal(1)


def test_quadreal_order_exact():
    rng = random.Random(31)
    for _ in range(300):
        x = QuadReal(Fraction(rng.randint(-20, 20), rng.randint(1, 12)),
                     Fraction(rng.randint(-20, 20), rng.randint(1, 12)), 2)
        n = math.floor(x)
        assert QuadReal(n) <= x < QuadReal(n + 1)
        f = frac1(x)
        assert QuadReal(0) <= f < QuadReal(1)
        assert x - f == QuadReal(n)
    # trichotomy on a pair straddling equality of squares
    assert QuadReal(3, -2, 2) > 0   # 3 > 2*sqrt(2)
    assert QuadReal(-3, 2, 2) < 0
    assert QuadReal(2, -1, 4) == 0  # 2 - sqrt(4)


def test_quadreal_big_denominator_floor():
    # denominators at direct-limit scale must not touch floats
    big = 2**101
    x = QuadReal(Fraction(1, big), Fraction(1, big), 2)
    assert math.floor(x) == 0
    y = QuadReal(0, Fraction(big + 1, big), 2)
    assert math.floor(y) == 1


def test_quadreal_mixed_radicands():
    a = QuadReal(1, 1, 2)
    b = QuadReal(1, 1, 3)
    with pytest.raises(RadicandMismatchError):
        a + b
    with pytest.raises(RadicandMismatchError):
        a * b
    # rational operand is compatible with anything
    assert (QuadReal(2) * a) == QuadReal(2, 2, 2)


def test_quadreal_parse_print():
    x = QuadReal(Fraction(-1), Fraction(1), 2)
    assert str(x) == "(-1 + 1*sqrt(2))/1"
    assert QuadReal.parse(str(x)) == x
    assert QuadReal.parse("(−1+1*sqrt(2))/1") == x  # unicode minus
    assert QuadReal.parse("sqrt(2)") == QuadReal.sqrt_of(2)
    assert QuadReal.parse("-sqrt(5)/2") == QuadReal(0, Fraction(-1, 2), 5)
    assert QuadReal.parse("7/2") == QuadReal(Fraction(7, 2))
    assert QuadReal.parse("3") == QuadReal(3)
    assert QuadReal.parse("(1+sqrt(2))/3") == QuadReal(Fraction(1, 3), Fraction(1, 3), 2)
    assert QuadReal.parse("1-sqrt(2)") == QuadReal(1, -1, 2)
    # a denominator without parentheses would bind to the surd only; it is rejected, not read as (a + b*sqrt(D))/c
    for text in ("1+sqrt(2)/3", "1+1*sqrt(2)/3", "(1+sqrt(2)", "1+sqrt(2))/3"):
        with pytest.raises(ValueError):
            QuadReal.parse(text)
    rng = random.Random(47)
    for _ in range(200):
        q = QuadReal(
            Fraction(rng.randint(-30, 30), rng.randint(1, 10)),
            Fraction(rng.randint(-30, 30), rng.randint(1, 10)),
            rng.choice([0, 2, 3, 5, 6]),
        )
        assert QuadReal.parse(str(q)) == q


@pytest.mark.parametrize(
    "text",
    ["7", "-3/4", " 1_000 ", "1.5e-3", ".5", "5.", "1E+10", "0e0", "00012", "+7", "1_000.000_1e1_0",
     "1e4299", "1e-4299", "1" * MAX_LITERAL_DIGITS, "1/" + "3" * MAX_LITERAL_DIGITS, "x", "", "1e", "1.2.3", "1/3e5"],
)
def test_parse_rational_is_fraction_within_bound(text):
    # the numerator of 1e4299 and the denominator of 1e-4299 have exactly MAX_LITERAL_DIGITS digits
    try:
        expected = Fraction(text)
    except ValueError:
        with pytest.raises(ValueError):
            parse_rational(text)
    else:
        assert parse_rational(text) == expected


@pytest.mark.parametrize(
    "text",
    ["1e4300", "1e-4300", "1.5e-4299", "1" * (MAX_LITERAL_DIGITS + 1), "1/" + "3" * (MAX_LITERAL_DIGITS + 1),
     "1e100000000", "-2.5E-100000000", "0e9999999", "1e" + "9" * 5000, "1e100_000"],
)
def test_parse_rational_rejects_long_literals_first(text):
    # measured as written, before Fraction multiplies out any exponent
    with pytest.raises(ValueError, match=f"MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS}"):
        parse_rational(text)
    with pytest.raises(ValueError, match="MAX_LITERAL_DIGITS"):
        QuadReal.parse(text)


def test_quadreal_division_errors():
    with pytest.raises(ZeroDivisionError):
        QuadReal(1) / QuadReal(0)
    assert 1 / QuadReal(0, 1, 2) == QuadReal(0, Fraction(1, 2), 2)


def test_quadreal_float_lowering():
    x = QuadReal(Fraction(1, 4), Fraction(-2, 3), 5)
    assert abs(float(x) - (0.25 - 2.0 / 3.0 * math.sqrt(5))) < 1e-15


# -- properties of the integer normal form, against Fraction arithmetic ----------

# derandomized: every run checks the same examples; no example database is written
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)
rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)
squarefree = st.sampled_from([2, 3, 5, 6, 7, 10, 11])


def parts(x: QuadReal) -> tuple[Fraction, Fraction, int]:
    """(rational part, surd coefficient, radicand) of x."""
    return Fraction(x.A, x.M), Fraction(x.B, x.M), x.D


def ref_sign(a: Fraction, b: Fraction, D: int) -> int:
    """Sign of a + b*sqrt(D) from Fractions alone."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == sb or sb == 0 or sa == 0:
        return sa or sb
    return sa if a * a > b * b * D else sb


def is_squarefree(D: int) -> bool:
    return all(D % (f * f) for f in range(2, math.isqrt(D) + 1))


@PROPERTY
@given(rationals, rationals, st.integers(0, 200))
def test_normal_form_invariants(a, b, D):
    x = QuadReal(a, b, D)
    assert x.M > 0
    assert math.gcd(x.A, x.B, x.M) == 1
    assert (x.B == 0) == (x.D == 0)
    assert is_squarefree(x.D)
    # same value: the rational parts agree and the surds have equal square and sign
    r = math.isqrt(D)
    xa, xb, xD = parts(x)
    if r * r == D:
        assert (xa, xb) == (a + b * r, 0)
    else:
        assert xa == a and xb * xb * xD == b * b * D and (xb > 0) == (b > 0)


@PROPERTY
@given(rationals, rationals, rationals, rationals, squarefree)
def test_field_operations_match_fractions(a1, b1, a2, b2, D):
    x, y = QuadReal(a1, b1, D), QuadReal(a2, b2, D)
    assert parts(x + y)[:2] == (a1 + a2, b1 + b2)
    assert parts(x - y)[:2] == (a1 - a2, b1 - b2)
    assert parts(x * y)[:2] == (a1 * a2 + b1 * b2 * D, a1 * b2 + b1 * a2)
    if a2 or b2:
        norm = a2 * a2 - b2 * b2 * D
        assert parts(x / y)[:2] == ((a1 * a2 - b1 * b2 * D) / norm, (b1 * a2 - a1 * b2) / norm)
    assert x._cmp(y) == ref_sign(a1 - a2, b1 - b2, D)


@PROPERTY
@given(rationals, rationals, squarefree)
def test_floor_brackets_value(a, b, D):
    x = QuadReal(a, b, D)
    n = math.floor(x)
    assert ref_sign(a - n, b, D) >= 0
    assert ref_sign(a - n - 1, b, D) < 0
    m = math.ceil(x)
    assert ref_sign(a - m, b, D) <= 0
    assert ref_sign(a - m + 1, b, D) > 0


@PROPERTY
@given(rationals, rationals, squarefree)
def test_as_int_is_integrality(a, b, D):
    x = QuadReal(a, b, D)
    n = math.floor(x)
    assert x.as_int() == (n if x == QuadReal(n) else None)


@PROPERTY
@given(rationals, rationals, squarefree)
def test_float_matches_fraction_formula(a, b, D):
    assert float(QuadReal(a, b, D)) == float(a) + float(b) * math.sqrt(D)


@PROPERTY
@given(rationals, rationals, st.integers(0, 200))
def test_parse_inverts_str(a, b, D):
    x = QuadReal(a, b, D)
    assert QuadReal.parse(str(x)) == x


@PROPERTY
@given(rationals, st.integers(-10**30, 10**30))
def test_rationals_hash_and_compare_like_fractions(q, n):
    assert QuadReal(q) == q and hash(QuadReal(q)) == hash(q)
    assert QuadReal(n) == n and hash(QuadReal(n)) == hash(n)
    assert QuadReal(q, 0, 7).D == 0


@PROPERTY
@given(rationals, rationals.filter(bool), rationals, rationals.filter(bool), st.lists(squarefree, min_size=2, max_size=2, unique=True))
def test_mixed_radicands_raise(a1, b1, a2, b2, radicands):
    x, y = QuadReal(a1, b1, radicands[0]), QuadReal(a2, b2, radicands[1])
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y, lambda: x < y,
               lambda: x.__radd__(y), lambda: x.__rsub__(y), lambda: x.__rmul__(y), lambda: x.__rtruediv__(y)):
        with pytest.raises(RadicandMismatchError):
            op()
    assert x != y and not x == y  # equality reads no common field: unequal, not an error


@PROPERTY
@given(rationals, rationals, squarefree, st.integers(-9, 9), st.integers(-9, 9))
def test_discriminant_of_primitive_form_and_gl2z_invariant(a, b, D, u, w):
    x = QuadReal(a, b, D)
    # x is a root of x^2 - 2a x + a^2 - b^2 D; clear the denominators and divide out the content
    coeffs = (Fraction(1), -2 * a, a * a - b * b * D)
    den = math.lcm(*(c.denominator for c in coeffs))
    A, B, C = (int(c * den) for c in coeffs)
    g = math.gcd(A, B, C)
    assert x.discriminant() == ((B * B - 4 * A * C) // (g * g) if b else 0)
    # (1 + u w, u; w, 1) has determinant 1
    if w * x + 1:
        assert ((x * (1 + u * w) + u) / (x * w + 1)).discriminant() == x.discriminant()
    assert (-x).discriminant() == x.discriminant() and (x + u).discriminant() == x.discriminant()


def test_discriminant_frozen():
    assert QuadReal.parse("(1+sqrt(5))/2").discriminant() == 5
    assert QuadReal.parse("sqrt(2)").discriminant() == 8
    assert QuadReal.parse("(1+sqrt(2))/3").discriminant() == 72
    assert QuadReal(Fraction(7, 3)).discriminant() == 0


def assert_normal(z, D: int) -> None:
    """z is a QuadReal in normal form over D or over Q."""
    assert type(z) is QuadReal
    assert z.M > 0 and math.gcd(z.A, z.B, z.M) == 1
    assert (z.B == 0) == (z.D == 0) and z.D in (0, D)


# an operand y of each type the arithmetic reads, with its value (a, b) in Fractions over the radicand D
OPERAND_KINDS = st.sampled_from(["int", "bool", "Fraction", "PFrac", "rational QuadReal", "irrational QuadReal"])


@st.composite
def operands(draw, D: int):
    kind = draw(OPERAND_KINDS)
    if kind == "int":
        y = draw(st.integers(-10**20, 10**20))
    elif kind == "bool":
        y = draw(st.booleans())
    elif kind == "Fraction":
        y = draw(rationals)
    elif kind == "PFrac":
        # a composite base too: j / p**k is then not always in lowest terms
        y = PFrac(draw(st.sampled_from([2, 3, 4, 6])), draw(st.integers(-200, 200)), draw(st.integers(0, 6)))
    elif kind == "rational QuadReal":
        y = QuadReal(draw(rationals))
    else:
        y = QuadReal(draw(rationals), draw(rationals.filter(bool)), D)
    if isinstance(y, QuadReal):
        return y, Fraction(y.A, y.M), Fraction(y.B, y.M)
    return y, Fraction(y.as_fraction() if isinstance(y, PFrac) else y), Fraction(0)


@PROPERTY
@given(st.data(), rationals, rationals, squarefree)
def test_every_operand_type_gives_the_normal_form(data, a1, b1, D):
    x = QuadReal(a1, b1, D)
    y, a2, b2 = data.draw(operands(D))

    def quotient(a1, b1, a2, b2):
        norm = a2 * a2 - b2 * b2 * D
        return (a1 * a2 - b1 * b2 * D) / norm, (b1 * a2 - a1 * b2) / norm

    cases = [
        (lambda: x + y, lambda: (a1 + a2, b1 + b2)),
        (lambda: y + x, lambda: (a1 + a2, b1 + b2)),
        (lambda: x - y, lambda: (a1 - a2, b1 - b2)),
        (lambda: y - x, lambda: (a2 - a1, b2 - b1)),
        (lambda: x * y, lambda: (a1 * a2 + b1 * b2 * D, a1 * b2 + b1 * a2)),
        (lambda: y * x, lambda: (a1 * a2 + b1 * b2 * D, a1 * b2 + b1 * a2)),
        (lambda: x / y, lambda: quotient(a1, b1, a2, b2)),
        (lambda: y / x, lambda: quotient(a2, b2, a1, b1)),
    ]
    for op, ref in cases:
        try:
            a, b = ref()
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                op()
            continue
        z = op()
        assert_normal(z, D)
        assert (Fraction(z.A, z.M), Fraction(z.B, z.M)) == (a, b)
        if not b:
            assert z == a and hash(z) == hash(a)
    assert_normal(-x, D)
    sign = ref_sign(a1 - a2, b1 - b2, D)
    assert x._cmp(y) == sign
    # the order and == on either side: an int, Fraction or PFrac on the left hands the comparison to QuadReal
    expect = [sign < 0, sign <= 0, sign > 0, sign >= 0, sign == 0, sign != 0]
    assert [x < y, x <= y, x > y, x >= y, x == y, x != y] == expect
    assert [y > x, y >= x, y < x, y <= x, y == x, y != x] == expect
    # y is read in its normal form too: equal to the QuadReal of its value, and reduced mod 1 into normal form
    assert QuadReal(a2, b2, D) == y
    assert_normal(frac1(y), D)


@PROPERTY
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(5e-324)  # the least subnormal
@example(2.2250738585072009e-308)  # the greatest subnormal
@example(2.0**1000)
@example(-(2.0**-1074) * 3)
def test_a_float_is_read_as_the_rational_it_equals(x):
    q = QuadReal(x)
    assert_normal(q, 0)
    assert (q.A, q.B, q.M, q.D) == (Fraction(x).numerator, 0, Fraction(x).denominator, 0)
    assert q == QuadReal(Fraction(x)) and float(q) == x


def test_a_non_finite_float_raises_as_fraction_does():
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises((OverflowError, ValueError)) as want:
            Fraction(x)
        with pytest.raises(want.type, match=str(want.value)):
            QuadReal(x)
