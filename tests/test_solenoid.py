import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsolenoid.cli import _window_json
from ncsolenoid.exactnum import MR_LIMIT, QuadReal, frac1
from ncsolenoid.padic import MAX_ORD_BITS, PAdic
from ncsolenoid.solenoid import (
    _alpha,
    CoherenceError,
    PrimeMismatchError,
    SolenoidSpec,
    alpha_at,
    alphas,
    coherence_check,
    equal_in_Xi,
    from_even_entries,
    reduce_h,
    truncate_spec,
)

SQRT2 = QuadReal.sqrt_of(2)


def make_spec(p, theta, x):
    return SolenoidSpec(p, theta, PAdic.from_rational(p, x))


def test_alpha_frozen_cases():
    spec = make_spec(2, SQRT2 - 1, 1)
    assert alpha_at(spec, 0) == SQRT2 - 1
    assert alpha_at(spec, 2) == SQRT2 / 4  # (theta + 1)/4
    spec2 = make_spec(3, QuadReal(Fraction(1, 2)), 0)
    assert alpha_at(spec2, 1) == QuadReal(Fraction(1, 6))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    st.sampled_from((2, 3, 5, 7)),
    st.fractions(max_denominator=10**6),
    st.fractions(max_denominator=10**6),
    st.sampled_from((0, 2, 3, 5, 8, 12)),
    st.integers(min_value=0, max_value=10**30),
    st.integers(min_value=0, max_value=40),
)
def test_alpha_matches_generic_operators(p, a, b, D, h, n):
    theta = QuadReal(a, b, D)  # rational when b = 0 or D is a square
    spec = make_spec(p, theta, 0)
    assert _alpha(spec, n, h) == (theta + h % p**n) / p**n


def test_recursion_holds_exactly():
    rng = random.Random(3)
    for _ in range(30):
        p = rng.choice([2, 3, 5])
        theta = QuadReal(Fraction(rng.randint(0, 8), 9), Fraction(rng.randint(1, 5), 7), 2)
        x = Fraction(rng.randint(1, 99), rng.choice([n for n in range(1, 40) if n % p]))
        spec = make_spec(p, theta, x)
        # the window of one head read and alpha_at's own reads, against the stream's digit view
        for seq in (alphas(spec, 64), [(n, alpha_at(spec, n)) for n in range(65)]):
            for (n, a), (_, b) in zip(seq, seq[1:]):
                assert b * p - a == QuadReal(spec.x(n)) == QuadReal(spec.digits.digit(n))
        for n in range(64):
            assert spec.head(n + 1) == spec.head(n) + spec.x(n) * p**n


def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec(4, QuadReal(0), 1)
    with pytest.raises(ValueError):
        SolenoidSpec(2, QuadReal(0), PAdic.from_rational(2, Fraction(1, 2)))
    with pytest.raises(PrimeMismatchError):
        SolenoidSpec(2, QuadReal(0), PAdic.from_rational(3, 1))


def test_reduce_h_lands_in_unit_interval():
    spec = make_spec(2, SQRT2 + 1, 3)  # theta deliberately outside [0,1)
    win = reduce_h(spec, 12)
    assert [n for n, _ in win] == list(range(13))
    for _, v in win:
        assert QuadReal(0) <= v < QuadReal(1)
    assert win[0] == (0, SQRT2 - 1)


def test_reduce_h_is_additive_mod1():
    rng = random.Random(5)
    for _ in range(20):
        p = rng.choice([2, 3])
        xa = rng.randint(1, 30)
        xb = rng.randint(1, 30)
        ta = QuadReal(Fraction(rng.randint(0, 6), 7), Fraction(rng.randint(0, 4), 5), 3)
        tb = QuadReal(Fraction(rng.randint(0, 6), 7), Fraction(rng.randint(0, 4), 5), 3)
        a = make_spec(p, ta, xa)
        b = make_spec(p, tb, xb)
        s = make_spec(p, ta + tb, xa + xb)
        for n in range(10):
            lhs = frac1(alpha_at(s, n))
            rhs = frac1(alpha_at(a, n) + alpha_at(b, n))
            assert lhs == rhs


def test_coherence_check_accepts_and_reports():
    spec = make_spec(2, SQRT2 - 1, 1)
    win = reduce_h(spec, 8)
    defects = coherence_check(win, 2, 1)
    assert all(isinstance(d, int) for d in defects)
    bad = ((0, QuadReal(Fraction(1, 3))), (1, QuadReal(Fraction(1, 3))))
    with pytest.raises(CoherenceError):
        coherence_check(bad, 2, 1)
    with pytest.raises(ValueError):
        coherence_check(((0, QuadReal(0)), (3, QuadReal(0))), 2, 2)


def test_even_window_roundtrip_frozen():
    theta = SQRT2 - 1
    even = ((0, theta), (2, (theta + 1) / 4))
    spec = from_even_entries(2, even)
    assert spec.theta == theta
    assert alpha_at(spec, 1) == (theta + 1) / 2  # forced odd entry
    assert spec.x(0) == 1 and spec.x(1) == 0
    assert spec.digits.precision == 2
    with pytest.raises(ValueError):
        spec.x(2)


def test_even_window_roundtrip_random():
    rng = random.Random(9)
    for _ in range(25):
        p = rng.choice([2, 3, 5])
        theta = frac1(QuadReal(Fraction(rng.randint(0, 20), 21), Fraction(rng.randint(0, 6), 11), 5))
        x = rng.randint(0, 120)
        spec = make_spec(p, theta, x)
        N = 6
        even = tuple((n, frac1(alpha_at(spec, n))) for n in range(0, N + 1, 2))
        back = from_even_entries(p, even)
        for n in range(N + 1):
            assert frac1(alpha_at(back, n)) == frac1(alpha_at(spec, n))
        assert all(back.x(n) == spec.x(n) for n in range(N))


def test_from_even_entries_rejects_bad_windows():
    with pytest.raises(ValueError):
        from_even_entries(2, ((0, QuadReal(Fraction(3, 2))), (2, QuadReal(Fraction(3, 8)))))
    with pytest.raises(CoherenceError):
        from_even_entries(2, ((0, QuadReal(Fraction(1, 3))), (2, QuadReal(Fraction(1, 7)))))
    # a window that is empty, starts past 0 or holds an odd index, coherent or not
    half = QuadReal(Fraction(1, 2))
    for window in ((), ((2, half), (4, half)), ((0, half), (1, half))):
        with pytest.raises(ValueError, match="^window must start at 0 and use even indices$"):
            from_even_entries(2, window)


def test_truncate_spec_shifts_sequence():
    spec = make_spec(2, SQRT2 - 1, 5)
    for k in (0, 1, 2, 3):
        t = truncate_spec(spec, k)
        assert t == SolenoidSpec(t.p, t.theta, t.digits)
        for n in range(8):
            assert alpha_at(t, n) == alpha_at(spec, n + k)


def test_spec_files_agreeing_below_the_horizon_are_equal():
    # only the digits below digit_horizon are known, so two files that differ past it load as one spec
    def load(pre, per):
        digits = {"p": 3, "ord": 0, "preperiod": pre, "period": per}
        return SolenoidSpec.from_json({"p": 3, "theta": "sqrt(2)", "digits": digits, "digit_horizon": 3})

    a, b = load([1, 2, 0], [1]), load([1, 2, 0, 2, 2], [0, 1])
    assert a == b and hash(a) == hash(b) and a.to_json() == b.to_json()
    assert a != load([1, 2, 1], [1])


def test_digit_horizon_bound():
    # p**H is built when the file is read: H * floor(log2 p) bits at most, as for ord
    def load(p, horizon):
        digits = {"p": p, "ord": 0, "preperiod": [], "period": [1]}
        return SolenoidSpec.from_json({"p": p, "theta": "sqrt(2)", "digits": digits, "digit_horizon": horizon})

    for p in (2, 3, MR_LIMIT - 168):
        last = MAX_ORD_BITS // (p.bit_length() - 1)
        assert load(p, last).digits.precision == last
        for horizon in (last + 1, 10**8):
            with pytest.raises(ValueError, match="MAX_ORD_BITS"):
                load(p, horizon)


def test_equal_in_Xi():
    a = make_spec(2, SQRT2 - 1, 1)
    b = make_spec(2, SQRT2, 1)  # differs by an integer at index 0 only
    assert equal_in_Xi(a, a, 12)
    assert frac1(alpha_at(b, 0)) == frac1(alpha_at(a, 0))
    assert not equal_in_Xi(a, b, 4)  # integer shift does not survive division by p^n
    with pytest.raises(PrimeMismatchError):
        equal_in_Xi(a, make_spec(3, QuadReal(0), 1), 2)


def test_seqwindow_json_roundtrip():
    # a window prints as [[n, "value"], ...] and reads back as the same (n, value) pairs
    spec = make_spec(5, QuadReal(Fraction(1, 3), Fraction(1, 4), 5), 7)
    win = reduce_h(spec, 6)
    printed = json.loads(json.dumps(_window_json(win)))
    assert tuple((n, QuadReal.parse(v)) for n, v in printed) == win
