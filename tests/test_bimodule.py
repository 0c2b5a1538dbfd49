"""Kernel-level checks: atoms, module elements, inner products, connecting maps,
and the compatibility identity suite at small sample plans."""

import dataclasses
import functools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncsolenoid import bimodule, exactnum
from ncsolenoid.bimodule import (
    AffineAtom,
    BimCtx,
    HatFn,
    ModElem,
    SamplePlan,
    act_alg_left,
    act_alg_right,
    act_left_gen,
    act_right_gen,
    embed_terms,
    group_diff,
    identity_suite,
    inner_left,
    inner_right,
    level_embed,
    random_hat,
    random_mod_elem,
    term_diff,
)
from ncsolenoid.exactnum import QuadReal, RadicandMismatchError, frac1
from ncsolenoid.morita import ProjectionData
from ncsolenoid.suite import check_bimodule
from ncsolenoid.padic import PAdic
from ncsolenoid.solenoid import SolenoidSpec

THETA = QuadReal.sqrt_of(2) - 1


def spec_p(p: int) -> SolenoidSpec:
    return SolenoidSpec(p, THETA, PAdic.from_rational(p, 1))


def ctx_at(p: int, n: int) -> BimCtx:
    return BimCtx.build(spec_p(p), ProjectionData(1, 1, 0), n)


def hat_eval(h: HatFn, t):
    """h at t, linear between its breakpoints and 0 outside them: two real interps, one per part."""
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape, dtype=complex)
    out.real = np.interp(t, h.breakpoints, [v.real for v in h.values], left=0.0, right=0.0)
    out.imag = np.interp(t, h.breakpoints, [v.imag for v in h.values], left=0.0, right=0.0)
    return out


def atom_eval(atom: AffineAtom, t):
    """exp(2 pi i (omega t + phi)) h((t - s) / lam) at t, the exact parameters lowered to floats."""
    lam, s, omega, phi = float(atom.lam), float(atom.s), float(atom.omega), float(atom.phi)
    t = np.asarray(t, dtype=float)
    values = hat_eval(atom.h, (t - s) / lam)
    return np.exp(2j * math.pi * (omega * t + phi)) * values if omega or phi else values


def class_eval(F: ModElem, t, j: int):
    """Class j of F at t: the sum of coef * atom(t) over its terms."""
    t = np.asarray(t, dtype=float)
    acc = np.zeros(t.shape, dtype=complex)
    for coef, atom in F.terms.get(j % F.modulus, ()):
        acc += coef * atom_eval(atom, t)
    return acc


def term_sum(ctx, groups, side, k, r):
    """Component k at r of an inner product given as exact terms, summed in floats.

    Each term (k, m) of (c1, A1), (c2, A2) is Per[g](r) = sum_q g(r + q), read
    over the q where A1's argument reaches its support.
    """
    r = np.asarray(r, dtype=float)
    acc = np.zeros(r.shape, dtype=complex)
    c, g = ctx.c, ctx.gamma_f
    for (_, (c1, A1), (c2, A2)), counts in groups.items():
        lo, hi = (float(x) for x in A1.support())
        for (kk, m), count in counts.items():
            if kk != k:
                continue
            if side == "left":  # A1(c(r + q) + m), read as A1(cr + (m + cq)) like the lattice sum
                qs = range(math.floor((lo - m) / c - r.max()) - 1, math.ceil((hi - m) / c - r.min()) + 2)
                for q in qs:
                    t = c * r + (m + c * q)
                    acc += count * (c1 * atom_eval(A1, t)) * np.conj(c2 * atom_eval(A2, t - k * g))
            else:  # A1((c(r + q) - m) gamma), read as A1((cr - (m - cq)) gamma)
                qs = range(math.floor((lo / g + m) / c - r.max()) - 1, math.ceil((hi / g + m) / c - r.min()) + 2)
                for q in qs:
                    u = (c * r - (m - c * q)) * g
                    acc += count * np.conj(c1 * atom_eval(A1, u)) * (c2 * atom_eval(A2, u + k))
    return acc


def term_ks(groups) -> list[int]:
    """The k at which an inner product given as exact terms has a term."""
    return sorted({k for counts in groups.values() for k, _ in counts})


def triple_sum(ctx, triples, side, t, j):
    """Class j at t of an algebra action given as triple terms, summed in floats.

    Left keys are (class, x, n): F moved by x, G by x + n gamma, H by n gamma;
    right keys are (class, n, y): F moved by n, G by n + y gamma, H by y gamma.
    """
    t = np.asarray(t, dtype=float)
    acc = np.zeros(t.shape, dtype=complex)
    g = ctx.gamma_f
    for ((cF, AF), (cG, AG), (cH, AH)), counts in triples.items():
        for (cls, u, v), count in counts.items():
            if cls == j:  # left (u, v) = (x, n), right (n, y): F by u, G by u + v gamma, H by v gamma
                acc += count * (cF * atom_eval(AF, t - u)) * np.conj(cG * atom_eval(AG, t - u - v * g)) * (cH * atom_eval(AH, t - v * g))
    return acc


def pointwise_diff(A: ModElem, B: ModElem, points: int = 200) -> float:
    """Largest |A - B| over every class, on an even grid one unit past both supports."""
    ends = [s for s in (A.support(), B.support()) if s is not None]
    if not ends:
        return 0.0
    t = np.linspace(float(min(s[0] for s in ends)) - 1.0, float(max(s[1] for s in ends)) + 1.0, points)
    return max((float(np.max(np.abs(class_eval(A, t, j) - class_eval(B, t, j)))) for j in A.terms.keys() | B.terms.keys()), default=0.0)


def sample_r(rng: random.Random, points: int) -> np.ndarray:
    """The 64 grid points q/64, then points - 64 draws from [0, 2)."""
    return np.asarray([q / 64 for q in range(64)] + [rng.uniform(0.0, 2.0) for _ in range(points - 64)])


def test_hatfn_validation():
    with pytest.raises(ValueError):
        HatFn((0.0, 1.0), (1 + 0j, 0j))  # nonzero left endpoint
    with pytest.raises(ValueError):
        HatFn((0.0, 0.0, 1.0), (0j, 1j, 0j))  # not increasing
    with pytest.raises(ValueError):
        HatFn((0.0,), (0j,))


def test_hatfn_eval_and_support():
    f = HatFn((0.0, 1.0, 2.0), (0j, 2 - 1j, 0j))
    t = np.array([-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
    vals = hat_eval(f, t)
    assert vals[0] == 0 and vals[-1] == 0
    assert vals[3] == 2 - 1j
    assert abs(vals[2] - (1 - 0.5j)) < 1e-15
    assert f.support() == (0, 2)


def test_hatfn_equality_ignores_cached_tables():
    a = HatFn((0.0, 0.5, 1.0), (0j, 1 - 2j, 0j))
    b = HatFn((0.0, 0.5, 1.0), (0j, 1 - 2j, 0j))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != HatFn((0.0, 0.5, 1.0), (0j, 1 + 2j, 0j))
    assert [f.name for f in dataclasses.fields(HatFn)] == ["breakpoints", "values"]


def test_atom_combinators():
    f = HatFn((0.0, 1.0, 2.0), (0j, 1 + 0j, 0j))
    atom = AffineAtom(f)
    t = np.array([1.5])
    half = Fraction(1, 2)
    assert abs(atom_eval(atom.shift(half), t)[0] - hat_eval(f, np.array([1.0]))[0]) < 1e-15
    assert atom.shift(half).support() == (half, Fraction(5, 2))
    assert abs(atom_eval(atom.dilate(2), np.array([2.0]))[0] - 1.0) < 1e-15
    assert atom.dilate(2).support() == (0, 4)
    ph = atom.modulate(Fraction(1, 4), Fraction(1, 8))
    expect = np.exp(2j * math.pi * (0.25 * 1.5 + 0.125)) * hat_eval(f, t)[0]
    assert abs(atom_eval(ph, t)[0] - expect) < 1e-15
    assert ph.support() == f.support()
    # the phase is kept reduced into [0, 1), so equal maps are equal atoms
    assert atom.modulate(0, Fraction(5, 4)) == atom.modulate(0, Fraction(-3, 4)) == atom.modulate(0, Fraction(1, 4))
    assert hash(atom.modulate(0, 1)) == hash(atom)
    with pytest.raises(ValueError):
        AffineAtom(f, lam=Fraction(-1))


PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)
# (a + b sqrt(2)) / m with |a|, |b| <= 8 <= m <= 16
EXACT = st.builds(
    lambda a, b, m: QuadReal(Fraction(a, m), Fraction(b, m), 2), st.integers(-8, 8), st.integers(-8, 8), st.integers(8, 16)
)
FACTORS = st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), Fraction(2)])
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("shift"), EXACT),
        st.tuples(st.just("dilate"), FACTORS),
        st.tuples(st.just("modulate"), EXACT, EXACT),
    ),
    max_size=6,
)


def _chain(atom, steps):
    for name, *args in steps:
        atom = getattr(atom, name)(*args)
    return atom


def _nested(fn, steps):
    """The same chain as nested float maps t -> values, one per step."""
    for name, *args in steps:
        x = [float(a) for a in args]
        if name == "shift":
            fn = (lambda g, u: lambda t: g(t - u))(fn, *x)
        elif name == "dilate":
            fn = (lambda g, q: lambda t: g(t / q))(fn, *x)
        else:
            fn = (lambda g, w, f: lambda t: np.exp(2j * math.pi * (w * t + f)) * g(t))(fn, *x)
    return fn


@PROPERTY
@given(st.integers(0, 2**32 - 1), STEPS)
def test_atom_chain_matches_nested_float_maps(seed, steps):
    h = random_hat(random.Random(seed))
    atom = _chain(AffineAtom(h), steps)
    lo, hi = map(float, atom.support())
    t = np.linspace(lo - 1.0, hi + 1.0, 97)
    size = max(abs(v) for v in h.values)
    assert float(np.max(np.abs(atom_eval(atom, t) - _nested(functools.partial(hat_eval, h), steps)(t)))) <= 1e-12 * size


@PROPERTY
@given(STEPS, EXACT, FACTORS, EXACT, EXACT)
def test_atom_laws_hold_as_equality(steps, u, q, w, f):
    atom = _chain(AffineAtom(HatFn((0.0, 0.4, 1.1), (0j, 1 - 1j, 0j))), steps)
    assert atom.shift(u).dilate(q) == atom.dilate(q).shift(q * u)
    # a modulation moved past a shift by u picks up the phase -w*u
    moved, expect = atom.modulate(w, f).shift(u), atom.shift(u).modulate(w, f - w * u)
    assert moved == expect and hash(moved) == hash(expect)
    assert (moved == atom.shift(u).modulate(w, f)) == (frac1(w * u) == 0)


@PROPERTY
@given(STEPS, EXACT, FACTORS, st.integers(1, 5))
def test_atom_caches_match_fresh_atoms(steps, u, q, k):
    # the hash and the support are computed once and kept: atoms equal by two routes read equal caches, each
    # filled in its own order, and a fresh atom of the same parameters reads the same, lam given as an int, a
    # Fraction or a QuadReal
    h = HatFn((0.0, 0.4, 1.1), (0j, 1 - 1j, 0j))
    atom = _chain(AffineAtom(h).dilate(k), steps)
    hash(atom), atom.support()  # filled before every move below: no move may carry them over
    for moved in (atom.shift(u), atom.dilate(q), atom.modulate(u, q)):
        fresh = AffineAtom(h, moved.lam, moved.s, moved.omega, moved.phi)
        assert hash(moved) == hash(fresh) and moved.support() == fresh.support()
    a, b = atom.shift(u).dilate(q), atom.dilate(q).shift(q * u)
    support, hashed = a.support(), hash(a)
    assert a == b and hash(b) == hashed and b.support() == support
    lam = atom.lam
    forms = [lam, lam.as_fraction()] + ([lam.as_int()] if lam.as_int() is not None else [])
    for form in forms:
        fresh = AffineAtom(h, form, atom.s, atom.omega, atom.phi)
        assert type(fresh.lam) is QuadReal
        assert fresh == atom and hash(fresh) == hash(atom) and fresh.support() == atom.support()
    if not steps:  # lam = k is an integer here, so the int form was read
        assert forms[-1] == k and type(forms[-1]) is int


# dilation factors: rationals, a rational QuadReal, and ints, whose dilations an atom keeps
DILATIONS = st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), QuadReal(Fraction(5, 4)), 2, 3, 7])
MOVES = st.lists(
    st.one_of(
        st.tuples(st.just("shift"), EXACT),
        st.tuples(st.just("dilate"), DILATIONS),
        st.tuples(st.just("modulate"), EXACT, EXACT),
    ),
    max_size=8,
)


@PROPERTY
@given(MOVES, st.booleans(), st.sampled_from([2, 3, 7]), DILATIONS)
def test_moves_keep_the_support_and_dilation_of_a_fresh_atom(steps, filled, q, other):
    # an atom moved from one whose support is known, or not, has the support of a fresh atom of the same
    # parameters.  A dilation by an int is kept on the atom and handed out again while the factor is the same: a
    # kept one equals a fresh atom's dilation as much as a new one does
    h = HatFn((0.0, 0.4, 1.1), (0j, 1 - 1j, 0j))
    atom = AffineAtom(h)
    if filled:
        atom.support()
    for name, *args in steps:
        atom = getattr(atom, name)(*args)
        fresh = lambda: AffineAtom(h, atom.lam, atom.s, atom.omega, atom.phi)  # a new one each call: none keeps any
        assert atom == fresh() and hash(atom) == hash(fresh()) and atom.support() == fresh().support()
        expect = fresh().dilate(q)
        first = atom.dilate(q)
        assert atom.dilate(q) is first  # kept
        assert atom.dilate(other) == fresh().dilate(other)  # another factor, kept in place of q if it is an int
        for dilated in (first, atom.dilate(q)):
            assert dilated == expect and hash(dilated) == hash(expect) and dilated.support() == expect.support()


@PROPERTY
@given(MOVES, DILATIONS, EXACT)
def test_moves_leave_a_zero_omega_alone(steps, q, f):
    # a move leaves a zero omega alone: a dilation keeps omega = 0 with no QuadReal division, and a modulation by
    # w = 0 keeps omega; each move equals a fresh atom's
    h = HatFn((0.0, 0.4, 1.1), (0j, 1 - 1j, 0j))
    moved = _chain(AffineAtom(h), steps)
    assert moved.modulate(0, f).omega is moved.omega
    assert moved.modulate(0, f) == AffineAtom(h, moved.lam, moved.s, moved.omega, moved.phi + f)
    assert moved.modulate(f, 0) == AffineAtom(h, moved.lam, moved.s, moved.omega + f, moved.phi)
    assert moved.dilate(q) == AffineAtom(h, moved.lam * q, moved.s * q, moved.omega / q, moved.phi)
    atom = AffineAtom(h, moved.lam, moved.s, 0, moved.phi)
    expect = AffineAtom(h, atom.lam, atom.s, atom.omega, atom.phi).dilate(q)

    def no_division(*args):
        raise AssertionError("a QuadReal division")

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(exactnum, "_div", no_division)
        dilated = atom.dilate(q)
    assert dilated.omega is atom.omega
    assert dilated == expect and hash(dilated) == hash(expect) and dilated.support() == expect.support()


Q = QuadReal
ROOT2 = QuadReal.sqrt_of(2)


@st.composite
def window_args(draw):
    """(k, u1, v1, u2, v2, g) over one radicand D: each operand a surd of Q(sqrt D), a rational or a dyadic hat end.

    Numerators reach 2^80, so isqrt reads more than a float's 53 bits; g is the int 1, a positive surd or a
    positive rational (the inverse gamma of a rational theta).
    """
    D = draw(st.sampled_from([2, 3, 5, 6, 999_983]))
    ints = st.integers(-(2**80), 2**80) | st.integers(-40, 40)
    dens = st.integers(1, 2**40) | st.integers(1, 12)
    surd = st.builds(lambda a, b, m: Q(Fraction(a, m), Fraction(b, m), D), ints, ints.filter(bool), dens)
    rational = st.builds(Fraction, ints, dens).map(Q)
    dyadic = st.floats(-1e6, 1e6, allow_nan=False).map(Q)  # as HatFn reads its float ends
    end = surd | rational | dyadic
    g = draw(st.just(1) | surd | rational)
    if g != 1:
        g = -g if g < 0 else g or Q(1)
    return draw(st.integers(-50, 50)), draw(end), draw(end), draw(end), draw(end), g


@PROPERTY
@given(window_args())
# exact integer ends, which an open window leaves out: supports that only touch (-2 and 1 - 1 = 0 with g = 1),
# the surd ends sqrt2 * sqrt2 = 2 and 2 sqrt2 * sqrt2 = 4, 3/3 and 6/3 with g = 1/3, and 0 and 3 with g = 3
@example((0, Q(0.0), Q(2.0), Q(1.0), Q(1.0), 1))
@example((0, ROOT2, Q(0), 2 * ROOT2, Q(0), ROOT2))
@example((5, Q(-1.5), Q(0.5), Q(Fraction(4, 3)), Q(Fraction(1, 3)), Q(Fraction(1, 3))))
@example((-1, 1 - ROOT2, -ROOT2, 2 + ROOT2, ROOT2, Q(3)))
def test_window_matches_quadreal_floors(args):
    # the window read off the operands' integers is the open range of the QuadReal bounds
    k, u1, v1, u2, v2, g = args
    lo, hi = (k + u1 - v1) * g, (k + u2 - v2) * g
    assert bimodule._window(k, u1, v1, u2, v2, g) == (math.floor(lo) + 1, math.ceil(hi) - 1)


def test_window_refuses_two_surds():
    root3 = QuadReal.sqrt_of(3)
    for args in [(ROOT2, root3, Q(1), Q(2), 1), (Q(0), Q(1), ROOT2, root3, 1), (ROOT2, Q(0), ROOT2, Q(0), root3)]:
        with pytest.raises(RadicandMismatchError):
            bimodule._window(0, *args)


@PROPERTY
@given(window_args(), st.sampled_from([1, -1]), st.booleans())
def test_fused_matches_quadreal_arithmetic(args, sign, mod1):
    # one product-sum with one gcd equals the normalised QuadReal result, reduced mod 1 by frac1
    _, a, b, c, _, g = args
    for x, y in ((b, c), (b, g), (g, 1), (c, Fraction(-3, 7))):
        want = a + sign * x * y
        assert bimodule._fused(a, x, y, sign, mod1) == (frac1(want) if mod1 else want)


def test_modulate_by_zero_keeps_phi():
    # a modulation by f = 0 keeps phi as its parent's own object; any other f moves it
    atom = AffineAtom(HatFn((0.0, 0.4, 1.1), (0j, 1 - 1j, 0j)), phi=Fraction(1, 3)).shift(ROOT2).modulate(ROOT2, 0)
    for zero in (0, Fraction(0), Q(0)):
        assert atom.modulate(ROOT2, zero).phi is atom.phi
    assert atom.modulate(0, Fraction(2, 3)).phi == 0 and atom.modulate(0, 1).phi is not atom.phi


def test_term_diff_compares_term_multisets_per_class():
    a = AffineAtom(HatFn((0.0, 0.5, 1.0), (0j, 1 + 0j, 0j)))
    b = a.shift(1)
    A = ModElem(2, {0: ((1j, a), (2.0 + 0j, b))})
    assert term_diff(A, ModElem(2, {0: ((2.0 + 0j, b.modulate(0, 1)), (1j, a))})) == 0.0  # order, a whole turn
    assert term_diff(A, ModElem(2, {1: A.terms[0]})) == math.inf  # another class
    assert term_diff(A, A.add(ModElem.delta(2, 0, a, coef=1j))) == math.inf  # multiplicity
    assert term_diff(A, ModElem(2, {0: ((1j, a), (2.0 + 0j, b.shift(Fraction(1, 10**30))))})) == math.inf
    # classes that share one tuple of A are each compared with their own tuple of B
    shared = ModElem(2, {0: A.terms[0], 1: A.terms[0]})
    for j in (0, 1):
        assert term_diff(shared, ModElem(2, {j: A.terms[0], 1 - j: A.terms[0][:1]})) == math.inf
    with pytest.raises(ValueError):
        A.add(ModElem.delta(2, 1, a, coef=complex(math.nan, 1.0)))  # a non-finite term is not a section


@pytest.mark.parametrize("p, n", [(2, 1), (3, 0), (7, 0)])
def test_term_groups_are_plain_dicts_of_positive_counts(p, n):
    # every grouping is a plain dict of plain dicts of positive int counts, so == is multiset equality; one
    # count more or one term fewer is a different multiset
    ctx = ctx_at(p, n)
    rng = random.Random(50 + 10 * p + n)
    checked = 0
    for _ in range(3):
        F, G, H = _planted(rng, ctx.c, 1.0), random_mod_elem(rng, ctx.c), _planted(rng, ctx.c, 0.5j)
        FG = inner_left(ctx, F, G)
        groups = [FG, inner_right(ctx, F, G), embed_terms(ctx, FG), act_alg_left(ctx, FG, H)]
        groups.append(act_alg_right(ctx, F, inner_right(ctx, G, H)))
        for A in groups:
            assert type(A) is dict
            for counts in A.values():
                assert type(counts) is dict and counts
                assert all(type(v) is int and v > 0 for v in counts.values())
            for key, counts in list(A.items())[:3]:
                x = next(iter(counts))
                for step in (1, -1):  # one count more, one term fewer (a count or group that reaches 0 goes)
                    B = {**A, key: {k: n for k, n in {**counts, x: counts[x] + step}.items() if n}}
                    B = {g: c for g, c in B.items() if c}
                    assert group_diff(A, B) == group_diff(B, A) == math.inf
                checked += 1
            assert group_diff(A, {g: dict(reversed(c.items())) for g, c in reversed(A.items())}) == 0.0
        for moved in (act_left_gen(ctx, "U", 1, F), act_right_gen(ctx, "V", 1, F), level_embed(ctx, F)):
            for j, pairs in moved.terms.items():
                assert term_diff(moved, ModElem(moved.modulus, {**moved.terms, j: pairs[::-1]})) == 0.0
                assert term_diff(moved, ModElem(moved.modulus, {**moved.terms, j: pairs + pairs[:1]})) == math.inf
                assert term_diff(moved, ModElem(moved.modulus, {**moved.terms, j: pairs[1:]})) == math.inf
    assert checked > 30


def test_modelem_basics():
    f = AffineAtom(HatFn((0.0, 1.0, 2.0), (0j, 1 + 0j, 0j)))
    F = ModElem.delta(4, 1, f, coef=2.0)
    G = ModElem.delta(4, 5, f)  # index reduces to 1
    s = F.add(G)
    assert s.indices() == (1,)
    t = np.array([1.0])
    assert abs(class_eval(s, t, 1)[0] - 3.0) < 1e-15
    assert abs(class_eval(s.scaled(1j), t, 1)[0] - 3j) < 1e-15
    assert s.support() == (0, 2)
    with pytest.raises(ValueError):
        F.add(ModElem.delta(3, 0, f))


def test_ctx_constants_and_gamma_independence():
    c0 = ctx_at(2, 0)
    c1 = ctx_at(2, 1)
    assert (c0.c, c0.d, c0.a, c0.b) == (1, 0, 3, -1)
    assert (c1.c, c1.d) == (4, -1)
    assert c0.gamma_f == c1.gamma_f  # level-independent
    assert abs(c0.gamma_f - (math.sqrt(2) + 1)) < 1e-12
    # beta chain defect is an integer (needed by the embedding homomorphism)
    defect = 4 * c1.beta_f - c0.beta_f
    assert abs(defect - round(defect)) < 1e-9


def test_ctx_rejects_bad_projection():
    with pytest.raises(ValueError):
        BimCtx.build(spec_p(2), ProjectionData(1, 1, 1), 0)  # trace outside (0, m)
    bad = SolenoidSpec(2, THETA, PAdic.from_rational(2, 2))  # x_0 = 0 fails the condition
    with pytest.raises(ValueError):
        BimCtx.build(bad, ProjectionData(1, 1, 0), 0)


def test_left_generator_action_formulas():
    ctx = ctx_at(2, 1)  # modulus 4
    f = HatFn((0.0, 1.0, 2.0), (0j, 1 + 0j, 0j))
    F = ModElem.delta(4, 1, AffineAtom(f))
    t = np.array([0.7, 1.3, 2.2])
    # U: translate by gamma, index +1
    UF = act_left_gen(ctx, "U", 1, F)
    assert UF.indices() == (2,)
    assert np.allclose(class_eval(UF, t, 2), hat_eval(f, t - ctx.gamma_f))
    # V: phase exp(2 pi i (t - a j)/c) at the same index
    VF = act_left_gen(ctx, "V", 1, F)
    expect = np.exp(2j * math.pi * (t - ctx.a * 1) / ctx.c) * hat_eval(f, t)
    assert np.allclose(class_eval(VF, t, 1), expect)
    assert act_left_gen(ctx, "U", 0, F) is F


def test_right_generator_action_formulas():
    ctx = ctx_at(2, 1)
    f = HatFn((0.0, 1.0, 2.0), (0j, 1 + 0j, 0j))
    F = ModElem.delta(4, 1, AffineAtom(f))
    t = np.array([0.7, 1.3, 2.2])
    FU = act_right_gen(ctx, "U", 1, F)
    assert FU.indices() == ((1 + ctx.d) % 4,)
    assert np.allclose(class_eval(FU, t, 1 + ctx.d), hat_eval(f, t - 1.0))
    FV = act_right_gen(ctx, "V", 1, F)
    expect = np.exp(2j * math.pi * (t / ctx.gamma_f - 1) / ctx.c) * hat_eval(f, t)
    assert np.allclose(class_eval(FV, t, 1), expect)


def test_commutation_relations_pointwise():
    rng = random.Random(11)
    for p, n in ((2, 0), (2, 1), (3, 0)):
        ctx = ctx_at(p, n)
        F = random_mod_elem(rng, ctx.c)
        uv = act_left_gen(ctx, "U", 1, act_left_gen(ctx, "V", 1, F))
        vu = act_left_gen(ctx, "V", 1, act_left_gen(ctx, "U", 1, F))
        assert pointwise_diff(uv, vu.scaled(np.exp(2j * math.pi * ctx.beta_f))) < 1e-9
        ruv = act_right_gen(ctx, "V", 1, act_right_gen(ctx, "U", 1, F))
        rvu = act_right_gen(ctx, "U", 1, act_right_gen(ctx, "V", 1, F))
        assert pointwise_diff(ruv, rvu.scaled(np.exp(2j * math.pi * ctx.alpha_f))) < 1e-9


def test_inner_left_single_summand_frozen():
    ctx = ctx_at(2, 0)  # c = 1
    v = 0.8 - 0.3j
    f = HatFn((0.0, 0.15, 0.3), (0j, v, 0j))
    F = ModElem.delta(1, 0, AffineAtom(f))
    A = inner_left(ctx, F, F)
    assert term_ks(A) == [0]
    got = term_sum(ctx, A, "left", 0, np.array([0.1]))[0]
    fx = hat_eval(f, np.array([0.1]))[0]
    assert abs(got - abs(fx) ** 2) < 1e-15
    assert abs(got.imag) < 1e-15


def test_inner_products_no_alignment_vanish():
    ctx = ctx_at(2, 0)
    f = HatFn((0.0, 0.1, 0.2), (0j, 1 + 0j, 0j))
    g = HatFn((40.0, 40.5, 41.0), (0j, 1 + 0j, 0j))
    # no integer multiple of gamma bridges these supports
    assert inner_left(ctx, ModElem.delta(1, 0, AffineAtom(f)), ModElem.delta(1, 0, AffineAtom(g))) == {}
    # the right offsets are integers; a sub-unit gap between integers kills all of them
    h = HatFn((40.4, 40.55, 40.7), (0j, 1 + 0j, 0j))
    assert inner_right(ctx, ModElem.delta(1, 0, AffineAtom(f)), ModElem.delta(1, 0, AffineAtom(h))) == {}
    empty = ModElem(ctx.c)
    assert inner_left(ctx, empty, ModElem.delta(1, 0, AffineAtom(f))) == {}
    # supports that only touch, at 0.2 = 0.2 + 0 on the right, do not overlap on an open interval
    touch = AffineAtom(HatFn((0.2, 0.3, 0.4), (0j, 1 + 0j, 0j)))
    F = ModElem.delta(1, 0, AffineAtom(f))
    assert inner_right(ctx, F, ModElem.delta(1, 0, touch)) == {}
    assert term_ks(inner_right(ctx, F, ModElem.delta(1, 0, touch.shift(-Fraction(1, 10**30))))) == [0]


def _per_m_kernel(ctx, F1, F2, side, k, r):
    """One lattice index m at a time: the plain form of an inner_left / inner_right kernel.

    Returns the kernel at (r, k), the number of (j1, j2) entries summed, and how
    many of those had no m in their window.
    """
    M = cc = ctx.c  # the classes' modulus and the lattice scale are one c
    g = ctx.gamma_f
    r = np.asarray(r, dtype=float)
    acc = np.zeros(r.shape, dtype=complex)
    entries = empty = 0
    for j1 in F1.terms:
        s1 = [float(x) for x in F1.support(j1)]
        for j2 in F2.terms:
            s2 = [float(x) for x in F2.support(j2)]
            if side == "left":
                k_lo, k_hi = (s1[0] - s2[1]) / g, (s1[1] - s2[0]) / g
                fits = (k - (j1 - j2)) % M == 0
                m0 = (ctx.a * j1) % M
                lo = math.floor(s1[0] - cc * float(np.max(r)))
                hi = math.ceil(s1[1] - cc * float(np.min(r)))
            else:
                k_lo, k_hi = s2[0] - s1[1], s2[1] - s1[0]
                fits = (k - ctx.a * (j2 - j1)) % M == 0
                m0 = (-j1) % M
                lo = math.floor(cc * float(np.min(r)) - s1[1] / g)
                hi = math.ceil(cc * float(np.max(r)) - s1[0] / g)
            if not fits or not math.ceil(k_lo - 1e-12) <= k <= math.floor(k_hi + 1e-12):
                continue
            ms = [m for m in range(lo, hi + 1) if (m - m0) % M == 0]
            entries += 1
            empty += not ms
            for m in ms:
                if side == "left":
                    acc += class_eval(F1, cc * r + m, j1) * np.conj(class_eval(F2, cc * r + m - k * g, j2))
                else:
                    u = (cc * r - m) * g
                    acc += np.conj(class_eval(F1, u, j1)) * class_eval(F2, u + k, j2)
    return acc, entries, empty


def _planted(rng, M, coef):
    """A random element plus the same narrow and wide hats at two classes each."""
    narrow = AffineAtom(HatFn((0.1, 0.3, 0.5), (0j, 1 + 1j, 0j)))
    wide = AffineAtom(HatFn((-1.5 * M, 0.2 * M, 1.5 * M), (0j, 0.7 - 1.3j, 0j)))
    planted = {0: narrow, 1: narrow.shift(Fraction(1, 20)), 2: wide, 3: wide.shift(Fraction(3, 10))}
    return random_mod_elem(rng, M).add(ModElem(M, {j: ((coef * (1 + 0.5j * j), atom),) for j, atom in planted.items()}))


def _reference_ks(ctx, F1, F2, side):
    """Every k at which some class pair of F1 and F2 aligns and its float supports meet, as _per_m_kernel reads them."""
    M, g = ctx.c, ctx.gamma_f
    out = set()
    for j1 in F1.terms:
        lo1, hi1 = (float(x) for x in F1.support(j1))
        for j2 in F2.terms:
            lo2, hi2 = (float(x) for x in F2.support(j2))
            if side == "left":
                k_lo, k_hi, r = (lo1 - hi2) / g, (hi1 - lo2) / g, j1 - j2
            else:
                k_lo, k_hi, r = lo2 - hi1, hi2 - lo1, ctx.a * (j2 - j1)
            first = math.ceil(k_lo - 1e-12)
            out.update(range(first + (r - first) % M, math.floor(k_hi + 1e-12) + 1, M))
    return sorted(out)


def _assert_terms_match_per_m(ctx, F1, F2, side, rs):
    """The float sum of the exact terms at every k and r against _per_m_kernel, within 1e-12."""
    A = (inner_left if side == "left" else inner_right)(ctx, F1, F2)
    assert A
    ks = _reference_ks(ctx, F1, F2, side)
    assert set(term_ks(A)) <= set(ks)
    most = empty = 0
    for k in ks:
        for r in rs:
            got = term_sum(ctx, A, side, k, r)
            want, entries, misses = _per_m_kernel(ctx, F1, F2, side, k, r)
            assert got.shape == r.shape
            assert float(np.max(np.abs(got - want))) <= 1e-12, (side, k, r.shape)
            most, empty = max(most, entries), empty + misses
    return A, most, empty


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [0, 1])
def test_inner_kernels_match_per_m_reference(p, n):
    ctx = ctx_at(p, n)
    M = ctx.c
    rng = random.Random(100 * p + n)
    # the same hats at two classes each give kernels with more than one (j1, j2) entry; a
    # wide hat puts several m in one window, and at a single r point the m window of a
    # narrow hat can miss its residue class
    F, G = _planted(rng, M, 1.0), _planted(rng, M, -0.4 + 2j)
    line = np.concatenate([np.linspace(0.0, 1.0, 41), [rng.uniform(0.0, 2.0) for _ in range(19)]])
    rs = (line, line.reshape(3, 20), np.array([0.37]))
    most = empty = 0
    for side in ("left", "right"):
        for F1, F2 in ((F, G), (G, F), (F, F)):
            _, entries, misses = _assert_terms_match_per_m(ctx, F1, F2, side, rs)
            most, empty = max(most, entries), empty + misses
    if M > 1:
        assert most >= 2 and empty > 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [0, 1])
def test_inner_all_k_matches_per_m_reference(p, n):
    # level_embed spreads each class over p classes that share one term tuple, whose terms
    # are read once for all of them
    ctx, ctx2 = ctx_at(p, n), ctx_at(p, n + 1)
    rng = random.Random(200 * p + n)
    F, G = _planted(rng, ctx.c, 1.0), _planted(rng, ctx.c, -0.4 + 2j)
    iF, iG = level_embed(ctx, F), level_embed(ctx, G)
    assert len({id(pairs) for pairs in iG.terms.values()}) * p == len(iG.terms)
    line = np.concatenate([np.linspace(0.0, 1.0, 41), [rng.uniform(0.0, 2.0) for _ in range(19)]])
    for side, inner in (("left", inner_left), ("right", inner_right)):
        A, _, _ = _assert_terms_match_per_m(ctx2, iF, iG, side, (line, line.reshape(3, 20)))
        # phi of the level-n terms reads the level-n inner product at p*r, in component k*p, up to the
        # rounding of the arguments, which are built from c'r rather than c(pr)
        B = inner(ctx, F, G)
        moved = embed_terms(ctx, B)
        assert group_diff(moved, A) == 0.0
        assert term_ks(moved) == [k * p for k in term_ks(B)]
        for k in term_ks(B):
            want = term_sum(ctx, B, side, k, line * p)
            got = term_sum(ctx2, moved, side, k * p, line)
            assert float(np.max(np.abs(got - want))) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


def _terms_reference(ctx, F1, F2, side):
    """The inner product's terms from every class pair and term pair, each at the k of its exact open window."""
    M, g = ctx.c, ctx.gamma
    out = {}
    for j1, pairs1 in F1.terms.items():
        for j2, pairs2 in F2.terms.items():
            for t1 in pairs1:
                for t2 in pairs2:
                    (lo1, hi1), (lo2, hi2) = t1[1].support(), t2[1].support()
                    if side == "left":
                        lo, hi, r, m = (lo1 - hi2) / g, (hi1 - lo2) / g, j1 - j2, ctx.a * j1 % M
                    else:
                        lo, hi, r, m = lo2 - hi1, hi2 - lo1, ctx.a * (j2 - j1), -j1 % M
                    first = math.floor(lo) + 1
                    for k in range(first + (r - first) % M, -math.floor(-hi), M):
                        out.setdefault((g, t1, t2), Counter())[k, m] += 1
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_aligned_pairs_match_every_pair_reference(p):
    # the bisected class pairs and shared windows give the terms of the loop over every pair
    rng = random.Random(400 + p)
    for n in (0, 1, 2):
        ctx, ctx2 = ctx_at(p, n), ctx_at(p, n + 1)
        for _ in range(3):
            F, G = _planted(rng, ctx.c, 1.0), _planted(rng, ctx.c, 0.5 - 1j)
            cases = [(ctx, F, G), (ctx, G, random_mod_elem(rng, ctx.c)), (ctx2, level_embed(ctx, F), level_embed(ctx, G))]
            for c, F1, F2 in cases:
                for side, inner in (("left", inner_left), ("right", inner_right)):
                    assert inner(c, F1, F2) == _terms_reference(c, F1, F2, side), (side, n)


def _assert_terms_match_every_pair(ctx, ctx2, F, G):
    """Both inner products of F and G at ctx, and of their embeddings at ctx2, against _terms_reference."""
    for c, F1, F2 in ((ctx, F, G), (ctx, G, F), (ctx2, level_embed(ctx, F), level_embed(ctx, G))):
        for side, inner in (("left", inner_left), ("right", inner_right)):
            want = _terms_reference(c, F1, F2, side)
            assert want and inner(c, F1, F2) == want, (side, c.n)


def test_terms_match_every_pair_reference_at_wide_windows():
    # tau = theta + 40 puts about 40/c k of a window in every residue mod c, at c = 1 and at c = 4 a level up, so
    # each window spans c or more k
    spec, proj = spec_p(2), ProjectionData(41, 1, 40)
    ctx, ctx2 = BimCtx.build(spec, proj, 0), BimCtx.build(spec, proj, 1)
    assert float(1 / ctx.gamma) / proj.c0 > 8 * ctx2.c
    rng = random.Random(40)
    for _ in range(3):
        _assert_terms_match_every_pair(ctx, ctx2, _planted(rng, ctx.c, 1.0), random_mod_elem(rng, ctx.c))


def test_terms_match_every_pair_reference_at_many_classes():
    # at p = 101 the embedded elements spread each class over 101 classes of c = 101**2; two draws
    ctx, ctx2 = ctx_at(101, 0), ctx_at(101, 1)
    rng = random.Random(101)
    for _ in range(2):
        F, G = random_mod_elem(rng, ctx.c), random_mod_elem(rng, ctx.c)
        for side, inner in (("left", inner_left), ("right", inner_right)):
            iF, iG = level_embed(ctx, F), level_embed(ctx, G)
            assert inner(ctx2, iF, iG) == _terms_reference(ctx2, iF, iG, side), side


def _paired(rng, M, coef):
    """Classes that each hold a narrow and a wide atom, so the term pairs of one pair of tuples have other windows."""
    terms = {}
    for j in rng.sample(range(M), min(M, 3)):
        wide = AffineAtom(HatFn((-0.8 * M - 5, 0.1, 0.6 * M + 5), (0j, 1.0 - 0.5j, 0j)))  # random_hat's are narrower
        terms[j] = ((coef, AffineAtom(random_hat(rng))), (0.5j * coef, wide.shift(Fraction(rng.randrange(-9, 9), 7))))
    return ModElem(M, terms)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [0, 1])
def test_terms_of_two_atom_classes_match_every_pair_reference(p, n):
    # each term pair of a pair of tuples is kept at its own window, not at the window of the tuples' first pair
    ctx, ctx2 = ctx_at(p, n), ctx_at(p, n + 1)
    rng = random.Random(600 + 10 * p + n)
    for _ in range(2):
        F, G = _paired(rng, ctx.c, 1.0), _paired(rng, ctx.c, 0.3 - 1j)
        for pairs in (*F.terms.values(), *G.terms.values()):
            (lo1, hi1), (lo2, hi2) = (atom.support() for _, atom in pairs)
            assert hi1 - lo1 < hi2 - lo2
        _assert_terms_match_every_pair(ctx, ctx2, F, G)
        _assert_terms_match_every_pair(ctx, ctx2, F, _planted(rng, ctx.c, -0.4 + 2j))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_diffs_match_per_class_reference(p):
    # an exact comparison reads 0.0 exactly where the float values of its two sides agree
    ctx, ctx2 = ctx_at(p, 0), ctx_at(p, 1)
    rng = random.Random(300 + p)
    line = np.linspace(0.0, 1.0, 33)
    for _ in range(6):
        F, G = random_mod_elem(rng, ctx.c), random_mod_elem(rng, ctx.c)
        iF, iG = level_embed(ctx, F), level_embed(ctx, G)
        pairs = [
            (level_embed(ctx, act_left_gen(ctx, "U", 1, F)), act_left_gen(ctx2, "U", p, iF)),
            (level_embed(ctx, act_right_gen(ctx, "V", 1, F)), act_right_gen(ctx2, "V", p, iF)),
            (iF, iG),
            (ModElem(ctx2.c), iF),  # classes that only B holds
        ]
        for A, B in pairs:
            assert (term_diff(A, B) == 0.0) == (pointwise_diff(A, B) <= 1e-12)
        for side, inner in (("left", inner_left), ("right", inner_right)):
            lhs, rhs = embed_terms(ctx, inner(ctx, F, G)), inner(ctx2, iF, iG)
            assert group_diff(lhs, rhs) == 0.0
            for k in term_ks(rhs):
                want, _, _ = _per_m_kernel(ctx2, iF, iG, side, k, line)
                assert float(np.max(np.abs(term_sum(ctx2, lhs, side, k, line) - want))) <= 1e-12
            assert group_diff(embed_terms(ctx, inner(ctx, F, F)), rhs) == (0.0 if F == G else math.inf)


def _action_reference(ctx, F, G, H, side, t, J):
    """Class J at t of <F,G>_L . H (left) or F . <G,H>_R (right), the inner product read off _per_m_kernel."""
    c, a, d, g = ctx.c, ctx.a, ctx.d, ctx.gamma_f
    acc = np.zeros(t.shape, dtype=complex)
    if side == "left":  # sum_n <F,G>_n((t - aJ)/c) H(t - n gamma, [J - n])
        for n in _reference_ks(ctx, F, G, "left"):
            if (J - n) % c in H.terms:
                acc += _per_m_kernel(ctx, F, G, "left", n, (t - a * J % c) / c)[0] * class_eval(H, t - n * g, J - n)
    else:  # sum_n F(t - n, [J - dn]) <G,H>_n(((t - n)/gamma - (J - dn))/c)
        for n in _reference_ks(ctx, G, H, "right"):
            j = (J - d * n) % c
            if j in F.terms:
                acc += class_eval(F, t - n, j) * _per_m_kernel(ctx, G, H, "right", n, ((t - n) / g - j) / c)[0]
    return acc


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [0, 1])
def test_triple_terms_match_per_m_reference(p, n):
    ctx = ctx_at(p, n)
    rng = random.Random(500 * p + n)
    F, G, H = _planted(rng, ctx.c, 1.0), random_mod_elem(rng, ctx.c), _planted(rng, ctx.c, 0.3 - 1j)
    lhs = act_alg_left(ctx, inner_left(ctx, F, G), H)
    rhs = act_alg_right(ctx, F, inner_right(ctx, G, H))
    assert lhs and group_diff(lhs, rhs) == 0.0
    lo, hi = (float(x) for x in H.support())
    t = np.linspace(lo - 2.0, hi + 2.0, 60)
    for J in sorted({cls for counts in lhs.values() for cls, _, _ in counts} | {0, 1 % ctx.c}):
        for side, triples in (("left", lhs), ("right", rhs)):
            want = _action_reference(ctx, F, G, H, side, t, J)
            assert float(np.max(np.abs(triple_sum(ctx, triples, side, t, J) - want))) <= 1e-12, (side, J)


def _triples_reference(ctx, groups, E, side):
    """act_alg_left(groups, E) (left) or act_alg_right(E, groups) (right) from every integer of each exact window.

    Each x (left) or y (right) from the floor to the ceiling of its window is kept where QuadReal comparisons
    put it strictly inside, and its offset n too: no floor of a bound, and every residue is tested.
    """
    c, a, d, g = ctx.c, ctx.a, ctx.d, ctx.gamma
    out = {}
    for (_, t1, t2), counts in groups.items():
        (lo1, hi1), (lo2, hi2) = t1[1].support(), t2[1].support()
        for j, pairs in E.terms.items():
            for tE in pairs:
                lo, hi = tE[1].support()
                if side == "left":  # t1 = tF, t2 = tG, tE = tH: x between loH - hiG and hiH - loG
                    x_lo, x_hi = lo - hi2, hi - lo2
                    for x in range(math.floor(x_lo), math.ceil(x_hi) + 1):
                        for (n, m0), count in counts.items():
                            cls = (j + n) % c
                            if (x - a * cls + m0) % c == 0 and x_lo < x < x_hi and x - hi + lo1 < n * g < x - lo + hi1:
                                out.setdefault((t1, t2, tE), Counter())[cls, x, n] += count
                else:  # t1 = tG, t2 = tH, tE = tF: y gamma between loF - hiG and hiF - loG
                    y_lo, y_hi = lo - hi1, hi - lo1
                    for y in range(math.floor(y_lo / g), math.ceil(y_hi / g) + 1):
                        for (n, m0), count in counts.items():
                            if (y - j - m0) % c == 0 and y_lo < y * g < y_hi and lo - hi2 + n < y * g < hi - lo2 + n:
                                out.setdefault((tE, t1, t2), Counter())[(j + d * n) % c, n, y] += count
    return {key: dict(counts) for key, counts in out.items()}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_triple_terms_match_every_window_reference(p, n):
    # every x and y of each exact window, against the residues and the lazy n-windows; at n = 2, c is past the
    # x range of the narrow hats, so most x have no residue and no n-window
    ctx = ctx_at(p, n)
    rng = random.Random(600 * p + n)
    F, G, H = _planted(rng, ctx.c, 1.0), random_mod_elem(rng, ctx.c), _planted(rng, ctx.c, 0.3 - 1j)
    for X, Y, Z in ((F, G, H), (H, F, G), (F, F, H)):
        lhs = act_alg_left(ctx, inner_left(ctx, X, Y), Z)
        rhs = act_alg_right(ctx, X, inner_right(ctx, Y, Z))
        assert lhs and group_diff(lhs, rhs) == 0.0
        assert group_diff(lhs, _triples_reference(ctx, inner_left(ctx, X, Y), Z, "left")) == 0.0
        assert group_diff(rhs, _triples_reference(ctx, inner_right(ctx, Y, Z), X, "right")) == 0.0


@pytest.mark.parametrize("field", ["a", "d"])
def test_imprimitivity_fails_with_a_wrong_a_or_d(field):
    # a d = 1 mod c makes the classes of the two sides agree; off by one, most non-empty sums differ
    ctx = ctx_at(2, 1)
    bad = dataclasses.replace(ctx, **{field: getattr(ctx, field) + 1})
    rng = random.Random(21)
    nonempty = fails = 0
    for _ in range(60):
        F, G, H = (random_mod_elem(rng, ctx.c) for _ in range(3))
        lhs = act_alg_left(bad, inner_left(bad, F, G), H)
        rhs = act_alg_right(bad, F, inner_right(bad, G, H))
        assert group_diff(act_alg_left(ctx, inner_left(ctx, F, G), H), act_alg_right(ctx, F, inner_right(ctx, G, H))) == 0.0
        nonempty += bool(lhs or rhs)
        fails += group_diff(lhs, rhs) == math.inf
    assert 2 * fails > nonempty > 20


@pytest.mark.parametrize("p, n", [(2, 1), (3, 0), (5, 1)])
def test_identities_evaluate_no_atom(monkeypatch, p, n):
    # every identity is decided on exact terms: the package has no evaluator, and no exact value is lowered
    # to a float, as evaluating an atom would lower its parameters
    def refuse(*args):
        raise AssertionError("an exact value was lowered to a float")

    assert not any(hasattr(cls, "eval") for cls in (HatFn, AffineAtom, ModElem))
    monkeypatch.setattr(QuadReal, "__float__", refuse)
    monkeypatch.setattr(Fraction, "__float__", refuse)
    report = identity_suite(spec_p(p), ProjectionData(1, 1, 0), n, SamplePlan(seed=1, hats=4))
    assert report == dict.fromkeys(bimodule.IDENTITY_KEYS, 0.0)


def test_sections_are_finite_by_construction():
    # a section is compactly supported and continuous: a non-finite breakpoint, value or coefficient is refused
    nan, inf = math.nan, math.inf
    for breakpoints, values in (
        ((0.0, nan, 1.0), (0j, 1j, 0j)),  # NaN fails every <= of the increasing check
        ((0.0, 0.5, inf), (0j, 1j, 0j)),
        ((-inf, 0.0, 1.0), (0j, 1j, 0j)),
        ((0.0, 0.5, 1.0), (0j, complex(nan, 1.0), 0j)),
        ((0.0, 0.5, 1.0), (0j, complex(1.0, -inf), 0j)),
    ):
        with pytest.raises(ValueError, match="finite"):
            HatFn(breakpoints, values)
    atom = AffineAtom(HatFn((0.0, 0.5, 1.0), (0j, 1 + 0j, 0j)))
    F = ModElem.delta(4, 1, atom, coef=1e300)
    for z in (nan, inf, complex(1.0, nan), complex(-inf, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            ModElem.delta(4, 1, atom, coef=z)
        with pytest.raises(ValueError, match="finite"):
            F.scaled(z)
        with pytest.raises(ValueError, match="finite"):
            ModElem(4).scaled(z)
        with pytest.raises(ValueError, match="finite"):  # the constructor checks every term, as delta relies on
            ModElem(4, {0: ((z, atom),)})
        with pytest.raises(ValueError, match="finite"):
            F.add(ModElem(4, {1: [(z, atom)]}))
    with pytest.raises(ValueError, match="finite"):
        F.scaled(1e300)  # a product of finite coefficients that overflows


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("p", [2, 3, 7])
def test_internal_builds_keep_the_checked_invariants(p, n):
    # the actions, level_embed and _phased build their elements and atoms unchecked: each must be what the
    # validating constructors would build from the same data
    ctx = ctx_at(p, n)
    rng = random.Random(10 * p + n)
    outs = []
    for _ in range(3):
        F = random_mod_elem(rng, ctx.c)
        for act in (act_left_gen, act_right_gen):
            for gen, other in (("U", "V"), ("V", "U")):
                for power in (1, p):
                    moved = act(ctx, gen, power, F)
                    outs += [moved, act(ctx, other, 1, moved)]  # a shift after a modulation moves the phase too
        outs += [level_embed(ctx, F), bimodule._phased(F, ctx.beta), bimodule._phased(F, ctx.alpha)]
    for out in outs:
        assert ModElem(out.modulus, out.terms) == out
        for pairs in out.terms.values():
            for _, atom in pairs:
                assert AffineAtom(atom.h, atom.lam, atom.s, atom.omega, atom.phi) == atom
                assert 0 <= atom.phi < 1


def test_checked_constructors_still_refuse():
    atom = AffineAtom(HatFn((0.0, 0.5, 1.0), (0j, 1 + 0j, 0j)))
    for q in (0, -2):
        with pytest.raises(ValueError, match="positive"):
            atom.dilate(q)
    with pytest.raises(ValueError, match="finite"):
        ModElem(4, {1: ((complex(math.inf, 0.0), atom),)})


def test_inf_deviation_fails_the_report(monkeypatch):
    # a 1/sqrt(p)-scaled embedding fails both inner-product identities, which read inf and are written as null
    embed = bimodule.level_embed
    monkeypatch.setattr(bimodule, "level_embed", lambda ctx, F: embed(ctx, F).scaled(1 / math.sqrt(ctx.spec.p)))
    plan = SamplePlan(seed=1, hats=2)
    report = identity_suite(spec_p(2), ProjectionData(1, 1, 0), 0, plan)
    assert report["phi_left_inner"] == report["psi_right_inner"] == math.inf
    rep = check_bimodule(spec_p(2), ProjectionData(1, 1, 0), 0, plan)
    assert rep["pass"] is False and rep["max_error"] is None
    assert rep["identities"] == {
        "iota_left_action": 0.0, "iota_right_action": 0.0, "phi_left_inner": None, "psi_right_inner": None,
        "imprimitivity": 0.0,
    }
    json.dumps(rep, allow_nan=False)


def test_inner_products_periodic_and_positive():
    rng = random.Random(13)
    for p, n in ((2, 0), (2, 1), (3, 1)):
        ctx = ctx_at(p, n)
        F = random_mod_elem(rng, ctx.c)
        G = random_mod_elem(rng, ctx.c)
        for side, inner in (("left", inner_left), ("right", inner_right)):
            A = inner(ctx, F, G)
            r = sample_r(rng, 80)
            for k in term_ks(A):
                assert float(np.max(np.abs(term_sum(ctx, A, side, k, r) - term_sum(ctx, A, side, k, r + 1.0)))) < 1e-12
        # self inner product at k=0 is real and nonnegative at sampled r
        self_r = term_sum(ctx, inner_right(ctx, F, F), "right", 0, np.linspace(0, 1, 37))
        assert float(np.max(np.abs(self_r.imag))) < 1e-12
        assert float(np.min(self_r.real)) > -1e-12


def test_iota_frozen_example():
    # p=2, n=0, c0=1: f delta_0 spreads to f(t/2) delta_0 + f(t/2) delta_2 in Z_4
    ctx = ctx_at(2, 0)
    f = HatFn((0.0, 1.0, 2.0), (0j, 1 + 0j, 0j))
    F = ModElem.delta(1, 0, AffineAtom(f))
    iF = level_embed(ctx, F)
    assert iF.modulus == 4
    assert iF.indices() == (0, 2)
    t = np.array([0.5, 1.0, 3.0])
    for j in (0, 2):
        assert np.allclose(class_eval(iF, t, j), hat_eval(f, t / 2))
    assert iF.support() == (0, 4)  # support dilates by p
    # the 1/sqrt(p)-normalized variant halves every value
    half = level_embed(ctx, F).scaled(1 / math.sqrt(2))
    for j in (0, 2):
        assert np.allclose(class_eval(half, t, j), hat_eval(f, t / 2) / math.sqrt(2))


def test_scaled_embedding_breaks_inner_compatibility_by_factor_p():
    # with the 1/sqrt(p) prefactor the embedded inner product comes out exactly
    # p times too small; the unscaled map matches on the nose
    rng = random.Random(18)
    ctx = ctx_at(2, 0)
    ctx2 = ctx_at(2, 1)
    F = random_mod_elem(rng, ctx.c)
    G = random_mod_elem(rng, ctx.c)
    lhs = embed_terms(ctx, inner_left(ctx, F, G))
    good = inner_left(ctx2, level_embed(ctx, F), level_embed(ctx, G))
    s = 1 / math.sqrt(2)
    bad = inner_left(ctx2, level_embed(ctx, F).scaled(s), level_embed(ctx, G).scaled(s))
    assert group_diff(lhs, good) == 0.0 and group_diff(lhs, bad) == math.inf
    ks = term_ks(lhs)
    assert ks == term_ks(good) == term_ks(bad)

    def gap(A, B, r, scale=1.0):
        return max(float(np.max(np.abs(term_sum(ctx2, A, "left", k, r) - scale * term_sum(ctx2, B, "left", k, r)))) for k in ks)

    r = sample_r(rng, 90)
    assert gap(lhs, good, r) < 1e-12
    assert gap(lhs, bad, r) > 1e-3
    assert gap(lhs, bad, np.linspace(0, 1, 41), scale=2.0) < 1e-12


def test_iota_linearity_is_structural():
    rng = random.Random(14)
    ctx = ctx_at(2, 1)
    F = random_mod_elem(rng, ctx.c)
    G = random_mod_elem(rng, ctx.c)
    assert level_embed(ctx, F.add(G)) == level_embed(ctx, F).add(level_embed(ctx, G))
    assert level_embed(ctx, ModElem(ctx.c)) == ModElem(4 * ctx.c)


def test_identity_suite_small_plan_passes():
    plan = SamplePlan(seed=5, hats=4, r_points=80, t_points=80)
    report = identity_suite(spec_p(2), ProjectionData(1, 1, 0), 0, plan)
    assert sorted(report) == sorted(
        ["iota_left_action", "iota_right_action", "phi_left_inner", "psi_right_inner", "imprimitivity"]
    )
    for key, err in report.items():
        assert err <= 1e-9, f"{key} deviated {err}"


def test_identity_suite_detects_corrupted_gamma():
    plan = SamplePlan(seed=5, hats=3, r_points=60, t_points=60)
    report = identity_suite(spec_p(2), ProjectionData(1, 1, 0), 0, plan, corrupt_gamma=0.01)
    assert report["iota_left_action"] > 1e-3


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_action_identities_are_exact_at_every_level(p, n):
    # exactly 0.0 at every level: the terms are compared, not sampled
    plan = SamplePlan(seed=0, hats=6, r_points=120, t_points=120)
    report = identity_suite(spec_p(p), ProjectionData(1, 1, 0), n, plan)
    assert report == dict.fromkeys(bimodule.IDENTITY_KEYS, 0.0)
    ctx = ctx_at(p, n)
    F = random_mod_elem(random.Random(p + n), ctx.c)
    uv = act_left_gen(ctx, "U", 1, act_left_gen(ctx, "V", 1, F))
    vu = act_left_gen(ctx, "V", 1, act_left_gen(ctx, "U", 1, F))
    assert term_diff(uv, bimodule._phased(vu, ctx.beta)) == 0.0 < term_diff(uv, vu)
    ruv = act_right_gen(ctx, "V", 1, act_right_gen(ctx, "U", 1, F))
    rvu = act_right_gen(ctx, "U", 1, act_right_gen(ctx, "V", 1, F))
    assert term_diff(ruv, bimodule._phased(rvu, ctx.alpha)) == 0.0 < term_diff(ruv, rvu)


@pytest.mark.parametrize("shift", [1e-10, 1e-15])
def test_identity_suite_detects_a_gamma_off_below_any_tolerance(shift):
    # exact: a shift far below any sampling tolerance still fails (a), and (c) and (d), whose terms carry gamma
    plan = SamplePlan(seed=0, hats=6, r_points=120, t_points=120)
    report = identity_suite(spec_p(2), ProjectionData(1, 1, 0), 0, plan, corrupt_gamma=shift)
    assert report["iota_left_action"] == report["phi_left_inner"] == report["psi_right_inner"] == math.inf


def _per_draw_suite(spec, proj, n, plan, corrupt_gamma=0.0):
    """identity_suite with every identity decided on every draw, read through the module so monkeypatches apply."""
    bm = bimodule
    ctx = bm.BimCtx.build(spec, proj, n)
    ctx2 = bm.BimCtx.build(spec, proj, n + 1)
    if corrupt_gamma:
        ctx2 = ctx2.with_gamma(ctx2.gamma + QuadReal(corrupt_gamma))
    rng = random.Random(plan.seed)
    p = spec.p
    errs = dict.fromkeys(bm.IDENTITY_KEYS, 0.0)
    for _ in range(plan.hats):
        F = bm.random_mod_elem(rng, ctx.c)
        G = bm.random_mod_elem(rng, ctx.c)
        H = bm.random_mod_elem(rng, ctx.c)
        iF, iG = bm.level_embed(ctx, F), bm.level_embed(ctx, G)
        left = {gen: bm.act_left_gen(ctx, gen, 1, F) for gen in ("U", "V")}
        right = {gen: bm.act_right_gen(ctx, gen, 1, F) for gen in ("U", "V")}
        for key, act, moved in (("iota_left_action", bm.act_left_gen, left), ("iota_right_action", bm.act_right_gen, right)):
            for gen in ("U", "V"):
                errs[key] = max(errs[key], bm.term_diff(bm.level_embed(ctx, moved[gen]), act(ctx2, gen, p, iF)))
        FG = bm.inner_left(ctx, F, G)
        e = bm.group_diff(bm.embed_terms(ctx, FG), bm.inner_left(ctx2, iF, iG))
        errs["phi_left_inner"] = max(errs["phi_left_inner"], e)
        e = bm.group_diff(bm.embed_terms(ctx, bm.inner_right(ctx, F, G)), bm.inner_right(ctx2, iF, iG))
        errs["psi_right_inner"] = max(errs["psi_right_inner"], e)
        e = bm.group_diff(bm.act_alg_left(ctx, FG, H), bm.act_alg_right(ctx, F, bm.inner_right(ctx, G, H)))
        uv = bm.act_left_gen(ctx, "U", 1, left["V"])
        vu = bm._phased(bm.act_left_gen(ctx, "V", 1, left["U"]), ctx.beta)
        ruv = bm.act_right_gen(ctx, "V", 1, right["U"])
        rvu = bm._phased(bm.act_right_gen(ctx, "U", 1, right["V"]), ctx.alpha)
        errs["imprimitivity"] = max(errs["imprimitivity"], e, bm.term_diff(uv, vu), bm.term_diff(ruv, rvu))
    return errs


def _mutate(monkeypatch, mutation):
    """Install one of the mutations that the suite must still catch: a wrong a or d, or the scaled embedding."""
    if mutation in ("a", "d"):
        build = BimCtx.build

        def bad_build(cls, *args):
            ctx = build(*args)
            return dataclasses.replace(ctx, **{mutation: getattr(ctx, mutation) + 1})

        monkeypatch.setattr(BimCtx, "build", classmethod(bad_build))
    elif mutation == "scaled":
        embed = bimodule.level_embed
        monkeypatch.setattr(bimodule, "level_embed", lambda ctx, F: embed(ctx, F).scaled(1 / math.sqrt(ctx.spec.p)))


def _count_batches(monkeypatch) -> list:
    """The number of batches of each identity_suite call made from now on."""
    sizes, batches = [], bimodule._batches

    def counted(elements):
        out = batches(elements)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(bimodule, "_batches", counted)
    return sizes


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_identity_suite_matches_per_draw_reference(monkeypatch, p, n):
    # the linear identities decided once on the sum of the draws give the report of deciding them on every draw,
    # on the true contexts and on each mutation that must fail
    spec, proj = spec_p(p), ProjectionData(1, 1, 0)
    sizes = _count_batches(monkeypatch)
    seen = set()
    for mutation in (None, "gamma", "a", "d", "scaled"):
        with monkeypatch.context() as m:
            _mutate(m, mutation)
            corrupt = 1e-15 if mutation == "gamma" else 0.0
            for hats, seed in ((1, 10 * p + n), (2, 7), (6, n), (6, 100 + p)):
                plan = SamplePlan(seed=seed, hats=hats)
                report = identity_suite(spec, proj, n, plan, corrupt_gamma=corrupt)
                assert report == _per_draw_suite(spec, proj, n, plan, corrupt_gamma=corrupt), (mutation, hats, seed)
                seen.add((mutation, math.inf in report.values()))
    assert set(sizes) == {1}  # random hats never repeat a label, so every plan is one batch
    # the scaled embedding fails (c) and (d) only where the draws' inner products hold terms, surely at c = 1
    assert {(None, False), ("gamma", True)} | ({("scaled", True)} if n == 0 else set()) <= seen


def test_a_fault_in_one_draw_fails_its_batch(monkeypatch):
    # a shift off by 10**-6 for the hat of the fourth draw's F only: summed with five good draws, both action
    # identities still read inf
    spec, proj, plan = spec_p(3), ProjectionData(1, 1, 0), SamplePlan(seed=4, hats=6)
    rng = random.Random(plan.seed)
    draws = [[random_mod_elem(rng, 1) for _ in range(3)] for _ in range(plan.hats)]
    bad = {atom.h for pairs in draws[3][0].terms.values() for _, atom in pairs}
    assert not bad & {atom.h for F, _, _ in draws[:3] + draws[4:] for pairs in F.terms.values() for _, atom in pairs}
    shift = AffineAtom.shift

    def faulty(self, u):
        out = shift(self, u)
        if self.h not in bad:
            return out
        return AffineAtom._of(out.h, out.lam, out.s + QuadReal(Fraction(1, 10**6)), out.omega, out.phi)

    sizes = _count_batches(monkeypatch)
    assert identity_suite(spec, proj, 0, plan) == dict.fromkeys(bimodule.IDENTITY_KEYS, 0.0)
    monkeypatch.setattr(AffineAtom, "shift", faulty)
    report = identity_suite(spec, proj, 0, plan)
    assert report["iota_left_action"] == report["iota_right_action"] == math.inf
    assert report == _per_draw_suite(spec, proj, 0, plan)
    assert sizes == [1, 1]


@pytest.mark.parametrize("p, n", [(2, 0), (3, 1), (7, 0)])
def test_a_repeated_label_splits_the_batch(monkeypatch, p, n):
    # the second draw's F is the first one again: its labels meet the batch's, so the linear identities run on
    # two batches, and the report is still that of every draw
    spec, proj, plan = spec_p(p), ProjectionData(1, 1, 0), SamplePlan(seed=p + n, hats=6)
    draw = bimodule.random_mod_elem

    def repeat_first_f(m):
        calls = []

        def draw_twice(rng, modulus):
            calls.append(calls[0] if len(calls) == 3 else draw(rng, modulus))
            return calls[-1]

        m.setattr(bimodule, "random_mod_elem", draw_twice)

    sizes = _count_batches(monkeypatch)
    repeat_first_f(monkeypatch)
    report = identity_suite(spec, proj, n, plan)
    repeat_first_f(monkeypatch)
    assert report == _per_draw_suite(spec, proj, n, plan) == dict.fromkeys(bimodule.IDENTITY_KEYS, 0.0)
    repeat_first_f(monkeypatch)
    _mutate(monkeypatch, "scaled")
    assert identity_suite(spec, proj, n, plan)["phi_left_inner"] == math.inf
    assert sizes == [2, 2]


def test_identity_suite_rejects_bad_inputs():
    with pytest.raises(ValueError):
        SamplePlan(seed=1, hats=0)
    bad = SolenoidSpec(2, THETA, PAdic.from_rational(2, 2))
    with pytest.raises(ValueError):
        identity_suite(bad, ProjectionData(1, 1, 0), 0, SamplePlan(hats=1))


def test_zero_elements_give_exact_zero_deviation():
    ctx = ctx_at(2, 0)
    empty = ModElem(ctx.c)
    assert term_diff(act_left_gen(ctx, "U", 1, empty), ModElem(ctx.c)) == 0.0
    assert group_diff(inner_left(ctx, empty, empty), {}) == 0.0
    assert group_diff(act_alg_left(ctx, {}, empty), act_alg_right(ctx, empty, {})) == 0.0


def test_random_hat_is_compactly_supported():
    rng = random.Random(17)
    for _ in range(20):
        h = random_hat(rng)
        lo, hi = map(float, h.support())
        assert h.values[0] == 0 and h.values[-1] == 0
        assert lo < hi
        assert abs(hat_eval(h, np.array([lo - 0.1]))[0]) == 0
