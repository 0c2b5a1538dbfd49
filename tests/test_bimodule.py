"""Kernel-level checks: atoms, module elements, inner products, connecting maps,
and the compatibility identity suite at small sample plans."""

import dataclasses
import json
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsolenoid import bimodule
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
from ncsolenoid.exactnum import QuadReal, floor, frac1
from ncsolenoid.morita import ProjectionData
from ncsolenoid.suite import check_bimodule
from ncsolenoid.padic import PAdic
from ncsolenoid.solenoid import SolenoidSpec

THETA = QuadReal.sqrt_of(2) - 1


def spec_p(p: int) -> SolenoidSpec:
    return SolenoidSpec(p, THETA, PAdic.from_rational(p, 1))


def ctx_at(p: int, n: int) -> BimCtx:
    return BimCtx.build(spec_p(p), ProjectionData(1, 1, 0), n)


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
                    acc += count * (c1 * A1.eval(t)) * np.conj(c2 * A2.eval(t - k * g))
            else:  # A1((c(r + q) - m) gamma), read as A1((cr - (m - cq)) gamma)
                qs = range(math.floor((lo / g + m) / c - r.max()) - 1, math.ceil((hi / g + m) / c - r.min()) + 2)
                for q in qs:
                    u = (c * r - (m - c * q)) * g
                    acc += count * np.conj(c1 * A1.eval(u)) * (c2 * A2.eval(u + k))
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
                acc += count * (cF * AF.eval(t - u)) * np.conj(cG * AG.eval(t - u - v * g)) * (cH * AH.eval(t - v * g))
    return acc


def pointwise_diff(A: ModElem, B: ModElem, points: int = 200) -> float:
    """Largest |A - B| over every class, on an even grid one unit past both supports."""
    ends = [s for s in (A.support(), B.support()) if s is not None]
    if not ends:
        return 0.0
    t = np.linspace(float(min(s[0] for s in ends)) - 1.0, float(max(s[1] for s in ends)) + 1.0, points)
    return max((float(np.max(np.abs(A.eval(t, j) - B.eval(t, j)))) for j in A.terms.keys() | B.terms.keys()), default=0.0)


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
    vals = f.eval(t)
    assert vals[0] == 0 and vals[-1] == 0
    assert vals[3] == 2 - 1j
    assert abs(vals[2] - (1 - 0.5j)) < 1e-15
    assert f.support() == (0.0, 2.0)


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
    assert abs(atom.shift(half).eval(t)[0] - f.eval(np.array([1.0]))[0]) < 1e-15
    assert atom.shift(half).support() == (half, Fraction(5, 2))
    assert abs(atom.dilate(2).eval(np.array([2.0]))[0] - 1.0) < 1e-15
    assert atom.dilate(2).support() == (0, 4)
    ph = atom.modulate(Fraction(1, 4), Fraction(1, 8))
    expect = np.exp(2j * math.pi * (0.25 * 1.5 + 0.125)) * f.eval(t)[0]
    assert abs(ph.eval(t)[0] - expect) < 1e-15
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
    assert float(np.max(np.abs(atom.eval(t) - _nested(h.eval, steps)(t)))) <= 1e-12 * size


@PROPERTY
@given(STEPS, EXACT, FACTORS, EXACT, EXACT)
def test_atom_laws_hold_as_equality(steps, u, q, w, f):
    atom = _chain(AffineAtom(HatFn((0.0, 0.4, 1.1), (0j, 1 - 1j, 0j))), steps)
    assert atom.shift(u).dilate(q) == atom.dilate(q).shift(q * u)
    # a modulation moved past a shift by u picks up the phase -w*u
    moved, expect = atom.modulate(w, f).shift(u), atom.shift(u).modulate(w, f - w * u)
    assert moved == expect and hash(moved) == hash(expect)
    assert (moved == atom.shift(u).modulate(w, f)) == (frac1(w * u) == 0)


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


def test_modelem_basics():
    f = HatFn((0.0, 1.0, 2.0), (0j, 1 + 0j, 0j))
    F = ModElem.delta(4, 1, f, coef=2.0)
    G = ModElem.delta(4, 5, f)  # index reduces to 1
    s = F.add(G)
    assert s.indices() == (1,)
    t = np.array([1.0])
    assert abs(s.eval(t, 1)[0] - 3.0) < 1e-15
    assert abs(s.scaled(1j).eval(t, 1)[0] - 3j) < 1e-15
    assert s.support() == (0.0, 2.0)
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
    assert np.allclose(UF.eval(t, 2), f.eval(t - ctx.gamma_f))
    # V: phase exp(2 pi i (t - a j)/c) at the same index
    VF = act_left_gen(ctx, "V", 1, F)
    expect = np.exp(2j * math.pi * (t - ctx.a * 1) / ctx.c) * f.eval(t)
    assert np.allclose(VF.eval(t, 1), expect)
    assert act_left_gen(ctx, "U", 0, F) is F


def test_right_generator_action_formulas():
    ctx = ctx_at(2, 1)
    f = HatFn((0.0, 1.0, 2.0), (0j, 1 + 0j, 0j))
    F = ModElem.delta(4, 1, AffineAtom(f))
    t = np.array([0.7, 1.3, 2.2])
    FU = act_right_gen(ctx, "U", 1, F)
    assert FU.indices() == ((1 + ctx.d) % 4,)
    assert np.allclose(FU.eval(t, 1 + ctx.d), f.eval(t - 1.0))
    FV = act_right_gen(ctx, "V", 1, F)
    expect = np.exp(2j * math.pi * (t / ctx.gamma_f - 1) / ctx.c) * f.eval(t)
    assert np.allclose(FV.eval(t, 1), expect)


def test_commutation_relations_pointwise():
    rng = random.Random(11)
    for p, n in ((2, 0), (2, 1), (3, 0)):
        ctx = ctx_at(p, n)
        F = random_mod_elem(rng, ctx.modulus)
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
    fx = f.eval(np.array([0.1]))[0]
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
    empty = ModElem(ctx.modulus)
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
    M, cc, g = ctx.modulus, ctx.c, ctx.gamma_f
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
                    acc += F1.eval(cc * r + m, j1) * np.conj(F2.eval(cc * r + m - k * g, j2))
                else:
                    u = (cc * r - m) * g
                    acc += np.conj(F1.eval(u, j1)) * F2.eval(u + k, j2)
    return acc, entries, empty


def _planted(rng, M, coef):
    """A random element plus the same narrow and wide hats at two classes each."""
    narrow = AffineAtom(HatFn((0.1, 0.3, 0.5), (0j, 1 + 1j, 0j)))
    wide = AffineAtom(HatFn((-1.5 * M, 0.2 * M, 1.5 * M), (0j, 0.7 - 1.3j, 0j)))
    planted = {0: narrow, 1: narrow.shift(Fraction(1, 20)), 2: wide, 3: wide.shift(Fraction(3, 10))}
    return random_mod_elem(rng, M).add(ModElem(M, {j: ((coef * (1 + 0.5j * j), atom),) for j, atom in planted.items()}))


def _reference_ks(ctx, F1, F2, side):
    """Every k at which some class pair of F1 and F2 aligns and its float supports meet, as _per_m_kernel reads them."""
    M, g = ctx.modulus, ctx.gamma_f
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
    M = ctx.modulus
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
    F, G = _planted(rng, ctx.modulus, 1.0), _planted(rng, ctx.modulus, -0.4 + 2j)
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
    M, g = ctx.modulus, ctx.gamma
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
                    first = floor(lo) + 1
                    for k in range(first + (r - first) % M, -floor(-hi), M):
                        out.setdefault((g, t1, t2), Counter())[k, m] += 1
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_aligned_pairs_match_every_pair_reference(p):
    # the bisected class pairs and shared windows give the terms of the loop over every pair
    rng = random.Random(400 + p)
    for n in (0, 1, 2):
        ctx, ctx2 = ctx_at(p, n), ctx_at(p, n + 1)
        for _ in range(3):
            F, G = _planted(rng, ctx.modulus, 1.0), _planted(rng, ctx.modulus, 0.5 - 1j)
            cases = [(ctx, F, G), (ctx, G, random_mod_elem(rng, ctx.modulus)), (ctx2, level_embed(ctx, F), level_embed(ctx, G))]
            for c, F1, F2 in cases:
                for side, inner in (("left", inner_left), ("right", inner_right)):
                    assert inner(c, F1, F2) == _terms_reference(c, F1, F2, side), (side, n)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_diffs_match_per_class_reference(p):
    # an exact comparison reads 0.0 exactly where the float values of its two sides agree
    ctx, ctx2 = ctx_at(p, 0), ctx_at(p, 1)
    rng = random.Random(300 + p)
    line = np.linspace(0.0, 1.0, 33)
    for _ in range(6):
        F, G = random_mod_elem(rng, ctx.modulus), random_mod_elem(rng, ctx.modulus)
        iF, iG = level_embed(ctx, F), level_embed(ctx, G)
        pairs = [
            (level_embed(ctx, act_left_gen(ctx, "U", 1, F)), act_left_gen(ctx2, "U", p, iF)),
            (level_embed(ctx, act_right_gen(ctx, "V", 1, F)), act_right_gen(ctx2, "V", p, iF)),
            (iF, iG),
            (ModElem(ctx2.modulus), iF),  # classes that only B holds
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
                acc += _per_m_kernel(ctx, F, G, "left", n, (t - a * J % c) / c)[0] * H.eval(t - n * g, J - n)
    else:  # sum_n F(t - n, [J - dn]) <G,H>_n(((t - n)/gamma - (J - dn))/c)
        for n in _reference_ks(ctx, G, H, "right"):
            j = (J - d * n) % c
            if j in F.terms:
                acc += F.eval(t - n, j) * _per_m_kernel(ctx, G, H, "right", n, ((t - n) / g - j) / c)[0]
    return acc


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [0, 1])
def test_triple_terms_match_per_m_reference(p, n):
    ctx = ctx_at(p, n)
    rng = random.Random(500 * p + n)
    F, G, H = _planted(rng, ctx.modulus, 1.0), random_mod_elem(rng, ctx.modulus), _planted(rng, ctx.modulus, 0.3 - 1j)
    lhs = act_alg_left(ctx, inner_left(ctx, F, G), H)
    rhs = act_alg_right(ctx, F, inner_right(ctx, G, H))
    assert lhs and group_diff(lhs, rhs) == 0.0
    lo, hi = (float(x) for x in H.support())
    t = np.linspace(lo - 2.0, hi + 2.0, 60)
    for J in sorted({cls for counts in lhs.values() for cls, _, _ in counts} | {0, 1 % ctx.c}):
        for side, triples in (("left", lhs), ("right", rhs)):
            want = _action_reference(ctx, F, G, H, side, t, J)
            assert float(np.max(np.abs(triple_sum(ctx, triples, side, t, J) - want))) <= 1e-12, (side, J)


@pytest.mark.parametrize("field", ["a", "d"])
def test_imprimitivity_fails_with_a_wrong_a_or_d(field):
    # a d = 1 mod c makes the classes of the two sides agree; off by one, most non-empty sums differ
    ctx = ctx_at(2, 1)
    bad = dataclasses.replace(ctx, **{field: getattr(ctx, field) + 1})
    rng = random.Random(21)
    nonempty = fails = 0
    for _ in range(60):
        F, G, H = (random_mod_elem(rng, ctx.modulus) for _ in range(3))
        lhs = act_alg_left(bad, inner_left(bad, F, G), H)
        rhs = act_alg_right(bad, F, inner_right(bad, G, H))
        assert group_diff(act_alg_left(ctx, inner_left(ctx, F, G), H), act_alg_right(ctx, F, inner_right(ctx, G, H))) == 0.0
        nonempty += bool(lhs or rhs)
        fails += group_diff(lhs, rhs) == math.inf
    assert 2 * fails > nonempty > 20


@pytest.mark.parametrize("p, n", [(2, 1), (3, 0), (5, 1)])
def test_identities_evaluate_no_atom(monkeypatch, p, n):
    # every identity is decided on exact terms: no atom is evaluated, so no float enters a decision
    def refuse(*args):
        raise AssertionError("an atom was evaluated")

    monkeypatch.setattr(HatFn, "eval", refuse)
    monkeypatch.setattr(AffineAtom, "eval", refuse)
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
        F = random_mod_elem(rng, ctx.modulus)
        G = random_mod_elem(rng, ctx.modulus)
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
        assert np.allclose(iF.eval(t, j), f.eval(t / 2))
    assert iF.support() == (0, 4)  # support dilates by p
    # the 1/sqrt(p)-normalized variant halves every value
    half = level_embed(ctx, F).scaled(1 / math.sqrt(2))
    for j in (0, 2):
        assert np.allclose(half.eval(t, j), f.eval(t / 2) / math.sqrt(2))


def test_scaled_embedding_breaks_inner_compatibility_by_factor_p():
    # with the 1/sqrt(p) prefactor the embedded inner product comes out exactly
    # p times too small; the unscaled map matches on the nose
    rng = random.Random(18)
    ctx = ctx_at(2, 0)
    ctx2 = ctx_at(2, 1)
    F = random_mod_elem(rng, ctx.modulus)
    G = random_mod_elem(rng, ctx.modulus)
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
    F = random_mod_elem(rng, ctx.modulus)
    G = random_mod_elem(rng, ctx.modulus)
    assert level_embed(ctx, F.add(G)) == level_embed(ctx, F).add(level_embed(ctx, G))
    assert level_embed(ctx, ModElem(ctx.modulus)) == ModElem(4 * ctx.modulus)


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
    F = random_mod_elem(random.Random(p + n), ctx.modulus)
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


def test_identity_suite_rejects_bad_inputs():
    with pytest.raises(ValueError):
        SamplePlan(seed=1, hats=0)
    bad = SolenoidSpec(2, THETA, PAdic.from_rational(2, 2))
    with pytest.raises(ValueError):
        identity_suite(bad, ProjectionData(1, 1, 0), 0, SamplePlan(hats=1))


def test_zero_elements_give_exact_zero_deviation():
    ctx = ctx_at(2, 0)
    empty = ModElem(ctx.modulus)
    assert term_diff(act_left_gen(ctx, "U", 1, empty), ModElem(ctx.modulus)) == 0.0
    assert group_diff(inner_left(ctx, empty, empty), {}) == 0.0
    assert group_diff(act_alg_left(ctx, {}, empty), act_alg_right(ctx, empty, {})) == 0.0


def test_random_hat_is_compactly_supported():
    rng = random.Random(17)
    for _ in range(20):
        h = random_hat(rng)
        lo, hi = h.support()
        assert h.values[0] == 0 and h.values[-1] == 0
        assert lo < hi
        assert abs(h.eval(np.array([lo - 0.1]))[0]) == 0
