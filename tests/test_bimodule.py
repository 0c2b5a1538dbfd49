"""Kernel-level checks: atoms, module elements, inner products, connecting maps,
and the compatibility identity suite at small sample plans."""

import dataclasses
import gc
import json
import math
import random

import numpy as np
import pytest

from ncsolenoid import bimodule
from ncsolenoid.bimodule import (
    AlgElem,
    BimCtx,
    Dilated,
    HatFn,
    ModElem,
    PhaseMod,
    Product,
    SamplePlan,
    Shifted,
    SumKernel,
    _k_window,
    _r_samples,
    _t_samples,
    act_alg_left,
    act_alg_right,
    act_left_gen,
    act_right_gen,
    alg_diff,
    identity_suite,
    inner_left,
    inner_right,
    level_embed,
    mod_diff,
    phi_embed,
    random_hat,
    random_mod_elem,
)
from ncsolenoid.exactnum import QuadReal
from ncsolenoid.morita import ProjectionData
from ncsolenoid.suite import check_bimodule
from ncsolenoid.padic import PAdic
from ncsolenoid.solenoid import SolenoidSpec

THETA = QuadReal.sqrt_of(2) - 1


def spec_p(p: int) -> SolenoidSpec:
    return SolenoidSpec(p, THETA, PAdic.from_rational(p, 1))


def ctx_at(p: int, n: int) -> BimCtx:
    return BimCtx.build(spec_p(p), ProjectionData(1, 1, 0), n)


def convolve(A: AlgElem, B: AlgElem, theta: float) -> AlgElem:
    """Twisted convolution (A*B)(r, K) = sum_n A(r, n) B(r + n*theta, K - n)."""
    out: dict[int, SumKernel] = {}
    for K in {n + m for n in A.comps for m in B.comps}:

        def comp(r, K=K):
            acc = np.zeros(np.asarray(r, dtype=float).shape, dtype=complex)
            for n in A.comps:
                if K - n in B.comps:
                    acc += A.eval(r, n) * B.eval(np.asarray(r, dtype=float) + n * theta, K - n)
            return acc

        out[K] = SumKernel(comp)
    return AlgElem(out)


def periodicity_defect(A: AlgElem, rng: random.Random, points: int) -> float:
    r = _r_samples(rng, points)
    err = 0.0
    for k in A.keys():
        err = max(err, float(np.max(np.abs(A.eval(r, k) - A.eval(r + 1.0, k)), initial=0.0)))
    return err


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
    t = np.array([1.5])
    assert abs(Shifted(f, 0.5).eval(t)[0] - f.eval(np.array([1.0]))[0]) < 1e-15
    assert Shifted(f, 0.5).support() == (0.5, 2.5)
    assert abs(Dilated(f, 2.0).eval(np.array([2.0]))[0] - 1.0) < 1e-15
    assert Dilated(f, 2.0).support() == (0.0, 4.0)
    ph = PhaseMod(f, 0.25, 0.125)
    expect = np.exp(2j * math.pi * (0.25 * 1.5 + 0.125)) * f.eval(t)[0]
    assert abs(ph.eval(t)[0] - expect) < 1e-15
    assert ph.support() == f.support()
    pr = Product(f, Shifted(f, 0.5))
    assert pr.support() == (0.5, 2.0)
    assert abs(pr.eval(t)[0] - f.eval(t)[0] * f.eval(np.array([1.0]))[0]) < 1e-15


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
    F = ModElem.delta(4, 1, f)
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
    F = ModElem.delta(4, 1, f)
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
        assert mod_diff(uv, vu.scaled(np.exp(2j * math.pi * ctx.beta_f)), rng, 100) < 1e-9
        ruv = act_right_gen(ctx, "V", 1, act_right_gen(ctx, "U", 1, F))
        rvu = act_right_gen(ctx, "U", 1, act_right_gen(ctx, "V", 1, F))
        assert mod_diff(ruv, rvu.scaled(np.exp(2j * math.pi * ctx.alpha_f)), rng, 100) < 1e-9


@dataclasses.dataclass(frozen=True)
class TrigPoly:
    """Sum of coef * exp(2 pi i freq r): an exactly 1-periodic algebra component."""

    monomials: tuple[tuple[complex, int], ...]

    def eval(self, r):
        r = np.asarray(r, dtype=float)
        acc = np.zeros(r.shape, dtype=complex)
        for coef, freq in self.monomials:
            acc += coef * np.exp(2j * math.pi * freq * r)
        return acc


def generator_U(power: int = 1) -> AlgElem:
    return AlgElem({power: TrigPoly(((1.0 + 0j, 0),))})


def generator_V(power: int = 1) -> AlgElem:
    return AlgElem({0: TrigPoly(((1.0 + 0j, power),))})


def test_alg_actions_match_generator_actions():
    rng = random.Random(12)
    ctx = ctx_at(2, 1)
    F = random_mod_elem(rng, ctx.modulus)
    for power in (1, 2):
        a1 = act_alg_left(ctx, generator_U(power), F)
        a2 = act_left_gen(ctx, "U", power, F)
        assert mod_diff(a1, a2, rng, 120) < 1e-12
        b1 = act_alg_right(ctx, F, generator_V(power))
        b2 = act_right_gen(ctx, "V", power, F)
        assert mod_diff(b1, b2, rng, 120) < 1e-12
    v1 = act_alg_left(ctx, generator_V(1), F)
    v2 = act_left_gen(ctx, "V", 1, F)
    assert mod_diff(v1, v2, rng, 120) < 1e-12
    u1 = act_alg_right(ctx, F, generator_U(1))
    u2 = act_right_gen(ctx, "U", 1, F)
    assert mod_diff(u1, u2, rng, 120) < 1e-12


def test_inner_left_single_summand_frozen():
    ctx = ctx_at(2, 0)  # c = 1
    v = 0.8 - 0.3j
    f = HatFn((0.0, 0.15, 0.3), (0j, v, 0j))
    F = ModElem.delta(1, 0, f)
    A = inner_left(ctx, F, F)
    assert A.keys() == (0,)
    got = A.eval(np.array([0.1]), 0)[0]
    fx = f.eval(np.array([0.1]))[0]
    assert abs(got - abs(fx) ** 2) < 1e-15
    assert abs(got.imag) < 1e-15


def test_inner_products_no_alignment_vanish():
    ctx = ctx_at(2, 0)
    f = HatFn((0.0, 0.1, 0.2), (0j, 1 + 0j, 0j))
    g = HatFn((40.0, 40.5, 41.0), (0j, 1 + 0j, 0j))
    # no integer multiple of gamma bridges these supports
    assert inner_left(ctx, ModElem.delta(1, 0, f), ModElem.delta(1, 0, g)).keys() == ()
    # the right offsets are integers; a sub-unit gap between integers kills all of them
    h = HatFn((40.4, 40.55, 40.7), (0j, 1 + 0j, 0j))
    assert inner_right(ctx, ModElem.delta(1, 0, f), ModElem.delta(1, 0, h)).keys() == ()
    empty = ModElem(ctx.modulus)
    assert inner_left(ctx, empty, ModElem.delta(1, 0, f)).keys() == ()


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
        s1 = F1.support(j1)
        for j2 in F2.terms:
            s2 = F2.support(j2)
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
    narrow = HatFn((0.1, 0.3, 0.5), (0j, 1 + 1j, 0j))
    wide = HatFn((-1.5 * M, 0.2 * M, 1.5 * M), (0j, 0.7 - 1.3j, 0j))
    planted = {0: narrow, 1: Shifted(narrow, 0.05), 2: wide, 3: Shifted(wide, 0.3)}
    return random_mod_elem(rng, M).add(ModElem(M, {j: ((coef * (1 + 0.5j * j), atom),) for j, atom in planted.items()}))


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
    for side, inner in (("left", inner_left), ("right", inner_right)):
        for F1, F2 in ((F, G), (G, F), (F, F)):
            A = inner(ctx, F1, F2)
            assert A.keys()
            for k in A.keys():
                for r in rs:
                    got = A.eval(r, k)
                    want, entries, misses = _per_m_kernel(ctx, F1, F2, side, k, r)
                    assert got.shape == r.shape
                    assert np.array_equal(got.view(np.float64), want.view(np.float64)), (side, k, r.shape)
                    most, empty = max(most, entries), empty + misses
    if M > 1:
        assert most >= 2 and empty > 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("batch", [1, None, 10**9], ids=["entry", "default", "all"])
def test_inner_all_k_matches_per_m_reference(p, n, batch, monkeypatch):
    # level_embed spreads each class over p classes that share one term tuple, so the
    # all-k path evaluates each F2 tuple on the concatenated grids of many entries; a
    # batch of one value holds one entry, and one of 10**9 all of them
    if batch is not None:
        monkeypatch.setattr(bimodule, "BATCH_VALUES", batch)
    ctx, ctx2 = ctx_at(p, n), ctx_at(p, n + 1)
    rng = random.Random(200 * p + n)
    iF = level_embed(ctx, _planted(rng, ctx.modulus, 1.0))
    iG = level_embed(ctx, _planted(rng, ctx.modulus, -0.4 + 2j))
    assert len({id(pairs) for pairs in iG.terms.values()}) * p == len(iG.terms)
    line = np.concatenate([np.linspace(0.0, 1.0, 41), [rng.uniform(0.0, 2.0) for _ in range(19)]])
    for side, inner in (("left", inner_left), ("right", inner_right)):
        A = inner(ctx2, iF, iG)
        assert A.keys()
        for r in (line, line.reshape(3, 20)):
            every = A.eval_all(r)
            assert sorted(every) == list(A.keys())
            for k in A.keys():
                want, _, _ = _per_m_kernel(ctx2, iF, iG, side, k, r)
                assert np.array_equal(every[k].view(np.float64), want.view(np.float64)), (side, k, r.shape)
                assert np.array_equal(A.eval(r, k).view(np.float64), want.view(np.float64)), (side, k, r.shape)
        # phi_embed passes the all-k path through on the dilated grid
        every = phi_embed(A, p).eval_all(line)
        assert sorted(every) == [k * p for k in A.keys()]
        for k in A.keys():
            assert np.array_equal(every[k * p].view(np.float64), A.eval(line * p, k).view(np.float64))


def test_inner_batches_bound_the_values_held(monkeypatch):
    # an evaluation holds one batch's grids and values at a time: F2 is evaluated on at most
    # BATCH_VALUES values plus one entry's grid, however many entries there are
    ctx = ctx_at(7, 0)
    wide = HatFn((-40.0, 1.0, 40.0), (0j, 1 - 2j, 0j))  # c = 1: one class, many k and many m rows
    F = ModElem.delta(ctx.modulus, 0, wide)
    sizes = []
    on_grids = bimodule._on_grids

    def recorded(G, requests):
        sizes.append([grid.size for _, grid in requests.values()])
        return on_grids(G, requests)

    monkeypatch.setattr(bimodule, "_on_grids", recorded)
    for inner in (inner_left, inner_right):
        sizes.clear()
        inner(ctx, F, F).eval_all(np.linspace(0.0, 2.0, 200))
        f2 = sizes[1::2]  # each batch evaluates F1, then F2
        assert len(f2) > 3
        assert sum(map(sum, f2)) > 10 * bimodule.BATCH_VALUES
        assert max(sum(s) - s[-1] for s in f2) < bimodule.BATCH_VALUES


def _ulps_around(x, count):
    """x and the count floats on each side of it."""
    out = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(count):
            y = float(np.nextafter(y, direction))
            out.append(y)
    return out


def _assert_matches_per_m(ctx, pairs, rs, stride=1):
    """Every stride-th k of each inner product of the pairs, at each r, bitwise against _per_m_kernel."""
    for side, inner in (("left", inner_left), ("right", inner_right)):
        for F1, F2 in pairs:
            A = inner(ctx, F1, F2)
            assert A.keys()
            for r in rs:
                every = A.eval_all(r)
                for k in A.keys()[::stride]:
                    want, _, _ = _per_m_kernel(ctx, F1, F2, side, k, r)
                    assert np.array_equal(every[k].view(np.float64), want.view(np.float64)), (side, k, r.shape)


def test_band_keeps_values_an_ulp_outside_float_supports():
    # Shifted and Dilated round an atom's support bounds and its argument separately, so the atom can be
    # nonzero an ulp outside its float support.  At c = 1 a left grid point is r + m and a right one
    # (r - m) * gamma: these r put points exactly on each support end and 3 ulps on either side, where (the
    # supports being narrower than 1) they are the only nonzero row of their r, so a band that dropped one
    # would change that r's sum
    ctx = ctx_at(2, 0)
    g = ctx.gamma_f
    atoms = [
        Dilated(Shifted(HatFn((0.95, 1.05, 1.15), (0j, 1 - 1j, 0j)), 0.1), 3.0),
        Shifted(Dilated(HatFn((-0.7, -0.6, -0.5), (0j, 0.5 + 2j, 0j)), 3.0), 0.1),
    ]
    wide = ModElem.delta(1, 0, HatFn((-9.0, 0.3, 9.0), (0j, 1 + 0.5j, 0j)))
    for atom in atoms:
        lo, hi = atom.support()
        assert hi - lo < 1
        near = [x for end in (lo, hi) for x in _ulps_around(end, 3)]
        assert any(atom.eval(np.array([x]))[0] != 0 for x in near if not lo <= x <= hi)
        r = [x - math.floor(x) for x in near]
        assert all(ri + math.floor(x) == x for ri, x in zip(r, near))
        # on the right, the r within 2 ulps of x / gamma - m that land exactly on x, some near each end
        right = [
            (ri, x) for x in near for ri in _ulps_around(x / g - math.floor(x / g), 2) if (ri + math.floor(x / g)) * g == x
        ]
        assert all(any(x in _ulps_around(end, 3) for _, x in right) for end in (lo, hi))
        r = np.array(r + [ri for ri, _ in right])
        F = ModElem.delta(1, 0, atom)
        _assert_matches_per_m(ctx, [(F, wide), (wide, F), (F, F)], [r, np.concatenate([r, np.linspace(0.0, 2.0, 23)])])


def test_band_and_whole_grids_mix_bitwise():
    # F2's NaN class is not known finite, so each j1 builds its band for the other classes and its whole
    # grid for that one; both must give the per-m sums, NaN where a row meets the NaN hat
    ctx = ctx_at(2, 1)
    rng = random.Random(23)
    F = _planted(rng, ctx.modulus, 1.0)
    G = _planted(rng, ctx.modulus, 0.5 - 1j).add(ModElem.delta(ctx.modulus, 1, _nan_hat()))
    r = np.linspace(0.0, 2.0, 31)
    nans = finite = 0
    for side, inner in (("left", inner_left), ("right", inner_right)):
        for F1, F2 in ((F, G), (G, F)):
            every = inner(ctx, F1, F2).eval_all(r)
            for k, got in every.items():
                want, _, _ = _per_m_kernel(ctx, F1, F2, side, k, r)
                assert np.array_equal(got.view(np.float64), want.view(np.float64), equal_nan=True), (side, k)
                nans += bool(np.isnan(got).any())
                finite += bool(np.isfinite(got).all() and got.any())
    assert nans and finite


def test_band_matches_per_m_reference_past_the_in_place_threshold(monkeypatch):
    # numpy multiplies a temporary of 256 KiB or more in place: here one j1's band alone holds more values
    # than that, so each batch's F1, F2 and product arrays pass it
    ctx = ctx_at(7, 0)
    wide = HatFn((-60.0, -1.0, 60.0), (0j, 1 - 2j, 0j))
    F = ModElem.delta(1, 0, wide, coef=0.5 + 1j).add(ModElem.delta(1, 0, Dilated(Shifted(wide, 0.1), 1.1)))
    G = ModElem.delta(1, 0, Shifted(wide, -2.5), coef=-1.5j)
    sizes = []
    on_grids = bimodule._on_grids

    def recorded(H, requests):
        sizes.append(sum(grid.size for _, grid in requests.values()))
        return on_grids(H, requests)

    monkeypatch.setattr(bimodule, "_on_grids", recorded)
    _assert_matches_per_m(ctx, [(F, G)], [np.linspace(0.0, 1.0, 200)], stride=9)
    assert max(sizes) * np.dtype(complex).itemsize >= 256 * 1024


def _pairs_reference(ctx, F1, F2, side):
    """k -> [(j1, j2)] from every pair of classes and every k of its window, in (j1, j2, k) order."""
    M, g = ctx.modulus, ctx.gamma_f
    out = {}
    for j1 in F1.terms:
        s1 = F1.support(j1)
        for j2 in F2.terms:
            s2 = F2.support(j2)
            if side == "left":
                window = _k_window(s1[0] - s2[1], s1[1] - s2[0], g, j1 - j2, M)
            else:
                window = _k_window(s2[0] - s1[1], s2[1] - s1[0], 1.0, ctx.a * (j2 - j1), M)
            for k in window:
                out.setdefault(k, []).append((j1, j2))
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_aligned_pairs_match_every_pair_reference(p):
    # the k of an inner product, in the order they first appear: act_alg_left and
    # act_alg_right add their terms in that order (each k's sum is checked bitwise above)
    rng = random.Random(400 + p)
    for n in (0, 1, 2):
        ctx, ctx2 = ctx_at(p, n), ctx_at(p, n + 1)
        for _ in range(3):
            F, G = _planted(rng, ctx.modulus, 1.0), _planted(rng, ctx.modulus, 0.5 - 1j)
            cases = [(ctx, F, G), (ctx, G, random_mod_elem(rng, ctx.modulus)), (ctx2, level_embed(ctx, F), level_embed(ctx, G))]
            for c, F1, F2 in cases:
                for side, inner in (("left", inner_left), ("right", inner_right)):
                    assert list(inner(c, F1, F2).comps) == list(_pairs_reference(c, F1, F2, side)), (side, n)


def _mod_diff_reference(A, B, rng, points):
    """mod_diff one class at a time, with the t draws of rng.uniform."""
    lo = min(s[0] for s in (A.support(), B.support()) if s is not None) - 1.0
    hi = max(s[1] for s in (A.support(), B.support()) if s is not None) + 1.0
    t = np.asarray([lo + (hi - lo) * q / 32 for q in range(33)] + [rng.uniform(lo, hi) for _ in range(points - 33)])
    err = 0.0
    for j in sorted(set(A.indices()) | set(B.indices())):
        err = max(err, float(np.max(np.abs(A.eval(t, j) - B.eval(t, j)), initial=0.0)))
    return err


def _alg_diff_reference(A, B, rng, points):
    """alg_diff one component at a time, with the r draws of rng.uniform."""
    r = np.asarray([q / 64 for q in range(64)] + [rng.uniform(0.0, 2.0) for _ in range(points - 64)])
    err = 0.0
    for k in sorted(set(A.keys()) | set(B.keys())):
        err = max(err, float(np.max(np.abs(A.eval(r, k) - B.eval(r, k)), initial=0.0)))
    return err


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_diffs_match_per_class_reference(p):
    ctx, ctx2 = ctx_at(p, 0), ctx_at(p, 1)
    rng = random.Random(300 + p)
    for seed in range(6):
        F, G = random_mod_elem(rng, ctx.modulus), random_mod_elem(rng, ctx.modulus)
        iF = level_embed(ctx, F)
        pairs = [
            (level_embed(ctx, act_left_gen(ctx, "U", 1, F)), act_left_gen(ctx2, "U", p, iF)),
            (level_embed(ctx, act_right_gen(ctx, "V", 1, F)), act_right_gen(ctx2, "V", p, iF)),
            (iF, level_embed(ctx, G)),
            (act_alg_left(ctx, inner_left(ctx, F, G), F), act_alg_right(ctx, F, inner_right(ctx, G, F))),
        ]
        for A, B in pairs:
            got = mod_diff(A, B, random.Random(seed), 150)
            assert got == _mod_diff_reference(A, B, random.Random(seed), 150)
        for inner in (inner_left, inner_right):
            lhs = phi_embed(inner(ctx, F, G), p)
            rhs = inner(ctx2, iF, level_embed(ctx, G))
            assert alg_diff(lhs, rhs, random.Random(seed), 100) == _alg_diff_reference(lhs, rhs, random.Random(seed), 100)


def test_sample_draws_are_those_of_uniform():
    rng, ref = random.Random(9), random.Random(9)
    t = _t_samples(rng, [(-2.0, 1.5), None], 90)
    assert t[33:].tolist() == [ref.uniform(-3.0, 2.5) for _ in range(57)]
    r = _r_samples(rng, 80)
    assert r[64:].tolist() == [ref.uniform(0.0, 2.0) for _ in range(16)]


class Counted:
    """An atom that counts its evaluations."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def eval(self, t):
        self.calls += 1
        return self.fn.eval(t)

    def support(self):
        return self.fn.support()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_shared_atoms_evaluate_once_per_grid(p, monkeypatch):
    ctx, ctx2 = ctx_at(p, 0), ctx_at(p, 1)
    f = Counted(HatFn((0.0, 0.4, 1.1), (0j, 1 - 1j, 0j)))
    g = Counted(HatFn((-2.0, 0.9, 3.5), (0j, 0.5 + 2j, 0j)))  # wide: each j1 aligns at several k
    iF = level_embed(ctx, ModElem.delta(ctx.modulus, 0, f))
    iG = level_embed(ctx, ModElem.delta(ctx.modulus, 0, g, coef=0.3j))
    assert len(iF.terms) == p and len({id(pairs) for pairs in iF.terms.values()}) == 1
    # p classes on each side hold the one dilated atom: one evaluation per t grid
    mod_diff(iF, iF.scaled(2.0), random.Random(1), 60)
    assert f.calls == 1
    # so do the p classes a U action moves: one shifted atom per side
    mod_diff(act_left_gen(ctx2, "U", p, iF), act_right_gen(ctx2, "U", p, iF), random.Random(2), 60)
    assert f.calls == 3
    # a V action wraps each of the p classes' shared atom in its own PhaseMod, which takes the atom's
    # values on the grid from the same memo: once per side
    lhs = level_embed(ctx, act_left_gen(ctx, "V", 1, ModElem.delta(ctx.modulus, 0, f)))
    rhs = act_left_gen(ctx2, "V", p, iF)
    assert len({id(atom.fn) for pairs in rhs.terms.values() for _, atom in pairs}) == 1 < len(rhs.terms) == p
    f.calls = 0
    assert mod_diff(lhs, rhs, random.Random(4), 60) < 1e-12
    assert f.calls == 2
    # the all-k path evaluates each shared term tuple once per batch, on the grids of all
    # its entries there: once in all when they fit one batch
    monkeypatch.setattr(bimodule, "BATCH_VALUES", 10**9)
    A = inner_left(ctx2, iF, iG)
    r = np.linspace(0.0, 1.0, 17)
    f.calls = g.calls = 0
    A.eval_all(r)
    assert (f.calls, g.calls) == (1, 1)
    g.calls = 0
    alg_diff(phi_embed(inner_right(ctx, ModElem.delta(ctx.modulus, 0, f), ModElem.delta(ctx.modulus, 0, g)), p),
             inner_right(ctx2, iF, iG), random.Random(3), 80)
    assert g.calls == 2  # once per side, each side one grid
    # in batches of one entry F2 is evaluated once per entry, and F1 still once per j1 grid
    monkeypatch.setattr(bimodule, "BATCH_VALUES", 1)
    f.calls = g.calls = 0
    A.eval_all(r)
    window = lambda s1, s2: (s1[0] - s2[1], s1[1] - s2[0], ctx2.gamma_f)  # inner_left's
    entries = bimodule._aligned_pairs(iF, iG, ctx2.modulus, lambda j: -j, window)
    assert g.calls == len(entries) > f.calls == len({j1 for j1, _, _, _ in entries}) > 1


def test_mod_diff_leaves_no_reference_cycle():
    # a cycle (a memo closure that refers to itself, say) would keep every grid and value array of the call
    # alive until the next collection
    ctx, ctx2 = ctx_at(3, 0), ctx_at(3, 1)
    F = random_mod_elem(random.Random(19), ctx.modulus)
    lhs, rhs = level_embed(ctx, act_left_gen(ctx, "V", 1, F)), act_left_gen(ctx2, "V", 3, level_embed(ctx, F))
    gc.collect()
    gc.disable()
    try:
        assert mod_diff(lhs, rhs, random.Random(5), 80) < 1e-12
        assert gc.collect() == 0
    finally:
        gc.enable()


def _nan_hat():
    return HatFn((0.0, 0.5, 1.0), (0j, complex(math.nan, 1.0), 0j))


def test_nan_deviation_is_nan_in_every_class():
    f = HatFn((0.0, 0.5, 1.0), (0j, 1 + 0j, 0j))
    for nan_class in (0, 1):
        A = ModElem(4, {0: ((1.0 + 0j, f),), 1: ((1.0 + 0j, f),)})
        B = ModElem(4, {0: ((2.0 + 0j, f),), 1: ((2.0 + 0j, f),)}).add(ModElem.delta(4, nan_class, _nan_hat()))
        assert math.isnan(mod_diff(A, B, random.Random(0), 50))
    ctx = ctx_at(2, 0)
    F = ModElem.delta(1, 0, _nan_hat())
    assert math.isnan(alg_diff(inner_left(ctx, F, F), AlgElem(), random.Random(0), 70))
    assert math.isnan(alg_diff(AlgElem(), inner_right(ctx, F, F), random.Random(0), 70))
    # F2 is NaN only where F1 is an exact zero: 0 * NaN still reaches the kernel, so an F2 that is not known
    # finite is evaluated on the whole m window, not only on F1's band
    F1 = ModElem.delta(1, 0, HatFn((2.0, 2.5, 3.0), (0j, 1 + 0j, 0j)))
    nan_mid = HatFn((0.0, 0.7, 0.8, 0.9, 10.0, 10.5), (0j, 1 + 0j, complex(math.nan, 1.0), 1 + 0j, 1 + 0j, 0j))
    F2 = ModElem.delta(1, 0, nan_mid)
    assert math.isnan(alg_diff(inner_left(ctx, F1, F2), AlgElem(), random.Random(0), 70))


def test_nan_deviation_fails_the_report(monkeypatch):
    import ncsolenoid.bimodule as bimodule

    monkeypatch.setattr(bimodule, "random_hat", lambda rng: _nan_hat())
    plan = SamplePlan(seed=1, hats=1, r_points=70, t_points=50)
    report = identity_suite(spec_p(2), ProjectionData(1, 1, 0), 0, plan)
    assert all(math.isnan(e) for e in report.values())
    rep = check_bimodule(spec_p(2), ProjectionData(1, 1, 0), 0, plan)
    assert rep["pass"] is False and rep["max_error"] is None
    assert set(rep["identities"].values()) == {None}
    json.dumps(rep, allow_nan=False)


def test_inner_products_periodic_and_positive():
    rng = random.Random(13)
    for p, n in ((2, 0), (2, 1), (3, 1)):
        ctx = ctx_at(p, n)
        F = random_mod_elem(rng, ctx.modulus)
        G = random_mod_elem(rng, ctx.modulus)
        assert periodicity_defect(inner_left(ctx, F, G), rng, 80) < 1e-12
        assert periodicity_defect(inner_right(ctx, F, G), rng, 80) < 1e-12
        # self inner product at k=0 is real and nonnegative at sampled r
        self_r = inner_right(ctx, F, F).eval(np.linspace(0, 1, 37), 0)
        assert float(np.max(np.abs(self_r.imag))) < 1e-12
        assert float(np.min(self_r.real)) > -1e-12


def test_iota_frozen_example():
    # p=2, n=0, c0=1: f delta_0 spreads to f(t/2) delta_0 + f(t/2) delta_2 in Z_4
    ctx = ctx_at(2, 0)
    f = HatFn((0.0, 1.0, 2.0), (0j, 1 + 0j, 0j))
    F = ModElem.delta(1, 0, f)
    iF = level_embed(ctx, F)
    assert iF.modulus == 4
    assert iF.indices() == (0, 2)
    t = np.array([0.5, 1.0, 3.0])
    for j in (0, 2):
        assert np.allclose(iF.eval(t, j), f.eval(t / 2))
    assert iF.support() == (0.0, 4.0)  # support dilates by p
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
    lhs = phi_embed(inner_left(ctx, F, G), 2)
    good = inner_left(ctx2, level_embed(ctx, F), level_embed(ctx, G))
    assert alg_diff(lhs, good, rng, 90) < 1e-12
    s = 1 / math.sqrt(2)
    bad = inner_left(ctx2, level_embed(ctx, F).scaled(s), level_embed(ctx, G).scaled(s))
    assert alg_diff(lhs, bad, rng, 90) > 1e-3
    r = np.linspace(0, 1, 41)
    for k in lhs.keys():
        assert float(np.max(np.abs(lhs.eval(r, k) - 2 * bad.eval(r, k)))) < 1e-12


def test_iota_linearity_is_structural():
    rng = random.Random(14)
    ctx = ctx_at(2, 1)
    F = random_mod_elem(rng, ctx.modulus)
    G = random_mod_elem(rng, ctx.modulus)
    assert level_embed(ctx, F.add(G)) == level_embed(ctx, F).add(level_embed(ctx, G))
    assert level_embed(ctx, ModElem(ctx.modulus)) == ModElem(4 * ctx.modulus)


def test_phi_embed_shapes():
    ident = AlgElem({0: TrigPoly(((1.0 + 0j, 0),))})
    out = phi_embed(ident, 3)
    r = np.linspace(0, 1, 9)
    assert out.keys() == (0,)
    assert np.allclose(out.eval(r, 0), 1.0)
    single = AlgElem({1: TrigPoly(((1.0 + 0j, 1),))})
    moved = phi_embed(single, 3)
    assert moved.keys() == (3,)
    assert np.allclose(moved.eval(r, 3), np.exp(2j * math.pi * 3 * r))


def test_phi_homomorphism_over_convolution():
    rng = random.Random(15)
    ctx = ctx_at(2, 0)
    ctx2 = ctx_at(2, 1)
    for _ in range(5):
        def rand_alg():
            comps = {}
            for k in rng.sample(range(-3, 4), rng.randint(1, 5)):
                comps[k] = TrigPoly(
                    tuple((complex(rng.gauss(0, 1), rng.gauss(0, 1)), rng.randint(-2, 2)) for _ in range(2))
                )
            return AlgElem(comps)

        A, B = rand_alg(), rand_alg()
        lhs = phi_embed(convolve(A, B, ctx.beta_f), 2)
        rhs = convolve(phi_embed(A, 2), phi_embed(B, 2), ctx2.beta_f)
        assert alg_diff(lhs, rhs, rng, 90) < 1e-9


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


def test_identity_suite_rejects_bad_inputs():
    with pytest.raises(ValueError):
        SamplePlan(seed=1, hats=0)
    bad = SolenoidSpec(2, THETA, PAdic.from_rational(2, 2))
    with pytest.raises(ValueError):
        identity_suite(bad, ProjectionData(1, 1, 0), 0, SamplePlan(hats=1))


def test_zero_elements_give_exact_zero_deviation():
    ctx = ctx_at(2, 0)
    rng = random.Random(16)
    empty = ModElem(ctx.modulus)
    assert mod_diff(act_left_gen(ctx, "U", 1, empty), ModElem(ctx.modulus), rng, 40) == 0.0
    assert alg_diff(inner_left(ctx, empty, empty), AlgElem(), rng, 40) == 0.0


def test_random_hat_is_compactly_supported():
    rng = random.Random(17)
    for _ in range(20):
        h = random_hat(rng)
        lo, hi = h.support()
        assert h.values[0] == 0 and h.values[-1] == 0
        assert lo < hi
        assert abs(h.eval(np.array([lo - 0.1]))[0]) == 0
