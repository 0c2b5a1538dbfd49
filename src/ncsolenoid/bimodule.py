"""Finite-stage bimodule kernels on C_c(R x Z_c) and their compatibility checks.

Everything here is numerical-by-sampling: module elements are finite sums of
compactly supported atoms over index classes mod c, algebra elements are
finite maps k -> 1-periodic evaluator, and every identity is checked
pointwise at seeded sample plans.  Exact data (alpha, beta, gamma, the
Bezout pair) comes from the partner machinery and is lowered to double
precision once per context.

Test functions are piecewise-linear hats: genuine compact support keeps
every lattice sum finite, with summation ranges derived from support bounds
rather than truncated.  Each (j1, j2) entry of an inner-product kernel is
evaluated in one call on an (m x r) grid, then folded into the sum row by row
in m order.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import random
import sys
from dataclasses import dataclass

import numpy as np

from .exactnum import QuadReal
from .morita import ProjectionData, checked_trace, stage
from .solenoid import SolenoidSpec, alpha_at

TWO_PI_I = 2j * math.pi
NO_SUPPORT = None
FULL_LINE = (-math.inf, math.inf)
# random_mod_elem samples index classes from range(modulus), whose length must fit a C ssize_t:
# p = 2 reaches it past level 31 (c = 2^62), p = 3 past level 19
MAX_MODULUS = sys.maxsize


# -- function atoms --------------------------------------------------------------


@dataclass(frozen=True)
class HatFn:
    """Piecewise-linear, compactly supported: zero at and outside the end breakpoints."""

    breakpoints: tuple[float, ...]
    values: tuple[complex, ...]

    def __post_init__(self):
        if len(self.breakpoints) != len(self.values) or len(self.breakpoints) < 2:
            raise ValueError("breakpoints and values must align, at least two points")
        if any(b <= a for a, b in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if self.values[0] != 0 or self.values[-1] != 0:
            raise ValueError("endpoint values must vanish (compact support)")
        # interpolation tables, built once; not fields, so == and hash see only the two tuples
        object.__setattr__(self, "_xp", np.asarray(self.breakpoints))
        object.__setattr__(self, "_re", np.asarray([v.real for v in self.values]))
        object.__setattr__(self, "_im", np.asarray([v.imag for v in self.values]))

    def eval(self, t):
        # two real interps: one complex np.interp is not bit-identical to them
        t = np.asarray(t, dtype=float)
        re = np.interp(t, self._xp, self._re, left=0.0, right=0.0)
        im = np.interp(t, self._xp, self._im, left=0.0, right=0.0)
        return re + 1j * im

    def support(self):
        return (self.breakpoints[0], self.breakpoints[-1])


@dataclass(frozen=True)
class Shifted:
    """t -> fn(t - s)."""

    fn: object
    s: float

    def eval(self, t):
        return self.fn.eval(np.asarray(t, dtype=float) - self.s)

    def support(self):
        sup = self.fn.support()
        if sup is NO_SUPPORT:
            return NO_SUPPORT
        return (sup[0] + self.s, sup[1] + self.s)


@dataclass(frozen=True)
class Dilated:
    """t -> fn(t / factor), factor > 0."""

    fn: object
    factor: float

    def __post_init__(self):
        if self.factor <= 0:
            raise ValueError("dilation factor must be positive")

    def eval(self, t):
        return self.fn.eval(np.asarray(t, dtype=float) / self.factor)

    def support(self):
        sup = self.fn.support()
        if sup is NO_SUPPORT:
            return NO_SUPPORT
        return (sup[0] * self.factor, sup[1] * self.factor)


@dataclass(frozen=True)
class PhaseMod:
    """t -> exp(2 pi i (freq t + offset)) fn(t)."""

    fn: object
    freq: float
    offset: float

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(TWO_PI_I * (self.freq * t + self.offset)) * self.fn.eval(t)

    def support(self):
        return self.fn.support()


@dataclass(frozen=True)
class Product:
    left: object
    right: object

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        return self.left.eval(t) * self.right.eval(t)

    def support(self):
        a, b = self.left.support(), self.right.support()
        if a is NO_SUPPORT or b is NO_SUPPORT:
            return NO_SUPPORT
        lo, hi = max(a[0], b[0]), min(a[1], b[1])
        return (lo, hi) if lo < hi else NO_SUPPORT


@dataclass(frozen=True)
class PeriodicFn:
    """t -> comp(scale*t + offset) for a 1-periodic algebra component; full-line support."""

    comp: object
    scale: float
    offset: float

    def eval(self, t):
        return self.comp.eval(np.asarray(t, dtype=float) * self.scale + self.offset)

    def support(self):
        return FULL_LINE


# -- module and algebra elements --------------------------------------------------


class ModElem:
    """Finite sum over index classes mod `modulus` of coefficient-weighted atoms.

    terms maps j in {0,...,modulus-1} to a tuple of (coef, atom) pairs; sums
    concatenate term tuples, so linear identities that hold term-by-term hold
    at the data-structure level.
    """

    __slots__ = ("modulus", "terms")

    def __init__(self, modulus: int, terms: dict | None = None):
        if modulus < 1:
            raise ValueError("modulus must be positive")
        self.modulus = modulus
        self.terms = {}
        for j, pairs in (terms or {}).items():
            pairs = tuple(pairs)
            if pairs:
                self.terms[j % modulus] = self.terms.get(j % modulus, ()) + pairs

    @classmethod
    def delta(cls, modulus: int, j: int, atom, coef: complex = 1.0) -> "ModElem":
        return cls(modulus, {j: ((complex(coef), atom),)})

    def add(self, other: "ModElem") -> "ModElem":
        if self.modulus != other.modulus:
            raise ValueError(f"modulus mismatch: {self.modulus} vs {other.modulus}")
        out = dict(self.terms)
        for j, pairs in other.terms.items():
            out[j] = out.get(j, ()) + pairs
        return ModElem(self.modulus, out)

    def scaled(self, z: complex) -> "ModElem":
        return ModElem(
            self.modulus,
            {j: tuple((complex(z) * c, atom) for c, atom in pairs) for j, pairs in self.terms.items()},
        )

    def eval(self, t, j: int):
        t = np.asarray(t, dtype=float)
        acc = np.zeros(t.shape, dtype=complex)
        for coef, atom in self.terms.get(j % self.modulus, ()):
            acc += coef * atom.eval(t)
        return acc

    def indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.terms))

    def support(self, j: int | None = None):
        pairs = ()
        if j is None:
            for ps in self.terms.values():
                pairs += ps
        else:
            pairs = self.terms.get(j % self.modulus, ())
        lo, hi = math.inf, -math.inf
        for _, atom in pairs:
            sup = atom.support()
            if sup is NO_SUPPORT:
                continue
            lo, hi = min(lo, sup[0]), max(hi, sup[1])
        return NO_SUPPORT if lo > hi else (lo, hi)

    def __eq__(self, other):
        return (
            isinstance(other, ModElem)
            and self.modulus == other.modulus
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"ModElem(mod {self.modulus}, indices {self.indices()})"


@dataclass(frozen=True)
class TrigPoly:
    """Sum of coef * exp(2 pi i freq r); exactly 1-periodic."""

    monomials: tuple[tuple[complex, int], ...]

    def eval(self, r):
        r = np.asarray(r, dtype=float)
        acc = np.zeros(r.shape, dtype=complex)
        for coef, freq in self.monomials:
            acc += coef * np.exp(TWO_PI_I * freq * r)
        return acc


class SumKernel:
    """Inner-product component: closure over finite lattice sums; 1-periodic by reindexing."""

    __slots__ = ("_fn",)

    def __init__(self, fn):
        self._fn = fn

    def eval(self, r):
        return self._fn(np.asarray(r, dtype=float))


@dataclass(frozen=True)
class DilatedComp:
    """r -> comp(factor * r): the generator-power embedding on symbols."""

    comp: object
    factor: int

    def eval(self, r):
        return self.comp.eval(np.asarray(r, dtype=float) * self.factor)


class AlgElem:
    """Finite map k -> 1-periodic evaluator; missing components are zero."""

    __slots__ = ("comps",)

    def __init__(self, comps: dict | None = None):
        self.comps = dict(comps or {})

    @classmethod
    def generator_U(cls, power: int = 1) -> "AlgElem":
        return cls({power: TrigPoly(((1.0 + 0j, 0),))})

    @classmethod
    def generator_V(cls, power: int = 1) -> "AlgElem":
        return cls({0: TrigPoly(((1.0 + 0j, power),))})

    def eval(self, r, k: int):
        r = np.asarray(r, dtype=float)
        comp = self.comps.get(k)
        if comp is None:
            return np.zeros(r.shape, dtype=complex)
        return comp.eval(r)

    def keys(self) -> tuple[int, ...]:
        return tuple(sorted(self.comps))


def phi_embed(A: AlgElem, p: int) -> AlgElem:
    """Symbol-level embedding: component j moves to jp with its function dilated by p."""
    return AlgElem({k * p: DilatedComp(comp, p) for k, comp in A.comps.items()})


# -- contexts ----------------------------------------------------------------------


@dataclass(frozen=True)
class BimCtx:
    """Level-2n kernel constants, exact identities checked then lowered to floats."""

    spec: SolenoidSpec
    proj: ProjectionData
    n: int
    c: int
    d: int
    a: int
    b: int
    alpha_f: float
    beta_f: float
    gamma_f: float

    @classmethod
    def build(cls, spec: SolenoidSpec, proj: ProjectionData, n: int) -> "BimCtx":
        if proj.c0 < 1:
            raise ValueError("kernel formulas here require c0 >= 1")
        tau = checked_trace(spec, proj)
        alpha = alpha_at(spec, 2 * n)
        line, mob, beta = stage(spec.p, proj, n, (alpha, spec.head(2 * n)), tau)
        gamma = 1 / tau  # level-independent (stage checks it); the actions rely on it
        if (QuadReal(mob.a) - gamma) / line.c != beta:
            raise ArithmeticError(f"Mobius identity fails at level {n}")
        return cls(
            spec,
            proj,
            n,
            line.c,
            line.d,
            mob.a,
            mob.b,
            float(alpha),
            float(beta),
            float(gamma),
        )

    @property
    def modulus(self) -> int:
        return abs(self.c)

    def with_gamma(self, gamma_f: float) -> "BimCtx":
        return dataclasses.replace(self, gamma_f=gamma_f)


# -- module actions -----------------------------------------------------------------


def _check_modulus(ctx: BimCtx, F: ModElem):
    if F.modulus != ctx.modulus:
        raise ValueError(f"element has modulus {F.modulus}, context needs {ctx.modulus}")


def act_left_gen(ctx: BimCtx, gen: str, power: int, F: ModElem) -> ModElem:
    """U: F(t - gamma, [m-1]); V: exp(2 pi i (t - am)/c) F(t, [m]); integer powers."""
    _check_modulus(ctx, F)
    if power == 0:
        return F
    out: dict = {}
    for j, pairs in F.terms.items():
        if gen == "U":
            out[(j + power) % ctx.modulus] = tuple(
                (c, Shifted(atom, power * ctx.gamma_f)) for c, atom in pairs
            )
        elif gen == "V":
            out[j] = tuple(
                (c, PhaseMod(atom, power / ctx.c, -((power * ctx.a * j) % ctx.c) / ctx.c)) for c, atom in pairs
            )
        else:
            raise ValueError(f"unknown generator {gen!r}")
    return ModElem(ctx.modulus, out)


def act_right_gen(ctx: BimCtx, gen: str, power: int, F: ModElem) -> ModElem:
    """U: F(t - 1, [m-d]); V: exp(2 pi i (t/gamma - m)/c) F(t, [m]); integer powers."""
    _check_modulus(ctx, F)
    if power == 0:
        return F
    out: dict = {}
    for j, pairs in F.terms.items():
        if gen == "U":
            out[(j + power * ctx.d) % ctx.modulus] = tuple(
                (c, Shifted(atom, float(power))) for c, atom in pairs
            )
        elif gen == "V":
            out[j] = tuple(
                (c, PhaseMod(atom, power / (ctx.gamma_f * ctx.c), -((power * j) % ctx.c) / ctx.c))
                for c, atom in pairs
            )
        else:
            raise ValueError(f"unknown generator {gen!r}")
    return ModElem(ctx.modulus, out)


def act_alg_left(ctx: BimCtx, A: AlgElem, F: ModElem) -> ModElem:
    """(A.F)(t,[m]) = sum_n A_n((t - am)/c) F(t - n*gamma, [m-n])."""
    _check_modulus(ctx, F)
    out = ModElem(ctx.modulus)
    for j, pairs in F.terms.items():
        for n, comp in A.comps.items():
            m_rep = j + n  # any integer representative of the target class works mod 1
            phase = PeriodicFn(comp, 1 / ctx.c, -((ctx.a * m_rep) % ctx.c) / ctx.c)
            shifted = tuple((c, Product(phase, Shifted(atom, n * ctx.gamma_f))) for c, atom in pairs)
            out = out.add(ModElem(ctx.modulus, {m_rep: shifted}))
    return out


def act_alg_right(ctx: BimCtx, F: ModElem, A: AlgElem) -> ModElem:
    """(F.A)(t,[m]) = sum_n F(t - n, [m-dn]) A_n(((t-n)/gamma - (m-dn))/c)."""
    _check_modulus(ctx, F)
    out = ModElem(ctx.modulus)
    for j, pairs in F.terms.items():
        for n, comp in A.comps.items():
            phase = PeriodicFn(comp, 1 / (ctx.gamma_f * ctx.c), -n / (ctx.gamma_f * ctx.c) - j / ctx.c)
            shifted = tuple((c, Product(Shifted(atom, float(n)), phase)) for c, atom in pairs)
            out = out.add(ModElem(ctx.modulus, {j + ctx.d * n: shifted}))
    return out


# -- inner products ------------------------------------------------------------------


def _k_window(lo: float, hi: float, step: float, r: int, M: int) -> range:
    # integer k = r mod M with k*step in [lo, hi], increasing
    first = math.ceil(lo / step - 1e-12)
    return range(first + (r - first) % M, math.floor(hi / step + 1e-12) + 1, M)


def _supports(F: ModElem) -> list[tuple[int, tuple[float, float]]]:
    """(j, support of class j) for each class of F with a nonempty support, each read once."""
    return [(j, s) for j in F.terms if (s := F.support(j)) is not NO_SUPPORT]


def _m_column(m0: int, lo: float, hi: float, M: int, ndim: int) -> np.ndarray:
    """Lattice indices m = m0 mod M in [floor(lo), ceil(hi)], shaped to broadcast against an ndim-d r."""
    lo, hi = math.floor(lo), math.ceil(hi)
    start = lo + ((m0 - lo) % M)
    return np.arange(start, hi + 1, M).reshape((-1,) + (1,) * ndim)


def _fold(acc: np.ndarray, block: np.ndarray) -> None:
    # row by row in m order: block.sum(axis=0) would associate the sum differently
    for term in block:
        acc += term


def inner_left(ctx: BimCtx, F1: ModElem, F2: ModElem) -> AlgElem:
    """<F1,F2>(r,k) = sum_m F1(cr + m, [dm]) conj F2(cr + m - k*gamma, [dm-k]).

    [dm] = [j1] forces m = a*j1 mod c; k = j1 - j2 mod c; the m-sum is finite,
    with its window derived from the support bounds at each evaluation.
    """
    _check_modulus(ctx, F1)
    _check_modulus(ctx, F2)
    M, cc, g = ctx.modulus, ctx.c, ctx.gamma_f
    if not g > 0:
        raise ValueError(f"gamma must be positive, got {g}")
    pair_data: dict[int, list] = {}
    supports2 = _supports(F2)
    for j1, s1 in _supports(F1):
        for j2, s2 in supports2:
            for k in _k_window(s1[0] - s2[1], s1[1] - s2[0], g, j1 - j2, M):
                pair_data.setdefault(k, []).append((j1, j2, s1))

    def make(k, entries):
        def comp(r):
            r = np.asarray(r, dtype=float)
            acc = np.zeros(r.shape, dtype=complex)
            cr, r_lo, r_hi = cc * r, float(np.min(r)), float(np.max(r))
            for j1, j2, s1 in entries:
                ms = _m_column((ctx.a * j1) % M, s1[0] - cc * r_hi, s1[1] - cc * r_lo, M, r.ndim)
                if ms.size:
                    _fold(acc, F1.eval(cr + ms, j1) * np.conj(F2.eval(cr + ms - k * g, j2)))
            return acc

        return SumKernel(comp)

    return AlgElem({k: make(k, entries) for k, entries in pair_data.items()})


def inner_right(ctx: BimCtx, F1: ModElem, F2: ModElem) -> AlgElem:
    """<F1,F2>(r,k) = sum_m conj F1((cr-m)gamma, [-m]) F2((cr-m)gamma + k, [dk-m]).

    [-m] = [j1] forces m = -j1 mod c; k = a(j2 - j1) mod c.
    """
    _check_modulus(ctx, F1)
    _check_modulus(ctx, F2)
    M, cc, g = ctx.modulus, ctx.c, ctx.gamma_f
    if not g > 0:
        raise ValueError(f"gamma must be positive, got {g}")
    pair_data: dict[int, list] = {}
    supports2 = _supports(F2)
    for j1, s1 in _supports(F1):
        for j2, s2 in supports2:
            for k in _k_window(s2[0] - s1[1], s2[1] - s1[0], 1.0, ctx.a * (j2 - j1), M):
                pair_data.setdefault(k, []).append((j1, j2, s1))

    def make(k, entries):
        def comp(r):
            r = np.asarray(r, dtype=float)
            acc = np.zeros(r.shape, dtype=complex)
            cr, r_lo, r_hi = cc * r, float(np.min(r)), float(np.max(r))
            for j1, j2, s1 in entries:
                ms = _m_column((-j1) % M, cc * r_lo - s1[1] / g, cc * r_hi - s1[0] / g, M, r.ndim)
                if ms.size:
                    u = (cr - ms) * g
                    _fold(acc, np.conj(F1.eval(u, j1)) * F2.eval(u + k, j2))
            return acc

        return SumKernel(comp)

    return AlgElem({k: make(k, entries) for k, entries in pair_data.items()})


# -- connecting maps -----------------------------------------------------------------


def level_embed(ctx: BimCtx, F: ModElem, scale: float = 1.0) -> ModElem:
    """Embed a modulus-c0*p^(2n) element into modulus c0*p^(2n+2).

    f at index j maps to scale * f(t/p) spread over the p indices
    jp + i*c0*p^(2n+1), i = 0..p-1.

    The default scale 1.0 is the choice under which both inner products
    are preserved on the nose: for a fixed algebra offset the p index
    classes contribute complementary residue classes of the lattice sum
    and jointly reassemble exactly one copy of the coarser-level value.
    A 1/sqrt(p) prefactor (tempting if one reads the p-fold spread as
    needing unitary normalization) therefore undershoots inner-product
    compatibility by exactly a factor of p; the tests pin this down.
    """
    _check_modulus(ctx, F)
    p = ctx.spec.p
    target = ctx.proj.c0 * p ** (2 * ctx.n + 2)
    stride = ctx.proj.c0 * p ** (2 * ctx.n + 1)
    out: dict = {}
    for j, pairs in F.terms.items():
        for i in range(p):
            idx = (j * p + i * stride) % target
            out[idx] = out.get(idx, ()) + tuple((c * scale, Dilated(atom, float(p))) for c, atom in pairs)
    return ModElem(target, out)


# -- sampling and the identity suite ---------------------------------------------------


@dataclass(frozen=True)
class SamplePlan:
    seed: int = 0
    hats: int = 20
    r_points: int = 200
    t_points: int = 200

    def __post_init__(self):
        if self.hats < 1 or self.r_points < 1 or self.t_points < 1:
            raise ValueError("sample plan must be nonempty")


def random_hat(rng: random.Random, span: float = 3.0) -> HatFn:
    """Seeded hat with a handful of breakpoints and complex values, zero at the ends."""
    t = rng.uniform(-span, span)
    pts = [t]
    for _ in range(rng.randint(2, 5)):
        t += rng.uniform(0.15, 0.9)
        pts.append(t)
    vals = [0j]
    for _ in range(len(pts) - 2):
        vals.append(complex(rng.gauss(0, 1), rng.gauss(0, 1)))
    vals.append(0j)
    return HatFn(tuple(pts), tuple(vals))


def random_mod_elem(rng: random.Random, modulus: int) -> ModElem:
    if modulus > MAX_MODULUS:
        raise ValueError(f"modulus {modulus} exceeds MAX_MODULUS = {MAX_MODULUS}")
    out = ModElem(modulus)
    for j in rng.sample(range(modulus), k=min(modulus, rng.randint(1, 2))):
        coef = complex(rng.gauss(0, 1), rng.gauss(0, 1))
        out = out.add(ModElem.delta(modulus, j, random_hat(rng), coef))
    return out


def _t_samples(rng: random.Random, supports, count: int) -> np.ndarray:
    lo = min((s[0] for s in supports if s is not NO_SUPPORT), default=-1.0)
    hi = max((s[1] for s in supports if s is not NO_SUPPORT), default=1.0)
    lo, hi = lo - 1.0, hi + 1.0
    grid = [lo + (hi - lo) * q / 32 for q in range(33)]
    extra = [rng.uniform(lo, hi) for _ in range(max(0, count - len(grid)))]
    return np.asarray(grid + extra)


def _r_samples(rng: random.Random, count: int) -> np.ndarray:
    grid = [q / 64 for q in range(64)]
    extra = [rng.uniform(0.0, 2.0) for _ in range(max(0, count - len(grid)))]
    return np.asarray(grid + extra)


def mod_diff(A: ModElem, B: ModElem, rng: random.Random, points: int) -> float:
    if A.modulus != B.modulus:
        raise ValueError("modulus mismatch in comparison")
    t = _t_samples(rng, [A.support(), B.support()], points)
    err = 0.0
    for j in sorted(set(A.indices()) | set(B.indices())):
        err = max(err, float(np.max(np.abs(A.eval(t, j) - B.eval(t, j)), initial=0.0)))
    return err


def alg_diff(A: AlgElem, B: AlgElem, rng: random.Random, points: int) -> float:
    r = _r_samples(rng, points)
    err = 0.0
    for k in sorted(set(A.keys()) | set(B.keys())):
        err = max(err, float(np.max(np.abs(A.eval(r, k) - B.eval(r, k)), initial=0.0)))
    return err


IDENTITY_KEYS = (
    "iota_left_action",
    "iota_right_action",
    "phi_left_inner",
    "psi_right_inner",
    "imprimitivity",
)


def identity_suite(
    spec: SolenoidSpec,
    proj: ProjectionData,
    n: int,
    plan: SamplePlan = SamplePlan(),
    corrupt_gamma: float = 0.0,
) -> dict[str, float]:
    """Max pointwise deviation of each compatibility identity at this level.

    (a) iota intertwines the left generator actions (U at level n vs U^p at n+1);
    (b) same on the right;
    (c) the symbol embedding matches the left inner product of embedded elements;
    (d) same for the right inner product;
    (e) imprimitivity <F,G>.H = F.<G,H> plus both generator commutations.

    corrupt_gamma shifts gamma at level n+1 only; a nonzero shift must surface
    as deviation in (a), demonstrating the harness can fail.
    """
    ctx = BimCtx.build(spec, proj, n)
    ctx2 = BimCtx.build(spec, proj, n + 1)
    if corrupt_gamma:
        ctx2 = ctx2.with_gamma(ctx2.gamma_f + corrupt_gamma)
    rng = random.Random(plan.seed)
    p = spec.p
    errs = {key: 0.0 for key in IDENTITY_KEYS}

    for _ in range(plan.hats):
        F = random_mod_elem(rng, ctx.modulus)
        G = random_mod_elem(rng, ctx.modulus)
        H = random_mod_elem(rng, ctx.modulus)
        iF, iG = level_embed(ctx, F), level_embed(ctx, G)

        for gen in ("U", "V"):
            lhs = level_embed(ctx, act_left_gen(ctx, gen, 1, F))
            rhs = act_left_gen(ctx2, gen, p, iF)
            errs["iota_left_action"] = max(errs["iota_left_action"], mod_diff(lhs, rhs, rng, plan.t_points))

            lhs = level_embed(ctx, act_right_gen(ctx, gen, 1, F))
            rhs = act_right_gen(ctx2, gen, p, iF)
            errs["iota_right_action"] = max(errs["iota_right_action"], mod_diff(lhs, rhs, rng, plan.t_points))

        lhs = phi_embed(inner_left(ctx, F, G), p)
        rhs = inner_left(ctx2, iF, iG)
        errs["phi_left_inner"] = max(errs["phi_left_inner"], alg_diff(lhs, rhs, rng, plan.r_points))

        lhs = phi_embed(inner_right(ctx, F, G), p)
        rhs = inner_right(ctx2, iF, iG)
        errs["psi_right_inner"] = max(errs["psi_right_inner"], alg_diff(lhs, rhs, rng, plan.r_points))

        lhs = act_alg_left(ctx, inner_left(ctx, F, G), H)
        rhs = act_alg_right(ctx, F, inner_right(ctx, G, H))
        e = mod_diff(lhs, rhs, rng, plan.t_points)
        uv = act_left_gen(ctx, "U", 1, act_left_gen(ctx, "V", 1, F))
        vu = act_left_gen(ctx, "V", 1, act_left_gen(ctx, "U", 1, F)).scaled(cmath.exp(TWO_PI_I * ctx.beta_f))
        e = max(e, mod_diff(uv, vu, rng, plan.t_points))
        ruv = act_right_gen(ctx, "V", 1, act_right_gen(ctx, "U", 1, F))
        rvu = act_right_gen(ctx, "U", 1, act_right_gen(ctx, "V", 1, F)).scaled(cmath.exp(TWO_PI_I * ctx.alpha_f))
        e = max(e, mod_diff(ruv, rvu, rng, plan.t_points))
        errs["imprimitivity"] = max(errs["imprimitivity"], e)

    return errs
