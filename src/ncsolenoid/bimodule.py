"""Finite-stage bimodule kernels on C_c(R x Z_c) and their compatibility checks.

Everything here is numerical-by-sampling: module elements are finite sums of
compactly supported atoms over index classes mod c, algebra elements are
finite maps k -> 1-periodic evaluator, and every identity is checked
pointwise at seeded sample plans.  Exact data (alpha, beta, gamma, the
Bezout pair) comes from the partner machinery and is lowered to double
precision once per context.

Test functions are piecewise-linear hats: genuine compact support keeps
every lattice sum finite, with summation ranges derived from support bounds
rather than truncated.  An inner product enumerates only the class pairs
(j1, j2) aligned with some k, and evaluates each (j1, j2) entry on the band
of its (m x r) grid where F1 can be nonzero, then adds it into its k's sum
by an ordered np.add.at, in the m order of a row-by-row loop.

Sampled comparisons evaluate a factor that several classes share once, not
once per class.  The p classes that `level_embed` spreads one class over
share its term tuple and atoms, and so do the classes a U action moves.
`mod_diff` evaluates each distinct atom once on its t grid (the PhaseMods of
a V action modulate their shared atom's memoised values), sums each
distinct term tuple once and differences each distinct pair of tuples once.
`alg_diff` evaluates an inner product at every k together
(`AlgElem.eval_all`): on one r grid each j1 band is built and F1 evaluated
on it once, and the entries are taken j1 by j1 in batches of about
BATCH_VALUES band values, each distinct term tuple of F2 evaluated once per
batch on the concatenated bands of the entries it serves.  Only one batch's
grids and values are held at a time.  The one-k path (`AlgElem.eval`) is
the same evaluation restricted to the entries of its k; the module actions
use it, since their grids differ per (j, k).
"""

from __future__ import annotations

import bisect
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
# grid values per batch of inner-product entries: an inner product evaluates each F2 term tuple once per
# batch and holds one batch's grids and values at a time, so its memory does not grow with its entries
BATCH_VALUES = 2048
# an inner product evaluates F1's class j1 only at the grid points inside its support widened by this share of
# the support bounds' size: far past the few ulps by which an atom's float support bound and the point where
# its values become exact zeros can differ (an atom built by Shifted and Dilated rounds both)
BAND_PAD = 2.0**-20
# np.add.at, bound at import: bench/tracer.py times numpy by putting a module of plain functions in place of
# this module's np, and a plain function has no ufunc methods
_add_at = np.add.at


# -- function atoms --------------------------------------------------------------


def _finite(atom) -> bool:
    """Whether atom is known to take only finite values: a finite HatFn under finite combinators."""
    return getattr(atom, "finite", False)


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
        # interpolation tables and finiteness, built once; not fields, so == and hash see only the two tuples
        object.__setattr__(self, "_xp", np.asarray(self.breakpoints))
        object.__setattr__(self, "_re", np.asarray([v.real for v in self.values]))
        object.__setattr__(self, "_im", np.asarray([v.imag for v in self.values]))
        finite = all(map(math.isfinite, self.breakpoints)) and all(map(cmath.isfinite, self.values))
        object.__setattr__(self, "finite", finite)

    def eval(self, t):
        # two real interps: one complex np.interp is not bit-identical to them
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape, dtype=complex)
        out.real = np.interp(t, self._xp, self._re, left=0.0, right=0.0)
        out.imag = np.interp(t, self._xp, self._im, left=0.0, right=0.0)
        return out

    def support(self):
        return (self.breakpoints[0], self.breakpoints[-1])


@dataclass(frozen=True)
class Shifted:
    """t -> fn(t - s)."""

    fn: object
    s: float

    @property
    def finite(self) -> bool:
        return _finite(self.fn) and math.isfinite(self.s)

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

    @property
    def finite(self) -> bool:
        return _finite(self.fn) and math.isfinite(self.factor)

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

    @property
    def finite(self) -> bool:
        return _finite(self.fn) and math.isfinite(self.freq) and math.isfinite(self.offset)

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        return self.modulate(t, self.fn.eval(t))

    def modulate(self, t: np.ndarray, inner: np.ndarray) -> np.ndarray:
        """The values at t, given inner = fn at t (np.multiply: see _class_sum)."""
        return np.multiply(np.exp(TWO_PI_I * (self.freq * t + self.offset)), inner)

    def support(self):
        return self.fn.support()


@dataclass(frozen=True)
class Product:
    left: object
    right: object

    @property
    def finite(self) -> bool:
        return _finite(self.left) and _finite(self.right)

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


def _class_sum(pairs, t: np.ndarray, value) -> np.ndarray:
    """sum of coef * value(atom) over one class's terms, in term order.

    np.multiply, not `*`: numpy computes `coef * temporary` in place once the
    temporary reaches 256 KiB, and that can move a complex product by an ulp,
    so the sum would depend on the size of the grid it is evaluated on.
    """
    acc = np.zeros(t.shape, dtype=complex)
    for coef, atom in pairs:
        acc += np.multiply(coef, value(atom))
    return acc


def _span(pairs):
    """Hull of the supports of the atoms in (coef, atom) pairs; NO_SUPPORT if none has one."""
    lo, hi = math.inf, -math.inf
    for _, atom in pairs:
        sup = atom.support()
        if sup is NO_SUPPORT:
            continue
        lo, hi = min(lo, sup[0]), max(hi, sup[1])
    return NO_SUPPORT if lo > hi else (lo, hi)


class ModElem:
    """Finite sum over index classes mod `modulus` of coefficient-weighted atoms.

    terms maps j in {0,...,modulus-1} to a tuple of (coef, atom) pairs; sums
    concatenate term tuples, so linear identities that hold term-by-term hold
    at the data-structure level.  A class given a tuple alone keeps that tuple
    object, so classes built from one tuple share it.
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
                key = j % modulus
                self.terms[key] = self.terms[key] + pairs if key in self.terms else pairs

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
        return _class_sum(self.terms.get(j % self.modulus, ()), t, lambda atom: atom.eval(t))

    def indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.terms))

    def support(self, j: int | None = None):
        """Hull of the supports of class j's atoms, or of every class's (each shared tuple read once)."""
        if j is not None:
            return _span(self.terms.get(j % self.modulus, ()))
        return _span(pair for pairs in {id(ps): ps for ps in self.terms.values()}.values() for pair in pairs)

    def __eq__(self, other):
        return (
            isinstance(other, ModElem)
            and self.modulus == other.modulus
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"ModElem(mod {self.modulus}, indices {self.indices()})"


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
    """Finite map k -> 1-periodic evaluator; missing components are zero.

    every, if given, maps an r array to {k: component at r} for every k at
    once; an inner product passes one that shares work across its k.
    """

    __slots__ = ("comps", "_every")

    def __init__(self, comps: dict | None = None, every=None):
        self.comps = dict(comps or {})
        self._every = every

    def eval(self, r, k: int):
        r = np.asarray(r, dtype=float)
        comp = self.comps.get(k)
        if comp is None:
            return np.zeros(r.shape, dtype=complex)
        return comp.eval(r)

    def eval_all(self, r) -> dict[int, np.ndarray]:
        """{k: component k at r} for every k, each equal to eval(r, k)."""
        r = np.asarray(r, dtype=float)
        if self._every is not None:
            return self._every(r)
        return {k: comp.eval(r) for k, comp in self.comps.items()}

    def keys(self) -> tuple[int, ...]:
        return tuple(sorted(self.comps))


def phi_embed(A: AlgElem, p: int) -> AlgElem:
    """Symbol-level embedding: component j moves to jp with its function dilated by p."""
    return AlgElem(
        {k * p: DilatedComp(comp, p) for k, comp in A.comps.items()},
        lambda r: {k * p: v for k, v in A.eval_all(r * p).items()},
    )


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


def _once(memo: dict, obj, make):
    """make(obj), built once per distinct obj (by identity): an atom or a term tuple that classes share."""
    out = memo.get(id(obj))
    if out is None:
        out = memo[id(obj)] = make(obj)
    return out


def act_left_gen(ctx: BimCtx, gen: str, power: int, F: ModElem) -> ModElem:
    """U: F(t - gamma, [m-1]); V: exp(2 pi i (t - am)/c) F(t, [m]); integer powers."""
    _check_modulus(ctx, F)
    if power == 0:
        return F
    out: dict = {}
    moved: dict = {}  # classes that share a term tuple share its shifted tuple
    for j, pairs in F.terms.items():
        if gen == "U":
            out[(j + power) % ctx.modulus] = _once(
                moved, pairs, lambda ps: tuple((c, Shifted(atom, power * ctx.gamma_f)) for c, atom in ps)
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
    moved: dict = {}  # classes that share a term tuple share its shifted tuple
    for j, pairs in F.terms.items():
        if gen == "U":
            out[(j + power * ctx.d) % ctx.modulus] = _once(
                moved, pairs, lambda ps: tuple((c, Shifted(atom, float(power))) for c, atom in ps)
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


def _k_bounds(lo: float, hi: float, step: float) -> tuple[int, int]:
    # the least and the greatest integer k with k*step in [lo, hi]
    return math.ceil(lo / step - 1e-12), math.floor(hi / step + 1e-12)


def _k_window(lo: float, hi: float, step: float, r: int, M: int) -> range:
    # integer k = r mod M with k*step in [lo, hi], increasing
    first, last = _k_bounds(lo, hi, step)
    return range(first + (r - first) % M, last + 1, M)


def _supports(F: ModElem) -> list[tuple[int, tuple[float, float]]]:
    """(j, support of class j) for each class of F with a nonempty support, each term tuple read once."""
    spans: dict = {}
    return [(j, s) for j, pairs in F.terms.items() if (s := _once(spans, pairs, _span)) is not NO_SUPPORT]


def _aligned_pairs(F1: ModElem, F2: ModElem, M: int, key, window) -> list[tuple]:
    """[(j1, j2, k, s1)] for every class pair and offset k the supports allow, in (j1, j2, k) order.

    A pair aligns at k = key(j2) - key(j1) mod M, and window(s1, s2) bounds k*step.
    For each j1, the window against the hull of F2's supports contains every
    pair's window, so only the j2 whose keys fall in the residues of its k
    (all of them, once it spans M or more k) can align; they are bisected from
    F2's classes sorted by key.
    """
    supports2 = _supports(F2)
    if not supports2:
        return []
    hull2 = (min(s[0] for _, s in supports2), max(s[1] for _, s in supports2))
    by_key = sorted((key(j2) % M, i) for i, (j2, _) in enumerate(supports2))
    keys = [kk for kk, _ in by_key]
    entries = []
    for j1, s1 in _supports(F1):
        k1 = key(j1)
        first, last = _k_bounds(*window(s1, hull2))
        found = []
        if last >= first:
            lo = (first + k1) % M  # key residues of k in [first, last]: [lo, hi) read mod M
            hi = lo + min(last - first + 1, M)
            for a, b in ((lo, min(hi, M)), (0, hi - M)):
                for kk, i in by_key[bisect.bisect_left(keys, a) : bisect.bisect_left(keys, b)]:
                    found.extend((i, k) for k in _k_window(*window(s1, supports2[i][1]), kk - k1, M))
        entries.extend((j1, supports2[i][0], k, s1) for i, k in sorted(found))
    return entries


def _m_column(m0: int, lo: float, hi: float, M: int) -> np.ndarray:
    """Lattice indices m = m0 mod M in [floor(lo), ceil(hi)], as a column to broadcast against a 1-d r."""
    lo, hi = math.floor(lo), math.ceil(hi)
    start = lo + ((m0 - lo) % M)
    return np.arange(start, hi + 1, M).reshape(-1, 1)


def _finite_terms(pairs) -> bool:
    return all(cmath.isfinite(c) and _finite(atom) for c, atom in pairs)


def _band(grid: np.ndarray, support) -> tuple[np.ndarray, np.ndarray]:
    """(values, r indices) of the points of an (m rows x r points) grid inside support, in m-major order.

    support is widened by BAND_PAD of its bounds' size; FULL_LINE keeps every point.
    """
    flat = grid.ravel()
    if support is FULL_LINE:
        keep = np.arange(flat.size)
    else:
        lo, hi = support
        pad = BAND_PAD * (1.0 + abs(lo) + abs(hi))
        keep = np.flatnonzero((flat >= lo - pad) & (flat <= hi + pad))
        flat = flat[keep]
    return flat, keep % grid.shape[1]


def _on_grids(F: ModElem, requests: dict) -> dict:
    """{key: F at class j on grid} for requests {key: (j, grid)}.

    Each distinct term tuple of F is evaluated once, on the concatenation of
    the grids of all the requests whose class holds it.
    """
    groups: dict[int, tuple] = {}  # id(term tuple) -> (a class holding it, request keys, their grids)
    for key, (j, grid) in requests.items():
        _, keys, grids = groups.setdefault(id(F.terms[j]), (j, [], []))
        keys.append(key)
        grids.append(grid)
    out = {}
    for j, keys, grids in groups.values():
        values = F.eval(np.concatenate(grids) if len(grids) > 1 else grids[0], j)
        start = 0
        for key, grid in zip(keys, grids):
            out[key] = values[start : start + len(grid)]
            start += len(grid)
    return out


def _inner(F1: ModElem, F2: ModElem, entries: list, columns, shift, product) -> AlgElem:
    """The inner product whose entry (j1, j2, k) sums product(F1 on grid, F2 on shift(grid, k)) over m.

    entries is j1-major, as _aligned_pairs gives it.  columns(r) gives, for a
    1-d r, the function (j1, s1) -> (m rows x r points) grid of j1's m column,
    or None when the column is empty; the grid depends on neither k nor j2.
    An entry keeps only the band of its grid inside s1, class j1's support:
    outside it F1 is an exact zero, and so is each product, unless F2 is not
    finite (0 * NaN is NaN), so an entry whose F1 or F2 term tuple is not
    known finite keeps its whole grid.  One evaluation at r takes the entries
    in order, in batches of about BATCH_VALUES band values.  Each distinct
    term tuple of F1 and of F2 is evaluated once per batch on the bands it
    serves, and the batch's products are added into a (k x r) accumulator by
    one np.add.at, which applies repeated indices in order: every (k, r) sums
    its entries in j1 order and their points in m order, as a row-by-row
    loop would.  The dropped zeros would change no sum, which starts at +0
    and so never becomes -0.  A batch's grids and values are dropped after
    it, all but those of the j1 it ends in, so memory stays bounded however
    many entries there are.
    """
    finite: dict = {}
    entries = [
        (j1, j2, k, s1, _once(finite, F1.terms[j1], _finite_terms) and _once(finite, F2.terms[j2], _finite_terms))
        for j1, j2, k, s1 in entries
    ]
    by_k: dict[int, list] = {}
    for entry in entries:
        by_k.setdefault(entry[2], []).append(entry)

    def flush(batch, views, f1, acc, width):
        if not batch:
            return
        f1.update(_on_grids(F1, {key: (key[0], views[key][0]) for key, _, _, _ in batch if key not in f1}))
        f2 = _on_grids(F2, {n: (j2, shift(views[key][0], k)) for n, (key, j2, k, _) in enumerate(batch)})
        x = np.concatenate([f1[key] for key, _, _, _ in batch])
        y = np.concatenate([f2[n] for n in range(len(batch))])
        points = np.concatenate([views[key][1] for key, _, _, _ in batch])
        rows = np.repeat([slot * width for _, _, _, slot in batch], [views[key][1].size for key, _, _, _ in batch])
        _add_at(acc, rows + points, product(x, y))

    def at(r, chosen) -> dict[int, np.ndarray]:
        r = np.asarray(r, dtype=float)
        column, width = columns(r.ravel()), r.size
        slots = {k: slot for slot, k in enumerate(dict.fromkeys(entry[2] for entry in chosen))}
        acc = np.zeros(len(slots) * width, dtype=complex)
        batch, views, f1, size = [], {}, {}, 0
        for j1, j2, k, s1, band in chosen:
            if size >= BATCH_VALUES:
                flush(batch, views, f1, acc, width)
                batch, size = [], 0
                views = {key: view for key, view in views.items() if key[0] == j1}
                f1 = {key: values for key, values in f1.items() if key[0] == j1}
            key = (j1, band)
            if key not in views:
                grid = column(j1, s1)
                views[key] = None if grid is None else _band(grid, s1 if band else FULL_LINE)
            if views[key] is not None and views[key][0].size:
                batch.append((key, j2, k, slots[k]))
                size += views[key][0].size
        flush(batch, views, f1, acc, width)
        return {k: acc[slot * width : (slot + 1) * width].reshape(r.shape) for k, slot in slots.items()}

    comps = {k: SumKernel(lambda r, es=es, k=k: at(r, es)[k]) for k, es in by_k.items()}
    return AlgElem(comps, lambda r: at(r, entries))


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
    entries = _aligned_pairs(F1, F2, M, lambda j: -j, lambda s1, s2: (s1[0] - s2[1], s1[1] - s2[0], g))

    def columns(r):
        cr, r_lo, r_hi = cc * r, float(r.min()), float(r.max())

        def column(j1, s1):
            ms = _m_column((ctx.a * j1) % M, s1[0] - cc * r_hi, s1[1] - cc * r_lo, M)
            return cr + ms if ms.size else None

        return column

    # np.multiply, not `*`: `*` would multiply the temporary conj(y) of 256 KiB or more
    # in place, which can differ in the last ulp (see _class_sum)
    return _inner(F1, F2, entries, columns, lambda grid, k: grid - k * g, lambda x, y: np.multiply(x, np.conj(y)))


def inner_right(ctx: BimCtx, F1: ModElem, F2: ModElem) -> AlgElem:
    """<F1,F2>(r,k) = sum_m conj F1((cr-m)gamma, [-m]) F2((cr-m)gamma + k, [dk-m]).

    [-m] = [j1] forces m = -j1 mod c; k = a(j2 - j1) mod c.
    """
    _check_modulus(ctx, F1)
    _check_modulus(ctx, F2)
    M, cc, g = ctx.modulus, ctx.c, ctx.gamma_f
    if not g > 0:
        raise ValueError(f"gamma must be positive, got {g}")
    entries = _aligned_pairs(F1, F2, M, lambda j: ctx.a * j, lambda s1, s2: (s2[0] - s1[1], s2[1] - s1[0], 1.0))

    def columns(r):
        cr, r_lo, r_hi = cc * r, float(r.min()), float(r.max())

        def column(j1, s1):
            ms = _m_column((-j1) % M, cc * r_lo - s1[1] / g, cc * r_hi - s1[0] / g, M)
            return (cr - ms) * g if ms.size else None

        return column

    return _inner(F1, F2, entries, columns, lambda grid, k: grid + k, lambda x, y: np.multiply(np.conj(x), y))


# -- connecting maps -----------------------------------------------------------------


def level_embed(ctx: BimCtx, F: ModElem) -> ModElem:
    """Embed a modulus-c0*p^(2n) element into modulus c0*p^(2n+2).

    f at index j maps to f(t/p) spread over the p indices
    jp + i*c0*p^(2n+1), i = 0..p-1.

    This unscaled map preserves both inner products on the nose: for a fixed
    algebra offset the p index classes contribute complementary residue
    classes of the lattice sum and jointly reassemble exactly one copy of the
    coarser-level value.  A 1/sqrt(p) prefactor (tempting if one reads the
    p-fold spread as needing unitary normalization) therefore undershoots
    inner-product compatibility by exactly a factor of p; the tests pin this
    down.
    """
    _check_modulus(ctx, F)
    p = ctx.spec.p
    target = ctx.proj.c0 * p ** (2 * ctx.n + 2)
    stride = ctx.proj.c0 * p ** (2 * ctx.n + 1)
    out: dict = {}
    for j, pairs in F.terms.items():
        spread = tuple((c, Dilated(atom, float(p))) for c, atom in pairs)  # one tuple for all p classes
        for i in range(p):
            idx = (j * p + i * stride) % target
            out[idx] = out[idx] + spread if idx in out else spread
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


def _uniform(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    # the draws of rng.uniform(lo, hi), which computes lo + (hi - lo) * rng.random()
    span, draw = hi - lo, rng.random
    return [lo + span * draw() for _ in range(count)]


def _t_samples(rng: random.Random, supports, count: int) -> np.ndarray:
    lo = min((s[0] for s in supports if s is not NO_SUPPORT), default=-1.0)
    hi = max((s[1] for s in supports if s is not NO_SUPPORT), default=1.0)
    lo, hi = lo - 1.0, hi + 1.0
    grid = [lo + (hi - lo) * q / 32 for q in range(33)]
    return np.asarray(grid + _uniform(rng, lo, hi, count - len(grid)))


def _r_samples(rng: random.Random, count: int) -> np.ndarray:
    grid = [q / 64 for q in range(64)]
    return np.asarray(grid + _uniform(rng, 0.0, 2.0, count - len(grid)))


def _worst(diffs: np.ndarray) -> float:
    """Largest modulus in diffs, 0.0 if empty; NaN if any entry is NaN, so the identity fails."""
    return float(np.max(np.abs(diffs), initial=0.0))


def _worse(err: float, e: float) -> float:
    # max(err, nan) keeps err; a NaN deviation must stay NaN
    return e if math.isnan(e) else max(err, e)


def _on_t(values: dict, t: np.ndarray, atom) -> np.ndarray:
    """atom at t, each distinct atom (by identity) evaluated once; a PhaseMod modulates its atom's memoised values.

    A module-level function, not a closure: one that called itself would form a reference cycle.
    """
    out = values.get(id(atom))
    if out is None:
        if isinstance(atom, PhaseMod):
            out = atom.modulate(t, _on_t(values, t, atom.fn))
        else:
            out = atom.eval(t)
        values[id(atom)] = out
    return out


def mod_diff(A: ModElem, B: ModElem, rng: random.Random, points: int) -> float:
    """Largest pointwise |A - B| over every class, on one sampled t grid.

    Each distinct atom (by identity) is evaluated on the grid once, the p
    PhaseMods a V action wraps around one shared atom included; each distinct
    term tuple is summed once, in term order, and each distinct pair of an A
    and a B tuple differenced once, for all the classes that hold them.
    """
    if A.modulus != B.modulus:
        raise ValueError("modulus mismatch in comparison")
    t = _t_samples(rng, [A.support(), B.support()], points)
    values: dict = {}
    sums: dict = {}
    diffs: dict = {}

    def class_sum(pairs):
        return _once(sums, pairs, lambda ps: _class_sum(ps, t, lambda atom: _on_t(values, t, atom)))

    for j in A.terms.keys() | B.terms.keys():
        a, b = A.terms.get(j, ()), B.terms.get(j, ())
        if (id(a), id(b)) not in diffs:
            diffs[id(a), id(b)] = np.subtract(class_sum(a), class_sum(b))
    return _worst(np.asarray(list(diffs.values())))


def alg_diff(A: AlgElem, B: AlgElem, rng: random.Random, points: int) -> float:
    """Largest pointwise |A - B| over every component, on one sampled r grid."""
    r = _r_samples(rng, points)
    a, b = A.eval_all(r), B.eval_all(r)
    zero = np.zeros(r.shape, dtype=complex)
    return _worst(np.asarray([a.get(k, zero) - b.get(k, zero) for k in sorted(a.keys() | b.keys())]))


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
    """Max pointwise deviation of each compatibility identity at this level (NaN if any sample is NaN).

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
            errs["iota_left_action"] = _worse(errs["iota_left_action"], mod_diff(lhs, rhs, rng, plan.t_points))

            lhs = level_embed(ctx, act_right_gen(ctx, gen, 1, F))
            rhs = act_right_gen(ctx2, gen, p, iF)
            errs["iota_right_action"] = _worse(errs["iota_right_action"], mod_diff(lhs, rhs, rng, plan.t_points))

        FG = inner_left(ctx, F, G)
        lhs = phi_embed(FG, p)
        rhs = inner_left(ctx2, iF, iG)
        errs["phi_left_inner"] = _worse(errs["phi_left_inner"], alg_diff(lhs, rhs, rng, plan.r_points))

        lhs = phi_embed(inner_right(ctx, F, G), p)
        rhs = inner_right(ctx2, iF, iG)
        errs["psi_right_inner"] = _worse(errs["psi_right_inner"], alg_diff(lhs, rhs, rng, plan.r_points))

        lhs = act_alg_left(ctx, FG, H)
        rhs = act_alg_right(ctx, F, inner_right(ctx, G, H))
        e = mod_diff(lhs, rhs, rng, plan.t_points)
        uv = act_left_gen(ctx, "U", 1, act_left_gen(ctx, "V", 1, F))
        vu = act_left_gen(ctx, "V", 1, act_left_gen(ctx, "U", 1, F)).scaled(cmath.exp(TWO_PI_I * ctx.beta_f))
        e = _worse(e, mod_diff(uv, vu, rng, plan.t_points))
        ruv = act_right_gen(ctx, "V", 1, act_right_gen(ctx, "U", 1, F))
        rvu = act_right_gen(ctx, "U", 1, act_right_gen(ctx, "V", 1, F)).scaled(cmath.exp(TWO_PI_I * ctx.alpha_f))
        e = _worse(e, mod_diff(ruv, rvu, rng, plan.t_points))
        errs["imprimitivity"] = _worse(errs["imprimitivity"], e)

    return errs
