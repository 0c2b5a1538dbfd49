"""Finite-stage bimodule kernels on C_c(R x Z_c) and their compatibility checks.

Module elements are finite sums of coefficient-weighted atoms over index
classes mod c.  Each atom is a hat moved by one affine Weyl-Heisenberg
element with exact parameters (AffineAtom), so the identities between module
actions are decided exactly, by comparing terms (term_diff).  An algebra
element holds its k and one evaluator at(r, ks) -> {k: values} in floats
(AlgElem), and the identities that involve one are checked pointwise at
seeded sample plans.

Test functions are piecewise-linear hats with finite breakpoints and
values, and coefficients are finite: a section is finite by construction.
Genuine compact support keeps every lattice sum finite, with summation
ranges derived from support bounds rather than truncated.  An inner product
enumerates only the class pairs (j1, j2) aligned with some k, and evaluates
the entries of the k asked for in one pass: each j1's (m x r) grid is cut
once to the band where F1 can be nonzero, and the products are added into
their k's sums by one ordered np.add.at, in the m order of a row-by-row loop.

The p classes that `level_embed` spreads one class over share its term
tuple and atoms, and so do the classes an action moves; the inner products
and `term_diff` read each shared tuple once.  `mod_diff` sums each class
on one t grid.  `alg_diff` evaluates an inner product at every k together
(`AlgElem.eval_all`), so each distinct term tuple of F1 and of F2 is
evaluated once on the concatenated bands of the entries it serves; the
module actions read one k at a time (`AlgElem.eval`), since their grids
differ per (j, k).
"""

from __future__ import annotations

import bisect
import cmath
import dataclasses
import functools
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactnum import QuadReal, frac1
from .morita import ProjectionData, checked_trace, stage
from .solenoid import SolenoidSpec, alpha_at

TWO_PI_I = 2j * math.pi
NO_SUPPORT = None
FULL_LINE = (-math.inf, math.inf)
_ZERO = QuadReal(0)
# random_mod_elem samples index classes from range(modulus), whose length must fit a C ssize_t:
# p = 2 reaches it past level 31 (c = 2^62), p = 3 past level 19
MAX_MODULUS = sys.maxsize
# an inner product evaluates F1's class j1 only at the grid points inside its support widened by this share of
# the support bounds' size: far past the few ulps by which an atom's float support bound and the point where
# its values become exact zeros can differ (an AffineAtom rounds end * lam + s and (t - s) / lam separately)
BAND_PAD = 2.0**-20
# np.add.at, bound at import: bench/tracer.py times numpy by putting a module of plain functions in place of
# this module's np, and a plain function has no ufunc methods
_add_at = np.add.at


# -- function atoms --------------------------------------------------------------


@dataclass(frozen=True)
class HatFn:
    """Piecewise-linear, compactly supported: zero at and outside the end breakpoints.

    Every breakpoint and value must be finite: a section is a compactly
    supported continuous function, so a non-finite hat is not one.
    """

    breakpoints: tuple[float, ...]
    values: tuple[complex, ...]

    def __post_init__(self):
        if len(self.breakpoints) != len(self.values) or len(self.breakpoints) < 2:
            raise ValueError("breakpoints and values must align, at least two points")
        if not (all(map(math.isfinite, self.breakpoints)) and all(map(cmath.isfinite, self.values))):
            raise ValueError("breakpoints and values must be finite")
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
        out = np.empty(t.shape, dtype=complex)
        out.real = np.interp(t, self._xp, self._re, left=0.0, right=0.0)
        out.imag = np.interp(t, self._xp, self._im, left=0.0, right=0.0)
        return out

    def support(self):
        return (self.breakpoints[0], self.breakpoints[-1])


@dataclass(frozen=True)
class AffineAtom:
    """t -> exp(2 pi i (omega t + phi)) h((t - s) / lam): a hat moved by one affine Weyl-Heisenberg element.

    Every module action is a translation, a modulation or a dilation, and the
    three compose in closed form into this normal form.  lam is a positive
    Fraction, s and omega are QuadReal, and phi is a QuadReal reduced into
    [0, 1), so == and hash are exact equality.  eval and support lower the
    parameters to floats, once per atom.  AffineAtom(h) evaluates
    bit-identically to h.
    """

    h: object
    lam: Fraction = Fraction(1)
    s: QuadReal = _ZERO
    omega: QuadReal = _ZERO
    phi: QuadReal = _ZERO

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("dilation factor must be positive")
        object.__setattr__(self, "phi", frac1(self.phi))

    def shift(self, u) -> "AffineAtom":
        """t -> self(t - u)."""
        return AffineAtom(self.h, self.lam, self.s + u, self.omega, self.phi - self.omega * u)

    def dilate(self, q) -> "AffineAtom":
        """t -> self(t / q), for a positive rational q."""
        return AffineAtom(self.h, self.lam * q, self.s * q, self.omega / q, self.phi)

    def modulate(self, w, f) -> "AffineAtom":
        """t -> exp(2 pi i (w t + f)) self(t)."""
        return AffineAtom(self.h, self.lam, self.s, self.omega + w, self.phi + f)

    @functools.cached_property
    def _floats(self) -> tuple[float, float, float, float]:
        return float(self.lam), float(self.s), float(self.omega), float(self.phi)

    def eval(self, t):
        lam, s, omega, phi = self._floats
        t = np.asarray(t, dtype=float)
        values = self.h.eval((t - s) / lam)
        if not (omega or phi):
            return values
        return np.multiply(np.exp(TWO_PI_I * (omega * t + phi)), values)  # np.multiply: see _class_sum

    def support(self):
        lo, hi = self.h.support()
        lam, s, _, _ = self._floats
        return (lo * lam + s, hi * lam + s)


@dataclass(frozen=True)
class Product:
    left: object
    right: object

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        return self.left.eval(t) * self.right.eval(t)

    def support(self):
        a, b = self.left.support(), self.right.support()
        lo, hi = max(a[0], b[0]), min(a[1], b[1])
        return (lo, hi) if lo < hi else NO_SUPPORT


@dataclass(frozen=True)
class PeriodicFn:
    """t -> A(scale*t + offset, k): component k of an algebra element, 1-periodic; full-line support."""

    alg: "AlgElem"
    k: int
    scale: float
    offset: float

    def eval(self, t):
        return self.alg.eval(np.asarray(t, dtype=float) * self.scale + self.offset, self.k)

    def support(self):
        return FULL_LINE


# -- module and algebra elements --------------------------------------------------


def _class_sum(pairs, t: np.ndarray) -> np.ndarray:
    """sum of coef * atom(t) over one class's terms, in term order.

    np.multiply, not `*`: numpy computes `coef * temporary` in place once the
    temporary reaches 256 KiB, and that can move a complex product by an ulp,
    so the sum would depend on the size of the grid it is evaluated on.
    """
    acc = np.zeros(t.shape, dtype=complex)
    for coef, atom in pairs:
        acc += np.multiply(coef, atom.eval(t))
    return acc


def _finite_coef(z) -> complex:
    """z as a complex, which must be finite: a section is a finite sum of finite terms."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"coefficient must be finite, got {z}")
    return z


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
    object, so classes built from one tuple share it.  Every coefficient must
    be finite, which the constructor checks: a section is a finite sum of
    finite terms.
    """

    __slots__ = ("modulus", "terms")

    def __init__(self, modulus: int, terms: dict | None = None):
        if modulus < 1:
            raise ValueError("modulus must be positive")
        self.modulus = modulus
        self.terms = {}
        for j, pairs in (terms or {}).items():
            pairs = tuple(pairs)
            for coef, _ in pairs:
                _finite_coef(coef)
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
        z = _finite_coef(z)  # checked here too: an empty element has no product to check
        return ModElem(self.modulus, {j: tuple((z * c, atom) for c, atom in pairs) for j, pairs in self.terms.items()})

    def eval(self, t, j: int):
        t = np.asarray(t, dtype=float)
        return _class_sum(self.terms.get(j % self.modulus, ()), t)

    def indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.terms))

    def support(self, j: int | None = None):
        """Hull of the supports of class j's atoms, or of every class's."""
        if j is not None:
            return _span(self.terms.get(j % self.modulus, ()))
        return _span(pair for pairs in self.terms.values() for pair in pairs)

    def __eq__(self, other):
        return (
            isinstance(other, ModElem)
            and self.modulus == other.modulus
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"ModElem(mod {self.modulus}, indices {self.indices()})"


class AlgElem:
    """Finite map k -> 1-periodic function of r; missing components are zero.

    ks holds the k in the order the algebra actions add their terms, and
    at(r, ks) gives {k: component k at r} for a float array r and some of
    them; eval and eval_all both go through it.
    """

    __slots__ = ("ks", "at")

    def __init__(self, ks, at):
        self.ks = tuple(ks)
        self.at = at

    def eval(self, r, k: int):
        r = np.asarray(r, dtype=float)
        return self.at(r, (k,))[k] if k in self.ks else np.zeros(r.shape, dtype=complex)

    def eval_all(self, r) -> dict[int, np.ndarray]:
        """{k: component k at r} for every k, each equal to eval(r, k)."""
        return self.at(np.asarray(r, dtype=float), self.ks)

    def keys(self) -> tuple[int, ...]:
        return tuple(sorted(self.ks))


def phi_embed(A: AlgElem, p: int) -> AlgElem:
    """Symbol-level embedding: component j moves to jp with its function dilated by p."""
    return AlgElem((k * p for k in A.ks), lambda r, ks: {k * p: v for k, v in A.at(r * p, [k // p for k in ks]).items()})


# -- contexts ----------------------------------------------------------------------


@dataclass(frozen=True)
class BimCtx:
    """Level-2n kernel constants: exact alpha, beta and gamma, checked, with their float lowerings."""

    spec: SolenoidSpec
    proj: ProjectionData
    n: int
    c: int
    d: int
    a: int
    b: int
    alpha: QuadReal
    beta: QuadReal
    gamma: QuadReal

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
        return cls(spec, proj, n, line.c, line.d, mob.a, mob.b, alpha, beta, gamma)

    @property
    def modulus(self) -> int:
        return abs(self.c)

    # the float lowerings that the sampled kernels read
    alpha_f = property(lambda self: float(self.alpha))
    beta_f = property(lambda self: float(self.beta))
    gamma_f = property(lambda self: float(self.gamma))

    def with_gamma(self, gamma) -> "BimCtx":
        """This context with gamma replaced by an exact value, or by the Fraction that a float equals."""
        return dataclasses.replace(self, gamma=QuadReal(Fraction(gamma)) if isinstance(gamma, float) else gamma)


# -- module actions -----------------------------------------------------------------


def _check_modulus(ctx: BimCtx, F: ModElem):
    if F.modulus != ctx.modulus:
        raise ValueError(f"element has modulus {F.modulus}, context needs {ctx.modulus}")


def _once(memo: dict, obj, make):
    """make(obj), built once per distinct obj (by identity): a term tuple that classes share."""
    out = memo.get(id(obj))
    if out is None:
        out = memo[id(obj)] = make(obj)
    return out


def _act_gen(ctx: BimCtx, gen: str, power: int, F: ModElem, unit, step: int, freq, mult: int) -> ModElem:
    """U^power: F(t - power*unit, [m - power*step]); V^power: exp(2 pi i power (freq t - mult*m/c)) F(t, [m]).

    unit, step, freq and mult are one side's constants, unit and freq exact.
    """
    _check_modulus(ctx, F)
    if power == 0:
        return F
    out: dict = {}
    moved: dict = {}  # classes that share a term tuple share its moved tuple; under V, those that share a phase
    for j, pairs in F.terms.items():
        if gen == "U":
            out[(j + power * step) % ctx.modulus] = _once(
                moved, pairs, lambda ps: tuple((c, atom.shift(power * unit)) for c, atom in ps)
            )
        elif gen == "V":
            phase = Fraction((-power * mult * j) % ctx.c, ctx.c)
            if (id(pairs), phase) not in moved:
                moved[id(pairs), phase] = tuple((c, atom.modulate(power * freq, phase)) for c, atom in pairs)
            out[j] = moved[id(pairs), phase]
        else:
            raise ValueError(f"unknown generator {gen!r}")
    return ModElem(ctx.modulus, out)


def act_left_gen(ctx: BimCtx, gen: str, power: int, F: ModElem) -> ModElem:
    """U: F(t - gamma, [m-1]); V: exp(2 pi i (t - am)/c) F(t, [m]); integer powers."""
    return _act_gen(ctx, gen, power, F, ctx.gamma, 1, Fraction(1, ctx.c), ctx.a)


def act_right_gen(ctx: BimCtx, gen: str, power: int, F: ModElem) -> ModElem:
    """U: F(t - 1, [m-d]); V: exp(2 pi i (t/gamma - m)/c) F(t, [m]); integer powers."""
    return _act_gen(ctx, gen, power, F, 1, ctx.d, 1 / (ctx.gamma * ctx.c), 1)


def act_alg_left(ctx: BimCtx, A: AlgElem, F: ModElem) -> ModElem:
    """(A.F)(t,[m]) = sum_n A_n((t - am)/c) F(t - n*gamma, [m-n])."""
    _check_modulus(ctx, F)
    out: dict = {}
    for j, pairs in F.terms.items():
        for n in A.ks:
            m_rep = j + n  # any integer representative of the target class works mod 1
            phase = PeriodicFn(A, n, 1 / ctx.c, -((ctx.a * m_rep) % ctx.c) / ctx.c)
            terms = out.setdefault(m_rep % ctx.modulus, [])
            terms += ((c, Product(phase, atom.shift(n * ctx.gamma))) for c, atom in pairs)
    return ModElem(ctx.modulus, out)


def act_alg_right(ctx: BimCtx, F: ModElem, A: AlgElem) -> ModElem:
    """(F.A)(t,[m]) = sum_n F(t - n, [m-dn]) A_n(((t-n)/gamma - (m-dn))/c)."""
    _check_modulus(ctx, F)
    out: dict = {}
    for j, pairs in F.terms.items():
        for n in A.ks:
            phase = PeriodicFn(A, n, 1 / (ctx.gamma_f * ctx.c), -n / (ctx.gamma_f * ctx.c) - j / ctx.c)
            terms = out.setdefault((j + ctx.d * n) % ctx.modulus, [])
            terms += ((c, Product(atom.shift(n), phase)) for c, atom in pairs)
    return ModElem(ctx.modulus, out)


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


def _band(grid: np.ndarray, support) -> tuple[np.ndarray, np.ndarray]:
    """(values, r indices) of the points of an (m rows x r points) grid inside support, in m-major order.

    support is widened by BAND_PAD of its bounds' size.
    """
    flat = grid.ravel()
    lo, hi = support
    pad = BAND_PAD * (1.0 + abs(lo) + abs(hi))
    keep = np.flatnonzero((flat >= lo - pad) & (flat <= hi + pad))
    return flat[keep], keep % grid.shape[1]


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
    Every entry keeps only the band of its column inside s1, class j1's
    support: outside it F1 is an exact zero and F2 is finite (sections are
    finite by construction), so each product there is an exact zero, and the
    dropped zeros change no sum, which starts at +0 and so never becomes -0.
    One evaluation at r, for some of the k, cuts one band per j1 and takes
    the entries of those k in one pass: each distinct term tuple of F1 and of
    F2 is evaluated once on the concatenated bands it serves, and the
    products are added into a (k x r) accumulator by one np.add.at, which
    applies repeated indices in order, so every (k, r) sums its entries in j1
    order and their points in m order, as a row-by-row loop would.
    """

    by_k: dict[int, list] = {}
    for j1, j2, k, s1 in entries:
        by_k.setdefault(k, []).append((j1, j2, s1))

    def at(r, ks) -> dict[int, np.ndarray]:
        column, width = columns(r.ravel()), r.size
        acc = np.zeros(len(ks) * width, dtype=complex)
        bands, chosen = {}, []
        for slot, k in enumerate(ks):
            for j1, j2, s1 in by_k[k]:
                if j1 not in bands:
                    grid = column(j1, s1)
                    bands[j1] = None if grid is None else _band(grid, s1)
                if bands[j1] is not None and bands[j1][0].size:
                    chosen.append((j1, j2, k, slot))
        if chosen:
            f1 = _on_grids(F1, {j1: (j1, bands[j1][0]) for j1, _, _, _ in chosen})
            f2 = _on_grids(F2, {n: (j2, shift(bands[j1][0], k)) for n, (j1, j2, k, _) in enumerate(chosen)})
            x = np.concatenate([f1[j1] for j1, _, _, _ in chosen])
            y = np.concatenate([f2[n] for n in range(len(chosen))])
            points = np.concatenate([bands[j1][1] for j1, _, _, _ in chosen])
            rows = np.repeat([slot * width for _, _, _, slot in chosen], [bands[j1][1].size for j1, _, _, _ in chosen])
            _add_at(acc, rows + points, product(x, y))
        return {k: acc[slot * width : (slot + 1) * width].reshape(r.shape) for slot, k in enumerate(ks)}

    return AlgElem(by_k, at)


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
        spread = tuple((c, atom.dilate(p)) for c, atom in pairs)  # one tuple for all p classes
        for i in range(p):
            idx = (j * p + i * stride) % target
            out[idx] = out[idx] + spread if idx in out else spread
    return ModElem(target, out)


# -- sampling and the identity suite ---------------------------------------------------


@dataclass(frozen=True)
class SamplePlan:
    """Seeded sample sizes of identity_suite: hats per identity, and r and t points per comparison.

    The r grid always holds its 64 points q/64 and the t grid its 33 evenly
    spaced points; r_points and t_points count these, so a count below 64 or
    33 adds no random draws (_r_samples(rng, 10) returns the 64 grid points).
    """

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
    terms = {}
    for j in rng.sample(range(modulus), k=min(modulus, rng.randint(1, 2))):
        coef = complex(rng.gauss(0, 1), rng.gauss(0, 1))
        terms[j] = ((coef, AffineAtom(random_hat(rng))),)
    return ModElem(modulus, terms)


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


def _classes(A: ModElem, B: ModElem) -> set[int]:
    """The classes that A or B holds terms at; A and B must share a modulus."""
    if A.modulus != B.modulus:
        raise ValueError("modulus mismatch in comparison")
    return A.terms.keys() | B.terms.keys()


def term_diff(A: ModElem, B: ModElem) -> float:
    """0.0 if every class of A and B holds the same multiset of (coef, atom) terms, else math.inf.

    Exact: atoms compare by their exact parameters, so nothing is sampled.
    Each distinct pair of an A and a B term tuple is compared once: the
    classes that level_embed spreads, or that an action moves, share theirs.
    """
    pairs = {(id(a), id(b)): (a, b) for a, b in ((A.terms.get(j, ()), B.terms.get(j, ())) for j in _classes(A, B))}
    return 0.0 if all(a == b or Counter(a) == Counter(b) for a, b in pairs.values()) else math.inf


def mod_diff(A: ModElem, B: ModElem, rng: random.Random, points: int) -> float:
    """Largest pointwise |A - B| over every class, on one sampled t grid, each class summed in term order."""
    classes = _classes(A, B)
    t = _t_samples(rng, [A.support(), B.support()], points)
    diffs = [np.subtract(_class_sum(A.terms.get(j, ()), t), _class_sum(B.terms.get(j, ()), t)) for j in classes]
    return _worst(np.asarray(diffs))


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


def _phased(F: ModElem, f) -> ModElem:
    """exp(2 pi i f) F for an exact f: every atom's phase moved by f."""
    return ModElem(F.modulus, {j: tuple((c, atom.modulate(0, f)) for c, atom in ps) for j, ps in F.terms.items()})


def identity_suite(
    spec: SolenoidSpec,
    proj: ProjectionData,
    n: int,
    plan: SamplePlan = SamplePlan(),
    corrupt_gamma: float = 0.0,
) -> dict[str, float]:
    """Deviation of each compatibility identity at this level: exact 0.0 or inf, or a sampled maximum.

    (a) iota intertwines the left generator actions (U at level n vs U^p at n+1);
    (b) same on the right;
    (c) the symbol embedding matches the left inner product of embedded elements;
    (d) same for the right inner product;
    (e) imprimitivity <F,G>.H = F.<G,H> plus both generator commutations.

    (a), (b) and the two commutations are decided exactly by term_diff (0.0
    or inf); (c), (d) and the imprimitivity sum are largest deviations on
    sampled grids.  A NaN deviation stays NaN, so the identity fails.

    corrupt_gamma shifts gamma at level n+1 only, by the Fraction the float
    equals; a nonzero shift must fail (a), demonstrating the harness can fail.
    """
    ctx = BimCtx.build(spec, proj, n)
    ctx2 = BimCtx.build(spec, proj, n + 1)
    if corrupt_gamma:
        ctx2 = ctx2.with_gamma(ctx2.gamma + Fraction(corrupt_gamma))
    rng = random.Random(plan.seed)
    p = spec.p
    errs = {key: 0.0 for key in IDENTITY_KEYS}

    for _ in range(plan.hats):
        F = random_mod_elem(rng, ctx.modulus)
        G = random_mod_elem(rng, ctx.modulus)
        H = random_mod_elem(rng, ctx.modulus)
        iF, iG = level_embed(ctx, F), level_embed(ctx, G)

        for gen in ("U", "V"):
            for key, act in (("iota_left_action", act_left_gen), ("iota_right_action", act_right_gen)):
                e = term_diff(level_embed(ctx, act(ctx, gen, 1, F)), act(ctx2, gen, p, iF))
                errs[key] = _worse(errs[key], e)

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
        vu = _phased(act_left_gen(ctx, "V", 1, act_left_gen(ctx, "U", 1, F)), ctx.beta)
        e = _worse(e, term_diff(uv, vu))
        ruv = act_right_gen(ctx, "V", 1, act_right_gen(ctx, "U", 1, F))
        rvu = _phased(act_right_gen(ctx, "U", 1, act_right_gen(ctx, "V", 1, F)), ctx.alpha)
        e = _worse(e, term_diff(ruv, rvu))
        errs["imprimitivity"] = _worse(errs["imprimitivity"], e)

    return errs
