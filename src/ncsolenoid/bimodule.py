"""Finite-stage bimodules on C_c(R x Z_c), with every compatibility identity decided on exact terms.

Module elements are finite sums of coefficient-weighted atoms over index
classes mod c.  Each atom is a hat moved by one affine Weyl-Heisenberg
element with exact parameters (AffineAtom), so its support is exact too.

An inner product is a finite multiset of exact terms.  A term pairs a term
t1 = (c1, A1) of F1's class j1 with a term t2 = (c2, A2) of F2's class j2 at
integers k and m, kept only when the two supports overlap on an open
interval, and stands for Per[g] in component k, Per[g](r) = sum_q g(r + q):

    left:   g(r) = c1 A1(cr + m) conj(c2 A2(cr + m - k gamma)),   k = j1 - j2,   m = a j1 mod c;
    right:  g(r) = conj(c1 A1((cr - m) gamma)) c2 A2((cr - m) gamma + k),   k = a (j2 - j1),   m = -j1 mod c.

The terms are grouped as {(gamma, t1, t2): Counter((k, m))}.  The algebra
actions of an inner product on a module element give triple terms keyed by
integers (act_alg_left, act_alg_right).  Every identity compares multisets
of terms, atoms by their exact parameters, so it reads exactly 0.0 or inf
and no float enters a decision.  ModElem.eval stays, to tie the terms to
the textbook sums.  The classes that level_embed spreads one class over,
or that an action moves, share one term tuple, read once.
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

from .exactnum import QuadReal, floor, frac1
from .morita import ProjectionData, checked_trace, stage
from .solenoid import SolenoidSpec, alpha_at

TWO_PI_I = 2j * math.pi
NO_SUPPORT = None
_ZERO = QuadReal(0)
# random_mod_elem samples index classes from range(modulus), whose length must fit a C ssize_t:
# p = 2 reaches it past level 31 (c = 2^62), p = 3 past level 19
MAX_MODULUS = sys.maxsize


# -- function atoms --------------------------------------------------------------


@dataclass(frozen=True)
class HatFn:
    """Piecewise-linear, compactly supported: zero at and outside the end breakpoints.

    Every breakpoint and value must be finite: a section is a compactly
    supported continuous function, so a non-finite hat is not one.  The
    support is the pair of end breakpoints as exact Fractions.
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
        # interpolation tables and exact ends, built once; not fields, so == and hash see only the two tuples
        object.__setattr__(self, "_xp", np.asarray(self.breakpoints))
        object.__setattr__(self, "_re", np.asarray([v.real for v in self.values]))
        object.__setattr__(self, "_im", np.asarray([v.imag for v in self.values]))
        object.__setattr__(self, "_ends", (Fraction(self.breakpoints[0]), Fraction(self.breakpoints[-1])))

    def eval(self, t):
        # two real interps: one complex np.interp is not bit-identical to them
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape, dtype=complex)
        out.real = np.interp(t, self._xp, self._re, left=0.0, right=0.0)
        out.imag = np.interp(t, self._xp, self._im, left=0.0, right=0.0)
        return out

    def support(self) -> tuple[Fraction, Fraction]:
        return self._ends


@dataclass(frozen=True)
class AffineAtom:
    """t -> exp(2 pi i (omega t + phi)) h((t - s) / lam): a hat moved by one affine Weyl-Heisenberg element.

    Every module action is a translation, a modulation or a dilation, and the
    three compose in closed form into this normal form.  lam is a positive
    Fraction, s and omega are QuadReal, and phi is a QuadReal reduced into
    [0, 1), so == and hash are exact equality.  The support is exact; eval
    lowers the parameters to floats, once per atom.  AffineAtom(h) evaluates
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

    @functools.cached_property
    def _support(self) -> tuple[QuadReal, QuadReal]:
        lo, hi = self.h.support()
        return self.s + lo * self.lam, self.s + hi * self.lam

    def eval(self, t):
        lam, s, omega, phi = self._floats
        t = np.asarray(t, dtype=float)
        values = self.h.eval((t - s) / lam)
        if not (omega or phi):
            return values
        return np.multiply(np.exp(TWO_PI_I * (omega * t + phi)), values)  # np.multiply: see _class_sum

    def support(self) -> tuple[QuadReal, QuadReal]:
        return self._support


# -- module elements ----------------------------------------------------------------


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
    """Exact hull of the supports of the atoms in (coef, atom) pairs; NO_SUPPORT if there are none."""
    ends = [atom.support() for _, atom in pairs]
    return (min(lo for lo, _ in ends), max(hi for _, hi in ends)) if ends else NO_SUPPORT


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
        checked = set()  # ids of the tuples checked: classes built from one tuple share it
        for j, pairs in (terms or {}).items():
            pairs = tuple(pairs)
            if id(pairs) not in checked:
                checked.add(id(pairs))
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
        """Exact hull of the supports of class j's atoms, or of every class's."""
        if j is not None:
            return _span(self.terms.get(j % self.modulus, ()))
        return _span(pair for pairs in self.terms.values() for pair in pairs)

    def __eq__(self, other):
        return isinstance(other, ModElem) and self.modulus == other.modulus and self.terms == other.terms

    def __repr__(self):
        return f"ModElem(mod {self.modulus}, indices {self.indices()})"


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

    # float lowerings: nothing here reads them; bench/workloads.py checks them against its reference
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
            if id(pairs) not in moved:
                moved[id(pairs)] = tuple((c, atom.shift(power * unit)) for c, atom in pairs)
            out[(j + power * step) % ctx.modulus] = moved[id(pairs)]
        elif gen == "V":
            phase = (-power * mult * j) % ctx.c  # the numerator of the phase over c
            if (id(pairs), phase) not in moved:
                f = Fraction(phase, ctx.c)
                moved[id(pairs), phase] = tuple((c, atom.modulate(power * freq, f)) for c, atom in pairs)
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


# -- inner products as exact terms -----------------------------------------------------


def _open_range(lo, hi) -> tuple[int, int]:
    """The least and the greatest integer strictly between the exact reals lo and hi."""
    return floor(lo) + 1, -floor(-hi) - 1


def _residues(first: int, last: int, r: int, M: int) -> range:
    """The integers = r mod M in [first, last], increasing."""
    return range(first + (r - first) % M, last + 1, M)


def _aligned_pairs(F1: ModElem, F2: ModElem, M: int, key, window, m_of) -> dict:
    """{(id(pairs1), id(pairs2)): (pairs1, pairs2, hull window, [(k, m)])} over the class pairs that align.

    A pair aligns at k = key(j2) - key(j1) mod M, and window(s1, s2) gives the
    exact open interval of k at which class hulls s1 and s2 overlap; the
    integers in it make the hull window, and m = m_of(j1).  For each j1, the
    window against the hull of F2's supports contains every pair's window,
    so only the j2 whose keys fall in the residues of its k (all of them,
    once it spans M or more k) can align; they are bisected from F2's
    classes sorted by key.  Hulls and windows are found once per term tuple
    and once per pair of term tuples: the classes level_embed spreads share
    one.
    """
    tuples2 = {id(pairs): pairs for pairs in F2.terms.values()}
    if not tuples2:
        return {}
    spans = {i: _span(pairs) for i, pairs in tuples2.items()}
    hull2 = (min(lo for lo, _ in spans.values()), max(hi for _, hi in spans.values()))
    by_key = sorted((key(j2) % M, id(pairs)) for j2, pairs in F2.terms.items())
    keys = [kk for kk, _ in by_key]
    hulls: dict = {}  # id(pairs1) -> (its span, its window against hull2)
    out: dict = {}
    for j1, pairs1 in F1.terms.items():
        id1 = id(pairs1)
        if id1 not in hulls:
            s1 = _span(pairs1)
            hulls[id1] = (s1, _open_range(*window(s1, hull2)))
        s1, (first, last) = hulls[id1]
        if last < first:
            continue
        k1, m = key(j1), m_of(j1)
        lo = (first + k1) % M  # key residues of k in [first, last]: [lo, hi) read mod M
        hi = lo + last - first + 1
        if hi - lo >= M:
            near = by_key
        elif hi <= M:
            near = by_key[bisect.bisect_left(keys, lo) : bisect.bisect_left(keys, hi)]
        else:
            near = by_key[bisect.bisect_left(keys, lo) :] + by_key[: bisect.bisect_left(keys, hi - M)]
        for kk, id2 in near:
            entry = out.get((id1, id2))
            if entry is None:
                entry = out[id1, id2] = (pairs1, tuples2[id2], _open_range(*window(s1, spans[id2])), [])
            entry[3].extend((k, m) for k in _residues(*entry[2], kk - k1, M))
    return out


def _terms(ctx: BimCtx, F1: ModElem, F2: ModElem, key, window, m_of) -> dict:
    """{(gamma, t1, t2): Counter((k, m))} over the aligned pairs, each term pair kept at the k its supports allow."""
    _check_modulus(ctx, F1)
    _check_modulus(ctx, F2)
    if not ctx.gamma > 0:
        raise ValueError(f"gamma must be positive, got {ctx.gamma}")
    out: dict = {}
    for pairs1, pairs2, hull_window, km in _aligned_pairs(F1, F2, ctx.modulus, key, window, m_of).values():
        for t1 in pairs1:
            for t2 in pairs2:
                first, last = _open_range(*window(t1[1].support(), t2[1].support()))
                kept = km if (first, last) == hull_window else [x for x in km if first <= x[0] <= last]
                if kept:
                    out.setdefault((ctx.gamma, t1, t2), Counter()).update(kept)
    return out


def inner_left(ctx: BimCtx, F1: ModElem, F2: ModElem) -> dict:
    """<F1,F2>(r,k) = sum_m F1(cr + m, [dm]) conj F2(cr + m - k*gamma, [dm-k]), as exact terms.

    [dm] = [j1] forces m = a*j1 mod c (ad = 1 mod c) and k = j1 - j2 mod c;
    the m-sum over m + cZ is Per of one term per pair of atoms.  The atoms
    overlap where k*gamma lies strictly between lo1 - hi2 and hi1 - lo2.
    """
    g, M = ctx.gamma, ctx.modulus
    window = lambda s1, s2: ((s1[0] - s2[1]) / g, (s1[1] - s2[0]) / g)
    return _terms(ctx, F1, F2, lambda j: -j, window, lambda j1: ctx.a * j1 % M)


def inner_right(ctx: BimCtx, F1: ModElem, F2: ModElem) -> dict:
    """<F1,F2>(r,k) = sum_m conj F1((cr-m)gamma, [-m]) F2((cr-m)gamma + k, [dk-m]), as exact terms.

    [-m] = [j1] forces m = -j1 mod c, and k = a(j2 - j1) mod c.  The atoms
    overlap where k lies strictly between lo2 - hi1 and hi2 - lo1.
    """
    g, M = ctx.gamma, ctx.modulus
    window = lambda s1, s2: (s2[0] - s1[1], s2[1] - s1[0])
    return _terms(ctx, F1, F2, lambda j: ctx.a * j, window, lambda j1: -j1 % M)


def embed_terms(ctx: BimCtx, groups: dict) -> dict:
    """The symbol embedding phi of a level-n inner product, as level-(n+1) terms.

    phi moves component k to kp and reads it at pr.  Splitting q = pq' + i,
    Per[g](pr) = sum_{i<p} Per[r -> g(pr + i)] (left), and likewise with -i
    (right).  With c' = cp^2 and A' = A.dilate(p), A(cpr + mu) =
    A'(c'r + p mu) and A(x + k) = A'(px + kp), so the i-th part is the
    level-(n+1) term of (c1, A1'), (c2, A2') at (kp, p(m + ci)), on both
    sides (left: mu = m + ci - k gamma as well; right: mu = m + ci under gamma).

    These are exactly the terms of <iota F1, iota F2> at level n+1.  iota
    spreads class j over j' = jp + i c p (i < p), each holding the dilated
    tuple; a' = a mod c, because d' = d mod c (h_2n+2 = h_2n mod p^2n) and
    each inverts its d.  Left: k' = j1' - j2' mod c' is a multiple of p, and
    for k' = kp with k = j1 - j2 mod c exactly one i2 fits each i1, while
    m' = a' j1' mod c' = p(a'(j1 + i1 c) mod cp) runs over p(m + ci), m = a j1
    mod c, as i1 does (a' is prime to p).  Right: m' = p(-(j1 + i1 c) mod
    cp) runs over the same p(m + ci), and k' = a'(j2' - j1') picks one i2.
    The dilated supports overlap at kp exactly where the originals do at k.
    """
    p, c = ctx.spec.p, ctx.c
    return {
        (g, (c1, A1.dilate(p)), (c2, A2.dilate(p))): Counter(
            {(k * p, p * (m + c * i)): count for (k, m), count in counts.items() for i in range(p)}
        )
        for (g, (c1, A1), (c2, A2)), counts in groups.items()
    }


# -- the algebra actions on exact terms -------------------------------------------------


def act_alg_left(ctx: BimCtx, FG: dict, H: ModElem) -> dict:
    """<F,G>_L . H as triple terms {(tF, tG, tH): Counter((class, x, n))}.

    (A.H)(t, [j + n]) = sum_n A_n((t - abar)/c) H(t - n gamma, [j]), abar =
    a(j + n) mod c (A_n is 1-periodic).  At r = (t - abar)/c, the term (n, m0,
    tF, tG) of <F,G>_L sums F(t - x) conj G(t - x - n gamma) over x = abar -
    m0 - cq, q in Z.  So each triple term is F moved by x, G by x + n gamma and
    H by n gamma, in class (j + n) mod c; x runs over the open window where
    F meets H and G meets H (F meets G where the term was kept).
    """
    _check_modulus(ctx, H)
    c, a, g = ctx.c, ctx.a, ctx.gamma
    out: dict = {}
    for (_, tF, tG), counts in FG.items():
        (loF, hiF), (loG, hiG) = tF[1].support(), tG[1].support()
        for j, pairs in H.terms.items():
            for tH in pairs:
                loH, hiH = tH[1].support()
                x_lo, x_hi = _open_range(loH - hiG, hiH - loG)
                # F moved by x meets H moved by n gamma where n gamma lies strictly between these
                n_windows = [_open_range((x - hiH + loF) / g, (x - loH + hiF) / g) for x in range(x_lo, x_hi + 1)]
                moved: Counter = Counter()
                for (n, m0), count in counts.items():
                    cls = (j + n) % c
                    for x in _residues(x_lo, x_hi, a * cls - m0, c):
                        first, last = n_windows[x - x_lo]
                        if first <= n <= last:
                            moved[cls, x, n] += count
                if moved:
                    out.setdefault((tF, tG, tH), Counter()).update(moved)
    return out


def act_alg_right(ctx: BimCtx, F: ModElem, GH: dict) -> dict:
    """F . <G,H>_R as triple terms {(tF, tG, tH): Counter((class, n, y))}.

    (F.A)(t, [j + dn]) = sum_n F(t - n, [j]) A_n(((t - n)/gamma - j)/c).  There
    the term (n, m0, tG, tH) of <G,H>_R sums conj G(t - n - y gamma) H(t - y
    gamma) over y = j + m0 + cq, q in Z.  So each triple term is F moved by n,
    G by n + y gamma and H by y gamma, in class (j + dn) mod c; y runs over
    the open window where F meets G and F meets H.

    This is the multiset of act_alg_left(<F,G>_L, H) for genuine inputs: both
    sum F(t - u) conj G(t - u - v gamma) H(t - v gamma) over the integer pairs
    (u, v) with u = a(jH - jG) and v = jF - jG mod c at which every two of the
    three supports overlap on an open interval (left: (u, v) = (x, n), m0 =
    a jF; right: (u, v) = (n, y), m0 = -jG).  Their classes agree: jH + v =
    jF + d u mod c, because a d = 1 mod c.
    """
    _check_modulus(ctx, F)
    c, d, inv_g = ctx.c, ctx.d, 1 / ctx.gamma
    out: dict = {}
    for (_, tG, tH), counts in GH.items():
        (loG, hiG), (loH, hiH) = tG[1].support(), tH[1].support()
        for j, pairs in F.terms.items():
            for tF in pairs:
                loF, hiF = tF[1].support()
                y_lo, y_hi = _open_range((loF - hiG) * inv_g, (hiF - loG) * inv_g)
                moved: Counter = Counter()
                for (n, m0), count in counts.items():
                    first, last = _open_range((loF - hiH + n) * inv_g, (hiF - loH + n) * inv_g)
                    cls = (j + d * n) % c
                    for y in _residues(max(first, y_lo), min(last, y_hi), j + m0, c):
                        moved[cls, n, y] += count
                if moved:
                    out.setdefault((tF, tG, tH), Counter()).update(moved)
    return out


# -- connecting maps -----------------------------------------------------------------


def level_embed(ctx: BimCtx, F: ModElem) -> ModElem:
    """Embed a modulus-c0*p^(2n) element into modulus c0*p^(2n+2).

    f at index j maps to f(t/p) spread over the p indices
    jp + i*c0*p^(2n+1), i = 0..p-1.

    This unscaled map preserves both inner products on the nose: for a fixed
    algebra offset the p index classes contribute complementary residue
    classes of the lattice sum and jointly reassemble exactly one copy of the
    coarser-level value (embed_terms proves it term by term).  A 1/sqrt(p)
    prefactor (tempting if one reads the p-fold spread as needing unitary
    normalization) therefore undershoots inner-product compatibility by
    exactly a factor of p; the tests pin this down.
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


# -- the identity suite ---------------------------------------------------------------


@dataclass(frozen=True)
class SamplePlan:
    """Seeded sample of identity_suite: its seed and the number of hats, each one draw of F, G and H.

    r_points and t_points are unread: every identity compares exact terms,
    so nothing is evaluated at sample points.  They stay because
    bench/workloads.py builds its plans with them.
    """

    seed: int = 0
    hats: int = 20
    r_points: int = 200
    t_points: int = 200

    def __post_init__(self):
        if self.hats < 1:
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


def term_diff(A: ModElem, B: ModElem) -> float:
    """0.0 if every class of A and B holds the same multiset of (coef, atom) terms, else math.inf.

    Exact: atoms compare by their exact parameters, so nothing is sampled.
    Each distinct pair of an A and a B term tuple is compared once: the
    classes that level_embed spreads, or that an action moves, share theirs.
    """
    if A.modulus != B.modulus:
        raise ValueError("modulus mismatch in comparison")
    classes = A.terms.keys() | B.terms.keys()
    pairs = {(id(a), id(b)): (a, b) for a, b in ((A.terms.get(j, ()), B.terms.get(j, ())) for j in classes)}
    return 0.0 if all(a == b or Counter(a) == Counter(b) for a, b in pairs.values()) else math.inf


def group_diff(A: dict, B: dict) -> float:
    """0.0 if two groupings of terms, {group: Counter(key)}, are the same multiset, else math.inf."""
    return 0.0 if A == B else math.inf


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
    """Deviation of each compatibility identity at this level, over plan.hats draws: exactly 0.0 or inf.

    (a) iota intertwines the left generator actions (U at level n vs U^p at n+1);
    (b) same on the right;
    (c) phi of the left inner product is the left inner product of the embedded elements;
    (d) same for the right inner product;
    (e) imprimitivity <F,G>.H = F.<G,H> plus both generator commutations.

    (a), (b) and the commutations compare the terms of module elements
    (term_diff); (c) and (d) compare inner-product terms (embed_terms), and
    the imprimitivity sum compares triple terms (act_alg_right).

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
                errs[key] = max(errs[key], e)

        FG = inner_left(ctx, F, G)
        e = group_diff(embed_terms(ctx, FG), inner_left(ctx2, iF, iG))
        errs["phi_left_inner"] = max(errs["phi_left_inner"], e)
        e = group_diff(embed_terms(ctx, inner_right(ctx, F, G)), inner_right(ctx2, iF, iG))
        errs["psi_right_inner"] = max(errs["psi_right_inner"], e)

        e = group_diff(act_alg_left(ctx, FG, H), act_alg_right(ctx, F, inner_right(ctx, G, H)))
        uv = act_left_gen(ctx, "U", 1, act_left_gen(ctx, "V", 1, F))
        vu = _phased(act_left_gen(ctx, "V", 1, act_left_gen(ctx, "U", 1, F)), ctx.beta)
        ruv = act_right_gen(ctx, "V", 1, act_right_gen(ctx, "U", 1, F))
        rvu = _phased(act_right_gen(ctx, "U", 1, act_right_gen(ctx, "V", 1, F)), ctx.alpha)
        errs["imprimitivity"] = max(errs["imprimitivity"], e, term_diff(uv, vu), term_diff(ruv, rvu))

    return errs
