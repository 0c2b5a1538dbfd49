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

The terms are grouped as {(gamma, t1, t2): {(k, m): count}}, a plain dict
of positive counts, so two groupings are the same multiset exactly when
they are equal dicts.  The algebra actions of an inner product on a module
element give triple terms keyed by integers (act_alg_left, act_alg_right),
counted the same way.  Every identity compares multisets of terms, atoms by
their exact parameters, so it reads exactly 0.0 or inf and no float enters
a decision; nothing here evaluates an atom.  The
classes that level_embed spreads one class over, or that an action moves,
share one term tuple, read once.
"""

from __future__ import annotations

import bisect
import cmath
import dataclasses
import functools
import math
import random
import sys
from dataclasses import dataclass

from .exactnum import QuadReal, _floor, _new, _parts, _quad, _radicand, frac1
from .morita import ProjectionData, checked_trace, stage
from .solenoid import SolenoidSpec, alpha_at

np = None  # bench/tracer.py rebinds this name to time numpy; ROADMAP item 6 deletes it with bimodule.numpy_s
NO_SUPPORT = None
_ZERO = QuadReal(0)
_ONE = QuadReal(1)
# random_mod_elem samples index classes from range(modulus), whose length must fit a C ssize_t:
# p = 2 reaches it past level 31 (c = 2^62), p = 3 past level 19
MAX_MODULUS = sys.maxsize


def _fused(a: QuadReal, b, c, sign: int = 1, mod1: bool = False) -> QuadReal:
    """a + sign*b*c for exact reals b and c, reduced into [0, 1) when mod1.

    One product-sum over the operands' integers (RadicandMismatchError for two
    surds), one gcd, and to reduce, one _floor: the atoms' moves and supports
    build no intermediate QuadReal.
    """
    A1, B1, M1, D = _parts(b, a.D)
    A2, B2, M2, D = _parts(c, D)
    M = M1 * M2
    A = a.A * M + sign * a.M * (A1 * A2 + B1 * B2 * D)
    B = a.B * M + sign * a.M * (A1 * B2 + B1 * A2)
    M *= a.M
    if mod1:
        A -= _floor(A, B, M, D) * M
    g = math.gcd(A, B, M)
    return _new(A // g, B // g, M // g, D)


def _scaled(k: int, u: QuadReal, v: QuadReal, g) -> tuple[int, int, int, int]:
    """(k + u - v)*g as integers (A, B, M, D), M > 0, with no gcd; g is the int 1 or a QuadReal."""
    D = u.D if u.D == v.D else _radicand(u.D, v.D)
    Mu, Mv = u.M, v.M
    A, B, M = (k * Mu + u.A) * Mv - v.A * Mu, u.B * Mv - v.B * Mu, Mu * Mv
    if type(g) is int:
        return A, B, M, D
    if g.D != D:
        D = _radicand(D, g.D)
    return A * g.A + B * g.B * D, A * g.B + B * g.A, M * g.M, D


def _window(k: int, u1: QuadReal, v1: QuadReal, u2: QuadReal, v2: QuadReal, g=1) -> tuple[int, int]:
    """The least and the greatest integer strictly between (k + u1 - v1)*g and (k + u2 - v2)*g.

    g is the int 1 or a positive QuadReal.  Each bound is read off the
    operands' integers, with no gcd and no QuadReal built, and floored by
    one isqrt; the greatest integer below x is -floor(-x) - 1, and -(k + u2 -
    v2) = -k + v2 - u2.  Two different surds raise RadicandMismatchError.
    """
    return _floor(*_scaled(k, u1, v1, g)) + 1, -_floor(*_scaled(-k, v2, u2, g)) - 1


# -- function atoms --------------------------------------------------------------


@dataclass(frozen=True)
class HatFn:
    """Piecewise-linear, compactly supported: zero at and outside the end breakpoints.

    Every breakpoint and value must be finite: a section is a compactly
    supported continuous function, so a non-finite hat is not one.  The
    support is the pair of end breakpoints as the QuadReals that the floats
    equal, which the atoms' supports are built from.
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
        # the exact ends and the hash, built once; not fields, so == and hash see only the two tuples
        object.__setattr__(self, "_ends", (QuadReal(self.breakpoints[0]), QuadReal(self.breakpoints[-1])))
        object.__setattr__(self, "_hash", hash((self.breakpoints, self.values)))

    def __hash__(self):
        return self._hash

    def support(self) -> tuple[QuadReal, QuadReal]:
        return self._ends


@dataclass(frozen=True)
class AffineAtom:
    """t -> exp(2 pi i (omega t + phi)) h((t - s) / lam): a hat moved by one affine Weyl-Heisenberg element.

    Every module action is a translation, a modulation or a dilation, and the
    three compose in closed form into this normal form.  lam is a positive
    QuadReal (an int or a Fraction is converted), s and omega are QuadReal,
    and phi is a QuadReal reduced into [0, 1), so == and hash are exact
    equality, and the support is exact.  The five parameters are the atom:
    the hash and the support are computed from them once, on first use, and
    kept in the instance dict.  A move leaves a zero omega alone: shift keeps
    phi, dilate keeps omega with no QuadReal division, and modulate by w = 0
    keeps omega, each as the parent's own object; modulate by f = 0 keeps phi
    so too.  Each changed parameter is one _fused product-sum: one gcd, and
    one isqrt where phi is reduced.
    """

    h: HatFn
    lam: QuadReal = _ONE
    s: QuadReal = _ZERO
    omega: QuadReal = _ZERO
    phi: QuadReal = _ZERO

    def __post_init__(self):
        lam = self.lam if isinstance(self.lam, QuadReal) else QuadReal(self.lam)
        if lam <= 0:
            raise ValueError("dilation factor must be positive")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "phi", frac1(self.phi))

    @staticmethod
    def _of(h, lam: QuadReal, s, omega, phi) -> "AffineAtom":
        """The atom of parameters already valid, lam a positive QuadReal and phi in [0, 1): not checked again."""
        atom = object.__new__(AffineAtom)
        atom.__dict__.update(h=h, lam=lam, s=s, omega=omega, phi=phi)
        return atom

    def shift(self, u) -> "AffineAtom":
        """t -> self(t - u): s moves by u, and phi by -omega*u unless omega is 0."""
        phi = _fused(self.phi, self.omega, u, -1, mod1=True) if self.omega else self.phi
        return AffineAtom._of(self.h, self.lam, self.s + u, self.omega, phi)

    def dilate(self, q) -> "AffineAtom":
        """t -> self(t / q), for a positive rational q: lam and s scale by q, and omega by 1/q unless it is 0.

        The dilation by an int q is kept on the atom, so the maps that dilate
        one atom by p (level_embed, embed_terms) share one dilated atom.
        """
        if type(q) is int:
            memo = self.__dict__.get("_dilated")
            if memo is not None and memo[0] == q:
                return memo[1]
        if q <= 0:
            raise ValueError("dilation factor must be positive")
        omega = self.omega / q if self.omega else self.omega
        out = AffineAtom._of(self.h, self.lam * q, self.s * q, omega, self.phi)
        if type(q) is int:
            self.__dict__["_dilated"] = (q, out)
        return out

    def modulate(self, w, f) -> "AffineAtom":
        """t -> exp(2 pi i (w t + f)) self(t): omega moves by w unless w is 0, and phi by f mod 1 unless f is 0."""
        omega = self.omega + w if w else self.omega
        phi = _fused(self.phi, f, 1, mod1=True) if f else self.phi
        return AffineAtom._of(self.h, self.lam, self.s, omega, phi)

    def __hash__(self):
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = self.__dict__["_hash"] = hash((self.h, self.lam, self.s, self.omega, self.phi))
        return cached

    def support(self) -> tuple[QuadReal, QuadReal]:
        cached = self.__dict__.get("_support")
        if cached is None:
            lo, hi = self.h.support()
            cached = self.__dict__["_support"] = (_fused(self.s, lo, self.lam), _fused(self.s, hi, self.lam))
        return cached


# -- module elements ----------------------------------------------------------------


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
        for j, pairs in (terms or {}).items():
            pairs = tuple(pairs)
            for coef, _ in pairs:
                _finite_coef(coef)
            if pairs:
                key = j % modulus
                self.terms[key] = self.terms[key] + pairs if key in self.terms else pairs

    @classmethod
    def _of(cls, modulus: int, terms: dict) -> "ModElem":
        """An output of this module's own maps: its classes reduced mod modulus, each a nonempty checked tuple."""
        out = object.__new__(cls)
        out.modulus, out.terms = modulus, terms
        return out

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
    """Level-2n kernel constants: exact alpha, beta and gamma, checked, with their float lowerings.

    c = c0 p^(2n) is also the modulus of the context's module elements (build refuses c0 < 1).  inv_gamma,
    left_freq and right_freq are computed once per context, on first use (with_gamma's too).
    """

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

    @functools.cached_property
    def inv_gamma(self) -> QuadReal:
        return 1 / self.gamma

    @functools.cached_property
    def left_freq(self) -> QuadReal:  # the left V is exp(2 pi i (t - am)/c) ...
        return _quad(1, 0, self.c, 0)

    @functools.cached_property
    def right_freq(self) -> QuadReal:  # ... and the right V exp(2 pi i (t/gamma - m)/c)
        return self.inv_gamma / self.c

    # float lowerings: nothing here reads them; bench/workloads.py checks them against its reference
    alpha_f = property(lambda self: float(self.alpha))
    beta_f = property(lambda self: float(self.beta))
    gamma_f = property(lambda self: float(self.gamma))

    def with_gamma(self, gamma) -> "BimCtx":
        """This context with gamma replaced by an exact value, or by the QuadReal that a float equals."""
        return dataclasses.replace(self, gamma=QuadReal(gamma) if isinstance(gamma, float) else gamma)


# -- module actions -----------------------------------------------------------------


def _check_modulus(ctx: BimCtx, F: ModElem):
    if F.modulus != ctx.c:
        raise ValueError(f"element has modulus {F.modulus}, context needs {ctx.c}")


def _act_gen(ctx: BimCtx, gen: str, power: int, F: ModElem, unit, step: int, freq, mult: int) -> ModElem:
    """U^power: F(t - power*unit, [m - power*step]); V^power: exp(2 pi i power (freq t - mult*m/c)) F(t, [m]).

    unit, step, freq and mult are one side's constants, unit and freq exact.
    """
    _check_modulus(ctx, F)
    if power == 0:
        return F
    M = ctx.c
    out: dict = {}
    moved: dict = {}  # classes that share a term tuple share its moved tuple; under V, those that share a phase
    if gen == "U":
        u = power * unit
        for j, pairs in F.terms.items():
            if id(pairs) not in moved:
                moved[id(pairs)] = tuple((c, atom.shift(u)) for c, atom in pairs)
            out[(j + power * step) % M] = moved[id(pairs)]
    elif gen == "V":
        w = power * freq
        for j, pairs in F.terms.items():
            phase = (-power * mult * j) % M  # the numerator of the phase over c
            if (id(pairs), phase) not in moved:
                f = _quad(phase, 0, M, 0)
                moved[id(pairs), phase] = tuple((c, atom.modulate(w, f)) for c, atom in pairs)
            out[j] = moved[id(pairs), phase]
    else:
        raise ValueError(f"unknown generator {gen!r}")
    return ModElem._of(M, out)


def act_left_gen(ctx: BimCtx, gen: str, power: int, F: ModElem) -> ModElem:
    """U: F(t - gamma, [m-1]); V: exp(2 pi i (t - am)/c) F(t, [m]); integer powers."""
    return _act_gen(ctx, gen, power, F, ctx.gamma, 1, ctx.left_freq, ctx.a)


def act_right_gen(ctx: BimCtx, gen: str, power: int, F: ModElem) -> ModElem:
    """U: F(t - 1, [m-d]); V: exp(2 pi i (t/gamma - m)/c) F(t, [m]); integer powers."""
    return _act_gen(ctx, gen, power, F, 1, ctx.d, ctx.right_freq, 1)


# -- inner products as exact terms -----------------------------------------------------


def _overlap(s1, s2, g) -> tuple[int, int]:
    """The integers k at which terms on supports s1 and s2 are kept: k/g strictly between lo1 - hi2 and hi1 - lo2.

    g = 1/gamma on the left, where k gamma lies there, and g = -1 on the
    right, where k lies strictly between lo2 - hi1 and hi2 - lo1.
    """
    if type(g) is int:
        return _window(0, s2[0], s1[1], s2[1], s1[0])
    return _window(0, s1[0], s2[1], s1[1], s2[0], g)


def _residues(first: int, last: int, r: int, M: int) -> range:
    """The integers = r mod M in [first, last], increasing."""
    return range(first + (r - first) % M, last + 1, M)


def _tally(keys) -> dict:
    """The multiset of keys as a plain dict of positive counts, so two are the same multiset exactly when equal."""
    counts: dict = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    return counts


def _merge(out: dict, key, counts: dict) -> None:
    """out[key] += counts, both multisets as plain dicts of positive counts."""
    have = out.get(key)
    if have is None:
        out[key] = counts
    else:
        for x, count in counts.items():
            have[x] = have.get(x, 0) + count


def _terms(ctx: BimCtx, F1: ModElem, F2: ModElem, u: int, v: int, g) -> dict:
    """{(gamma, t1, t2): {(k, m): count}}: every term pair of two aligned classes, at each k its supports allow.

    Classes j1 of F1 and j2 of F2 align at k = u*(j2 - j1) mod c, with m =
    v*j1 mod c.  The classes are grouped by the term tuple they share
    (level_embed spreads one over p classes), and each term pair t1, t2 of a
    pair of tuples has its own window [first, last] of k, _overlap of the two
    supports, found once.  The keys u*j2 of k in that window are [first +
    u*j1, last + u*j1] read mod c: for each j1 of t1's tuple they are
    bisected from the sorted keys of t2's tuple's classes (every key, once
    the window holds c or more k), and _residues reads each k.  So the work
    is the windows, one bisect per class of each term pair that overlaps,
    and the terms kept.
    """
    _check_modulus(ctx, F1)
    _check_modulus(ctx, F2)
    gamma = ctx.gamma
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    M = ctx.c
    rows: dict = {}  # id(pairs1) -> (pairs1, its classes j1)
    for j1, pairs in F1.terms.items():
        rows.setdefault(id(pairs), (pairs, []))[1].append(j1)
    keys: dict = {}  # id(pairs2) -> (pairs2, the keys u*j2 mod c of its classes), sorted below
    for j2, pairs in F2.terms.items():
        keys.setdefault(id(pairs), (pairs, []))[1].append(u * j2 % M)
    for _, ks in keys.values():
        ks.sort()
    out: dict = {}
    for pairs1, js in rows.values():
        for pairs2, ks in keys.values():
            for t1 in pairs1:
                s1 = t1[1].support()
                for t2 in pairs2:
                    first, last = _overlap(s1, t2[1].support(), g)
                    width = last - first + 1
                    if width <= 0:
                        continue
                    counts: dict = {}
                    for j1 in js:
                        k1, m = u * j1, v * j1 % M
                        lo = (first + k1) % M  # the keys of k in [first, last]: [lo, hi) read mod M
                        hi = lo + width
                        if width >= M:
                            near = ks
                        elif hi <= M:
                            near = ks[bisect.bisect_left(ks, lo) : bisect.bisect_left(ks, hi)]
                        else:
                            near = ks[bisect.bisect_left(ks, lo) :] + ks[: bisect.bisect_left(ks, hi - M)]
                        for kk in near:
                            for k in _residues(first, last, kk - k1, M):
                                km = k, m
                                counts[km] = counts.get(km, 0) + 1
                    if counts:
                        _merge(out, (gamma, t1, t2), counts)
    return out


def inner_left(ctx: BimCtx, F1: ModElem, F2: ModElem) -> dict:
    """<F1,F2>(r,k) = sum_m F1(cr + m, [dm]) conj F2(cr + m - k*gamma, [dm-k]), as exact terms.

    [dm] = [j1] forces m = a*j1 mod c (ad = 1 mod c) and k = j1 - j2 mod c;
    the m-sum over m + cZ is Per of one term per pair of atoms.  The atoms
    overlap where k*gamma lies strictly between lo1 - hi2 and hi1 - lo2.
    """
    return _terms(ctx, F1, F2, -1, ctx.a, ctx.inv_gamma)


def inner_right(ctx: BimCtx, F1: ModElem, F2: ModElem) -> dict:
    """<F1,F2>(r,k) = sum_m conj F1((cr-m)gamma, [-m]) F2((cr-m)gamma + k, [dk-m]), as exact terms.

    [-m] = [j1] forces m = -j1 mod c, and k = a(j2 - j1) mod c.  The atoms
    overlap where k lies strictly between lo2 - hi1 and hi2 - lo1.
    """
    return _terms(ctx, F1, F2, ctx.a, -1, -1)


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
        (g, (c1, A1.dilate(p)), (c2, A2.dilate(p))): {
            (k * p, p * (m + c * i)): count for (k, m), count in counts.items() for i in range(p)
        }
        for (g, (c1, A1), (c2, A2)), counts in groups.items()
    }


# -- the algebra actions on exact terms -------------------------------------------------


def act_alg_left(ctx: BimCtx, FG: dict, H: ModElem) -> dict:
    """<F,G>_L . H as triple terms {(tF, tG, tH): {(class, x, n): count}}.

    (A.H)(t, [j + n]) = sum_n A_n((t - abar)/c) H(t - n gamma, [j]), abar =
    a(j + n) mod c (A_n is 1-periodic).  At r = (t - abar)/c, the term (n, m0,
    tF, tG) of <F,G>_L sums F(t - x) conj G(t - x - n gamma) over x = abar -
    m0 - cq, q in Z.  So each triple term is F moved by x, G by x + n gamma and
    H by n gamma, in class (j + n) mod c; x runs over the open window where
    F meets H and G meets H (F meets G where the term was kept).
    """
    _check_modulus(ctx, H)
    c, a, inv_g = ctx.c, ctx.a, ctx.inv_gamma
    out: dict = {}
    for (_, tF, tG), counts in FG.items():
        (loF, hiF), (loG, hiG) = tF[1].support(), tG[1].support()
        for j, pairs in H.terms.items():
            for tH in pairs:
                loH, hiH = tH[1].support()
                x_lo, x_hi = _window(0, loH, hiG, hiH, loG)
                # F moved by x meets H moved by n gamma where n gamma lies strictly between x + loF - hiH and
                # x + hiF - loH: found for the x that a residue reads, once each
                n_windows: dict = {}
                moved: dict = {}
                for (n, m0), count in counts.items():
                    cls = (j + n) % c
                    for x in _residues(x_lo, x_hi, a * cls - m0, c):
                        window = n_windows.get(x)
                        if window is None:
                            window = n_windows[x] = _window(x, loF, hiH, hiF, loH, inv_g)
                        first, last = window
                        if first <= n <= last:
                            moved[cls, x, n] = moved.get((cls, x, n), 0) + count
                if moved:
                    _merge(out, (tF, tG, tH), moved)
    return out


def act_alg_right(ctx: BimCtx, F: ModElem, GH: dict) -> dict:
    """F . <G,H>_R as triple terms {(tF, tG, tH): {(class, n, y): count}}.

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
    c, d, inv_g = ctx.c, ctx.d, ctx.inv_gamma
    out: dict = {}
    for (_, tG, tH), counts in GH.items():
        (loG, hiG), (loH, hiH) = tG[1].support(), tH[1].support()
        for j, pairs in F.terms.items():
            for tF in pairs:
                loF, hiF = tF[1].support()
                y_lo, y_hi = _window(0, loF, hiG, hiF, loG, inv_g)
                moved: dict = {}
                for (n, m0), count in counts.items():
                    first, last = _window(n, loF, hiH, hiF, loH, inv_g)
                    cls = (j + d * n) % c
                    for y in _residues(max(first, y_lo), min(last, y_hi), j + m0, c):
                        moved[cls, n, y] = moved.get((cls, n, y), 0) + count
                if moved:
                    _merge(out, (tF, tG, tH), moved)
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
    return ModElem._of(target, out)


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
        # the identity's parameters (lam 1, s = omega = phi = 0) and a finite coefficient in a class below
        # modulus: already valid, so neither the atom nor the element is checked again
        terms[j] = ((coef, AffineAtom._of(random_hat(rng), _ONE, _ZERO, _ZERO, _ZERO)),)
    return ModElem._of(modulus, terms)


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
    return 0.0 if all(a == b or _tally(a) == _tally(b) for a, b in pairs.values()) else math.inf


def group_diff(A: dict, B: dict) -> float:
    """0.0 if two groupings of terms, {group: {key: count}}, are the same multiset, else math.inf."""
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
    return ModElem._of(F.modulus, {j: tuple((c, atom.modulate(0, f)) for c, atom in ps) for j, ps in F.terms.items()})


def _batches(elements) -> list[ModElem]:
    """The elements summed, in order, into batches in which no two hold a term of one (coef, hat) label.

    An element that holds a label of its batch's starts a new batch; labels
    may repeat within one element.
    """
    batches: list = []
    seen: set = set()
    for F in elements:
        labels = {(coef, atom.h) for pairs in F.terms.values() for coef, atom in pairs}
        if batches and seen.isdisjoint(labels):
            batches[-1] = batches[-1].add(F)
            seen |= labels
        else:
            batches.append(F)
            seen = labels
    return batches


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

    Every draw of (F, G, H) is made first, in order.  The six linear checks,
    (a) and (b) for U and V and the two commutations, are then decided once
    per batch (_batches) on the sum of its draws' F; the bilinear ones, (c),
    (d) and the triple-term sum, once per draw.  This is exact:

    - Each linear check compares two composites of act_left_gen,
      act_right_gen, level_embed and _phased.  Each of these maps is
      term-wise: it sends the term (coef, atom) of class j to terms of
      classes fixed by j, with atoms fixed by j and the atom, so the image
      of a sum is the sum of the images, class by class.  Each output term
      keeps the coef and the hat of its input term: no move changes h.
    - So give each term its label (coef, hat).  In a batch no label occurs
      in two draws, and every term of a composite of one draw's F carries a
      label of that draw.  Restricted to one label, each class's multiset of
      the sum's composite is the multiset of the one draw that owns the
      label.  term_diff of the sums thus reads 0.0 exactly when, for every
      draw, it reads 0.0 on that draw's F.
    - The report is a max over the draws of 0.0 or inf, so it is the same.
      Random float hats do not repeat a label across draws in practice;
      _batches splits a batch where one does, so the proof assumes nothing.

    corrupt_gamma shifts gamma at level n+1 only, by the QuadReal the float
    equals; a nonzero shift must fail (a), demonstrating the harness can fail.
    """
    ctx = BimCtx.build(spec, proj, n)
    ctx2 = BimCtx.build(spec, proj, n + 1)
    if corrupt_gamma:
        ctx2 = ctx2.with_gamma(ctx2.gamma + QuadReal(corrupt_gamma))
    rng = random.Random(plan.seed)
    p = spec.p
    errs = {key: 0.0 for key in IDENTITY_KEYS}
    draws = [tuple(random_mod_elem(rng, ctx.c) for _ in range(3)) for _ in range(plan.hats)]  # (F, G, H)

    for S in _batches([F for F, _, _ in draws]):
        iS = level_embed(ctx, S)
        # the commutations: U V = e(beta) V U on the left, V U = e(alpha) U V on the right
        for key, act, first, second, phase in (
            ("iota_left_action", act_left_gen, "U", "V", ctx.beta),
            ("iota_right_action", act_right_gen, "V", "U", ctx.alpha),
        ):
            moved = {gen: act(ctx, gen, 1, S) for gen in ("U", "V")}
            for gen in ("U", "V"):
                errs[key] = max(errs[key], term_diff(level_embed(ctx, moved[gen]), act(ctx2, gen, p, iS)))
            e = term_diff(act(ctx, first, 1, moved[second]), _phased(act(ctx, second, 1, moved[first]), phase))
            errs["imprimitivity"] = max(errs["imprimitivity"], e)
            del moved  # one side's moved elements, and the dilations they keep, at a time

    for F, G, H in draws:
        iF, iG = level_embed(ctx, F), level_embed(ctx, G)
        FG = inner_left(ctx, F, G)
        e = group_diff(embed_terms(ctx, FG), inner_left(ctx2, iF, iG))
        errs["phi_left_inner"] = max(errs["phi_left_inner"], e)
        e = group_diff(embed_terms(ctx, inner_right(ctx, F, G)), inner_right(ctx2, iF, iG))
        errs["psi_right_inner"] = max(errs["psi_right_inner"], e)
        e = group_diff(act_alg_left(ctx, FG, H), act_alg_right(ctx, F, inner_right(ctx, G, H)))
        errs["imprimitivity"] = max(errs["imprimitivity"], e)

    return errs
