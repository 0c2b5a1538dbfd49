"""Multipliers on p-power fraction lattices and the Heisenberg pairing.

Phases are exact arguments mod 1 (PhaseArg: an unreduced QuadReal whose class
in Q(theta)/Z is the phase, reduced into [0,1) only when shown); no complex
floating point enters any check.  The ambient group for the pairing
is M = Q_p x R, points carried as (q, r) with q p-adic and r exact real.
Both embeddings refuse a zero x through PAdic.require_nonzero, and a
pairing that reads a digit past a window's horizon raises the one
PrecisionError of PAdic._below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .exactnum import PFrac, QuadReal, _new, _parts, frac1
from .padic import PAdic
from .solenoid import SolenoidSpec, alpha_at


@dataclass(frozen=True)
class GammaElem:
    """Element of Z[1/p]^2, both coordinates PFracs over one base p."""

    first: PFrac
    second: PFrac

    def __post_init__(self):
        if self.first.p != self.second.p:
            raise ValueError("coordinates over different primes")

    @property
    def p(self) -> int:
        return self.first.p

    @classmethod
    def of(cls, p: int, a, b) -> "GammaElem":
        """(a, b) over p: each a PFrac of base p or a rational that is one, else ValueError."""
        a, b = (z if isinstance(z, PFrac) else PFrac.from_fraction(p, z) for z in (a, b))
        if a.p != p or b.p != p:
            raise ValueError(f"coordinates over bases {a.p} and {b.p}, not {p}")
        return cls(a, b)

    @classmethod
    def identity(cls, p: int) -> "GammaElem":
        return cls(PFrac(p, 0), PFrac(p, 0))

    def __add__(self, other: "GammaElem") -> "GammaElem":
        return GammaElem(self.first + other.first, self.second + other.second)

    def __neg__(self) -> "GammaElem":
        return GammaElem(-self.first, -self.second)


@dataclass(frozen=True)
class MPoint:
    """Point of M = Q_p x R: a p-adic coordinate and an exact real coordinate."""

    q: PAdic
    r: QuadReal


LatticePoint = tuple[MPoint, MPoint]


class PhaseArg:
    """Exact phase argument mod 1: the class of t in Q(theta)/Z, standing for e^(2*pi*i*t).

    t is stored unreduced, and +, - and negation act on it directly.  A class
    is zero exactly when t is an integer, which QuadReal.as_int reads off the
    normal form without a floor.  Two phases are equal when their difference
    is zero.  The reduced representative in [0, 1) is built only by value,
    str and hash.
    """

    __slots__ = ("t",)

    def __init__(self, t: QuadReal):
        self.t = t

    @classmethod
    def of(cls, x) -> "PhaseArg":
        t = _parts(x)
        if t is None:
            raise TypeError(f"cannot take {type(x).__name__} mod 1")
        return cls(_new(*t))

    @property
    def value(self) -> QuadReal:
        """The representative in [0, 1)."""
        return frac1(self.t)

    @property
    def is_zero(self) -> bool:
        return self.t.as_int() is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhaseArg):
            return NotImplemented
        a, b = self.t, other.t
        if a.B and b.B and a.D != b.D:
            return False  # 1, sqrt(D1) and sqrt(D2) are independent over Q: the difference is irrational
        return (self - other).is_zero

    def __hash__(self):
        return hash(self.value)

    def __add__(self, other: "PhaseArg") -> "PhaseArg":
        return PhaseArg(self.t + other.t)

    def __sub__(self, other: "PhaseArg") -> "PhaseArg":
        return PhaseArg(self.t - other.t)

    def __neg__(self) -> "PhaseArg":
        return PhaseArg(-self.t)

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"PhaseArg({self})"


def psi_alpha(spec: SolenoidSpec, g: GammaElem, h: GammaElem) -> PhaseArg:
    """Multiplier value: alpha_{k1+k4} * j1 * j4 mod 1, exponents read off reduced forms."""
    if g.p != spec.p or h.p != spec.p:
        raise ValueError("lattice points and spec use different primes")
    k = g.first.k + h.second.k
    return PhaseArg.of(alpha_at(spec, k) * (g.first.j * h.second.j))


def psi_from_window(window: tuple[tuple[int, QuadReal], ...], g: GammaElem, h: GammaElem) -> PhaseArg:
    """Same multiplier formula, with alpha_k looked up in a window of (n, alpha_n) pairs: KeyError if it holds no k."""
    k = g.first.k + h.second.k
    return PhaseArg.of(dict(window)[k] * (g.first.j * h.second.j))


Sigma = Callable[[GammaElem, GammaElem], PhaseArg]


def cocycle_defect(sigma: Sigma, r: GammaElem, s: GammaElem, t: GammaElem) -> PhaseArg:
    """Argument of sigma(r,s) sigma(r+s,t) / (sigma(r,s+t) sigma(s,t)); zero iff cocycle holds."""
    return (sigma(r, s) + sigma(r + s, t)) - (sigma(r, s + t) + sigma(s, t))


def eta(P1: LatticePoint, P2: LatticePoint) -> PhaseArg:
    """Heisenberg pairing argument: r1*r4 + frac_part(q1*q4) mod 1.

    A p-adic coordinate known to a finite precision makes the product a
    window known below min(ord1 + precision2, ord2 + precision1); one too
    short to pin down its negative-index digits raises PrecisionError.
    """
    (a1, _), (_, b2) = P1, P2
    return PhaseArg.of(a1.r * b2.r + (a1.q * b2.q).frac_part())


def eta_bar(P1: LatticePoint, P2: LatticePoint) -> PhaseArg:
    """Complex conjugate of the pairing, as an argument mod 1."""
    return -eta(P1, P2)


def rho(P1: LatticePoint, P2: LatticePoint) -> PhaseArg:
    """Antisymmetrized pairing eta(P1,P2) * conj(eta(P2,P1)); the commutation phase."""
    return eta(P1, P2) - eta(P2, P1)


def _check_embedding(x: PAdic, theta: QuadReal, g: GammaElem) -> None:
    """The inputs both embeddings need: x and theta nonzero, and x and g over one prime."""
    x.require_nonzero()
    if not theta:
        raise ValueError("theta must be nonzero")
    if x.p != g.p:
        raise ValueError("prime mismatch between x and lattice point")


def iota_embed(x: PAdic, theta: QuadReal, g: GammaElem) -> LatticePoint:
    """Embed Z[1/p]^2 into M^2 along (x, theta): (r1, r2) -> [(x r1, theta r1), (r2, r2)]."""
    _check_embedding(x, theta, g)
    r1, r2 = g.first, g.second
    p = x.p
    first = MPoint(x * r1, theta * r1)
    second = MPoint(PAdic._new(p, -r2.k, r2.j, 1), _new(*_parts(r2)))
    return (first, second)


def lambda_embed(x: PAdic, theta: QuadReal, s: GammaElem) -> LatticePoint:
    """Embed the annihilator copy: (s1, s2) -> [(s1, -s1), (-x^-1 s2, s2/theta)]."""
    _check_embedding(x, theta, s)
    s1, s2 = s.first, s.second
    p = x.p
    first = MPoint(PAdic._new(p, -s1.k, s1.j, 1), _new(*_parts(-s1)))
    second = MPoint(-(x.invert() * s2), s2 / theta)
    return (first, second)
