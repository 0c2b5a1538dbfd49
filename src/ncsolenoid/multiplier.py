"""Multipliers on p-power fraction lattices and the Heisenberg pairing.

Phases are exact arguments mod 1 (PhaseArg wrapping a QuadReal in [0,1)); no
complex floating point enters any check.  The ambient group for the pairing
is M = Q_p x R, points carried as (q, r) with q p-adic and r exact real.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .exactnum import PFrac, QuadReal, frac1
from .padic import PAdic, TruncatedPAdic
from .solenoid import SeqWindow, SolenoidSpec, alpha_at


@dataclass(frozen=True)
class GammaElem:
    """Element of Z[1/p]^2, both coordinates reduced p-power fractions."""

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
        mk = lambda z: z if isinstance(z, PFrac) else PFrac.from_fraction(p, Fraction(z))
        return cls(mk(a), mk(b))

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

    q: PAdic | TruncatedPAdic
    r: QuadReal


LatticePoint = tuple[MPoint, MPoint]


@dataclass(frozen=True)
class PhaseArg:
    """Exact phase argument mod 1: the number t in [0,1) standing for e^(2*pi*i*t)."""

    value: QuadReal

    def __post_init__(self):
        if not (QuadReal(0) <= self.value < QuadReal(1)):
            raise ValueError(f"phase argument {self.value} not reduced into [0,1)")

    @classmethod
    def of(cls, x) -> "PhaseArg":
        return cls(frac1(x))

    @property
    def is_zero(self) -> bool:
        return not self.value

    def __add__(self, other: "PhaseArg") -> "PhaseArg":
        return PhaseArg.of(self.value + other.value)

    def __sub__(self, other: "PhaseArg") -> "PhaseArg":
        return PhaseArg.of(self.value - other.value)

    def __neg__(self) -> "PhaseArg":
        return PhaseArg.of(-self.value)

    def __str__(self):
        return str(self.value)


def psi_alpha(spec: SolenoidSpec, g: GammaElem, h: GammaElem) -> PhaseArg:
    """Multiplier value: alpha_{k1+k4} * j1 * j4 mod 1, exponents read off reduced forms."""
    if g.p != spec.p or h.p != spec.p:
        raise ValueError("lattice points and spec use different primes")
    k = g.first.k + h.second.k
    return PhaseArg.of(alpha_at(spec, k) * (g.first.j * h.second.j))


def psi_from_window(window: SeqWindow, g: GammaElem, h: GammaElem) -> PhaseArg:
    """Same multiplier formula, but the sequence entries come from a window."""
    k = g.first.k + h.second.k
    return PhaseArg.of(window.value(k) * (g.first.j * h.second.j))


Sigma = Callable[[GammaElem, GammaElem], PhaseArg]


def cocycle_defect(sigma: Sigma, r: GammaElem, s: GammaElem, t: GammaElem) -> PhaseArg:
    """Argument of sigma(r,s) sigma(r+s,t) / (sigma(r,s+t) sigma(s,t)); zero iff cocycle holds."""
    return (sigma(r, s) + sigma(r + s, t)) - (sigma(r, s + t) + sigma(s, t))


def eta(P1: LatticePoint, P2: LatticePoint) -> PhaseArg:
    """Heisenberg pairing argument: r1*r4 + frac_part(q1*q4) mod 1.

    A truncated p-adic coordinate makes the product a window at the smaller
    relative precision; a window too short to pin down the negative-index
    digits of the product raises PrecisionError.
    """
    (a1, _), (_, b2) = P1, P2
    fp = (a1.q * b2.q).frac_part().as_fraction()
    return PhaseArg.of(a1.r * b2.r + fp)


def eta_bar(P1: LatticePoint, P2: LatticePoint) -> PhaseArg:
    """Complex conjugate of the pairing, as an argument mod 1."""
    return -eta(P1, P2)


def rho(P1: LatticePoint, P2: LatticePoint) -> PhaseArg:
    """Antisymmetrized pairing eta(P1,P2) * conj(eta(P2,P1)); the commutation phase."""
    return eta(P1, P2) - eta(P2, P1)


def iota_embed(x: PAdic, theta: QuadReal, g: GammaElem) -> LatticePoint:
    """Embed Z[1/p]^2 into M^2 along (x, theta): (r1, r2) -> [(x r1, theta r1), (r2, r2)]."""
    if x.is_zero:
        raise ValueError("x must be a nonzero p-adic integer")
    if not theta:
        raise ValueError("theta must be nonzero")
    if x.p != g.p:
        raise ValueError("prime mismatch between x and lattice point")
    r1, r2 = g.first, g.second
    p = x.p
    first = MPoint(x * r1, theta * r1.as_fraction())
    second = MPoint(PAdic.from_rational(p, r2.as_fraction()), QuadReal(r2.as_fraction()))
    return (first, second)


def lambda_embed(x: PAdic, theta: QuadReal, s: GammaElem) -> LatticePoint:
    """Embed the annihilator copy: (s1, s2) -> [(s1, -s1), (-x^-1 s2, s2/theta)]."""
    if x.is_zero:
        raise ValueError("x must be a nonzero p-adic integer")
    if not theta:
        raise ValueError("theta must be nonzero")
    if x.p != s.p:
        raise ValueError("prime mismatch between x and lattice point")
    s1, s2 = s.first, s.second
    p = x.p
    first = MPoint(PAdic.from_rational(p, s1.as_fraction()), QuadReal(-s1.as_fraction()))
    second = MPoint(-(x.invert() * s2), QuadReal(s2.as_fraction()) / theta)
    return (first, second)
