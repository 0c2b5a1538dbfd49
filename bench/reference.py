"""Exact reference for the benchmark's correctness checks.

Values live in Q(sqrt(D)) as normalized integer quadruples (A + B*sqrt(D))/M
with M > 0 and gcd(A, B, M) = 1; a rational value has B = 0 and D = 0.  Only
int arithmetic and math.isqrt are used: this module shares no code with
ncsolenoid, so agreement between the two is evidence, not tautology.

A spec here is plain data (p, theta, num, den): the digit stream is the
p-adic expansion of the rational num/den with den prime to p, so its digit
window sum_{j<n} x_j p^j is simply num * den^-1 mod p^n.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Surd:
    """Exact real (A + B*sqrt(D))/M in normal form."""

    A: int
    B: int
    D: int
    M: int

    @staticmethod
    def of(A: int, B: int = 0, D: int = 0, M: int = 1) -> "Surd":
        if M == 0:
            raise ZeroDivisionError("zero denominator")
        if B == 0 or D == 0:
            B, D = 0, 0
        if M < 0:
            A, B, M = -A, -B, -M
        g = math.gcd(math.gcd(A, B), M)
        return Surd(A // g, B // g, D, M // g)

    def _radicand(self, other: "Surd") -> int:
        if self.B and other.B and self.D != other.D:
            raise ValueError(f"radicands {self.D} and {other.D} differ")
        return self.D or other.D

    def __add__(self, other) -> "Surd":
        o = lift(other)
        return Surd.of(self.A * o.M + o.A * self.M, self.B * o.M + o.B * self.M, self._radicand(o), self.M * o.M)

    def __neg__(self) -> "Surd":
        return Surd(-self.A, -self.B, self.D, self.M)

    def __sub__(self, other) -> "Surd":
        return self + (-lift(other))

    def __mul__(self, other) -> "Surd":
        o = lift(other)
        D = self._radicand(o)
        return Surd.of(self.A * o.A + self.B * o.B * D, self.A * o.B + self.B * o.A, D, self.M * o.M)

    def inverse(self) -> "Surd":
        # M / (A + B sqrt D) = M (A - B sqrt D) / (A^2 - B^2 D)
        norm = self.A * self.A - self.B * self.B * self.D
        return Surd.of(self.M * self.A, -self.M * self.B, self.D, norm)

    def __truediv__(self, other) -> "Surd":
        return self * lift(other).inverse()

    def floor(self) -> int:
        # floor((A + B sqrt D)/M) = (A + floor(B sqrt D)) // M for M > 0
        if self.B == 0:
            return self.A // self.M
        r = math.isqrt(self.B * self.B * self.D)
        return (self.A + (r if self.B > 0 else -r - 1)) // self.M

    def frac(self) -> "Surd":
        """Reduction mod 1 into [0, 1)."""
        return self - self.floor()

    def sign(self) -> int:
        A, B = self.A, self.B
        if B == 0:
            return (A > 0) - (A < 0)
        if A >= 0 and B > 0:
            return 1
        if A <= 0 and B < 0:
            return -1
        # opposite signs; A^2 = B^2 D is impossible for squarefree D > 1
        return (1 if A > 0 else -1) if A * A > B * B * self.D else (1 if B > 0 else -1)

    def to_float(self) -> float:
        """Value to double precision, from a 200-bit integer square root."""
        shift = 200
        root = math.isqrt(self.B * self.B * self.D << (2 * shift))
        top = (self.A << shift) + (root if self.B >= 0 else -root)
        return top / (self.M << shift)

    def text(self) -> str:
        """The form the ncsolenoid parser accepts: "(A + B*sqrt(D))/M" or "A/M"."""
        if self.B == 0:
            return str(self.A) if self.M == 1 else f"{self.A}/{self.M}"
        sign = "+" if self.B > 0 else "-"
        return f"({self.A} {sign} {abs(self.B)}*sqrt({self.D}))/{self.M}"


def lift(x) -> Surd:
    if isinstance(x, Surd):
        return x
    if isinstance(x, int):
        return Surd(x, 0, 0, 1)
    raise TypeError(f"cannot lift {type(x).__name__}")


_QUAD = re.compile(r"\((-?\d+)([+-])(\d+)\*sqrt\((\d+)\)\)/(\d+)")
_RAT = re.compile(r"(-?\d+)(?:/(\d+))?")


def parse(text: str) -> Surd:
    """Read a value printed by ncsolenoid (QuadReal or Fraction string)."""
    s = str(text).replace(" ", "")
    m = _QUAD.fullmatch(s)
    if m:
        A, sign, B, D, M = m.groups()
        return Surd.of(int(A), int(B) if sign == "+" else -int(B), int(D), int(M))
    m = _RAT.fullmatch(s)
    if m:
        return Surd.of(int(m.group(1)), 0, 0, int(m.group(2) or 1))
    raise ValueError(f"unrecognised exact value {text!r}")


# -- specs as plain data -----------------------------------------------------------


@dataclass(frozen=True)
class Spec:
    """Prime p, theta, digit stream x = num/den (den prime to p)."""

    p: int
    theta: Surd
    num: int
    den: int

    def window(self, n: int) -> int:
        """sum_{j<n} x_j p^j."""
        mod = self.p**n
        return self.num * pow(self.den, -1, mod) % mod

    def digit(self, j: int) -> int:
        return (self.window(j + 1) - self.window(j)) // self.p**j


def alpha(spec: Spec, n: int) -> Surd:
    """alpha_n = (theta + sum_{j<n} x_j p^j) / p^n."""
    return (spec.theta + spec.window(n)) / spec.p**n


def truncate(spec: Spec, k: int) -> Spec:
    """Drop the first k entries: theta' = alpha_k, x' = (x - window_k) / p^k."""
    num = (spec.num - spec.window(k) * spec.den) // spec.p**k
    return Spec(spec.p, alpha(spec, k), num, spec.den)


def heisenberg(spec: Spec) -> Spec:
    """Partner spec: theta' = 1/theta + frac_p(1/x), digits = 1/x - frac_p(1/x)."""
    p, num, den = spec.p, spec.num, spec.den
    v, u = 0, num
    while u % p == 0:
        u //= p
        v += 1
    pv = p**v
    fp_num = den * pow(u, -1, pv) % pv if v else 0  # frac part = fp_num / p^v
    theta = spec.theta.inverse() + Surd.of(fp_num, 0, 0, pv)
    return Spec(p, theta, (den - fp_num * u) // pv, u)


def beta(spec: Spec, n: int) -> Surd:
    """Heisenberg partner entry beta_n."""
    return alpha(heisenberg(spec), n)


def trace_line(spec: Spec, c0: int, d0: int, n: int) -> tuple[int, int]:
    """(c_2n, d_2n) with c = c0 p^(2n) and d = d0 - c0 sum_{j<2n} x_j p^j."""
    return c0 * spec.p ** (2 * n), d0 - c0 * spec.window(2 * n)


def mobius(a: int, b: int, c: int, d: int, x: Surd) -> Surd:
    return (x * a + b) / (x * c + d)


def bezout_normalized(c: int, d: int, x: Surd) -> tuple[int, int]:
    """(a, b) with a*d - b*c = 1 whose Mobius image of x lies in [0, 1)."""
    # a*d - b*c = 1 by Euclid on (d, c)
    old_r, r, old_s, s, old_t, t = d, c, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if abs(old_r) != 1:
        raise ValueError(f"({c}, {d}) is not coprime")
    a, b = old_s * old_r, -old_t * old_r  # a*d + (-b)*c = 1
    shift = -mobius(a, b, c, d, x).floor()
    return a + shift * c, b + shift * d


def projection_window(spec: Spec, c0: int, d0: int, N: int) -> list[Surd]:
    """Normalized images beta_2n in [0,1) for n <= N."""
    out = []
    for n in range(N + 1):
        c, d = trace_line(spec, c0, d0, n)
        x = alpha(spec, 2 * n)
        a, b = bezout_normalized(c, d, x)
        out.append(mobius(a, b, c, d, x))
    return out


def condition(p: int, c0: int, d0: int, x0: int) -> bool:
    return math.gcd(c0 * p, d0 - c0 * x0) == 1


def digits_from_even(p: int, even: list[Surd]) -> list[int]:
    """Digits x_0..x_{2N-1} of the spec whose even entries mod 1 are `even`.

    Odd entries follow from w_{2n+1} = p * w_{2n+2} mod 1; every digit
    x_j = p w_{j+1} - w_j must be an integer in [0, p).
    """
    w: dict[int, Surd] = {2 * i: v for i, v in enumerate(even)}
    top = 2 * (len(even) - 1)
    for n in range(top - 1, 0, -2):
        w[n] = (w[n + 1] * p).frac()
    out = []
    for j in range(top):
        x = w[j + 1] * p - w[j]
        if x.B or x.M != 1 or not 0 <= x.A < p:
            raise ValueError(f"window is not coherent at index {j}")
        out.append(x.A)
    return out


def padic_digits(p: int, num: int, den: int) -> tuple[list[int], list[int]]:
    """Preperiod and period of the p-adic expansion of num/den (den prime to p)."""
    inv = pow(den, -1, p)
    seen: dict[int, int] = {}
    digits: list[int] = []
    m = num
    while m not in seen:
        seen[m] = len(digits)
        d = m * inv % p
        digits.append(d)
        m = (m - d * den) // p
    start = seen[m]
    return digits[:start], digits[start:]


def multiplicative_order(p: int, n: int) -> int:
    k, x = 1, p % n
    while x != 1:
        x = x * p % n
        k += 1
    return k


def phase_psi(spec: Spec, g: tuple[int, int, int, int], h: tuple[int, int, int, int]) -> Surd:
    """psi(g, h) = alpha_{k1+k4} * j1 * j4 mod 1 for g = (j1, k1, j2, k2), h = (j3, k3, j4, k4).

    Exponents are read off reduced forms j / p^k (p does not divide j unless k = 0).
    """
    j1, k1 = reduce_pfrac(spec.p, g[0], g[1])
    j4, k4 = reduce_pfrac(spec.p, h[2], h[3])
    return (alpha(spec, k1 + k4) * (j1 * j4)).frac()


def reduce_pfrac(p: int, j: int, k: int) -> tuple[int, int]:
    while k > 0 and j % p == 0:
        j //= p
        k -= 1
    return (j, 0) if j == 0 else (j, k)
