"""Solenoid parameter sequences and their finite windows.

A spec packages a prime p, an exact real theta, and a p-adic integer digit
stream x; the induced sequence alpha_n = (theta + sum_{j<n} x_j p^j) / p^n
satisfies p*alpha_{n+1} = alpha_n + x_n exactly.  Reducing mod 1 lands in the
canonical parameter space (entries in [0,1), digit defects in {0,...,p-1}).
A window is a plain tuple of (index, exact value) pairs, indices increasing;
each reader checks the index pattern it needs.  Every spec transform is one
MobiusPair acting on (theta, -x), with one precision rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exactnum import QuadReal, _div, _quad, _strip, frac1, require_prime
from .padic import PAdic, require_ord_bits


class CoherenceError(ValueError):
    """A window fails the p-power coherence relation at some adjacent pair."""


class PrimeMismatchError(ValueError):
    """Two objects over different primes were combined."""


@dataclass(frozen=True)
class SolenoidSpec:
    """Prime p, exact real theta, digit stream x (a p-adic integer).

    The digits x_n at n >= digits.precision are unspecified (a spec recovered
    from a finite window, or read from JSON with a horizon); head, and
    every digit and alpha read through it, then refuses to extrapolate past
    the window.
    """

    p: int
    theta: QuadReal
    digits: PAdic

    def __post_init__(self):
        require_prime(self.p)
        self._check()

    @classmethod
    def _of(cls, p: int, theta: QuadReal, digits: PAdic) -> "SolenoidSpec":
        """A spec over a p already proved prime (read off a checked spec): every check but the prime's."""
        spec = object.__new__(cls)
        for name, value in (("p", p), ("theta", theta), ("digits", digits)):
            object.__setattr__(spec, name, value)
        spec._check()
        return spec

    def _check(self):
        if not isinstance(self.theta, QuadReal):
            object.__setattr__(self, "theta", QuadReal(self.theta))
        if self.digits.p != self.p:
            raise PrimeMismatchError(f"digit stream is {self.digits.p}-adic, spec has p={self.p}")
        if self.digits.ord < 0:
            raise ValueError("digit stream must be a p-adic integer (ord >= 0) with precision >= 0")

    def head(self, n: int) -> int:
        """h_n = sum_{j<n} x_j p^j, the digit stream mod p^n."""
        if n < 0:
            raise ValueError("index must be nonnegative")
        return self.digits._below(n)

    def x(self, n: int) -> int:
        if n < 0:
            raise ValueError("digit index must be nonnegative")
        return self.head(n + 1) // self.p**n

    def to_json(self) -> dict:
        obj = {"p": self.p, "theta": str(self.theta), "digits": self.digits.to_json()}
        if self.digits.precision < math.inf:
            obj["digit_horizon"] = self.digits.precision
        return obj

    @classmethod
    def from_json(cls, obj) -> "SolenoidSpec":
        if not isinstance(obj, dict):
            raise ValueError(f"spec must be a JSON object, got {type(obj).__name__}")
        p, theta, horizon = obj["p"], obj["theta"], obj.get("digit_horizon")
        if type(p) is not int:
            raise ValueError(f"p must be an integer, got {p!r}")
        if not isinstance(theta, str):
            raise ValueError(f"theta must be a string, got {theta!r}")
        digits = PAdic.from_json(obj["digits"])
        if horizon is not None:
            if type(horizon) is not int or horizon < 0:
                raise ValueError(f"digit_horizon must be a nonnegative integer, got {horizon!r}")
            require_ord_bits(digits.p, horizon, f"digit_horizon {horizon} puts {digits.p}**H")
            digits = digits.truncate(horizon)
        return cls(p, QuadReal.parse(theta), digits)


@dataclass(frozen=True)
class MobiusPair:
    """(a b; c d), det != 0: Mobius maps of theta and xi = -x, so x' = (a x - b)/(d - c x); multiples act alike."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if not self.det:
            raise ValueError("determinant must be nonzero")

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def apply(self, alpha: QuadReal) -> QuadReal:
        """(a alpha + b)/(c alpha + d) for alpha = (A + B sqrt D)/M: (aA + bM + aB sqrt D)/(cA + dM + cB sqrt D)."""
        a, c, A, B, M = self.a, self.c, alpha.A, alpha.B, alpha.M
        return _div(a * A + self.b * M, a * B, 1, c * A + self.d * M, c * B, 1, alpha.D)

    def act(self, spec: SolenoidSpec) -> SolenoidSpec:
        """(g theta, x') for det = +-p^e: x known below H gives x' known below H + e - 2w, w = ord_p(d - c x).

        x' = (a n - b den)/(d den - c n) for x = n/den, n = num p^ord (0 for a zero), and p stripped from the
        denominator gives w.  Proof: x1 and x2 that agree below H have images that differ by det (xi1 - xi2)/((c xi1 +
        d)(c xi2 + d)), of order e + ord(x1 - x2) - 2w: at least H + e - 2w, and equal to it when x1 and x2 first
        differ at digit H.  So the known digits must decide w, and d - c x != 0, else x' is infinity, which is refused:
        c = 0 in a truncation or a shift, the Heisenberg partner refuses a zero x (PAdic.require_nonzero), and d0 - c0
        x is a unit by the Condition.  x' is a p-adic integer only if its digit -1 is known: when H + e - 2w < 0 the
        image cannot be formed, and the refusal names x's first unknown digit x_H, as any read past H does.
        """
        p, x = spec.p, spec.digits
        r, e = _strip(abs(self.det), p)
        if r != 1:
            raise ValueError(f"determinant {self.det} is not a unit of Z[1/{p}]")
        n = x.num * p**x.ord if x.num else 0
        den = self.d * x.den - self.c * n
        if not den:
            matrix = f"({self.a} {self.b}; {self.c} {self.d})"
            raise ValueError(f"{matrix} sends x = {x.as_fraction()} to infinity: d - c x = 0")
        den, w = _strip(den, p)
        P = x.precision + e - 2 * w
        if P < 0:
            raise x._beyond()
        return SolenoidSpec._of(p, self.apply(spec.theta), PAdic._new(p, -w, self.a * n - self.b * x.den, den, P))


def _alpha(spec: SolenoidSpec, n: int, h: int) -> QuadReal:
    # alpha_n from any h = h_n mod p^n: (A + B sqrt(D))/M + h becomes (A + h M + B sqrt(D))/(M p^n) in one step
    t, scale = spec.theta, spec.p**n
    return _quad(t.A + h % scale * t.M, t.B, t.M * scale, t.D)


def alpha_at(spec: SolenoidSpec, n: int) -> QuadReal:
    """Exact alpha_n = (theta + h_n) / p^n, with h_n = spec.head(n)."""
    return _alpha(spec, n, spec.head(n))


def alphas(spec: SolenoidSpec, N: int) -> tuple[tuple[int, QuadReal], ...]:
    """The window ((0, alpha_0), ..., (N, alpha_N)) from one head read: h_n = h_N mod p^n."""
    h = spec.head(N)
    return tuple((n, _alpha(spec, n, h)) for n in range(N + 1))


def level_table(spec: SolenoidSpec, N: int) -> tuple[tuple[QuadReal, int], ...]:
    """Even levels ((alpha_0, h_0), ..., (alpha_2N, h_2N)) from one head read.

    A digit horizon raises ValueError when 2N passes it, as alpha_at does.
    """
    h = spec.head(2 * N)
    return tuple((_alpha(spec, 2 * n, h), h % spec.p ** (2 * n)) for n in range(N + 1))


def reduce_h(spec: SolenoidSpec, N: int) -> tuple[tuple[int, QuadReal], ...]:
    """The window ((n, alpha_n mod 1) for 0 <= n <= N): the canonical-parameter image."""
    return tuple((n, frac1(v)) for n, v in alphas(spec, N))


def coherence_check(window: tuple[tuple[int, QuadReal], ...], p: int, step: int = 1) -> list[int]:
    """Defects p**step * w_{n+step} - w_n for each adjacent pair of a window of (n, w_n) pairs; all must be integers.

    Indices not in steps of `step` raise ValueError; CoherenceError names the first pair whose defect is no integer.
    """
    idx = tuple(n for n, _ in window)
    if any(b - a != step for a, b in zip(idx, idx[1:])):
        raise ValueError(f"window indices {idx} are not consecutive with step {step}")
    defects = []
    scale = p**step
    for (n, w_n), (m, w_m) in zip(window, window[1:]):
        d = w_m * scale - w_n
        di = d.as_int()
        if di is None:
            raise CoherenceError(f"defect at indices ({n}, {m}) is {d}, not an integer")
        defects.append(di)
    return defects


def from_even_entries(p: int, even: tuple[tuple[int, QuadReal], ...]) -> SolenoidSpec:
    """Rebuild a spec from the window ((0, w_0), (2, w_2), ..., (top, w_top)) of entries in [0,1); ValueError otherwise.

    Odd entries are forced by the coherence relation: w_{2n+1} = p*w_{2n+2} mod 1,
    and the step-1 defects of the full window are the digits.  Digits beyond
    the window are unspecified: the returned digit stream has precision top.
    """
    if not even or even[0][0] != 0 or any(n % 2 for n, _ in even):
        raise ValueError("window must start at 0 and use even indices")
    coherence_check(even, p, 2)
    for n, v in even:
        if not (QuadReal(0) <= v < QuadReal(1)):
            raise ValueError(f"entry at index {n} is {v}, outside [0,1)")
    full = [even[0][1]]
    for _, w in even[1:]:
        full += (frac1(w * p), w)
    # each defect is an integer: p w_{2n+1} - w_{2n} = p^2 w_{2n+2} - w_{2n} - p floor(p w_{2n+2})
    xs = coherence_check(tuple(enumerate(full)), p)
    for n, d in enumerate(xs):
        if not 0 <= d < p:
            raise CoherenceError(f"recovered digit x_{n} = {d} outside 0..{p - 1}")
    return SolenoidSpec(p, full[0], PAdic(p, 0, xs, (0,)).truncate(even[-1][0]))


def truncate_spec(spec: SolenoidSpec, k: int) -> SolenoidSpec:
    """Drop the first k entries: the matrix (1 h_k; 0 p^k) acts, so theta' = alpha_k and x' = (x - h_k)/p^k."""
    if k < 0:
        raise ValueError("truncation index must be nonnegative")
    return MobiusPair(1, spec.head(k), 0, spec.p**k).act(spec)


def equal_in_Xi(a: SolenoidSpec, b: SolenoidSpec, N: int) -> bool:
    """Do the canonical-parameter images of a and b agree exactly at indices 0..N?

    Agreement on a finite window is a necessary condition for equality, not a
    proof of it; callers treat this as a semidecision.
    """
    if a.p != b.p:
        raise PrimeMismatchError(f"cannot compare p={a.p} with p={b.p}")
    return reduce_h(a, N) == reduce_h(b, N)
