"""Solenoid parameter sequences and their finite windows.

A spec packages a prime p, an exact real theta, and a p-adic integer digit
stream x; the induced sequence alpha_n = (theta + sum_{j<n} x_j p^j) / p^n
satisfies p*alpha_{n+1} = alpha_n + x_n exactly.  Reducing mod 1 lands in the
canonical parameter space (entries in [0,1), digit defects in {0,...,p-1}).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import QuadReal, floor, frac1, is_prime
from .padic import PAdic


class CoherenceError(ValueError):
    """A window fails the p-power coherence relation at some adjacent pair."""


class PrimeMismatchError(ValueError):
    """Two objects over different primes were combined."""


@dataclass(frozen=True)
class SolenoidSpec:
    """Prime p, exact real theta, digit stream x (a p-adic integer).

    digit_horizon, when set, marks digits x_n for n >= digit_horizon as
    unspecified (used for specs recovered from finite windows); alpha_at then
    refuses to extrapolate past the window.
    """

    p: int
    theta: QuadReal
    digits: PAdic
    digit_horizon: int | None = None

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if not isinstance(self.theta, QuadReal):
            object.__setattr__(self, "theta", QuadReal(self.theta))
        if self.digits.p != self.p:
            raise PrimeMismatchError(f"digit stream is {self.digits.p}-adic, spec has p={self.p}")
        if not self.digits.is_zero and self.digits.ord < 0:
            raise ValueError("digit stream must be a p-adic integer (ord >= 0)")

    def x(self, n: int) -> int:
        if n < 0:
            raise ValueError("digit index must be nonnegative")
        if self.digit_horizon is not None and n >= self.digit_horizon:
            raise ValueError(f"digit x_{n} is beyond the known window (horizon {self.digit_horizon})")
        return self.digits.digit(n)

    def to_json(self) -> dict:
        obj = {"p": self.p, "theta": str(self.theta), "digits": self.digits.to_json()}
        if self.digit_horizon is not None:
            obj["digit_horizon"] = self.digit_horizon
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
        if horizon is not None and type(horizon) is not int:
            raise ValueError(f"digit_horizon must be an integer, got {horizon!r}")
        return cls(p, QuadReal.parse(theta), PAdic.from_json(obj["digits"]), horizon)


@dataclass(frozen=True)
class SeqWindow:
    """Finite window of sequence entries: (index, exact value) pairs, indices increasing."""

    entries: tuple[tuple[int, QuadReal], ...]

    def __post_init__(self):
        idx = [n for n, _ in self.entries]
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("window indices must be strictly increasing")

    @classmethod
    def of(cls, pairs) -> "SeqWindow":
        return cls(tuple((int(n), v if isinstance(v, QuadReal) else QuadReal(v)) for n, v in pairs))

    def indices(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.entries)

    def value(self, n: int) -> QuadReal:
        for i, v in self.entries:
            if i == n:
                return v
        raise KeyError(f"index {n} not in window")

    def mod1(self) -> "SeqWindow":
        return SeqWindow(tuple((n, frac1(v)) for n, v in self.entries))

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def to_json(self) -> list:
        return [[n, str(v)] for n, v in self.entries]

    @classmethod
    def from_json(cls, obj) -> "SeqWindow":
        return cls(tuple((int(n), QuadReal.parse(s)) for n, s in obj))


def alpha_at(spec: SolenoidSpec, n: int) -> QuadReal:
    """Exact alpha_n = (theta + sum_{j<n} x_j p^j) / p^n."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if spec.digit_horizon is not None and n > spec.digit_horizon:
        raise ValueError(f"alpha_{n} needs digits beyond the known window (horizon {spec.digit_horizon})")
    head = spec.digits.truncate_sum(0, n - 1).as_fraction()
    return (spec.theta + head) * Fraction(1, spec.p**n)


def reduce_h(spec: SolenoidSpec, N: int) -> SeqWindow:
    """Window of alpha_n mod 1 for 0 <= n <= N (the canonical-parameter image)."""
    return SeqWindow(tuple((n, frac1(alpha_at(spec, n))) for n in range(N + 1)))


def coherence_check(window: SeqWindow, p: int, step: int = 1) -> list[int]:
    """Defects p**step * w_{n+step} - w_n for each adjacent pair; all must be integers.

    Raises CoherenceError naming the first offending pair otherwise.
    """
    idx = window.indices()
    if len(idx) < 2:
        return []
    if any(b - a != step for a, b in zip(idx, idx[1:])):
        raise ValueError(f"window indices {idx} are not consecutive with step {step}")
    defects = []
    scale = p**step
    for (n, w_n), (m, w_m) in zip(window.entries, window.entries[1:]):
        d = w_m * scale - w_n
        if not d.is_rational or d.as_fraction().denominator != 1:
            raise CoherenceError(f"defect at indices ({n}, {m}) is {d}, not an integer")
        defects.append(int(d.as_fraction()))
    return defects


def from_even_entries(p: int, even: SeqWindow) -> SolenoidSpec:
    """Rebuild a spec from even-index entries in [0,1).

    Odd entries are forced by the coherence relation: w_{2n+1} = p*w_{2n+2} mod 1.
    Digits beyond the window are unspecified; the returned spec carries a
    digit_horizon marking that boundary.
    """
    idx = even.indices()
    if not idx or idx[0] != 0 or any(n % 2 for n in idx):
        raise ValueError("window must start at 0 and use even indices")
    coherence_check(even, p, 2)
    for n, v in even:
        if not (QuadReal(0) <= v < QuadReal(1)):
            raise ValueError(f"entry at index {n} is {v}, outside [0,1)")
    full: dict[int, QuadReal] = {n: v for n, v in even}
    top = idx[-1]
    for n in range(top - 1, 0, -2):
        full[n] = frac1(full[n + 1] * p)
    xs = []
    for n in range(top):
        d = full[n + 1] * p - full[n]
        if not d.is_rational or d.as_fraction().denominator != 1:
            raise CoherenceError(f"recovered digit x_{n} = {d} is not an integer")
        di = int(d.as_fraction())
        if not 0 <= di < p:
            raise CoherenceError(f"recovered digit x_{n} = {di} outside 0..{p - 1}")
        xs.append(di)
    digits = PAdic(p, 0, tuple(xs), (0,))
    return SolenoidSpec(p, full[0], digits, digit_horizon=top)


def truncate_spec(spec: SolenoidSpec, k: int) -> SolenoidSpec:
    """Drop the first k sequence entries: theta' = alpha_k, digits shifted by k."""
    if k < 0:
        raise ValueError("truncation index must be nonnegative")
    if k == 0:
        return spec
    theta = alpha_at(spec, k)
    head = spec.digits.truncate_sum(0, k - 1).as_fraction()
    shifted = PAdic.from_rational(spec.p, (spec.digits.as_fraction() - head) / spec.p**k)
    horizon = None if spec.digit_horizon is None else spec.digit_horizon - k
    return SolenoidSpec(spec.p, theta, shifted, horizon)


def equal_in_Xi(a: SolenoidSpec, b: SolenoidSpec, N: int) -> bool:
    """Do the canonical-parameter images of a and b agree exactly at indices 0..N?

    Agreement on a finite window is a necessary condition for equality, not a
    proof of it; callers treat this as a semidecision.
    """
    if a.p != b.p:
        raise PrimeMismatchError(f"cannot compare p={a.p} with p={b.p}")
    return all(frac1(alpha_at(a, n)) == frac1(alpha_at(b, n)) for n in range(N + 1))


def window_agrees_mod1(window: SeqWindow, spec: SolenoidSpec, allow_flip: bool = False) -> str | None:
    """Compare a window with a spec mod 1 entrywise.

    Returns "direct" on exact agreement, "flipped" if the window matches the
    entrywise negation mod 1 (and flips are allowed), None otherwise.
    """
    direct = all(frac1(v) == frac1(alpha_at(spec, n)) for n, v in window)
    if direct:
        return "direct"
    if allow_flip:
        flipped = all(frac1(v) == frac1(-alpha_at(spec, n)) for n, v in window)
        if flipped:
            return "flipped"
    return None
