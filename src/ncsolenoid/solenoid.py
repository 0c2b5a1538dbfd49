"""Solenoid parameter sequences and their finite windows.

A spec packages a prime p, an exact real theta, and a p-adic integer digit
stream x; the induced sequence alpha_n = (theta + sum_{j<n} x_j p^j) / p^n
satisfies p*alpha_{n+1} = alpha_n + x_n exactly.  Reducing mod 1 lands in the
canonical parameter space (entries in [0,1), digit defects in {0,...,p-1}).
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactnum import QuadReal, _quad, frac1, is_prime
from .padic import PAdic


class CoherenceError(ValueError):
    """A window fails the p-power coherence relation at some adjacent pair."""


class PrimeMismatchError(ValueError):
    """Two objects over different primes were combined."""


@dataclass(frozen=True)
class SolenoidSpec:
    """Prime p, exact real theta, digit stream x (a p-adic integer).

    digit_horizon, when set, marks digits x_n for n >= digit_horizon as
    unspecified (used for specs recovered from finite windows); head, and
    every digit and alpha read through it, then refuses to extrapolate past
    the window.
    """

    p: int
    theta: QuadReal
    digits: PAdic
    digit_horizon: int | None = None

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        self._check()

    @classmethod
    def _of(cls, p: int, theta: QuadReal, digits: PAdic, digit_horizon: int | None = None) -> "SolenoidSpec":
        """A spec over a p already proved prime (read off a checked spec): every check but the prime's."""
        spec = object.__new__(cls)
        for name, value in (("p", p), ("theta", theta), ("digits", digits), ("digit_horizon", digit_horizon)):
            object.__setattr__(spec, name, value)
        spec._check()
        return spec

    def _check(self):
        if not isinstance(self.theta, QuadReal):
            object.__setattr__(self, "theta", QuadReal(self.theta))
        if self.digits.p != self.p:
            raise PrimeMismatchError(f"digit stream is {self.digits.p}-adic, spec has p={self.p}")
        if not self.digits.is_zero and self.digits.ord < 0:
            raise ValueError("digit stream must be a p-adic integer (ord >= 0)")
        if self.digit_horizon is not None and self.digit_horizon < 0:
            raise ValueError(f"digit_horizon must be nonnegative, got {self.digit_horizon}")

    def head(self, n: int) -> int:
        """h_n = sum_{j<n} x_j p^j, the digit stream mod p^n.

        The stream is a rational num/den with den prime to p, so h_n is
        num * den^-1 mod p^n: one modular inverse, however large n is.
        """
        if n < 0:
            raise ValueError("index must be nonnegative")
        H = self.digit_horizon
        if H is not None and n > H:
            raise ValueError(f"digit x_{H} is beyond the known window (horizon {H})")
        q, mod = self.digits.as_fraction(), self.p**n
        return q.numerator * pow(q.denominator, -1, mod) % mod

    def x(self, n: int) -> int:
        if n < 0:
            raise ValueError("digit index must be nonnegative")
        return self.head(n + 1) // self.p**n

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


def _alpha(spec: SolenoidSpec, n: int, h: int) -> QuadReal:
    # alpha_n from any h = h_n mod p^n: (A + B sqrt(D))/M + h becomes (A + h M + B sqrt(D))/(M p^n) in one step
    t, scale = spec.theta, spec.p**n
    return _quad(t.A + h % scale * t.M, t.B, t.M * scale, t.D)


def alpha_at(spec: SolenoidSpec, n: int) -> QuadReal:
    """Exact alpha_n = (theta + h_n) / p^n, with h_n = spec.head(n)."""
    return _alpha(spec, n, spec.head(n))


def alphas(spec: SolenoidSpec, N: int) -> SeqWindow:
    """Window alpha_0 .. alpha_N from one head read: h_n = h_N mod p^n."""
    h = spec.head(N)
    return SeqWindow(tuple((n, _alpha(spec, n, h)) for n in range(N + 1)))


def level_table(spec: SolenoidSpec, N: int) -> tuple[tuple[QuadReal, int], ...]:
    """Even levels ((alpha_0, h_0), ..., (alpha_2N, h_2N)) from one head read.

    A digit horizon raises ValueError when 2N passes it, as alpha_at does.
    """
    h = spec.head(2 * N)
    return tuple((_alpha(spec, 2 * n, h), h % spec.p ** (2 * n)) for n in range(N + 1))


def reduce_h(spec: SolenoidSpec, N: int) -> SeqWindow:
    """Window of alpha_n mod 1 for 0 <= n <= N (the canonical-parameter image)."""
    return alphas(spec, N).mod1()


def _as_int(d: QuadReal) -> int | None:
    """d as an int, or None when d is not an integer."""
    return d.A if d.is_rational and d.M == 1 else None


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
        di = _as_int(d)
        if di is None:
            raise CoherenceError(f"defect at indices ({n}, {m}) is {d}, not an integer")
        defects.append(di)
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
        di = _as_int(d)
        if di is None:
            raise CoherenceError(f"recovered digit x_{n} = {d} is not an integer")
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
    h = spec.head(k)
    shifted = PAdic._of(spec.p, (spec.digits.as_fraction() - h) / spec.p**k)
    horizon = None if spec.digit_horizon is None else spec.digit_horizon - k
    return SolenoidSpec._of(spec.p, _alpha(spec, k, h), shifted, horizon)


def equal_in_Xi(a: SolenoidSpec, b: SolenoidSpec, N: int) -> bool:
    """Do the canonical-parameter images of a and b agree exactly at indices 0..N?

    Agreement on a finite window is a necessary condition for equality, not a
    proof of it; callers treat this as a semidecision.
    """
    if a.p != b.p:
        raise PrimeMismatchError(f"cannot compare p={a.p} with p={b.p}")
    return reduce_h(a, N) == reduce_h(b, N)
