"""Exact p-adic numbers with eventually periodic digit streams.

Eventually periodic streams are exactly the rationals, so a PAdic is stored
as its rational q: arithmetic and equality are those of q, and every digit is
a view computed from q on demand.  The minimal (ord, preperiod, period) form
is built only for display (to_json, repr).

A PAdic also carries its precision: the digits at indices >= precision are
unknown, and an exact value has precision math.inf.  Irrational p-adics are
supported only as such finite windows, with every operation tracking the
absolute precision it can honestly claim.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import PFrac, is_prime

ORD_INF = math.inf  # order sentinel for zero
# digits _expand may make for display, at about 1 us each: padic inv of a value whose
# 2-adic period has 199 932 digits prints in about 0.6 s end to end
MAX_EXPANSION = 200_000
# size of p**|ord| a JSON digit stream may carry, counted as |ord| * floor(log2 p) bits: the value is
# built, divided and printed at that size.  At the bound, solenoid alpha --n 1 on one spec file takes
# about 1.0 s end to end at p = 2 (ord 524 288) and 1.2 s at the largest prime below exactnum.MR_LIMIT
# (ord 6 472); a flat ord bound would be 81 times looser there than at p = 2
MAX_ORD_BITS = 2**19


class PrecisionError(ValueError):
    """A digit window does not determine the requested quantity."""


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def _strip(n: int, p: int) -> tuple[int, int]:
    """(n / p**e, e) with e the exponent of p in the nonzero integer n."""
    if p == 2:
        # n & -n is the lowest set bit of n, which is 2**e
        e = (n & -n).bit_length() - 1
        return n >> e, e
    e = 0
    while n % p == 0:
        # divide by p, p**2, p**4, ... while they divide: O(log(e)**2) divisions, not e
        pk, k = p, 1
        while n % pk == 0:
            n //= pk
            e += k
            pk, k = pk * pk, 2 * k
    return n, e


def _digits_value(digits: tuple[int, ...], p: int) -> int:
    """sum(d * p**i for i, d in enumerate(digits)), split in halves: value(lo) + p**len(lo) * value(hi).

    Summing term by term is quadratic in the length; the halves keep every
    product balanced, so a long period costs a few big multiplications.
    """
    n = len(digits)
    if n <= 64:
        out = 0
        for d in reversed(digits):
            out = out * p + d
        return out
    h = n // 2
    return _digits_value(digits[:h], p) + p**h * _digits_value(digits[h:], p)


class PAdic:
    """Element of Q_p with an eventually periodic (hence rational) digit stream, stored as that rational.

    precision is the index of the first unknown digit: math.inf for an exact
    value, n for a window known mod p**n.  A window keeps its value q
    unreduced; only its digits below precision are read.
    """

    __slots__ = ("p", "q", "precision")

    def __init__(self, p: int, v: int, pre, per):
        """The value with digits pre, then per repeated forever, starting at index v."""
        _require_prime(p)
        pre = tuple(int(d) for d in pre)
        per = tuple(int(d) for d in per) or (0,)
        for d in pre + per:
            if not 0 <= d < p:
                raise ValueError(f"digit {d} out of range for p={p}")
        head, block = _digits_value(pre, p), _digits_value(per, p)
        tail = Fraction(block * p ** len(pre), 1 - p ** len(per))
        self.p = p
        self.q = (head + tail) * Fraction(p) ** v
        self.precision = math.inf

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rational(cls, p: int, q) -> "PAdic":
        _require_prime(p)
        return cls._of(p, Fraction(q))

    @classmethod
    def _of(cls, p: int, q: Fraction, precision=math.inf) -> "PAdic":
        """The value q known below precision, over a p proved prime before: an arithmetic result or read off a PAdic."""
        x = object.__new__(cls)
        x.p, x.q, x.precision = p, q, precision
        return x

    @classmethod
    def from_json(cls, obj) -> "PAdic":
        if not isinstance(obj, dict):
            raise ValueError(f"digits must be a JSON object, got {type(obj).__name__}")
        p, v, pre, per = obj["p"], obj["ord"], obj["preperiod"], obj["period"]
        if type(p) is not int or type(v) is not int:
            raise ValueError(f"digits p and ord must be integers, got {p!r} and {v!r}")
        if not (isinstance(pre, list) and isinstance(per, list) and all(type(d) is int for d in pre + per)):
            raise ValueError("digits preperiod and period must be lists of integers")
        if abs(v) * (p.bit_length() - 1) > MAX_ORD_BITS:
            raise ValueError(f"digits ord {v} puts {p}**|ord| past MAX_ORD_BITS = {MAX_ORD_BITS} bits")
        return cls(p, v, pre, per)

    # -- digit views -----------------------------------------------------------

    def _head(self, h: int) -> PFrac:
        """Exact digit sum  sum_{j <= h} d_j p**j; PrecisionError past the known digits.

        With q = num / (den * p**s) and den prime to p, num/den is a p-adic
        integer whose digits are those of q shifted up by s, so its residue
        mod p**(h+1+s) holds exactly the digits at indices -s..h.
        """
        if h >= self.precision:
            raise PrecisionError(f"digits end at index {self.precision}, need digit {h}")
        p, num = self.p, self.q.numerator
        den, s = _strip(self.q.denominator, p)
        n = h + 1 + s
        if n <= 0:
            return PFrac(p, 0)
        mod = p**n
        return PFrac(p, num * pow(den, -1, mod) % mod, s)

    def _expand(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """Minimal (ord, preperiod, period), generated until the carry state repeats.

        The carry state m is den times the value of the digits still to come,
        so the first repeated state closes the shortest preperiod and period.
        """
        if not self.q:
            return 0, (), (0,)
        p = self.p
        num, a = _strip(self.q.numerator, p)
        den, b = _strip(self.q.denominator, p)
        inv_den = pow(den, -1, p)
        digits: list[int] = []
        seen: dict[int, int] = {}
        m = num
        while m not in seen:
            if len(digits) == MAX_EXPANSION:
                raise ValueError(f"the value has more than MAX_EXPANSION = {MAX_EXPANSION} {p}-adic digits to display")
            seen[m] = len(digits)
            d = (m * inv_den) % p
            digits.append(d)
            m = (m - d * den) // p
        start = seen[m]
        return a - b, tuple(digits[:start]), tuple(digits[start:])

    @property
    def is_zero(self) -> bool:
        """Every known digit is zero: the value is 0, or has ord at or past the precision."""
        return not self.q or self.precision < math.inf and self.ord >= self.precision

    @property
    def ord(self):
        """Valuation of the value: index of its first nonzero digit; ORD_INF for zero."""
        if not self.q:
            return ORD_INF
        return _strip(self.q.numerator, self.p)[1] - _strip(self.q.denominator, self.p)[1]

    @property
    def v(self) -> int:
        """Index of the first digit of the window: ord, at most the precision; 0 for the value 0."""
        return min(0 if not self.q else self.ord, self.precision)

    @property
    def pre(self) -> tuple[int, ...]:
        return self._expand()[1]

    @property
    def per(self) -> tuple[int, ...]:
        return self._expand()[2]

    def digit(self, j: int) -> int:
        # _head(j) is d_j p**j plus lower digits worth less than p**j; when
        # h.k + j < 0 it has no nonzero digit at or below j, so it is 0
        h = self._head(j)
        return h.j // self.p ** max(h.k + j, 0)

    def as_fraction(self) -> Fraction:
        return self.q

    def to_json(self) -> dict:
        v, pre, per = self._expand()
        return {"p": self.p, "ord": v, "preperiod": list(pre), "period": list(per)}

    def truncate(self, n: int) -> "PAdic":
        """The same value with the digits at indices >= n unknown, i.e. known mod p**n."""
        return PAdic._of(self.p, self.q, min(self.precision, n))

    def frac_part(self) -> PFrac:
        """Fractional part: the digits at negative indices, a value in [0,1) of Z[1/p]."""
        return self._head(-1)

    def truncate_sum(self, lo: int, hi: int) -> PFrac:
        """Exact window sum of digit(j) * p**j for lo <= j <= hi."""
        if lo > hi:
            return PFrac(self.p, 0)
        return self._head(hi) - self._head(lo - 1)

    # -- arithmetic (rational closure; windows keep what they can claim) ------

    def _coerce(self, other) -> "tuple[Fraction, float] | None":
        """other's value and precision, math.inf for an int, Fraction or PFrac; None for another type."""
        if isinstance(other, PAdic):
            if other.p != self.p:
                raise ValueError(f"mixed primes {self.p} and {other.p}")
            return other.q, other.precision
        if isinstance(other, (int, Fraction)):
            return Fraction(other), math.inf
        if isinstance(other, PFrac):
            return other.as_fraction(), math.inf
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PAdic._of(self.p, self.q + o[0], min(self.precision, o[1]))

    __radd__ = __add__

    def __neg__(self):
        return PAdic._of(self.p, -self.q, self.precision)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PAdic._of(self.p, self.q - o[0], min(self.precision, o[1]))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PAdic._of(self.p, o[0] - self.q, min(self.precision, o[1]))

    def __mul__(self, other):
        """Product known to the smaller relative precision precision - v of the two.

        An exact operand has unbounded relative precision; an exact zero gives the exact zero.
        """
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        q = self.q * o[0]
        if self.precision == o[1] == math.inf:
            return PAdic._of(self.p, q)
        x = PAdic._of(self.p, *o)
        if self == 0 or x == 0:  # an exact zero
            return PAdic._of(self.p, q)
        v1, v2 = self.v, x.v
        n = min(self.precision - v1, x.precision - v2)
        if n == 0:
            raise PrecisionError("no digits to multiply")
        return PAdic._of(self.p, q, v1 + v2 + n)

    __rmul__ = __mul__

    def invert(self) -> "PAdic":
        """Multiplicative inverse, known to precision - 2v; ord flips sign, units stay units.

        A window needs a known nonzero digit: one that is zero to its precision raises PrecisionError.
        """
        if self.precision == math.inf:
            if not self.q:
                raise ZeroDivisionError("p-adic zero has no inverse")
            return PAdic._of(self.p, 1 / self.q)
        if self.is_zero:
            raise PrecisionError("window is zero to full precision; order unknown")
        return PAdic._of(self.p, 1 / self.q, self.precision - 2 * self.ord)

    # -- comparisons -----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, PAdic):
            return (self.p, self.q, self.precision) == (other.p, other.q, other.precision)
        if isinstance(other, (int, Fraction)):
            return self.precision == math.inf and self.q == other
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.q, self.precision))

    def __repr__(self):
        known = "" if self.precision == math.inf else f", precision={self.precision}"
        if not self.q:
            return f"PAdic(p={self.p}, 0{known})"
        v, pre, per = self._expand()
        return f"PAdic(p={self.p}, ord={v}, pre={list(pre)}, per={list(per)}{known})"
