"""Exact p-adic numbers with eventually periodic digit streams.

Eventually periodic streams are exactly the rationals, so a PAdic is stored
as plain integers in the normal form p**ord * num/den, num/den a p-adic unit,
with p stripped once when the value is built; every digit is a view computed
from num/den on demand.  The minimal (ord, preperiod, period) form is built
only for display.

A PAdic also carries its precision: the digits at indices >= precision are
unknown, and an exact value has precision math.inf.  Irrational p-adics are
supported only as such finite windows.  A window reduces num/den to an
integer mod p**(precision - ord), and one zero to its precision has ord =
precision and num = 0, so ==, hash and to_json read only the known digits.

Two refusals are decided here, each with one wording.  _below is the one
checked read of digits: a read that needs a digit at or past the precision
H raises PrecisionError `digit x_H is beyond the known window (horizon H)`.
require_nonzero refuses a zero: the exact zero with `p-adic zero has no
inverse`, and a window zero to its horizon H, whose ord needs digit x_H,
with that same PrecisionError.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import PFrac, _strip, require_prime

# digits _expand may make for display, at about 1 us each: padic inv of a value whose
# 2-adic period has 199 932 digits prints in about 0.3 s end to end
MAX_EXPANSION = 200_000
_TOO_LONG = "the value has more than MAX_EXPANSION = {} {}-adic digits to display"
# size of p**|ord| a JSON digit stream, and of p**H a spec's digit_horizon H, may carry, counted as |ord| * floor(log2 p)
# bits: the value is built, divided and printed at that size.  At the bound, solenoid alpha --n 1 on one spec file takes
# about 1.0 s end to end at p = 2 (ord 524 288) and 1.2 s at the largest prime below exactnum.MR_LIMIT
# (ord 6 472); a flat ord bound would be 81 times looser there than at p = 2
MAX_ORD_BITS = 2**19


class PrecisionError(ValueError):
    """A digit window does not determine the requested quantity."""


class ZeroPAdicError(ZeroDivisionError, ValueError):
    """The exact zero where a nonzero value is needed: a division by zero, and a value outside the input's domain."""


def _mod_unit(num: int, den: int, mod: int) -> int:
    """num / den mod a power of p, den prime to p: one modular inverse, however large the power is."""
    return num * pow(den, -1, mod) % mod


def require_ord_bits(p: int, n: int, what: str) -> None:
    """Refuse an exponent n whose p**|n| is past MAX_ORD_BITS; what names it in the message."""
    if abs(n) * (p.bit_length() - 1) > MAX_ORD_BITS:
        raise ValueError(f"{what} past MAX_ORD_BITS = {MAX_ORD_BITS} bits")


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


def _int_digits(n: int, p: int, length: int) -> list[int]:
    """The digits d_0 .. d_{length-1} of 0 <= n < p**length, split in halves as _digits_value sums them.

    One divmod by p a digit is quadratic in the length: 200 000 binary digits took 4.8 s that way and
    0.06 s in halves (2-core Xeon, Python 3.11).
    """
    if length <= 64:
        return [n // p**i % p for i in range(length)]
    hi, lo = divmod(n, p ** (length // 2))
    return _int_digits(lo, p, length // 2) + _int_digits(hi, p, length - length // 2)


def _order(p: int, den: int, cap: int) -> int:
    """The order L of p mod den (den > 1, prime to p) when L <= cap, and some value past cap otherwise: baby-step
    giant-step, about 2 * sqrt(cap) multiplications mod den.

    The baby steps are p**j mod den for j < B = isqrt(cap) + 1.  A repeat among them, p**j = p**k with j < k < B,
    means p**(k - j) = 1, so L < B, and the first repeat is p**L = p**0.  Otherwise the baby steps are distinct and
    L >= B.  Then i0 = ceil(L/B) gives p**(i0 B) = p**j0 with j0 = i0 B - L in [0, B), while a match p**(i B) = p**j
    at an i < i0 would give p**(i B - j) = 1 with 0 < i B - j <= (i0 - 1) B < L.  So the first giant step i with
    p**(i B) = p**j gives L = i B - j, and as i0 <= cap // B + 1 for every L <= cap, no match up to there puts L
    past cap.
    """
    B = math.isqrt(cap) + 1
    baby, r = {}, 1
    for j in range(B):
        if r in baby:
            return j
        baby[r] = j
        r = r * p % den
    y = 1
    for i in range(1, cap // B + 2):
        y = y * r % den
        if y in baby:
            return i * B - baby[y]
    return cap + 1


class PAdic:
    """Element of Q_p with an eventually periodic (hence rational) digit stream, in the normal form p**ord * num/den.

    num/den is a p-adic unit in lowest terms with den > 0, and precision the index of the first unknown digit: math.inf
    for an exact value, N for a window known mod p**N, whose unit is reduced mod p**(N - ord) to num with den = 1.  A
    value zero to its precision has ord = precision, num = 0 and den = 1.
    """

    __slots__ = ("p", "ord", "num", "den", "precision")

    def __init__(self, p: int, v: int, pre, per):
        """The value with digits pre, then per repeated forever, starting at index v."""
        require_prime(p)
        pre = tuple(int(d) for d in pre)
        per = tuple(int(d) for d in per) or (0,)
        for d in pre + per:
            if not 0 <= d < p:
                raise ValueError(f"digit {d} out of range for p={p}")
        # head + block * p**len(pre) / (1 - p**len(per)), over the positive denominator p**len(per) - 1
        den = p ** len(per) - 1
        x = PAdic._new(p, v, _digits_value(pre, p) * den - _digits_value(per, p) * p ** len(pre), den)
        self.p, self.ord, self.num, self.den, self.precision = p, x.ord, x.num, x.den, x.precision

    # -- constructors --------------------------------------------------------

    @classmethod
    def _new(cls, p: int, v, num: int, den: int, precision=math.inf) -> "PAdic":
        """p**v * num / den known below precision, den nonzero and prime to p, over a p proved prime before.

        Every value is built here: p is stripped from num once, and the unit put in lowest terms over den > 0, or for a
        window reduced mod p**(precision - ord).
        """
        x = object.__new__(cls)
        x.p, x.precision = p, precision
        if num:
            num, e = _strip(num, p)
            v += e
        if not num or v >= precision:
            x.ord, x.num, x.den = precision, 0, 1
        elif precision == math.inf:
            g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
            x.ord, x.num, x.den = v, num // g, den // g
        else:
            x.ord, x.num, x.den = v, _mod_unit(num, den, p ** (precision - v)), 1
        return x

    @classmethod
    def from_rational(cls, p: int, q) -> "PAdic":
        require_prime(p)
        return cls._of(p, Fraction(q))

    @classmethod
    def _of(cls, p: int, q: Fraction, precision=math.inf) -> "PAdic":
        """The rational q known below precision, over a p proved prime before."""
        den, s = _strip(q.denominator, p)
        return cls._new(p, -s, q.numerator, den, precision)

    @classmethod
    def from_json(cls, obj) -> "PAdic":
        if not isinstance(obj, dict):
            raise ValueError(f"digits must be a JSON object, got {type(obj).__name__}")
        p, v, pre, per = obj["p"], obj["ord"], obj["preperiod"], obj["period"]
        if type(p) is not int or type(v) is not int:
            raise ValueError(f"digits p and ord must be integers, got {p!r} and {v!r}")
        if not (isinstance(pre, list) and isinstance(per, list) and all(type(d) is int for d in pre + per)):
            raise ValueError("digits preperiod and period must be lists of integers")
        require_ord_bits(p, v, f"digits ord {v} puts {p}**|ord|")
        return cls(p, v, pre, per)

    # -- digit views -----------------------------------------------------------

    def _below(self, n: int) -> int:
        """sum_{j<n} d_j p**(j - min(ord, 0)), the digits below n as one integer: the one checked read of digits."""
        if n > self.precision:
            raise self._beyond()
        v = self.ord
        if n <= v:
            return 0
        r = _mod_unit(self.num, self.den, self.p ** (n - v))
        return r * self.p**v if v > 0 else r

    def _beyond(self) -> PrecisionError:
        """The error of a read that needs digit x_H, H the precision: the one wording of an unknown digit."""
        H = self.precision
        return PrecisionError(f"digit x_{H} is beyond the known window (horizon {H})")

    def require_nonzero(self) -> None:
        """Refuse a zero: the exact zero has no inverse, and a window zero below its horizon H needs x_H for an ord."""
        if self.is_zero:
            if self.precision == math.inf:
                raise ZeroPAdicError("p-adic zero has no inverse")
            raise self._beyond()

    def _head(self, h: int) -> PFrac:
        """Exact digit sum  sum_{j <= h} d_j p**j."""
        return PFrac(self.p, self._below(h + 1), max(-self.ord, 0))

    def _expand(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """Minimal (ord, preperiod, period) of num/den's digits, all read in halves off num/den mod p**(U + L).

        Long division takes a carry state m, first num, to m' = (m - d*den)/p with the digit d = m/den mod p, so m/den
        is the value of the digits still to come, and after i digits m_i = (num - den*h_i)/p**i, h_i = num/den mod p**i.
        Those digits are purely periodic exactly when -den <= m <= 0: a block of L digits worth A, 0 <= A <= p**L - 1,
        repeats to -A/(p**L - 1) in [-1, 0]; and m/den in [-1, 0] is -A/(p**L - 1) for L the order of p mod den, with
        the integer A = -m*(p**L - 1)/den in [0, p**L - 1], whose L digits repeat.

        With U least such that p**U > X = max(num, -num - den), the integer m_U lies in [(num + den)/p**U - den,
        num/p**U], inside (-1 - den, 1), so the digits from U on are purely periodic.  For den > 1, m_U/den is in
        lowest terms, as gcd(m_U, den) = gcd(num, den) = 1 and den is prime to p, so a block of L' digits repeats from
        U exactly when den divides p**L' - 1: the least period is L, the order of p mod den (_order).  For den = 1, m_U
        is 0 or -1 and L = 1.  So d_j = d_(j+L) for every j >= U, and the minimal preperiod s is 1 + the last j < U with
        d_j != d_(j+L), or 0: digits purely periodic from s' on with some period L' repeat with L there too, as d_j =
        d_(j+kL') = d_(j+kL'+L) = d_(j+L) for j >= s' and j + kL' >= U, so s' >= s; and their least period from s on
        is L, as it is from U on.  No step runs a digit at a time on a den-sized integer.

        The display bound may refuse before any digit is read: if num > 0, m_s <= 0 needs den*h_s >= num, so p**s >
        num/den; if num < -den, m_s >= -den needs den*(p**s - h_s) >= -num > X, so p**s > X/den.  Both give p**s >
        p**(U - 1)/den, so s > U - 1 - log_p(den) > U - 1 - den.bit_length().  And den divides p**L - 1 for den > 1,
        so p**L > den, and den > p**MAX_EXPANSION puts L past the bound.  As p**MAX_EXPANSION >= 2**(MAX_EXPANSION *
        (p.bit_length() - 1)), that needs den.bit_length() > MAX_EXPANSION * (p.bit_length() - 1), which is checked
        first, so that p**MAX_EXPANSION is built only for such a den.  Past those, _order refuses exactly a period L
        past the bound before any digit is read, and s + L past it is refused once s is.
        """
        if not self.num:
            return 0, (), (0,)
        p, m, den = self.p, self.num, self.den
        x = max(m, -m - den)
        U = int(math.log(x, p)) + 1 if x > 0 else 0  # a float seed; the exact comparisons with P = p**U decide U
        P = p**U
        while U and P > x * p:
            U, P = U - 1, P // p
        while P <= x:
            U, P = U + 1, P * p
        if U - 1 - den.bit_length() >= MAX_EXPANSION or (
            den.bit_length() > MAX_EXPANSION * (p.bit_length() - 1) and den > p**MAX_EXPANSION
        ):
            raise ValueError(_TOO_LONG.format(MAX_EXPANSION, p))
        L = _order(p, den, MAX_EXPANSION) if den > 1 else 1
        if L > MAX_EXPANSION:
            raise ValueError(_TOO_LONG.format(MAX_EXPANSION, p))
        digits = _int_digits(_mod_unit(m, den, P * p**L), p, U + L)
        s = U
        while s and digits[s - 1] == digits[s - 1 + L]:
            s -= 1
        if s + L > MAX_EXPANSION:
            raise ValueError(_TOO_LONG.format(MAX_EXPANSION, p))
        return self.ord, tuple(digits[:s]), tuple(digits[s : s + L])

    @property
    def is_zero(self) -> bool:
        """Every known digit is zero: the exact zero, or a window zero to its precision."""
        return self.ord == self.precision

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
        """p**ord * num/den: the value, and for a window the one whose digits from the precision on are 0."""
        num, v = self.num, self.ord
        return Fraction(num * self.p ** max(v, 0), self.den * self.p ** max(-v, 0)) if num else Fraction(0)

    def to_json(self) -> dict:
        v, pre, per = self._expand()
        return {"p": self.p, "ord": v, "preperiod": list(pre), "period": list(per)}

    def truncate(self, n: int) -> "PAdic":
        """The same value with the digits at indices >= n unknown, i.e. known mod p**n."""
        if n >= self.precision:
            return self
        return PAdic._new(self.p, self.ord, self.num, self.den, n)

    def frac_part(self) -> PFrac:
        """Fractional part: the digits at negative indices, a value in [0,1) of Z[1/p]."""
        return self._head(-1)

    def truncate_sum(self, lo: int, hi: int) -> PFrac:
        """Exact window sum of digit(j) * p**j for lo <= j <= hi."""
        if lo > hi:
            return PFrac(self.p, 0)
        return self._head(hi) - self._head(lo - 1)

    # -- arithmetic (rational closure; windows keep what they can claim) ------

    def _coerce(self, other) -> "PAdic | None":
        """other as an exact PAdic over self's p, if it is not one; None for a type that is no value of Q_p."""
        p = self.p
        if isinstance(other, (PAdic, PFrac)) and other.p != p:
            raise ValueError(f"mixed primes {p} and {other.p}")
        if isinstance(other, PAdic):
            return other
        if isinstance(other, int):
            return PAdic._new(p, 0, other, 1)
        if isinstance(other, Fraction):
            return PAdic._of(p, other)
        if isinstance(other, PFrac):
            return PAdic._new(p, -other.k, other.j, 1)
        return None

    def _sum(self, other, s1: int, s2: int):
        """s1 * self + s2 * other known below the smaller precision: the unit parts aligned at the smaller ord."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, v1, n1, d1, v2, n2, d2 = self.p, self.ord, s1 * self.num, self.den, o.ord, s2 * o.num, o.den
        N = min(self.precision, o.precision)
        if not (n1 and n2):  # a zero term adds only its precision
            return PAdic._new(p, v1, n1, d1, N) if n1 else PAdic._new(p, v2, n2, d2, N)
        if v1 > v2:
            v1, n1, d1, v2, n2, d2 = v2, n2, d2, v1, n1, d1
        return PAdic._new(p, v1, n1 * d2 + n2 * d1 * p ** (v2 - v1), d1 * d2, N)

    def __add__(self, other):
        return self._sum(other, 1, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, 1, -1)

    def __rsub__(self, other):
        return self._sum(other, -1, 1)

    def __neg__(self):
        return PAdic._new(self.p, self.ord, -self.num, self.den, self.precision)

    def __mul__(self, other):
        """p**(ord1 + ord2) * num1*num2/(den1*den2) known below min(ord1 + precision2, ord2 + precision1), zeros too."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        v1, v2, N = self.ord, o.ord, min(self.ord + o.precision, o.ord + self.precision)
        return PAdic._new(self.p, v1 + v2, self.num * o.num, self.den * o.den, N)

    __rmul__ = __mul__

    def invert(self) -> "PAdic":
        """p**-ord * den/num known below precision - 2 * ord: ord flips sign and the relative precision is kept."""
        self.require_nonzero()
        return PAdic._new(self.p, -self.ord, self.den, self.num, self.precision - 2 * self.ord)

    # -- comparisons -----------------------------------------------------------

    def _key(self) -> tuple:
        return self.p, self.ord, self.num, self.den, self.precision

    def __eq__(self, other):
        if isinstance(other, PAdic):
            return self._key() == other._key()
        if isinstance(other, (int, Fraction)):
            return self == PAdic._of(self.p, Fraction(other))
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        known = "" if self.precision == math.inf else f", precision={self.precision}"
        if not self.num:
            return f"PAdic(p={self.p}, 0{known})"
        v, pre, per = self._expand()
        return f"PAdic(p={self.p}, ord={v}, pre={list(pre)}, per={list(per)}{known})"
