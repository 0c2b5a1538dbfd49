"""Exact arithmetic substrate: rationals, p-power fractions, quadratic irrationals.

Every value here is immutable and every operation is exact; no floating point
enters any arithmetic or comparison path.  Floats appear only on explicit
lowering (``float(x)``), for the float reference of the tests and the
benchmark; no check reads one.

Fraction is the package's input and output type: it is parsed here, read as
an operand and by == and hash, and built for display.  Between the layers a
rational travels only in its integer normal form, a PFrac, a QuadReal or a
PAdic; _parts reads a PFrac or a QuadReal operand as integers, making no Fraction.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

class RadicandMismatchError(ValueError):
    """Arithmetic tried to combine surds over two different radicands."""


def _strip(n: int, p: int) -> tuple[int, int]:
    """(n / p**e, e) with e the exponent of p in the nonzero integer n; ValueError for 0, which p divides forever."""
    if not n:
        raise ValueError("the exponent of p in 0 is unbounded")
    if p == 2:
        # n & -n is the lowest set bit of n, which is 2**e
        e = (n & -n).bit_length() - 1
        return n >> e, e
    if n % p:
        return n, 0
    n, e = n // p, 1  # p divides most such n once: a first test of p**2 would be wasted
    while n % p == 0:
        # divide by p, p**2, p**4, ... while they divide: O(log(e)**2) divisions, not e
        pk, k = p, 1
        while n % pk == 0:
            n //= pk
            e += k
            pk, k = pk * pk, 2 * k
    return n, e


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3_317_044_064_679_887_385_961_981  # the bases 2..41 decide every n below this


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError for an n it cannot decide (n >= MR_LIMIT)."""
    for b in _MR_BASES:  # small-prime fast path: trial division by the bases themselves
        if n % b == 0:
            return n == b
    if n < 43 * 43:
        return n > 1
    if n >= MR_LIMIT:
        raise ValueError(f"primality of {n} is decided only below {MR_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    """The one primality check on outside input: ValueError unless is_prime(p)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


# Fraction(text) multiplies out a decimal exponent before any bound can see the value ("1e100000000"
# runs for minutes), so a literal is measured as written first.  Its numerator and denominator, and each
# integer of a surd literal, may have at most MAX_LITERAL_DIGITS digits, the limit Python already puts on
# the digit strings int() reads
MAX_LITERAL_DIGITS = 4300
_LITERAL_RE = re.compile(r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?(?:[eE]([-+]?)([\d_]+))?\s*(?:/\s*([\d_]+)\s*)?\Z")


def _check_literal_digits(digits: int) -> None:
    if digits > MAX_LITERAL_DIGITS:
        raise ValueError(f"each integer of a literal (a rational's numerator and denominator, a surd's coefficients "
                         f"and radicand) may have at most MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS} digits as written")


_ZERO_DEN = "the literal {!r} has a zero denominator"


def parse_rational(text: str) -> Fraction:
    """Fraction(text), once its numerator and denominator as written fit MAX_LITERAL_DIGITS digits."""
    m = _LITERAL_RE.match(text)
    if m:
        whole, frac, sign, exp, den = (g.replace("_", "") if g else "" for g in m.groups())
        exp = exp.lstrip("0")
        # an exponent of six digits or more is past the bound on one side or the other, however it is written
        shift = (int(exp or 0) if len(exp) < 6 else 10**6) * (-1 if sign == "-" else 1) - len(frac)
        _check_literal_digits(max(len(whole + frac) + max(shift, 0), len(den) or max(-shift, 0) + 1))
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(_ZERO_DEN.format(text.strip())) from None


class PFrac:
    """Element j / p**k of Z[1/p], stored in reduced form.

    Reduced means k is minimal: either k = 0 or p does not divide j.
    """

    __slots__ = ("p", "j", "k")

    def __init__(self, p: int, j: int, k: int = 0):
        if p < 2:
            raise ValueError(f"base must be at least 2, got {p}")
        if k < 0:
            raise ValueError(f"exponent must be nonnegative, got {k}")
        if k and not j % p:
            r, e = _strip(j, p) if j else (0, k)
            j, k = (r, k - e) if e <= k else (j // p**k, 0)
        self.p = p
        self.j = j
        self.k = k

    @classmethod
    def from_fraction(cls, p: int, q) -> "PFrac":
        q = Fraction(q)
        den, k = _strip(q.denominator, p)
        if den != 1:
            raise ValueError(f"{q} is not a p-power fraction for p={p}")
        return cls(p, q.numerator, k)

    def as_fraction(self) -> Fraction:
        return Fraction(self.j, self.p**self.k)

    def _check(self, other: "PFrac") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed bases {self.p} and {other.p}")

    def __add__(self, other):
        if isinstance(other, int):
            other = PFrac(self.p, other)
        if not isinstance(other, PFrac):
            return NotImplemented
        self._check(other)
        k = max(self.k, other.k)
        j = self.j * self.p ** (k - self.k) + other.j * self.p ** (k - other.k)
        return PFrac(self.p, j, k)

    __radd__ = __add__

    def __neg__(self):
        return PFrac(self.p, -self.j, self.k)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, int):
            return PFrac(self.p, self.j * other, self.k)
        if not isinstance(other, PFrac):
            return NotImplemented
        self._check(other)
        return PFrac(self.p, self.j * other.j, self.k + other.k)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return self.j != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, PFrac):
            return (self.p, self.j, self.k) == (other.p, other.j, other.k)
        if isinstance(other, (int, Fraction)):
            return self.as_fraction() == other
        return NotImplemented

    def __hash__(self):
        return hash(self.as_fraction())

    def __str__(self) -> str:
        if self.k == 0:
            return str(self.j)
        if self.k == 1:
            return f"{self.j}/{self.p}"
        return f"{self.j}/{self.p}^{self.k}"

    def __repr__(self) -> str:
        return f"PFrac(p={self.p}, {self})"


# _square_split factors by trial division, about sqrt(D)/2 steps: a prime radicand just below
# this bound takes about 0.16 s to parse
MAX_RADICAND = 10**12


def _square_split(n: int) -> tuple[int, int]:
    """Write n = s*s * core with core squarefree; return (s, core)."""
    s, core = 1, 1
    f = 2
    while f * f <= n:
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        s *= f ** (e // 2)
        core *= f ** (e % 2)
        f += 1 if f == 2 else 2
    return s, core * n


class QuadReal:
    """Exact real (A + B*sqrt(D))/M with integers A, B, M and squarefree radicand D >= 0.

    Normal form: M > 0, gcd(A, B, M) = 1, and B = 0 exactly when D = 0, so
    rational values carry D = 0 and equal values have equal fields.  Operands
    with two different irrational radicands are rejected
    (RadicandMismatchError); the radicand is a per-context constant.  Order
    comparisons are decided exactly by integer squaring, never by floating
    point.

    Arithmetic reads the other operand as the four integers of its normal
    form and normalises its result once.  + - and * read a QuadReal or int
    operand in place, with the radicand check, and build their result
    themselves; every other operand goes through _parts, and / through _div
    and _quad.  Adding an integer k, and negation, keep the normal form with
    no gcd: a common divisor of B and M divides A + kM exactly when it
    divides A, so gcd(A + kM, B, M) = gcd(A, B, M) = 1, and gcd(-A, -B, M) =
    gcd(A, B, M), with M > 0 kept.
    """

    __slots__ = ("A", "B", "M", "D")

    def __init__(self, a=0, b=0, D: int = 0):
        if type(a) is float and not b and not D:
            # a float is a dyadic rational, and as_integer_ratio gives it in lowest terms with a positive
            # denominator (OverflowError for an infinity, ValueError for a nan, as Fraction raises)
            self.A, self.M = a.as_integer_ratio()
            self.B = self.D = 0
            return
        a = a if isinstance(a, (int, Fraction)) else Fraction(a)
        b = b if isinstance(b, (int, Fraction)) else Fraction(b)
        D = int(D)
        if D < 0:
            raise ValueError(f"radicand must be nonnegative, got {D}")
        M = math.lcm(a.denominator, b.denominator)
        A = a.numerator * (M // a.denominator)
        B = b.numerator * (M // b.denominator)
        if B and D > 1:
            if D > MAX_RADICAND:
                raise ValueError(f"radicand must be at most MAX_RADICAND = {MAX_RADICAND}, got {D}")
            s, D = _square_split(D)
            B *= s
        if D <= 1 or not B:
            # sqrt(D) is 0 or 1 here, or it has no coefficient
            A += B * D
            B = D = 0
        g = math.gcd(A, B, M)
        self.A, self.B, self.M, self.D = A // g, B // g, M // g, D

    @classmethod
    def sqrt_of(cls, D: int) -> "QuadReal":
        return cls(0, 1, D)

    # -- ring / field operations -------------------------------------------

    def _add(self, other, sign: int) -> "QuadReal":
        """self + sign*other, normalised and built here: one gcd, none for an integer other."""
        A0, B0, M0, D = self.A, self.B, self.M, self.D
        x = object.__new__(QuadReal)
        if type(other) is int:
            x.A, x.B, x.M, x.D = A0 + sign * other * M0, B0, M0, D
            return x
        if type(other) is QuadReal:
            A, B, M = other.A, other.B, other.M
            if other.D != D:
                D = _radicand(D, other.D)
        else:
            o = _parts(other, D)
            if o is None:
                return NotImplemented
            A, B, M, D = o
        if M == 1 and not B:
            x.A, x.B, x.M, x.D = A0 + sign * A * M0, B0, M0, D
            return x
        A, B, M = A0 * M + sign * A * M0, B0 * M + sign * B * M0, M0 * M
        g = math.gcd(A, B, M)
        x.A, x.B, x.M, x.D = A // g, B // g, M // g, D if B else 0
        return x

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _new(-self.A, -self.B, self.M, self.D)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self)._add(other, 1)

    def __mul__(self, other):
        """self * other, normalised and built here: one gcd, on k and M alone for an integer other k."""
        A0, B0, M0, D = self.A, self.B, self.M, self.D
        x = object.__new__(QuadReal)
        if type(other) is int:
            # gcd(kA, kB, M) = gcd(k gcd(A, B), M) = gcd(k, M), since gcd(A, B) is prime to M
            g = math.gcd(other, M0)
            x.A, x.B, x.M, x.D = A0 * other // g, B0 * other // g, M0 // g, D if other else 0
            return x
        if type(other) is QuadReal:
            A, B, M = other.A, other.B, other.M
            if other.D != D:
                D = _radicand(D, other.D)
        else:
            o = _parts(other, D)
            if o is None:
                return NotImplemented
            A, B, M, D = o
        A, B, M = A0 * A + B0 * B * D, A0 * B + B0 * A, M0 * M
        g = math.gcd(A, B, M)
        x.A, x.B, x.M, x.D = A // g, B // g, M // g, D if B else 0
        return x

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _parts(other, self.D)
        return NotImplemented if o is None else _div(self.A, self.B, self.M, *o)

    def __rtruediv__(self, other):
        o = _parts(other, self.D)
        if o is None:
            return NotImplemented
        A, B, M, D = o
        return _div(A, B, M, self.A, self.B, self.M, D)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return 1 / self**(-n)
        out = _new(1, 0, 1, 0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- exact order --------------------------------------------------------

    def _cmp(self, other) -> int:
        """The sign of self - other: that of its numerator over M1 M2 > 0, read with no gcd."""
        o = _parts(other, self.D)
        if o is None:
            raise TypeError(f"cannot compare QuadReal with {type(other).__name__}")
        A, B, M, D = o
        A, B = self.A * M - A * self.M, self.B * M - B * self.M
        if B == 0 or A == 0 or (A > 0) == (B > 0):
            s = A or B
            return (s > 0) - (s < 0)
        # A and B have opposite signs: the larger of A^2 and B^2 D wins
        return 1 if (A * A > B * B * D) == (A > 0) else -1

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if type(other) is QuadReal:
            return self.A == other.A and self.B == other.B and self.M == other.M and self.D == other.D
        o = _parts(other)  # no radicand check: values over two radicands are unequal
        return NotImplemented if o is None else (self.A, self.B, self.M, self.D) == o

    def __hash__(self):
        if self.B == 0:
            return hash(self.A) if self.M == 1 else hash(Fraction(self.A, self.M))
        return hash((self.A, self.B, self.M, self.D))

    def __bool__(self):
        return bool(self.A or self.B)

    def __floor__(self) -> int:
        return _floor(self.A, self.B, self.M, self.D)

    def __ceil__(self) -> int:
        # an irrational value lies strictly between its floor and the next integer
        return -(-self.A // self.M) if self.B == 0 else self.__floor__() + 1

    def __float__(self) -> float:
        # int / int is correctly rounded, so each term equals float(Fraction(., M))
        return self.A / self.M + self.B / self.M * math.sqrt(self.D)

    # -- views ---------------------------------------------------------------

    def as_int(self) -> int | None:
        """self as an int, or None when it is no integer.

        By the normal form, self is rational exactly when B == 0, and then
        gcd(A, M) = 1, so M divides A exactly when M == 1.
        """
        return self.A if self.B == 0 and self.M == 1 else None

    def discriminant(self) -> int:
        """Discriminant of the primitive integer quadratic with root self; 0 for a rational.

        (M x - A)^2 = B^2 D gives M^2 x^2 - 2AM x + A^2 - B^2 D, of discriminant
        4 B^2 D M^2 before its content g is divided out.
        """
        A, B, M, D = self.A, self.B, self.M, self.D
        g = math.gcd(M * M, 2 * A * M, A * A - B * B * D)
        return 4 * D * (B * M) ** 2 // (g * g)

    def as_fraction(self) -> Fraction:
        if self.B != 0:
            raise ValueError(f"{self} is irrational")
        return Fraction(self.A, self.M)

    def __str__(self) -> str:
        if self.B == 0:
            return str(self.A) if self.M == 1 else f"{self.A}/{self.M}"
        sign = "+" if self.B >= 0 else "-"
        return f"({self.A} {sign} {abs(self.B)}*sqrt({self.D}))/{self.M}"

    def __repr__(self) -> str:
        return f"QuadReal({self})"

    # a denominator needs the parenthesized form: "1+sqrt(2)/3" is not read as (1+sqrt(2))/3
    _QUAD_RE = re.compile(
        r"(\()?(-?\d+)([+-])(?:(\d+)\*)?sqrt\((\d+)\)(?(1)\)(?:/(-?\d+))?)"
    )
    _SURD_RE = re.compile(r"(-?\d*)\*?sqrt\((\d+)\)(?:/(-?\d+))?")

    @classmethod
    def parse(cls, text: str) -> "QuadReal":
        """Accept "(a + b*sqrt(D))/c" (b* may be left out), bare surds like "sqrt(2)", and rationals; no other surd.

        Every integer is measured against MAX_LITERAL_DIGITS before int() reads it.
        """
        s = text.strip().replace(" ", "").replace("−", "-")

        def num(digits: str) -> int:
            _check_literal_digits(len(digits.lstrip("-")))
            return int(digits)

        def den_of(digits: str | None) -> int:
            den = num(digits) if digits else 1
            if not den:
                raise ValueError(_ZERO_DEN.format(s))
            return den

        m = cls._QUAD_RE.fullmatch(s)
        if m:
            _, a, sign, b, D, c = m.groups()
            den = den_of(c)
            bb = num(b or "1") * (1 if sign == "+" else -1)
            return cls(Fraction(num(a), den), Fraction(bb, den), num(D))
        m = cls._SURD_RE.fullmatch(s)
        if m:
            b, D, c = m.groups()
            den = den_of(c)
            bb = -1 if b == "-" else (1 if b in ("", "+") else num(b))
            return cls(0, Fraction(bb, den), num(D))
        if "sqrt" in s:
            raise ValueError(f"the literal {s!r} is not (a + b*sqrt(D))/c, a + b*sqrt(D) or b*sqrt(D)/c")
        return cls(parse_rational(s))


def _parts(x, D: int = 0) -> tuple[int, int, int, int] | None:
    """The exact real x as the integers (A, B, M, D') of its normal form, building no QuadReal; else None.

    D' is the radicand x shares with a value over D (0 when that is rational),
    so the caller reads its operands over one field: RadicandMismatchError
    if x and that value are irrational over two different radicands.
    """
    if isinstance(x, QuadReal):
        return x.A, x.B, x.M, x.D if x.D == D else _radicand(D, x.D)
    if isinstance(x, (int, Fraction)):
        return x.numerator, 0, x.denominator, D
    if isinstance(x, PFrac):
        M = x.p**x.k
        g = math.gcd(x.j, M)  # 1 unless p is composite
        return x.j // g, 0, M // g, D
    return None


def _radicand(D1: int, D2: int) -> int:
    """The radicand of a result of operands over D1 and D2 (0 for a rational); RadicandMismatchError for two surds."""
    if D1 and D2 and D1 != D2:
        raise RadicandMismatchError(f"sqrt({D1}) vs sqrt({D2})")
    return D1 or D2


def _new(A: int, B: int, M: int, D: int) -> QuadReal:
    """The QuadReal of integers already in normal form."""
    x = object.__new__(QuadReal)
    x.A, x.B, x.M, x.D = A, B, M, D if B else 0
    return x


def _quad(A: int, B: int, M: int, D: int) -> QuadReal:
    """An arithmetic result (A + B*sqrt(D))/M, M != 0, over an already squarefree D, in normal form."""
    if M < 0:
        A, B, M = -A, -B, -M
    g = math.gcd(A, B, M)
    return _new(A // g, B // g, M // g, D)


def _div(A1: int, B1: int, M1: int, A2: int, B2: int, M2: int, D: int) -> QuadReal:
    """(A1 + B1 sqrt D)/M1 over (A2 + B2 sqrt D)/M2 = M2 (A1 + B1 sqrt D)(A2 - B2 sqrt D) / (M1 norm)."""
    # the norm A2^2 - B2^2 D vanishes only at 0, because D is squarefree
    norm = A2 * A2 - B2 * B2 * D
    if norm == 0:
        raise ZeroDivisionError("QuadReal division by zero")
    return _quad(M2 * (A1 * A2 - B1 * B2 * D), M2 * (B1 * A2 - A1 * B2), M1 * norm, D)


def _floor(A: int, B: int, M: int, D: int) -> int:
    """floor((A + B sqrt D)/M) for M > 0 and a squarefree D (D > 1 when B != 0): one isqrt.

    B sqrt D is no integer, so it lies strictly between s = isqrt(B^2 D) and s + 1 when B > 0, and between -s - 1
    and -s when B < 0; floor((A + t)/M) = floor(A + t) // M.
    """
    if not B:
        return A // M
    s = math.isqrt(B * B * D)
    return (A + s) // M if B > 0 else (A - s - 1) // M


def frac1(x) -> QuadReal:
    """Reduce an exact real mod 1 into [0, 1)."""
    if isinstance(x, QuadReal):
        q = x
    else:
        o = _parts(x)
        if o is None:
            raise TypeError(f"cannot reduce {type(x).__name__} mod 1")
        q = _new(*o)
    f = math.floor(q)
    return q - f if f else q
