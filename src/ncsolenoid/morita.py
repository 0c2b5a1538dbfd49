"""Morita partner constructions and the equivalence certificate search.

Two routes to a partner sequence are implemented and cross-checked, each a
MobiusPair acting on (theta, -x), (f 1; 1 0) and (a0 b0; c0 d0):

* the Heisenberg route beta_n = 1/(theta p^n) + (sum of inverse digits)/p^n,
* the projection route through trace lines (c_{2n}, d_{2n}) and a Bezout
  completion normalized into [0,1), stage by stage (projection_partner) or
  as one exact spec (partner_spec), by which certificate_search decides.

The displayed closed forms of the special-case comparison use a Bezout pair
of determinant -1; the det +1 normalization lands on the mod-1 negative of
the Heisenberg value (the two rotation algebras are isomorphic).  Both paths
are kept; nothing is folded silently.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass

from .exactnum import QuadReal, _strip
from .padic import _mod_unit
from .solenoid import MobiusPair, SolenoidSpec, _alpha, alphas, beyond_horizon, level_table, truncate_spec

log = logging.getLogger(__name__)


class ConditionError(ValueError):
    """The projection data fails the coprimality condition; carries a witness."""

    def __init__(self, message: str, witness: tuple[int, int, int]):
        super().__init__(message)
        self.witness = witness  # (n, c_2n, d_2n) with gcd > 1


@dataclass(frozen=True)
class ProjectionData:
    """Projection bookkeeping: matrix size m, trace-line coefficients c0 != 0, d0."""

    m: int
    c0: int
    d0: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"matrix size must be positive, got {self.m}")
        if self.c0 == 0:
            raise ValueError("c0 must be nonzero")


@dataclass(frozen=True)
class TraceLine:
    """Level-n trace-line coefficients: tau = c_2n * alpha_2n + d_2n."""

    n: int
    c: int
    d: int


def condition_check(p: int, proj: ProjectionData, x0: int) -> bool:
    """gcd(c0 * p, d0 - c0 * x0) == 1, with gcd(a, 0) = |a|."""
    return math.gcd(proj.c0 * p, proj.d0 - proj.c0 * x0) == 1


def _line(p: int, proj: ProjectionData, n: int, h: int) -> TraceLine:
    return TraceLine(n, proj.c0 * p ** (2 * n), proj.d0 - proj.c0 * h)


def trace_line(spec: SolenoidSpec, proj: ProjectionData, n: int) -> TraceLine:
    """Coefficients at level 2n: c = c0 p^(2n), d = d0 - c0 * h_2n."""
    return _line(spec.p, proj, n, spec.head(2 * n))


def ab_normalized(line: TraceLine, alpha_2n: QuadReal, tau: QuadReal) -> tuple[MobiusPair, QuadReal]:
    """Complete (c, d) to determinant +1, shifted so the image lies in [0,1); return it and the image.

    tau must be the trace value alpha_2n * c + d.  a = d**-1 mod c gives
    a*d - b*c = 1 with the integer b = (a*d - 1) / c.  Every det +1
    completion is (a + l*c, b + l*d) for an integer l: another one (a', b')
    has (a' - a)*d = (b' - b)*c with gcd(c, d) = 1.  Replacing (a, b) by
    (a + l*c, b + l*d) shifts the Mobius image by l, so the completion with
    image in [0,1) is unique, whichever one the inverse gives, and its image
    is the unshifted one plus l.
    """
    c, d = line.c, line.d
    if math.gcd(c, d) != 1:
        raise ConditionError(f"trace line ({c}, {d}) is not coprime", witness=(line.n, c, d))
    a = pow(d, -1, c)
    b = (a * d - 1) // c
    beta = (alpha_2n * a + b) / tau
    shift = -math.floor(beta)
    return MobiusPair(a + shift * c, b + shift * d, c, d), beta + shift


def heisenberg_partner_spec(spec: SolenoidSpec) -> SolenoidSpec:
    """Partner spec from the pairing construction: the matrix (j p^k; p^k 0) acts, k = ord x.

    theta' = 1/theta + f collects the fractional digits f = j/p^k of x^-1; the
    digit stream is x^-1 - f, the integer part.  For x a p-adic unit this is
    exactly (1/theta, x^-1), and applying the construction twice returns the
    original spec.
    """
    if not spec.theta:
        raise ValueError("theta must be nonzero")
    if spec.digits.is_zero:
        H = spec.digits.precision
        if H < math.inf:  # a window zero to its horizon H: its order needs digit x_H or a later one
            raise beyond_horizon(H)
        raise ValueError("digit stream x must be nonzero")
    x, q = spec.digits, spec.p**spec.digits.ord
    return MobiusPair(_mod_unit(x.den, x.num, q), q, q, 0).act(spec)


def heisenberg_partner(spec: SolenoidSpec, N: int) -> tuple[tuple[int, QuadReal], ...]:
    """The window ((n, beta_n) for 0 <= n <= N), beta_n = 1/(theta p^n) + (sum_{j=-v}^{n-1} y_j p^j)/p^n."""
    return alphas(heisenberg_partner_spec(spec), N)


def checked_trace(spec: SolenoidSpec, proj: ProjectionData) -> QuadReal:
    """The trace tau = c0*alpha_0 + d0, once 0 < tau < m (ValueError otherwise) and the coprimality condition hold.

    A failing condition shows at level n <= 1, which is raised as the witness:
    a prime dividing c0 divides d0 too (n = 0), and p dividing d0 - c0*x0
    divides d_2 = d0 - c0*(x0 + x1*p) as well (n = 1).
    """
    tau = spec.theta * proj.c0 + proj.d0
    if not (QuadReal(0) < tau < QuadReal(proj.m)):
        raise ValueError(f"trace {tau} outside (0, {proj.m})")
    if not condition_check(spec.p, proj, spec.x(0)):
        lines = (trace_line(spec, proj, n) for n in (0, 1))
        line = next(L for L in lines if math.gcd(L.c, L.d) != 1)
        raise ConditionError(
            f"projection (c0={proj.c0}, d0={proj.d0}) fails the coprimality condition; "
            f"witness gcd(c_{2 * line.n}, d_{2 * line.n}) > 1",
            witness=(line.n, line.c, line.d),
        )
    return tau


def stage(
    p: int, proj: ProjectionData, n: int, level: tuple[QuadReal, int], tau: QuadReal
) -> tuple[TraceLine, MobiusPair, QuadReal]:
    """Level-n trace line, normalized Mobius pair and beta_2n in [0,1), from level_table's (alpha_2n, h_2n).

    The trace value alpha_2n * c_2n + d_2n is level-independent; a level
    where it differs from tau raises ArithmeticError.
    """
    alpha, h = level
    line = _line(p, proj, n, h)
    if alpha * line.c + line.d != tau:
        raise ArithmeticError(f"trace value at level {n} differs from tau = {tau}")
    mob, beta = ab_normalized(line, alpha, tau)
    return line, mob, beta


def projection_partner(spec: SolenoidSpec, proj: ProjectionData, N: int) -> tuple[tuple[int, QuadReal], ...]:
    """The even-index window ((2n, beta_2n) for n <= N) of normalized Mobius images in [0,1), one stage per level."""
    tau = checked_trace(spec, proj)  # before level_table: a failing condition wins over a horizon error
    levels = enumerate(level_table(spec, N))
    return tuple((2 * n, stage(spec.p, proj, n, level, tau)[2]) for n, level in levels)


def partner_spec(spec: SolenoidSpec, proj: ProjectionData) -> SolenoidSpec:
    """The partner tower as one exact spec (beta_0, y): projection_partner's beta_2n is frac1 of its alpha_2n.

    (a0 b0; c0 d0) and beta_0 are ab_normalized's pair and image at level 0,
    and y = (a0 x - b0)/(d0 - c0 x) for the digit stream x: the pair acts on
    the spec.  Proof: level 2n's det +1 pair (a b; c0 P, d), P = p^(2n), gives
    (a alpha + b)/tau = a/(c0 P) - 1/(c0 P tau), so P beta_2n = beta_0 + z
    mod P, with z = (a - a0)/c0 an integer (a and a0 both invert d0 mod c0).
    With u = d0 - c0 x, a p-adic unit by the Condition, c0 y + a0 = 1/u and
    (z - y) u = b P - a (x - h_2n) = 0 mod P.
    """
    return _partner_spec(spec, proj, checked_trace(spec, proj))


def _partner_spec(spec: SolenoidSpec, proj: ProjectionData, tau: QuadReal) -> SolenoidSpec:
    """partner_spec for a projection whose trace tau checked_trace has already passed: ab_normalized's pair acts."""
    return ab_normalized(TraceLine(0, proj.c0, proj.d0), spec.theta, tau)[0].act(spec)


def displayed_mobius(spec: SolenoidSpec, n: int) -> MobiusPair:
    """Closed-form coefficients of the unit special case (c0=1, d0=0).

    a = sum_{j<2n} y_j p^j, d = -sum_{j<2n} x_j p^j, c = p^(2n),
    b = (a*d + 1)/p^(2n); b is an integer because the digit windows of x and
    x^-1 multiply to 1 mod p^(2n).  The determinant of this pair is -1.
    """
    if spec.x(0) == 0:  # x_0 past a horizon of 0 is named as such
        raise ValueError("closed forms need x_0 != 0 (x a p-adic unit)")
    c = spec.p ** (2 * n)
    d = -spec.head(2 * n)
    a = spec.digits.invert()._below(2 * n)  # y is a unit known as far as x: head(2n) checked the window
    b, r = divmod(a * d + 1, c)
    if r:
        raise ArithmeticError(f"b at level {n} is not an integer: {a * d + 1}/{c}")
    return MobiusPair(a, b, c, d)


def relate_check(spec: SolenoidSpec, N: int) -> bool:
    """Verify the closed-form projection route equals the Heisenberg route.

    For each n <= N the displayed Mobius image of alpha_2n must equal the
    Heisenberg beta_2n exactly.  The determinant of the displayed pair is
    checked and logged: it is -1, so the det +1 normalization of
    projection_partner lands on the mod-1 negative of these values.
    """
    if not spec.theta:
        raise ValueError("theta must be nonzero")
    if spec.x(0) == 0:  # x_0 past a horizon of 0 is named as such
        raise ValueError("comparison needs x_0 != 0")
    partner = heisenberg_partner_spec(spec)
    for n, ((alpha, _), (beta, _)) in enumerate(zip(level_table(spec, N), level_table(partner, N))):
        mob = displayed_mobius(spec, n)
        if mob.det != -1:
            raise ArithmeticError(f"unexpected determinant {mob.det} at level {n}")
        if mob.apply(alpha) != beta:
            return False
    log.info(
        "closed-form pair has determinant -1 at all checked levels; "
        "det +1 normalization differs by the beta -> -beta flip mod 1"
    )
    return True


# -- certificate search --------------------------------------------------------


# The deepest tower level a search reads is k + 2*entries, for the deepest truncation k it reads; the cost of
# each stage grows with it, fastest at the largest prime.
MAX_SEARCH_LEVEL = 32
# A search reads c0 = 1..max_c0, each with at most 4 d0 solved from entry 0, on the truncations k = 0, 2, ..., k:
# at most this many c0 values, (k//2 + 1) * max_c0, in all.  At the largest prime below exactnum.MR_LIMIT, an
# exhaustive search of this many takes about 0.1-0.2 s end to end (x = 3/5; theta = sqrt(2) - 1 against its det 1
# image 2 - sqrt(2)/2, or against itself with other digits, at entries = 16 and max_c0 = 1000; or theta = 1/3
# against 2/97, all 17 truncations at entries = 0 and max_c0 = 58), within a 2 s budget.
MAX_SEARCH_CANDIDATES = 1000


@dataclass(frozen=True)
class SearchBounds:
    max_c0: int = 4
    entries: int = 8

    def __post_init__(self):
        for name, low in (("max_c0", 1), ("entries", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if self.max_c0 > MAX_SEARCH_CANDIDATES:
            raise ValueError(f"max_c0 = {self.max_c0} exceeds MAX_SEARCH_CANDIDATES = {MAX_SEARCH_CANDIDATES}")
        if 2 * self.entries > MAX_SEARCH_LEVEL:
            raise ValueError(f"2*entries = {2 * self.entries} exceeds MAX_SEARCH_LEVEL = {MAX_SEARCH_LEVEL}")


@dataclass(frozen=True)
class CertificateResult:
    """Outcome of the equivalence search.

    status is "impossible" (an exact invariant separates the algebras: reason
    names it, "prime", "field" or "discriminant" as in invariants(), and
    invariants holds its values for a and b), "found" (a witness projection
    and truncation), or "inconclusive" (the invariants agree and the bounded
    search is exhausted; NOT a proof of inequivalence).  A found precision H
    says the partner tower is proved up to level H, the smaller digit
    precision of a's truncation and b; math.inf says it is proved at every
    level.
    """

    status: str
    c0: int | None = None
    d0: int | None = None
    m: int | None = None
    k: int | None = None
    matched_entries: tuple[int, ...] | None = None
    orientation: str | None = None
    reason: str | None = None
    invariants: tuple[int, int] | None = None
    precision: float = math.inf

    def certificate_json(self) -> dict:
        if self.status != "found":
            raise ValueError(f"no certificate for status {self.status!r}")
        return {
            "c0": self.c0,
            "d0": self.d0,
            "m": self.m,
            "k": self.k,
            "matched_entries": list(self.matched_entries or ()),
            "precision": "every level" if self.precision == math.inf else self.precision,
        }

    def to_json(self) -> dict:
        out: dict = {"status": self.status}
        if self.status == "found":
            out["certificate"] = self.certificate_json()
            out["orientation"] = self.orientation
        if self.reason is not None:
            out["reason"] = self.reason
            out["invariants"] = {side: _printable(v) for side, v in zip("ab", self.invariants)}
        return out


def _printable(n: int) -> int | str:
    # a discriminant of a long theta can pass Python's 4300-digit int-to-str limit; 14 000 bits stay below it
    return n if n.bit_length() <= 14_000 else f"{n.bit_length()}-bit integer"


def invariants(spec: SolenoidSpec) -> dict[str, int]:
    """The exact invariants certificate_search compares, in the order it compares them.

    "prime" is p, "field" the squarefree radicand D of theta's field (0 for a
    rational theta), and "discriminant" the discriminant of theta's primitive
    integer quadratic with every factor p^2 divided out.
    """
    disc = spec.theta.discriminant()
    if disc:
        disc, e = _strip(disc, spec.p)
        disc *= spec.p ** (e % 2)
    return {"prime": spec.p, "field": spec.theta.D, "discriminant": disc}


def _entry0_rows(alpha: QuadReal, theta: QuadReal, max_c0: int) -> Iterator[tuple[int, int]]:
    """Rows (c0, d0), d0 ascending, whose det +1 image of alpha can be +-theta mod 1 (see certificate_search)."""
    A, B, M = alpha.A, alpha.B, alpha.M
    q, r = divmod(B * M * theta.M, theta.B or 1)
    shifts = (q, -q) if B and not r else ()
    for c0 in range(1, max_c0 + 1):
        xs = set() if B else {theta.M}
        for R in (c0 * c0 * B * B * alpha.D + t for t in shifts):
            x = math.isqrt(max(R, 0))
            if x * x == R:
                xs |= {x, -x}
        for X in sorted(xs):  # M > 0, so d0 ascends with X
            d0, rem = divmod(X - c0 * A, M)
            if not rem:
                yield c0, d0


def certificate_search(a: SolenoidSpec, b: SolenoidSpec, bounds: SearchBounds = SearchBounds()) -> CertificateResult:
    """Semidecision for Morita equivalence of the two solenoids.

    Different primes are rejected immediately (K1 obstruction), and so are
    thetas with a different field or discriminant (see invariants()).  By the
    paper's main result an equivalence gives a partner whose entries are
    det +-1 Mobius images of alpha^a_{k+2n} = (theta_a + h)/p^(k+2n), and b's
    theta is +-beta_0 mod 1.  Integer translation, negation and GL2(Z) each
    preserve the field and the primitive discriminant.  Dividing by p^j
    multiplies the discriminant by p^(2j) and divides it by the square of the
    content this introduces, which divides p^(2j): an even power of p either
    way, which the p^2 stripping removes.

    When the invariants agree, candidate projections (c0, d0) on even
    truncations k of `a` are enumerated lexicographically (d0 solved, below),
    and the first whose partner_spec (beta_0, y) is b's sequence directly or
    through the mod-1 flip (s = +1, then -1) is returned: beta_0 - s theta_b
    is an integer N and s x_b - y = N.  That is the whole tower; where a's
    truncation or b is a digit window, the equation holds mod p^H, H the
    smaller precision, so a `found` proves the tower up to level H.

    A direct limit does not depend on its first terms, so the offset k is
    found, not chosen: every even k is read up to the deepest whose levels
    k..k+2*entries stay within MAX_SEARCH_LEVEL and, with the Condition's
    digit x_k, within a's digit precision, and whose (k/2 + 1) * max_c0 values
    of c0 are at most MAX_SEARCH_CANDIDATES, the budget the constants are
    sized by.

    A truncation k whose alpha = alpha^a_k has an exact discriminant (not
    p^2-stripped) other than theta_b's is skipped before it is built.  At k,
    a candidate's beta_0 = (a'alpha + b')/(c0 alpha + d0) + shift, with
    (a' b'; c0 d0) the det +1 completion of ab_normalized at level 0, is a
    GL2(Z) image of alpha.  GL2(Z), integer translation and negation carry
    the primitive integer quadratic of a quadratic irrational to that of its
    image, with the same discriminant.  The equation needs beta_0 = s theta_b
    mod 1 (entry 0), so a different discriminant fails every candidate at k,
    and the skip changes no found or impossible result.  A rational theta has
    discriminant 0 at every k, so nothing is skipped there.

    Nor is d0 chosen: it is a root of entry 0 (_entry0_rows).  Say g.alpha =
    s theta_b + n, g of det +1 with bottom row (c0, d0), s = +-1, n in Z; T^-n g
    has the same row.  Conjugation commutes with it, so s (theta_b - theta_b') =
    (alpha - alpha')/N(tau), tau = c0 alpha + d0.  With alpha = (A + B sqrt(D))/M,
    theta_b = (A_b + B_b sqrt(D))/M_b and X = c0 A + d0 M, that is
    X^2 = c0^2 B^2 D + s B M M_b / B_b.  SL2(Z) keeps a rational alpha = A/M
    primitive, so g.alpha has reduced denominator |X| = M_b, and tau = X/M > 0
    gives X = M_b.  Every other d0 fails entry 0; the roots, at most 4 per c0,
    are read in ascending order, as a box of d0 would meet them.
    """
    for (reason, inv_a), inv_b in zip(invariants(a).items(), invariants(b).values()):
        if inv_a != inv_b:
            return CertificateResult("impossible", reason=reason, invariants=(inv_a, inv_b))
    N = bounds.entries
    if b.digits.precision < 2 * N:
        return CertificateResult(status="inconclusive")
    disc = b.theta.discriminant()
    # levels k..k+2N, and the Condition's digit x_k, inside a's digit window
    deepest = min(
        MAX_SEARCH_LEVEL - 2 * N, 2 * (MAX_SEARCH_CANDIDATES // bounds.max_c0 - 1), a.digits.precision - max(2 * N, 1)
    )
    h = a.head(max(deepest, 0))
    sides = (("direct", b.theta, b.digits), ("flipped", -b.theta, -b.digits))
    for k in range(0, deepest + 1, 2):
        if _alpha(a, k, h).discriminant() != disc:
            continue
        trunc = truncate_spec(a, k)
        for c0, d0 in _entry0_rows(trunc.theta, b.theta, bounds.max_c0):
            tau = trunc.theta * c0 + d0
            if not (QuadReal(0) < tau):
                continue
            m = math.floor(tau) + 1
            proj = ProjectionData(m, c0, d0)
            if not condition_check(trunc.p, proj, trunc.x(0)):
                continue
            partner = _partner_spec(trunc, proj, tau)
            for orientation, theta_b, x_b in sides:
                n = (partner.theta - theta_b).as_int()
                if n is None:
                    continue
                rest = x_b - partner.digits - n  # known below H, the smaller precision of b and trunc
                if rest.is_zero:
                    entries = tuple(range(0, 2 * N + 1, 2))
                    return CertificateResult("found", c0, d0, m, k, entries, orientation, precision=rest.precision)
    return CertificateResult(status="inconclusive")
