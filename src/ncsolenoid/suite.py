"""Named property-check runners producing JSON-able reports.

Every runner returns a dict with a "pass" boolean and serializes exact
values as strings. The three multiplier runners draw nothing: each decides
its identity on one generator per power of p, up to the index K.  The
others are deterministic in their seed. Reports carry no wall-clock data,
so identical configurations reproduce byte-identical output.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import TYPE_CHECKING

from .exactnum import PFrac, QuadReal, frac1, require_prime
from .morita import (
    ProjectionData,
    heisenberg_partner,
    heisenberg_partner_spec,
    relate_check,
)
from .multiplier import (
    GammaElem,
    cocycle_defect,
    eta,
    eta_bar,
    iota_embed,
    lambda_embed,
    psi_alpha,
    psi_from_window,
    rho,
)
from .padic import PAdic
from .solenoid import MobiusPair, SolenoidSpec, alphas, coherence_check, from_even_entries, reduce_h

if TYPE_CHECKING:
    from .bimodule import SamplePlan


def default_spec(p: int = 2) -> SolenoidSpec:
    return SolenoidSpec(p, QuadReal.sqrt_of(2) - 1, PAdic.from_rational(p, 1))


def _rand_spec(rng: random.Random, p: int) -> SolenoidSpec:
    theta = frac1(
        QuadReal(Fraction(rng.randint(0, 20), 21), Fraction(rng.randint(1, 6), 7), rng.choice([2, 3, 5]))
    )
    num = rng.randint(1, 60)
    if num % p == 0:
        num += 1
    den = rng.choice([n for n in range(1, 30) if n % p])
    return SolenoidSpec(p, theta, PAdic.from_rational(p, Fraction(num, den)))


# The multiplier checks decide their identities on generators, for every pair (every triple for the cocycle) whose
# index, the sum of the exponents of the two coordinates a value reads, is at most K: so for every pair whose
# coordinates have exponents up to 4, as tests/test_suite.py draws them for its oracle of the decision
K = 8


def _gen(p: int, j: int, k: int = 0, second: int = 0) -> GammaElem:
    """The element (j/p^k, second) of Z[1/p]^2."""
    return GammaElem(PFrac(p, j, k), PFrac(p, second))


def _gamma_json(g: GammaElem) -> list[str]:
    return [str(g.first), str(g.second)]


def _report(name: str, evaluations: int, violations: list) -> dict:
    return {"name": name, "max_index": K, "evaluations": evaluations, "violations": violations, "pass": not violations}


def check_cocycle(seed=None, count=None, spec: SolenoidSpec | None = None) -> dict:
    """psi_alpha is a 2-cocycle normalized at 0, decided by one triple and one pair per level k < K.

    psi_alpha(g, h) = j alpha_k mod 1, with j = j(g1) j(h2) and index k = k(g1) + k(h2) read off reduced forms.  If
    p alpha_{k+1} = alpha_k mod 1 for k < K, then Theta(j/p^k) = j alpha_k is one additive map on p^-K Z, and
    psi_alpha(g, h) = Theta(g1 h2) on every pair of index at most K.  So the defect Theta(r1 s2) + Theta((r1 + s1)
    t2) - Theta(r1 (s2 + t2)) - Theta(s1 t2) is 0 on every triple whose four values have such an index (every triple
    whose coordinates have exponents up to K/2 among them), and psi_alpha(r, 0) = psi_alpha(0, r) = Theta(0) = 0.  The
    triple r = (1/p^{k+1}, 0), s = ((p-1)/p^{k+1}, 0), t = (0, 1) has defect exactly alpha_k - p alpha_{k+1}, so its
    zero at each k < K is the coherence, and the check decides.  The normalization is compared at r as well, since a
    psi_alpha shifted by a constant keeps every defect 0.

    seed and count are unread: nothing is sampled.  They keep the positional shape (seed, count, spec) in which
    bench/workloads.py calls every multiplier runner.
    """
    spc = spec or default_spec()
    p, e, t = spc.p, GammaElem.identity(spc.p), _gen(spc.p, 0, second=1)
    sigma = lambda g, h: psi_alpha(spc, g, h)
    violations = []
    for k in range(K):
        r, s = _gen(p, 1, k + 1), _gen(p, p - 1, k + 1)
        d = cocycle_defect(sigma, r, s, t)
        if not d.is_zero:
            violations.append({"r": _gamma_json(r), "s": _gamma_json(s), "t": _gamma_json(t), "defect": str(d)})
        if not sigma(r, e).is_zero or not sigma(e, r).is_zero:
            violations.append({"r": _gamma_json(r), "defect": "identity normalization"})
    return _report("multiplier-cocycle", 3 * K, violations)


def check_annihilator(seed=None, count=None, spec: SolenoidSpec | None = None) -> dict:
    """rho(iota g, lambda s) = 0, decided by two pairs per level k <= K.

    rho(iota g, lambda s) = A(g1 s2) - B(s1 g2), with A(u) = u + frac_p(-x x^-1 u) and B(u) = -u + frac_p(u): the
    pairing reads only the first point of its left argument and the second of its right one.  A and B are additive
    mod 1, as frac_p is, so A(j/p^k) = j A(1/p^k) for every representation j/p^k, and A(0) = B(0) = 0.  Hence rho =
    j A(1/p^a) - j' B(1/p^b) for g1 s2 = j/p^a and s1 g2 = j'/p^b, and rho vanishes on every pair whose two products
    have index at most K once rho(iota e_k, lambda f) = A(1/p^k) and rho(iota f, lambda e_k) = -B(1/p^k) vanish for
    k <= K, with e_k = (1/p^k, 0) and f = (0, 1).

    For x known below H, the product x x^-1 / p^k that level k pairs is known below H - ord x - k, so its digit -1
    is known exactly when x's digits below k + ord x are.  x is read below K + ord x first, so a window too short
    for some level is refused with x's first unknown digit, not a product's.

    seed and count are unread, as in check_cocycle.
    """
    spc = spec or default_spec()
    x, theta, f = spc.digits, spc.theta, _gen(spc.p, 0, second=1)
    x._below(K + x.ord)
    violations = []
    for k in range(K + 1):
        e_k = _gen(spc.p, 1, k)
        for g, s in ((e_k, f), (f, e_k)):
            val = rho(iota_embed(x, theta, g), lambda_embed(x, theta, s))
            if not val.is_zero:
                violations.append({"g": _gamma_json(g), "s": _gamma_json(s), "rho": str(val)})
    return _report("multiplier-annihilator", 2 * (K + 1), violations)


def check_eta_psi(seed=None, count=None, spec: SolenoidSpec | None = None) -> dict:
    """eta on iota reproduces psi_alpha, and eta_bar on lambda the partner's psi, decided by two pairs per level k <= K.

    Both multipliers read a pair as j w_k, with j = j(g1) j(h2), k = k(g1) + k(h2) and w = alpha or the partner's
    beta.  eta(iota g, iota h) = theta t + frac_p(x t) and eta_bar(lambda g, lambda h) = t/theta - frac_p(-t/x) read
    only t = g1 h2 = j/p^k, and are additive in it mod 1, so each equals j times its value at (e_k, f), e_k = (1/p^k,
    0) and f = (0, 1).  So each identity holds on every pair of index at most K once it holds at (e_k, f) for k <= K.

    seed and count are unread, as in check_cocycle.
    """
    spc = spec or default_spec()
    x, theta, f = spc.digits, spc.theta, _gen(spc.p, 0, second=1)
    window = heisenberg_partner(spc, K)
    violations = []
    for k in range(K + 1):
        g = _gen(spc.p, 1, k)
        if eta(iota_embed(x, theta, g), iota_embed(x, theta, f)) != psi_alpha(spc, g, f):
            violations.append({"kind": "eta-vs-psi", "g": _gamma_json(g), "h": _gamma_json(f)})
        if eta_bar(lambda_embed(x, theta, g), lambda_embed(x, theta, f)) != psi_from_window(window, g, f):
            violations.append({"kind": "etabar-vs-partner-psi", "g": _gamma_json(g), "h": _gamma_json(f)})
    return _report("multiplier-eta-psi", 2 * (K + 1), violations)


def check_coherence(spec: SolenoidSpec, entries: int = 12) -> dict:
    """Window entries satisfy the digit recursion with defects in [0, p)."""
    window = reduce_h(spec, entries)
    defects = coherence_check(window, spec.p)
    ok = all(0 <= d < spec.p for d in defects)
    return {
        "name": "solenoid-coherence",
        "entries": entries,
        "defects": defects,
        "pass": ok,
    }


def check_from_even(spec: SolenoidSpec, entries: int = 8) -> dict:
    """Rebuilding a spec from its even-index window reproduces the sequence.

    The shift (1 -f; 0 1), f = floor(theta), moves f into the digit stream
    first: each alpha_n of (theta - f, x + f) is in the same class mod 1, in
    [0, 1) as from_even_entries reads.
    """
    f = math.floor(spec.theta)
    if f:
        spec = MobiusPair(1, -f, 0, 1).act(spec)
    try:
        window = alphas(spec, 2 * entries)
        recovered = from_even_entries(spec.p, window[::2])
        return {"name": "solenoid-from-even", "entries": entries, "pass": alphas(recovered, 2 * entries) == window}
    except ValueError as exc:
        return {"name": "solenoid-from-even", "entries": entries, "error": str(exc), "pass": False}


def check_condition(p: int, c0: int, d0: int, x0: int) -> dict:
    """The coprimality condition gcd(c0*p, d0 - c0*x0) = 1."""
    require_prime(p)
    ProjectionData(1, c0, d0)  # rejects c0 = 0
    g = math.gcd(c0 * p, d0 - c0 * x0)
    return {
        "name": "condition",
        "p": p,
        "c0": c0,
        "d0": d0,
        "x0": x0,
        "gcd": str(g),
        "pass": g == 1,
    }


def check_involution(seed: int, count: int = 10) -> dict:
    """Partner-of-partner returns the original spec for unit digit sequences."""
    rng = random.Random(seed)
    violations = []
    for _ in range(count):
        p = rng.choice([2, 3, 5])
        spc = _rand_spec(rng, p)
        back = heisenberg_partner_spec(heisenberg_partner_spec(spc))
        diffs = [n for (n, u), (_, v) in zip(alphas(back, 10), alphas(spc, 10)) if u != v]
        if diffs:
            violations.append({"p": p, "theta": str(spc.theta), "n": diffs[0]})
    return {"name": "morita-involution", "count": count, "violations": violations, "pass": not violations}


def check_relate(seed: int, count: int = 4, entries: int = 6) -> dict:
    """Closed-form projection partner equals the Heisenberg window, level by level."""
    rng = random.Random(seed)
    failures = []
    for _ in range(count):
        p = rng.choice([2, 3, 5, 7])
        spc = _rand_spec(rng, p)
        try:
            if not relate_check(spc, entries):
                failures.append({"p": p, "theta": str(spc.theta)})
        except (ValueError, ArithmeticError) as exc:
            failures.append({"p": p, "theta": str(spc.theta), "error": str(exc)})
    return {"name": "morita-relate", "count": count, "failures": failures, "pass": not failures}


def check_bimodule(spec: SolenoidSpec, proj: ProjectionData, n: int, plan: SamplePlan) -> dict:
    """Module/algebra compatibility identities at one tower level, each decided exactly: 0.0 or inf."""
    from .bimodule import identity_suite  # deferred, as in run_all

    report = identity_suite(spec, proj, n, plan)
    # a failed identity reads inf, written as null so the report stays strict JSON
    holds = all(e == 0.0 for e in report.values())
    return {
        "name": "bimodule-identities",
        "level": n,
        "seed": plan.seed,
        "identities": {key: e if math.isfinite(e) else None for key, e in report.items()},
        "max_error": 0.0 if holds else None,
        "pass": holds,
    }


def run_all(seed: int) -> dict:
    """Aggregate every module's property suite under one seed."""
    from .bimodule import SamplePlan  # deferred: cli imports suite, and only suite and bimodule verify need it

    spec = default_spec()
    checks = [
        check_cocycle(spec=spec),
        check_annihilator(spec=spec),
        check_eta_psi(spec=spec),
        check_coherence(spec, 12),
        check_from_even(spec, 8),
        check_condition(2, 1, 0, 1),
        check_involution(seed + 3, 10),
        check_relate(seed + 4, 4),
        check_bimodule(spec, ProjectionData(1, 1, 0), 0, SamplePlan(seed=seed, hats=6)),
    ]
    return {"seed": seed, "checks": checks, "pass": all(c["pass"] for c in checks)}
