"""Named property-check runners producing JSON-able reports.

Every runner is deterministic in its seed, returns a dict with a "pass"
boolean, and serializes exact values as strings. Reports carry no
wall-clock data so identical configurations reproduce byte-identical
output.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import TYPE_CHECKING

from .exactnum import PFrac, QuadReal, frac1, is_prime
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
from .solenoid import SeqWindow, SolenoidSpec, alphas, coherence_check, from_even_entries, reduce_h

if TYPE_CHECKING:
    from .bimodule import SamplePlan


def default_spec(p: int = 2) -> SolenoidSpec:
    return SolenoidSpec(p, QuadReal.sqrt_of(2) - 1, PAdic.from_rational(p, 1))


def _rand_gamma(rng: random.Random, p: int, kmax: int = 4, jmax: int = 40) -> GammaElem:
    return GammaElem(
        PFrac(p, rng.randint(-jmax, jmax), rng.randint(0, kmax)),
        PFrac(p, rng.randint(-jmax, jmax), rng.randint(0, kmax)),
    )


def _rand_spec(rng: random.Random, p: int) -> SolenoidSpec:
    theta = frac1(
        QuadReal(Fraction(rng.randint(0, 20), 21), Fraction(rng.randint(1, 6), 7), rng.choice([2, 3, 5]))
    )
    num = rng.randint(1, 60)
    if num % p == 0:
        num += 1
    den = rng.choice([n for n in range(1, 30) if n % p])
    return SolenoidSpec(p, theta, PAdic.from_rational(p, Fraction(num, den)))


def _gamma_json(g: GammaElem) -> list[str]:
    return [str(g.first), str(g.second)]


def check_cocycle(seed: int, count: int = 200, spec: SolenoidSpec | None = None) -> dict:
    """Cocycle defect of the multiplier vanishes exactly; identity normalizes to 0."""
    rng = random.Random(seed)
    spc = spec or default_spec()
    sigma = lambda g, h: psi_alpha(spc, g, h)
    violations = []
    e = GammaElem.identity(spc.p)
    for _ in range(count):
        r, s, t = (_rand_gamma(rng, spc.p) for _ in range(3))
        d = cocycle_defect(sigma, r, s, t)
        if not d.is_zero:
            violations.append({"r": _gamma_json(r), "s": _gamma_json(s), "t": _gamma_json(t), "defect": str(d)})
        if not psi_alpha(spc, r, e).is_zero or not psi_alpha(spc, e, r).is_zero:
            violations.append({"r": _gamma_json(r), "defect": "identity normalization"})
    return {"name": "multiplier-cocycle", "count": count, "violations": violations, "pass": not violations}


def check_annihilator(seed: int, count: int = 200, spec: SolenoidSpec | None = None) -> dict:
    """Antisymmetrized pairing vanishes between the two embedded lattice copies."""
    rng = random.Random(seed)
    spc = spec or default_spec()
    x = spc.digits
    violations = []
    for _ in range(count):
        g, s = _rand_gamma(rng, spc.p), _rand_gamma(rng, spc.p)
        val = rho(iota_embed(x, spc.theta, g), lambda_embed(x, spc.theta, s))
        if not val.is_zero:
            violations.append({"g": _gamma_json(g), "s": _gamma_json(s), "rho": str(val)})
    return {"name": "multiplier-annihilator", "count": count, "violations": violations, "pass": not violations}


def check_eta_psi(seed: int, count: int = 200, spec: SolenoidSpec | None = None) -> dict:
    """Pairing pulled back along the embeddings reproduces both multipliers exactly."""
    rng = random.Random(seed)
    spc = spec or default_spec()
    x = spc.digits
    window = heisenberg_partner(spc, 12)
    violations = []
    for _ in range(count):
        g, h = _rand_gamma(rng, spc.p), _rand_gamma(rng, spc.p)
        direct = eta(iota_embed(x, spc.theta, g), iota_embed(x, spc.theta, h))
        if direct != psi_alpha(spc, g, h):
            violations.append({"kind": "eta-vs-psi", "g": _gamma_json(g), "h": _gamma_json(h)})
        conj = eta_bar(lambda_embed(x, spc.theta, g), lambda_embed(x, spc.theta, h))
        if conj != psi_from_window(window, g, h):
            violations.append({"kind": "etabar-vs-partner-psi", "g": _gamma_json(g), "h": _gamma_json(h)})
    return {"name": "multiplier-eta-psi", "count": count, "violations": violations, "pass": not violations}


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
    """Rebuilding a spec from its even-index window reproduces the sequence."""
    try:
        window = alphas(spec, 2 * entries)
        recovered = from_even_entries(spec.p, SeqWindow(window.entries[::2]))
        return {"name": "solenoid-from-even", "entries": entries, "pass": alphas(recovered, 2 * entries) == window}
    except ValueError as exc:
        return {"name": "solenoid-from-even", "entries": entries, "error": str(exc), "pass": False}


def check_condition(p: int, c0: int, d0: int, x0: int) -> dict:
    """The coprimality condition gcd(c0*p, d0 - c0*x0) = 1."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
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
    from .bimodule import identity_suite  # numpy loads here, for the hats' interpolation tables

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
    from .bimodule import SamplePlan

    spec = default_spec()
    checks = [
        check_cocycle(seed, 200),
        check_annihilator(seed + 1, 200),
        check_eta_psi(seed + 2, 120),
        check_coherence(spec, 12),
        check_from_even(spec, 8),
        check_condition(2, 1, 0, 1),
        check_involution(seed + 3, 10),
        check_relate(seed + 4, 4),
        check_bimodule(spec, ProjectionData(1, 1, 0), 0, SamplePlan(seed=seed, hats=6, r_points=120, t_points=120)),
    ]
    return {"seed": seed, "checks": checks, "pass": all(c["pass"] for c in checks)}
