"""Command-line front door.

Subcommands map one-to-one onto module operations; reports are JSON with
sorted keys (or flat text via --format text), exact values serialized as
strings. Exit status: 0 all checks passed, 1 a check failed, 2 usage error
(any ValueError or ArithmeticError, mapped in main).
The seed defaults to the SOLENOID_SEED environment variable, then 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import suite as suite_mod
from .bimodule import SamplePlan
from .exactnum import QuadReal
from .morita import (
    ConditionError,
    ProjectionData,
    SearchBounds,
    certificate_search,
    heisenberg_partner,
    projection_partner,
    relate_check,
)
from .padic import PAdic
from .solenoid import SolenoidSpec, alpha_at

# padic trunc prints k digits of a prime up to exactnum.MR_LIMIT; the digit view is
# quadratic in the window, so k is bounded to keep the largest prime within a 1 s budget
MAX_TRUNC_K = 3000
# tower levels for --n: alpha_n has denominator p**n, which for the largest prime below exactnum.MR_LIMIT
# has about 25*n digits, so every accepted level prints within Python's 4300-digit int-to-string limit
MAX_LEVEL = 100


def _resolve_seed(value) -> int:
    if value is not None:
        return value
    return int(os.environ.get("SOLENOID_SEED", "0"))


def _parse_digits(p: int, text: str) -> PAdic:
    body = text.strip()
    if body.startswith("x="):
        body = body[2:]
    return PAdic.from_rational(p, Fraction(body))


def _count(text: str) -> int:
    """argparse type for --entries, --count and --k: a nonnegative integer."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {n}")
    return n


def _level(text: str) -> int:
    """argparse type for --n: a tower level in 0..MAX_LEVEL."""
    n = int(text)
    if not 0 <= n <= MAX_LEVEL:
        raise argparse.ArgumentTypeError(f"must be in 0..MAX_LEVEL = {MAX_LEVEL}, got {n}")
    return n


def _add_spec_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--spec", help="path to a spec JSON file {p, theta, digits}")
    sp.add_argument("--p", type=int, help="prime")
    sp.add_argument("--theta", help='exact real, e.g. "(-1 + 1*sqrt(2))/1" or "1/3"')
    sp.add_argument("--digits", help='digit-sequence value, e.g. "x=1" or "3/4"')


def _build_spec(args, allow_default: bool = False) -> SolenoidSpec:
    if args.spec:
        return _load_spec_file(args.spec)
    if args.p is None and allow_default:
        return suite_mod.default_spec()
    if args.p is None or args.theta is None or args.digits is None:
        raise ValueError("provide --spec FILE or all of --p/--theta/--digits")
    return SolenoidSpec(args.p, QuadReal.parse(args.theta), _parse_digits(args.p, args.digits))


def _load_spec_file(path: str) -> SolenoidSpec:
    try:
        with open(path) as fh:
            return SolenoidSpec.from_json(json.load(fh))
    except (ValueError, ZeroDivisionError, OSError, KeyError) as exc:
        raise ValueError(f"bad spec file {path}: {exc}") from exc


def _render_text(obj, indent: str = "") -> str:
    lines = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            val = obj[key]
            if isinstance(val, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.append(_render_text(val, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {val}")
    elif isinstance(obj, list):
        for val in obj:
            if isinstance(val, (dict, list)):
                lines.append(_render_text(val, indent + "  "))
            else:
                lines.append(f"{indent}- {val}")
    else:
        lines.append(f"{indent}{obj}")
    return "\n".join(lines)


# -- command handlers: each returns its report; main maps errors to exit codes ----


def _cmd_padic(args) -> dict:
    value = PAdic.from_rational(args.p, Fraction(args.value))
    base = {"p": args.p, "value": args.value}
    if args.padic_cmd == "inv":
        base["inverse"] = value.invert().to_json()
    elif args.padic_cmd == "frac":
        f = value.frac_part()
        base["frac_part"] = str(f)
        base["as_rational"] = str(f.as_fraction())
    else:  # trunc
        if args.k > MAX_TRUNC_K:
            raise ValueError(f"--k must be at most {MAX_TRUNC_K}, got {args.k}")
        t = value.truncate(args.k)
        base.update({"ord": t.v, "digits": list(t.digits), "precision": t.precision})
    return base


def _cmd_solenoid(args) -> dict:
    spec = _build_spec(args)
    if args.solenoid_cmd == "alpha":
        return {"inputs": spec.to_json(), "n": args.n, "alpha": str(alpha_at(spec, args.n))}
    if args.solenoid_cmd == "check-coherence":
        report = suite_mod.check_coherence(spec, args.entries)
    else:  # from-even
        report = suite_mod.check_from_even(spec, args.entries)
    report["inputs"] = spec.to_json()
    return report


def _cmd_multiplier(args) -> dict:
    spec = _build_spec(args, allow_default=True)
    seed = _resolve_seed(args.seed)
    runner = {
        "check-cocycle": suite_mod.check_cocycle,
        "check-annihilator": suite_mod.check_annihilator,
        "check-eta-psi": suite_mod.check_eta_psi,
    }[args.multiplier_cmd]
    report = runner(seed, args.count, spec)
    report["seed"] = seed
    report["inputs"] = spec.to_json()
    return report


def _cmd_morita(args) -> dict:
    if args.morita_cmd == "certify":
        a = _load_spec_file(args.spec_a)
        b = _load_spec_file(args.spec_b)
        result = certificate_search(a, b, SearchBounds(args.max_c0, args.max_d0, args.max_k, args.entries))
        return {**result.to_json(), "pass": result.status != "inconclusive"}

    spec = _build_spec(args)
    if args.morita_cmd == "heisenberg":
        return {"inputs": spec.to_json(), "partner": heisenberg_partner(spec, args.entries).to_json()}
    if args.morita_cmd == "projection":
        report = {"inputs": spec.to_json(), "c0": args.c0, "d0": args.d0, "m": args.m}
        try:
            window = projection_partner(spec, ProjectionData(args.m, args.c0, args.d0), args.entries)
        except ConditionError as exc:
            n, c, d = exc.witness
            return {**report, "condition": "fail", "witness": {"n": n, "c": c, "d": d}, "pass": False}
        return {**report, "condition": "pass", "partner": window.to_json(), "pass": True}
    # relate
    return {
        "inputs": spec.to_json(),
        "entries": args.entries,
        "displayed_determinant": "-1",
        "note": "closed-form window equals the partner sequence exactly; "
        "the det +1 normalization negates it mod 1",
        "pass": bool(relate_check(spec, args.entries)),
    }


def _cmd_check(args) -> dict:
    return suite_mod.check_condition(args.p, args.c0, args.d0, args.x0)


def _cmd_bimodule(args) -> dict:
    spec = _build_spec(args)
    seed = _resolve_seed(args.seed)
    proj = ProjectionData(args.m, args.c0, args.d0)
    plan = SamplePlan(seed=seed, hats=args.hats, r_points=args.points, t_points=args.points)
    report = suite_mod.check_bimodule(spec, proj, args.n, plan, args.tolerance)
    report["inputs"] = spec.to_json()
    return report


def _cmd_suite(args) -> dict:
    return suite_mod.run_all(_resolve_seed(args.seed))


# -- parser wiring ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ncsolenoid", description=__doc__)
    parser.add_argument("--format", choices=("json", "text"), default="json")
    subs = parser.add_subparsers(dest="command", required=True)

    padic = subs.add_parser("padic", help="exact p-adic computations")
    padic_subs = padic.add_subparsers(dest="padic_cmd", required=True)
    for name in ("inv", "frac", "trunc"):
        sp = padic_subs.add_parser(name)
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--value", required=True, help='rational, e.g. "3" or "3/4"')
        if name == "trunc":
            sp.add_argument("--k", type=_count, required=True, help=f"digit window bound, at most {MAX_TRUNC_K}")

    solenoid = subs.add_parser("solenoid", help="sequence windows and coherence")
    sol_subs = solenoid.add_subparsers(dest="solenoid_cmd", required=True)
    sp = sol_subs.add_parser("alpha")
    _add_spec_flags(sp)
    sp.add_argument("--n", type=_level, required=True, help=f"tower level, at most {MAX_LEVEL}")
    for name in ("check-coherence", "from-even"):
        sp = sol_subs.add_parser(name)
        _add_spec_flags(sp)
        sp.add_argument("--entries", type=_count, default=8)

    multiplier = subs.add_parser("multiplier", help="multiplier and pairing checks")
    mult_subs = multiplier.add_subparsers(dest="multiplier_cmd", required=True)
    for name in ("check-cocycle", "check-annihilator", "check-eta-psi"):
        sp = mult_subs.add_parser(name)
        _add_spec_flags(sp)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--count", type=_count, default=200)

    morita = subs.add_parser("morita", help="partner constructions and certificates")
    morita_subs = morita.add_subparsers(dest="morita_cmd", required=True)
    sp = morita_subs.add_parser("heisenberg")
    _add_spec_flags(sp)
    sp.add_argument("--entries", type=_count, default=6)
    sp = morita_subs.add_parser("projection")
    _add_spec_flags(sp)
    sp.add_argument("--c0", type=int, required=True)
    sp.add_argument("--d0", type=int, required=True)
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--entries", type=_count, default=6)
    sp = morita_subs.add_parser("relate")
    _add_spec_flags(sp)
    sp.add_argument("--entries", type=_count, default=6)
    sp = morita_subs.add_parser("certify")
    sp.add_argument("--spec-a", required=True, help="spec JSON file for the first sequence")
    sp.add_argument("--spec-b", required=True, help="spec JSON file for the second sequence")
    sp.add_argument("--max-c0", type=int, default=4)
    sp.add_argument("--max-d0", type=int, default=4)
    sp.add_argument("--max-k", type=int, default=4)
    sp.add_argument("--entries", type=_count, default=8)

    partner = subs.add_parser("partner", help="alias for morita partner commands")
    partner_subs = partner.add_subparsers(dest="morita_cmd", required=True)
    sp = partner_subs.add_parser("heisenberg")
    _add_spec_flags(sp)
    sp.add_argument("--entries", type=_count, default=6)

    check = subs.add_parser("check", help="single-shot predicate checks")
    check_subs = check.add_subparsers(dest="check_cmd", required=True)
    sp = check_subs.add_parser("condition")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--c0", type=int, required=True)
    sp.add_argument("--d0", type=int, required=True)
    sp.add_argument("--x0", type=int, required=True)

    bimodule = subs.add_parser("bimodule", help="bimodule identity verification")
    bim_subs = bimodule.add_subparsers(dest="bimodule_cmd", required=True)
    sp = bim_subs.add_parser("verify")
    _add_spec_flags(sp)
    sp.add_argument("--c0", type=int, required=True)
    sp.add_argument("--d0", type=int, required=True)
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--n", type=_level, default=0, help=f"tower level, at most {MAX_LEVEL}")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--points", type=int, default=200)
    sp.add_argument("--hats", type=int, default=20)
    sp.add_argument("--tolerance", type=float, default=suite_mod.DEFAULT_TOLERANCE)

    st = subs.add_parser("suite", help="run every module property suite")
    st.add_argument("--seed", type=int, default=None)

    return parser


def main(argv=None) -> int:
    """Run one command: exit 0 if its checks pass, 1 if one fails, 2 on rejected input."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "padic": _cmd_padic,
        "solenoid": _cmd_solenoid,
        "multiplier": _cmd_multiplier,
        "morita": _cmd_morita,
        "partner": _cmd_morita,
        "check": _cmd_check,
        "bimodule": _cmd_bimodule,
        "suite": _cmd_suite,
    }
    try:
        report = handlers[args.command](args)
    except (ValueError, ArithmeticError) as exc:
        parser.error(str(exc))
    print(_render_text(report) if args.format == "text" else json.dumps(report, sort_keys=True, indent=2))
    return 0 if report.get("pass", True) else 1


if __name__ == "__main__":
    sys.exit(main())
