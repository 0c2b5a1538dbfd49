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

from . import suite as suite_mod
from .exactnum import QuadReal, parse_rational
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
# sample sizes of bimodule verify.  At --n 0, MAX_HATS hats on MAX_POINTS points take about 0.85 s end to end
# at p = 2, 0.95 s at p = 7 and 3.3 s at p = 101 (2-core Xeon, Python 3.11).  Each hat spreads over p classes,
# so the time grows with p * hats: at p = 1009, 4 hats on 10 points take about 0.8 s, the default sample 3.5 s
# and MAX_HATS hats on 10 points about 11 s (no bound covers p)
MAX_HATS = 100
MAX_POINTS = 500
# --count of the multiplier checks, whose time is linear in it.  On the default spec, MAX_COUNT samples take
# about 0.3 s end to end for check-cocycle, 0.35 s for check-annihilator and 0.5 s for check-eta-psi; at the
# largest prime below exactnum.MR_LIMIT, about 0.4 s, 0.45 s and 0.65 s
MAX_COUNT = 2000


def _resolve_seed(value) -> int:
    if value is not None:
        return value
    return int(os.environ.get("SOLENOID_SEED", "0"))


def _parse_digits(p: int, text: str) -> PAdic:
    body = text.strip()
    if body.startswith("x="):
        body = body[2:]
    return PAdic.from_rational(p, parse_rational(body))


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


def _at_most(base, bound: str, limit: int):
    """argparse type: base(text), at most limit; its message names the bound.

    It keeps base's name, which argparse prints for text that base rejects.
    """

    def parse(text: str) -> int:
        n = base(text)
        if n > limit:
            raise argparse.ArgumentTypeError(f"must be at most {bound} = {limit}, got {n}")
        return n

    parse.__name__ = base.__name__
    return parse


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
    value = PAdic.from_rational(args.p, parse_rational(args.value))
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
        result = certificate_search(a, b, SearchBounds(args.max_c0, args.entries))
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
    from .bimodule import SamplePlan  # numpy loads here, for the float check only

    spec = _build_spec(args)
    seed = _resolve_seed(args.seed)
    proj = ProjectionData(args.m, args.c0, args.d0)
    plan = SamplePlan(seed=seed, hats=args.hats, r_points=args.points, t_points=args.points)
    report = suite_mod.check_bimodule(spec, proj, args.n, plan, args.tolerance)
    report["inputs"] = spec.to_json()
    return report


def _cmd_suite(args) -> dict:
    return suite_mod.run_all(_resolve_seed(args.seed))


# -- parser wiring: one table of groups and leaves ---------------------------------


def _arg(*flags, **kwargs):
    return flags, kwargs


def _entries(default: int):
    """--entries of a window 0..N, whose last level 2*N is at most MAX_LEVEL."""
    limit = MAX_LEVEL // 2
    kind = _at_most(_count, "MAX_LEVEL/2", limit)
    return _arg("--entries", type=kind, default=default, help=f"window entries, at most {limit} (2*entries <= MAX_LEVEL)")


_SPEC = (
    _arg("--spec", help="path to a spec JSON file {p, theta, digits}"),
    _arg("--p", type=int, help="prime"),
    _arg("--theta", help='exact real, e.g. "(-1 + 1*sqrt(2))/1" or "1/3"'),
    _arg("--digits", help='digit-sequence value, e.g. "x=1" or "3/4"'),
)
_SEED = _arg("--seed", type=int, default=None)
_PADIC = (_arg("--p", type=int, required=True), _arg("--value", required=True, help='rational, e.g. "3" or "3/4"'))
_TRACE = (_arg("--c0", type=int, required=True), _arg("--d0", type=int, required=True), _arg("--m", type=int, default=1))
_MULTIPLIER = (*_SPEC, _SEED, _arg("--count", type=_at_most(_count, "MAX_COUNT", MAX_COUNT), default=200))
_LEVEL_HELP = f"tower level, at most {MAX_LEVEL}"

# group -> (help, handler, dest of the leaf name, {leaf: arguments}); a group without
# leaves has dest None and its arguments in place of the leaf table
COMMANDS = {
    "padic": ("exact p-adic computations", _cmd_padic, "padic_cmd", {
        "inv": _PADIC,
        "frac": _PADIC,
        "trunc": (*_PADIC, _arg("--k", type=_count, required=True, help=f"digit window bound, at most {MAX_TRUNC_K}")),
    }),
    "solenoid": ("sequence windows and coherence", _cmd_solenoid, "solenoid_cmd", {
        "alpha": (*_SPEC, _arg("--n", type=_level, required=True, help=_LEVEL_HELP)),
        "check-coherence": (*_SPEC, _entries(8)),
        "from-even": (*_SPEC, _entries(8)),
    }),
    "multiplier": ("multiplier and pairing checks", _cmd_multiplier, "multiplier_cmd", {
        "check-cocycle": _MULTIPLIER, "check-annihilator": _MULTIPLIER, "check-eta-psi": _MULTIPLIER,
    }),
    "morita": ("partner constructions and certificates", _cmd_morita, "morita_cmd", {
        "heisenberg": (*_SPEC, _entries(6)),
        "projection": (*_SPEC, *_TRACE, _entries(6)),
        "relate": (*_SPEC, _entries(6)),
        "certify": (
            _arg("--spec-a", required=True, help="spec JSON file for the first sequence"),
            _arg("--spec-b", required=True, help="spec JSON file for the second sequence"),
            _arg("--max-c0", type=int, default=4),
            _arg("--entries", type=_count, default=8),
        ),
    }),
    "check": ("single-shot predicate checks", _cmd_check, "check_cmd", {
        "condition": tuple(_arg(flag, type=int, required=True) for flag in ("--p", "--c0", "--d0", "--x0")),
    }),
    "bimodule": ("bimodule identity verification", _cmd_bimodule, "bimodule_cmd", {
        "verify": (
            *_SPEC, *_TRACE,
            _arg("--n", type=_level, default=0, help=_LEVEL_HELP),
            _SEED,
            _arg("--points", type=_at_most(int, "MAX_POINTS", MAX_POINTS), default=200),
            _arg("--hats", type=_at_most(int, "MAX_HATS", MAX_HATS), default=20),
            _arg("--tolerance", type=float, default=suite_mod.DEFAULT_TOLERANCE),
        ),
    }),
    "suite": ("run every module property suite", _cmd_suite, None, (_SEED,)),
}


def _add_args(parser: argparse.ArgumentParser, args) -> None:
    for flags, kwargs in args:
        parser.add_argument(*flags, **kwargs)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for argv, with only the group and leaf that argv opens with.

    The group must be argv's first token, or the first after one complete --format json|text
    or --format=X, and the leaf the next token.  argparse hands the rest of argv to that leaf,
    so no other sub-parser is consulted, and the sub-parser metavars list every name: usage
    lines and error messages are the full parser's.  Any other argv (help above the leaf, a
    junk or misplaced first token), and no argv, builds every group and leaf.
    """
    head = argv or []
    if head[:2] in (["--format", "json"], ["--format", "text"]):
        head = head[2:]
    elif head and head[0].startswith("--format="):
        head = head[1:]
    group, leaf = [*head[:2], None, None][:2]
    if group not in COMMANDS or (COMMANDS[group][2] and leaf not in COMMANDS[group][3]):
        group = leaf = None

    def names(table):  # argparse's own metavar; the full build sets none, as a metavar also renames errors
        return "{%s}" % ",".join(table) if group else None

    parser = argparse.ArgumentParser(prog="ncsolenoid", description=__doc__)
    parser.add_argument("--format", choices=("json", "text"), default="json")
    subs = parser.add_subparsers(dest="command", required=True, metavar=names(COMMANDS))
    for name, (help_, _, dest, leaves) in COMMANDS.items():
        if group not in (None, name):
            continue
        gp = subs.add_parser(name, help=help_)
        if dest is None:
            _add_args(gp, leaves)
            continue
        leaf_subs = gp.add_subparsers(dest=dest, required=True, metavar=names(leaves))
        for leaf_name, args in leaves.items():
            if leaf in (None, leaf_name):
                _add_args(leaf_subs.add_parser(leaf_name), args)
    return parser


def main(argv=None) -> int:
    """Run one command: exit 0 if its checks pass, 1 if one fails, 2 on rejected input."""
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    try:
        report = COMMANDS[args.command][1](args)
    except (ValueError, ArithmeticError) as exc:
        parser.error(str(exc))
    try:
        print(_render_text(report) if args.format == "text" else json.dumps(report, sort_keys=True, indent=2))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early; point stdout at devnull so the flush at shutdown stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0 if report.get("pass", True) else 1


if __name__ == "__main__":
    sys.exit(main())
