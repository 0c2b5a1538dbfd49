"""Command-line front door.

Subcommands map one-to-one onto module operations; reports are JSON with
sorted keys (or flat text via --format text), exact values serialized as
strings. Exit status: 0 all checks passed, 1 a check failed, 2 usage error
(any ValueError or ArithmeticError, mapped in main).
The --seed of suite and bimodule verify defaults to the SOLENOID_SEED
environment variable, then 0.  The multiplier checks take no seed and no
count: each decides its identity on one generator per power of p.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import suite as suite_mod
from .exactnum import QuadReal, parse_rational
from .morita import (
    ConditionError,
    ProjectionData,
    SearchBounds,
    certificate_search,
    checked_trace,
    heisenberg_partner,
    projection_partner,
    relate_check,
)
from .padic import PAdic
from .solenoid import SolenoidSpec, alpha_at

# padic trunc prints k digits of a prime up to exactnum.MR_LIMIT, read off the window's unit in halves by divisions
# that are quadratic in k.  At MAX_TRUNC_K the largest such prime prints in about 0.27 s end to end (2-core Xeon,
# Python 3.11), within a 1 s budget
MAX_TRUNC_K = 3000
# tower levels for --n: alpha_n has denominator p**n, which for the largest prime below exactnum.MR_LIMIT
# has about 25*n digits, so every accepted level prints within Python's 4300-digit int-to-string limit
MAX_LEVEL = 100
# hats of bimodule verify, each one draw of F, G and H whose identities are decided on exact terms.  At --n 0,
# MAX_HATS hats take about 0.15 s end to end at p = 2 and 7 and 0.2 s at p = 101 (2-core Xeon, Python 3.11)
MAX_HATS = 100
# each hat spreads over p classes, and the k and y windows of its terms hold about tau/c0 offsets per class pair
# (tau = c0*theta + d0 < m), so the terms grow with p * hats * (floor(tau/c0) + 1), which MAX_P_HATS bounds: the
# default 20 hats stay accepted at every p below 1024 while tau < c0.  20 hats at p = 1009 take about 0.25 s,
# 100 hats at p = 199 about 0.25 s and 1 hat at p = 20479 about 0.4-0.5 s (peak RSS 20, 19 and 59 MB); at p = 2,
# 1 hat at c0 = 1, d0 = 10238 and at c0 = 7, d0 = 71662 takes about 0.3-0.5 s (peak RSS 53 and 94 MB).  Past
# the bound, the check alone takes about 2.0-2.5 s (215-226 MB) for 1 hat at p = 100003 and 1.5-1.8 s (150 MB)
# for 2 hats at p = 2, d0 = 30000
MAX_P_HATS = 20480


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
    """argparse type for --entries, --k and --n: a nonnegative integer."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {n}")
    return n


def _positive(text: str) -> int:
    """argparse type for --hats: a positive integer (a negative one would also slip under MAX_P_HATS)."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {n}")
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
    # RecursionError: JSON nested past the decoder's limit
    except (ValueError, ZeroDivisionError, OSError, KeyError, RecursionError) as exc:
        raise ValueError(f"bad spec file {path}: {exc}") from exc


def _render_text(obj, indent: str = "") -> str:
    """One `key: value` line per dict entry and one `- value` line per list item, keys sorted.

    A non-empty container goes on the lines below its key or `-`, indented; an empty one is written as
    [] or {}.
    """
    if not isinstance(obj, (dict, list)):
        return f"{indent}{obj}"
    if not obj:
        return f"{indent}{{}}" if isinstance(obj, dict) else f"{indent}[]"
    items = [(f"{key}:", obj[key]) for key in sorted(obj)] if isinstance(obj, dict) else [("-", val) for val in obj]
    lines = []
    for label, val in items:
        if isinstance(val, (dict, list)) and val:
            lines += [f"{indent}{label}", _render_text(val, indent + "  ")]
        else:
            lines.append(f"{indent}{label} {_render_text(val)}")
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
    else:  # trunc: the digits at indices ord..k-1, the window's preperiod padded with zeros
        t = value.truncate(args.k)
        pre = list(t.pre)
        base.update({"ord": t.ord, "digits": pre + [0] * (args.k - t.ord - len(pre)), "precision": t.precision})
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
    runner = {
        "check-cocycle": suite_mod.check_cocycle,
        "check-annihilator": suite_mod.check_annihilator,
        "check-eta-psi": suite_mod.check_eta_psi,
    }[args.multiplier_cmd]
    return {**runner(spec=spec), "inputs": spec.to_json()}


def _window_json(window) -> list:
    """A window of (n, exact value) pairs as JSON: [[n, "value"], ...]."""
    return [[n, str(v)] for n, v in window]


def _cmd_morita(args) -> dict:
    if args.morita_cmd == "certify":
        a = _load_spec_file(args.spec_a)
        b = _load_spec_file(args.spec_b)
        result = certificate_search(a, b, SearchBounds(args.max_c0, args.entries))
        return {**result.to_json(), "pass": result.status != "inconclusive"}

    spec = _build_spec(args)
    if args.morita_cmd == "heisenberg":
        return {"inputs": spec.to_json(), "partner": _window_json(heisenberg_partner(spec, args.entries))}
    if args.morita_cmd == "projection":
        report = {"inputs": spec.to_json(), "c0": args.c0, "d0": args.d0, "m": args.m}
        try:
            window = projection_partner(spec, ProjectionData(args.m, args.c0, args.d0), args.entries)
        except ConditionError as exc:
            n, c, d = exc.witness
            return {**report, "condition": "fail", "witness": {"n": n, "c": c, "d": d}, "pass": False}
        return {**report, "condition": "pass", "partner": _window_json(window), "pass": True}
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
    if args.c0 < 1:  # the kernels need c0 >= 1; the shared --c0 flag stays open to morita projection's c0 < 0
        raise ValueError(f"argument --c0: must be positive, got {args.c0}")
    spec = _build_spec(args)
    proj = ProjectionData(args.m, args.c0, args.d0)
    spread = math.floor(checked_trace(spec, proj) / proj.c0) + 1
    if spec.p * args.hats * spread > MAX_P_HATS:
        raise ValueError(
            f"p * --hats * (floor(tau/c0) + 1) must be at most MAX_P_HATS = {MAX_P_HATS}, got {spec.p} * {args.hats} * {spread}"
        )
    from .bimodule import SamplePlan  # deferred: the bimodule layer's import cost stays off every other command

    seed = _resolve_seed(args.seed)
    report = suite_mod.check_bimodule(spec, proj, args.n, SamplePlan(seed=seed, hats=args.hats))
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
_LEVEL_HELP = f"tower level, at most {MAX_LEVEL}"

# group -> (help, handler, dest of the leaf name, {leaf: arguments}); a group without
# leaves has dest None and its arguments in place of the leaf table
COMMANDS = {
    "padic": ("exact p-adic computations", _cmd_padic, "padic_cmd", {
        "inv": _PADIC,
        "frac": _PADIC,
        "trunc": (
            *_PADIC,
            _arg("--k", type=_at_most(_count, "MAX_TRUNC_K", MAX_TRUNC_K), required=True, help=f"digit window bound, at most {MAX_TRUNC_K}"),
        ),
    }),
    "solenoid": ("sequence windows and coherence", _cmd_solenoid, "solenoid_cmd", {
        "alpha": (*_SPEC, _arg("--n", type=_at_most(_count, "MAX_LEVEL", MAX_LEVEL), required=True, help=_LEVEL_HELP)),
        "check-coherence": (*_SPEC, _entries(8)),
        "from-even": (*_SPEC, _entries(8)),
    }),
    "multiplier": ("multiplier and pairing checks", _cmd_multiplier, "multiplier_cmd", {
        "check-cocycle": _SPEC, "check-annihilator": _SPEC, "check-eta-psi": _SPEC,
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
            _arg("--n", type=_at_most(_count, "MAX_LEVEL", MAX_LEVEL), default=0, help=_LEVEL_HELP),
            _SEED,
            _arg("--hats", type=_at_most(_positive, "MAX_HATS", MAX_HATS), default=20, help=f"p * hats * (floor(tau/c0) + 1) at most {MAX_P_HATS}"),
        ),
    }),
    "suite": ("run every module property suite", _cmd_suite, None, (_SEED,)),
}


def _add_args(parser: argparse.ArgumentParser, args) -> None:
    for flags, kwargs in args:
        parser.add_argument(*flags, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every group and leaf in COMMANDS; main builds it once per process.

    No sub-parser sets a metavar: argparse lists the names in usage lines, and a metavar would also
    rename the argument in its error messages.
    """
    parser = argparse.ArgumentParser(prog="ncsolenoid", description=__doc__)
    parser.add_argument("--format", choices=("json", "text"), default="json")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_, _, dest, leaves) in COMMANDS.items():
        gp = subs.add_parser(name, help=help_)
        if dest is None:
            _add_args(gp, leaves)
            continue
        leaf_subs = gp.add_subparsers(dest=dest, required=True)
        for leaf_name, args in leaves.items():
            _add_args(leaf_subs.add_parser(leaf_name), args)
    return parser


# main's one parser per process, built at its first call; a parse leaves no state for the next one to see
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one command: exit 0 if its checks pass, 1 if one fails, 2 on rejected input."""
    parser = _parser()
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
