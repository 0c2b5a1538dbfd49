"""The three benchmark workloads: inputs, operations and output checks.

A workload turns (seed, round index) into a fixed list of operations.  Every
operation gets a spec of its own, so no cache that lives across operations
can gain more than it would inside one ncsolenoid invocation.  Inputs are
plain data; each timed operation builds the program objects it needs, the
way a caller holding text or numbers would.

Each operation is checked right after it is timed: exact outputs against
reference.py, runner reports by their "pass" flag, certificates by
re-verification.  A check returns True when the operation succeeded, False
when the program reported a failure, and raises Incorrect when an output is
wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import reference as ref

PRIMES = (2, 3, 5, 7)
FIELDS = (2, 3, 5, 7)
TOLERANCE = 1e-9


class Incorrect(AssertionError):
    """An operation returned a wrong output."""


@dataclass(frozen=True)
class Op:
    cls: str  # operation class: the kind of call and the input family
    args: tuple


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Incorrect(what)


def random_theta(rng: random.Random, fields=FIELDS) -> ref.Surd:
    """An irrational theta in (0, 1) from Q(sqrt(D))."""
    D = rng.choice(fields)
    return ref.Surd.of(rng.randint(-40, 40), rng.randint(1, 9), D, rng.randint(2, 40)).frac()


def unit_numerator(rng: random.Random, p: int) -> int:
    num = rng.randint(1, 60)
    return num + 1 if num % p == 0 else num


class Distinct:
    """Draws specs and seeds until one not seen before in this run."""

    def __init__(self):
        self.seen: set = set()

    def spec(self, draw) -> ref.Spec:
        while True:
            spec = draw()
            g = math.gcd(spec.num, spec.den)
            key = (spec.p, spec.theta, spec.num // g, spec.den // g)
            if key not in self.seen:
                self.seen.add(key)
                return spec

    def seed(self, rng: random.Random) -> int:
        while True:
            s = rng.getrandbits(32)
            if s not in self.seen:
                self.seen.add(s)
                return s


def random_gamma(rng: random.Random) -> tuple[int, int, int, int]:
    """(j1, k1, j2, k2) for the lattice point (j1 / p^k1, j2 / p^k2)."""
    return rng.randint(-40, 40), rng.randint(0, 4), rng.randint(-40, 40), rng.randint(0, 4)


def round_rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{r}")


def pspec(nc, spec: ref.Spec):
    """The program's SolenoidSpec for a reference spec."""
    return nc.SolenoidSpec(
        spec.p, nc.QuadReal.parse(spec.theta.text()), nc.PAdic.from_rational(spec.p, nc.Fraction(spec.num, spec.den))
    )


def same(value, expected: ref.Surd) -> bool:
    return ref.parse(str(value)) == expected


def different_fields(x: ref.Surd, y: ref.Surd) -> bool:
    """True when irrational x and y lie in different quadratic fields (D is squarefree here)."""
    return x.B != 0 and y.B != 0 and x.D != y.D


# -- exact-props -----------------------------------------------------------------------


def long_denominators(p: int) -> list[int]:
    """Primes in [900, 1100] prime to p whose p-adic period is 300 digits or more."""
    out = []
    for q in range(900, 1101):
        if q % p and all(q % f for f in range(2, math.isqrt(q) + 1)):
            if ref.multiplicative_order(p, q) >= 300:
                out.append(q)
    return out


class Workload:
    """A round's inputs are made in set-up; prepare and finish bracket each round, untimed."""

    def prepare(self, ops: list[Op]) -> None:
        pass

    def finish(self, ops: list[Op]) -> None:
        pass


class ExactProps(Workload):
    """Suite runners and exact-value calls on the exact core; no numpy, no search."""

    name = "exact-props"
    # seconds per round at the slowest machine speed seen (calibration 3.4 ms against the nominal 3 ms), so a run's
    # rounds take about --seconds in a slow phase and less in a fast one
    round_s = 0.51
    COUNT = 20  # samples per multiplier runner
    ENTRIES = 12  # window length of the exact-value calls
    # (call, digit-period half) per spec; sorted by duration, 9 slots fall below
    # from_even/short and 9 above it, so the median lies inside that class
    SLOTS = (
        ("psi", "short"), ("psi", "long"), ("psi", "long"), ("heisenberg", "short"), ("heisenberg", "long"),
        ("reduce_h", "short"), ("reduce_h", "long"), ("coherence", "short"), ("coherence", "long"),
        ("from_even", "short"), ("from_even", "short"),
        ("annihilator", "short"), ("cocycle", "short"), ("eta_psi", "short"),
        ("cocycle", "long"), ("cocycle", "long"), ("annihilator", "long"), ("eta_psi", "long"),
    )
    SEED_KINDS = ("involution", "relate")  # runners that draw their own short-period specs

    def __init__(self, workdir: Path):
        self.distinct = Distinct()
        self.long_dens = {p: long_denominators(p) for p in PRIMES}

    def imports(self):
        from fractions import Fraction

        from ncsolenoid import morita, multiplier, solenoid, suite
        from ncsolenoid.exactnum import PFrac, QuadReal
        from ncsolenoid.padic import PAdic

        # functions are looked up on their modules at call time, so the traced run's wrappers see these calls
        self.nc = SimpleNamespace(
            Fraction=Fraction, PFrac=PFrac, QuadReal=QuadReal, PAdic=PAdic, SolenoidSpec=solenoid.SolenoidSpec,
            solenoid=solenoid, morita=morita, multiplier=multiplier, GammaElem=multiplier.GammaElem, suite=suite,
        )

    def _spec(self, rng, p: int, half: str) -> ref.Spec:
        def draw():
            den = rng.choice(self.long_dens[p]) if half == "long" else rng.choice([d for d in range(1, 30) if d % p])
            return ref.Spec(p, random_theta(rng), unit_numerator(rng, p), den)

        return self.distinct.spec(draw)

    def make_round(self, seed: int, r: int) -> list[Op]:
        rng = round_rng(self.name, seed, r)
        ops = []
        for i, (kind, half) in enumerate(self.SLOTS):
            p = PRIMES[(r + i) % len(PRIMES)]
            spec = self._spec(rng, p, half)
            extra = ()
            if kind == "psi":
                extra = (random_gamma(rng), random_gamma(rng))
            elif kind in ("cocycle", "annihilator", "eta_psi"):
                extra = (self.distinct.seed(rng),)
            ops.append(Op(f"{kind}/{half}", (spec,) + extra))
        for kind in self.SEED_KINDS:
            ops.append(Op(f"{kind}/short", (self.distinct.seed(rng),)))
        rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        nc, kind = self.nc, op.cls.split("/")[0]
        if kind == "involution":
            return nc.suite.check_involution(op.args[0], 10)
        if kind == "relate":
            return nc.suite.check_relate(op.args[0], 4)
        spec = pspec(nc, op.args[0])
        if kind == "psi":
            g, h = ((nc.PFrac(spec.p, j1, k1), nc.PFrac(spec.p, j2, k2)) for j1, k1, j2, k2 in op.args[1:])
            return nc.multiplier.psi_alpha(spec, nc.GammaElem(*g), nc.GammaElem(*h))
        if kind == "reduce_h":
            return nc.solenoid.reduce_h(spec, self.ENTRIES)
        if kind == "heisenberg":
            return nc.morita.heisenberg_partner(spec, self.ENTRIES)
        if kind == "coherence":
            return nc.suite.check_coherence(spec, self.ENTRIES)
        if kind == "from_even":
            return nc.suite.check_from_even(spec, 8)
        runner = {"cocycle": nc.suite.check_cocycle, "annihilator": nc.suite.check_annihilator, "eta_psi": nc.suite.check_eta_psi}
        return runner[kind](op.args[1], self.COUNT, spec)

    def check(self, op: Op, out) -> bool:
        kind = op.cls.split("/")[0]
        if isinstance(out, dict):  # a suite runner: every identity here is a theorem for these inputs
            return out.get("pass") is True
        spec = op.args[0]
        if kind == "psi":
            expect(same(out, ref.phase_psi(spec, *op.args[1:])), f"psi_alpha {out} for {spec}")
            return True
        window = list(out)
        expect([n for n, _ in window] == list(range(self.ENTRIES + 1)), f"{kind} window indices")
        for n, v in window:
            want = ref.alpha(spec, n).frac() if kind == "reduce_h" else ref.beta(spec, n)
            expect(same(v, want), f"{kind} entry {n} is {v}, reference {want.text()}")
        return True

    def control(self, ops: list[Op]) -> bool:
        """A window whose entry is one unit off must be rejected."""
        op = next(o for o in ops if o.cls == "reduce_h/short")
        window = [(n, ref.alpha(op.args[0], n).frac()) for n in range(self.ENTRIES + 1)]
        v = window[3][1]
        window[3] = (3, ref.Surd.of(v.A + 1, v.B, v.D, v.M))
        try:
            self.check(op, [(n, v.text()) for n, v in window])
        except Incorrect:
            return True
        return False


# -- partner-search --------------------------------------------------------------------


def spec_json(spec: ref.Spec, horizon_digits: list[int] | None = None) -> dict:
    if horizon_digits is None:
        pre, per = ref.padic_digits(spec.p, spec.num, spec.den)
        digits = {"p": spec.p, "ord": 0, "preperiod": pre, "period": per}
    else:
        digits = {"p": spec.p, "ord": 0, "preperiod": horizon_digits, "period": [0]}
    out = {"p": spec.p, "theta": spec.theta.text(), "digits": digits}
    if horizon_digits is not None:
        out["digit_horizon"] = len(horizon_digits)
    return out


class PartnerSearch(Workload):
    """`ncsolenoid morita certify` in-process on spec files with known answers."""

    name = "partner-search"
    round_s = 2.17
    ENTRIES = 8  # the command's default window
    MIX = (("impossible", 4), ("first", 12), ("deep", 4), ("exhaustive", 4))

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.distinct = Distinct()
        self.files = 0

    def imports(self):
        from ncsolenoid import cli

        self.cli = cli

    def _path(self) -> str:
        self.files += 1
        return str(self.workdir / f"spec{self.files}.json")

    def _unit_spec(self, rng, p: int, fields=FIELDS) -> ref.Spec:
        return self.distinct.spec(
            lambda: ref.Spec(p, random_theta(rng, fields), unit_numerator(rng, p), rng.choice([d for d in range(1, 30) if d % p]))
        )

    def _pair(self, rng, cls: str, p: int):
        """(spec a, spec b, b's digit window or None) for one answer class."""
        if cls == "impossible":
            a = self._unit_spec(rng, p)
            return a, self._unit_spec(rng, PRIMES[(PRIMES.index(p) + 1) % len(PRIMES)]), None
        if cls == "first":
            a = self._unit_spec(rng, p)
            return a, ref.heisenberg(a), None
        if cls == "exhaustive":
            D = rng.choice(FIELDS)
            a = self._unit_spec(rng, p, (D,))
            return a, self._unit_spec(rng, p, tuple(f for f in FIELDS if f != D)), None
        while True:  # deep: a certificate planted at truncation 4 with c0 > 1
            a = self._unit_spec(rng, p)
            t = ref.truncate(a, 4)
            cands = [
                (c0, d0)
                for c0 in (2, 3, 4)
                for d0 in range(-4, 5)
                if (t.theta * c0 + d0).sign() > 0 and ref.condition(p, c0, d0, t.digit(0))
            ]
            if cands:
                c0, d0 = rng.choice(cands)
                even = ref.projection_window(t, c0, d0, self.ENTRIES)
                digits = ref.digits_from_even(p, even)
                b = ref.Spec(p, even[0], sum(x * p**j for j, x in enumerate(digits)), 1)
                return a, b, digits

    def make_round(self, seed: int, r: int) -> list[Op]:
        rng = round_rng(self.name, seed, r)
        ops = []
        for cls, count in self.MIX:
            for i in range(count):
                p = PRIMES[(r + i) % len(PRIMES)]
                a, b, digits = self._pair(rng, cls, p)
                texts = (json.dumps(spec_json(a)), json.dumps(spec_json(b, digits)))
                ops.append(Op(cls, (a, b, self._path(), self._path()) + texts))
        rng.shuffle(ops)
        return ops

    def prepare(self, ops: list[Op]) -> None:
        """Write the round's spec files, just before the round."""
        for op in ops:
            for path, text in zip(op.args[2:4], op.args[4:6]):
                Path(path).write_text(text)

    def finish(self, ops: list[Op]) -> None:
        for op in ops:
            for path in op.args[2:4]:
                Path(path).unlink(missing_ok=True)

    def run(self, op: Op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(["morita", "certify", "--spec-a", op.args[2], "--spec-b", op.args[3]])
        return code, buf.getvalue()

    def verify_certificate(self, a: ref.Spec, b: ref.Spec, cert: dict, orientation: str) -> None:
        """Re-derive the partner window of the certificate and match it against b."""
        c0, d0, m, k = cert["c0"], cert["d0"], cert["m"], cert["k"]
        entries = cert["matched_entries"]
        N = len(entries) - 1
        expect(entries == [2 * n for n in range(N + 1)] and N >= 0, f"matched entries {entries}")
        expect(k % 2 == 0 and k >= 0 and c0 != 0, f"certificate shape {cert}")
        t = ref.truncate(a, k)
        tau = t.theta * c0 + d0
        expect(tau.sign() > 0 and (tau - m).sign() < 0, f"trace {tau.text()} outside (0, {m})")
        expect(ref.condition(a.p, c0, d0, t.digit(0)), f"certificate {cert} fails the coprimality condition")
        sign = {"direct": 1, "flipped": -1}.get(orientation)
        expect(sign is not None, f"orientation {orientation!r}")
        for n, beta in enumerate(ref.projection_window(t, c0, d0, N)):
            expect(beta.frac() == (ref.alpha(b, 2 * n) * sign).frac(), f"certificate {cert} misses entry {2 * n}")

    def check(self, op: Op, out) -> bool:
        code, text = out
        report = json.loads(text)
        status = report.get("status")
        a, b = op.args[0], op.args[1]
        expect(code == (1 if status == "inconclusive" else 0), f"exit code {code} for status {status}")
        if status == "found":
            self.verify_certificate(a, b, report["certificate"], report.get("orientation"))
        if status == "impossible":
            # true when the primes differ, or when the thetas lie in different quadratic fields
            expect(a.p != b.p or different_fields(a.theta, b.theta), f"impossible claimed for {op.cls} pair")
        if op.cls == "exhaustive":
            return status in ("inconclusive", "impossible")
        return status == ("impossible" if op.cls == "impossible" else "found")

    def control(self, ops: list[Op]) -> bool:
        """A found certificate with d0 one unit off must fail re-verification."""
        op = next(o for o in ops if o.cls == "deep")
        self.prepare([op])
        try:
            report = json.loads(self.run(op)[1])
        finally:
            self.finish([op])
        cert = dict(report["certificate"], d0=report["certificate"]["d0"] + 1)
        try:
            self.verify_certificate(op.args[0], op.args[1], cert, report["orientation"])
        except Incorrect:
            return True
        return False


# -- bimodule-levels -------------------------------------------------------------------


class BimoduleLevels(Workload):
    """suite.check_bimodule at tower levels 0 and 1 for every prime."""

    name = "bimodule-levels"
    round_s = 1.07
    # operations per (p, level) and round.  Level 1 runs in about half the time of level 0, and level-0 time
    # grows with p: sorted by class median, 6 operations of a round fall below p3/n0 and 6 above its 4, so the
    # median lies in the middle of that class
    PER_ROUND = {(2, 1): 1, (3, 1): 1, (5, 1): 1, (7, 1): 1, (2, 0): 2, (3, 0): 4, (5, 0): 3, (7, 0): 3}
    HATS, POINTS = 6, 120

    def __init__(self, workdir: Path):
        self.distinct = Distinct()

    def imports(self):
        from fractions import Fraction

        from ncsolenoid import bimodule, suite
        from ncsolenoid.exactnum import QuadReal
        from ncsolenoid.morita import ProjectionData
        from ncsolenoid.padic import PAdic
        from ncsolenoid.solenoid import SolenoidSpec

        self.nc = SimpleNamespace(
            Fraction=Fraction, QuadReal=QuadReal, PAdic=PAdic, SolenoidSpec=SolenoidSpec, suite=suite,
            SamplePlan=bimodule.SamplePlan, ProjectionData=ProjectionData, BimCtx=bimodule.BimCtx, bimodule=bimodule,
        )

    def make_round(self, seed: int, r: int) -> list[Op]:
        rng = round_rng(self.name, seed, r)
        ops = []
        for (p, n), count in self.PER_ROUND.items():
            for _ in range(count):
                spec = self.distinct.spec(
                    lambda: ref.Spec(p, random_theta(rng), unit_numerator(rng, p), rng.choice([d for d in range(1, 30) if d % p]))
                )
                ops.append(Op(f"p{p}/n{n}", (spec, n, self.distinct.seed(rng))))
        rng.shuffle(ops)
        return ops

    def _inputs(self, op: Op):
        nc = self.nc
        spec, n, plan_seed = op.args
        plan = nc.SamplePlan(seed=plan_seed, hats=self.HATS, r_points=self.POINTS, t_points=self.POINTS)
        return pspec(nc, spec), nc.ProjectionData(1, 1, 0), n, plan

    def run(self, op: Op):
        return self.nc.suite.check_bimodule(*self._inputs(op))

    def check(self, op: Op, out) -> bool:
        spec, n, _ = op.args
        for level in (n, n + 1):  # identity_suite works on both levels
            ctx = self.nc.BimCtx.build(pspec(self.nc, spec), self.nc.ProjectionData(1, 1, 0), level)
            self.check_ctx(spec, level, ctx)
        errs = out["identities"].values()
        return out["pass"] is True and all(math.isfinite(e) and 0.0 <= e <= TOLERANCE for e in errs)

    @staticmethod
    def check_ctx(spec: ref.Spec, level: int, ctx) -> None:
        """BimCtx constants against the reference: integers exactly, floats to 1e-12."""
        c, d = ref.trace_line(spec, 1, 0, level)
        x = ref.alpha(spec, 2 * level)
        a, b = ref.bezout_normalized(c, d, x)
        expect((ctx.c, ctx.d, ctx.a, ctx.b) == (c, d, a, b), f"BimCtx integers {(ctx.c, ctx.d, ctx.a, ctx.b)} != {(c, d, a, b)}")
        floats = {
            "alpha_f": x,
            "beta_f": ref.mobius(a, b, c, d, x),
            "gamma_f": spec.theta.inverse(),  # 1 / (theta * c0 + d0) with c0 = 1, d0 = 0
        }
        for name, want in floats.items():
            w = want.to_float()
            expect(abs(getattr(ctx, name) - w) <= 1e-12 * max(1.0, abs(w)), f"BimCtx.{name} {getattr(ctx, name)} != {w}")

    def control(self, ops: list[Op]) -> bool:
        """A corrupted gamma must push iota_left_action above tolerance."""
        spec, proj, _, _ = self._inputs(ops[0])
        plan = self.nc.SamplePlan(seed=0, hats=2, r_points=40, t_points=40)
        return self.nc.bimodule.identity_suite(spec, proj, 0, plan, corrupt_gamma=1e-3)["iota_left_action"] > TOLERANCE


WORKLOADS = {w.name: w for w in (ExactProps, PartnerSearch, BimoduleLevels)}
