#!/usr/bin/env python3
"""ncsolenoid benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload exact-props --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds `src/ncsolenoid`.  The list of
operations is fixed by --seed and --seconds: a run executes
round(seconds / round_s) rounds, each a fresh list of operations with the
same classes and counts, so attempted and failed counts repeat exactly.
Every run executes all of its rounds; round_s is sized so that they take
about --seconds at the slowest speed the machine was seen to run at.

Times are corrected for the machine's speed.  A fixed piece of pure-Python
work (calibrate) runs between operations about every CAL_EVERY_S seconds;
every wall time of the run is scaled by CAL_NOMINAL over the median of its
calibration times.  The figures are thus wall times expressed at one
nominal machine speed; raw wall-time figures go to bench/out/ as well.

--trace 0 prints the end-to-end metrics; set-up time is the median over
SETUP_PROBES fresh processes that do the same set-up.  --trace 1 prints the
per-layer metrics from a run with the tracer installed (see tracer.py) and
the tracing overhead.  The last line of stdout is the JSON result.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # numpy's thread pools: one thread, inherited by every child

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import reference as ref

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 5
CAL_NOMINAL = 0.003  # seconds calibrate() takes at the nominal machine speed
CAL_EVERY_S = 0.25  # operation time between two calibrations
TRACE_COST = 1.5  # nominal traced over untraced time, sizes the traced run


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def use_checkout_source() -> None:
    """Import ncsolenoid from this checkout's src/ and nowhere else."""
    if not (SRC / "ncsolenoid" / "__init__.py").is_file():
        fail(f"no ncsolenoid package under {SRC}")
    sys.path.insert(1, str(SRC))
    import ncsolenoid

    if Path(ncsolenoid.__file__).resolve().parent != SRC / "ncsolenoid":
        fail(f"ncsolenoid was imported from {ncsolenoid.__file__}, not from {SRC}")


def setup(name: str, seed: int, rounds: int, workdir: Path):
    """Import the program and build every input of the run."""
    use_checkout_source()
    import workloads

    wl = workloads.WORKLOADS[name](workdir)
    wl.imports()
    return wl, [wl.make_round(seed, r) for r in range(rounds)]


CAL_SPEC = ref.Spec(3, ref.Surd.of(-1, 1, 2, 1), 7, 1019)


def calibrate() -> float:
    """Seconds a fixed mix of object-heavy pure Python takes now: the machine's current speed.

    The mix builds and uses an argparse parser, writes JSON and runs the
    exact reference (bench/reference.py); it shares no code with ncsolenoid.
    Its time follows the operations' times through the machine's slow and
    fast phases with a log-log slope near 1, where big-integer or Fraction
    loops alone move less than the operations do.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        ap = argparse.ArgumentParser()
        sub = ap.add_subparsers(dest="command")
        for i in range(12):
            sp = sub.add_parser(f"c{i}")
            sp.add_argument("--x", type=int)
            sp.add_argument("--y")
        ap.parse_args(["c3", "--x", "4"])
        json.dumps({"v": [str(Fraction(i, 7)) for i in range(50)]}, sort_keys=True, indent=2)
        ref.projection_window(CAL_SPEC, 1, 0, 3)
        ref.padic_digits(3, 7, 1019)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def probe_setup(args) -> tuple[float, float]:
    """Seconds from spawning a fresh process to the end of its set-up, and its speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"set-up probe failed: {proc.stderr.strip()}")
    ready, speed = proc.stdout.split()[-2:]
    return float(ready) - t0, float(speed)


class Timing:
    """Operation durations and the calibrations made between them."""

    def __init__(self):
        self.ops: list[tuple[str, float]] = []  # (operation class, wall seconds)
        self.cal: list[float] = []
        self._since = CAL_EVERY_S

    def before(self) -> None:
        if self._since >= CAL_EVERY_S:
            self.cal.append(calibrate())
            self._since = 0.0

    def add(self, cls: str, dt: float) -> None:
        self.ops.append((cls, dt))
        self._since += dt

    def corrected(self) -> list[float]:
        """Each duration at the nominal machine speed."""
        factor = CAL_NOMINAL / statistics.median(self.cal)
        return [dt * factor for _, dt in self.ops]


def run_round(wl, ops, timing: Timing, errors: list[str], tracer=None) -> int:
    """Time each operation, then check it; returns the number that failed."""
    import workloads

    failed = 0
    perf = time.perf_counter
    wl.prepare(ops)
    for op in ops:
        timing.before()
        out = None
        if tracer:
            tracer.active = True
        t0 = perf()
        try:
            out = wl.run(op)
        except (Exception, SystemExit) as exc:  # a failed operation is counted, not fatal
            out = exc
        dt = perf() - t0
        if tracer:
            tracer.active = False
        timing.add(op.cls, dt)
        if isinstance(out, BaseException):
            failed += 1
            errors.append(f"{op.cls}: {type(out).__name__}: {out}")
            continue
        try:
            if not wl.check(op, out):
                failed += 1
                errors.append(f"{op.cls}: the program reported a failure")
        except workloads.Incorrect as exc:
            errors.append(f"INCORRECT {op.cls}: {exc}")
    wl.finish(ops)
    return failed


def class_summary(timing: Timing) -> dict:
    by_cls: dict[str, list[float]] = {}
    for cls, dt in timing.ops:
        by_cls.setdefault(cls, []).append(dt)
    return {cls: {"count": len(v), "median_ms": statistics.median(v) * 1e3} for cls, v in sorted(by_cls.items())}


def rounds_for(args) -> int:
    import workloads

    return max(1, round(args.seconds / workloads.WORKLOADS[args.workload].round_s))


def end_to_end(args, wl, plan, errors):
    setup_samples = [probe_setup(args) for _ in range(SETUP_PROBES)]
    timing = Timing()
    failed = attempted = 0
    gc.collect()
    start = time.monotonic()
    for ops in plan:
        failed += run_round(wl, ops, timing, errors)
        attempted += len(ops)
    corrected = timing.corrected()
    raw = [dt for _, dt in timing.ops]
    metrics = {
        "checks_per_s": (attempted / sum(corrected), "1/s"),
        "check_p50_ms": (statistics.median(corrected) * 1e3, "ms"),
        "setup_s": (statistics.median(s * CAL_NOMINAL / c for s, c in setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    record = {
        "raw": {"checks_per_s": attempted / sum(raw), "check_p50_ms": statistics.median(raw) * 1e3,
                "setup_s": statistics.median(s for s, _ in setup_samples)},
        "calibration_ms": {"median": statistics.median(timing.cal) * 1e3, "min": min(timing.cal) * 1e3,
                           "max": max(timing.cal) * 1e3, "samples": len(timing.cal)},
        "loop_s": time.monotonic() - start,
        "classes": class_summary(timing),
    }
    summary = (f"{attempted} operations in {attempted // len(plan[0])} rounds, {sum(raw):.2f} s of operation time, "
               f"raw {record['raw']['checks_per_s']:.2f} checks/s at calibration {record['calibration_ms']['median']:.2f} ms")
    return attempted, failed, metrics, record, summary


def traced(args, wl, plan, errors):
    import tracer as tracing

    tracer = tracing.Tracer()
    plain, traced_timing = Timing(), Timing()
    failed = 0
    for r, ops in enumerate(plan):  # alternate untraced rounds and traced ones, wrappers installed only for these
        if r % 2 == 0:
            failed += run_round(wl, ops, plain, errors)
            continue
        tracer.install()
        try:
            failed += run_round(wl, ops, traced_timing, errors, tracer)
        finally:
            tracer.uninstall()
    overhead = sum(traced_timing.corrected()) / sum(plain.corrected())
    metrics = tracer.metrics()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    metrics["cli.import_s"], metrics["cli.import_numpy_s"] = (
        (v, "s") for v in tracing.import_times(sys.executable, env, str(ROOT))
    )
    metrics["trace.overhead"] = (overhead, "ratio")
    record = {"top_functions": tracer.top_functions(), "classes": class_summary(traced_timing)}
    attempted = sum(len(ops) for ops in plan)
    summary = (f"{attempted} operations in {len(plan)} rounds; tracing overhead {overhead:.2f}x "
               f"(traced {sum(dt for _, dt in traced_timing.ops):.2f} s / untraced {sum(dt for _, dt in plain.ops):.2f} s "
               f"of wall time, {len(plan) // 2} rounds each)")
    return attempted, failed, metrics, record, summary


def measure(args, workdir: Path) -> int:
    if args.probe_setup:
        setup(args.workload, args.seed, rounds_for(args), workdir)
        ready = time.monotonic()
        print(ready, statistics.median(calibrate() for _ in range(3)))
        return 0
    if args.trace:
        import workloads

        half = max(1, round(args.seconds / (workloads.WORKLOADS[args.workload].round_s * (1 + TRACE_COST))))
        wl, plan = setup(args.workload, args.seed, 2 * half, workdir)
    else:
        wl, plan = setup(args.workload, args.seed, rounds_for(args), workdir)
    errors: list[str] = []
    attempted, failed, metrics, record, summary = (traced if args.trace else end_to_end)(args, wl, plan, errors)

    controls = wl.control([op for ops in plan for op in ops])
    incorrect = [e for e in errors if e.startswith("INCORRECT")]
    for line in errors[:20]:
        print(line, file=sys.stderr)
    result = {
        "correct": not incorrect and controls,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  errors=errors[:50], **record)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(f"{args.workload} seed {args.seed}: {summary}; {failed} failed; "
          f"negative control {'detected' if controls else 'NOT detected'}")
    print(json.dumps(result))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("exact-props", "partner-search", "bimodule-levels"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
