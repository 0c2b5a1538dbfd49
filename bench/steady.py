#!/usr/bin/env python3
"""Repeat mode: how steady is each end-to-end metric from run to run?

    python3 bench/steady.py --runs 10 [--sets 2] [--seconds 30]

Runs every workload --runs times, each run with its own seed (1, 2, ... in
the first set, 1001, 1002, ... in the second) and with the
workload order rotated from one pass to the next, one process at a time.
For every end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to the
bound in BENCHMARK.json, and the same figures for the raw wall times that
each run keeps in bench/out/, before the speed correction.  A spread counts as steady below a third of its
bound; set-up time is reported but not held to that.  With --sets 2 the
whole measurement is made twice and the second median is compared with the
first.  Every run's result lands in bench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - t0
    record = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
    result["raw"] = record["raw"]
    return result


def measure_set(workloads: list[str], runs: int, seconds: int, seed0: int) -> dict[str, list[dict]]:
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for i in range(runs):
        k = i % len(workloads)
        for w in workloads[k:] + workloads[:k]:
            r = run_once(w, seed0 + i, seconds)
            results[w].append(r)
            values = ", ".join(f"{m} {v['value']:.4g}" for m, v in r["metrics"].items())
            print(f"  run {i + 1}/{runs} {w} seed {seed0 + i}: attempted {r['attempted']} failed {r['failed']} "
                  f"correct {r['correct']} wall {r['wall_s']:.1f} s; {values}", flush=True)
    return results


def quartiles(vals: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def summarize(results: dict[str, list[dict]], bounds: dict[str, float]) -> dict:
    table = {}
    for w, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{w}: failed share {sorted(shares)} over {len(runs)} runs; all correct: {all(r['correct'] for r in runs)}")
        for metric, bound in bounds.items():
            q = quartiles([r["metrics"][metric]["value"] for r in runs])
            steady = metric == "setup_s" or q["spread"] < bound / 3
            table[f"{w}/{metric}"] = dict(q, bound=bound)
            print(f"  {metric:14s} median {q['median']:10.4f}  q1 {q['q1']:10.4f}  q3 {q['q3']:10.4f}  "
                  f"spread {q['spread']:6.3f}  bound {bound:5.2f}  {'ok' if steady else 'WIDE'}")
        for metric in runs[0]["raw"]:
            q = quartiles([r["raw"][metric] for r in runs])
            table[f"{w}/raw.{metric}"] = dict(q, bound=bounds[metric])
            print(f"  raw {metric:10s} median {q['median']:10.4f}  q1 {q['q1']:10.4f}  q3 {q['q3']:10.4f}  "
                  f"spread {q['spread']:6.3f}")
    return table


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    sets = []
    for s in range(args.sets):
        print(f"set {s + 1}: {args.runs} runs of {args.seconds} s per workload", flush=True)
        results = measure_set(names, args.runs, args.seconds, 1 + 1000 * s)
        sets.append({"results": results, "summary": summarize(results, bounds)})
    if args.sets == 2:
        print("second set against the first:")
        for key, first in sets[0]["summary"].items():
            second = sets[1]["summary"][key]
            metric = key.split("/")[1].removeprefix("raw.")
            change = (second["median"] - first["median"]) / first["median"]
            worse = change if better[metric] == "lower" else -change
            print(f"  {key:36s} {change:+7.3f}  {'ok' if worse <= first['bound'] else 'WORSE'}")
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(sets, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
