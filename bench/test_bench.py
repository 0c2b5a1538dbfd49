"""Tests of the benchmark itself: run with `python3 -m pytest bench -q` from the repository root."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import reference as ref
import workloads

run.use_checkout_source()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, seconds: float = 0.5, seed: int = 7, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_reports_every_end_to_end_metric(workload):
    result = result_of(bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = result_of(bench(workload, 1)), result_of(bench(workload, 1))
    assert {k: v["unit"] for k, v in first["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"} for r in (first, second)]
    assert counts[0] == counts[1]
    assert first["attempted"] == second["attempted"] and first["correct"] and first["failed"] == 0


def test_inputs_depend_only_on_the_seed():
    a, b, c = (workloads.ExactProps(BENCH).make_round(seed, 0) for seed in (1, 1, 2))
    assert a == b and a != c
    assert [op.cls for op in sorted(a, key=lambda o: o.cls)] == [op.cls for op in sorted(c, key=lambda o: o.cls)]


def test_no_two_operations_share_a_spec():
    wl = workloads.BimoduleLevels(BENCH)
    specs = [op.args[0] for r in range(5) for op in wl.make_round(3, r)]
    assert len(specs) == len(set(specs))


def test_reference_matches_the_program():
    from fractions import Fraction

    from ncsolenoid.morita import ProjectionData, heisenberg_partner, projection_partner
    from ncsolenoid.solenoid import alpha_at

    wl = workloads.ExactProps(BENCH)
    wl.imports()
    rng = random.Random(5)
    for p in workloads.PRIMES:
        spec = ref.Spec(p, workloads.random_theta(rng), workloads.unit_numerator(rng, p), rng.choice([7, 11, 13]) if p != 7 else 9)
        prog = workloads.pspec(wl.nc, spec)
        assert prog.digits.as_fraction() == Fraction(spec.num, spec.den)
        for n in range(8):
            assert workloads.same(alpha_at(prog, n), ref.alpha(spec, n))
        for n, v in heisenberg_partner(prog, 6):
            assert workloads.same(v, ref.beta(spec, n))
        for (n, v), want in zip(projection_partner(prog, ProjectionData(1, 1, 0), 4), ref.projection_window(spec, 1, 0, 4)):
            assert workloads.same(v, want)


def test_reference_rejects_a_value_one_unit_off():
    from ncsolenoid.solenoid import alpha_at

    wl = workloads.ExactProps(BENCH)
    wl.imports()
    spec = ref.Spec(3, ref.Surd.of(-1, 1, 2, 1), 7, 11)
    got = ref.parse(str(alpha_at(workloads.pspec(wl.nc, spec), 5)))
    assert got == ref.alpha(spec, 5)
    for off in (ref.Surd.of(got.A + 1, got.B, got.D, got.M), ref.Surd.of(got.A, got.B + 1, got.D, got.M)):
        assert off != ref.alpha(spec, 5)
    ops = wl.make_round(0, 0)
    assert wl.control(ops)  # a reduce_h window with one entry one unit off is rejected


def test_certificate_one_unit_off_is_rejected():
    wl = workloads.PartnerSearch(BENCH / "out")
    (BENCH / "out").mkdir(exist_ok=True)
    wl.imports()
    ops = wl.make_round(0, 0)
    assert wl.control(ops)
    wl.prepare(ops)
    try:
        assert all(wl.check(op, wl.run(op)) for op in ops)
    finally:
        wl.finish(ops)


def test_exhaustive_pair_may_end_impossible():
    wl = workloads.PartnerSearch(BENCH / "out")
    ops = wl.make_round(0, 0)
    impossible = (0, json.dumps({"status": "impossible", "pass": True}))
    assert wl.check(next(op for op in ops if op.cls == "exhaustive"), impossible)  # a field obstruction is true
    with pytest.raises(workloads.Incorrect):
        wl.check(next(op for op in ops if op.cls == "first"), impossible)  # one prime, one field: not impossible


def test_tracer_sees_the_benchmarks_own_calls():
    import tracer as tracing

    wl = workloads.ExactProps(BENCH)
    wl.imports()
    ops = wl.make_round(0, 0)
    t = tracing.Tracer()
    t.install()
    try:
        t.active = True
        for kind in ("reduce_h", "heisenberg", "psi"):
            wl.run(next(op for op in ops if op.cls == f"{kind}/short"))
    finally:
        t.active = False
        t.uninstall()
    for name in ("solenoid.reduce_h", "morita.heisenberg_partner", "multiplier.psi_alpha"):
        assert t.fn_self[name] > 0, name


def test_corrupted_gamma_is_reported_above_tolerance():
    wl = workloads.BimoduleLevels(BENCH)
    wl.imports()
    assert wl.control(wl.make_round(0, 0))


def test_bimodule_constants_checked_against_reference():
    wl = workloads.BimoduleLevels(BENCH)
    wl.imports()
    spec = ref.Spec(5, ref.Surd.of(-1, 1, 2, 1), 3, 7)
    ctx = wl.nc.BimCtx.build(workloads.pspec(wl.nc, spec), wl.nc.ProjectionData(1, 1, 0), 1)
    wl.check_ctx(spec, 1, ctx)
    with pytest.raises(workloads.Incorrect):
        wl.check_ctx(spec, 1, ctx.with_gamma(ctx.gamma_f * (1 + 1e-9)))


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("exact-props", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
