"""Tests of the benchmark itself (not of levicalc).

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_program():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == run.per_layer_spec()
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_prints_with_its_unit(workload, trace):
    out = result(bench("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", trace))
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    if trace == "0":
        assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_seed_fixes_the_inputs(workload):
    labels = lambda seed: [op.label for op in workloads.WORKLOADS[workload](seed).pass_ops(0)]  # noqa: E731
    assert labels(1) == labels(1)
    assert labels(1) != labels(2)
    kinds = lambda seed: [op.kind for op in workloads.WORKLOADS[workload](seed).pass_ops(0)]  # noqa: E731
    assert kinds(1) == kinds(2)


def test_a_new_seed_keeps_the_metric_set():
    one = result(bench("--workload", "grids", "--seed", "1", "--seconds", "0", "--trace", "1"))
    two = result(bench("--workload", "grids", "--seed", "2", "--seconds", "0", "--trace", "1"))
    assert one["metrics"].keys() == two["metrics"].keys()


def test_a_corrupted_reference_raises_failed_frac(monkeypatch):
    grids = workloads.Grids(5)
    clean = run.Record()
    run.run_ops(grids.pass_ops(0, exprs=2), clean)
    assert clean.attempted == 10 and clean.failed == 0

    monkeypatch.setattr(gen, "simpson", lambda e, a, b, panels=2000: 1e3)
    corrupted = run.Record()
    run.run_ops(grids.pass_ops(0, exprs=2), corrupted)
    assert corrupted.errors == {"WrongAnswer": 2}
    assert corrupted.failed / corrupted.attempted == 0.2


def test_references_agree_with_math():
    e = ("mul", ("call", "sin", gen.X), ("call", "exp", gen.X))  # sin(x) * exp(x)
    assert gen.render(e) == "(sin(x) * exp(x))"
    assert gen.derivative(e, 0.0, 1) == pytest.approx(1.0)
    assert gen.derivative(e, 0.0, 3) == pytest.approx(2.0)  # (e^x sin x)''' = 2e^x(cos x - sin x)
    assert gen.simpson(("call", "sin", gen.X), 0.0, 3.141592653589793) == pytest.approx(2.0, abs=1e-10)
    assert gen.dense_max(("neg", ("pow", gen.X, 2)), -1.0, 1.0) == 0.0


def test_tracer_restores_the_package_and_counts_self_time():
    from levicalc import calculus, expr, field
    from tracer import Tracer

    originals = (field.mul, calculus.eval_hyper, expr.eval_real)
    tracer = Tracer().install()
    try:
        assert field.mul is not originals[0] and calculus.eval_hyper is not originals[1]
        assert expr.eval_real is originals[2]  # recursive by name: only its aliases are wrapped
        f = expr.parse_expr("exp(x)*cos(x)/(1+x^2)")
        tracer.op(lambda: calculus.derivative(f, 0.3, 2))
    finally:
        tracer.uninstall()
    assert (field.mul, calculus.eval_hyper, expr.eval_real) == originals
    stats = tracer.stats
    assert stats["calculus.derivative"][0] == 1 and stats["expr.eval_hyper"][0] == 1
    assert stats["field.mul"][0] > 0 and stats["expr.call_hyper.exp"][0] == 1
    for calls, self_ns, total_ns in stats.values():
        assert 0 <= self_ns <= total_ns
    covered = sum(row[1] for row in stats.values())
    assert covered <= tracer.counters["op.ns"]


def test_without_the_source_tree_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "jets", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
