"""Layered benchmark for levicalc.

    python3 bench/run.py --workload {transfer,jets,grids,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``src/`` and nowhere else, and the program exits non-zero, printing no
result, when that tree is missing.

``--trace 0`` measures the end-to-end metrics with no instrumentation:
whole passes over a fixed mix of operations for ``--seconds``, with
``ops_per_s`` and ``op_p50_ms`` taken as medians over passes and times
scaled to a reference machine speed (see the calibration note in
``workloads.py``).
``--trace 1`` gives the per-layer metrics: fixed-operand timings, then a
third of the time untraced, then the same passes again with every layer
wrapped (see ``tracer.py``); the gap between the two is ``trace.overhead_frac``.
Spans are written to ``bench/out/``.  Either way the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from gen import PRIMITIVES
from tracer import CALCULUS_FNS, FIELD_OPS, LAYERS
from workloads import CLI_COMMANDS, LEVICALC_ERRORS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Percentile reported as op_tail_ms.  Each leaves at least ten operations
# beyond it at the seed commit's speed and the run length in BENCHMARK.json,
# and falls inside one kind's times rather than between two kinds (transfer:
# 20.5 of the 22 checks of a pass lie below its p93).
TAIL_PCT = {"transfer": 93, "jets": 90, "grids": 90, "cli": 75}
SETUP_PROBES = 5

END_TO_END = [
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

FIELD_FIXED = ("add", "mul", "compare", "inv", "sqrt")
EXPR_FIXED = {"sin": "sin(x)", "exp": "exp(x)", "log": "log(x)",
              "composite": "exp(x)*cos(x)/(1+x^2)"}
ERROR_NAMES = LEVICALC_ERRORS + ("WrongAnswer", "CliFailure", "OtherException")


def per_layer_spec() -> list:
    """(name, unit, better) of every metric a traced run prints, in order."""
    spec = []
    for layer in LAYERS:
        spec.append((f"{layer}.self_frac", "frac", "lower"))
    spec.append(("other.self_frac", "frac", "lower"))
    for op in FIELD_OPS:
        spec += [(f"field.{op}.calls", "count", "lower"), (f"field.{op}.self_ms", "ms", "lower")]
    spec += [("field.mul.term_pairs", "count", "lower"), ("field.mul.kept_frac", "frac", "higher"),
             ("field.operand_terms_mean", "terms", "lower")]
    for fn in PRIMITIVES:
        spec += [(f"expr.call_hyper.{fn}.calls", "count", "lower"),
                 (f"expr.call_hyper.{fn}.self_ms", "ms", "lower")]
    spec += [("expr.eval_hyper.calls", "count", "lower"), ("expr.eval_hyper.self_ms", "ms", "lower"),
             ("expr.eval_real.calls", "count", "lower"), ("expr.eval_real.self_ms", "ms", "lower"),
             ("expr.eval_real.array_frac", "frac", "higher"),
             ("expr.symbolic_derivative.calls", "count", "lower"),
             ("expr.symbolic_derivative.self_ms", "ms", "lower"),
             ("expr.parse_expr.calls", "count", "lower"), ("expr.parse_expr.self_ms", "ms", "lower")]
    for fn in CALCULUS_FNS:
        spec += [(f"calculus.{fn}.calls", "count", "lower"), (f"calculus.{fn}.self_ms", "ms", "lower"),
                 (f"calculus.{fn}.p50_us", "us", "lower")]
    spec += [("calculus.mvt_theta_real.eval_real_per_call", "count", "lower"),
             ("calculus.mvt_theta_infinitesimal.eval_hyper_per_call", "count", "lower")]
    spec += [("formulas.check.calls", "count", "lower"), ("formulas.check.self_ms", "ms", "lower"),
             ("formulas.sample.calls", "count", "lower"), ("formulas.sample.self_ms", "ms", "lower"),
             ("formulas.evals_per_check", "count", "lower"), ("formulas.real_path_frac", "frac", "higher"),
             ("formulas.evals_per_s", "1/s", "higher")]
    spec += [("cli.python_start_ms", "ms", "lower"), ("cli.import_ms", "ms", "lower"),
             ("cli.import_numpy_ms", "ms", "lower")]
    spec += [(f"cli.{cmd}.p50_ms", "ms", "lower") for cmd in CLI_COMMANDS]
    spec += [(f"field.{op}.fixed_us", "us", "lower") for op in FIELD_FIXED]
    spec += [(f"expr.eval_hyper.{name}.fixed_us", "us", "lower") for name in EXPR_FIXED]
    spec += [(f"errors.{name}.count", "count", "lower") for name in ERROR_NAMES]
    spec += [("errors.failed_frac", "frac", "lower"), ("trace.overhead_frac", "frac", "lower")]
    return spec


# -- locating the code under test ---------------------------------------------------


def import_levicalc():
    """Import levicalc from this checkout's src/ only; exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "levicalc" / "__init__.py").is_file() or not (ROOT / "demos" / "formulas").is_dir():
        sys.exit(f"bench: no levicalc source tree under {ROOT} (need src/levicalc and demos/formulas)")
    sys.path.insert(0, str(src))
    import levicalc

    if Path(levicalc.__file__).resolve().parent != (src / "levicalc").resolve():
        sys.exit(f"bench: levicalc imported from {levicalc.__file__}, not from {src}")
    return levicalc


def commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a repo."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


# -- the measurement loop ---------------------------------------------------------------


class Record:
    """What one run of the loop saw."""

    def __init__(self):
        self.durations = []            # seconds per operation, in order
        self.kinds = []
        self.failures = []             # whether each operation failed
        self.errors = Counter()        # failure class name -> count
        self.evals = 0                 # checker evaluations reported by the checks
        self.pass_ends = []            # len(durations) after each pass
        self.calibration = []          # workload.calibrate() before each pass

    @property
    def passes(self):
        return len(self.pass_ends)

    def per_pass(self, reference_s):
        """(durations scaled to the reference speed, failures) of each pass."""
        start = 0
        for end, calibration in zip(self.pass_ends, self.calibration):
            scale = reference_s / calibration
            yield [d * scale for d in self.durations[start:end]], self.failures[start:end]
            start = end

    @property
    def attempted(self):
        return len(self.durations)

    @property
    def failed(self):
        return sum(self.errors.values())


def _error_name(exc) -> str:
    name = type(exc).__name__
    return name if name in ERROR_NAMES else "OtherException"


def _failed(record, op, exc):
    record.errors[_error_name(exc)] += 1
    record.failures[-1] = True
    if record.failed <= 5:
        print(f"bench: FAILED {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)


def run_ops(ops, record, wrap=None):
    clock = time.perf_counter
    for op in ops:
        start = clock()
        try:
            result = wrap(op.run) if wrap else op.run()
        except Exception as exc:  # a failing operation is counted, and the run goes on
            record.durations.append(clock() - start)
            record.kinds.append(op.kind)
            record.failures.append(False)
            _failed(record, op, exc)
            continue
        record.durations.append(clock() - start)
        record.kinds.append(op.kind)
        record.failures.append(False)
        try:
            record.evals += op.check(result) or 0
        except Exception as exc:
            _failed(record, op, exc)


def measure(workload, seconds, passes=None, wrap=None) -> Record:
    """Whole passes until ``seconds`` have gone by (or exactly ``passes`` passes)."""
    record = Record()
    start = time.perf_counter()
    p = 0
    while True:
        record.calibration.append(workload.calibrate())
        run_ops(workload.pass_ops(p), record, wrap)
        p += 1
        record.pass_ends.append(record.attempted)
        if passes is not None:
            if record.passes >= passes:
                return record
        elif time.perf_counter() - start >= seconds:
            return record


def set_up(args):
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    run_ops(workload.warm_up_ops(), Record())
    return workload


def tail(durations, pct):
    """Nearest-rank percentile in ms, and the number of samples beyond it."""
    ordered = sorted(durations)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1] * 1000, len(ordered) - rank


def setup_seconds(args) -> list:
    """Wall time of separate processes that only set up (import, inputs, warm-up)."""
    from workloads import run_child

    argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        code, out, _ = run_child(argv)
        times.append(time.perf_counter() - start)
        if code != 0:
            sys.exit(f"bench: set-up probe failed ({code}): {out[-500:]}")
    return times


def end_to_end(args, workload, record) -> dict:
    import workloads

    # Every pass has the same mix of operations; throughput and median are
    # medians over passes, so a passing slowdown of the machine moves them little.
    passes = list(record.per_pass(workload.reference_s))
    scaled = [d for durations, _ in passes for d in durations]
    tail_ms, beyond = tail(scaled, TAIL_PCT[args.workload])
    setups = setup_seconds(args)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median((len(d) - sum(f)) / sum(d) for d, f in passes),
        "op_p50_ms": statistics.median(statistics.median(d) for d, _ in passes) * 1000,
        "op_tail_ms": tail_ms,
        "peak_rss_mb": workloads.peak_rss_mib(workload),
    }
    busy = sum(record.durations)
    raw_tail, _ = tail(record.durations, TAIL_PCT[args.workload])
    print(f"machine: calibration {statistics.median(record.calibration) * 1e3:.4g} ms against "
          f"{workload.reference_s * 1e3:g} ms; unscaled: ops_per_s {record.attempted / busy:.6g}, "
          f"op_p50_ms {statistics.median(record.durations) * 1e3:.6g}, op_tail_ms {raw_tail:.6g}")
    print(f"op_tail_ms is p{TAIL_PCT[args.workload]} of {record.attempted} operations "
          f"({beyond} beyond it); setup_s is the median of {len(setups)} set-ups")
    print(f"failed_frac {record.failed / record.attempted:.6g} frac")
    if args.workload == "transfer":
        print(f"evals_per_s {record.evals / busy:.6g} 1/s  (sum of CheckReport.samples_used / busy time)")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


# -- the traced run -----------------------------------------------------------------------


def _per_call_us(fn, target_s=0.01, blocks=5):
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - start >= target_s:
            break
        n *= 2
    samples = []
    for _ in range(blocks):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - start) / n * 1e6)
    return statistics.median(samples)


def fixed_rows() -> dict:
    """The operand rows of ROADMAP aim 1, timed with tracing off."""
    from levicalc import expr, field

    a = field.parse_lc("1.3 + 0.1*eps^(1/3) + 0.7*eps - 0.2*eps^2")
    rows = {
        "field.add.fixed_us": _per_call_us(lambda: field.add(a, a)),
        "field.mul.fixed_us": _per_call_us(lambda: field.mul(a, a)),
        "field.compare.fixed_us": _per_call_us(lambda: field.compare(a, a)),
        "field.inv.fixed_us": _per_call_us(lambda: field.inv(a)),
        "field.sqrt.fixed_us": _per_call_us(lambda: field.sqrt(a)),
    }
    x = {"x": field.parse_lc("0.3 + eps")}
    for name, src in EXPR_FIXED.items():
        tree = expr.parse_expr(src)
        rows[f"expr.eval_hyper.{name}.fixed_us"] = _per_call_us(lambda: expr.eval_hyper(tree, x))
    return rows


def cli_start_rows() -> dict:
    """Interpreter start and import costs, each the median of five processes."""
    from workloads import run_child

    def median_ms(argv):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            code, out, _ = run_child(argv)
            times.append((time.perf_counter() - start) * 1000)
            if code != 0:
                raise RuntimeError(out[-500:])
        return statistics.median(times), out

    def cumulative_ms(out, module):
        for line in out.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() == module:
                return int(parts[1]) / 1000
        raise RuntimeError(f"no import time for {module}")

    start_ms, _ = median_ms([sys.executable, "-c", "pass"])
    imports = [run_child([sys.executable, "-X", "importtime", "-c", "import levicalc"])[1]
               for _ in range(5)]
    return {"cli.python_start_ms": start_ms,
            "cli.import_ms": statistics.median(cumulative_ms(o, "levicalc") for o in imports),
            "cli.import_numpy_ms": statistics.median(cumulative_ms(o, "numpy") for o in imports)}


def layer_metrics(tracer, record) -> dict:
    stats, c = tracer.stats, tracer.counters
    row = lambda name: stats.get(name, (0, 0, 0))  # noqa: E731
    op_ns = c["op.ns"] or 1
    out = {}
    for layer in LAYERS:
        self_ns = sum(r[1] for name, r in stats.items() if name.split(".", 1)[0] == layer)
        out[f"{layer}.self_frac"] = self_ns / op_ns
    # Time in no layer's span: the benchmark's own code and the tracer's bookkeeping.
    out["other.self_frac"] = max(0.0, 1.0 - sum(out[f"{layer}.self_frac"] for layer in LAYERS))
    for op in FIELD_OPS:
        out[f"field.{op}.calls"] = row(f"field.{op}")[0]
        out[f"field.{op}.self_ms"] = row(f"field.{op}")[1] / 1e6
    pairs = c["field.mul.term_pairs"]
    out["field.mul.term_pairs"] = pairs
    out["field.mul.kept_frac"] = c["field.mul.kept_terms"] / pairs if pairs else 0.0
    out["field.operand_terms_mean"] = c["field.operand_terms"] / c["field.operands"] if c["field.operands"] else 0.0
    for fn in PRIMITIVES:
        out[f"expr.call_hyper.{fn}.calls"] = row(f"expr.call_hyper.{fn}")[0]
        out[f"expr.call_hyper.{fn}.self_ms"] = row(f"expr.call_hyper.{fn}")[1] / 1e6
    for name in ("eval_hyper", "eval_real", "symbolic_derivative", "parse_expr"):
        out[f"expr.{name}.calls"] = row(f"expr.{name}")[0]
        out[f"expr.{name}.self_ms"] = row(f"expr.{name}")[1] / 1e6
    real_calls = row("expr.eval_real")[0]
    out["expr.eval_real.array_frac"] = c["expr.eval_real.array_calls"] / real_calls if real_calls else 0.0
    for fn in CALCULUS_FNS:
        name = f"calculus.{fn}"
        out[f"{name}.calls"] = row(name)[0]
        out[f"{name}.self_ms"] = row(name)[1] / 1e6
        durations = tracer.durations.get(name)
        out[f"{name}.p50_us"] = statistics.median(durations) / 1e3 if durations else 0.0
    for fn, child in (("mvt_theta_real", "eval_real"), ("mvt_theta_infinitesimal", "eval_hyper")):
        calls = row(f"calculus.{fn}")[0]
        out[f"calculus.{fn}.{child}_per_call"] = c[f"calculus.{fn}.{child}"] / calls if calls else 0.0
    for name in ("check", "sample"):
        out[f"formulas.{name}.calls"] = row(f"formulas.{name}")[0]
        out[f"formulas.{name}.self_ms"] = row(f"formulas.{name}")[1] / 1e6
    checks = row("formulas.check")[0]
    out["formulas.evals_per_check"] = c["formulas.samples_used"] / checks if checks else 0.0
    real, hyper = c["expr.eval_real.from.formulas"], c["expr.eval_hyper.from.formulas"]
    out["formulas.real_path_frac"] = real / (real + hyper) if real + hyper else 0.0
    for name in ERROR_NAMES:
        out[f"errors.{name}.count"] = record.errors.get(name, 0)
    out["errors.failed_frac"] = record.failed / record.attempted
    return out


def traced(args, workload) -> tuple:
    from tracer import Tracer

    values = fixed_rows()
    values.update(cli_start_rows() if args.workload == "cli" else
                  {"cli.python_start_ms": 0.0, "cli.import_ms": 0.0, "cli.import_numpy_ms": 0.0})

    plain = measure(workload, args.seconds / 3)
    for cmd in CLI_COMMANDS:
        durations = [d for d, k in zip(plain.durations, plain.kinds) if k == cmd]
        values[f"cli.{cmd}.p50_ms"] = statistics.median(durations) * 1000 if durations else 0.0

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}"
    tracer = Tracer(span_cap=20_000)
    if args.workload == "cli":
        # The work happens in child processes: run each under the same tracer there.
        summary = stem.with_suffix(".child.json")
        workload.launcher = [sys.executable, str(BENCH / "cli_child.py"), str(summary)]

        def wrap(fn):
            try:
                return tracer.op(fn)
            finally:
                if summary.exists():
                    tracer.merge(json.loads(summary.read_text()))
                    summary.unlink()
    else:
        wrap = tracer.op
        tracer.install()
    try:
        # The same passes again, so the two halves differ only by the tracing.
        traced_record = measure(workload, 0, passes=plain.passes, wrap=wrap)
    finally:
        tracer.uninstall()
    if tracer.spans:  # the cli workload's spans stay in its child processes
        tracer.dump(stem.with_suffix(".spans.jsonl"))

    total = Record()
    for r in (plain, traced_record):
        total.durations += r.durations
        total.errors.update(r.errors)
    values.update(layer_metrics(tracer, total))
    values["formulas.evals_per_s"] = plain.evals / sum(plain.durations)  # untraced half
    def per_op(record):  # mean time per operation at the reference speed
        scaled = [d for durations, _ in record.per_pass(workload.reference_s) for d in durations]
        return sum(scaled) / len(scaled)

    values["trace.overhead_frac"] = per_op(traced_record) / per_op(plain) - 1
    with open(stem.with_suffix(".layers.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": environment(), "metrics": values,
                   "stats": tracer.stats,
                   "counters": dict(tracer.counters)}, fh, indent=1, sort_keys=True)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_spec()}
    return metrics, total


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit(), "nproc": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("transfer", "jets", "grids", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, make inputs and warm up, then exit (times set-up)")
    args = parser.parse_args(argv)

    import_levicalc()
    workload = set_up(args)
    if args.setup_only:
        return 0

    env = environment()
    print(f"levicalc bench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} python={env['python']} numpy={env['numpy']} "
          f"commit={env['commit']} nproc={env['nproc']}")
    if args.trace:
        metrics, record = traced(args, workload)
    else:
        record = measure(workload, args.seconds)
        metrics = end_to_end(args, workload, record)
    print(f"{record.attempted} operations, {record.failed} failed {dict(record.errors) or ''}")
    for name, m in metrics.items():
        print(f"  {name:55s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": record.failed == 0, "attempted": record.attempted,
                      "failed": record.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
