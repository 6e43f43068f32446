"""The benchmark's workloads.

Each workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned.  Inputs are made in
passes; pass ``p`` of a workload is fixed by ``(seed, workload, p)``, so a run
repeats exactly for a seed, and a faster program simply gets through more
passes.  An operation hands levicalc only source text and numbers, and its
answer is checked against a reference from ``gen`` that does not use
levicalc.

Why these four:

* ``transfer`` is the paper's checker over every formula in
  ``demos/formulas``; random multi-lattice series put the field kernel on the
  hot path.
* ``jets`` runs the field-side calculus (``eval_hyper`` at points with
  eps^(1/2) and eps^(1/3) tails, ``derivative``, ``mvt_theta_infinitesimal``,
  ``taylor_remainder_check_infinitesimal``): series arithmetic, no numpy.
* ``grids`` runs the real-side calculus on the same expression family: real
  and grid evaluation, the control for work on the field kernel.
* ``cli`` runs ``python -m levicalc.cli`` once per operation, the only place
  where interpreter start-up and ``import levicalc`` are paid every time.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
FORMULA_DIR = ROOT / "demos" / "formulas"

# The verdict each formula file must get from the checker.
KNOWN_VERDICTS = {
    "continuity.fof": "not-falsified",
    "falsified.fof": "falsified",
    "ordered_field.fof": "not-falsified",
    "transfer.fof": "not-falsified",
}

TRANSFER_SAMPLES = 100     # draws per universal block; one pass takes under a second
JETS_EXPRS = 3             # expressions per pass
GRIDS_EXPRS = 6
DELTA = 1e-3               # real stand-in for eps when a series is checked by substitution


# The speed of a shared machine drifts by a fifth and more from one minute to
# the next, and operation times drift with it.  So before every pass a
# workload times a fixed piece of work that does not involve levicalc, and
# its ops_per_s, op_p50_ms and op_tail_ms are scaled to the speed at which
# that work takes the reference time (about its time on a 2-vCPU x86-64 VM
# with Python 3.11 and numpy 2.4).  In-process workloads time interpreter
# work; the cli workload, whose operations are mostly process start-up and
# imports, times a process that imports numpy.  setup_s is not scaled.
INTERPRETER_REFERENCE_S = 0.004
START_UP_REFERENCE_S = 0.15


def interpreter_speed() -> float:
    """Seconds for fixed pure-Python work of the field kernel's kind
    (exact-fraction sums, dict updates, float products); best of three, so
    an interrupt does not count."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = {}
        step, q = Fraction(1, 3), Fraction(0)
        for i in range(600):
            q += step
            if q > 4:
                q -= 4
            acc[q] = acc.get(q, 0.0) + 1.5 * i
        best = min(best, time.perf_counter() - start)
    return best


def start_up_speed() -> float:
    """Seconds for a Python process that imports numpy and exits."""
    start = time.perf_counter()
    code, out, _ = run_child([sys.executable, "-c", "import numpy"])
    if code != 0:
        raise RuntimeError(out[-500:])
    return time.perf_counter() - start


class WrongAnswer(Exception):
    """An output disagreed with the benchmark's reference."""


class Op:
    """One operation: ``run()`` calls levicalc, ``check(result)`` raises
    WrongAnswer on a bad answer and returns the checker evaluations it saw.
    ``label`` names the inputs."""

    __slots__ = ("kind", "label", "run", "check")

    def __init__(self, kind, label, run, check):
        self.kind, self.label, self.run, self.check = kind, label, run, check


def _close(got, want, tol, what):
    if not abs(got - want) <= tol:  # also rejects NaN
        raise WrongAnswer(f"{what}: got {got!r}, want {want!r} within {tol:.3g}")


def _expect(condition, what):
    if not condition:
        raise WrongAnswer(what)


def _check_series_value(terms, e, point_terms, what):
    """A series result of f at a field point: its standard part is f(st(point)),
    and with eps replaced by DELTA it is f(point) to rounding."""
    terms = list(terms)
    st = sum(c for q, c in terms if q == 0)
    f0 = gen.evaluate(e, point_terms[0][1])
    _close(st, f0, 1e-9 * max(1.0, abs(f0)), f"{what} standard part")
    want = gen.evaluate(e, gen.series_at(point_terms, DELTA))
    _close(gen.series_at(terms, DELTA), want, 1e-9 * max(1.0, abs(want)), f"{what} at eps={DELTA}")


def _check_theta_infinitesimal(theta_terms, e, x0, what):
    """theta(h) = 1/2 + f'''(x0) / (24 f''(x0)) * h + O(h^2) wherever f''(x0) != 0.

    (Substituting a small real for eps is no check here: near an inflection
    point theta's series converges only for far smaller h.)"""
    c = gen.jet(e, x0, 3)
    if abs(c[2]) <= 1e-6 * max(1.0, abs(c[1]), abs(c[2])):
        return  # at an inflection point the leading order is higher, and so is theta's
    coef = dict(theta_terms)
    _close(coef.get(0, 0.0), 0.5, 1e-9, f"{what}: st(theta)")
    want = c[3] / (8 * c[2])
    _close(coef.get(1, 0.0), want, 1e-8 * max(1.0, abs(want)), f"{what}: eps coefficient of theta")


def _check_derivative(got, e, x0, order, what):
    j = gen.jet(e, x0, order)
    scale = max(1.0, max(abs(v) for v in j)) * math.factorial(order)
    _close(got, j[order] * math.factorial(order), 1e-8 * scale, what)


def _check_integral(value, e, a, b, what):
    want = gen.simpson(e, a, b)
    _close(value, want, 1e-6 * max(1.0, abs(want)), what)


def _check_max(argmax, max_value, e, a, b, what):
    _expect(a <= argmax <= b, f"{what}: argmax {argmax} outside [{a}, {b}]")
    at = gen.evaluate(e, argmax)
    _close(max_value, at, 1e-9 * max(1.0, abs(at)), f"{what} value at argmax")
    scan = gen.dense_max(e, a, b)
    _expect(max_value >= scan - 1e-6 * max(1.0, abs(scan)),
            f"{what}: max {max_value!r} below a dense scan's {scan!r}")


def _interval(rng):
    a = gen.num(rng, -1.5, 0.5)
    return a, round(a + gen.num(rng, 0.5, 1.5), 3)


class Transfer:
    """formulas.check over every formula in demos/formulas, sampler seeded per pass."""

    name = "transfer"
    calibrate, reference_s = staticmethod(interpreter_speed), INTERPRETER_REFERENCE_S

    def __init__(self, seed):
        from levicalc import formulas

        self.seed, self.formulas = seed, formulas
        self.items = []
        for fname, verdict in KNOWN_VERDICTS.items():
            text = (FORMULA_DIR / fname).read_text(encoding="utf-8")
            for lineno, _, formula in formulas.parse_formula_file(text):
                self.items.append((f"{fname}:{lineno}", formula, verdict))

    def pass_ops(self, p):
        rng = gen.rng_for(self.seed, self.name, p)
        return [self._op(label, formula, verdict, rng.getrandbits(31), TRANSFER_SAMPLES)
                for label, formula, verdict in self.items]

    def warm_up_ops(self):
        return [self._op(label, formula, verdict, 0, 10) for label, formula, verdict in self.items]

    def _op(self, label, formula, verdict, sampler_seed, samples):
        formulas = self.formulas
        cfg = formulas.SamplerConfig(samples=samples, seed=sampler_seed)
        label = f"{label} sampler seed {sampler_seed}"

        def check(report):
            _expect(report.verdict == verdict, f"{label}: verdict {report.verdict}, want {verdict}")
            _expect(report.samples_used >= 1, f"{label}: no samples used")
            return report.samples_used

        return Op("check", label, lambda: formulas.check(formula, cfg), check)


class Jets:
    """Field-side calculus on seeded expressions at real and field points."""

    name = "jets"
    calibrate, reference_s = staticmethod(interpreter_speed), INTERPRETER_REFERENCE_S

    def __init__(self, seed):
        from levicalc import calculus, expr, field

        self.seed, self.calculus, self.expr, self.field = seed, calculus, expr, field

    def pass_ops(self, p, exprs=JETS_EXPRS, rng=None):
        rng = rng or gen.rng_for(self.seed, self.name, p)
        ops = []
        for _ in range(exprs):
            e = gen.gen_expr(rng)
            x0 = gen.num(rng, -1.0, 1.0)
            ops += [self._eval_op(e, *gen.hyper_point(rng, den)) for den in (2, 3)]
            ops.append(self._derivative_op(e, x0, rng.randint(1, 6)))
            ops.append(self._taylor_op(e, x0))
            # One factor only: the Newton solve runs its full 80 iterations on
            # roughly one input in seven, and on larger trees that single
            # kind would decide most of a run's time.
            ops.append(self._mvt_op(gen.gen_expr(rng, terms=1, nest=0), x0))
        return ops

    def warm_up_ops(self):
        return self.pass_ops(None, exprs=1, rng=gen.rng_for(self.name, "warm-up"))

    def _eval_op(self, e, point_terms, point_text):
        src, expr, field = gen.render(e), self.expr, self.field

        def run():
            return expr.eval_hyper(expr.parse_expr(src), {"x": field.parse_lc(point_text)})

        label = f"eval_hyper {src} at x = {point_text}"
        return Op("eval_hyper", label, run, lambda r: _check_series_value(r.terms, e, point_terms, label))

    def _derivative_op(self, e, x0, order):
        src, expr, calculus = gen.render(e), self.expr, self.calculus
        label = f"derivative {order} of {src} at {x0}"
        return Op("derivative", label, lambda: calculus.derivative(expr.parse_expr(src), x0, order),
                  lambda r: _check_derivative(r, e, x0, order, label))

    def _taylor_op(self, e, x0):
        src, expr, calculus = gen.render(e), self.expr, self.calculus
        label = f"taylor remainder of {src} on [{x0}, {x0} + eps]"

        def check(residual):
            # The identity integrates the jet of f'', so that sets the rounding scale.
            c = gen.jet(e, x0, 12)
            scale = max([1.0] + [abs(v) * max(1, k * (k - 1)) for k, v in enumerate(c)])
            worst = max((abs(v) for _, v in residual.terms), default=0.0)
            _close(worst, 0.0, 1e-8 * scale, label)

        return Op("taylor_remainder_check_infinitesimal", label,
                  lambda: calculus.taylor_remainder_check_infinitesimal(expr.parse_expr(src), x0), check)

    def _mvt_op(self, e, x0):
        src, expr, calculus = gen.render(e), self.expr, self.calculus
        label = f"mean-value theta of {src} at {x0}, h = eps"
        return Op("mvt_theta_infinitesimal", label,
                  lambda: calculus.mvt_theta_infinitesimal(expr.parse_expr(src), x0),
                  lambda r: _check_theta_infinitesimal(r.theta.terms, e, x0, label))


class Grids:
    """Real-side calculus (scalar and numpy-grid evaluation) on the jets family."""

    name = "grids"
    calibrate, reference_s = staticmethod(interpreter_speed), INTERPRETER_REFERENCE_S

    def __init__(self, seed):
        from levicalc import calculus, expr

        self.seed, self.calculus, self.expr = seed, calculus, expr

    def pass_ops(self, p, exprs=GRIDS_EXPRS, rng=None):
        rng = rng or gen.rng_for(self.seed, self.name, p)
        ops = []
        for _ in range(exprs):
            e = gen.gen_expr(rng)
            x, h = gen.num(rng, -1.0, 1.0), gen.num(rng, -0.5, 0.5, 0.1)
            a, b = _interval(rng)
            # evt_max twice (it is the cheapest query), so that the median
            # operation of a pass falls inside one kind's times rather than
            # on the gap between two kinds.
            ops += [self._mvt_op(e, x, h), self._evt_op(e, a, b), self._evt_op(e, *_interval(rng)),
                    self._integral_op(e, a, b), self._taylor_op(e, a, b)]
        return ops

    def warm_up_ops(self):
        return self.pass_ops(None, exprs=1, rng=gen.rng_for(self.name, "warm-up"))

    def _mvt_op(self, e, x, h):
        src, expr, calculus = gen.render(e), self.expr, self.calculus
        label = f"mean-value theta of {src} at {x}, h = {h}"

        def check(r):
            _expect(0.0 <= r.theta <= 1.0, f"{label}: theta {r.theta} outside [0, 1]")
            f0, f1 = gen.evaluate(e, x), gen.evaluate(e, x + h)
            slope = gen.jet(e, x + r.theta * h, 1)[1]
            _close(f1 - f0, h * slope, 1e-8 * max(1.0, abs(f0), abs(f1)), f"{label} residual")

        return Op("mvt_theta_real", label, lambda: calculus.mvt_theta_real(expr.parse_expr(src), x, h), check)

    def _evt_op(self, e, a, b):
        src, expr, calculus = gen.render(e), self.expr, self.calculus
        label = f"evt_max {src} on [{a}, {b}]"
        return Op("evt_max", label, lambda: calculus.evt_max(expr.parse_expr(src), a, b),
                  lambda r: _check_max(r.argmax, r.max_value, e, a, b, label))

    def _integral_op(self, e, a, b):
        src, expr, calculus = gen.render(e), self.expr, self.calculus
        label = f"integral of {src} on [{a}, {b}]"
        return Op("riemann_integral", label, lambda: calculus.riemann_integral(expr.parse_expr(src), a, b),
                  lambda r: _check_integral(r.value, e, a, b, label))

    def _taylor_op(self, e, a, b):
        src, expr, calculus = gen.render(e), self.expr, self.calculus
        label = f"taylor remainder of {src} on [{a}, {b}]"

        def check(residual):
            fa, fb = gen.evaluate(e, a), gen.evaluate(e, b)
            scale = max(1.0, abs(fa), abs(fb), abs(gen.jet(e, a, 1)[1]) * (b - a))
            _close(residual, 0.0, 1e-5 * scale, label)

        return Op("taylor_remainder_check", label,
                  lambda: calculus.taylor_remainder_check(expr.parse_expr(src), a, b), check)


# -- the command-line workload ---------------------------------------------------

CLI_COMMANDS = ("st", "eval", "derive", "mvt-theta", "integrate", "evt-max", "transfer-check")
LEVICALC_ERRORS = ("DivisionByZero", "NotFinite", "NegativeLeading", "DomainError", "OrderTooHigh",
                   "NoBracket", "ParseError", "BindingError", "EvaluationError", "LevicalcError")


class CliFailure(Exception):
    """The command exited non-zero or printed something that is not JSON."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("LEVICALC_CONFIG", None)
    return env


def run_child(argv) -> tuple:
    """Run a process to completion; return (exit code, output, peak RSS in KiB).

    stderr is merged into stdout so one pipe can be drained before waiting,
    and the process is reaped with wait4 for its own resource usage."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode("utf-8", "replace"), usage.ru_maxrss


class Cli:
    """python -m levicalc.cli, one subprocess per operation, JSON output checked."""

    name = "cli"
    calibrate, reference_s = staticmethod(start_up_speed), START_UP_REFERENCE_S

    def __init__(self, seed):
        self.seed = seed
        # The traced run swaps in a launcher that wraps the library in the child.
        self.launcher = [sys.executable, "-m", "levicalc.cli"]
        self.peak_rss_kib = 0

    def pass_ops(self, p):
        rng = gen.rng_for(self.seed, self.name, p)
        return [self._command(name, rng) for name in CLI_COMMANDS]

    def warm_up_ops(self):
        return [self._command("st", gen.rng_for(self.name, "warm-up"))]

    def _launch(self, args):
        code, out, rss = run_child(self.launcher + ["--format", "json"] + args)
        self.peak_rss_kib = max(self.peak_rss_kib, rss)
        if code != 0:
            name = out.strip().split(":", 1)[0] if out.strip() else ""
            raise _cli_error(name, f"exit {code}: {out.strip()[-300:]}")
        try:
            return json.loads(out)
        except ValueError:
            raise CliFailure(f"not JSON: {out[-300:]!r}") from None

    def _command(self, name, rng):
        e = gen.gen_expr(rng, terms=1 if name == "mvt-theta" else 2, nest=0)
        src = gen.render(e)
        x0 = gen.num(rng, -1.0, 1.0)
        a, b = _interval(rng)
        if name == "st":
            terms, text = gen.hyper_point(rng, 2)
            args = ["st", "--", text]
            check = lambda r: _close(r, terms[0][1], 1e-12, label)  # noqa: E731
        elif name == "eval":
            terms, text = gen.hyper_point(rng, rng.choice((2, 3)))
            args = ["eval", src, f"--at=x={text}"]
            check = lambda r: _check_series_value(gen.json_terms(r), e, terms, label)  # noqa: E731
        elif name == "derive":
            order = rng.randint(1, 6)
            args = ["derive", src, f"--at={x0}", f"--order={order}"]
            check = lambda r: _check_derivative(r, e, x0, order, label)  # noqa: E731
        elif name == "mvt-theta":
            args = ["mvt-theta", src, f"--x={x0}", "--h-infinitesimal"]
            check = lambda r: _check_theta_infinitesimal(gen.json_terms(r["theta"]), e, x0, label)  # noqa: E731
        elif name == "integrate":
            args = ["integrate", src, f"--a={a}", f"--b={b}"]
            check = lambda r: _check_integral(r["value"], e, a, b, label)  # noqa: E731
        elif name == "evt-max":
            args = ["evt-max", src, f"--a={a}", f"--b={b}"]
            check = lambda r: _check_max(r["c"], r["max"], e, a, b, label)  # noqa: E731
        else:
            args = ["transfer-check", str(FORMULA_DIR / "transfer.fof"), "--samples=20",
                    f"--seed={rng.getrandbits(31)}"]

            def check(reports):
                for report in reports:
                    _expect(report["verdict"] == KNOWN_VERDICTS["transfer.fof"],
                            f"{label} line {report['line']}: {report['verdict']}")
                return sum(report["samples_used"] for report in reports)
        label = "levicalc " + " ".join(args)
        return Op(name, label, lambda: self._launch(args), check)


def _cli_error(name, message):
    """Re-raise a child's levicalc error under its own class name."""
    if name in LEVICALC_ERRORS:
        return type(name, (Exception,), {})(message)
    return CliFailure(message)


WORKLOADS = {w.name: w for w in (Transfer, Jets, Grids, Cli)}


def peak_rss_mib(workload) -> float:
    """Peak resident memory of the process that does the work."""
    if isinstance(workload, Cli):
        return workload.peak_rss_kib / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

