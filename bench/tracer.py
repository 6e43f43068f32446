"""Layer spans recorded from outside the package.

``Tracer.install()`` replaces public functions of ``levicalc.field``,
``expr``, ``calculus``, ``formulas`` and ``cli`` with timing wrappers, in the
defining module and in every module that imported the function by name, so
calls that cross a layer boundary are seen whichever way they are spelled.
A function that recurses through its own module-level name (``eval_real``,
``symbolic_derivative``, ``expr._eval_hyper``) is wrapped only where other
modules import it: wrapping its home name would turn every tree node into a
span.  ``uninstall()`` puts the originals back.

Spans stay in memory.  Self time is a span's duration minus the time its
child spans cover, accumulated per span name as calls finish; the first
``span_cap`` spans are also kept whole and written out by ``dump``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

LAYERS = ("field", "expr", "calculus", "formulas", "cli")

FIELD_OPS = ("add", "sub", "mul", "inv", "nth_root", "compare", "powi")
# Wrapped so that their time counts as field time, but reported only in the layer total.
FIELD_OTHER = ("neg", "sqrt", "zero", "one", "eps", "infinite", "standard_part", "classify",
               "coefficient_norm", "is_infinitely_close", "parse_lc", "format_lc")
CALCULUS_FNS = ("derivative", "mvt_theta_real", "mvt_theta_infinitesimal", "evt_max",
                "riemann_integral", "taylor_remainder_check", "taylor_remainder_check_infinitesimal")


class Tracer:
    def __init__(self, span_cap: int = 20_000):
        self.stats: dict = {}         # span name -> [calls, self_ns, total_ns]
        self.durations: dict = {}     # span name -> [ns, ...] for the calculus functions
        self.counters = Counter()
        self.active = Counter()       # spans open right now, by name
        self.spans: list = []         # (op, parent, name, start_ns, end_ns), first span_cap
        self.span_cap = span_cap
        self.op_id = 0
        self._child_ns = [0]          # per open span: time covered by its finished children
        self._names = ["op"]
        self._patches: list = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, observe=None, keep_durations=False):
        """``name`` is a span name, or a function of the call's arguments
        returning one; ``observe(args, result)`` updates counters."""
        child_ns, names, active = self._child_ns, self._names, self.active
        spans, cap, clock = self.spans, self.span_cap, time.perf_counter_ns
        fixed = isinstance(name, str)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = clock()
            try:
                span = name if fixed else name(args)
                child_ns.append(0)
                names.append(span)
                active[span] += 1
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    active[span] -= 1
                    names.pop()
                    duration = end - start
                    row = self.stats.get(span)
                    if row is None:
                        row = self.stats[span] = [0, 0, 0]
                    row[0] += 1
                    row[1] += duration - child_ns.pop()
                    row[2] += duration
                    if keep_durations:
                        self.durations.setdefault(span, []).append(duration)
                    if len(spans) < cap:
                        spans.append((self.op_id, names[-1], span, start, end))
                if observe is not None:
                    observe(args, result)
                return result
            finally:
                # The parent is charged for the whole wrapper, bookkeeping
                # included, so tracing cost lands in no layer's self time.
                child_ns[-1] += clock() - enter

        return wrapper

    def op(self, fn):
        """Run one benchmark operation as the root of its spans."""
        self.op_id += 1
        self._child_ns[:] = [0]
        start = time.perf_counter_ns()
        try:
            return fn()
        finally:
            self.counters["op.ns"] += time.perf_counter_ns() - start

    # -- counters observed at the boundaries ----------------------------------

    def _terms(self, args, result):
        c = self.counters
        for value in args:
            terms = getattr(value, "terms", None)
            if terms is not None:
                c["field.operands"] += 1
                c["field.operand_terms"] += len(terms)

    def _mul(self, args, result):
        self._terms(args, result)
        self.counters["field.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)
        self.counters["field.mul.kept_terms"] += len(result.terms)

    def _eval_hyper(self, origin):
        def observe(args, result):
            c = self.counters
            c[f"expr.eval_hyper.from.{origin}"] += 1
            if self.active["calculus.mvt_theta_infinitesimal"]:
                c["calculus.mvt_theta_infinitesimal.eval_hyper"] += 1
        return observe

    def _eval_real(self, origin):
        import numpy as np

        def observe(args, result):
            c = self.counters
            c[f"expr.eval_real.from.{origin}"] += 1
            if any(isinstance(v, np.ndarray) for v in args[1].values()):
                c["expr.eval_real.array_calls"] += 1
            if self.active["calculus.mvt_theta_real"]:
                c["calculus.mvt_theta_real.eval_real"] += 1
        return observe

    def _check(self, args, result):
        self.counters["formulas.samples_used"] += result.samples_used

    # -- patching --------------------------------------------------------------

    def _targets(self):
        """(home module, attribute, span name, observer factory or None,
        recursive by name, keep durations); a factory gets the importing
        module's short name."""
        from levicalc import calculus, cli, expr, field, formulas

        out = []
        for op in FIELD_OPS:
            observe = self._mul if op == "mul" else self._terms
            out.append((field, op, f"field.{op}", lambda origin, o=observe: o, False, False))
        for fn in FIELD_OTHER:
            out.append((field, fn, f"field.{fn}", None, False, False))
        out.append((field.LCNumber, "__init__", "field.LCNumber", None, False, False))
        out.append((expr, "eval_hyper", "expr.eval_hyper", self._eval_hyper, False, False))
        out.append((expr, "_eval_hyper", "expr.eval_hyper", self._eval_hyper, True, False))
        out.append((expr, "_call_hyper", lambda args: f"expr.call_hyper.{args[0]}", None, False, False))
        out.append((expr, "eval_real", "expr.eval_real", self._eval_real, True, False))
        out.append((expr, "symbolic_derivative", "expr.symbolic_derivative", None, True, False))
        out.append((expr, "parse_expr", "expr.parse_expr", None, False, False))
        for fn in CALCULUS_FNS:
            out.append((calculus, fn, f"calculus.{fn}", None, False, True))
        out.append((formulas, "check", "formulas.check", lambda origin: self._check, False, False))
        out.append((formulas, "sample", "formulas.sample", None, False, False))
        out.append((cli, "main", "cli.main", None, False, False))
        return out

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "levicalc" or n.startswith("levicalc."))]
        for home, attr, name, observer, recursive, keep in self._targets():
            original = getattr(home, attr)
            if isinstance(home, type):  # a method: patch the class itself
                setattr(home, attr, self._wrap(name, original, None, keep))
                self._patches.append((home, attr, original))
                continue
            for module in modules:
                if recursive and module is home:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        origin = module.__name__.rsplit(".", 1)[-1]
                        observe = observer(origin) if observer else None
                        setattr(module, key, self._wrap(name, original, observe, keep))
                        self._patches.append((module, key, original))
        return self

    def uninstall(self):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def summary(self) -> dict:
        return {"stats": self.stats, "durations": self.durations, "counters": dict(self.counters)}

    def merge(self, summary: dict):
        """Add a summary written by a traced child process."""
        for name, row in summary["stats"].items():
            mine = self.stats.setdefault(name, [0, 0, 0])
            for i, v in enumerate(row):
                mine[i] += v
        for name, values in summary["durations"].items():
            self.durations.setdefault(name, []).extend(values)
        self.counters.update(summary["counters"])

    def dump(self, path):
        """Write the kept spans as JSON lines; names are ``layer.function``."""
        with open(path, "w", encoding="utf-8") as fh:
            for op, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")
