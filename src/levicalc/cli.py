"""Command-line front end.

Every operation of the library is exposed as a subcommand with scriptable
output: ``--format json`` emits the module JSON schemas, text mode is
human-oriented.  Runs with the same arguments and seed are byte-identical.
Exit codes: 0 on success, 2 when a transfer check falsified a formula,
1 on any error (including usage errors).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import calculus, field, formulas
from .errors import LevicalcError
from .expr import eval_hyper, parse_expr
from .field import FieldConfig

CONFIG_ENV_VAR = "LEVICALC_CONFIG"

# Each setting a config file may give, with its type, in the order values are cast.
_CONFIG_KEYS = {"depth": int, "max_terms": int, "zero_tol": float, "eq_tol": float, "format": str,
                "seed": int, "samples": int, "schedule": str}


class _Parser(argparse.ArgumentParser):
    # usage problems are ordinary errors (exit 1); argparse's default is 2,
    # which is reserved for falsified transfer checks.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="levicalc",
                     description="Infinitesimal calculus over a computable non-Archimedean field.")
    parser.add_argument("--depth", type=int, default=None, help="truncation depth (orders past the leading term)")
    parser.add_argument("--max-terms", type=int, default=None, help="series term cap")
    parser.add_argument("--zero-tol", type=float, default=None, help="coefficient cleanup tolerance")
    parser.add_argument("--eq-tol", type=float, default=None, help="coefficientwise equality tolerance")
    parser.add_argument("--format", choices=("text", "json"), default=None, help="output format")
    parser.add_argument("--config", default=None, metavar="FILE",
                        help=f"key=value config file (default: ${CONFIG_ENV_VAR})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression over the field")
    p.add_argument("expr")
    p.add_argument("--at", action="append", default=[], metavar="NAME=SERIES",
                   help="variable binding, e.g. x=1+2*eps (repeatable)")

    p = sub.add_parser("st", help="standard part of a series literal")
    p.add_argument("value", metavar="SERIES")

    p = sub.add_parser("derive", help="k-th derivative via the eps-jet")
    p.add_argument("expr")
    p.add_argument("--at", type=float, required=True, dest="x0")
    p.add_argument("--order", type=int, default=1)

    p = sub.add_parser("mvt-theta", help="solve f(x+h)-f(x) = h*f'(x+theta*h)")
    p.add_argument("expr")
    p.add_argument("--x", type=float, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--h", type=float, default=None, help="real increment")
    group.add_argument("--h-infinitesimal", nargs="?", const="eps", default=None,
                       metavar="SERIES", help="infinitesimal increment (default eps)")

    p = sub.add_parser("evt-max", help="extremum via partition refinement")
    p.add_argument("expr")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--grid", type=int, default=1000)
    p.add_argument("--rounds", type=int, default=40)
    p.add_argument("--tol-x", type=float, default=1e-9)

    p = sub.add_parser("integrate", help="definite integral as extrapolated Riemann sums")
    p.add_argument("expr")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--schedule", default=None, metavar="H1,H2,...",
                   help="comma-separated, strictly increasing partition sizes")

    p = sub.add_parser("taylor-check", help="residual of the integral-remainder identity")
    p.add_argument("expr")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--infinitesimal", action="store_true", help="check on [a, a+eps] in series form")
    p.add_argument("--schedule", default=None, metavar="H1,H2,...")

    p = sub.add_parser("transfer-check", help="randomized check of first-order formulas")
    p.add_argument("file", help="formula file (one per line, # comments)")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--witness-pool", type=int, default=None)
    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise LevicalcError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _CONFIG_KEYS:
                raise LevicalcError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value.strip()
    return values


def _resolve_settings(args) -> tuple:
    """The field config and output format.  Each setting the command takes
    comes from its flag, else from the config file: file values are cast
    and stored in ``args``."""
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    file_values = _read_config_file(path) if path else {}
    for key, cast in _CONFIG_KEYS.items():
        if key in file_values and hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, cast(file_values[key]))
    given = {name: getattr(args, name) for name in ("depth", "max_terms", "zero_tol", "eq_tol")}
    config = FieldConfig(**{name: value for name, value in given.items() if value is not None})
    fmt = args.format or "text"
    if fmt not in ("text", "json"):
        raise LevicalcError(f"bad output format {fmt!r}")
    return config, fmt


def _parse_schedule(text):
    if text is None:
        return None
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise LevicalcError(f"bad schedule {text!r}; expected comma-separated integers") from None


def _emit(payload, fmt: str, text: str) -> None:
    if fmt == "json":
        print(json.dumps(payload))
    else:
        print(text)


def _cmd_eval(args, config, fmt) -> int:
    binding = {"eps": field.eps(config)}
    for item in args.at:
        name, sep, literal = item.partition("=")
        if not sep:
            raise LevicalcError(f"--at expects NAME=SERIES, got {item!r}")
        binding[name.strip()] = field.parse_lc(literal.strip(), config)
    value = eval_hyper(parse_expr(args.expr), binding, config)
    _emit(field.to_json(value), fmt, str(value))
    return 0


def _cmd_st(args, config, fmt) -> int:
    result = field.standard_part(field.parse_lc(args.value, config))
    _emit(result, fmt, field._fmt_scalar(result))
    return 0


def _cmd_derive(args, config, fmt) -> int:
    result = calculus.derivative(parse_expr(args.expr), args.x0, args.order, config=config)
    _emit(result, fmt, field._fmt_scalar(result))
    return 0


def _cmd_mvt_theta(args, config, fmt) -> int:
    f = parse_expr(args.expr)
    if args.h is not None:
        result = calculus.mvt_theta_real(f, args.x, args.h, config=config)
        text = f"theta = {field._fmt_scalar(result.theta)}\nresidual = {field._fmt_scalar(result.residual)}"
    else:
        h = field.parse_lc(args.h_infinitesimal, config)
        result = calculus.mvt_theta_infinitesimal(f, args.x, h, config=config)
        text = f"theta = {result.theta}\nresidual_norm = {field._fmt_scalar(result.residual_norm)}"
    text += f"\nleading_order = {result.leading_order}\ndegenerate = {str(result.degenerate).lower()}"
    _emit(result.to_json(), fmt, text)
    return 0


def _cmd_evt_max(args, config, fmt) -> int:
    result = calculus.evt_max(parse_expr(args.expr), args.a, args.b,
                              grid=args.grid, max_rounds=args.rounds, tol_x=args.tol_x)
    text = (f"c = {field._fmt_scalar(result.argmax)}\n"
            f"max = {field._fmt_scalar(result.max_value)}\n"
            f"H = {result.H_final} ({len(result.refinement_trace)} refinement rounds)")
    _emit(result.to_json(), fmt, text)
    return 0


def _cmd_integrate(args, config, fmt) -> int:
    result = calculus.riemann_integral(parse_expr(args.expr), args.a, args.b,
                                       schedule=_parse_schedule(args.schedule))
    text = (f"integral = {field._fmt_scalar(result.value)}\n"
            f"error estimate = {field._fmt_scalar(result.error)}\n"
            f"H = {', '.join(map(str, result.H_schedule))}")
    _emit(result.to_json(), fmt, text)
    return 0


def _cmd_taylor_check(args, config, fmt) -> int:
    f = parse_expr(args.expr)
    if args.infinitesimal:
        residual = calculus.taylor_remainder_check_infinitesimal(f, args.a, config=config)
        norm = field.coefficient_norm(residual)
        payload = {"residual": field.to_json(residual), "norm": norm}
        text = f"residual = {residual}\nnorm = {field._fmt_scalar(norm)}"
    else:
        if args.b is None:
            raise LevicalcError("taylor-check needs --b (or --infinitesimal)")
        value = calculus.taylor_remainder_check(f, args.a, args.b,
                                                schedule=_parse_schedule(args.schedule), config=config)
        payload = {"residual": value}
        text = f"residual = {field._fmt_scalar(value)}"
    _emit(payload, fmt, text)
    return 0


def _cmd_transfer_check(args, config, fmt) -> int:
    with open(args.file, encoding="utf-8") as fh:
        parsed = formulas.parse_formula_file(fh.read())
    given = {name: getattr(args, name) for name in ("samples", "seed", "witness_pool")}
    sampler = formulas.SamplerConfig(**{name: value for name, value in given.items() if value is not None})

    reports = []
    any_falsified = False
    for lineno, src, formula in parsed:
        report = formulas.check(formula, sampler, config)
        reports.append({"line": lineno, "formula": src, **report.to_json()})
        any_falsified = any_falsified or report.verdict == "falsified"
    if fmt == "json":
        print(json.dumps(reports))
    else:
        for entry in reports:
            line = f"line {entry['line']}: {entry['verdict']}  {entry['formula']}"
            for key in ("counterexample", "witness", "assignment"):
                if key in entry:
                    rendered = ", ".join(f"{k} = {v}" for k, v in entry[key].items())
                    line += f"\n  {key}: {rendered}"
            print(line)
    return 2 if any_falsified else 0


_COMMANDS = {
    "eval": _cmd_eval,
    "st": _cmd_st,
    "derive": _cmd_derive,
    "mvt-theta": _cmd_mvt_theta,
    "evt-max": _cmd_evt_max,
    "integrate": _cmd_integrate,
    "taylor-check": _cmd_taylor_check,
    "transfer-check": _cmd_transfer_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config, fmt = _resolve_settings(args)
        return _COMMANDS[args.command](args, config, fmt)
    except (LevicalcError, ValueError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
