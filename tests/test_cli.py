"""Command-line interface tests (run via main(argv) for speed)."""

import json
from pathlib import Path

import pytest

from levicalc.calculus import DEFAULT_H_SCHEDULE
from levicalc.cli import CONFIG_ENV_VAR, main

FORMULAS = str(Path(__file__).resolve().parent.parent / "demos" / "formulas")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_transfer_check_error_without_binding(capsys, tmp_path):
    path = tmp_path / "zero.fof"
    path.write_text("1/0 < 1\n")
    code, out, err = run(capsys, "transfer-check", str(path))
    assert code == 1 and out == ""
    assert err == "EvaluationError: DomainError: division by zero\n"


def test_derive_example(capsys):
    code, out, _ = run(capsys, "derive", "x^3", "--at", "2", "--order", "1")
    assert code == 0
    assert out.strip() == "12"


@pytest.mark.parametrize("src, order, err", [
    ("1/x", "1", "DomainError: 1 / x is not smooth at 0.0: its jet there is eps^(-1)\n"),
    ("sqrt(x)", "2", "DomainError: sqrt(x) is not smooth at 0.0: its jet there is eps^(1/2)\n")])
def test_derive_at_a_pole_or_a_branch_is_one_domain_error(capsys, src, order, err):
    assert run(capsys, "derive", src, "--at", "0", "--order", order) == (1, "", err)


def test_st(capsys):
    code, out, _ = run(capsys, "st", "3 + 5*eps + eps^2")
    assert code == 0 and out.strip() == "3"


def test_eval_with_binding(capsys):
    code, out, _ = run(capsys, "eval", "x^2", "--at", "x=1 + eps")
    assert code == 0
    assert out.strip() == "1 + 2*eps + eps^2"


def test_eval_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "eval", "eps + 1", "--at", "x=0")
    assert code == 0
    data = json.loads(out)
    assert data == [{"exp": "0", "coef": 1.0}, {"exp": "1", "coef": 1.0}]


def test_mvt_theta_infinitesimal_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "mvt-theta", "exp(x)", "--x", "0",
                       "--h-infinitesimal")
    assert code == 0
    data = json.loads(out)
    assert data["degenerate"] is False
    assert data["leading_order"] == 1
    coefs = {item["exp"]: item["coef"] for item in data["theta"]}
    assert abs(coefs["0"] - 0.5) <= 1e-12
    assert abs(coefs["1"] - 1.0 / 24) <= 1e-8
    assert data["residual_norm"] <= 1e-10


def test_mvt_theta_real(capsys):
    code, out, _ = run(capsys, "--format", "json", "mvt-theta", "x^2", "--x", "0", "--h", "1")
    assert code == 0
    data = json.loads(out)
    assert abs(data["theta"] - 0.5) <= 1e-12


def test_evt_max_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "evt-max", "x * (1 - x)", "--a", "0", "--b", "1")
    assert code == 0
    data = json.loads(out)
    assert abs(data["c"] - 0.5) <= 1e-8
    assert abs(data["max"] - 0.25) <= 1e-12
    assert data["trace"][0][0] == 1000


def test_integrate_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "integrate", "x^2", "--a", "0", "--b", "1")
    assert code == 0
    data = json.loads(out)
    assert abs(data["value"] - 1 / 3) <= 1e-8
    assert data["H"] == list(DEFAULT_H_SCHEDULE[:len(data["H"])]) and len(data["sums"]) == len(data["H"]) >= 4


def test_integrate_text_reports_the_grids_used(capsys):
    code, out, _ = run(capsys, "integrate", "x^2", "--a", "0", "--b", "1")
    assert code == 0 and out.splitlines()[-1] == "H = 1000, 2000, 4000, 8000"


def test_integrate_reports_the_whole_grid_error(capsys):
    # x = 0 fails the division on the first chunk of the grid; the whole grid
    # meets sqrt of a negative value (x > 0.9) first, and that is reported.
    code, out, err = run(capsys, "integrate", "sqrt(0.9 - x) + 1/x", "--a", "0", "--b", "1")
    assert (code, out, err) == (1, "", "DomainError: sqrt of a negative value\n")


def test_integrate_bad_schedule_is_a_one_line_error(capsys):
    code, out, err = run(capsys, "integrate", "sin(x)", "--a", "0", "--b", "1", "--schedule", "1000,1000")
    assert code == 1 and out == ""
    assert err.startswith("ValueError: ") and err.count("\n") == 1, err


def test_taylor_check(capsys):
    code, out, _ = run(capsys, "--format", "json", "taylor-check", "sin(x)", "--a", "0", "--b", "1")
    assert code == 0
    assert json.loads(out)["residual"] <= 1e-6
    code, out, _ = run(capsys, "--format", "json", "taylor-check", "exp(x)", "--a", "0",
                       "--infinitesimal")
    assert code == 0
    assert json.loads(out)["norm"] <= 1e-10


def test_transfer_check_ok(capsys):
    code, out, _ = run(capsys, "transfer-check", f"{FORMULAS}/ordered_field.fof",
                       "--samples", "300", "--seed", "7")
    assert code == 0
    assert "falsified" not in out.replace("not-falsified", "")


def test_transfer_check_falsified_exit_code(capsys):
    code, out, _ = run(capsys, "transfer-check", f"{FORMULAS}/falsified.fof",
                       "--samples", "100", "--seed", "7")
    assert code == 2
    assert "counterexample" in out


def test_transfer_check_json_deterministic(capsys):
    args = ("--format", "json", "transfer-check", f"{FORMULAS}/transfer.fof",
            "--samples", "150", "--seed", "9")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_mvt_theta_deterministic(capsys):
    args = ("--format", "json", "mvt-theta", "exp(x)", "--x", "0", "--h-infinitesimal")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_errors_have_module_names_and_exit_1(capsys):
    code, _, err = run(capsys, "st", "eps^(-1)")
    assert code == 1 and "NotFinite" in err
    code, _, err = run(capsys, "derive", "x^3", "--at", "2", "--order", "99")
    assert code == 1 and "OrderTooHigh" in err
    code, _, err = run(capsys, "eval", "log(x)", "--at", "x=0")
    assert code == 1 and "DomainError" in err
    code, _, err = run(capsys, "eval", "x +", "--at", "x=0")
    assert code == 1 and "ParseError" in err
    code, _, err = run(capsys, "transfer-check", "no_such_file.fof")
    assert code == 1


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as e:
        main(["nonsense"])
    assert e.value.code == 1


def test_config_flags(capsys):
    code, out, _ = run(capsys, "--depth", "4", "eval", "1/(1 - eps)", "--at", "x=0")
    assert code == 0
    assert out.strip() == "1 + eps + eps^2 + eps^3 + eps^4"


def test_config_file_and_env(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "levicalc.conf"
    cfg.write_text("depth = 3\nformat = json\n# comment\n")
    code, out, _ = run(capsys, "--config", str(cfg), "eval", "1/(1 - eps)")
    assert code == 0
    assert len(json.loads(out)) == 4  # depth 3 keeps orders 0..3
    monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
    code, out, _ = run(capsys, "eval", "1/(1 - eps)")
    assert code == 0 and len(json.loads(out)) == 4
    # flags override the file
    code, out, _ = run(capsys, "--format", "text", "eval", "1/(1 - eps)")
    assert code == 0 and out.strip() == "1 + eps + eps^2 + eps^3"
    monkeypatch.setenv(CONFIG_ENV_VAR, str(tmp_path / "missing.conf"))
    code, _, err = run(capsys, "eval", "1")
    assert code == 1


def test_bad_config_file(tmp_path, capsys):
    cfg = tmp_path / "bad.conf"
    cfg.write_text("nonsense = 1\n")
    code, _, err = run(capsys, "--config", str(cfg), "eval", "1")
    assert code == 1 and "unknown config key" in err


@pytest.mark.parametrize("argv", [
    ["--depth", "0", "st", "1"],
    ["--eq-tol", "1e-20", "st", "1"],
    ["--config", "{samples_abc}", "transfer-check", f"{FORMULAS}/transfer.fof"],
    ["mvt-theta", "x", "--x", "0", "--h", "0"],
    ["evt-max", "x", "--a", "1", "--b", "0"],
    ["transfer-check", f"{FORMULAS}/falsified.fof", "--samples", "0"],
    ["evt-max", "sin(x)", "--a", "0", "--b", "3", "--grid", "0"],
    ["evt-max", "sin(x)", "--a", "0", "--b", "3", "--rounds", "0"],
    ["evt-max", "sin(x)", "--a", "0", "--b", "3", "--tol-x", "-1"],
    ["--eq-tol", "nan", "transfer-check", f"{FORMULAS}/falsified.fof", "--samples", "20"],
    ["--eq-tol", "nan", "st", "1"],
    ["--zero-tol", "nan", "derive", "sin(x)", "--at", "1"],
    ["--eq-tol", "inf", "st", "1"],
    ["evt-max", "sin(x)", "--a", "0", "--b", "inf"],
    ["evt-max", "sin(x)", "--a=-1e308", "--b", "1e308"],
    ["integrate", "sin(x)", "--a", "0", "--b", "inf"],
    ["integrate", "sin(x)", "--a", "0", "--b", "nan"],
    ["derive", "exp(x)", "--at", "nan"],
], ids=["depth-0", "eq-tol-below-zero-tol", "config-samples-abc", "mvt-h-0", "evt-empty", "samples-0",
        "evt-grid-0", "evt-rounds-0", "evt-tol-x-negative", "eq-tol-nan-transfer-check", "eq-tol-nan",
        "zero-tol-nan", "eq-tol-inf", "evt-b-inf", "evt-width-overflows", "integrate-b-inf", "integrate-b-nan",
        "derive-at-nan"])
def test_bad_values_are_one_line_errors(tmp_path, capsys, argv):
    cfg = tmp_path / "samples.conf"
    cfg.write_text("samples = abc\n")
    code, out, err = run(capsys, *(arg.replace("{samples_abc}", str(cfg)) for arg in argv))
    assert code == 1 and out == ""
    assert err.startswith("ValueError: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv, col", [
    (["st", "1e400"], 1),
    (["eval", "x - x", "--at", "x=1e400"], 1),
    (["eval", "x", "--at", "x=1 + 1e400*eps"], 5),
])
def test_overflowing_series_literal_is_a_parse_error(capsys, argv, col):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"ParseError: 1:{col}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["eval", "1e400 - 1e400"],
    ["eval", "1e400*x", "--at", "x=eps"],
    ["derive", "1e400*x", "--at", "0"],
])
def test_overflowing_expression_constant_is_a_parse_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "ParseError: 1:1: '1e400' is not a finite number\n")


@pytest.mark.parametrize("argv, line", [
    (["eval", "exp(x)", "--at", "x=800"], "NotFinite: exp(800) overflows"),
    (["derive", "exp(x)", "--at", "800"], "NotFinite: exp(800 + eps) overflows"),
    (["mvt-theta", "exp(x)", "--x", "800", "--h-infinitesimal"], "NotFinite: exp(800.0) overflows"),
    (["eval", "sin(x*x)", "--at", "x=1e200"], "NotFinite: sin of a value whose standard part is inf"),
    (["eval", "exp(x*x)", "--at", "x=1e200"], "NotFinite: exp of a value whose standard part is inf"),
    (["integrate", "x", "--a", "1", "--b", "0"], "ValueError: need a <= b"),
    (["mvt-theta", "x*y", "--x", "0", "--h", "1"],
     "ValueError: expression has several variables ['x', 'y']; pass var="),
    (["eval", "x", "--at", "x"], "LevicalcError: --at expects NAME=SERIES, got 'x'"),
    (["taylor-check", "x", "--a", "0"], "LevicalcError: taylor-check needs --b (or --infinitesimal)"),
    (["integrate", "x", "--a", "0", "--b", "1", "--schedule", "1000,abc"],
     "LevicalcError: bad schedule '1000,abc'; expected comma-separated integers"),
    (["--config", "{dir}/no_equals.conf", "st", "1"],
     "LevicalcError: {dir}/no_equals.conf:2: expected key=value, got 'depth 4'"),
    (["--config", "{dir}/format_xml.conf", "st", "1"], "LevicalcError: bad output format 'xml'"),
], ids=["eval-exp-800", "derive-exp-800", "mvt-exp-800", "eval-sin-overflowed", "eval-exp-overflowed",
        "integrate-b-below-a", "mvt-two-variables", "eval-at-no-equals", "taylor-no-b", "schedule-abc",
        "config-no-equals", "config-format-xml"])
def test_error_paths_print_one_pinned_line(tmp_path, capsys, argv, line):
    (tmp_path / "no_equals.conf").write_text("# depth\ndepth 4\n")
    (tmp_path / "format_xml.conf").write_text("format = xml\n")
    code, out, err = run(capsys, *(arg.replace("{dir}", str(tmp_path)) for arg in argv))
    assert (code, out, err) == (1, "", line.replace("{dir}", str(tmp_path)) + "\n")


def test_one_grid_integral_json_is_strict(capsys):
    # no error estimate from a single sum: null, not the non-JSON Infinity
    code, out, _ = run(capsys, "--format", "json", "integrate", "x", "--a", "0", "--b", "1", "--schedule", "1000")
    assert code == 0
    data = json.loads(out, parse_constant=lambda name: pytest.fail(f"non-JSON constant {name}"))
    assert data["error"] is None and data["H"] == [1000]
    code, out, _ = run(capsys, "integrate", "x", "--a", "0", "--b", "1", "--schedule", "1000")
    assert code == 0 and "error estimate = inf\n" in out


def test_deep_parentheses_evaluate(capsys):
    # The recursive parser raised RecursionError at about 250 levels, and
    # the command printed its traceback.
    code, out, err = run(capsys, "eval", "(" * 300 + "x" + ")" * 300, "--at", "x=1")
    assert (code, out, err) == (0, "1\n", "")


@pytest.mark.parametrize("argv", [
    ["eval", " + ".join(["x"] * 3000), "--at", "x=1"],
    ["derive", " " + "-" * 3000 + "x", "--at", "1"],
    ["integrate", "sin(" * 3000 + "x" + ")" * 3000, "--a", "0", "--b", "1"],
    ["transfer-check", "{dir}/deep.fof"],
], ids=["eval-long-sum", "derive-deep-minus", "integrate-deep-sin", "transfer-deep-not"])
def test_tree_too_deep_to_evaluate_is_one_error_line(tmp_path, capsys, argv):
    # Such trees parse (on an explicit stack); evaluating and rendering them
    # recurse, past Python's limit.
    (tmp_path / "deep.fof").write_text("forall x: real. " + "not " * 3000 + "x < 1\n")
    code, out, err = run(capsys, *(arg.replace("{dir}", str(tmp_path)) for arg in argv))
    assert (code, out, err) == (1, "", "RecursionError: the input is nested too deeply to evaluate\n")


@pytest.mark.parametrize("argv, line", [
    (["eval", "sin(x"], "ParseError: 1:6: expected ')', got end of input"),
    (["eval", "x + #"], "ParseError: 1:5: unexpected character '#'"),
    (["transfer-check", "{dir}/second.fof"], "ParseError: 2:20: expected an expression, got end of input"),
])
def test_parse_errors_print_their_position(tmp_path, capsys, argv, line):
    (tmp_path / "second.fof").write_text("forall x: real. x = x\nforall x: real. x < \n")
    code, out, err = run(capsys, *(arg.replace("{dir}", str(tmp_path)) for arg in argv))
    assert (code, out, err) == (1, "", line + "\n")


@pytest.mark.parametrize("argv, line", [
    (["eval", "x + eps", "--at", "eps=5", "--at", "x=1"],
     "BindingError: 'eps' is the field's generator and cannot be bound"),
    (["eval", "x", "--at", "x=1", "--at", "x=2"], "BindingError: variable 'x' is bound more than once"),
    (["eval", "x", "--at", "x y=1"], "BindingError: --at expects one variable name before '=', got 'x y'"),
    (["eval", "x", "--at", "=1"], "BindingError: --at expects one variable name before '=', got ''"),
    (["eval", "x", "--at", "2=1"], "BindingError: --at expects one variable name before '=', got '2'"),
    (["eval", "x", "--at", "x²=1"], "BindingError: --at expects one variable name before '=', got 'x²'"),
], ids=["eps", "twice", "two-names", "no-name", "number", "bad-character"])
def test_eval_at_binds_one_new_variable_name(capsys, argv, line):
    assert run(capsys, *argv) == (1, "", line + "\n")


def test_eval_at_strips_the_name(capsys):
    assert run(capsys, "eval", "x*_y2", "--at", " x =2", "--at", "_y2= 3") == (0, "6\n", "")
