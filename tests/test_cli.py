"""Expression language and command-line behavior."""

import hashlib
import io
import json
import random
from fractions import Fraction

import pytest

from polyzeta import ExpressionError, Precision
from polyzeta.relations import RelationResult
from polyzeta.cli import (
    BinOp,
    LindepCall,
    Log,
    Neg,
    Num,
    PiConst,
    Pow,
    ZCall,
    ZpCall,
    MAX_EXPORT_WEIGHT,
    MAX_PARSE_DEPTH,
    eval_expression,
    format_result,
    parse_expression,
    pretty,
    run,
)

F = Fraction


# -- parsing -------------------------------------------------------------------

def test_parse_golden_expression():
    e = parse_expression("Pi^6/z(6)")
    assert e == BinOp("/", Pow(PiConst(), 6), ZCall((6,)))


def test_parse_lindep_children():
    e = parse_expression("lindep([z(4,1,3), z(5,3), z(8), z(5)*z(3), z(3)^2*z(2)])")
    assert isinstance(e, LindepCall)
    assert len(e.items) == 5
    assert e.items[0] == ZCall((4, 1, 3))
    assert e.items[3] == BinOp("*", ZCall((5,)), ZCall((3,)))


def test_parse_errors_carry_positions():
    with pytest.raises(ExpressionError) as err:
        parse_expression("z()")
    assert err.value.position == 2
    with pytest.raises(ExpressionError):
        parse_expression("z(2,) ")
    with pytest.raises(ExpressionError) as err:
        parse_expression("2 + unknown(3)")
    assert "unknown" in str(err.value)
    with pytest.raises(ExpressionError):
        parse_expression("(1 + 2")
    with pytest.raises(ExpressionError):
        parse_expression("1 + 2)")
    with pytest.raises(ExpressionError):
        parse_expression("Pi^x")
    with pytest.raises(ExpressionError):
        parse_expression("zp(2)")
    with pytest.raises(ExpressionError):
        parse_expression("")


def test_parse_numbers_exact():
    assert parse_expression("0.125") == Num(F(1, 8))
    assert parse_expression("zp(3/2, 2)") == ZpCall(F(3, 2), (2,))
    assert parse_expression("zp(1.5, 2, 1)") == ZpCall(F(3, 2), (2, 1))


def test_parse_precedence_and_power():
    e = parse_expression("1 + 2*3^2")
    assert e == BinOp("+", Num(F(1)), BinOp("*", Num(F(2)), Pow(Num(F(3)), 2)))
    # right-associative integer exponent chains fold: 2^(3^2)
    assert parse_expression("2^3^2") == Pow(Num(F(2)), 9)
    assert parse_expression("2^-2") == Pow(Num(F(2)), -2)
    # unary minus sits inside the atom, hence inside the power base
    assert parse_expression("-2^2") == Pow(Neg(Num(F(2))), 2)
    assert parse_expression("-(2^2)") == Neg(Pow(Num(F(2)), 2))


def test_parse_exponent_chain_bounds():
    assert parse_expression("2^3^2") == Pow(Num(F(2)), 9)
    assert parse_expression("2^1^999") == Pow(Num(F(2)), 1)
    # each tower is rejected from bit lengths, before its power is taken
    # (9^9 = 387420489 passes, 9^387420489 does not)
    for src, pos in [("9^9^9^9", 3), ("1 + 2^2^2^99", 9)]:
        with pytest.raises(ExpressionError) as err:
            parse_expression(src)
        assert err.value.position == pos
    # a negative inner exponent would fold to a non-integer
    with pytest.raises(ExpressionError) as err:
        parse_expression("2^3^-1")
    assert err.value.position == 3


def test_parse_depth_bound():
    # the deepest accepted sum and brackets parse, print and evaluate without
    # a RecursionError; one more level is an error at the token opening it
    d = MAX_PARSE_DEPTH
    chain = "+".join(["1"] * (d + 1))
    e = parse_expression(chain)
    assert parse_expression(pretty(e)) == e
    assert eval_expression(e, Precision(12)).to_fraction() == d + 1
    assert parse_expression("(" * d + "1" + ")" * d) == Num(F(1))
    deeper = "(" * (d + 1) + "1" + ")" * (d + 1)
    for src, pos in [(chain + "+1", 2 * d + 1), (deeper, d)]:
        with pytest.raises(ExpressionError) as err:
            parse_expression(src)
        assert err.value.position == pos


def test_parse_nested_lindep_rejected():
    # lindep is the whole input or nothing: anywhere else the parser itself
    # rejects it, at the token that breaks the rule
    for src, pos in [
        ("lindep([lindep([1, 2]), 3])", 8),
        ("1 + lindep([1, 2])", 4),
        ("(lindep([1, 2]))", 1),
        ("-lindep([1, 2])", 1),
        ("lindep([1, 2]) * 2", 15),
        ("lindep([1, 2])^2", 14),
    ]:
        with pytest.raises(ExpressionError) as err:
            parse_expression(src)
        assert err.value.position == pos, src


def _no_value(*args):
    raise AssertionError("no value may be computed")


def test_run_eval_misplaced_lindep_fails_before_any_value(monkeypatch, capsys):
    monkeypatch.setattr("polyzeta.cli.evaluate_z", _no_value)
    monkeypatch.setattr("polyzeta.cli.lindep", _no_value)
    src = "lindep([z(4,1,3), z(5,3), z(8), z(5)*z(3), z(3)^2*z(2)]) * 2"
    assert run(["eval", src, "--digits", "400"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unexpected trailing input '*' (at position 57)\n"


def test_parse_zero_denominator_in_zp():
    with pytest.raises(ExpressionError) as err:
        parse_expression("zp(3/0, 2)")
    assert err.value.position == 5
    assert str(err.value) == "denominator must be nonzero (at position 5)"


def test_unary_minus_and_log():
    e = parse_expression("-log(2) * 3")
    assert e == BinOp("*", Neg(Log(Num(F(2)))), Num(F(3)))


# -- pretty printing -----------------------------------------------------------


def _random_expr(rng, depth=0):
    # Num nodes stay integral: the only rational-literal position is zp's
    # first argument (elsewhere p/q parses as division)
    choices = ["num", "pi", "z", "zp", "log", "neg", "bin", "pow"]
    if depth > 2:
        choices = ["num", "pi", "z"]
    kind = rng.choice(choices)
    if kind == "num":
        return Num(F(rng.randint(0, 50)))
    if kind == "pi":
        return PiConst()
    if kind == "z":
        entries = [rng.choice([2, 3, -2, 4]) for _ in range(rng.randint(1, 3))]
        return ZCall(tuple(entries))
    if kind == "zp":
        return ZpCall(F(rng.randint(1, 4)), tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2))))
    if kind == "log":
        return Log(_random_expr(rng, depth + 1))
    if kind == "neg":
        return Neg(_random_expr(rng, depth + 1))
    if kind == "pow":
        return Pow(_random_expr(rng, depth + 1), rng.randint(0, 5))
    op = rng.choice("+-*/")
    return BinOp(op, _random_expr(rng, depth + 1), _random_expr(rng, depth + 1))


def test_pretty_parse_roundtrip_corpus():
    rng = random.Random(99)
    for _ in range(200):
        e = _random_expr(rng)
        text = pretty(e)
        reparsed = parse_expression(text)
        assert pretty(reparsed) == text
        assert reparsed == e


def test_pretty_parse_idempotent_on_sources():
    # pretty . parse is idempotent even when the source spelling differs
    for src in ["22/7", "1+2 * 3", " z( 2 ,-1 )-Pi ", "zp(3/2,2)^2", "((4))"]:
        once = pretty(parse_expression(src))
        twice = pretty(parse_expression(once))
        assert once == twice


# -- evaluation ------------------------------------------------------------------

def test_eval_golden(prec50):
    v = eval_expression(parse_expression("Pi^6/z(6)"), prec50)
    assert format_result(v, 50) == "945." + "0" * 47
    assert abs(v - 945).to_fraction() < F(1, 10 ** 44)


def test_eval_euler_difference(prec50):
    v = eval_expression(parse_expression("z(2,1) - z(3)"), prec50)
    assert abs(v).to_fraction() < F(1, 10 ** 45)


def test_eval_division_near_zero(prec30):
    with pytest.raises(ExpressionError):
        eval_expression(parse_expression("1/(z(2,1) - z(3))"), prec30)


def test_eval_divergent_z(prec30):
    from polyzeta import DivergenceError

    with pytest.raises(DivergenceError):
        eval_expression(parse_expression("z(1,2)"), prec30)


def test_run_eval_divergent_z_names_its_arguments(capsys):
    assert run(["eval", "z(1)"]) == 1
    assert capsys.readouterr().err == (
        "error: z(1) diverges: leading argument 1 is an unsigned 1\n"
    )
    assert run(["eval", "z(1,2)"]) == 1
    assert capsys.readouterr().err == (
        "error: z(1, 2) diverges: leading argument 1 is an unsigned 1\n"
    )


def test_eval_lindep_expression(prec50):
    result = eval_expression(
        parse_expression("lindep([z(3), Pi^2*log(2), zp(2,2,1), zp(2,3)])"),
        prec50,
    )
    assert isinstance(result, RelationResult)
    assert result.coefficients == (12, -1, -12, -12)
    assert format_result(result, 50) == "12, -1, -12, -12"
    assert format_result(result, 50, ezface=True) == "12., -1., -12., -12."


def test_eval_log_domain(prec30):
    from polyzeta import DomainError

    with pytest.raises(DomainError):
        eval_expression(parse_expression("log(0 - 2)"), prec30)


# -- command line -----------------------------------------------------------------

def test_run_eval_success(capsys):
    code = run(["eval", "z(6)", "--digits", "20"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "1.0173430619844491397"


def test_run_eval_lindep_reject_golden(monkeypatch, capsys):
    # no relation among log 2, log 3, log 5 and Pi at the default 50 digits
    monkeypatch.delenv("POLYLOG_DIGITS", raising=False)
    code = run(["eval", "lindep([log(2), log(3), log(5), Pi])"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == (
        "no integer relation found (any exact relation has norm > 1e+08)\n"
    )
    assert captured.err == ""


def test_run_eval_user_errors(capsys):
    assert run(["eval", "z(1,2)", "--digits", "20"]) == 1
    assert run(["eval", "z(6)", "--digits", "5"]) == 1
    assert run(["eval", "z(6", "--digits", "20"]) == 1
    assert run(["eval", "z(6)", "--bogus-flag"]) == 1
    assert run(["bogus-subcommand"]) == 1


def test_run_determinism(capsys):
    run(["eval", "zp(2,3,1)", "--digits", "35"])
    first = capsys.readouterr().out
    run(["eval", "zp(2,3,1)", "--digits", "35"])
    second = capsys.readouterr().out
    assert first == second


def test_env_var_default_digits(monkeypatch, capsys):
    monkeypatch.setenv("POLYLOG_DIGITS", "12")
    code = run(["eval", "zp(2,1)"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "0.693147180560"


def test_env_var_invalid_is_user_error(monkeypatch, capsys):
    monkeypatch.setenv("POLYLOG_DIGITS", "not-a-number")
    assert run(["eval", "1"]) == 1
    assert "error" in capsys.readouterr().err


BAD_DIGITS = "error: digits must be an integer in 10..1000, got {!r}\n"


@pytest.mark.parametrize("text", ["x", "1.5", ""])
def test_run_eval_non_integer_digits_names_the_range(text, capsys):
    assert run(["eval", "1", "--digits", text]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == BAD_DIGITS.format(text)


def test_env_var_non_integer_digits_names_the_range(monkeypatch, capsys):
    monkeypatch.setenv("POLYLOG_DIGITS", "abc")
    assert run(["eval", "1"]) == 1
    assert capsys.readouterr().err == BAD_DIGITS.format("abc")


def test_out_of_range_digits_keep_their_message(monkeypatch, capsys):
    assert run(["eval", "1", "--digits", "5"]) == 1
    assert capsys.readouterr().err == "error: digits must be in 10..1000, got 5\n"
    monkeypatch.setenv("POLYLOG_DIGITS", "5000")
    assert run(["eval", "1"]) == 1
    assert capsys.readouterr().err == "error: digits must be in 10..1000, got 5000\n"


def test_repl_bad_digits_keep_the_precision(monkeypatch, capsys):
    script = ":digits\n:digits x\n:digits 5\n1/3\n:quit\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(script))
    assert run(["repl", "--digits", "12"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "0.333333333333\n"
    errors = [line for line in captured.err.split("> ") if line.startswith("error")]
    assert errors == [
        BAD_DIGITS.format(""),
        BAD_DIGITS.format("x"),
        "error: digits must be in 10..1000, got 5\n",
    ]


def test_run_eval_lindep_below_thirty_digits_fails_before_any_value(monkeypatch, capsys):
    monkeypatch.setattr("polyzeta.cli.evaluate_z", _no_value)
    assert run(["eval", "lindep([z(120), z(3)])", "--digits", "20"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: lindep needs at least 30 digits, got 20\n"


def test_repl_session(monkeypatch, capsys):
    script = "Pi^6/z(6)\n:digits 20\nz(6)\nz(1,2)\n:quit\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(script))
    code = run(["repl", "--digits", "30"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == "945.00000000000000000000000000000"[:31]
    assert lines[1] == "1.0173430619844491397"
    assert "diverges" in captured.err


def test_identities_export_cli(tmp_path, capsys):
    out = tmp_path / "ident.jsonl"
    code = run(["identities", "export", "--weight", "4", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"lhs", "rhs", "tag"}


def _no_catalog(weight):
    raise AssertionError("the catalog must not be built")


def test_identities_export_unwritable_path_is_user_error(tmp_path, monkeypatch, capsys):
    # the path fails before the catalog is built
    monkeypatch.setattr("polyzeta.cli.identity_catalog", _no_catalog)
    out = tmp_path / "missing" / "ident.jsonl"
    assert run(["identities", "export", "--weight", "3", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("weight", [11, 2])
def test_identities_export_weight_out_of_range(weight, tmp_path, monkeypatch, capsys):
    # outside 3..MAX_EXPORT_WEIGHT the command stops before any work
    assert MAX_EXPORT_WEIGHT == 10
    monkeypatch.setattr("polyzeta.cli.identity_catalog", _no_catalog)
    out = tmp_path / "ident.jsonl"
    assert run(["identities", "export", "--weight", str(weight), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: weight must be in 3..10, got {weight}\n"
    assert not out.exists()


def test_identities_export_weight_six_golden(tmp_path, capsys):
    # pinned bytes: term order and coefficients must not drift
    out = tmp_path / "ident.jsonl"
    assert run(["identities", "export", "--weight", "6", "--out", str(out)]) == 0
    data = out.read_bytes()
    assert data.count(b"\n") == 48
    assert hashlib.sha256(data).hexdigest() == (
        "d3199a2d531f443593da412ba2a0e1f6aa9aed27f14d020e7436363c5be9778d"
    )


DEEP_INPUTS = [
    "+".join(["1"] * 3000),
    "(" * 5000 + "1" + ")" * 5000,
]


@pytest.mark.parametrize("src", DEEP_INPUTS, ids=["sum-3000", "parens-5000"])
def test_run_eval_deep_input_is_user_error(src, capsys):
    assert run(["eval", src]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: expression nests deeper than")
    assert captured.err.count("\n") == 1


def test_repl_deep_input_is_user_error(monkeypatch, capsys):
    script = "\n".join(DEEP_INPUTS + ["1+1", ":quit"]) + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(script))
    assert run(["repl", "--digits", "12"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "2.00000000000\n"
    errors = [line for line in captured.err.split("> ") if "error" in line]
    assert len(errors) == 2
    assert all(e.startswith("error: expression nests deeper than") for e in errors)
    assert "Traceback" not in captured.err


def test_repl_eof(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert run(["repl", "--digits", "15"]) == 0
