"""Expression language and command-line behavior."""

import hashlib
import io
import json
import os
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import polyzeta
from polyzeta import ExpressionError, Precision, cli
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
    _PREC,
    MAX_EXPORT_WEIGHT,
    MAX_PARSE_DEPTH,
    eval_expression,
    format_result,
    parse_expression,
    run,
)

F = Fraction


# -- parsing -------------------------------------------------------------------

def _same_tree(e, want):
    # parse trees are NamedTuples, which compare equal across classes
    # (Neg(x) == Log(x), PiConst() == ()); their reprs name every node class
    assert repr(e) == repr(want)


def test_parse_golden_expression():
    e = parse_expression("Pi^6/z(6)")
    _same_tree(e, BinOp("/", Pow(PiConst(), 6), ZCall((6,))))


def test_parse_lindep_children():
    e = parse_expression("lindep([z(4,1,3), z(5,3), z(8), z(5)*z(3), z(3)^2*z(2)])")
    assert isinstance(e, LindepCall)
    assert len(e.items) == 5
    _same_tree(e.items[0], ZCall((4, 1, 3)))
    _same_tree(e.items[3], BinOp("*", ZCall((5,)), ZCall((3,))))


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
    _same_tree(parse_expression("0.125"), Num(F(1, 8)))
    _same_tree(parse_expression("zp(3/2, 2)"), ZpCall(F(3, 2), (2,)))
    _same_tree(parse_expression("zp(1.5, 2, 1)"), ZpCall(F(3, 2), (2, 1)))


def test_parse_precedence_and_power():
    e = parse_expression("1 + 2*3^2")
    _same_tree(e, BinOp("+", Num(F(1)), BinOp("*", Num(F(2)), Pow(Num(F(3)), 2))))
    # right-associative integer exponent chains fold: 2^(3^2)
    _same_tree(parse_expression("2^3^2"), Pow(Num(F(2)), 9))
    _same_tree(parse_expression("2^-2"), Pow(Num(F(2)), -2))
    # unary minus sits inside the atom, hence inside the power base
    _same_tree(parse_expression("-2^2"), Pow(Neg(Num(F(2))), 2))
    _same_tree(parse_expression("-(2^2)"), Neg(Pow(Num(F(2)), 2)))


def test_parse_exponent_chain_bounds():
    _same_tree(parse_expression("2^3^2"), Pow(Num(F(2)), 9))
    _same_tree(parse_expression("2^1^999"), Pow(Num(F(2)), 1))
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
    _same_tree(parse_expression(pretty(e)), e)
    assert eval_expression(e, Precision(12)).to_fraction() == d + 1
    _same_tree(parse_expression("(" * d + "1" + ")" * d), Num(F(1)))
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
    _same_tree(e, BinOp("*", Neg(Log(Num(F(2)))), Num(F(3))))


# -- pretty printing -----------------------------------------------------------


def pretty(e, parent_prec=0, right_side=False):
    """A normal form of e that parses back to e: the round-trip oracle for
    the parser."""
    if isinstance(e, Num):
        return str(e.value)
    if isinstance(e, PiConst):
        return "Pi"
    if isinstance(e, Log):
        return f"log({pretty(e.arg)})"
    if isinstance(e, Neg):
        text = f"-{pretty(e.arg, 3)}"
        # grammar puts unary minus inside the power base, so a negation
        # under '^' needs parentheses
        return f"({text})" if parent_prec >= 4 else text
    if isinstance(e, Pow):
        text = f"{pretty(e.base, 4)}^{e.exponent}"
        return f"({text})" if parent_prec >= 3 else text
    if isinstance(e, ZCall):
        return "z(" + ",".join(str(a) for a in e.args) + ")"
    if isinstance(e, ZpCall):
        return f"zp({e.p}," + ",".join(str(a) for a in e.args) + ")"
    if isinstance(e, LindepCall):
        return "lindep([" + ", ".join(pretty(x) for x in e.items) + "])"
    prec = _PREC[e.op]
    text = f"{pretty(e.left, prec, False)} {e.op} {pretty(e.right, prec, True)}"
    if prec < parent_prec or (prec == parent_prec and right_side):
        return f"({text})"
    return text


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
        _same_tree(reparsed, e)


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


def test_run_eval_base_within_float_rounding_of_one_names_its_spec(capsys):
    # 1/b rounds to 1.0 as a float, so no tail bound exists: the split's
    # plan refuses the spec asked for, in one line and without a traceback
    assert run(["eval", "zp(100000000000000000001/100000000000000000000, 2)",
                "--digits", "20"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: L[2 | 100000000000000000001/100000000000000000000]:"
        " a base modulus this close to 1 cannot be summed\n"
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


def test_run_reports_an_internal_error_with_a_traceback(monkeypatch, capsys):
    # an exception outside the user errors is a bug: exit 2, traceback on stderr
    def broken(e, prec):
        raise RuntimeError("broken evaluator")

    monkeypatch.setattr("polyzeta.cli.eval_expression", broken)
    assert run(["eval", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Traceback")
    assert "RuntimeError: broken evaluator" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "-Pi", "--digits", "12"],
        ["eval", "--digits", "12", "-Pi"],
        ["eval", "- Pi", "--digits", "12"],
        ["eval", "--digits", "12", "--", "-Pi"],
    ],
)
def test_run_eval_expression_may_start_with_minus(argv, capsys):
    # argparse alone reads "-Pi" as an unknown option, wherever it stands
    assert run(argv) == 0
    assert capsys.readouterr().out == "-3.14159265359\n"


def test_run_eval_minus_product_and_option_values(capsys):
    assert run(["eval", "-2*3", "--digits", "10"]) == 0
    assert capsys.readouterr().out == "-6.000000000\n"
    # a value after --digits stays its value, even when it starts with '-'
    assert run(["eval", "--digits", "-12", "z(2)"]) == 1
    assert capsys.readouterr().err == "error: digits must be in 10..1000, got -12\n"
    assert run(["eval", "-Pi", "-Pi"]) == 1


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["eval", "--Pi", "--digits", "12"], 0, "3.14159265359\n", []),
        (["eval", "--digits", "12", "--Pi"], 0, "3.14159265359\n", []),
        (["eval"], 1, "", [
            "polyzeta eval: error: the following arguments are required: expression"
        ]),
        (["eval", "Pi", "--digts", "12"], 1, "", [
            "polyzeta: error: unrecognized arguments: --digts 12"
        ]),
    ],
    ids=["double-minus-first", "double-minus-last", "no-expression", "misspelt-option"],
)
def test_run_eval_reads_a_lone_leftover_as_the_expression(argv, code, out, err, capsys):
    # argparse leaves "--Pi" over as an unknown option; alone, it is the
    # expression, and any other leftover is an error
    assert run(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err.splitlines()[-1:]) == (out, err)


@pytest.mark.parametrize(
    "argv, stdin, in_subprocess",
    [
        # through main() and the module's __main__ guard
        (["eval", "--Pi", "--digits", "12"], "", True),
        # blank lines are skipped
        (["repl", "--digits", "12"], "\n   \nPi\n:quit\n", False),
    ],
    ids=["python-m", "repl-blank-lines"],
)
def test_entry_points_print_pi(argv, stdin, in_subprocess, monkeypatch, capsys):
    if in_subprocess:
        src = os.path.dirname(os.path.dirname(polyzeta.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "polyzeta.cli", *argv],
            input=stdin, capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=path),
        )
        code, out = proc.returncode, proc.stdout
    else:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, out = run(argv), capsys.readouterr().out
    assert (code, out) == (0, "3.14159265359\n")


def test_package_runs_as_a_module():
    # python -m polyzeta runs the CLI through the package's __main__, and
    # an import of that module alone runs nothing
    src = os.path.dirname(os.path.dirname(polyzeta.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "polyzeta", "eval", "1+1", "--digits", "10"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "2.000000000\n", "")
    proc = subprocess.run(
        [sys.executable, "-c", "import polyzeta.__main__"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def test_reimport_leaves_no_old_module_alive():
    # a module-level alias that typing caches process-wide (Union[...])
    # would keep the old cli classes, and through their globals every old
    # polyzeta module, alive after the modules are dropped and imported
    # again; the check runs in a fresh interpreter, so this one keeps its
    # modules
    code = (
        "import gc, sys, weakref\n"
        "import polyzeta.cli\n"
        "ref = weakref.ref(polyzeta.cli.BinOp)\n"
        "for name in [n for n in sys.modules if n.split('.')[0] == 'polyzeta']:\n"
        "    del sys.modules[name]\n"
        "import polyzeta.cli\n"
        "gc.collect()\n"
        "print('dead' if ref() is None else 'alive')\n"
    )
    src = os.path.dirname(os.path.dirname(polyzeta.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert (proc.returncode, proc.stdout) == (0, "dead\n"), proc.stderr


def test_package_imports_no_mpmath():
    # mpmath is the tests' oracle, not a dependency: importing the package,
    # its CLI and its acceptance suite and evaluating an expression with pi
    # and a logarithm leave no mpmath module loaded
    code = (
        "import sys\n"
        "import polyzeta, polyzeta.cli, polyzeta.acceptance\n"
        "code = polyzeta.cli.run(['eval', 'Pi^2*log(2)', '--digits', '50'])\n"
        "print(code, sorted(n for n in sys.modules if n.split('.')[0] == 'mpmath'))\n"
    )
    src = os.path.dirname(os.path.dirname(polyzeta.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_package_loads_identities_and_relations_on_first_use():
    # a value-only run compiles neither the identity engine nor the relation
    # finder: the package's identity_catalog, stuffle_identity and lindep
    # load on first access, the CLI imports identities in its export command
    # and traceback in its crash handler.  -S keeps site's imports out
    code = (
        "import sys\n"
        "import polyzeta\n"
        "print(sorted(m for m in ('polyzeta.identities', 'polyzeta.relations')"
        " if m in sys.modules))\n"
        "print(sorted(set(polyzeta.__all__) - set(dir(polyzeta))))\n"
        "import polyzeta.cli\n"
        "print(sorted(m for m in ('polyzeta.identities', 'traceback') if m in sys.modules))\n"
        "from polyzeta import identities, relations\n"
        "print([getattr(polyzeta, n) is getattr(m, n) for n, m in [('lindep', relations),"
        " ('identity_catalog', identities), ('stuffle_identity', identities)]])\n"
        "names = {}\n"
        "exec('from polyzeta import *', names)\n"
        "print(len(polyzeta.__all__), sorted(set(polyzeta.__all__) - set(names)))\n"
        "try:\n"
        "    polyzeta.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(polyzeta.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]",
        "[]",
        "[]",
        "[True, True, True]",
        "24 []",
        "module 'polyzeta' has no attribute 'no_such_name'",
    ]


@pytest.mark.parametrize(
    "expression, out",
    [
        # a decimal exponent beyond 3500 bits takes the rendering's scaled path
        ("10^10^6", "1.00000000000000000000000000000e+1000000"),
        ("3^-7000/7", "2.02357321549973762830347474134e-3341"),
        ("log(10^10^5)", "230258.509299404568401799145468"),
    ],
    ids=["huge-power", "tiny-quotient", "log-of-huge"],
)
def test_run_eval_extreme_exponent_goldens(expression, out, capsys):
    assert run(["eval", expression, "--digits", "30"]) == 0
    assert capsys.readouterr().out == out + "\n"


@pytest.mark.parametrize(
    "expression, shown",
    [("log(-2/3)", "-0.666666666666667"), ("log(0)", "0.00000000000000")],
)
def test_run_eval_log_domain_error_text(expression, shown, capsys):
    # the argument is shown rounded to 15 significant digits
    assert run(["eval", expression, "--digits", "30"]) == 1
    assert capsys.readouterr().err == f"error: ln requires a positive argument, got {shown}\n"


def test_run_eval_unexpected_character_and_tiny_power_base(capsys):
    assert run(["eval", "2 $ 3"]) == 1
    assert capsys.readouterr().err == (
        "error: unexpected character '$' (at position 2)\n"
    )
    assert run(["eval", "(10^-40)^-1", "--digits", "30"]) == 1
    assert capsys.readouterr().err == (
        "error: power base is within 10^-25 of zero; refusing to divide\n"
    )
    # 10^-6 at 11 digits rounds below the exact 10^-6, as the bound does
    for expression in ("1/10^-6", "(10^-6)^-1", "1/(7/(7*10^6))"):
        assert run(["eval", expression, "--digits", "11"]) == 0
        assert capsys.readouterr().out == "1000000.0000\n"


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


def test_env_var_is_read_at_each_run_of_one_parser(monkeypatch, capsys):
    # the parser is built once per process, and POLYLOG_DIGITS is read after
    # each parse, not frozen into the parser as a default
    for digits, out in (("12", "0.693147180560"), ("15", "0.693147180559945")):
        monkeypatch.setenv("POLYLOG_DIGITS", digits)
        assert run(["eval", "zp(2,1)"]) == 0
        assert capsys.readouterr().out == out + "\n"
    assert cli._parsers.cache_info().misses == 1


def test_ctrl_c_in_eval_prints_interrupted_and_exits_130(monkeypatch, capsys):
    def interrupted(e, prec):
        raise KeyboardInterrupt

    monkeypatch.setattr("polyzeta.cli.eval_expression", interrupted)
    assert run(["eval", "z(500)", "--digits", "10"]) == 130
    assert capsys.readouterr() == ("", "interrupted\n")


def read_until(stream, text: str) -> str:
    """Characters from stream up to and including the first `text`."""
    seen = ""
    while not seen.endswith(text):
        char = stream.read(1)
        assert char, f"stream ended before {text!r}: {seen!r}"
        seen += char
    return seen


@pytest.mark.skipif(sys.platform == "win32", reason="sends SIGINT")
def test_ctrl_c_in_the_repl_drops_the_line_and_prompts_again():
    # SIGINT while zp(100001/100000, 2, 2) runs (about 24 s at 10 digits: a
    # base this near 1 takes the split at an adaptive p) drops that line
    # with no traceback, and the REPL reads the next one.  The child gets
    # SIGINT's default action back, which a shell running this suite in the
    # background may have set to ignore; Python then installs its handler
    src = os.path.dirname(os.path.dirname(polyzeta.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "polyzeta.cli", "repl"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=dict(os.environ, PYTHONPATH=path),
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        proc.stdin.write(":digits 10\n")
        proc.stdin.flush()
        read_until(proc.stderr, "precision set to 10 digits\n> ")
        proc.stdin.write("zp(100001/100000, 2, 2)\n")
        proc.stdin.flush()
        time.sleep(0.5)
        proc.send_signal(signal.SIGINT)
        read_until(proc.stderr, "interrupted\n> ")
        out, err = proc.communicate("1/3\n:quit\n", timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, out, err) == (0, "0.3333333333\n", "> ")


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
    monkeypatch.setattr("polyzeta.identities.identity_catalog", _no_catalog)
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
    monkeypatch.setattr("polyzeta.identities.identity_catalog", _no_catalog)
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


def test_identities_export_weight_ten_golden(tmp_path, capsys):
    # the largest weight the CLI exports, whose reversal reductions reach
    # the longest runs of leading 1s
    out = tmp_path / "ident.jsonl"
    assert run(["identities", "export", "--weight", "10", "--out", str(out)]) == 0
    data = out.read_bytes()
    assert data.count(b"\n") == 1280
    assert hashlib.sha256(data).hexdigest() == (
        "7833870dc49111737a40f11f102e28a391e0b6516c0c261aa8fb8770a0ce5710"
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
