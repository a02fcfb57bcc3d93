"""Expression language and command-line interface.

Grammar (whitespace-insensitive)::

    input  := 'lindep' '(' '[' expr (',' expr)* ']' ')' | expr
    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' exponent)?          -- integer exponent, right-assoc
    atom   := NUMBER | 'Pi' | 'log' '(' expr ')'
            | 'z' '(' ints ')' | 'zp' '(' number (',' int)+ ')'
            | '(' expr ')' | '-' atom

As in EZ-Face, `lindep` is a command over a list of values, not a number:
it takes the whole input, and in any other place it is a parse error with a
position, raised before any value is computed.

Number literals are decimals or rationals ``p/q`` and are parsed exactly
(no float intermediary), so ``zp(2, ...)`` keeps its exact base.  Results go
to stdout, diagnostics to stderr.

argparse alone reads the command line.  An ``eval`` expression may start
with '-' or '--' ("-Pi", "--Pi"); argparse leaves such an argument over as
an unknown option, and when ``eval`` has no other expression a lone
leftover is it.  Any other leftover is an ``unrecognized arguments`` error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .errors import ExpressionError, PolyzetaError
from .evaluate import evaluate_z, evaluate_zp
from .precision import (
    MAX_DIGITS,
    MIN_DIGITS,
    BigReal,
    Precision,
    ln,
    pi,
    to_decimal_string,
)
# relations stays a top-level import although an `eval` of a value does not
# use it: imported by the first `lindep` line instead, it compiled after an
# identity session had built its catalog, and the identity_session
# benchmark's peak memory rose 1.6 % (8 of 8 pairs)
from .relations import RelationResult, lindep, require_lindep_digits

DEFAULT_DIGITS = 50
DIGITS_ENV = "POLYLOG_DIGITS"
# bound on a folded exponent chain a^b^c, checked before the power is taken
MAX_EXPONENT_BITS = 64
# bound on the nesting depth of an expression.  Each bracket, unary minus and
# log, and each binary or power operator, opens a level; the parser recurses
# at most five frames per level and the evaluator one per node, so both stay
# well below Python's recursion limit.
MAX_PARSE_DEPTH = 100
# bound on `identities export --weight`: the catalog grows about 2.2x per
# weight and its build about 3.5x.  `tools/catalog_times.py --weights 10-12`
# (least of 3 rounds, a build with its JSON lines, Python 3.11, 2-core Xeon)
# read 46 ms at weight 10 (1280 identities), 158 ms at 11 (2816) and 0.60 s
# at 12 (6144); the bound stays at 10 until the exact MZV reduction that
# reads the same products lands (ROADMAP item 5)
MAX_EXPORT_WEIGHT = 10
# errors in the user's input or request: printed as one `error:` line
_USER_ERRORS = (PolyzetaError, ValueError, ZeroDivisionError)


# ---------------------------------------------------------------------------
# Tokens and AST
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<number>\d+(?:\.\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),\[\]])|(?P<bad>\S)"
)


class Token(NamedTuple):
    kind: str  # 'number' | 'name' | 'op' | 'end'
    text: str
    pos: int


def tokenize(src: str) -> list[Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        if kind == "bad":
            raise ExpressionError(f"unexpected character {m.group()!r}", m.start())
        tokens.append(Token(kind, m.group(), m.start()))
    tokens.append(Token("end", "", len(src)))
    return tokens


class Num(NamedTuple):
    value: Fraction


class PiConst(NamedTuple):
    pass


class Log(NamedTuple):
    arg: "Expr"


class Neg(NamedTuple):
    arg: "Expr"


class BinOp(NamedTuple):
    op: str
    left: "Expr"
    right: "Expr"


class Pow(NamedTuple):
    base: "Expr"
    exponent: int


class ZCall(NamedTuple):
    args: tuple[int, ...]


class ZpCall(NamedTuple):
    p: Fraction
    args: tuple[int, ...]


class LindepCall(NamedTuple):
    items: tuple["Expr", ...]


# a types.UnionType: typing.Union[...] would be cached process-wide by typing
# and keep this module's classes alive after a re-import
Expr = Num | PiConst | Log | Neg | BinOp | Pow | ZCall | ZpCall | LindepCall


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# binary operators by precedence level
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


class _Parser:
    def __init__(self, src: str):
        self.tokens = tokenize(src)
        self.i = 0
        self.depth = 0

    def descend(self, tok: Token) -> None:
        """Open one more nesting level at tok; the caller closes it."""
        self.depth += 1
        if self.depth > MAX_PARSE_DEPTH:
            raise ExpressionError(
                f"expression nests deeper than {MAX_PARSE_DEPTH} levels", tok.pos
            )

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.kind == "end" or tok.text != text:
            raise ExpressionError(
                f"expected {text!r}, found {tok.text!r}" if tok.kind != "end"
                else f"expected {text!r}, found end of input",
                tok.pos,
            )
        return tok

    def parse(self) -> Expr:
        if self.peek().text == "lindep":
            self.next()
            self.expect("(")
            self.expect("[")
            e = LindepCall((self.expr(), *self.more(self.expr)))
            self.expect("]")
            self.expect(")")
        else:
            e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return e

    def expr(self, level: int = 1) -> Expr:
        """Binary operators of `_PREC` level `level` and above, left-assoc."""
        if level > max(_PREC.values()):
            return self.factor()
        depth = self.depth
        e = self.expr(level + 1)
        while _PREC.get(self.peek().text) == level:
            op = self.next()
            self.descend(op)
            e = BinOp(op.text, e, self.expr(level + 1))
        self.depth = depth
        return e

    def factor(self) -> Expr:
        e = self.atom()
        if self.peek().text == "^":
            self.descend(self.next())
            e = Pow(e, self.exponent())
            self.depth -= 1
        return e

    def exponent(self) -> int:
        value = self.signed("power exponent must be an integer")
        if self.peek().text == "^":
            op = self.next()
            self.descend(op)
            inner = self.exponent()
            self.depth -= 1
            if inner < 0:
                raise ExpressionError("power exponent must be an integer", op.pos)
            # |value| ** inner has at most inner * bit_length(value) bits
            if abs(value) > 1 and inner * value.bit_length() > MAX_EXPONENT_BITS:
                raise ExpressionError(
                    f"power exponent exceeds {MAX_EXPONENT_BITS} bits", op.pos
                )
            # a leading '-' negates the whole chain: 2^-2^2 is 2^-4
            value = -(-value) ** inner if value < 0 else value ** inner
        return value

    def signed(self, message: str = "expected an integer", integer: bool = True):
        """Optional '-', then a number token: an int, or any decimal as an
        exact Fraction when integer is False.  message is the error raised
        at a token that does not fit."""
        neg = self.peek().text == "-"
        if neg:
            self.next()
        tok = self.next()
        if tok.kind != "number" or (integer and "." in tok.text):
            raise ExpressionError(message, tok.pos)
        value = int(tok.text) if integer else Fraction(tok.text)
        return -value if neg else value

    def number_literal(self) -> Fraction:
        """Decimal or p/q rational, parsed exactly."""
        value = self.signed("expected a number", integer=False)
        if self.peek().text == "/" and self.tokens[self.i + 1].kind == "number":
            self.next()
            den = self.next()
            if Fraction(den.text) == 0:
                raise ExpressionError("denominator must be nonzero", den.pos)
            value /= Fraction(den.text)
        return value

    def more(self, read) -> list:
        """The items of a (',' item)* tail, each read by read()."""
        items = []
        while self.peek().text == ",":
            self.next()
            items.append(read())
        return items

    def atom(self) -> Expr:
        tok = self.next()
        if tok.text == "-":
            self.descend(tok)
            e = Neg(self.atom())
            self.depth -= 1
            return e
        if tok.text == "(":
            self.descend(tok)
            e = self.expr()
            self.expect(")")
            self.depth -= 1
            return e
        if tok.kind == "number":
            return Num(Fraction(tok.text))
        if tok.text == "Pi":
            return PiConst()
        if tok.text == "log":
            self.descend(tok)
            self.expect("(")
            e = Log(self.expr())
            self.expect(")")
            self.depth -= 1
            return e
        if tok.text == "z":
            self.expect("(")
            if self.peek().text == ")":
                raise ExpressionError("z requires at least one argument", self.peek().pos)
            args = (self.signed(), *self.more(self.signed))
            self.expect(")")
            return ZCall(args)
        if tok.text == "zp":
            self.expect("(")
            p = self.number_literal()
            args = tuple(self.more(self.signed))
            self.expect(")")
            if not args:
                raise ExpressionError("zp requires exponent arguments", tok.pos)
            return ZpCall(p, args)
        if tok.text == "lindep":
            raise ExpressionError(
                "lindep cannot be nested inside another expression", tok.pos
            )
        if tok.kind == "name":
            raise ExpressionError(f"unknown name {tok.text!r}", tok.pos)
        raise ExpressionError(
            f"unexpected token {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
            tok.pos,
        )


def parse_expression(src: str) -> Expr:
    return _Parser(src).parse()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def eval_expression(e: Expr, prec: Precision):
    """Evaluate to a BigReal, or a RelationResult for a lindep call (which
    the parser admits only as the whole expression)."""
    if isinstance(e, Num):
        return BigReal(e.value, prec)
    if isinstance(e, PiConst):
        return pi(prec)
    if isinstance(e, Log):
        return ln(eval_expression(e.arg, prec), prec)
    if isinstance(e, Neg):
        return -eval_expression(e.arg, prec)
    if isinstance(e, Pow):
        base = eval_expression(e.base, prec)
        if e.exponent < 0:
            _check_not_tiny(base, prec, "power base")
        return base ** e.exponent
    if isinstance(e, BinOp):
        left = eval_expression(e.left, prec)
        right = eval_expression(e.right, prec)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        _check_not_tiny(right, prec, "divisor")
        return left / right
    if isinstance(e, ZCall):
        return evaluate_z(e.args, prec)
    if isinstance(e, ZpCall):
        return evaluate_zp(e.p, e.args, prec)
    if isinstance(e, LindepCall):
        require_lindep_digits(prec.digits)
        return lindep([eval_expression(item, prec) for item in e.items])
    raise TypeError(type(e))


def _check_not_tiny(v: BigReal, prec: Precision, what: str) -> None:
    # the bound is rounded at v's precision, so a value that rounds as
    # 10^-(digits - 5) does, such as that power itself, passes
    if abs(v) < BigReal(Fraction(1, 10 ** (prec.digits - 5)), prec):
        raise ExpressionError(
            f"{what} is within 10^-{prec.digits - 5} of zero; refusing to divide"
        )


def format_result(value, digits: int, ezface: bool = False) -> str:
    if isinstance(value, RelationResult):
        if not value.found:
            bound = value.exclusion_bound
            return f"no integer relation found (any exact relation has norm > {bound:.3g})"
        if ezface:
            return ", ".join(f"{c}." for c in value.coefficients)
        return ", ".join(str(c) for c in value.coefficients)
    return to_decimal_string(value, digits)


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _default_digits() -> str:
    return os.environ.get(DIGITS_ENV) or str(DEFAULT_DIGITS)


def _precision(text: str) -> Precision:
    """The Precision of a digit count from --digits, POLYLOG_DIGITS or the
    REPL's :digits."""
    try:
        digits = int(text)
    except ValueError:
        raise ValueError(
            f"digits must be an integer in {MIN_DIGITS}..{MAX_DIGITS}, got {text!r}"
        ) from None
    return Precision(digits)


def _eval_line(src: str, prec: Precision, ezface: bool) -> str:
    return format_result(eval_expression(parse_expression(src), prec), prec.digits, ezface)


def _cmd_eval(args) -> int:
    print(_eval_line(args.expression, _precision(args.digits), args.ezface_format))
    return 0


def _cmd_repl(args) -> int:
    prec = _precision(args.digits)
    print(
        f"expression calculator, {prec.digits} digits; :digits N, :quit to exit",
        file=sys.stderr,
    )
    while True:
        print("> ", end="", file=sys.stderr, flush=True)
        try:
            line = sys.stdin.readline()
            if not line:
                return 0
            line = line.strip()
            if line in (":quit", ":q"):
                return 0
            if line.startswith(":digits"):
                prec = _precision(line[len(":digits"):].strip())
                print(f"precision set to {prec.digits} digits", file=sys.stderr)
            elif line:
                print(_eval_line(line, prec, args.ezface_format), flush=True)
        except _USER_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
        except KeyboardInterrupt:
            # Ctrl-C drops the line, read or running, and prompts again
            print("interrupted", file=sys.stderr)


def _cmd_identities(args) -> int:
    # only this command builds identities, so only it compiles their module
    from .identities import export_identities, identity_catalog

    if not 3 <= args.weight <= MAX_EXPORT_WEIGHT:
        raise ValueError(f"weight must be in 3..{MAX_EXPORT_WEIGHT}, got {args.weight}")
    # the output opens first, so a bad path fails before the catalog is built
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            count = export_identities(identity_catalog(args.weight), fh)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {count} identities to {args.out}", file=sys.stderr)
    return 0


def _cmd_selftest(args) -> int:
    from .acceptance import run_criteria

    ok = run_criteria(level=args.level)
    return 0 if ok else 1


@cache
def _parsers() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The command-line parser and its eval subparser, built on the first
    call, so a process that runs many commands builds them once.  --digits
    has no default here: POLYLOG_DIGITS is read after each parse."""
    parser = argparse.ArgumentParser(
        prog="polyzeta",
        description="arbitrary-precision calculator for multiple polylogarithms,"
        " zeta values and Euler sums",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = argparse.ArgumentParser(add_help=False)
    options.add_argument("--digits")
    options.add_argument("--ezface-format", action="store_true")

    p_eval = sub.add_parser("eval", parents=[options], help="evaluate one expression")
    p_eval.add_argument("expression", nargs="?")
    p_eval.set_defaults(fn=_cmd_eval)

    p_repl = sub.add_parser(
        "repl", parents=[options], help="interactive per-line evaluation"
    )
    p_repl.set_defaults(fn=_cmd_repl)

    p_ident = sub.add_parser("identities", help="identity corpus tools")
    p_ident.add_argument("action", choices=["export"])
    p_ident.add_argument(
        "--weight", type=int, default=6, help=f"maximum weight, 3..{MAX_EXPORT_WEIGHT}"
    )
    p_ident.add_argument("--out", required=True)
    p_ident.set_defaults(fn=_cmd_identities)

    p_self = sub.add_parser("selftest", help="run the acceptance criteria")
    p_self.add_argument("--level", choices=["fast", "full"], default="fast")
    p_self.set_defaults(fn=_cmd_selftest)
    return parser, p_eval


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser, p_eval = _parsers()
    # argparse reads an expression that starts with '-' ("-Pi", "--Pi") as an
    # unknown option and leaves it over; a lone leftover is eval's expression
    args, extra = parser.parse_known_args(argv)
    if args.command == "eval" and args.expression is None and len(extra) == 1:
        args.expression = extra.pop()
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    if args.command == "eval" and args.expression is None:
        p_eval.error("the following arguments are required: expression")
    if "digits" in args and args.digits is None:
        args.digits = _default_digits()
    return args


def run(argv) -> int:
    try:
        try:
            args = _parse_args(list(argv))
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 1
        return args.fn(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # Ctrl-C: the shell's exit status for SIGINT, 128 + 2
        print("interrupted", file=sys.stderr)
        return 130
    except Exception:
        # imported here: traceback pulls in linecache and tokenize, which only
        # a crash needs
        import traceback

        traceback.print_exc()
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
