"""Expression language and command-line interface.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' exponent)?          -- integer exponent, right-assoc
    atom   := NUMBER | 'Pi' | 'log' '(' expr ')'
            | 'z' '(' ints ')' | 'zp' '(' number (',' int)+ ')'
            | 'lindep' '(' '[' expr (',' expr)* ']' ')'
            | '(' expr ')' | '-' atom

Number literals are decimals or rationals ``p/q`` and are parsed exactly
(no float intermediary), so ``zp(2, ...)`` keeps its exact base.  Results go
to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ExpressionError, PolyzetaError
from .evaluate import evaluate_z, evaluate_zp
from .identities import export_identities, identity_catalog
from .precision import MAX_DIGITS, MIN_DIGITS, BigReal, Precision, ln, pi, pow_int, to_decimal_string
from .relations import RelationResult, lindep

DEFAULT_DIGITS = 50
DIGITS_ENV = "POLYLOG_DIGITS"
# bound on a folded exponent chain a^b^c, checked before the power is taken
MAX_EXPONENT_BITS = 64
# bound on the nesting depth of an expression.  Each bracket, unary minus and
# log, and each binary or power operator, opens a level; the parser recurses
# at most four frames per level and the evaluator and the printer one per
# node, so all three stay well below Python's recursion limit.
MAX_PARSE_DEPTH = 100
# bound on `identities export --weight`: the catalog grows about 2.2x per
# weight, and weight 10 already takes seconds and tens of MB
MAX_EXPORT_WEIGHT = 10


# ---------------------------------------------------------------------------
# Tokens and AST
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),\[\]]))"
)


@dataclass(frozen=True)
class Token:
    kind: str  # 'number' | 'name' | 'op' | 'end'
    text: str
    pos: int


def tokenize(src: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(src) - len(stripped)
            raise ExpressionError(f"unexpected character {src[bad_at]!r}", bad_at)
        kind = m.lastgroup
        tokens.append(Token(kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(Token("end", "", len(src)))
    return tokens


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class PiConst:
    pass


@dataclass(frozen=True)
class Log:
    arg: "Expr"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class ZCall:
    args: tuple[int, ...]


@dataclass(frozen=True)
class ZpCall:
    p: Fraction
    args: tuple[int, ...]


@dataclass(frozen=True)
class LindepCall:
    items: tuple["Expr", ...]


Expr = Union[Num, PiConst, Log, Neg, BinOp, Pow, ZCall, ZpCall, LindepCall]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, src: str):
        self.src = src
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
        e = self.expr(allow_lindep=True)
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return e

    def expr(self, allow_lindep=False) -> Expr:
        depth = self.depth
        e = self.term(allow_lindep)
        while self.peek().text in ("+", "-") and self.peek().kind == "op":
            op = self.next()
            self.descend(op)
            e = BinOp(op.text, e, self.term(False))
        self.depth = depth
        return e

    def term(self, allow_lindep=False) -> Expr:
        depth = self.depth
        e = self.factor(allow_lindep)
        while self.peek().text in ("*", "/") and self.peek().kind == "op":
            op = self.next()
            self.descend(op)
            e = BinOp(op.text, e, self.factor(False))
        self.depth = depth
        return e

    def factor(self, allow_lindep=False) -> Expr:
        e = self.atom(allow_lindep)
        if self.peek().text == "^" and self.peek().kind == "op":
            self.descend(self.next())
            e = Pow(e, self.exponent())
            self.depth -= 1
        return e

    def exponent(self) -> int:
        neg = False
        if self.peek().text == "-":
            self.next()
            neg = True
        tok = self.next()
        if tok.kind != "number" or "." in tok.text:
            raise ExpressionError("power exponent must be an integer", tok.pos)
        value = int(tok.text)
        if self.peek().text == "^" and self.peek().kind == "op":
            op = self.next()
            self.descend(op)
            inner = self.exponent()
            self.depth -= 1
            if inner < 0:
                raise ExpressionError("power exponent must be an integer", op.pos)
            # value ** inner has at most inner * bit_length(value) bits
            if value > 1 and inner * value.bit_length() > MAX_EXPONENT_BITS:
                raise ExpressionError(
                    f"power exponent exceeds {MAX_EXPONENT_BITS} bits", op.pos
                )
            value = value ** inner
        return -value if neg else value

    def signed_int(self) -> int:
        neg = False
        if self.peek().text == "-":
            self.next()
            neg = True
        tok = self.next()
        if tok.kind != "number" or "." in tok.text:
            raise ExpressionError("expected an integer", tok.pos)
        return -int(tok.text) if neg else int(tok.text)

    def number_literal(self) -> Fraction:
        """Decimal or p/q rational, parsed exactly."""
        neg = False
        if self.peek().text == "-":
            self.next()
            neg = True
        tok = self.next()
        if tok.kind != "number":
            raise ExpressionError("expected a number", tok.pos)
        value = Fraction(tok.text)
        if self.peek().text == "/" and self.tokens[self.i + 1].kind == "number":
            self.next()
            den = self.next()
            value /= Fraction(den.text)
        return -value if neg else value

    def int_list(self, fname: str) -> tuple[int, ...]:
        self.expect("(")
        if self.peek().text == ")":
            tok = self.next()
            raise ExpressionError(f"{fname} requires at least one argument", tok.pos)
        args = [self.signed_int()]
        while self.peek().text == ",":
            self.next()
            args.append(self.signed_int())
        self.expect(")")
        return tuple(args)

    def atom(self, allow_lindep=False) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            self.descend(tok)
            e = Neg(self.atom(False))
            self.depth -= 1
            return e
        if tok.kind == "op" and tok.text == "(":
            self.next()
            self.descend(tok)
            e = self.expr(False)
            self.expect(")")
            self.depth -= 1
            return e
        if tok.kind == "number":
            self.next()
            return Num(Fraction(tok.text))
        if tok.kind == "name":
            self.next()
            if tok.text == "Pi":
                return PiConst()
            if tok.text == "log":
                self.descend(tok)
                self.expect("(")
                e = self.expr(False)
                self.expect(")")
                self.depth -= 1
                return Log(e)
            if tok.text == "z":
                return ZCall(self.int_list("z"))
            if tok.text == "zp":
                self.expect("(")
                p = self.number_literal()
                args = []
                while self.peek().text == ",":
                    self.next()
                    args.append(self.signed_int())
                self.expect(")")
                if not args:
                    raise ExpressionError("zp requires exponent arguments", tok.pos)
                return ZpCall(p, tuple(args))
            if tok.text == "lindep":
                if not allow_lindep:
                    raise ExpressionError(
                        "lindep cannot be nested inside another expression", tok.pos
                    )
                self.expect("(")
                self.expect("[")
                items = [self.expr(False)]
                while self.peek().text == ",":
                    self.next()
                    items.append(self.expr(False))
                self.expect("]")
                self.expect(")")
                return LindepCall(tuple(items))
            raise ExpressionError(f"unknown name {tok.text!r}", tok.pos)
        raise ExpressionError(
            f"unexpected token {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
            tok.pos,
        )


def parse_expression(src: str) -> Expr:
    return _Parser(src).parse()


# ---------------------------------------------------------------------------
# Pretty printer (normal form; parse . pretty is the identity)
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def pretty(e: Expr, parent_prec: int = 0, right_side: bool = False) -> str:
    if isinstance(e, Num):
        return str(e.value) if e.value.denominator == 1 else f"{e.value.numerator}/{e.value.denominator}"
    if isinstance(e, PiConst):
        return "Pi"
    if isinstance(e, Log):
        return f"log({pretty(e.arg)})"
    if isinstance(e, Neg):
        inner = pretty(e.arg, 3)
        text = f"-{inner}"
        # grammar puts unary minus inside the power base, so a negation
        # under '^' needs parentheses
        return f"({text})" if parent_prec >= 4 else text
    if isinstance(e, Pow):
        base = pretty(e.base, 4)
        text = f"{base}^{e.exponent}"
        return f"({text})" if parent_prec >= 3 else text
    if isinstance(e, ZCall):
        return "z(" + ",".join(str(a) for a in e.args) + ")"
    if isinstance(e, ZpCall):
        p = str(e.p) if e.p.denominator == 1 else f"{e.p.numerator}/{e.p.denominator}"
        return f"zp({p}," + ",".join(str(a) for a in e.args) + ")"
    if isinstance(e, LindepCall):
        return "lindep([" + ", ".join(pretty(x) for x in e.items) + "])"
    if isinstance(e, BinOp):
        prec = _PREC[e.op]
        left = pretty(e.left, prec, False)
        right = pretty(e.right, prec, True)
        text = f"{left} {e.op} {right}"
        if prec < parent_prec or (prec == parent_prec and right_side):
            return f"({text})"
        return text
    raise TypeError(type(e))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _as_number(v, what: str) -> BigReal:
    if isinstance(v, RelationResult):
        raise ExpressionError(f"relation results cannot be used {what}")
    return v


def eval_expression(e: Expr, prec: Precision):
    """Evaluate to a BigReal, or a RelationResult for a lindep call."""
    if isinstance(e, Num):
        return BigReal(e.value, prec)
    if isinstance(e, PiConst):
        return pi(prec)
    if isinstance(e, Log):
        arg = _as_number(eval_expression(e.arg, prec), "inside log")
        return ln(arg, prec)
    if isinstance(e, Neg):
        return -_as_number(eval_expression(e.arg, prec), "under negation")
    if isinstance(e, Pow):
        base = _as_number(eval_expression(e.base, prec), "as a power base")
        if e.exponent < 0:
            _check_not_tiny(base, prec, "power base")
        return pow_int(base, e.exponent, prec)
    if isinstance(e, BinOp):
        left = _as_number(eval_expression(e.left, prec), "in arithmetic")
        right = _as_number(eval_expression(e.right, prec), "in arithmetic")
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
        values = [
            _as_number(eval_expression(item, prec), "inside lindep")
            for item in e.items
        ]
        return lindep(values)
    raise TypeError(type(e))


def _check_not_tiny(v: BigReal, prec: Precision, what: str) -> None:
    if abs(v) < Fraction(1, 10 ** (prec.digits - 5)):
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


def _resolve_digits(value) -> int:
    digits = int(value)
    if not MIN_DIGITS <= digits <= MAX_DIGITS:
        raise ValueError(f"digits must be in {MIN_DIGITS}..{MAX_DIGITS}, got {digits}")
    return digits


def _default_digits() -> int:
    env = os.environ.get(DIGITS_ENV)
    return int(env) if env else DEFAULT_DIGITS


def _cmd_eval(args) -> int:
    digits = _resolve_digits(args.digits)
    prec = Precision(digits)
    result = eval_expression(parse_expression(args.expression), prec)
    print(format_result(result, digits, args.ezface_format))
    return 0


def _cmd_repl(args) -> int:
    digits = _resolve_digits(args.digits)
    print(
        f"expression calculator, {digits} digits; :digits N, :quit to exit",
        file=sys.stderr,
    )
    while True:
        print("> ", end="", file=sys.stderr, flush=True)
        line = sys.stdin.readline()
        if not line:
            return 0
        line = line.strip()
        if not line:
            continue
        if line in (":quit", ":q"):
            return 0
        if line.startswith(":digits"):
            try:
                digits = _resolve_digits(line.split()[1])
                print(f"precision set to {digits} digits", file=sys.stderr)
            except (IndexError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
            continue
        try:
            result = eval_expression(parse_expression(line), Precision(digits))
            print(format_result(result, digits, args.ezface_format), flush=True)
        except (PolyzetaError, ValueError, ZeroDivisionError) as exc:
            print(f"error: {exc}", file=sys.stderr)


def _cmd_identities(args) -> int:
    if args.action != "export":
        raise ValueError(f"unknown identities action {args.action!r}")
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

    ok = run_criteria(level=args.level, out=sys.stdout)
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyzeta",
        description="arbitrary-precision calculator for multiple polylogarithms,"
        " zeta values and Euler sums",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one expression")
    p_eval.add_argument("expression")
    p_eval.add_argument("--digits", default=_default_digits())
    p_eval.add_argument("--ezface-format", action="store_true")
    p_eval.set_defaults(fn=_cmd_eval)

    p_repl = sub.add_parser("repl", help="interactive per-line evaluation")
    p_repl.add_argument("--digits", default=_default_digits())
    p_repl.add_argument("--ezface-format", action="store_true")
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

    return parser


def run(argv) -> int:
    try:
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 1
        return args.fn(args)
    except (PolyzetaError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
