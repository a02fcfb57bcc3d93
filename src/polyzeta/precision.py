"""Arbitrary-precision real arithmetic bound to explicit precision contexts.

Values are immutable `BigReal` instances carrying the `Precision` they were
computed under.  A value lives in a private mpmath context (`_context`)
whose precision, ``digits + guard`` working decimal digits, is set once when
the context is made and never written again.  Every operation rounds its
result to nearest at that precision; ``str()`` truncates to ``digits``
significant digits and `to_decimal_string` rounds to nearest.  Nothing here
reads or writes mpmath's global precision, so no value depends on it and
threads may compute at different precisions at once.  The number backend is
mpmath's binary floats (MPF: an integer mantissa and a binary exponent), and
this is the one module that imports mpmath.

`pi` and `ln` run on the shared `_context`.  The special functions `zeta`
and `polylog_half`, the constants of the closed forms in
`polyzeta.identities`, each run on a new context of their own and are
memoized per (r, prec).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
from mpmath.libmp import to_digits_exp

from .errors import DomainError, PrecisionMismatch

MIN_DIGITS = 10
MAX_DIGITS = 1000
MIN_GUARD = 20


@dataclass(frozen=True)
class Precision:
    """Requested significant digits plus extra working guard digits."""

    digits: int
    guard: int = MIN_GUARD

    def __post_init__(self):
        for field in ("digits", "guard"):
            value = getattr(self, field)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{field} must be an int, got {value!r}")
        if not MIN_DIGITS <= self.digits <= MAX_DIGITS:
            raise ValueError(f"digits must be in {MIN_DIGITS}..{MAX_DIGITS}, got {self.digits}")
        if self.guard < MIN_GUARD:
            raise ValueError(f"guard must be >= {MIN_GUARD}, got {self.guard}")

    @property
    def working_dps(self) -> int:
        return self.digits + self.guard


def _new_context(dps: int) -> mp.MPContext:
    """A new private mpmath context at dps decimal digits."""
    ctx = mp.MPContext()
    ctx.dps = dps
    return ctx


@lru_cache(maxsize=64)
def _context(dps: int) -> mp.MPContext:
    """The private context at dps decimal digits, shared by every value and
    loop at that precision.  Its precision is set once, so only mpmath code
    that never changes it (arithmetic, ln, pi) may run on it.  mpmath's zeta
    and polylog raise and then restore the precision of the context they run
    on, which here would change the rounding of another thread's values
    meanwhile; they run on a `_new_context` each."""
    return _new_context(dps)


def _to_mpf(value, ctx: mp.MPContext):
    """value rounded to ctx's precision, as one of ctx's floats.

    value must be exact: an int, a Fraction, a (mantissa, binary exponent)
    pair of ints or a finite mpf.  A float or a str would bring its own
    binary or decimal rounding into the value, and inf or nan is no number.
    """
    if type(value) is ctx.mpf:  # made by ctx's arithmetic, so already rounded
        return value
    if isinstance(value, Fraction):
        return ctx.mpf(value.numerator) / value.denominator
    if isinstance(value, int) or (
        type(value) is tuple and len(value) == 2 and all(isinstance(x, int) for x in value)
    ):
        return ctx.mpf(value)
    if isinstance(value, mp.ctx_mp_python._mpf):  # the mpf of any context
        if not ctx.isfinite(value):
            raise ValueError(f"not a finite value: {value}")
        return ctx.mpf(value)
    raise TypeError(
        "expected an int, a Fraction, a (mantissa, exponent) pair of ints"
        f" or an mpf, got {type(value).__name__}"
    )


def _operator(fn, arithmetic: bool = True):
    """A BigReal method applying fn to both operands' floats; an arithmetic
    result is bound to the operands' Precision."""

    def method(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        v = fn(self._v, o)
        return BigReal(v, self.prec) if arithmetic else v

    return method


class BigReal:
    """Immutable arbitrary-precision real bound to a Precision.

    The value may be an int, a Fraction, a finite mpf or a (mantissa, binary
    exponent) pair of ints, and nothing inexact (a float, a str); it is
    rounded once to the working precision.  No operation makes inf or nan:
    division by zero raises, 0 has no negative power and `ln` takes only
    positive values.
    Binary operations require both operands to share the same Precision;
    mixing with int/Fraction is allowed (exact values have no precision of
    their own).
    """

    __slots__ = ("_v", "prec")

    def __init__(self, value, prec: Precision):
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "_v", _to_mpf(value, _context(prec.working_dps)))

    def __setattr__(self, name, value):
        raise AttributeError("BigReal is immutable")

    @property
    def mpf(self) -> mp.mpf:
        """The backing float (an exact dyadic rational) as a plain mpmath mpf,
        not rounded again."""
        return mp.make_mpf(self._v._mpf_)

    def to_fraction(self) -> Fraction:
        """Exact value of the backing dyadic float."""
        sign, man, exp, _ = self._v._mpf_
        f = Fraction(int(man)) * Fraction(2) ** exp
        return -f if sign else f

    def _coerce(self, other) -> mp.mpf:
        if isinstance(other, BigReal):
            if other.prec != self.prec:
                raise PrecisionMismatch(
                    f"operands bound to different precisions: {self.prec} vs {other.prec}"
                )
            return other._v
        if isinstance(other, (int, Fraction)):
            return _to_mpf(other, self._v.context)
        return NotImplemented

    __add__ = __radd__ = _operator(operator.add)
    __sub__ = _operator(operator.sub)
    __rsub__ = _operator(lambda a, b: b - a)
    __mul__ = __rmul__ = _operator(operator.mul)
    __truediv__ = _operator(operator.truediv)
    __rtruediv__ = _operator(lambda a, b: b / a)
    __lt__ = _operator(operator.lt, arithmetic=False)
    __le__ = _operator(operator.le, arithmetic=False)
    __gt__ = _operator(operator.gt, arithmetic=False)
    __ge__ = _operator(operator.ge, arithmetic=False)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # exact, not rounded to this precision, so that equal values
            # hash alike
            return self.to_fraction() == other
        o = self._coerce(other)
        return o if o is NotImplemented else self._v == o

    def __pow__(self, n):
        """x**n for an int n, by binary powering at working precision."""
        if not isinstance(n, int):
            return NotImplemented
        if n < 0 and self._v == 0:
            raise DomainError("0 cannot be raised to a negative power")
        return BigReal(self._v ** n, self.prec)

    def __neg__(self):
        return BigReal(-self._v, self.prec)

    def __abs__(self):
        return BigReal(abs(self._v), self.prec)

    def __hash__(self):
        # equal to the hash of an equal int or Fraction
        return hash(self._v)

    def __float__(self):
        return float(self._v)

    def __bool__(self):
        return self._v != 0

    def __str__(self):
        return _render(self._v, self.prec.digits, rounded=False)

    def __repr__(self):
        return f"BigReal({self}, digits={self.prec.digits})"


def _round_digit_string(digits: str, d: int) -> tuple[str, int]:
    """Round a decimal digit string of more than d digits to d digits, half
    away from zero.

    Returns (digits, exponent_carry) where exponent_carry is 1 when the
    rounding overflowed (e.g. 999.7 -> 1000).
    """
    head, next_digit = digits[:d], digits[d]
    if next_digit < "5":
        return head, 0
    rounded = str(int(head) + 1)
    if len(rounded) > d:
        return rounded[:d], 1
    return rounded.rjust(d, "0"), 0


def _render(value: mp.mpf, d: int, rounded: bool) -> str:
    if value == 0:
        return "0." + "0" * (d - 1)
    # to_digits_exp yields d1.d2d3... x 10^exp, with at least d + 10 digits,
    # so there is always a digit to round from and none to pad
    sign, digits, exp = to_digits_exp(value._mpf_, d + 10)
    if rounded:
        digits, carry = _round_digit_string(digits, d)
        exp += carry
    else:
        digits = digits[:d]
    point = exp + 1  # digits before the decimal point
    if 1 <= point <= d:
        body = digits[:point] + "." + digits[point:]
    elif -5 <= point <= 0:
        body = "0." + "0" * (-point) + digits
    else:
        body = digits[0] + "." + digits[1:] + f"e{exp:+d}"
    return sign + body


def to_decimal_string(x: BigReal, d: int) -> str:
    """Round-to-nearest decimal rendering with d significant digits."""
    if not 1 <= d <= x.prec.digits:
        raise ValueError(f"significant digits must be in 1..{x.prec.digits}, got {d}")
    return _render(x._v, d, rounded=True)


def pi(prec: Precision) -> BigReal:
    return BigReal(+_context(prec.working_dps).pi, prec)


def ln(x, prec: Precision) -> BigReal:
    """Natural logarithm of a positive BigReal or exact value (as BigReal
    takes it)."""
    ctx = _context(prec.working_dps)
    if isinstance(x, BigReal):
        if x.prec != prec:
            raise PrecisionMismatch("ln argument bound to a different precision")
        v = x._v
    else:
        v = _to_mpf(x, ctx)
    if v <= 0:
        raise DomainError(f"ln requires a positive argument, got {mp.nstr(v, 15)}")
    return BigReal(ctx.ln(v), prec)


@lru_cache(maxsize=256)
def zeta(r: int, prec: Precision) -> BigReal:
    """Riemann zeta(r) for an int r >= 2."""
    if r < 2:
        raise DomainError(f"zeta(r) needs r >= 2, got {r}")
    return BigReal(_new_context(prec.working_dps).zeta(r), prec)


@lru_cache(maxsize=256)
def polylog_half(r: int, prec: Precision) -> BigReal:
    """Li_r(1/2) = sum_n 2^-n n^-r for an int r >= 1."""
    if r < 1:
        raise DomainError(f"Li_r(1/2) needs r >= 1, got {r}")
    ctx = _new_context(prec.working_dps)
    return BigReal(ctx.polylog(r, ctx.mpf(1) / 2), prec)
