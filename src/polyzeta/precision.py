"""Arbitrary-precision real arithmetic bound to explicit precision contexts.

Values are immutable `BigReal` instances carrying the `Precision` they were
computed under.  All arithmetic runs at ``digits + guard`` working decimal
digits; rounding to nearest happens only when rendering.  The number backend
is mpmath (MPF floats on top of gmpy2 integers where available).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
        if not MIN_DIGITS <= self.digits <= MAX_DIGITS:
            raise ValueError(f"digits must be in {MIN_DIGITS}..{MAX_DIGITS}, got {self.digits}")
        if self.guard < MIN_GUARD:
            raise ValueError(f"guard must be >= {MIN_GUARD}, got {self.guard}")

    @property
    def working_dps(self) -> int:
        return self.digits + self.guard


def _to_mpf(value, dps: int) -> mp.mpf:
    with mp.workdps(dps):
        if isinstance(value, Fraction):
            return mp.mpf(value.numerator) / value.denominator
        return mp.mpf(value)


class BigReal:
    """Immutable arbitrary-precision real bound to a Precision.

    The value may be an int, a Fraction, an mpf or a (mantissa, binary
    exponent) pair of ints; it is rounded once to the working precision.
    Binary operations require both operands to share the same Precision;
    mixing with int/Fraction is allowed (exact values have no precision of
    their own).
    """

    __slots__ = ("_v", "prec")

    def __init__(self, value, prec: Precision):
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "_v", _to_mpf(value, prec.working_dps))

    def __setattr__(self, name, value):
        raise AttributeError("BigReal is immutable")

    @property
    def mpf(self) -> mp.mpf:
        """The raw backing float (exact dyadic rational)."""
        return self._v

    def to_fraction(self) -> Fraction:
        """Exact value of the backing dyadic float."""
        sign, man, exp, _ = self._v._mpf_
        if man == 0 and exp != 0:
            raise ValueError("not a finite value")
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
            return _to_mpf(Fraction(other), self.prec.working_dps)
        return NotImplemented

    def _binop(self, other, fn) -> "BigReal":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        with mp.workdps(self.prec.working_dps):
            return BigReal(fn(self._v, o), self.prec)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binop(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._binop(other, lambda a, b: b / a)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return pow_int(self, n, self.prec)

    def __neg__(self):
        with mp.workdps(self.prec.working_dps):
            return BigReal(-self._v, self.prec)

    def __abs__(self):
        with mp.workdps(self.prec.working_dps):
            return BigReal(abs(self._v), self.prec)

    def _cmp_value(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o

    def __eq__(self, other):
        o = self._cmp_value(other)
        return NotImplemented if o is NotImplemented else self._v == o

    def __lt__(self, other):
        o = self._cmp_value(other)
        return NotImplemented if o is NotImplemented else self._v < o

    def __le__(self, other):
        o = self._cmp_value(other)
        return NotImplemented if o is NotImplemented else self._v <= o

    def __gt__(self, other):
        o = self._cmp_value(other)
        return NotImplemented if o is NotImplemented else self._v > o

    def __ge__(self, other):
        o = self._cmp_value(other)
        return NotImplemented if o is NotImplemented else self._v >= o

    def __hash__(self):
        return hash((self._v, self.prec))

    def __float__(self):
        return float(self._v)

    def __bool__(self):
        return self._v != 0

    def __str__(self):
        return _render(self._v, self.prec.digits, rounded=False)

    def __repr__(self):
        return f"BigReal({self}, digits={self.prec.digits})"


def _round_digit_string(digits: str, d: int) -> tuple[str, int]:
    """Round a decimal digit string to d digits, half away from zero.

    Returns (digits, exponent_carry) where exponent_carry is 1 when the
    rounding overflowed (e.g. 999.7 -> 1000).
    """
    if len(digits) <= d:
        return digits + "0" * (d - len(digits)), 0
    head, next_digit = digits[:d], digits[d]
    if next_digit < "5":
        return head, 0
    rounded = str(int(head) + 1)
    if len(rounded) > d:
        return rounded[:d], 1
    return rounded.rjust(d, "0"), 0


def _render(value: mp.mpf, d: int, rounded: bool) -> str:
    if mp.isnan(value) or mp.isinf(value):
        return str(value)
    if value == 0:
        return "0." + "0" * (d - 1)
    sign, digits, exp = to_digits_exp(value._mpf_, d + 10)
    # to_digits_exp yields d1.d2d3... x 10^exp; switch to integer exponent of
    # the first digit
    if rounded:
        digits, carry = _round_digit_string(digits, d)
        exp += carry
    else:
        digits = (digits + "0" * d)[:d]
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
    return _render(x.mpf, d, rounded=True)


def pi(prec: Precision) -> BigReal:
    with mp.workdps(prec.working_dps):
        return BigReal(+mp.pi, prec)


def ln(x, prec: Precision) -> BigReal:
    """Natural logarithm of a positive BigReal, int or Fraction."""
    if isinstance(x, BigReal):
        if x.prec != prec:
            raise PrecisionMismatch("ln argument bound to a different precision")
        v = x.mpf
    else:
        v = _to_mpf(Fraction(x), prec.working_dps)
    if v <= 0:
        raise DomainError(f"ln requires a positive argument, got {v}")
    with mp.workdps(prec.working_dps):
        return BigReal(mp.ln(v), prec)


def pow_int(x: BigReal, n: int, prec: Precision) -> BigReal:
    """x**n by binary powering at working precision."""
    if x.prec != prec:
        raise PrecisionMismatch("pow_int argument bound to a different precision")
    if n < 0 and x.mpf == 0:
        raise DomainError("0 cannot be raised to a negative power")
    with mp.workdps(prec.working_dps):
        return BigReal(x.mpf ** n, prec)
