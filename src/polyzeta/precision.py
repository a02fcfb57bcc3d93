"""Arbitrary-precision real arithmetic bound to explicit precisions.

Values are immutable `BigReal` instances carrying the `Precision` they were
computed under.  A value stores mpmath's raw binary float, the ``_mpf_``
tuple (sign, mantissa, exponent, bitcount), rounded to nearest at the
binary precision of ``digits + guard`` working decimal digits.  Every
operation is one call of a function of `mpmath.libmp`, which takes its
precision and rounding mode as arguments, so each result is rounded once at
that precision; these are the calls mpmath's own ``mpf`` methods make, so
the bits are those of mpmath's arithmetic at that precision.  ``str()``
truncates to ``digits`` significant digits and `to_decimal_string` rounds
to nearest.  No mpmath context is made and mpmath's global precision is
never read or written, so no value depends on it and threads may compute
at different precisions at once.  This is the one module that imports
mpmath, and it imports only `mpmath.libmp`.

`pi` and `ln` are `libmp` calls too.  The constants zeta(r) and Li_r(1/2)
of the closed forms in `polyzeta.identities` are kernel values,
``evaluate_lambda(zeta_spec(r), prec)`` and
``evaluate_lambda(delta_spec(r), prec)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from mpmath import libmp

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


_DPS_BITS: dict[int, int] = {}  # working dps -> libmp.dps_to_prec(dps)


def _bits(prec: Precision) -> int:
    """The binary precision of prec's working digits, as mpmath's dps
    setting makes it; computed once per working dps."""
    dps = prec.working_dps
    bits = _DPS_BITS.get(dps)
    if bits is None:
        bits = _DPS_BITS[dps] = libmp.dps_to_prec(dps)
    return bits


def _to_mpf(value, bits: int) -> tuple:
    """value rounded to nearest at bits binary digits, as a raw mpf tuple.

    value must be exact: an int, a Fraction or a (mantissa, binary
    exponent) pair of ints.  A float or a str would bring its own binary or
    decimal rounding into the value.
    A Fraction p/q rounds p first and then the quotient, as mpmath's
    ``mpf(p) / q`` does.
    """
    rnd = libmp.round_nearest
    if isinstance(value, Fraction):
        p = libmp.from_int(value.numerator, bits, rnd)
        return libmp.mpf_div(p, libmp.from_int(value.denominator), bits, rnd)
    if isinstance(value, int):
        return libmp.from_int(value, bits, rnd)
    if type(value) is tuple and len(value) == 2 and all(isinstance(x, int) for x in value):
        return libmp.from_man_exp(value[0], value[1], bits, rnd)
    raise TypeError(
        "expected an int, a Fraction or a (mantissa, exponent) pair of ints,"
        f" got {type(value).__name__}"
    )


def _operator(fn, arithmetic: bool = True):
    """A BigReal method applying the libmp function fn to both operands'
    floats.  An arithmetic fn rounds to nearest at the operands' precision
    and its result is bound to it; a comparison returns fn's bool."""

    def method(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not arithmetic:
            return fn(self._v, o)
        return _bound(fn(self._v, o, _bits(self.prec), libmp.round_nearest), self.prec)

    return method


class BigReal:
    """Immutable arbitrary-precision real bound to a Precision.

    The value may be an int, a Fraction or a (mantissa, binary exponent)
    pair of ints, and nothing inexact (a float, a str, an mpmath float); it
    is rounded once to the working precision.  No operation makes inf or nan:
    division by zero raises, 0 has no negative power and `ln` takes only
    positive values.
    Binary operations require both operands to share the same Precision;
    mixing with int/Fraction is allowed (exact values have no precision of
    their own).
    """

    __slots__ = ("_v", "prec")

    def __new__(cls, value, prec: Precision):
        return _bound(_to_mpf(value, _bits(prec)), prec)

    def __setattr__(self, name, value):
        raise AttributeError("BigReal is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild the value from its raw float,
        # which is a plain tuple of ints, without rounding it again
        return _bound, (self._v, self.prec)

    def to_fraction(self) -> Fraction:
        """Exact value of the backing dyadic float."""
        sign, man, exp, _ = self._v
        f = Fraction(int(man)) * Fraction(2) ** exp
        return -f if sign else f

    def _coerce(self, other) -> tuple:
        if isinstance(other, BigReal):
            if other.prec != self.prec:
                raise PrecisionMismatch(
                    f"operands bound to different precisions: {self.prec} vs {other.prec}"
                )
            return other._v
        if isinstance(other, (int, Fraction)):
            return _to_mpf(other, _bits(self.prec))
        return NotImplemented

    __add__ = __radd__ = _operator(libmp.mpf_add)
    __sub__ = _operator(libmp.mpf_sub)
    __rsub__ = _operator(lambda a, b, bits, rnd: libmp.mpf_sub(b, a, bits, rnd))
    __mul__ = __rmul__ = _operator(libmp.mpf_mul)
    __truediv__ = _operator(libmp.mpf_div)
    __rtruediv__ = _operator(lambda a, b, bits, rnd: libmp.mpf_div(b, a, bits, rnd))
    __lt__ = _operator(libmp.mpf_lt, arithmetic=False)
    __le__ = _operator(libmp.mpf_le, arithmetic=False)
    __gt__ = _operator(libmp.mpf_gt, arithmetic=False)
    __ge__ = _operator(libmp.mpf_ge, arithmetic=False)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # exact, not rounded to this precision, so that equal values
            # hash alike
            return self.to_fraction() == other
        o = self._coerce(other)
        return o if o is NotImplemented else libmp.mpf_eq(self._v, o)

    def __pow__(self, n):
        """x**n for an int n, by binary powering at working precision."""
        if not isinstance(n, int):
            return NotImplemented
        if n < 0 and not self:
            raise DomainError("0 cannot be raised to a negative power")
        v = libmp.mpf_pow_int(self._v, n, _bits(self.prec), libmp.round_nearest)
        return _bound(v, self.prec)

    def __neg__(self):
        return _bound(libmp.mpf_neg(self._v, _bits(self.prec), libmp.round_nearest), self.prec)

    def __abs__(self):
        return _bound(libmp.mpf_abs(self._v, _bits(self.prec), libmp.round_nearest), self.prec)

    def __hash__(self):
        # equal to the hash of an equal int or Fraction
        return libmp.mpf_hash(self._v)

    def __float__(self):
        return libmp.to_float(self._v, rnd=libmp.round_nearest)

    def __bool__(self):
        return self._v != libmp.fzero

    def __str__(self):
        return _render(self._v, self.prec.digits, rounded=False)

    def __repr__(self):
        return f"BigReal({self}, digits={self.prec.digits})"


def _bound(v: tuple, prec: Precision) -> BigReal:
    """The BigReal of the raw float v, already rounded at prec's bits."""
    x = object.__new__(BigReal)
    object.__setattr__(x, "prec", prec)
    object.__setattr__(x, "_v", v)
    return x


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


def _render(value: tuple, d: int, rounded: bool) -> str:
    if value == libmp.fzero:
        return "0." + "0" * (d - 1)
    # to_digits_exp yields d1.d2d3... x 10^exp, with at least d + 10 digits,
    # so there is always a digit to round from and none to pad
    sign, digits, exp = libmp.to_digits_exp(value, d + 10)
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
    return _bound(libmp.mpf_pi(_bits(prec), libmp.round_nearest), prec)


def ln(x, prec: Precision) -> BigReal:
    """Natural logarithm of a positive BigReal or exact value (as BigReal
    takes it)."""
    if isinstance(x, BigReal):
        if x.prec != prec:
            raise PrecisionMismatch("ln argument bound to a different precision")
        v = x._v
    else:
        v = _to_mpf(x, _bits(prec))
    if libmp.mpf_le(v, libmp.fzero):
        raise DomainError(f"ln requires a positive argument, got {libmp.to_str(v, 15)}")
    return _bound(libmp.mpf_log(v, _bits(prec), libmp.round_nearest), prec)
