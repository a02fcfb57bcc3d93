"""Arbitrary-precision real arithmetic bound to explicit precisions.

Values are immutable `BigReal` instances carrying the `Precision` they were
computed under.  A value stores a binary float as the pair (mantissa,
exponent) of Python ints, the value being mantissa * 2^exponent: the
mantissa is signed and odd, and zero is (0, 0).  The summation kernel hands
its fixed-point sums over in the same (mantissa, exponent) form.  Addition,
subtraction, multiplication and division round their exact result once, to
nearest with ties to even, at the binary precision of ``digits + guard``
working decimal digits (Brent and Zimmermann, "Modern Computer Arithmetic",
2010).  A power of over 1000 bits is taken with guard bits on its partial
products, and ``x ** -n`` is the reciprocal of ``x ** n`` at 5 more bits, so
it rounds twice (`_pow_int`): a power is within one unit in the last place of
the correctly rounded value.  The functions below take
the rounding steps of mpmath 1.3's `libmp`, so a value has the bits mpmath's
own arithmetic gives at that precision; the tests check this, operation by
operation, against `libmp` as an oracle.  One step departs from libmp's
steps but not from its bits: `_add` returns the larger operand when the
other lies wholly below its rounding position, where libmp perturbs it.
The package itself imports no mpmath.  No precision is global, so no value
depends on state outside its arguments and threads may compute at
different precisions at once.

`linear_combination` is the package's one weighted sum of products of
values: it skips the operations whose result is exactly an operand, so it
keeps every bit of the plain sum.  It multiplies and adds the values' raw
floats in one loop and binds one value at the end.  Given a value
function, it reads each factor through it, ``value(f, prec)``, as the
loop reaches it, so a caller that keeps (coefficient, arguments) pairs,
as a formal sum keeps (coefficient, specs) for `evaluate_lambda`, hands
them over with no per-term container.  A binary operator whose operand
is a BigReal of the same Precision reads its bits from a table keyed by
the Precision and binds its result in place, so each operation runs one
frame of its own past the raw-float arithmetic.

``str()`` truncates to ``digits`` significant digits and
`to_decimal_string` rounds to nearest.  `pi` sums Machin's arctangent
formula and `ln` an atanh series, in fixed point; one Ziv loop, `_floor`,
decides every floor, doubling the guard bits until the series' derived
error bound fixes it.  The floors of pi, ln 2 and ln 10 are kept at the
highest precision asked for so far.  The constants zeta(r) and Li_r(1/2) of
the closed forms in `polyzeta.identities` are kernel values,
``evaluate_lambda(zeta_spec(r), prec)`` and
``evaluate_lambda(delta_spec(r), prec)``.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from fractions import Fraction

from .errors import DomainError, PrecisionMismatch

MIN_DIGITS = 10
MAX_DIGITS = 1000
MIN_GUARD = 20


class Precision(namedtuple("Precision", "digits guard")):
    """Requested significant digits plus extra working guard digits."""

    __slots__ = ()

    def __new__(cls, digits: int, guard: int = MIN_GUARD):
        for field, value in (("digits", digits), ("guard", guard)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{field} must be an int, got {value!r}")
        if not MIN_DIGITS <= digits <= MAX_DIGITS:
            raise ValueError(f"digits must be in {MIN_DIGITS}..{MAX_DIGITS}, got {digits}")
        if guard < MIN_GUARD:
            raise ValueError(f"guard must be >= {MIN_GUARD}, got {guard}")
        return super().__new__(cls, digits, guard)

    # _replace builds through _make, which would skip the checks above
    _make = classmethod(lambda cls, values: cls(*values))

    @property
    def working_dps(self) -> int:
        return self.digits + self.guard


class _BitsTable(dict):
    """Precision -> the binary precision of its working digits, as mpmath's
    dps setting makes it: computed on a Precision's first use, after which
    ``_BITS[prec]`` is one dict lookup, with no ``working_dps`` call."""

    __slots__ = ()

    def __missing__(self, prec) -> int:
        bits = self[prec] = max(1, int(round((prec.working_dps + 1) * 3.3219280948873626)))
        return bits


_BITS = _BitsTable()
_bits = _BITS.__getitem__


# ---------------------------------------------------------------------------
# Raw binary floats: (signed odd mantissa, exponent)
# ---------------------------------------------------------------------------

_ZERO = (0, 0)
_ONE = (1, 0)
_TEN = (5, 1)
# Rounding modes: to nearest with ties to even, and down (floor) or up
# (ceiling), which only the rendering of huge exponents uses, on positive
# values, where they truncate or raise the magnitude.
_NEAREST, _DOWN, _UP = "n", "d", "u"
_RECIPROCAL = {_NEAREST: _NEAREST, _DOWN: _UP, _UP: _DOWN}


def _round(man: int, exp: int, bits: int, rnd: str = _NEAREST) -> tuple:
    """The raw float man * 2^exp rounded to bits binary digits in the mode
    rnd; bits = 0 keeps every digit.  The shifts floor, and rounding to
    nearest with ties to even is the same on either side of zero, so one
    path serves both signs."""
    if not man:
        return _ZERO
    n = man.bit_length() - bits
    if bits and n > 0:
        if rnd == _NEAREST:
            t = man >> (n - 1)
            if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
                man = (t >> 1) + 1
            else:
                man = t >> 1
        elif rnd == _DOWN:
            man >>= n
        else:
            man = -((-man) >> n)
        exp += n
    elif man & 1:
        return (man, exp)
    zeros = (man & -man).bit_length() - 1
    return (man >> zeros, exp + zeros)


def _add(s: tuple, t: tuple, bits: int) -> tuple:
    """s + t rounded to nearest at bits, for s and t rounded at bits."""
    sman, sexp = s
    tman, texp = t
    if not (sman and tman):
        # one of them is zero, (0, 0), so the sum is the other
        return _round(sman + tman, sexp + texp, bits)
    if sexp < texp:
        (sman, sexp), (tman, texp) = t, s
    offset = sexp - texp
    if offset > 100 and sman.bit_length() + sexp - tman.bit_length() - texp > bits + 4:
        # t lies wholly below s's rounding position: |t| is under 2^-5 of
        # s's last kept bit, so under half the gap to either neighbour of
        # s (even at a power of two), and s is the sum rounded to nearest
        return (sman, sexp)
    return _round((sman << offset) + tman, texp, bits)


def _mul(s: tuple, t: tuple, bits: int) -> tuple:
    return _round(s[0] * t[0], s[1] + t[1], bits)


def _div(s: tuple, t: tuple, bits: int, rnd: str = _NEAREST) -> tuple:
    """s / t: the floored quotient to bits + 5 bits past s's, a sticky unit
    for a remainder, then one rounding.  The exact quotient lies strictly
    between the floor and the floor plus one, as the sticky unit does, and
    no rounding boundary at bits does, so both round alike."""
    sman, sexp = s
    tman, texp = t
    if not tman:
        raise ZeroDivisionError("division by zero")
    extra = max(bits - sman.bit_length() + tman.bit_length() + 5, 5)
    quot, rem = divmod(sman << extra, tman)
    if rem:
        quot = (quot << 1) + 1
        extra += 1
    return _round(quot, sexp - texp - extra, bits, rnd)


def _pow_int(s: tuple, n: int, bits: int, rnd: str = _NEAREST) -> tuple:
    """s**n: exact and rounded once for n <= 2 or when the mantissa's power
    is under 1000 bits, else binary powering of the magnitude with the
    partial products cut to 4*bitlength(n) + 4 guard bits; a negative n
    inverts the power taken at bits + 5."""
    man, exp = s
    if n < 0:
        inverse = s if n == -1 else _pow_int(s, -n, bits + 5, _RECIPROCAL[rnd])
        return _div(_ONE, inverse, bits, rnd)
    if n <= 2 or man.bit_length() * n < 1000:
        return _round(man ** n, exp * n, bits, rnd)
    negative = man < 0 and n & 1
    man = abs(man)
    truncate = rnd != _UP
    work_bits = bits + 4 * n.bit_length() + 4
    pm, pe = 1, 0
    while True:
        if n & 1:
            pm *= man
            pe += exp
            cut = pm.bit_length() - work_bits
            if cut > 0:
                pm = pm >> cut if truncate else -((-pm) >> cut)
                pe += cut
            n -= 1
            if not n:
                break
        man *= man
        exp += exp
        cut = man.bit_length() - work_bits
        if cut > 0:
            man = man >> cut if truncate else -((-man) >> cut)
            exp += cut
        n //= 2
    return _round(-pm if negative else pm, pe, bits, rnd)


def _cmp(s: tuple, t: tuple, d: int = 1) -> int:
    """-1, 0 or 1 as the raw float s is <, = or > the raw float t over the
    positive int d, exactly.  Signs, then bit lengths decide, unless the
    magnitudes are within a factor of 4; only then are the ints multiplied
    out, at sizes the operands bound, so a huge exponent never builds a
    huge int."""
    man, exp = s
    p, e = t
    sign, other = (man > 0) - (man < 0), (p > 0) - (p < 0)
    if sign != other or not sign:
        return (sign > other) - (sign < other)
    # |s| lies in [2^(a-1), 2^a) and |t / d| in (2^(b-1), 2^(b+1))
    a, b = exp + man.bit_length(), e + p.bit_length() - d.bit_length()
    if not b - 1 < a < b + 2:
        return sign if a > b else -sign
    left, right = (man * d << (exp - e), p) if exp >= e else (man * d, p << (e - exp))
    return (left > right) - (left < right)


def _to_float(s: tuple) -> float:
    man, exp = s
    if man.bit_length() > 53:
        man, exp = _round(man, exp, 53)
    try:
        return math.ldexp(man, exp)
    except OverflowError:
        return math.copysign(math.inf, man)


# ---------------------------------------------------------------------------
# Constants and logarithms in fixed point
# ---------------------------------------------------------------------------

_GUARD = 40  # the first guess of _floor's guard bits
_MACHIN = {  # (coefficient, x) terms of sums of arccot(x), or arccoth(x)
    "pi": (((16, 5), (-4, 239)), False),
    "ln2": (((18, 26), (-2, 4801), (8, 8749)), True),
    "ln10": (((46, 31), (34, 49), (20, 161)), True),
}
_CONSTANTS: dict[str, tuple[int, int]] = {}  # name -> (p, floor(c * 2^p))


def _floor(series, p: int) -> int:
    """floor(c * 2^p) for the irrational c of which series(q) gives, in
    units of 2^-q, a value v and a bound e with |v - c 2^q| < e.  With q =
    p + g, the floor is that of v / 2^g once (v - e) >> g and (v + e) >> g
    agree, since c 2^q lies between them; until they do, g doubles, as in
    Ziv's strategy.  c 2^p is no integer, so the loop ends."""
    guard = _GUARD
    while True:
        v, err = series(p + guard)
        lo, hi = (v - err) >> guard, (v + err) >> guard
        if lo == hi:
            return lo
        guard *= 2


def _acot_fixed(x: int, p: int, hyperbolic: bool) -> tuple[int, int]:
    """arccot(x), or arccoth(x), times 2^p for an int x >= 5, from the series
    sum (+-1)^n / ((2n + 1) x^(2n + 1)), and a bound k on its error in units:
    k is the next odd divisor when the loop stops.  Each power of 1/x is
    floored from the one before over x^2, or over -x^2 for arccot, whose
    terms alternate in sign; a floor of either sign is off by under one
    unit.  So the first power is off by under one, each later one by under
    1 + 1/25 + 1/25^2 + ... = 25/24, and its floored quotient by k >= 3 by
    under 25/72 + 1 < 2.  The loop stops at the first power floored to 0,
    which is under 25/24 in size, and the tail from it, at most
    (25/24)^2 / 3 in all, is under one unit.  After n terms k is 2n + 3, so
    the error is under 1 + 2 (n - 1) + 1 < k."""
    term = total = (1 << p) // x
    x2 = x * x if hyperbolic else -x * x
    k = 3
    while term:
        term //= x2
        total += term // k
        k += 2
    return total, k


def _machin(name: str, p: int) -> tuple[int, int]:
    """The constant named times 2^p as a sum of arccotangents a acot(x), and
    a bound on its error in units, the sum of |a| times their bounds."""
    coeffs, hyperbolic = _MACHIN[name]
    terms = [(a, *_acot_fixed(x, p, hyperbolic)) for a, x in coeffs]
    return sum(a * v for a, v, _ in terms), sum(abs(a) * k for a, _, k in terms)


def _constant(name: str, p: int) -> int:
    """floor(c * 2^p) for the constant c named: floored at a margin above p,
    kept, and shifted down for lower precisions."""
    memo = _CONSTANTS.get(name)
    if memo is None or memo[0] < p:
        top = int(p * 1.05 + 10)
        memo = _CONSTANTS[name] = (top, _floor(lambda q: _machin(name, q), top))
    top, value = memo
    return value >> (top - p)


def _named_constant(name: str, bits: int, rnd: str) -> tuple:
    """The constant from its floor at bits + 20 bits, rounded at bits."""
    wp = bits + 20
    return _round(_constant(name, wp), -wp, bits, rnd)


def _ln_fixed(man: int, bc: int, mag: int, p: int) -> tuple[int, int]:
    """ln(man / 2^bc) + mag ln 2 times 2^p, for man / 2^bc in [1/2, 1), and a
    bound on its error in units.  y = man / 2^bc, doubled below 1/sqrt(2),
    is taken r times to its square root at p + r bits, where
    ln y = 2^r ln y^(1/2^r) has the same units, and ln y^(1/2^r) is
    2 atanh(t), t = (y - 1) / (y + 1).  Each square root and series step
    loses less than two units."""
    num, den = man, 1 << bc
    if 2 * man * man < den * den:
        den >>= 1
        mag -= 1
    r = math.isqrt(p) // 3
    q = p + r
    y = (num << q) // den
    for _ in range(r):
        y = math.isqrt(y << q)
    one = 1 << q
    d = y - one
    t = (abs(d) << q) // (y + one)
    t2 = (t * t) >> q
    total = term = t
    k = 1
    while term:
        term = (term * t2) >> q
        k += 2
        total += term // k
    total = -2 * total if d < 0 else 2 * total
    return total + mag * _constant("ln2", p), 2 * k + 20 + abs(mag)


def _ln(x: tuple, bits: int) -> tuple:
    """ln x for a positive raw float x with at most bits bits, as
    libmp.mpf_log makes it: with x = y 2^mag, y in [1/2, 1), the floor of
    ln y at wp = bits + 20 bits plus mag times the floor of ln 2 at wp,
    rounded to nearest.  For |mag| <= 1, wp also counts the leading bits of
    the mantissa that cancel in libmp's x - 1."""
    man, exp = x
    if man == 1 and not exp:
        return _ZERO
    bc = man.bit_length()
    mag = exp + bc
    wp = bits + 20
    if abs(mag) <= 1:
        wp += bc - abs(man - (1 << (bc - abs(mag)))).bit_length()
    m = _floor(lambda q: _ln_fixed(man, bc, 0, q), wp) + mag * _constant("ln2", wp)
    return _round(m, -wp, bits)


# ---------------------------------------------------------------------------
# Decimal rendering
# ---------------------------------------------------------------------------


def _digits_exp(s: tuple, dps: int) -> tuple[str, str, int]:
    """(sign, digits, exponent) with |s| ~ d1.d2d3... * 10^exponent, the
    digits truncated, at least dps of them, as libmp.to_digits_exp gives
    them.  An exponent beyond 3500 bits is first divided by the power of
    ten that ln 2 / ln 10 at a few bits estimates, in directed rounding."""
    man, exp = s
    sign, man = ("-" if man < 0 else ""), abs(man)
    bitprec = int(dps * math.log(10, 2)) + 10
    exponent = 0
    if abs(exp + man.bit_length()) > 3500:
        # libmp truncates the signed exp * ln 2 / ln 10 toward zero, which
        # is the sign of exp times the same steps on |exp|
        expprec = abs(exp).bit_length() + 5
        scaled = _mul((abs(exp), 0), _named_constant("ln2", expprec, _DOWN), 0)
        ln10 = _named_constant("ln10", expprec, _DOWN)
        tman, texp = _div(scaled, ln10, expprec, _DOWN)
        b = tman << texp if texp >= 0 else tman >> -texp
        exponent = b = b if exp >= 0 else -b
        man, exp = _div((man, exp), _pow_int(_TEN, b, bitprec, _DOWN), bitprec, _DOWN)
    bc = man.bit_length()
    fixprec = max(bitprec - exp - bc, 0)
    fixdps = int(fixprec / math.log(10, 2) + 0.5)
    offset = exp + fixprec
    fixed = man << offset if offset >= 0 else man >> -offset
    digits = str(fixed * 10 ** fixdps >> fixprec)
    return sign, digits, exponent + len(digits) - fixdps - 1


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
    if not value[0]:
        return "0." + "0" * (d - 1)
    # _digits_exp yields d1.d2d3... x 10^exp, with at least d + 10 digits,
    # so there is always a digit to round from and none to pad
    sign, digits, exp = _digits_exp(value, d + 10)
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


# ---------------------------------------------------------------------------
# BigReal
# ---------------------------------------------------------------------------


def _to_raw(value, bits: int) -> tuple:
    """value rounded to nearest at bits binary digits, as a raw float.

    value must be exact: an int, a Fraction or a (mantissa, binary
    exponent) pair of ints.  A float or a str would bring its own binary or
    decimal rounding into the value.
    A Fraction p/q rounds p first and then the quotient, as mpmath's
    ``mpf(p) / q`` does.
    """
    # an int first: an isinstance test against Fraction, an ABC, runs a
    # Python-level __instancecheck__ for anything that is not a Fraction
    if isinstance(value, int):
        return _round(int(value), 0, bits)
    if type(value) is tuple and len(value) == 2 and all(isinstance(x, int) for x in value):
        return _round(int(value[0]), value[1], bits)
    if isinstance(value, Fraction):
        return _div(_round(value.numerator, 0, bits), (value.denominator, 0), bits)
    raise TypeError(
        "expected an int, a Fraction or a (mantissa, exponent) pair of ints,"
        f" got {type(value).__name__}"
    )


def _operator(fn, negate=False):
    """A BigReal method applying fn to both operands' raw floats, the
    other's negated first when negate, rounding to nearest at the operands'
    precision; the result is bound to it.  A BigReal of the same Precision
    is read as it is, with no `_coerce` call."""

    def method(self, other):
        prec = self.prec
        if type(other) is BigReal and (other.prec is prec or other.prec == prec):
            o = other._v
        else:
            o = self._coerce(other)
            if o is NotImplemented:
                return NotImplemented
        if negate:
            o = (-o[0], o[1])
        x = _new(BigReal)
        _set_prec(x, prec)
        _set_v(x, fn(self._v, o, _BITS[prec]))
        return x

    return method


def _reflected(method):
    """The reflected form of a BigReal operator method: other op self, with
    other an int or a Fraction rounded at self's precision."""

    def reflected(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else method(_bound(o, self.prec), self)

    return reflected


def _comparison(test):
    """A BigReal comparison: test applied to the sign of self - other.  An
    int or Fraction is compared exactly, not rounded first, so that ==, the
    orderings and hash agree with the exact value."""

    def method(self, other):
        if isinstance(other, (int, Fraction)):
            return test(_cmp(self._v, (other.numerator, 0), other.denominator))
        o = self._coerce(other)
        return o if o is NotImplemented else test(_cmp(self._v, o))

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
    their own), and comparisons with them are exact.
    """

    __slots__ = ("_v", "prec")

    def __new__(cls, value, prec: Precision):
        return _bound(_to_raw(value, _bits(prec)), prec)

    def __setattr__(self, name, value):
        raise AttributeError("BigReal is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild the value from its raw float,
        # which is a plain tuple of ints, without rounding it again
        return _bound, (self._v, self.prec)

    def to_fraction(self) -> Fraction:
        """Exact value of the backing dyadic float."""
        man, exp = self._v
        return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)

    def _coerce(self, other) -> tuple:
        if isinstance(other, BigReal):
            if other.prec != self.prec:
                raise PrecisionMismatch(
                    f"operands bound to different precisions: {self.prec} vs {other.prec}"
                )
            return other._v
        if isinstance(other, (int, Fraction)):
            return _to_raw(other, _bits(self.prec))
        return NotImplemented

    __add__ = __radd__ = _operator(_add)
    __sub__ = _operator(_add, negate=True)
    __rsub__ = _reflected(__sub__)
    __mul__ = __rmul__ = _operator(_mul)
    __truediv__ = _operator(_div)
    __rtruediv__ = _reflected(__truediv__)
    __lt__ = _comparison(lambda c: c < 0)
    __le__ = _comparison(lambda c: c <= 0)
    __gt__ = _comparison(lambda c: c > 0)
    __ge__ = _comparison(lambda c: c >= 0)
    __eq__ = _comparison(lambda c: c == 0)

    def __pow__(self, n):
        """x**n for an int n, by binary powering at working precision."""
        if not isinstance(n, int):
            return NotImplemented
        if n < 0 and not self:
            raise DomainError("0 cannot be raised to a negative power")
        return _bound(_pow_int(self._v, n, _bits(self.prec)), self.prec)

    def __neg__(self):
        man, exp = self._v
        return _bound((-man, exp), self.prec)

    def __abs__(self):
        man, exp = self._v
        return _bound((abs(man), exp), self.prec)

    def __hash__(self):
        # Python's hash of the equal int or Fraction: |m| 2^e modulo the
        # Mersenne prime p = 2^n - 1, where 2^e is 2^(e mod n), with m's
        # sign; hash() of that int negates it and sends -1 to -2
        man, exp = self._v
        p = sys.hash_info.modulus
        h = abs(man) % p * pow(2, exp % p.bit_length(), p) % p
        return hash(-h if man < 0 else h)

    def __float__(self):
        return _to_float(self._v)

    def __bool__(self):
        return self._v[0] != 0

    def __str__(self):
        return _render(self._v, self.prec.digits, rounded=False)

    def __repr__(self):
        return f"BigReal({self}, digits={self.prec.digits})"


# every result binds through the slots' own descriptors, past the
# __setattr__ that refuses assignment, and cheaper than object.__setattr__
_set_prec = BigReal.prec.__set__
_set_v = BigReal._v.__set__
_new = object.__new__


def _bound(v: tuple, prec: Precision) -> BigReal:
    """The BigReal of the raw float v, already rounded at prec's bits."""
    x = _new(BigReal)
    _set_prec(x, prec)
    _set_v(x, v)
    return x


def to_decimal_string(x: BigReal, d: int) -> str:
    """Round-to-nearest decimal rendering with d significant digits."""
    if not 1 <= d <= x.prec.digits:
        raise ValueError(f"significant digits must be in 1..{x.prec.digits}, got {d}")
    return _render(x._v, d, rounded=True)


def round_scaled(x: BigReal, scale: int) -> int:
    """round(scale x), half away from zero, for a positive int scale, from
    x's exact float in ints alone.

    The float is x = m 2^e, its (mantissa, exponent) pair.  With e >= 0,
    scale x = (m scale) 2^e is an int.  With e = -k < 0, scale x =
    m scale / 2^k, and rounding |scale x| half up is
    floor(|m| scale / 2^k + 1/2) = floor((|m| scale + 2^(k-1)) / 2^k), a
    right shift by k of |m| scale + 2^(k-1); the sign of m goes back on
    after.  Zero is (0, 0), the first case.
    """
    man, exp = x._v
    if exp >= 0:
        return man * scale << exp
    rounded = (abs(man) * scale + (1 << (-exp - 1))) >> -exp
    return rounded if man > 0 else -rounded


def pi(prec: Precision) -> BigReal:
    return _bound(_named_constant("pi", _bits(prec), _NEAREST), prec)


def ln(x, prec: Precision) -> BigReal:
    """Natural logarithm of a positive BigReal or exact value (as BigReal
    takes it)."""
    if isinstance(x, BigReal):
        if x.prec != prec:
            raise PrecisionMismatch("ln argument bound to a different precision")
        v = x._v
    else:
        v = _to_raw(x, _bits(prec))
    if v[0] <= 0:
        raise DomainError(f"ln requires a positive argument, got {_render(v, 15, rounded=True)}")
    return _bound(_ln(v, _bits(prec)), prec)


def linear_combination(terms, prec: Precision, value=None) -> BigReal:
    """sum(c * x) over the (c, x) pairs of terms, added left to right, each
    operation rounded at prec.  c is an exact int or Fraction; anything else
    raises TypeError.  x is a BigReal bound to prec or a sequence of them,
    their product, formed from the first factor on; the empty product is 1.
    With a value function, x is a sequence of its arguments, and each
    factor is ``value(f, prec)`` for an f of x, read as the loop reaches
    it: `polyzeta.identities.evaluate_formal_sum` hands over a sum's own
    (coefficient, specs) pairs with `evaluate_lambda`, so no per-term
    container is built.

    It runs the operations of that sum's BigReal operators on the factors'
    raw floats, in their order, and binds one BigReal at the end, but skips
    those whose result is exactly an operand: a product starts from its
    first factor (no 1 * x), a zero coefficient adds nothing, 1 or -1 gives
    the product or its negation, and the first term left seeds the sum (no
    0 + term).  Every factor is already rounded at prec, so the sum keeps
    every bit of the plain one, which builds each product up from 1 and
    adds every term to 0.  The empty sum is 0, and a sum of the one term
    1 * x is x itself, no new BigReal.  Every factor must be bound to prec,
    whatever its coefficient: one bound to another precision raises
    PrecisionMismatch, as it does in the plain sum, also under a
    coefficient of 0.
    """
    bits = _BITS[prec]
    total = x = None
    for c, xs in terms:
        v = _ONE
        for x in (xs,) if isinstance(xs, BigReal) else xs:
            if value is not None:
                x = value(x, prec)
            if x.prec is not prec and x.prec != prec:
                raise PrecisionMismatch(f"a factor bound to {x.prec}, not to {prec}")
            # a product by the exact 1 is the other factor
            v = x._v if v is _ONE else _mul(v, x._v, bits)
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"coefficients are ints or Fractions, got {type(c).__name__}")
        if not c:
            continue
        if c == -1:
            v = (-v[0], v[1])
        elif c != 1:
            v = _mul(v, _to_raw(c, bits), bits)
        total = v if total is None else _add(total, v, bits)
    # x is the last factor read: a sum that is its very raw float, as the
    # one term 1 * x leaves it, has its value, so it is x itself
    if x is not None and total is x._v:
        return x
    x = _new(BigReal)
    _set_prec(x, prec)
    _set_v(x, _ZERO if total is None else total)
    return x
