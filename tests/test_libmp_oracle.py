"""BigReal's arithmetic against mpmath's libmp as a bit-exact oracle.

polyzeta rounds on Python ints and imports no mpmath; its raw floats are
(signed mantissa, exponent) pairs, which `libmp_raw` turns into libmp's
(sign, mantissa, exponent, bitcount) layout, so every result can be
compared, tuple for tuple, with the libmp function at the same binary
precision.  The corpus is seeded: values of varied size, exponent gaps that
reach libmp's perturbed addition, powers on both sides of the exact-power
cutoff, and values past the 3500-bit exponent at which rendering rescales.
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import libmp

from polyzeta import BigReal, Precision, to_decimal_string
from polyzeta.precision import _bits, _floor, _ln_fixed, _round_digit_string, ln, pi

from conftest import libmp_raw

RND = libmp.round_nearest
DIGITS = (30, 50, 200, 1000)


def _oracle_raw(value, bits):
    """The libmp raw float of an exact value, as BigReal rounds it: an int
    once, a Fraction p/q as p rounded and then divided by q."""
    if isinstance(value, Fraction):
        p = libmp.from_int(value.numerator, bits, RND)
        return libmp.mpf_div(p, libmp.from_int(value.denominator), bits, RND)
    return libmp.from_int(value, bits, RND)


def _exact_corpus(rng, bits, n):
    """Ints and Fractions of varied size and sign, some far from 1."""
    out = []
    for i in range(n):
        kind = i % 5
        sign = rng.choice((1, -1))
        if kind == 0:
            out.append(sign * rng.randrange(1, 10 ** 6))
        elif kind == 1:
            out.append(sign * rng.getrandbits(rng.randrange(bits - 8, 2 * bits)) or 1)
        elif kind == 2:
            q = rng.randrange(1, 10 ** rng.randrange(1, 40))
            out.append(Fraction(sign * rng.randrange(1, 10 ** rng.randrange(1, 40)), q))
        elif kind == 3:
            # a power of two apart from 1: exponent gaps past 100 bits
            shift = rng.randrange(-3 * bits, 3 * bits)
            frac = Fraction(rng.getrandbits(bits) | 1, 3)
            out.append(sign * (frac * 2 ** shift if shift >= 0 else frac / 2 ** -shift))
        else:
            # within a few units in the last place of 1
            out.append(Fraction(2 ** bits + sign * rng.randrange(1, 9), 2 ** bits))
    return out


def _corpus(digits, seed=0, n=40):
    prec = Precision(digits)
    bits = _bits(prec)
    rng = random.Random(f"{seed}-{digits}")
    exact = _exact_corpus(rng, bits, n)
    return prec, bits, rng, exact, [BigReal(x, prec) for x in exact]


@pytest.mark.parametrize("digits", DIGITS)
def test_construction_matches_libmp(digits):
    prec, bits, rng, exact, values = _corpus(digits)
    for x, v in zip(exact, values):
        assert libmp_raw(v) == _oracle_raw(x, bits), x
    for _ in range(40):
        man, exp = rng.getrandbits(3 * bits) - 2 ** (3 * bits - 1), rng.randrange(-5000, 5000)
        want = libmp.from_man_exp(man, exp, bits, RND)
        assert libmp_raw(BigReal((man, exp), prec)) == want


_BINARY = {
    "+": (lambda a, b: a + b, libmp.mpf_add),
    "-": (lambda a, b: a - b, libmp.mpf_sub),
    "*": (lambda a, b: a * b, libmp.mpf_mul),
    "/": (lambda a, b: a / b, libmp.mpf_div),
}


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("op", sorted(_BINARY))
def test_binary_operations_match_libmp(digits, op):
    """BigReal with BigReal, int and Fraction operands, in both orders."""
    prec, bits, rng, exact, values = _corpus(digits)
    ours, theirs = _BINARY[op]
    pairs = [(i, j) for i in range(len(values)) for j in range(len(values))]
    for i, j in rng.sample(pairs, 300):
        a, b, y = values[i], values[j], exact[j]
        want = theirs(libmp_raw(a), libmp_raw(b), bits, RND)
        assert libmp_raw(ours(a, b)) == want, (op, exact[i], y)
        assert libmp_raw(ours(a, y)) == want, (op, exact[i], y)
        want = theirs(libmp_raw(b), libmp_raw(a), bits, RND)
        assert libmp_raw(ours(y, a)) == want, (op, y, exact[i])


@pytest.mark.parametrize("digits", DIGITS)
def test_cancelling_and_perturbed_sums_match_libmp(digits):
    """Sums whose terms cancel to few bits, and terms more than 100 bits
    apart, on both sides of libmp's bits + 4 perturbation threshold."""
    prec, bits, rng, _, values = _corpus(digits)
    for v in values:
        for gap in (bits - 20, bits + 3, bits + 5, bits + 60, 5 * bits):
            for sign in (1, -1):
                man = sign * (rng.getrandbits(bits) | 1)
                tiny = BigReal(Fraction(man, 2 ** (bits + gap)), prec)
                small = tiny * v
                for a, b in ((v, small), (small, v)):
                    assert libmp_raw(a + b) == libmp.mpf_add(libmp_raw(a), libmp_raw(b), bits, RND)
                    assert libmp_raw(a - b) == libmp.mpf_sub(libmp_raw(a), libmp_raw(b), bits, RND)
        near = v + BigReal(Fraction(1, 2 ** (bits + 10)), prec) * v
        assert libmp_raw(v - near) == libmp.mpf_sub(libmp_raw(v), libmp_raw(near), bits, RND)
        assert libmp_raw(v - v) == libmp.fzero


@pytest.mark.parametrize("digits", DIGITS)
def test_powers_match_libmp(digits):
    prec, bits, rng, exact, values = _corpus(digits, n=15)
    bases = values + [BigReal(2, prec), BigReal(Fraction(-1, 8), prec), BigReal(0, prec)]
    for v in bases:
        for n in (-3, -2, -1, 0, 1, 2, 3, 7, 1000, 10 ** 6):
            if n < 0 and not v:
                continue
            assert libmp_raw(v ** n) == libmp.mpf_pow_int(libmp_raw(v), n, bits, RND), (v, n)


@pytest.mark.parametrize("digits", DIGITS)
def test_unary_comparisons_hash_and_float_match_libmp(digits):
    prec, bits, rng, exact, values = _corpus(digits)
    huge = [BigReal(Fraction(3, 7) * 2 ** 1100, prec), BigReal(Fraction(-5, 2 ** 1100), prec)]
    values = values + huge + [BigReal(0, prec)]
    for a in values:
        assert libmp_raw(-a) == libmp.mpf_neg(libmp_raw(a), bits, RND)
        assert libmp_raw(abs(a)) == libmp.mpf_abs(libmp_raw(a), bits, RND)
        assert hash(a) == hash(a.to_fraction()) == libmp.mpf_hash(libmp_raw(a))
        want = libmp.to_float(libmp_raw(a), rnd=RND)
        got = float(a)
        assert got == want and math.copysign(1, got) == math.copysign(1, want)
        assert bool(a) == (libmp_raw(a) != libmp.fzero)
        for b in rng.sample(values, 8) + [a, -a]:
            assert (a < b) == libmp.mpf_lt(libmp_raw(a), libmp_raw(b))
            assert (a <= b) == libmp.mpf_le(libmp_raw(a), libmp_raw(b))
            assert (a > b) == libmp.mpf_gt(libmp_raw(a), libmp_raw(b))
            assert (a >= b) == libmp.mpf_ge(libmp_raw(a), libmp_raw(b))
            assert (a == b) == libmp.mpf_eq(libmp_raw(a), libmp_raw(b))


def test_pi_and_ln_of_powers_of_two_match_libmp_at_every_precision():
    for digits in range(10, 1001):
        prec = Precision(digits)
        bits = _bits(prec)
        assert libmp_raw(pi(prec)) == libmp.mpf_pi(bits, RND), digits
        for x in (2, Fraction(1, 8)):
            want = libmp.mpf_log(_oracle_raw(x, bits), bits, RND)
            assert libmp_raw(ln(x, prec)) == want, (digits, x)


@pytest.mark.parametrize("digits", DIGITS)
def test_ln_matches_libmp(digits):
    prec, bits, rng, exact, values = _corpus(digits, n=20)
    args = [2, 10, Fraction(1, 2), 1024, 3, Fraction(10 ** 300 + 7, 3), Fraction(1, 10 ** 40)]
    args += [abs(x) for x in exact if x]
    # far from 1, where libmp adds mag * floor(ln 2 * 2^wp), |mag| ulps off
    args += [Fraction(rng.getrandbits(bits) | 1, 3) * 2 ** rng.randrange(10 ** 5, 10 ** 6)
             for _ in range(20)]
    # 1 + j 2^-k: the floor at libmp's working precision sits on a rounding
    # tie, so its floors of ln y and ln 2 must be taken apart
    args += [1 + Fraction(j, 2 ** (bits - 6)) for j in (-33, 33, 35, 37)]
    for x in args:
        want = libmp.mpf_log(_oracle_raw(x, bits), bits, RND)
        assert libmp_raw(ln(x, prec)) == want, x
        assert libmp_raw(ln(BigReal(x, prec), prec)) == want, x


def test_ln_floor_is_exact_next_to_an_integer():
    """ln(1 + j 2^-k) and ln(1 - j 2^-k) lie within a few units of an
    integer multiple of 2^-400 for k past 400 / 3, where the first guard
    bits do not decide the floor; the doubled guard must, on either side."""
    ctx = mpmath.MPContext()
    ctx.prec = 2000
    p = 400
    for k in range(130, 200):
        for j in (1, 3):
            for man, bc, mag in ((2 ** k + j, k + 1, 1), (2 ** k - j, k, 0)):
                x = ctx.mpf(man) / 2 ** bc * 2 ** mag
                got = _floor(lambda q: _ln_fixed(man, bc, mag, q), p)
                assert got == int(ctx.floor(ctx.log(x) * 2 ** p)), (k, j)


def _reference_render(v, d, rounded):
    """The decimal rendering as libmp.to_digits_exp's digits give it."""
    if v == libmp.fzero:
        return "0." + "0" * (d - 1)
    sign, digits, exp = libmp.to_digits_exp(v, d + 10)
    if rounded:
        digits, carry = _round_digit_string(digits, d)
        exp += carry
    else:
        digits = digits[:d]
    point = exp + 1
    if 1 <= point <= d:
        body = digits[:point] + "." + digits[point:]
    elif -5 <= point <= 0:
        body = "0." + "0" * (-point) + digits
    else:
        body = digits[0] + "." + digits[1:] + f"e{exp:+d}"
    return sign + body


@pytest.mark.parametrize("digits", DIGITS)
def test_rendering_matches_libmp_digits(digits):
    prec, bits, rng, exact, values = _corpus(digits)
    extra = [
        BigReal(10 ** 2000, prec),  # past the 3500-bit rescaling, both signs
        BigReal(Fraction(-7, 3) * 10 ** 1500, prec),
        BigReal(Fraction(1, 3 * 10 ** 1200), prec),
        BigReal(Fraction(10 ** digits - 1, 10 ** digits), prec),  # 0.99...9 carries
        BigReal(Fraction(-2, 3), prec),
        BigReal(Fraction(123456789, 10 ** 8), prec),
        BigReal(Fraction(-3, 10 ** 5), prec),
        BigReal(Fraction(7, 10 ** 4), prec),
        BigReal(10 ** 14 + 1, prec),
        BigReal(-(10 ** 15), prec),
        BigReal(0, prec),
    ]
    for v in values + extra:
        assert str(v) == _reference_render(libmp_raw(v), digits, rounded=False)
        for d in (1, 15, digits):
            assert to_decimal_string(v, d) == _reference_render(libmp_raw(v), d, rounded=True)
