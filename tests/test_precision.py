"""Precision core: constants against independent integer-arithmetic oracles,
rendering, and the exactness/monotonicity contracts."""

import copy
import pickle
import random
import sys
import tracemalloc
from fractions import Fraction
from math import floor, gcd

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from polyzeta import (
    BigReal,
    DomainError,
    Precision,
    PrecisionMismatch,
    to_decimal_string,
)
from polyzeta import precision
from polyzeta.precision import ln, pi

from conftest import libmp_raw


def machin_pi(digits: int) -> Fraction:
    """pi via Machin's arctangent formula in pure integer arithmetic.

    Independent oracle: pi = 16 arctan(1/5) - 4 arctan(1/239), each arctan
    summed as an alternating integer series at a fixed scale.
    """
    scale = 10 ** (digits + 10)

    def arctan_inv(x: int) -> int:
        total = 0
        term = scale // x
        k = 0
        xsq = x * x
        while term:
            total += -term if k % 2 else term
            k += 1
            term = scale // (xsq ** k * x * (2 * k + 1))
        return total

    return Fraction(16 * arctan_inv(5) - 4 * arctan_inv(239), scale)


def series_ln2(digits: int) -> Fraction:
    """ln 2 = sum 1/(k 2^k), scaled integer summation."""
    scale = 10 ** (digits + 10)
    total = 0
    k = 1
    while True:
        term = scale // (k * 2 ** k)
        if term == 0:
            break
        total += term
        k += 1
    return Fraction(total, scale)


@pytest.mark.parametrize("digits", [15, 50, 120])
def test_pi_against_integer_oracle(digits):
    prec = Precision(digits)
    got = pi(prec).to_fraction()
    assert abs(got - machin_pi(digits)) < Fraction(1, 10 ** digits)


def test_pi_fifteen_digits():
    assert to_decimal_string(pi(Precision(15)), 15) == "3.14159265358979"


def test_pi_precision_monotonicity():
    low = str(pi(Precision(10)))
    high = to_decimal_string(pi(Precision(50)), 50)
    assert high.startswith(low)


def test_pi_squared_over_six_matches_evaluator():
    from polyzeta import evaluate_z

    prec = Precision(40)
    lhs = pi(prec) * pi(prec) * Fraction(1, 6)
    rhs = evaluate_z((2,), prec)
    assert abs(lhs - rhs).to_fraction() < Fraction(1, 10 ** 38)


@pytest.mark.parametrize("digits", [20, 60])
def test_ln2_against_integer_oracle(digits):
    prec = Precision(digits)
    got = ln(2, prec).to_fraction()
    assert abs(got - series_ln2(digits)) < Fraction(1, 10 ** digits)


def test_ln_identity_and_square():
    prec = Precision(40)
    assert ln(1, prec) == 0
    v = ln(Fraction(3, 2), prec)
    diff = abs(v * 2 - ln(Fraction(9, 4), prec))
    assert diff.to_fraction() < Fraction(1, 10 ** 40)


def test_ln_rejects_nonpositive():
    prec = Precision(20)
    with pytest.raises(DomainError):
        ln(0, prec)
    with pytest.raises(DomainError):
        ln(-3, prec)


def test_pow_int_basics():
    prec = Precision(30)
    x = BigReal(Fraction(7, 3), prec)
    assert x ** 0 == 1
    two = BigReal(2, prec)
    assert two ** 10 == 1024
    assert (two ** -2).to_fraction() == Fraction(1, 4)


def nearest_raw(num: int, den: int, bits: int) -> tuple[int, int]:
    """(m, e): num/den > 0 rounded to bits binary digits, to nearest with ties
    to even, as m * 2^e; 2^e is the unit in the last place."""
    k = bits + 2 - (num.bit_length() - den.bit_length())
    q, r = divmod(num << k, den) if k >= 0 else divmod(num, den << -k)
    extra = q.bit_length() - bits  # q has at least bits + 1 bits
    half, low, m = 1 << (extra - 1), q & ((1 << extra) - 1), q >> extra
    if low > half or (low == half and (r or m & 1)):
        m += 1
    return m, extra - k


def test_powers_are_within_one_ulp_and_negative_ones_round_twice():
    # x ** n rounds the exact power once while it is under 1000 bits, else
    # the product of partial products cut to guard bits; x ** -n rounds the
    # reciprocal of x ** n taken at 5 more bits.  So each power is within one
    # unit in the last place of the correctly rounded value, and some
    # negative powers come out one unit from it
    rng = random.Random(36)
    off = {1: 0, -1: 0}
    for _ in range(500):
        prec = Precision(rng.randint(10, 120))  # 40 to 400 bits
        bits = precision._bits(prec)
        num = rng.choice((1, -1)) * rng.randint(1, 10 ** rng.randint(1, 60))
        x = BigReal(Fraction(num, rng.randint(1, 10 ** rng.randint(1, 60))), prec)
        man, exp = x._v
        for n in (rng.randint(2, 40), rng.randint(41, 400)):
            power = abs(man) ** n
            for sign in (1, -1):
                m, e = nearest_raw(power, 1, bits) if sign > 0 else nearest_raw(1, power, bits)
                e += sign * n * exp
                if man < 0 and n % 2:
                    m = -m
                got_man, got_exp = (x ** (sign * n))._v
                ulps = abs(Fraction(got_man) * Fraction(2) ** (got_exp - e) - m)
                assert ulps <= 1, (x, sign * n)
                off[sign] += ulps != 0
    assert off[-1] > 0, off


def test_pow_int_zero_to_negative_is_domain_error():
    prec = Precision(20)
    zero = BigReal(0, prec)
    with pytest.raises(DomainError):
        zero ** -1


def test_pow_takes_int_exponents_only():
    x = BigReal(2, Precision(20))
    assert x.__pow__(Fraction(1, 2)) is NotImplemented
    with pytest.raises(TypeError):
        x ** Fraction(1, 2)


def test_decimal_string_golden_cases():
    prec = Precision(30)
    assert to_decimal_string(BigReal(945, prec), 5) == "945.00"
    assert to_decimal_string(BigReal(0, prec), 5) == "0.0000"
    assert to_decimal_string(ln(2, Precision(30)), 15) == "0.693147180559945"


def test_decimal_string_shapes():
    prec = Precision(30)
    assert to_decimal_string(BigReal(Fraction(-1, 8), prec), 3) == "-0.125"
    assert to_decimal_string(BigReal(Fraction(1, 10 ** 9), prec), 3) == "1.00e-9"
    assert to_decimal_string(BigReal(10 ** 12, prec), 4) == "1.000e+12"
    # round-to-nearest with carry across the leading digit
    v = BigReal(Fraction(9997, 10), prec)
    assert to_decimal_string(v, 3) == "1.00e+3"
    assert to_decimal_string(v, 4) == "999.7"


def test_decimal_string_range_check():
    prec = Precision(20)
    v = BigReal(1, prec)
    with pytest.raises(ValueError):
        to_decimal_string(v, 0)
    with pytest.raises(ValueError):
        to_decimal_string(v, 21)


def test_rendering_truncates_str_but_rounds_decimal():
    prec = Precision(10)
    v = BigReal(Fraction(2, 3), prec)
    assert str(v) == "0.6666666666"  # truncated at 10 significant digits
    assert to_decimal_string(v, 10) == "0.6666666667"


def test_precision_validation():
    with pytest.raises(ValueError):
        Precision(9)
    with pytest.raises(ValueError):
        Precision(1001)
    with pytest.raises(ValueError):
        Precision(50, guard=10)
    assert Precision(50).working_dps == 70
    for kwargs, field in (
        ({"digits": 50.5}, "digits"),
        ({"digits": "50"}, "digits"),
        ({"digits": True}, "digits"),
        ({"digits": 50, "guard": 20.0}, "guard"),
        ({"digits": 50, "guard": True}, "guard"),
    ):
        with pytest.raises(TypeError, match=f"^{field} must be an int"):
            Precision(**kwargs)
    # the namedtuple's other constructors run the same checks
    with pytest.raises(ValueError, match="^digits must be in"):
        Precision(50)._replace(digits=5)
    with pytest.raises(ValueError, match="^guard must be >="):
        Precision._make((50, 10))
    assert repr(Precision(50)._replace(guard=30)) == "Precision(digits=50, guard=30)"


def test_bits_match_dps_to_prec():
    # the memo of binary precisions per working dps gives libmp's own value,
    # on first use and from the memo
    from types import SimpleNamespace

    from mpmath import libmp

    from polyzeta.precision import _bits

    for _ in range(2):
        for dps in range(1, 2001):
            assert _bits(SimpleNamespace(working_dps=dps)) == libmp.dps_to_prec(dps)


def test_bigreal_hashes_like_an_equal_int_or_fraction():
    prec = Precision(30)
    for value in (0, 3, -7, 10 ** 40, Fraction(1, 2), Fraction(-5, 8)):
        v = BigReal(value, prec)
        assert v == value
        assert hash(v) == hash(value)
        assert len({v, value}) == 1


def test_bigreal_equals_an_int_or_fraction_only_exactly():
    # 1/3 and 10^60 + 1 round at 50 working digits, so neither equals its
    # rounded value, and a set keeps both as the hashes say
    prec = Precision(30)
    for value in (Fraction(1, 3), 10 ** 60 + 1):
        v = BigReal(value, prec)
        assert v != value
        assert not v == value
        assert len({v, value}) == 2
        assert v == v.to_fraction()
    with pytest.raises(TypeError):
        BigReal(float("inf"), prec)


def test_comparisons_agree_with_the_exact_values():
    # 1/3 and 10^40 + 1 round at 30 working digits, each to a value below
    # it: every ordering says so, as == does
    prec = Precision(10)
    for value in (Fraction(1, 3), 10 ** 40 + 1):
        v = BigReal(value, prec)
        assert v.to_fraction() < value
        assert v < value and v <= value and v != value
        assert not (v > value or v >= value or v == value)
    # seeded values up to 2^+-4000 against their own exact value, values
    # next to it, ints and small ints, and against those rounded to
    # BigReals: each answer is the exact Fractions'
    rng = random.Random(30)
    for _ in range(3000):
        prec = Precision(rng.choice((10, 30, 100)))
        scale = 2 ** rng.choice((0, 1, 5, 60, 300, 4000))
        num = rng.randint(-(10 ** rng.randint(1, 50)), 10 ** rng.randint(1, 50))
        den = rng.randint(1, 10 ** rng.randint(1, 40))
        value = Fraction(num * scale, den) if rng.random() < 0.5 else Fraction(num, den * scale)
        v = BigReal(value, prec)
        f = v.to_fraction()
        step = Fraction(1, 10 ** rng.randint(1, 200))
        for q in (value, value + step, value - step, f, int(value), rng.randint(-5, 5)):
            w = BigReal(q, prec)
            for other, exact in ((q, q), (w, w.to_fraction())):
                got = (v == other, v != other, v < other, v <= other, v > other, v >= other)
                want = (f == exact, f != exact, f < exact, f <= exact, f > exact, f >= exact)
                assert got == want, (v._v, q)


def test_comparisons_and_hash_of_huge_exponents_stay_small():
    # the exact comparison decides by bit lengths and the hash works modulo
    # a Mersenne prime, so neither builds the 10^8-bit value
    prec = Precision(30)
    huge = BigReal((3, 10 ** 8), prec)
    tiny = BigReal((-3, -(10 ** 8)), prec)
    tracemalloc.start()
    try:
        assert huge > 10 ** 50 and huge != 5 and not huge <= Fraction(1, 3)
        assert tiny < 0 and tiny > Fraction(-1, 10 ** 50) and tiny != Fraction(-3, 7)
        assert tiny < huge and huge > BigReal(10 ** 50, prec) and tiny > BigReal(-1, prec)
        # 2^n is 1 modulo the hash modulus 2^n - 1, so 3 * 2^(10^8) hashes
        # as 3 * 2^(10^8 mod n)
        n = sys.hash_info.modulus.bit_length()
        assert hash(huge) == hash(3 * 2 ** (10 ** 8 % n))
        assert hash(tiny) == hash(Fraction(-3, 2 ** (10 ** 8 % n)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "value",
    [0.1, "0.1", 2.5, "2", float("nan"), 1j, (1, 2.0), (1, 2, 3), mpmath.mpf(3) / 4],
    ids=[
        "float", "decimal-str", "float-2.5", "int-str", "nan", "complex", "float-pair",
        "triple", "mpf",
    ],
)
def test_bigreal_and_ln_take_exact_values_only(value):
    # a float or a str would carry its binary or decimal rounding in; an
    # mpmath float is the Fraction or (mantissa, exponent) pair it holds
    prec = Precision(30)
    with pytest.raises(TypeError):
        BigReal(value, prec)
    with pytest.raises(TypeError):
        ln(value, prec)


def test_bigreal_takes_kernel_pairs():
    prec = Precision(30)
    assert BigReal((3, -2), prec) == Fraction(3, 4)
    assert BigReal((-3, -2), prec) == Fraction(-3, 4)
    assert ln((1, 0), prec) == 0


@pytest.mark.parametrize("digits", [10, 50, 1000])
def test_values_are_signed_odd_mantissa_exponent_pairs(digits):
    """Every result holds (mantissa, exponent) ints with an odd mantissa, or
    (0, 0); negation and abs change only the mantissa's sign, the pair reads
    back unchanged, and the hash is the exact value's, also for exponents
    far past any float's."""
    prec = Precision(digits)
    exact = [
        0, 1, -1, 6, -(10 ** 60) - 1, Fraction(-1, 3), Fraction(355, 113),
        Fraction(-7, 2 ** 20000), Fraction(5, 3) * 2 ** 20000, -(3 ** 7000),
    ]
    xs = [BigReal(q, prec) for q in exact]
    results = xs + [pi(prec), -pi(prec), ln(3, prec), ln(Fraction(1, 7), prec)]
    for a in xs:
        results += [a + b for b in xs] + [a - b for b in xs] + [a * b for b in xs]
        results += [a / b for b in xs if b] + [b / a for b in (1, -3) if a]
        results += [a ** n for n in (0, 1, 2, 3, 5) + ((-1, -2, -7) if a else ())]
    for x in results:
        man, exp = x._v
        assert type(man) is int and type(exp) is int
        assert (man, exp) == (0, 0) or man & 1, x._v
        assert x.to_fraction() == (man << exp if exp >= 0 else Fraction(man, 2 ** -exp))
        assert (-x)._v == (-man, exp) and abs(x)._v == (abs(man), exp)
        assert abs(x).to_fraction() == abs(x.to_fraction())
        assert BigReal(x._v, prec)._v == x._v
        assert hash(x) == hash(x.to_fraction())


def test_mixed_precision_rejected():
    a = BigReal(1, Precision(20))
    b = BigReal(1, Precision(30))
    with pytest.raises(PrecisionMismatch):
        a + b
    with pytest.raises(PrecisionMismatch):
        ln(a, Precision(30))


def test_bigreal_arithmetic_and_comparisons():
    prec = Precision(25)
    a = BigReal(Fraction(3, 4), prec)
    b = BigReal(Fraction(1, 4), prec)
    assert (a + b) == 1
    assert (a - b).to_fraction() == Fraction(1, 2)
    assert (a * 4) == 3
    assert (a / b) == 3
    assert a > b and b < a and a >= a and b <= b
    assert abs(-a) == a
    assert float(a) == 0.75
    assert bool(a) and not bool(a - a)


def test_bigreal_repr_shows_its_digits():
    assert repr(BigReal(Fraction(1, 3), Precision(10))) == "BigReal(0.3333333333, digits=10)"
    assert repr(-pi(Precision(12))) == "BigReal(-3.14159265358, digits=12)"


def test_bigreal_is_immutable():
    v = BigReal(1, Precision(20))
    with pytest.raises(AttributeError):
        v.prec = Precision(30)


def test_bigreal_copies_and_pickles_with_its_bits_and_precision():
    v = BigReal(Fraction(-1, 3), Precision(20, guard=25))
    for clone in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert type(clone) is BigReal
        assert clone._v == v._v
        assert clone.prec == v.prec
        assert clone == v


def test_to_fraction_exact_roundtrip():
    prec = Precision(30)
    q = Fraction(355, 113)
    v = BigReal(q, prec)
    # the stored dyadic is within an ulp of q, and to_fraction is exact
    assert abs(v.to_fraction() - q) < Fraction(1, 10 ** 45)
    w = BigReal(Fraction(5, 8), prec)  # exactly dyadic
    assert w.to_fraction() == Fraction(5, 8)


def test_round_scaled_rounds_half_away_from_zero():
    # seeded floats m 2^e with both signs, zero, e below and above 0, and
    # e = -(total + 1), where C x = 5^total m / 2 ends in exactly .5, for
    # C = 10^total, lindep's scale at 40 digits; each must round to
    # round(C x) half away from zero, taken in Fractions
    prec = Precision(40)
    total = prec.digits - 10
    rng = random.Random(5600)
    pairs = [(0, 0)]
    for _ in range(200):
        pairs.append((rng.choice((1, -1)) * (rng.getrandbits(rng.randint(1, 120)) | 1),
                      rng.randint(-250, 60)))
    for _ in range(40):
        pairs.append((rng.choice((1, -1)) * (rng.getrandbits(rng.randint(1, 120)) | 1),
                      -(total + 1)))
    values = [BigReal(pair, prec) for pair in pairs]
    assert [x._v for x in values] == pairs  # every float is as drawn
    want = []
    for x in values:
        scaled = x.to_fraction() * 10 ** total
        rounded = floor(abs(scaled) + Fraction(1, 2))
        want.append(rounded if scaled >= 0 else -rounded)
    exps = [exp for _, exp in pairs]
    assert min(exps) < 0 <= max(exps) and 0 in want
    assert sum(x.to_fraction() * 10 ** total % 1 == Fraction(1, 2) for x in values) >= 40
    assert [precision.round_scaled(x, 10 ** total) for x in values] == want


@given(
    st.fractions(min_value=-100, max_value=100),
    st.fractions(min_value=-100, max_value=100),
)
def test_rational_arithmetic_is_exact(x, y):
    s = x + y
    assert s.numerator * (x.denominator * y.denominator) == (
        x.numerator * y.denominator + y.numerator * x.denominator
    ) * s.denominator
    assert s.denominator > 0
    assert gcd(s.numerator, s.denominator) == 1
    p = x * y
    assert p == Fraction(x.numerator * y.numerator, x.denominator * y.denominator)


def _oracle_mpf(q: Fraction):
    """The old BigReal(q) rounding, made with mpmath's global precision."""
    return mpmath.mpf(q.numerator) / q.denominator


_finite = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 30)


@settings(max_examples=60, deadline=None)
@given(
    x=_finite,
    y=_finite.filter(bool),
    k=st.integers(min_value=-(10 ** 80), max_value=10 ** 80).filter(bool),
    n=st.integers(min_value=-9, max_value=9),
    digits=st.sampled_from([10, 37, 150]),
)
def test_operations_match_the_global_precision_oracle(x, y, k, n, digits):
    """Every operation equals, bit for bit, the same operation run under
    mpmath.workdps(working_dps), the way BigReal used to compute."""
    prec = Precision(digits)
    a, b = BigReal(x, prec), BigReal(y, prec)
    bits = libmp_raw
    with mpmath.workdps(prec.working_dps):
        X, Y, K = _oracle_mpf(x), _oracle_mpf(y), mpmath.mpf(k)
        want = {
            "BigReal(x)": X, "a+b": X + Y, "a-b": X - Y, "a*b": X * Y, "a/b": X / Y,
            "a+k": X + K, "k-a": K - X, "a*k": X * K, "k/b": K / Y, "a/k": X / K,
            "a+y": X + Y, "x-b": X - Y, "a*y": X * Y, "x/b": X / Y,
            "-a": -X, "abs(a)": abs(X), "b**n": Y ** n,
            "ln|b|": mpmath.ln(abs(Y)), "ln(|y|)": mpmath.ln(abs(Y)), "pi": +mpmath.pi,
        }
    got = {
        "BigReal(x)": a, "a+b": a + b, "a-b": a - b, "a*b": a * b, "a/b": a / b,
        "a+k": a + k, "k-a": k - a, "a*k": a * k, "k/b": k / b, "a/k": a / k,
        "a+y": a + y, "x-b": x - b, "a*y": a * y, "x/b": x / b,
        "-a": -a, "abs(a)": abs(a), "b**n": b ** n,
        "ln|b|": ln(abs(b), prec), "ln(|y|)": ln(abs(y), prec), "pi": pi(prec),
    }
    for name, value in got.items():
        assert bits(value) == want[name]._mpf_, name


@pytest.mark.parametrize("digits", [30, 50, 200])
def test_constants_match_mpmath_on_a_private_context(digits):
    """pi and ln equal, bit for bit, mpmath's own pi and ln run on a private
    context at the working dps."""
    prec = Precision(digits)
    ctx = mpmath.MPContext()
    ctx.dps = prec.working_dps
    bits = libmp_raw
    assert bits(pi(prec)) == (+ctx.pi)._mpf_
    for q in (Fraction(2), Fraction(3, 7), Fraction(10 ** 80 + 1, 3), Fraction(1, 10 ** 30)):
        want = ctx.ln(ctx.mpf(q.numerator) / q.denominator)._mpf_
        assert bits(ln(q, prec)) == want, q
        assert bits(ln(BigReal(q, prec), prec)) == want, q


def test_machin_floors_are_exact_from_a_one_bit_first_guess(monkeypatch):
    """With one guard bit as its first guess, `_floor` lives on the error
    bounds that `_acot_fixed` and `_machin` derive: the floors of pi, ln 2
    and ln 10 must equal the floor at 300 more bits, which their bounds
    decide, for every p in 8..600."""
    monkeypatch.setattr(precision, "_GUARD", 1)
    for name in ("pi", "ln2", "ln10"):
        for p in range(8, 601):
            v, err = precision._machin(name, p + 300)
            want = (v - err) >> 300
            assert want == (v + err) >> 300, (name, p)
            assert precision._floor(lambda q: precision._machin(name, q), p) == want, (name, p)


def test_acot_fixed_error_is_under_its_bound():
    """`_acot_fixed`'s bound k, checked on each series alone: for the eight
    Machin arguments and every p in 8..1200, the value is within k units of
    the same series at 200 more bits.  The worst error measured is 0.335 k,
    and 2842 of the 9544 cases exceed k / 4, so a bound four times tighter
    fails here."""
    for hyperbolic, xs in ((False, (5, 239)), (True, (26, 4801, 8749, 31, 49, 161))):
        for x in xs:
            for p in range(8, 1201):
                v, k = precision._acot_fixed(x, p, hyperbolic)
                ref, _ = precision._acot_fixed(x, p + 200, hyperbolic)
                assert abs((v << 200) - ref) < k << 200, (x, p)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: BigReal(1, Precision(20)) + 0.5, TypeError),
        (lambda: BigReal(1, Precision(20)) / 0, ZeroDivisionError),
        (lambda: BigReal(1, Precision(20)) / BigReal(0, Precision(20)), ZeroDivisionError),
        (lambda: 1 / BigReal(0, Precision(20)), ZeroDivisionError),
        (lambda: Fraction(1, 3) / BigReal(0, Precision(20)), ZeroDivisionError),
    ],
    ids=["float-operand", "divide-by-int-zero", "divide-by-zero", "int-over-zero",
         "fraction-over-zero"],
)
def test_out_of_domain_arguments_raise(call, error):
    with pytest.raises(error):
        call()
