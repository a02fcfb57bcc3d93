"""Precision core: constants against independent integer-arithmetic oracles,
rendering, and the exactness/monotonicity contracts."""

from fractions import Fraction
from math import gcd

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
from polyzeta.precision import ln, pi


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


def test_pow_int_zero_to_negative_is_domain_error():
    prec = Precision(20)
    zero = BigReal(0, prec)
    with pytest.raises(DomainError):
        zero ** -1


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
    assert BigReal(float("inf"), prec) != 3


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


def test_bigreal_is_immutable():
    v = BigReal(1, Precision(20))
    with pytest.raises(AttributeError):
        v.prec = Precision(30)


def test_to_fraction_exact_roundtrip():
    prec = Precision(30)
    q = Fraction(355, 113)
    v = BigReal(q, prec)
    # the stored dyadic is within an ulp of q, and to_fraction is exact
    assert abs(v.to_fraction() - q) < Fraction(1, 10 ** 45)
    w = BigReal(Fraction(5, 8), prec)  # exactly dyadic
    assert w.to_fraction() == Fraction(5, 8)


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
    bits = lambda v: v.mpf._mpf_
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
