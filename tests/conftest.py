import mpmath
import pytest

from polyzeta import Precision


def libmp_raw(x):
    """A BigReal's (signed odd mantissa, exponent) pair in libmp's raw layout,
    (sign, odd mantissa, exponent, bitcount); zero is (0, 0, 0, 0)."""
    man, exp = x._v
    return (int(man < 0), abs(man), exp, abs(man).bit_length())


def mpf(x):
    """A BigReal's value as an mpmath float, exactly: the raw float it holds,
    not rounded again."""
    return mpmath.make_mpf(libmp_raw(x))


@pytest.fixture
def prec30():
    return Precision(30)


@pytest.fixture
def prec40():
    return Precision(40)


@pytest.fixture
def prec50():
    return Precision(50)

