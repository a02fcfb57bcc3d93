import mpmath
import pytest

from polyzeta import Precision


def mpf(x):
    """A BigReal's value as an mpmath float, exactly: the raw float it holds,
    not rounded again."""
    return mpmath.make_mpf(x._v)


@pytest.fixture
def prec30():
    return Precision(30)


@pytest.fixture
def prec40():
    return Precision(40)


@pytest.fixture
def prec50():
    return Precision(50)

