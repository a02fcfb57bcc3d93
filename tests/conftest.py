import pytest

from polyzeta import Precision


@pytest.fixture
def prec30():
    return Precision(30)


@pytest.fixture
def prec40():
    return Precision(40)


@pytest.fixture
def prec50():
    return Precision(50)

