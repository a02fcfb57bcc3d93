import importlib.util
from pathlib import Path

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


@pytest.fixture
def load_tool(monkeypatch):
    """A loader of a script under tools/ by name, as a fresh module each call.
    tools/ goes on sys.path, as it does for a script run from there, so the
    tools find the module they share."""
    tools = Path(__file__).resolve().parents[1] / "tools"
    monkeypatch.syspath_prepend(str(tools))

    def load(name):
        path = tools / f"{name}.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load
