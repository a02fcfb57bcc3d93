"""No value depends on mpmath's process-global precision: nothing in polyzeta
writes it, and threads computing at different precisions at the same time
get the values they get alone."""

import sys
import threading
from fractions import Fraction

import mpmath
import pytest

from polyzeta import BigReal, Precision, evaluate_lambda, lindep, parse_spec, to_decimal_string
from polyzeta.cli import run
from polyzeta.identities import delta_odd, t5
from polyzeta.precision import ln, pi


@pytest.fixture
def frozen_global_precision(monkeypatch):
    """Make any write to the global context's prec or dps raise; private
    contexts still set theirs."""
    cls = type(mpmath.mp)

    def guarded(prop):
        def setter(ctx, value):
            if ctx is mpmath.mp:
                raise AssertionError("mpmath's global precision was written")
            prop.fset(ctx, value)

        return property(prop.fget, setter)

    monkeypatch.setattr(cls, "prec", guarded(cls.prec))
    monkeypatch.setattr(cls, "dps", guarded(cls.dps))
    with pytest.raises(AssertionError):
        mpmath.mp.dps = 30


def test_nothing_writes_the_global_precision(frozen_global_precision, capsys):
    prec = Precision(33)
    x = BigReal(Fraction(2, 7), prec)
    y = (x + 1) * x - Fraction(1, 3) / x
    assert abs(y) > 0
    assert to_decimal_string(pi(prec) * ln(y * y, prec), 20)
    assert x ** -5 > 1
    assert t5(2, 1, prec)
    value = evaluate_lambda(parse_spec("L[2, 1 | 2, 1]"), prec)
    assert lindep([value, value * 3, pi(prec)]).found
    assert run(["eval", "lindep([z(3), z(2,1)])", "--digits", "33"]) == 0
    assert capsys.readouterr().out == "1, -1\n"


def test_threads_at_different_precisions_get_their_serial_values():
    def arithmetic(digits):
        prec = Precision(digits)
        x = BigReal(Fraction(5, 7), prec)
        return (ln(x + 2, prec) * x).to_fraction()

    def polylogs(digits):
        # mpmath's polylog changes the precision of the context it runs in
        return delta_odd(3, Precision(digits)).to_fraction()

    jobs = [(arithmetic, 30), (arithmetic, 300), (polylogs, 30)]
    serial = [f(digits) for f, digits in jobs]
    wrong = [0] * len(jobs)

    def worker(i):
        f, digits = jobs[i]
        for _ in range(150):
            if f(digits) != serial[i]:
                wrong[i] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == [0] * len(jobs)
