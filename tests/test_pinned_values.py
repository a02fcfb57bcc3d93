"""Every benchmark reference spec and every closed form evaluates to the same
bits as it did when these digests were taken: a change to the kernel's
arithmetic that claims to leave values alone is held to every bit of 148
values and 159 closed forms, not to a tolerance.  The closed-form digest was
taken when zeta(r) and Li_r(1/2) came from mpmath; they now come from the
kernel, with the same bits at these 30, 50 and 200 digits.  A value's bits
are its raw float in libmp's layout, the tuple (sign, mantissa, exponent,
bitcount) that ``conftest.libmp_raw`` makes of the ``_v`` pair (signed
mantissa, exponent), so the digests taken on that layout still apply.  The
value digest has a semantic twin: each pinned value within the digit
contract of its reference, and so does the closed-form digest: each closed
form within a measured bound of itself at 30 more digits.  The twins hold
also for a change that moves bits on purpose."""

import functools
import hashlib
import json
import os
from fractions import Fraction

from polyzeta import Precision, evaluate_lambda, parse_spec
from polyzeta.identities import delta_12, li2_half, mu_power, t5, z213, zagier

from conftest import libmp_raw
from paper_forms import delta_odd, zeta_li_log

REFS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "refs")
# the reference pools and the digits their benchmark workloads run at
POOLS = (("geometric_hiprec", 1000), ("mzv_table", 200))
SPECS_SHA256 = "dfab6c289bc6e40a6ddc36e6adca835088532e06981f7e5ebd62771ef5d664b3"
VALUES_SHA256 = "b08249a5575b98feb944f92a8890aae4082ecc574dd4b00f5d023d804944ba5c"
CLOSED_FORMS_SHA256 = "da70ef7741dda2c60452577c0e606b96275135821ff536d226c286bac8f6695e"


def sha256_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def reference_entries():
    """(entry, digits) for every reference of the pools: an entry holds the
    spec and its value rounded to 10^-scale, scale = digits + 30."""
    entries = []
    for name, digits in POOLS:
        with open(os.path.join(REFS, f"{name}.json"), encoding="utf-8") as fh:
            entries += [(entry, digits) for entry in json.load(fh)["entries"]]
    return entries


@functools.cache
def pinned_values():
    """(entry, precision, value) for every reference, evaluated once for
    both the digest and its semantic twin."""
    out = []
    for entry, digits in reference_entries():
        prec = Precision(digits)
        out.append((entry, prec, evaluate_lambda(parse_spec(entry["spec"]), prec)))
    return out


def test_reference_values_keep_every_bit():
    values = pinned_values()
    assert len(values) == 148
    assert sha256_lines(entry["spec"] for entry, _, _ in values) == SPECS_SHA256, (
        "the reference specs under perfbench/refs changed; the value digest "
        "below pins the old list and must be taken again"
    )
    raw = [repr(libmp_raw(value)) for _, _, value in values]
    assert sha256_lines(raw) == VALUES_SHA256


def test_reference_values_keep_the_digit_contract():
    # the digest's semantic twin: each pinned value lies within
    # 10^-W max(1, |ref|) of its reference, W = digits + guard the working
    # digits, whatever its bits.  The references come from an independent
    # fixed-point sum to digits + 30, so their own error is negligible here.
    for entry, prec, value in pinned_values():
        ref = Fraction(int(entry["ref"]), 10 ** entry["scale"])
        assert entry["scale"] == prec.digits + 30, entry["spec"]
        bound = Fraction(1, 10 ** prec.working_dps) * max(1, abs(ref))
        assert abs(value.to_fraction() - ref) < bound, (entry["spec"], prec.digits)


def closed_form_values(prec):
    yield from (zagier(n, prec) for n in range(4))
    yield from (z213(n, prec) for n in range(4))
    yield from (mu_power(p, n, prec) for p in (2, 3, Fraction(3, 2), -1) for n in range(5))
    yield from (t5(m, n, prec) for m in range(1, 5) for n in range(4))
    yield li2_half(prec)
    yield from (zeta_li_log(n, prec) for n in range(4))
    yield from (delta_odd(n, prec) for n in range(1, 4))
    yield delta_12(prec)


@functools.cache
def closed_forms():
    """(precision, values) at 30, 50 and 200 digits, evaluated once for both
    the digest and its semantic twin."""
    return [(prec, list(closed_form_values(prec))) for prec in map(Precision, (30, 50, 200))]


def test_closed_forms_keep_every_bit():
    raw = [repr(libmp_raw(value)) for _, values in closed_forms() for value in values]
    assert len(raw) == 159
    assert sha256_lines(raw) == CLOSED_FORMS_SHA256


def test_closed_forms_keep_the_digit_contract():
    # the digest's semantic twin: each closed form lies within
    # 10^-(W - 2) max(1, |v|) of the same closed form at 30 more digits, W =
    # digits + guard the working digits, whatever its bits.  The bound is
    # measured, not derived: the worst case is 9.0 10^-W, t5(4, 3) at 30
    # digits, a value of about -3.2e-6 whose O(1) terms cancel.  A bound
    # derived from each form's operations is left to the closed-form rows.
    for prec, values in closed_forms():
        finer = closed_form_values(Precision(prec.digits + 30))
        for n, (value, ref) in enumerate(zip(values, finer, strict=True)):
            ref = ref.to_fraction()
            bound = Fraction(1, 10 ** (prec.working_dps - 2)) * max(1, abs(ref))
            assert abs(value.to_fraction() - ref) < bound, (prec.digits, n)
