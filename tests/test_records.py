"""Records are values: they copy, pickle and stay immutable.

Specs, products, formal sums, precisions, catalog identities, relation
results, parse trees and plans each come back equal, with the same hash,
repr and str, from `copy.copy`, `copy.deepcopy` and a pickle round trip.
A spec's slots are ``terms``, ``exponents``, ``bases`` and ``key``, and
specs are interned, so a spec's clone is the spec itself.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from polyzeta import BigReal, LambdaSpec, Precision, identity_catalog, lindep, zeta_spec
from polyzeta.cli import parse_expression
from polyzeta.evaluate import evaluate_lambda, plan
from polyzeta.identities import FormalSum, SpecProduct, evaluate_formal_sum
from polyzeta.precision import pi

PREC = Precision(30, guard=25)


def _records():
    spec = LambdaSpec.of((3, 1, 2), (Fraction(2), Fraction(-1), Fraction(3, 2)))
    product = SpecProduct((zeta_spec(3), spec, zeta_spec(2)))
    stuffle = next(i for i in identity_catalog(4) if i.tag == "stuffle")
    z2 = evaluate_lambda(zeta_spec(2), PREC)
    found = lindep([pi(PREC) ** 2, z2])
    missing = lindep([pi(PREC), z2 * pi(PREC) ** 3 + 1])
    tree = parse_expression("lindep([z(2,-1), -Pi^2/6 + zp(3/2, 2), log(2)])")
    return {
        "spec": spec,
        "product": product,
        "formal-sum": FormalSum([(Fraction(-3, 2), spec), (2, product), (1, (Fraction(1),) * 2)]),
        "precision": PREC,
        "identity": stuffle,
        "relation-found": found,
        "relation-missing": missing,
        "parse-tree": tree,
        "plan": plan(zeta_spec(3, 1), PREC),
    }


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_records_copy_and_pickle(clone):
    for name, record in _records().items():
        twin = clone(record)
        assert type(twin) is type(record), name
        assert twin == record, name
        assert hash(twin) == hash(record), name
        assert repr(twin) == repr(record), name
        assert str(twin) == str(record), name


def test_records_are_immutable():
    records = _records()
    spec, product, fs = records["spec"], records["product"], records["formal-sum"]
    fs_hash = hash(fs)
    value = BigReal(Fraction(1, 3), PREC)
    for obj, name in [
        (spec, "terms"),
        (spec, "exponents"),
        (spec, "color"),
        (product, "factors"),
        (product, "color"),
        (fs, "terms"),
        (fs, "color"),
        (PREC, "digits"),
        (PREC, "color"),
        (value, "prec"),
    ]:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    assert spec.exponents == (3, 1, 2) and PREC.digits == 30 and value.prec == PREC
    assert len(fs) == 3 and hash(fs) == fs_hash


def test_resolved_bodies_are_not_part_of_a_sum():
    # the first evaluation fills a sum's ``_specs``; the sum still equals,
    # hashes and prints as its unresolved twin, its clones start
    # unresolved, and neither slot can be assigned
    records = _records()
    word = (Fraction(0), Fraction(2))
    fs = FormalSum([(Fraction(-3, 2), records["spec"]), (2, records["product"]), (1, word)])
    twin = FormalSum(fs.terms)
    evaluate_formal_sum(fs, PREC)
    assert fs._specs is not None and twin._specs is None
    assert fs == twin and hash(fs) == hash(twin) and repr(fs) == repr(twin)
    for clone in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        other = clone(fs)
        assert other == fs and other._specs is None
    resolved = fs._specs
    for name in ("terms", "_specs"):
        with pytest.raises(AttributeError):
            setattr(fs, name, None)
    assert fs._specs is resolved and fs == twin


def test_spec_and_product_are_not_tuples():
    # formal sums dispatch on body type and take any tuple for a word, so a
    # spec or product that were a tuple would be keyed, rendered and
    # evaluated as a word
    records = _records()
    assert not isinstance(records["spec"], tuple)
    assert not isinstance(records["product"], tuple)
