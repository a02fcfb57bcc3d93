"""Two theorems and one spanning set over whole weight slices of multiple
zeta values.

The sum theorem (conjectured by Hoffman, proved by Granville and by
Zagier): the sum of z(s) over the convergent strings s of weight w and
depth k is z(w).  Ohno's relation: for a convergent string k with dual k'
and any l >= 0, the sum of z(k + e) over the non-negative integer vectors e
of k's depth with |e| = l equals the same sum over k''s vectors e'.  For
l = 0 it is duality, and it implies the sum theorem.

Hoffman's basis: the z(s) with every s_i in 2 or 3 span the MZVs of their
weight (Brown proved it; Hoffman conjectured that they form a basis), so
every MZV has an integer relation with them in which its own coefficient
is nonzero, and `lindep` must find it.

Each theorem's relation is checked as one `linear_combination` of
evaluated values that should be 0, against a tolerance derived from the
contract, not picked: each value is within eps max(1, |z|) of its MZV,
eps = 6/5 10^-W (`evaluate_lambda`), and each of the sum's K - 1 additions
rounds to nearest at the working binary precision.
"""

from fractions import Fraction as F
from itertools import combinations
from math import comb

import pytest

from polyzeta import Precision, evaluate_z, lindep
from polyzeta.model import dual_word, lambda_from_z_string, lambda_to_word, word_to_lambda
from polyzeta.precision import _bits, linear_combination


def vectors(total, parts):
    """Every vector of ``parts`` non-negative ints with sum ``total``."""
    for cuts in combinations(range(total + parts - 1), parts - 1):
        edges = (-1, *cuts, total + parts - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def strings(weight, depth):
    """The convergent strings of depth ``depth`` and weight ``weight``:
    positive ints with a first entry of at least 2."""
    return [(e[0] + 2, *(x + 1 for x in e[1:]))
            for e in vectors(weight - depth - 1, depth)]


def hoffman_basis(weight):
    """The strings of weight ``weight`` whose entries are all 2 or 3."""
    if weight < 2:
        return [()] if weight == 0 else []
    return [(s, *rest) for s in (2, 3) for rest in hoffman_basis(weight - s)]


def dual(s):
    """The dual string of an MZV string, through `model.dual_word`."""
    word, sign = dual_word(lambda_to_word(lambda_from_z_string(s)))
    assert sign == 1  # the letters of an MZV's word are 0 and 1
    return word_to_lambda(word).exponents


def tolerance(values, prec):
    """The most that sum(c x) over (c, x) in values, c = +-1, with x the
    evaluated values, can be off from the same sum of the exact values.

    |x - z| <= eps max(1, |z|) <= eps max(1, |x|) / (1 - eps) for each value.
    Each addition rounds to nearest at b = _bits(prec) bits, which moves it
    by at most u |sum| with u = 2^-b, and each partial sum is at most
    (1 + u)^K sum |x| for K values."""
    eps = F(6, 5 * 10 ** prec.working_dps)
    u = F(1, 2 ** _bits(prec))
    sizes = [abs(x.to_fraction()) for _, x in values]
    error = sum(eps * max(1, size) / (1 - eps) for size in sizes)
    rounding = (len(sizes) - 1) * u * (1 + u) ** len(sizes) * sum(sizes)
    return error + rounding


def assert_relation(terms, prec):
    """sum c z(s) over the (c, s) of terms vanishes within the tolerance."""
    values = [(c, evaluate_z(s, prec)) for c, s in terms]
    residual = linear_combination(values, prec).to_fraction()
    assert abs(residual) <= tolerance(values, prec), terms


@pytest.mark.parametrize("digits, weights", [(50, range(3, 11)), (200, [8])])
def test_sum_theorem_over_every_depth(digits, weights):
    prec = Precision(digits)
    for w in weights:
        for k in range(1, w):
            slice_ = strings(w, k)
            assert len(slice_) == comb(w - 2, k - 1)
            assert_relation([(1, s) for s in slice_] + [(-1, (w,))], prec)


def test_ohno_relation_up_to_weight_seven():
    prec = Precision(50)
    checked = 0
    for w in range(2, 8):
        for depth in range(1, w):
            for k in strings(w, depth):
                k_dual = dual(k)
                assert sum(k_dual) == w
                for l in range(3):
                    left = [(1, tuple(map(sum, zip(k, e)))) for e in vectors(l, len(k))]
                    right = [(-1, tuple(map(sum, zip(k_dual, e))))
                             for e in vectors(l, len(k_dual))]
                    assert_relation(left + right, prec)
                    checked += 1
    assert checked == 3 * (2 ** 6 - 1)


def test_every_mzv_has_its_relation_over_hoffmans_basis():
    # for each of the 126 convergent strings s of weight 3-8, lindep([z(s)]
    # + the basis) finds a relation with z(s)'s coefficient nonzero at 60
    # digits, and the same relation at 80.  A miss is a defect of lindep,
    # not a reason to raise the digits
    checked = 0
    for w in range(3, 9):
        basis = hoffman_basis(w)
        assert len(basis) == (1, 1, 2, 2, 3, 4)[w - 3]  # Zagier's d_w
        for s in (s for depth in range(1, w) for s in strings(w, depth)):
            found = []
            for digits in (60, 80):
                prec = Precision(digits)
                result = lindep([evaluate_z(t, prec) for t in (s, *basis)])
                assert result.found and result.coefficients[0], (s, digits)
                found.append(result.coefficients)
            assert found[0] == found[1], s
            checked += 1
    assert checked == 126
