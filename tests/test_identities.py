"""Symbolic identity engine: exact structure tests, independent oracles
(rational product rule, truncated lattice counts), and numeric consistency
of every emitter against the evaluator."""

import gc
import hashlib
import json
import operator
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, dropwhile
from math import comb, factorial, prod

import pytest
from hypothesis import given, strategies as st

from polyzeta import (
    DomainError,
    LambdaSpec,
    Precision,
    PrecisionMismatch,
    evaluate_lambda,
    evaluate_z,
    identity_catalog,
    lambda_to_word,
    stuffle_identity,
    zeta_spec,
)
from polyzeta import evaluate, identities, model, relations
from polyzeta.identities import (
    FormalSum,
    SpecProduct,
    delta_negative_exact,
    evaluate_formal_sum,
    export_identities,
    li2_half,
    mu_power,
    rational_stuffle_check,
    render_formal_sum,
    reversal_reduction,
    shuffle_words,
    t5,
    z213,
    zagier,
)
from polyzeta.evaluate import evaluate_word
from polyzeta.model import delta_spec, make_word, mu_spec
from polyzeta.precision import BigReal, linear_combination, ln, pi

import paper_forms
from paper_forms import (
    _weak_chains,
    alternating_source_spec,
    alternating_to_mu,
    cyclotomic_expand,
    delta_mu_dual,
    delta_odd,
    delta_one_negative_exact,
    mu_source_spec,
    mu_to_compositions,
    zeta_li_log,
)

F = Fraction


def tol(exp10):
    return F(1, 10 ** exp10)


def assert_close(a, b, exp10):
    assert abs(a - b).to_fraction() < tol(exp10)


# -- formal sums ---------------------------------------------------------------

def test_formal_sum_merges_and_drops():
    s = FormalSum([
        (F(1), zeta_spec(3)),
        (F(2), zeta_spec(2, 1)),
        (F(-1), zeta_spec(3)),
        (F(0), zeta_spec(5)),
    ])
    assert s.terms == ((F(2), zeta_spec(2, 1)),)
    assert (s - s) == FormalSum()
    assert not FormalSum()


def test_formal_sum_canonical_order_and_render():
    s = FormalSum([
        (F(1), zeta_spec(2, 1)),
        (F(-3, 2), zeta_spec(3)),
        (F(1), SpecProduct((zeta_spec(2), zeta_spec(3)))),
    ])
    # depth-1 strings sort before depth-2, products come last
    assert render_formal_sum(s) == "-3/2*L[3 | 1] + L[2,1 | 1,1] + L[2 | 1]*L[3 | 1]"


def test_empty_product_renders_and_evaluates_as_one():
    s = FormalSum.single(SpecProduct(()))
    assert render_formal_sum(s) == "1"
    assert evaluate_formal_sum(s, Precision(30)) == 1


def naive_formal_sum(fs, prec):
    """0 plus every value times its coefficient, each product built up from
    1: the plain sum that evaluate_formal_sum shortens."""
    total = BigReal(0, prec)
    for coeff, body in fs.terms:
        if isinstance(body, LambdaSpec):
            v = evaluate_lambda(body, prec)
        elif isinstance(body, tuple):
            v = evaluate_word(body, prec)
        else:
            v = BigReal(1, prec)
            for f in body.factors:
                v = v * evaluate_lambda(f, prec)
        total = total + v * coeff
    return total


def test_formal_sum_skips_only_exact_operations():
    # the first term seeds the sum, a coefficient of +-1 is a sign and a
    # product starts from its first factor: the value keeps every bit of
    # the plain sum, over seeded sums of specs, words and products
    rng = random.Random(37)
    bases = [F(1), F(-1), F(2), F(-2), F(3, 2), F(4, 3)]
    specs = []
    while len(specs) < 12:
        depth = rng.randint(1, 3)
        spec = LambdaSpec.of(
            [rng.randint(1, 3) for _ in range(depth)], [rng.choice(bases) for _ in range(depth)]
        )
        if spec.is_convergent():
            specs.append(spec)
    bodies = specs[:8] + [lambda_to_word(s) for s in specs[8:]] + [SpecProduct(())]
    bodies += [SpecProduct(rng.sample(specs, rng.randint(1, 3))) for _ in range(6)]
    coeffs = [1, -1, F(1), F(-1), 2, -3, F(1, 2), F(-5, 3)]
    sums = [FormalSum(), FormalSum.single(SpecProduct(()), -1)]
    sums += [
        FormalSum((rng.choice(coeffs), rng.choice(bodies)) for _ in range(rng.randint(1, 6)))
        for _ in range(40)
    ]
    kinds = {type(c) for fs in sums for c, _ in fs.terms if abs(c) == 1}
    assert kinds == {int, F}
    assert sum(isinstance(b, tuple) for fs in sums for _, b in fs.terms) >= 10
    # each sum twice at each precision: a fresh twin that resolves its bodies
    # on the first evaluation, and then the resolved twin
    for prec in (Precision(40), Precision(200)):
        for fs in sums:
            want = naive_formal_sum(fs, prec)
            twin = FormalSum._canonical(fs.terms)
            for resolved in (False, True):
                assert (twin._specs is not None) == resolved
                got = evaluate_formal_sum(twin, prec)
                assert got.prec == prec and got._v == want._v, render_formal_sum(fs)
    # the one weighted sum behind it, precision.linear_combination, against
    # 0 plus every product built up from 1: seeded lists of values and of
    # products of 0 to 3 values, with coefficients 0, +-1 and Fraction(0),
    # Fraction(+-1), the empty list and an all-zero one, and lindep's
    # residual on a vector with zero and +-1 coefficients; a factor bound
    # to another precision raises, as it does in the plain sum
    coeffs += [0, F(0)]
    drawn = [
        [(rng.choice(coeffs), rng.randrange(len(specs))) for _ in range(rng.randint(1, 6))]
        for _ in range(40)
    ]
    drawn += [
        [(rng.choice(coeffs), rng.sample(range(len(specs)), rng.randint(0, 3)))
         for _ in range(rng.randint(1, 6))]
        for _ in range(40)
    ]
    drawn += [[], [(0, 0), (F(0), 1)], [(1, [])], [(-1, [0])]]
    kinds = {(type(c), c) for terms in drawn for c, _ in terms}
    assert kinds >= {(t, c) for t in (int, F) for c in (0, 1, -1)}
    assert {len(x) for terms in drawn for c, x in terms if c and isinstance(x, list)} == {0, 1, 2, 3}
    residual_coeffs = (0, 1, -1, 3, 0, -1, -2, 1, 0, 5, -1, 1)
    assert len(residual_coeffs) == len(specs)

    def plain_sum(terms, prec):
        total = BigReal(0, prec)
        for c, x in terms:
            product = BigReal(1, prec)
            for factor in x if isinstance(x, list) else [x]:
                product = product * factor
            total = total + product * c
        return total

    for prec in (Precision(40), Precision(200)):
        values = [evaluate_lambda(spec, prec) for spec in specs]
        for terms in drawn:
            terms = [
                (c, [values[j] for j in i] if isinstance(i, list) else values[i]) for c, i in terms
            ]
            got, want = linear_combination(terms, prec), plain_sum(terms, prec)
            assert got.prec == prec and got._v == want._v, terms
        want = abs(plain_sum(zip(residual_coeffs, values), prec))
        assert relations._residual(values, residual_coeffs)._v == want._v
        # a term bound to an equal Precision object is bound to prec
        assert linear_combination([(1, values[0])], Precision(prec.digits))._v == values[0]._v
        # a sum of the one term 1 * x is x itself, as a value or a product
        for x in (values[0], [values[0]]):
            assert linear_combination([(1, x)], prec) is values[0]
        other = Precision(prec.digits + 1)
        for terms, at in (
            ([(1, values[0])], other),
            ([(1, [values[0], values[1]])], other),
            # a factor is checked whatever its coefficient, 0 too
            ([(0, BigReal(1, other))], prec),
            ([(1, values[0]), (0, BigReal(1, other))], prec),
            ([(1, values[0]), (0, [values[1], BigReal(1, other)])], prec),
        ):
            with pytest.raises(PrecisionMismatch):
                linear_combination(terms, at)
    # a coefficient is an exact int or Fraction: a float, even 0.0 or +-1.0
    # where no product is taken, raises, and so does a str
    x = BigReal(F(1, 3), Precision(30))
    for c in (1.0, -1.0, 0.0, 0.5, "1"):
        for term in ((c, x), (c, [x, x]), (c, [])):
            with pytest.raises(TypeError):
                linear_combination([(1, x), term], x.prec)
        with pytest.raises(TypeError):
            FormalSum([(c, zeta_spec(2))])
        with pytest.raises(TypeError):
            FormalSum.single(zeta_spec(2), c)


def test_formal_sum_arithmetic_takes_formal_sums_only():
    # + and - with anything but a FormalSum return NotImplemented, so
    # Python raises TypeError from either side
    fs = FormalSum.single(zeta_spec(2))
    for other in (1, 0, F(1, 2), BigReal(1, Precision(30))):
        assert fs.__add__(other) is NotImplemented and fs.__sub__(other) is NotImplemented
        for op in (operator.add, operator.sub):
            for left, right in ((fs, other), (other, fs)):
                with pytest.raises(TypeError):
                    op(left, right)
    assert fs - fs == FormalSum() and fs + fs == FormalSum.single(zeta_spec(2), 2)


def test_equal_formal_sums_hash_alike():
    a = FormalSum([(F(1), zeta_spec(2, 1)), (F(-3, 2), zeta_spec(3))])
    # another order, an int coefficient and a zero term: the same sum
    b = FormalSum([(F(-3, 2), zeta_spec(3)), (1, zeta_spec(2, 1)), (F(0), zeta_spec(5))])
    assert a == b and hash(a) == hash(b)
    assert len({a, b, a - b, FormalSum()}) == 2
    assert repr(a) == "FormalSum(-3/2*L[3 | 1] + L[2,1 | 1,1])"


def _flat_key(body):
    """A body's place in the canonical order, computed as one flat tuple per
    spec, (0, depth, exponents, n_1, d_1, ..., n_k, d_k) for bases n_j/d_j,
    and (2, count, factor keys) per product."""
    if isinstance(body, SpecProduct):
        return (2, len(body.factors), tuple(map(_flat_key, body.factors)))
    pairs = tuple(x for b in body.bases for x in (b.numerator, b.denominator))
    return (0, body.depth, body.exponents) + pairs


def test_canonical_order_is_the_flat_key_order():
    # specs order by depth, exponents, then (numerator, denominator) pairs,
    # not by the bases' values: (2, 1) < (5, 4) though 5/4 < 2.  The export
    # prints sums in this order, so it pins bases other than +-1 too.
    rng = random.Random(32)
    bases = [F(1), F(-1), F(2), F(-2), F(3, 2), F(-3, 2), F(5, 4), F(4, 3), F(11, 10), F(3)]
    specs = []
    for _ in range(300):
        depth = rng.randint(1, 4)
        exponents = [rng.randint(1, 3) for _ in range(depth)]
        specs.append(LambdaSpec.of(exponents, [rng.choice(bases) for _ in range(depth)]))
    products = [SpecProduct(rng.sample(specs, rng.randint(1, 3))) for _ in range(100)]
    for product in products:
        assert list(product.factors) == sorted(product.factors, key=_flat_key)
    bodies = specs + products
    rng.shuffle(bodies)
    assert sorted(bodies, key=identities._body_key) == sorted(bodies, key=_flat_key)
    fs = FormalSum((1, body) for body in bodies)
    assert [body for _, body in fs] == sorted(set(bodies), key=_flat_key)


def test_formal_sum_single_is_one_canonical_term():
    # FormalSum.single skips the sort but keys its body as __init__ does, and
    # a zero coefficient leaves no term
    word = make_word([0, 1])
    bodies = [zeta_spec(3, 1), word, SpecProduct((zeta_spec(2), zeta_spec(3)))]
    for body in bodies:
        for coeff in (1, -2, F(3, 4), 0, F(0)):
            single = FormalSum.single(body, coeff)
            assert single == FormalSum([(coeff, body)]), (body, coeff)
            assert single.terms == (((coeff, body),) if coeff else ())
    assert FormalSum.single(word).terms == ((1, word),)
    with pytest.raises(TypeError):
        FormalSum.single("L[2 | 1]")


# -- stuffle -------------------------------------------------------------------

def stuffle_set(s, t, a, b) -> list:
    """Every interleave/merge path of the exponent strings s and t, listed
    one by one as (u, c) pairs: u the combined exponent string and c its
    base string, the product A[i] * B[j] after i letters of s and j of t
    are consumed, A and B being a and b behind a leading 1.  The test-side
    reference that the counted DP behind `stuffle_identity` is checked
    against."""
    table = [[x * y for y in (F(1),) + tuple(b)] for x in (F(1),) + tuple(a)]
    m, n = len(s), len(t)
    out = []

    def rec(i, j, u, c):
        if i == m and j == n:
            out.append((u, c))
            return
        if i < m:
            rec(i + 1, j, u + (s[i],), c + (table[i + 1][j],))
            if j < n:
                rec(i + 1, j + 1, u + (s[i] + t[j],), c + (table[i + 1][j + 1],))
        if j < n:
            rec(i, j + 1, u + (t[j],), c + (table[i][j + 1],))

    rec(0, 0, (), ())
    return out


def assert_stuffle_identity_counts(s, t, a, b):
    """stuffle_identity gives each spec of the listed paths its number of
    paths; returns that Counter."""
    want = Counter(LambdaSpec.of(u, c) for u, c in stuffle_set(s, t, a, b))
    fs = stuffle_identity(LambdaSpec.of(s, a), LambdaSpec.of(t, b))
    assert {body: c for c, body in fs} == want
    return want


def test_stuffle_set_depth_one_pair():
    pairs = stuffle_set((5,), (7,), (1,), (1,))
    assert sorted(p[0] for p in pairs) == [(5, 7), (7, 5), (12,)]
    for u, c in pairs:
        assert c == (1,) * len(u)
    assert_stuffle_identity_counts((5,), (7,), (1,), (1,))


def test_stuffle_set_base_running_products():
    a, b = F(3), F(5)
    pairs = dict()
    for u, c in stuffle_set((0,), (0,), (a,), (b,)):
        pairs[u] = pairs.get(u, []) + [c]
    assert pairs[(0, 0)] == [(a, a * b), (b, a * b)] or pairs[(0, 0)] == [(b, a * b), (a, a * b)]
    assert pairs[(0,)] == [(a * b,)]
    assert_stuffle_identity_counts((0,), (0,), (a,), (b,))


def test_stuffle_set_depth_two_one_example():
    # (r,s) x (t) with bases (a,b) x (c): the five-term pattern
    r, s, t = 2, 3, 4
    a, b, c = F(2), F(3), F(5)
    got = set()
    for u, cs in stuffle_set((r, s), (t,), (a, b), (c,)):
        got.add((u, cs))
    assert got == {
        ((r, s, t), (a, b, b * c)),
        ((r, s + t), (a, b * c)),
        ((r, t, s), (a, a * c, b * c)),
        ((r + t, s), (a * c, b * c)),
        ((t, r, s), (c, a * c, b * c)),
    }
    assert_stuffle_identity_counts((r, s), (t,), (a, b), (c,))


def stuffle_count(k: int, r: int) -> int:
    """Number of interleave/merge paths for depths k and r."""
    table = [[0] * (r + 1) for _ in range(k + 1)]
    table[0][0] = 1
    for i in range(k + 1):
        for j in range(r + 1):
            if i == j == 0:
                continue
            v = 0
            if i:
                v += table[i - 1][j]
            if j:
                v += table[i][j - 1]
            if i and j:
                v += table[i - 1][j - 1]
            table[i][j] = v
    return table[k][r]


@given(
    st.lists(st.integers(1, 3), max_size=4),
    st.lists(st.integers(1, 3), max_size=4),
    st.sampled_from([1, -1, 2]),
)
def test_stuffle_cardinality(s, t, base):
    # equal small exponents and bases make many paths land on one spec
    a = (F(base),) * len(s)
    b = (F(1),) * len(t)
    assert len(stuffle_set(s, t, a, b)) == stuffle_count(len(s), len(t))
    assert_stuffle_identity_counts(s, t, a, b)


def test_stuffle_identity_mzv_examples():
    # zeta(r,s) * zeta(t)
    fs = stuffle_identity(zeta_spec(2, 3), zeta_spec(4))
    want = FormalSum(
        (F(1), zeta_spec(*u))
        for u in [(2, 3, 4), (2, 7), (2, 4, 3), (6, 3), (4, 2, 3)]
    )
    assert fs == want
    # zeta(2,1) * zeta(2) with a multiplicity-2 string
    fs = stuffle_identity(zeta_spec(2, 1), zeta_spec(2))
    want = FormalSum(
        [
            (F(2), zeta_spec(2, 2, 1)),
            (F(1), zeta_spec(4, 1)),
            (F(1), zeta_spec(2, 3)),
            (F(1), zeta_spec(2, 1, 2)),
        ]
    )
    assert fs == want


def test_stuffle_identity_merges_equal_base_products():
    # the running products are A = B = (1, 2, 1), so distinct (i, j) cells
    # share a product (A[1] B[0] = A[0] B[1] = 2, A[2] B[0] = A[0] B[0] = 1)
    # and paths through them must count toward one spec
    a = b = (F(2), F(1, 2))
    want = assert_stuffle_identity_counts((2, 1), (2, 1), a, b)
    assert len(want) < len(stuffle_set((2, 1), (2, 1), a, b))


def test_stuffle_identity_empty_unit():
    v = LambdaSpec.of((3,), (F(2),))
    assert stuffle_identity(LambdaSpec(()), v) == FormalSum.single(v)


def test_rational_stuffle_examples():
    # 1/8 = 1/28 + 1/56 + 1/14
    assert rational_stuffle_check((3,), (5,))
    assert rational_stuffle_check((2, 4), (3,))
    assert rational_stuffle_check((), (7,))
    with pytest.raises(DomainError):
        rational_stuffle_check((1,), (3,))


def test_rational_stuffle_randomized():
    rng = random.Random(6)
    for _ in range(100):
        a = [F(rng.randint(4, 18), rng.choice((1, 2))) for _ in range(rng.randint(0, 3))]
        b = [F(rng.randint(4, 18), rng.choice((1, 2))) for _ in range(rng.randint(1, 3))]
        assert rational_stuffle_check(a, b)


# -- shuffle -------------------------------------------------------------------

def test_shuffle_example_weight_five():
    w1 = make_word((0, 1, 1))
    w2 = make_word((0, 1))
    fs = shuffle_words(w1, w2)
    coeffs = {body: c for c, body in fs}
    assert coeffs[make_word((0, 0, 1, 1, 1))] == 6
    assert coeffs[make_word((0, 1, 0, 1, 1))] == 3
    assert coeffs[make_word((0, 1, 1, 0, 1))] == 1
    assert sum(coeffs.values()) == comb(5, 2)


def test_shuffle_trivial_cases():
    a, b, c = F(2), F(3), F(5)
    fs = shuffle_words((a,), (b, c))
    assert fs == FormalSum(
        [(F(1), (a, b, c)), (F(1), (b, a, c)), (F(1), (b, c, a))]
    )
    w = make_word((0, 1))
    assert shuffle_words(w, ()) == FormalSum.single(w)


def _interleavings(w1, w2) -> Counter:
    """Brute force: one word per choice of the positions that w1 fills."""
    n, m = len(w1), len(w2)
    out = Counter()
    for pos in map(set, combinations(range(n + m), n)):
        first, rest = iter(w1), iter(w2)
        out[tuple(next(first) if p in pos else next(rest) for p in range(n + m))] += 1
    return out


@given(
    st.lists(st.sampled_from([0, 1, -1, 2]), max_size=4),
    st.lists(st.sampled_from([0, 1, -1, 2]), max_size=4),
)
def test_shuffle_multiplicity_and_merges(l1, l2):
    w1 = make_word(l1)
    w2 = make_word(l2)
    fs = shuffle_words(w1, w2)
    assert sum(c for c, _ in fs) == comb(len(w1) + len(w2), len(w1))
    assert {body: c for c, body in fs} == _interleavings(w1, w2)

    def is_merge(body, i, j, memo):
        if (i, j) in memo:
            return memo[(i, j)]
        pos = i + j
        if pos == len(body):
            return True
        ok = False
        if i < len(w1) and body[pos] == w1[i]:
            ok = is_merge(body, i + 1, j, memo)
        if not ok and j < len(w2) and body[pos] == w2[j]:
            ok = is_merge(body, i, j + 1, memo)
        memo[(i, j)] = ok
        return ok

    for _, body in fs:
        assert len(body) == len(w1) + len(w2)
        assert is_merge(body, 0, 0, {})


def test_shuffle_words_match_the_interleavings():
    # the counted product against every interleaving, on letters whose
    # (numerator, denominator) order is not their numeric order (1/3 < 1/2
    # but (1, 3) > (1, 2)), with repeats so that many interleavings merge;
    # the emitted terms must already be canonical
    rng = random.Random(26)
    letters = (F(0), F(-1), F(2), F(1, 2), F(1, 3))
    for _ in range(60):
        w1 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 5)))
        w2 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 5)))
        fs = shuffle_words(w1, w2)
        assert {body: c for c, body in fs} == _interleavings(w1, w2), (w1, w2)
        assert FormalSum(fs.terms) == fs


# -- cyclotomic / sign expansions ------------------------------------------------

def test_cyclotomic_identity_order():
    spec = zeta_spec(3, 2)
    assert cyclotomic_expand(spec, 1) == FormalSum.single(spec)


def test_cyclotomic_order_two_structure():
    s = 3
    fs = cyclotomic_expand(zeta_spec(s), 2)
    want = FormalSum(
        [
            (F(2) ** (s - 1), LambdaSpec.of((s,), (1,))),
            (F(2) ** (s - 1), LambdaSpec.of((s,), (-1,))),
        ]
    )
    assert fs == want


def test_cyclotomic_order_two_numeric(prec30):
    # lambda(2,1; 1,1) = 2 * sum of the four sign dressings
    lhs = evaluate_z((2, 1), prec30)
    rhs = evaluate_formal_sum(cyclotomic_expand(zeta_spec(2, 1), 2), prec30)
    assert_close(lhs, rhs, 25)
    # a base with a rational square root: lambda(2; 4) over roots +-2
    lhs = evaluate_lambda(LambdaSpec.of((2,), (4,)), prec30)
    rhs = evaluate_formal_sum(cyclotomic_expand(LambdaSpec.of((2,), (4,)), 2), prec30)
    assert_close(lhs, rhs, 25)


def test_cyclotomic_rejects_non_square():
    with pytest.raises(DomainError):
        cyclotomic_expand(LambdaSpec.of((2,), (3,)), 2)
    with pytest.raises(DomainError):
        cyclotomic_expand(LambdaSpec.of((-1,), (4,)), 2)
    with pytest.raises(DomainError):
        cyclotomic_expand(zeta_spec(2), 0)


@pytest.mark.parametrize(
    "root", [10 ** 17 + 3, 10 ** 200, F(10 ** 17 + 3, 10 ** 20 + 1)], ids=["1e17", "1e200", "ratio"]
)
def test_cyclotomic_order_two_exact_square_roots(root):
    # the roots are exact: a float root misses (10^17 + 3)^2 and overflows
    # on 10^400
    spec = LambdaSpec.of((3,), (root ** 2,))
    want = FormalSum([(4, LambdaSpec.of((3,), (root,))), (4, LambdaSpec.of((3,), (-root,)))])
    assert cyclotomic_expand(spec, 2) == want
    for near in (root ** 2 + 1, 10 * root ** 2):
        with pytest.raises(DomainError):
            cyclotomic_expand(LambdaSpec.of((3,), (near,)), 2)


def test_cyclotomic_rejects_higher_orders():
    # orders above 2 need complex roots of unity, which nothing evaluates
    with pytest.raises(DomainError):
        cyclotomic_expand(zeta_spec(2, 1), 3)


def test_alternating_to_mu_single_slot():
    fs = alternating_to_mu((1,))
    assert fs == FormalSum(
        [(F(1), mu_spec(-1, 1)), (F(-1), mu_spec(-1, -1))]
    )
    assert alternating_source_spec((1,)) == LambdaSpec.of((2,), (-1,))


def test_alternating_to_mu_all_zero():
    fs = alternating_to_mu((0, 0, 0))
    assert fs == FormalSum.single(mu_spec(-1, -1, -1))


def test_alternating_to_mu_numeric(prec30):
    for s in [(1,), (2,), (0, 1), (1, 1)]:
        lhs = evaluate_lambda(alternating_source_spec(s), prec30)
        rhs = evaluate_formal_sum(alternating_to_mu(s), prec30)
        assert_close(lhs, rhs, 25)


def test_alternating_to_mu_sign_invariant():
    # each term's coefficient equals the product of the chosen signs, read
    # back from the non-block-leading base positions
    s = (2, 1)
    for coeff, body in alternating_to_mu(s):
        bases = list(body.bases)
        prod = 1
        idx = 0
        for sj in s:
            idx += 1  # the block-leading -1
            for _ in range(sj):
                prod *= int(bases[idx])
                idx += 1
        assert coeff == prod
    assert len(alternating_to_mu(s)) <= 2 ** sum(s)


def test_mu_to_compositions_part_sums_invariant():
    s = (2, 1)
    total_terms = 0
    for coeff, body in mu_to_compositions(s):
        assert coeff == 1
        exps = list(body.exponents)
        # greedy split: successive blocks must sum to s_j + 1 exactly
        for sj in s:
            want = sj + 1
            acc = 0
            while acc < want:
                acc += exps.pop(0)
            assert acc == want
        assert not exps
        total_terms += 1
    assert total_terms == 2 ** sum(s)


def test_mu_to_compositions_structure():
    assert mu_to_compositions((0,)) == FormalSum.single(mu_spec(-1))
    fs = mu_to_compositions((1,))
    assert fs == FormalSum(
        [
            (F(1), LambdaSpec.of((2,), (-1,))),
            (F(1), LambdaSpec.of((1, 1), (-1, -1))),
        ]
    )
    assert len(mu_to_compositions((1, 0))) == 2
    assert len(mu_to_compositions((2, 1))) == 8


def test_mu_to_compositions_numeric(prec30):
    for s in [(1,), (2,), (1, 0), (1, 1)]:
        lhs = evaluate_lambda(mu_source_spec(s), prec30)
        rhs = evaluate_formal_sum(mu_to_compositions(s), prec30)
        assert_close(lhs, rhs, 25)


def test_delta_mu_dual_examples():
    assert delta_mu_dual((2,)) == (-1, mu_spec(-1, 1))
    assert delta_mu_dual((2, 1)) == (1, mu_spec(-1, -1, 1))
    assert delta_mu_dual((1, 2)) == (1, mu_spec(-1, 1, -1))


def test_delta_mu_dual_roundtrip():
    # the runs of 1s after each -1 of the mu bases read back s reversed,
    # each entry minus one, and the sign is (-1)^k
    rng = random.Random(8)
    for _ in range(50):
        s = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
        sign, mu = delta_mu_dual(s)
        assert mu.exponents == (1,) * len(mu.bases)
        assert mu.bases[0] == -1 and set(mu.bases) <= {-1, 1}
        runs = []
        for b in mu.bases:
            if b == -1:
                runs.append(0)
            else:
                runs[-1] += 1
        assert tuple(runs) == tuple(x - 1 for x in reversed(s))
        assert sign == (-1) ** len(s)


def test_delta_mu_dual_numeric(prec30):
    for s in [(2,), (1, 2), (2, 1), (3, 1)]:
        sign, mu = delta_mu_dual(s)
        lhs = evaluate_lambda(delta_spec(*s), prec30)
        rhs = evaluate_lambda(mu, prec30) * sign
        assert_close(lhs, rhs, 25)


# -- weak chains and reversal ----------------------------------------------------

def test_split_then_shuffle_gives_eight_base_two_values():
    # the weight-3 depth-1 MZV value decomposes, after shuffling each split
    # product onto single words, into eight unit-coefficient base-2 values
    from polyzeta import word_to_lambda
    from polyzeta.evaluate import holder_split

    word = lambda_to_word(zeta_spec(3))
    total = FormalSum()
    for term in holder_split(word, F(2)):
        if term.left.depth == 0:
            total = total + FormalSum.single(term.right, term.sign)
            continue
        if term.right.depth == 0:
            total = total + FormalSum.single(term.left, term.sign)
            continue
        shuffled = shuffle_words(lambda_to_word(term.left), lambda_to_word(term.right))
        total = total + FormalSum(
            (c * term.sign, word_to_lambda(w)) for c, w in shuffled
        )
    assert total == FormalSum(
        [
            (F(1), delta_spec(3)),
            (F(1), delta_spec(1, 2)),
            (F(3), delta_spec(2, 1)),
            (F(3), delta_spec(1, 1, 1)),
        ]
    )
    assert sum(c for c, _ in total) == 8


@pytest.mark.parametrize(
    "emit",
    [
        lambda s: stuffle_identity(LambdaSpec.of(s, (1,) * len(s)), zeta_spec(2)),
        alternating_source_spec,
        alternating_to_mu,
        mu_source_spec,
        mu_to_compositions,
        delta_mu_dual,
        reversal_reduction,
    ],
)
def test_emitters_reject_non_integer_exponents(emit):
    for s in ((2.5, 2), (2.0, 2), (F(2), 2), ("2", 2)):
        with pytest.raises(TypeError):
            emit(s)


def test_base_emitters_reject_float_bases(prec30):
    for bad in (1.5, 2.0, "2"):
        with pytest.raises(TypeError):
            stuffle_identity(LambdaSpec.of((2,), (bad,)), zeta_spec(3))
        with pytest.raises(TypeError):
            stuffle_identity(zeta_spec(2), LambdaSpec.of((3,), (bad,)))
        with pytest.raises(TypeError):
            rational_stuffle_check((bad,), (3,))
        with pytest.raises(TypeError):
            mu_power(bad, 2, prec30)
    assert stuffle_identity(LambdaSpec.of((2,), (2,)), LambdaSpec.of((3,), (F(3),))) == FormalSum(
        (1, LambdaSpec.of(u, c))
        for u, c in [((2, 3), (F(2), F(6))), ((5,), (F(6),)), ((3, 2), (F(3), F(6)))]
    )


def test_weak_chain_small():
    # every chain once, so each strict-chain MZV has coefficient 1
    assert list(_weak_chains((5,))) == [(5,)]
    assert Counter(_weak_chains((2, 3))) == Counter([(3, 2), (5,)])
    want = [(4, 3, 2), (4, 5), (7, 2), (9,)]
    assert Counter(_weak_chains((2, 3, 4))) == Counter(want)


def _blocks(seq: tuple, mask: int) -> list[tuple]:
    """Cut a nonempty seq into consecutive blocks: bit j-1 of mask set keeps
    seq[j-1] and seq[j] in one block, a clear bit cuts between them."""
    blocks = []
    start = 0
    for j in range(1, len(seq)):
        if not mask >> (j - 1) & 1:
            blocks.append(seq[start:j])
            start = j
    blocks.append(seq[start:])
    return blocks


def test_weak_chains_match_the_mask_cuts():
    # each of the 2^(k-1) cuts of s into blocks merges each block's
    # exponents, read innermost first; seeded strings of length 1..9
    rng = random.Random(30)
    for k in range(1, 10):
        for _ in range(6):
            s = tuple(rng.randint(1, 4) for _ in range(k))
            masks = Counter(
                tuple(sum(block) for block in reversed(_blocks(s, mask)))
                for mask in range(1 << (k - 1))
            )
            assert Counter(_weak_chains(s)) == masks, s


def test_weak_chain_lattice_count_oracle():
    # truncated lattice sums over n <= 12 agree exactly in rational arithmetic
    s = (2, 3, 4)
    cap = 12
    lhs = F(0)
    for n1 in range(1, cap + 1):
        for n2 in range(n1, cap + 1):
            for n3 in range(n2, cap + 1):
                lhs += F(1, n1 ** s[0] * n2 ** s[1] * n3 ** s[2])
    rhs = F(0)
    for chain in _weak_chains(s):
        # zeta strings sum over descending chains; enumerate ascending with
        # the exponents reversed, all variables capped alike
        exps_asc = chain[::-1]
        total = F(0)

        def rec(level, lower, acc):
            nonlocal total
            if level == len(exps_asc):
                total += acc
                return
            for n in range(lower + 1, cap + 1):
                rec(level + 1, n, acc * F(1, n ** exps_asc[level]))

        rec(0, 0, F(1))
        rhs += total
    assert lhs == rhs


def _truncated_zeta(entries, cap: int) -> F:
    """Exact rational zeta string truncated to indices <= cap."""
    total = F(0)

    def rec(level, lower_exclusive, acc):
        nonlocal total
        if level < 0:
            total += acc
            return
        for n in range(lower_exclusive + 1, cap + 1):
            rec(level - 1, n, acc * F(1, n ** entries[level]))

    if entries:
        rec(len(entries) - 1, 0, F(1))
    else:
        total = F(1)
    return total


def test_divergent_string_regularization_is_truncation_exact():
    # the pull-out rewriting holds exactly for every common truncation: with
    # T instantiated as the truncated harmonic number, both sides agree as
    # rationals, including strings with repeated leading 1s; the int
    # polynomial of a string with L leading 1s is L! times its value
    from polyzeta.identities import _leading_ones, _regularize_string, _Reversals

    cap = 14
    harmonic = sum((F(1, n) for n in range(1, cap + 1)), F(0))
    for entries in [(1, 2), (1, 3, 2), (1, 1, 2), (1, 1, 1, 2), (1, 2, 1, 3)]:
        lhs = _truncated_zeta(entries, cap) * factorial(_leading_ones(entries))
        rhs = F(0)
        radix = sum(entries) + 1
        # keys are the sorted ranks of the factors, T = zeta(1) being rank 1
        for ranks, coeff in _regularize_string(entries, _Reversals(radix)).items():
            assert list(ranks) == sorted(ranks)
            degree = ranks.count(1)
            factors = [_unrank(r, radix) for r in ranks[degree:]]
            assert all(f and f[0] != 1 for f in factors)
            assert type(coeff) is int
            prod = F(coeff)
            for factor in factors:
                prod *= _truncated_zeta(factor, cap)
            rhs += harmonic ** degree * prod
        assert lhs == rhs, entries


def _unrank(r: int, radix: int) -> tuple:
    """The zeta exponent string whose base-radix digits r holds."""
    digits = []
    while r:
        r, e = divmod(r, radix)
        digits.append(e)
    return tuple(reversed(digits))


def test_ranks_follow_the_spec_key_order():
    # a rank is the base-radix int of the exponents, radix above every
    # exponent: ranks sort as the zeta specs' keys do, and T = zeta(1) has
    # the least rank, 1
    from polyzeta.identities import _Reversals

    alg = _Reversals(9)
    strings = [row[0] for row in identities._string_table(8)]
    ranked = sorted(strings, key=alg.rank)
    assert ranked == sorted(strings, key=lambda s: zeta_spec(*s).key)
    assert alg.rank((1,)) == 1 < min(map(alg.rank, strings))
    for s in strings:
        assert _unrank(alg.rank(s), 9) == s
        assert alg.spec(alg.rank(s)) == zeta_spec(*s)


def _truncated_formal_sum(fs, cap: int, cache: dict) -> F:
    """A FormalSum of zeta specs and zeta SpecProducts, every string
    truncated to indices <= cap, as an exact rational."""

    def value(spec):
        if spec.exponents not in cache:
            cache[spec.exponents] = _truncated_zeta(spec.exponents, cap)
        return cache[spec.exponents]

    total = F(0)
    for coeff, body in fs:
        factors = body.factors if isinstance(body, SpecProduct) else (body,)
        prod = coeff
        for factor in factors:
            assert set(factor.bases) <= {F(1)}
            prod *= value(factor)
        total += prod
    return total


def test_reversal_catalog_is_truncation_exact():
    # every reversal identity of the weight-7 catalog holds exactly, as
    # rationals, for the sums truncated to indices <= 9
    reversals = [i for i in identity_catalog(7) if i.tag == "reversal"]
    assert len(reversals) == 32
    cache: dict = {}
    for ident in reversals:
        # an odd-depth palindrome has an empty left-hand side
        for _, spec in ident.lhs:
            assert spec.exponents[0] >= 2 and spec.exponents[-1] >= 2
        lhs = _truncated_formal_sum(ident.lhs, 9, cache)
        rhs = _truncated_formal_sum(ident.rhs, 9, cache)
        assert lhs == rhs, ident.to_json()


def test_reversal_reduction_double_interior_ones(prec40):
    # two adjacent interior 1s exercise the multiplicity handling in the
    # divergent-symbol elimination
    fs = reversal_reduction((2, 1, 1, 2))
    for _, body in fs:
        for factor in body.factors:
            assert factor.exponents[0] >= 2
    lhs = evaluate_z((2, 1, 1, 2), prec40) + evaluate_z((2, 1, 1, 2), prec40)
    rhs = evaluate_formal_sum(fs, prec40)
    assert_close(lhs, rhs, 33)


def test_reversal_reduction_depth_two_structure():
    fs = reversal_reduction((3, 2))
    want = FormalSum(
        [
            (F(1), SpecProduct((zeta_spec(3), zeta_spec(2)))),
            (F(-1), SpecProduct((zeta_spec(5),))),
        ]
    )
    assert fs == want
    # equal arguments: 2 zeta(s,s) = zeta(s)^2 - zeta(2s)
    fs = reversal_reduction((3, 3))
    want = FormalSum(
        [
            (F(1), SpecProduct((zeta_spec(3), zeta_spec(3)))),
            (F(-1), SpecProduct((zeta_spec(6),))),
        ]
    )
    assert fs == want


def test_reversal_reduction_numeric_depth_two(prec40):
    lhs = evaluate_z((3, 2), prec40) + evaluate_z((2, 3), prec40)
    rhs = evaluate_formal_sum(reversal_reduction((3, 2)), prec40)
    assert_close(lhs, rhs, 35)


def test_reversal_reduction_interior_one(prec40):
    fs = reversal_reduction((3, 1, 2))
    # all emitted strings are convergent; the divergent symbols cancelled
    for _, body in fs:
        for factor in body.factors:
            assert factor.exponents[0] >= 2
    lhs = evaluate_z((3, 1, 2), prec40) - evaluate_z((2, 1, 3), prec40)
    rhs = evaluate_formal_sum(fs, prec40)
    assert_close(lhs, rhs, 35)


def test_reversal_reduction_palindrome_vanishes(prec30):
    # odd-depth palindrome: the combination is identically zero
    fs = reversal_reduction((2, 1, 2))
    if fs:  # cancellation may be numeric rather than structural
        val = evaluate_formal_sum(fs, prec30)
        assert abs(val).to_fraction() < tol(25)


def test_reversal_reduction_raises_when_divergent_degrees_survive(monkeypatch):
    # every string regularizing to T leaves T-degree terms that cannot cancel
    monkeypatch.setattr(identities, "_regularize_string", lambda s, alg: {(1,): 1})
    with pytest.raises(AssertionError, match="divergent degrees failed to cancel"):
        reversal_reduction((3, 2))


def test_reversal_reduction_cancellation_check_survives_optimize():
    # python -O strips assert statements; the check is an explicit raise
    code = (
        "from polyzeta import identities\n"
        "identities._regularize_string = lambda s, alg: {(1,): 1}\n"
        "try:\n"
        "    identities.reversal_reduction((3, 2))\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(identities.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("divergent degrees failed to cancel")


def test_catalog_reversals_match_the_reduction_run_alone():
    # the catalog's reductions share one regularization memo, one lift memo
    # and its zeta specs; each must equal the reduction with fresh memos
    # (an odd-depth palindrome has an empty left-hand side, so the strings
    # come from the catalog's own list, in its order)
    reversals = [i for i in identity_catalog(9) if i.tag == "reversal"]
    strings = [row[0] for row in identities._string_table(9) if row[0][-1] >= 2]
    assert len(reversals) == len(strings) == 128
    for ident, s in zip(reversals, strings):
        alone = reversal_reduction(s)
        assert ident.rhs == alone, s
        assert render_formal_sum(ident.rhs) == render_formal_sum(alone)


def test_catalog_regularizes_each_string_once_per_build(monkeypatch):
    # a miss is a call on a string with a leading 1 that the memo lacks; a
    # build misses each such string once, and nothing carries over from
    # one build to the next
    regularize = identities._regularize_string
    misses: list = []

    def counting(s, alg):
        if s and s[0] == 1 and s not in alg.polys:
            misses.append(s)
        return regularize(s, alg)

    monkeypatch.setattr(identities, "_regularize_string", counting)
    first = [i.to_json() for i in identity_catalog(8)]
    first_misses, misses[:] = list(misses), []
    assert [i.to_json() for i in identity_catalog(8)] == first
    assert misses == first_misses
    assert len(first_misses) == len(set(first_misses)) == 30


def test_export_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # set and dict iteration orders change with the hash seed; the catalog's
    # canonical order must not
    src = os.path.dirname(os.path.dirname(identities.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for seed in ("0", "1"):
        out = tmp_path / f"ident-{seed}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "polyzeta.cli", "identities", "export",
             "--weight", "8", "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0].count(b"\n") == 256


def _lift_by_definition(block, alg) -> Counter:
    """len(block)! times the weak-chain expansion of block as a
    T-polynomial: len(block)! / L(c)! times `_regularize_string` of each
    chain c of `_weak_chains` (L(c)! times the regularized value of c), with
    L(c) the leading 1s of c.  No zero coefficient is kept."""
    from polyzeta.identities import _regularize_string

    n = factorial(len(block))
    out = Counter()
    for chain in _weak_chains(block):
        ones = len(chain) - len(tuple(dropwhile(lambda e: e == 1, chain)))
        for key, c in _regularize_string(chain, alg).items():
            out[key] += n // factorial(ones) * c
    return Counter({key: c for key, c in out.items() if c})


def test_lift_is_the_weak_chain_sum():
    # _lift builds each block's chains from its tail's and takes a chain
    # that opens with an exponent >= 2 as its own monomial; it must equal
    # the sum over `_weak_chains` for every block of length <= 8 and weight
    # <= 11, among them every block of those lengths that the catalogs up
    # to weight 11 reduce, in one algebra as a catalog shares it, and the
    # short ones in a fresh algebra too
    from polyzeta.identities import _lift, _Reversals

    shared, oracle = _Reversals(12), _Reversals(12)
    blocks = [b for n in range(1, 12) for b in _weak_chains((1,) * n) if len(b) <= 8]
    assert len(blocks) == 2047 - 1 - 11 - 55  # less those of 11, 10 and 9 parts
    for block in blocks:
        want = _lift_by_definition(block, oracle)
        assert _lift(block, shared) == want, block
        if len(block) <= 4:
            assert _lift(block, _Reversals(12)) == want, block


def _reversal_by_masks(s) -> FormalSum:
    """zeta(s) + (-1)^k zeta(reversed s), k = len(s), as the inclusion-
    exclusion sum over all 2^(k-1) constraint masks, each mask a cut of s
    into blocks: the sum that reversal_reduction computes by a prefix DP.
    The T-polynomials are summed and multiplied here, scaled by k!, and
    each block's lift is taken from its definition, not from `_lift`."""
    from polyzeta.identities import _regularize_string, _Reversals

    def times(p, q):
        out = Counter()
        for f1, c1 in p.items():
            for f2, c2 in q.items():
                out[tuple(sorted(f1 + f2))] += c1 * c2
        return out

    k = len(s)
    scale = factorial(k)
    radix = sum(s) + 1
    alg = _Reversals(radix)
    lifts: dict = {}
    total = Counter()
    for mask in range(1 << (k - 1)):
        blocks = _blocks(s, mask)
        piece = {(): scale // prod(factorial(len(b)) for b in blocks)}
        for block in blocks:
            if block not in lifts:
                lifts[block] = _lift_by_definition(block, alg)
            lifted = Counter(lifts[block])
            if len(block) == k:  # the reversed string moves to the left
                for key, c in _regularize_string(s[::-1], alg).items():
                    lifted[key] -= scale * c
            piece = times(piece, lifted)
        sign = -1 if bin(mask).count("1") % 2 else 1
        for key, c in piece.items():
            total[key] += sign * c
    # no power of T, whose rank is 1, survives
    assert all(1 not in ranks for ranks, c in total.items() if c)
    return FormalSum(
        (F(c, scale), SpecProduct(tuple(zeta_spec(*_unrank(r, radix)) for r in ranks)))
        for ranks, c in total.items()
    )


def test_reversal_reduction_matches_the_mask_sum():
    # seeded strings of depth 2..8 with interior 1s and repeats
    rng = random.Random(26)
    for _ in range(40):
        inner = tuple(rng.choice((1, 1, 2, 3)) for _ in range(rng.randint(0, 6)))
        s = (rng.randint(2, 3),) + inner + (rng.randint(2, 3),)
        fs = reversal_reduction(s)
        oracle = _reversal_by_masks(s)
        assert fs == oracle, s
        assert render_formal_sum(fs) == render_formal_sum(oracle)


def test_reversal_reduction_validates():
    from polyzeta import DivergenceError

    with pytest.raises(DivergenceError):
        reversal_reduction((1, 2))
    with pytest.raises(DivergenceError):
        reversal_reduction((2, 1))


# -- Bernoulli and closed forms ---------------------------------------------------

def bernoulli(n):
    return paper_forms._bernoulli_numbers(n)[n]


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == F(-1, 2)
    assert bernoulli(2) == F(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(12) == F(-691, 2730)


@given(st.integers(2, 40))
def test_bernoulli_defining_recurrence(n):
    assert sum(comb(n + 1, j) * bernoulli(j) for j in range(n + 1)) == 0


def test_odd_bernoulli_vanish():
    assert all(bernoulli(2 * k + 1) == 0 for k in range(1, 10))


def test_delta_negative_exact_values():
    assert [delta_negative_exact(n) for n in range(6)] == [1, 2, 6, 26, 150, 1082]


def test_delta_negative_matches_direct_sum_through_eight():
    prec = Precision(40)
    for n in range(9):
        got = evaluate_lambda(LambdaSpec.of((-n,), (2,)), prec)
        assert_close(got, delta_negative_exact(n), 35)


def test_delta_one_negative_matches_direct_sum(prec40):
    for n in range(1, 7):
        want = delta_one_negative_exact(n)
        got = evaluate_lambda(LambdaSpec.of((1, -n), (2, 2)), prec40)
        assert_close(got, want, 35)


def test_closed_form_zagier(prec40):
    got = zagier(1, prec40)
    want = pi(prec40) ** 4 * F(1, 360)
    assert_close(got, want, 40)
    assert_close(evaluate_z((3, 1), prec40), got, 38)


def test_closed_form_t4_is_negated_dilog(prec40):
    # T4(m) is t5(m, 0)
    got = t5(1, 0, prec40)
    want = -li2_half(prec40)
    assert_close(got, want, 40)


def test_closed_form_mu_power_empty(prec30):
    assert mu_power(3, 0, prec30) == 1


def test_closed_form_delta_odd(prec40):
    # n=1: delta(1,1) = (ln 2)^2/2
    got = delta_odd(1, prec40)
    want = ln(2, prec40) ** 2 * F(1, 2)
    assert_close(got, want, 40)
    # n=2: delta(1,3) against the evaluator
    got = delta_odd(2, prec40)
    assert_close(evaluate_lambda(delta_spec(1, 3), prec40), got, 38)


def test_closed_form_zeta_li_log(prec40):
    for n in (0, 1, 2):
        got = zeta_li_log(n, prec40)
        want = evaluate_lambda(delta_spec(*((2,) + (1,) * n)), prec40)
        assert_close(got, want, 38)


# -- catalog / export --------------------------------------------------------------

def test_identity_catalog_deterministic(tmp_path):
    cat1 = identity_catalog(5)
    cat2 = identity_catalog(5)
    assert [i.to_json() for i in cat1] == [i.to_json() for i in cat2]
    out = tmp_path / "identities.jsonl"
    with open(out, "w", encoding="utf-8") as fh:
        count = export_identities(cat1, fh)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == count == len(cat1)
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"lhs", "rhs", "tag"}
        assert rec["tag"] in {"duality", "stuffle", "shuffle", "reversal"}


def test_identity_catalog_weight_eight_golden():
    # pinned rendering: any drift in term order or coefficients shows here
    lines = [ident.to_json() for ident in identity_catalog(8)]
    assert len(lines) == 256
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "d81ba9092cd471e8969d69fa7bec293a1a533efa827cd69080af5a1da427857d"


def test_identity_catalog_weight_nine_golden():
    lines = [ident.to_json() for ident in identity_catalog(9)]
    assert len(lines) == 576
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "a9ad4c10c1c9fcdb4801cbf9c5554439a5959a168342bae3c990bbe6068c3f31"


def test_identity_catalog_weight_eleven_golden():
    # the CI exports pin weights 6 and 10; weight 11 adds reductions of
    # depth 9, such as (2, 1, 1, 1, 1, 1, 1, 1, 2) with its seven 1s
    lines = [ident.to_json() for ident in identity_catalog(11)]
    assert len(lines) == 2816
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "74fbe390c1c88be685b5c71819a6d6e9501c48d24240c3fe5ad94c8c228bdb35"


def test_catalog_products_match_the_public_products():
    # the catalog counts its stuffles and shuffles on exponent strings and
    # 0/1 letter codes, and reads its duals off the codes; each identity
    # must equal the public product or `dual_word` dual, and every sum must
    # come out canonical
    from polyzeta.model import dual_word, word_to_lambda

    counts = Counter()
    for ident in identity_catalog(8):
        counts[ident.tag] += 1
        for side in (ident.lhs, ident.rhs):
            assert FormalSum(side.terms) == side, ident.to_json()
        if ident.tag == "stuffle":
            (_, product), = ident.lhs
            assert ident.rhs == stuffle_identity(*product.factors)
        elif ident.tag == "shuffle":
            (_, product), = ident.lhs
            u, v = product.factors
            assert ident.rhs == shuffle_words(lambda_to_word(u), lambda_to_word(v))
        elif ident.tag == "duality":
            (_, spec), = ident.lhs
            dual, sign = dual_word(lambda_to_word(spec))
            assert ident.rhs == FormalSum.single(word_to_lambda(dual), sign)
    assert counts == {"duality": 56, "stuffle": 68, "shuffle": 68, "reversal": 64}


def test_catalog_builds_each_spec_once():
    # within one build, equal spec bodies (and equal words) are one object.
    # Specs are interned, so two live builds share one object per equal
    # spec, and the intern table holds its specs weakly, so no table
    # outlives its build: once both builds and the evaluator's memos are
    # dropped, none of the specs they made is left in it
    def bodies(catalog):
        out = []
        for ident in catalog:
            for _, body in ident.lhs.terms + ident.rhs.terms:
                out.extend(body.factors if isinstance(body, SpecProduct) else (body,))
        return out

    for memo in (evaluate.plan, evaluate.evaluate_lambda):
        memo.cache_clear()
    held = set(model._INTERNED)
    first = bodies(identity_catalog(8))
    table: dict = {}
    for body in first:
        assert table.setdefault(body, body) is body
    second = bodies(identity_catalog(8))
    assert second == first
    again: dict = {}
    for body in second:
        assert again.setdefault(body, body) is body
    specs = [(a, b) for a, b in zip(first, second) if isinstance(a, LambdaSpec)]
    assert specs and all(a is b for a, b in specs)
    built = {a.key for a, _ in specs} - held
    assert len(built) > 100
    del first, second, table, again, specs, body
    gc.collect()
    assert not built & set(model._INTERNED)


def warm_identity_checks():
    """check_all, which runs the 50 checks of weight <= 6 from
    identity_catalog(8) at 40 digits, as the benchmark's identity_session
    runs them, once run so that they are warm."""
    def weight(body):
        if isinstance(body, tuple):
            return len(body)
        factors = body.factors if isinstance(body, SpecProduct) else (body,)
        return sum(f.weight for f in factors)

    prec = Precision(40)
    checks = [
        ident for ident in identity_catalog(8)
        if max((weight(b) for _, b in ident.lhs.terms + ident.rhs.terms), default=0) <= 6
    ]
    assert len(checks) == 50

    def check_all():
        for ident in checks:
            evaluate_formal_sum(ident.lhs, prec) - evaluate_formal_sum(ident.rhs, prec)

    check_all()
    return check_all


def python_calls(run, *args):
    """run(*args) and the Python frames it entered, by file and name."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_filename, frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        result = run(*args)
    finally:
        sys.setprofile(None)
    return calls, result


def test_warm_identity_checks_run_no_model_code():
    # once the checks are warm, a pass over them calls no Python code of
    # model.py: the memos hash and compare interned specs in C (with a
    # Python __hash__ and __eq__ on the spec, a pass made 227 and 126 calls
    # of them)
    calls, _ = python_calls(warm_identity_checks())
    assert calls and not {c: n for c, n in calls.items() if c[0] == model.__file__}
    # a warm evaluate_lambda hit runs no Python frame at all
    prec = Precision(40)
    spec = zeta_spec(3, 1, 2)
    value = evaluate_lambda(spec, prec)
    assert python_calls(evaluate_lambda, spec, prec) == (Counter(), value)


def test_warm_identity_checks_run_one_frame_per_operation():
    # a warm pass over the checks runs the BigReal arithmetic on raw floats:
    # each sum is one linear_combination that reads its values through
    # evaluate_lambda, and the one subtraction skips _coerce, _bits and
    # _bound.  An int coefficient is tested as an int before any test
    # against Fraction, an ABC whose isinstance runs a Python-level
    # __instancecheck__.  Python-level calls of the pass, check_all's own
    # included: 1525 with a term list per sum and BigReal operators through
    # _coerce, _bits and _bound, 839 without, of which 45 and 0 were
    # __instancecheck__
    import abc

    calls, _ = python_calls(warm_identity_checks())
    assert not calls[abc.__file__, "__instancecheck__"]
    names = Counter(name for _, name in calls.elements())
    assert not names["_coerce"] + names["_bits"] + names["_bound"] + names["working_dps"]
    assert names["linear_combination"] == names["evaluate_formal_sum"] == 100
    assert sum(calls.values()) <= 839, calls


def test_catalog_builds_each_product_and_its_text_once():
    # the stuffle and shuffle left sides and the reversal right sides take
    # their products from one table per build: equal products are one
    # object, whose text the build joins once from its factors' texts (every
    # left side of a product holds that one text object, set before any
    # render), and the next build makes its own
    builds = []
    for _ in range(2):
        catalog = identity_catalog(8)
        texts: dict = {}
        for ident in catalog:
            if ident.tag in ("stuffle", "shuffle"):
                [(_, product)] = ident.lhs.terms
                assert ident.lhs._text == "*".join(map(str, product.factors))
                assert texts.setdefault(product, ident.lhs._text) is ident.lhs._text
        lines = [ident.to_json() for ident in catalog]
        table: dict = {}
        for ident in catalog:
            for side in (ident.lhs, ident.rhs):
                for _, body in side.terms:
                    if isinstance(body, SpecProduct):
                        assert table.setdefault(body, body) is body
                        assert "*".join(map(str, body.factors)) in render_formal_sum(side)
        # 68 stuffle and shuffle left sides and 131 reversal products, 64
        # of which are also left sides
        assert len(texts) == 68 and len(table) == 135
        builds.append((lines, table, texts))
    (first, one, texts_one), (second, two, texts_two) = builds
    assert first == second and one == two
    assert not {id(p) for p in one.values()} & {id(p) for p in two.values()}
    assert not {id(t) for p, t in texts_one.items() if len(p.factors) > 1} & {
        id(t) for p, t in texts_two.items() if len(p.factors) > 1
    }


def test_catalog_sides_are_canonical_and_render_as_rebuilt():
    # every side of every weight-10 identity is the canonical sum of its own
    # terms, and its text, which the catalog built from its bodies' texts,
    # is the text of that rebuilt sum
    catalog = identity_catalog(10)
    assert len(catalog) == 1280
    for ident in catalog:
        for side in (ident.lhs, ident.rhs):
            assert side._text is not None, ident.tag
            rebuilt = FormalSum(side.terms)
            assert rebuilt == side and hash(rebuilt) == hash(side)
            assert rebuilt._text is None
            assert render_formal_sum(side) == render_formal_sum(rebuilt), ident.tag


def test_to_json_writes_what_json_dumps_writes():
    # the line is assembled from json's own string quoting; it must match
    # json.dumps with sorted keys byte for byte, escapes included
    odd = FormalSum([(F(-3, 7), zeta_spec(2)), (1, make_word([F(1, 2), 2]))])
    for ident in identity_catalog(6) + [identities.Identity('tag "\\ \u00e9\t', odd, FormalSum())]:
        want = json.dumps(
            {"lhs": render_formal_sum(ident.lhs), "rhs": render_formal_sum(ident.rhs), "tag": ident.tag},
            sort_keys=True,
        )
        assert ident.to_json() == want


@pytest.mark.parametrize("seed", range(4))
def test_dp_columns_held_over_calls_match_fresh_calls(seed):
    # the stuffle and shuffle DPs keep their states, keyed by the pair of
    # prefixes, in a memo that the catalog holds over many calls; every
    # call must count what a fresh call counts, for any left and right
    # factors in any order
    from polyzeta.identities import _shuffle_counts, _stuffle_counts

    rng = random.Random(seed)
    ss = [tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 4))) for _ in range(3)]
    ts = [tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, 5))) for _ in range(30)]
    if seed % 2:  # as the catalog calls them, and in no order
        ts.sort()
    stuffles: dict = {}
    shuffles: dict = {}
    for s in ss:
        for t in ts:
            assert _stuffle_counts(s, t, radix=30, memo=stuffles) == _stuffle_counts(s, t, radix=30)
            c1, c2 = tuple(e % 3 for e in s), tuple(e % 3 for e in t)
            assert _shuffle_counts(c1, c2, 3, shuffles) == _shuffle_counts(c1, c2, 3)
            assert _shuffle_counts(c2, c1, 3, shuffles) == _shuffle_counts(c1, c2, 3)


def test_stuffle_codes_are_the_ranks_of_the_radix():
    # without bases the DP keys each string by its code, which is its rank
    # in the reversal algebra of the same radix; with bases it keys the
    # letter strings, and both count the same paths
    from polyzeta.identities import _Reversals, _stuffle_counts

    alg = _Reversals(10)
    coded = _stuffle_counts((2, 1), (3,), radix=10)
    lettered = _stuffle_counts((2, 1), (3,), ((1, 1), (1,)))
    assert coded == {alg.rank(tuple(e for e, _ in x)): n for x, n in lettered.items()}
    assert sorted(coded) == [alg.rank(s) for s in [(2, 4), (5, 1), (2, 1, 3), (2, 3, 1), (3, 2, 1)]]


def test_catalog_sums_resolve_on_first_evaluation(monkeypatch):
    # the catalog hands out unresolved sums; the first evaluation resolves
    # each term, in term order, to its coefficient and the specs whose
    # product its body is (a word to its own spec), and a later evaluation
    # keeps that resolution.  Values are stubbed: only the resolution is
    # under test
    from polyzeta.model import word_to_lambda

    one = BigReal(1, Precision(10))
    monkeypatch.setattr(identities, "evaluate_lambda", lambda spec, prec: one)
    sides = {id(s): s for ident in identity_catalog(8) for s in (ident.lhs, ident.rhs)}
    words = 0
    for side in sides.values():  # a stuffle and its shuffle share their lhs
        assert side._specs is None, side
        evaluate_formal_sum(side, one.prec)
        resolved = side._specs
        assert len(resolved) == len(side.terms), side
        for (coeff, body), (c, specs) in zip(side.terms, resolved):
            assert c is coeff, side
            if isinstance(body, tuple):
                words += 1
                assert specs == (word_to_lambda(body),)
            elif isinstance(body, LambdaSpec):
                assert specs == (body,)
            else:
                assert specs is body.factors
        evaluate_formal_sum(side, one.prec)
        assert side._specs is resolved
    assert words == 489  # the shuffle right-hand sides' terms


def test_divergent_word_body_raises_on_every_evaluation():
    # a word that cannot be decoded leaves its sum unresolved, a word whose
    # spec diverges resolves but never evaluates: each raises every time
    from polyzeta import DivergenceError

    trailing_zero = FormalSum([(1, zeta_spec(2)), (2, make_word([2, 0]))])
    leading_one = FormalSum([(1, zeta_spec(2)), (-1, make_word([1, 0, 1]))])
    for fs in (trailing_zero, leading_one):
        for _ in range(2):
            with pytest.raises(DivergenceError):
                evaluate_formal_sum(fs, Precision(30))
    assert trailing_zero._specs is None
    assert leading_one._specs[1] == (-1, (LambdaSpec.of((1, 2), (1, 1)),))


def test_identity_catalog_numeric_sample(prec30):
    rng = random.Random(13)
    cat = identity_catalog(5)
    for ident in rng.sample(cat, 8):
        lhs = evaluate_formal_sum(ident.lhs, prec30)
        rhs = evaluate_formal_sum(ident.rhs, prec30)
        assert_close(lhs, rhs, 22)


def test_identity_catalog_weight_six_generates():
    # weight 6 covers every reversal string with interior 1s up to depth 4
    cat = identity_catalog(6)
    tags = {i.tag for i in cat}
    assert tags == {"duality", "stuffle", "shuffle", "reversal"}
    reversals = [i for i in cat if i.tag == "reversal"]
    assert len(reversals) >= 10
    prec = Precision(30)
    lhs = evaluate_formal_sum(reversals[-1].lhs, prec)
    rhs = evaluate_formal_sum(reversals[-1].rhs, prec)
    assert_close(lhs, rhs, 22)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: FormalSum([(1, "x")]), TypeError),
        (lambda: stuffle_identity(LambdaSpec.of((2,), ()), zeta_spec(3)), ValueError),
        # the bases 2 and 1/2 merge into 2 * 1/2 = 1, a pole
        (lambda: rational_stuffle_check((2,), (F(1, 2),)), DomainError),
        (lambda: cyclotomic_expand(LambdaSpec.of((2,), (-4,)), 2), DomainError),
        (lambda: alternating_to_mu((2, -3)), DomainError),
        (lambda: mu_to_compositions((-1,)), DomainError),
        (lambda: delta_mu_dual((0,)), DomainError),
        (lambda: delta_negative_exact(-1), DomainError),
        (lambda: delta_one_negative_exact(0), DomainError),
        (lambda: zagier(-1, Precision(20)), DomainError),
        (lambda: z213(-1, Precision(20)), DomainError),
        (lambda: mu_power(2, -1, Precision(20)), DomainError),
        (lambda: mu_power(F(1, 2), 1, Precision(20)), DomainError),
        (lambda: t5(0, 0, Precision(20)), DomainError),
        (lambda: zeta_li_log(-1, Precision(20)), DomainError),
        (lambda: delta_odd(0, Precision(20)), DomainError),
        (lambda: identity_catalog(2), ValueError),
    ],
    ids=[
        "formal-sum-body", "stuffle-lengths", "stuffle-check-pole", "cyclotomic-square",
        "alternating-negative", "compositions-negative", "dual-zero",
        "delta-negative", "delta-one-negative", "zagier", "z213", "mu-power-n",
        "mu-power-base", "t5", "zeta-li-log", "delta-odd", "catalog-weight",
    ],
)
def test_argument_checks_raise(call, error):
    with pytest.raises(error):
        call()
