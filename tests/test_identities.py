"""Symbolic identity engine: exact structure tests, independent oracles
(rational product rule, truncated lattice counts), and numeric consistency
of every emitter against the evaluator."""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from polyzeta import (
    DomainError,
    LambdaSpec,
    Precision,
    evaluate_lambda,
    evaluate_z,
    identity_catalog,
    lambda_to_word,
    stuffle_identity,
    zeta_spec,
)
from polyzeta.identities import (
    FormalSum,
    SpecProduct,
    alternating_source_spec,
    alternating_to_mu,
    bernoulli,
    cyclotomic_expand,
    delta_odd,
    delta_mu_dual,
    delta_negative_exact,
    delta_one_negative_exact,
    evaluate_formal_sum,
    export_identities,
    li2_half,
    mu_power,
    mu_source_spec,
    mu_to_compositions,
    mu_to_delta,
    rational_stuffle_check,
    render_formal_sum,
    reversal_reduction,
    shuffle_words,
    stuffle_set,
    t4,
    weak_chain_expand,
    zagier,
    zeta_li_log,
)
from polyzeta.model import delta_spec, make_word, mu_spec
from polyzeta.precision import ln, pi

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


# -- stuffle -------------------------------------------------------------------

def test_stuffle_set_depth_one_pair():
    pairs = stuffle_set((5,), (7,), (1,), (1,))
    assert sorted(p[0] for p in pairs) == [(5, 7), (7, 5), (12,)]
    for u, c in pairs:
        assert c == (1,) * len(u)


def test_stuffle_set_base_running_products():
    a, b = F(3), F(5)
    pairs = dict()
    for u, c in stuffle_set((0,), (0,), (a,), (b,)):
        pairs[u] = pairs.get(u, []) + [c]
    assert pairs[(0, 0)] == [(a, a * b), (b, a * b)] or pairs[(0, 0)] == [(b, a * b), (a, a * b)]
    assert pairs[(0,)] == [(a * b,)]


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
    pairs = stuffle_set(s, t, a, b)
    assert len(pairs) == stuffle_count(len(s), len(t))
    fs = stuffle_identity(LambdaSpec.of(s, a), LambdaSpec.of(t, b))
    want = Counter(LambdaSpec.of(u, c) for u, c in pairs)
    assert {body: c for c, body in fs} == want


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


@given(
    st.lists(st.sampled_from([0, 1, -1, 2]), max_size=4),
    st.lists(st.sampled_from([0, 1, -1, 2]), max_size=4),
)
def test_shuffle_multiplicity_and_merges(l1, l2):
    w1 = make_word(l1)
    w2 = make_word(l2)
    fs = shuffle_words(w1, w2)
    assert sum(c for c, _ in fs) == comb(len(w1) + len(w2), len(w1))
    # brute force: one word per choice of the positions that w1 fills
    n, m = len(w1), len(w2)
    want = Counter()
    for pos in combinations(range(n + m), n):
        rest = iter(w2)
        first = iter(w1)
        want[tuple(next(first) if p in pos else next(rest) for p in range(n + m))] += 1
    assert {body: c for c, body in fs} == want

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
    rng = random.Random(8)
    for _ in range(50):
        s = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
        sign, mu = delta_mu_dual(s)
        sign2, back = mu_to_delta(mu.bases)
        assert back == s
        assert sign2 == sign


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


def test_weak_chain_small():
    assert weak_chain_expand((5,)) == FormalSum.single(zeta_spec(5))
    fs = weak_chain_expand((2, 3))
    assert fs == FormalSum([(F(1), zeta_spec(3, 2)), (F(1), zeta_spec(5))])
    fs = weak_chain_expand((2, 3, 4))
    want = FormalSum(
        [
            (F(1), zeta_spec(4, 3, 2)),
            (F(1), zeta_spec(4, 5)),
            (F(1), zeta_spec(7, 2)),
            (F(1), zeta_spec(9)),
        ]
    )
    assert fs == want


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
    for coeff, body in weak_chain_expand(s):
        # zeta strings sum over descending chains; enumerate ascending with
        # the exponents reversed, all variables capped alike
        exps_asc = body.exponents[::-1]
        total = F(0)

        def rec(level, lower, acc):
            nonlocal total
            if level == len(exps_asc):
                total += acc
                return
            for n in range(lower + 1, cap + 1):
                rec(level + 1, n, acc * F(1, n ** exps_asc[level]))

        rec(0, 0, F(1))
        rhs += coeff * total
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
    # rationals, including strings with repeated leading 1s
    from polyzeta.identities import _regularize_string

    cap = 14
    harmonic = sum((F(1, n) for n in range(1, cap + 1)), F(0))
    for entries in [(1, 2), (1, 3, 2), (1, 1, 2), (1, 1, 1, 2), (1, 2, 1, 3)]:
        lhs = _truncated_zeta(entries, cap)
        rhs = F(0)
        # keys are (degree of T, sorted convergent factor strings)
        for (degree, factors), coeff in _regularize_string(entries, {}).items():
            assert all(f and f[0] != 1 for f in factors)
            prod = F(coeff)
            for factor in factors:
                prod *= _truncated_zeta(factor, cap)
            rhs += harmonic ** degree * prod
        assert lhs == rhs, entries


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


def test_reversal_reduction_validates():
    from polyzeta import DivergenceError

    with pytest.raises(DivergenceError):
        reversal_reduction((1, 2))
    with pytest.raises(DivergenceError):
        reversal_reduction((2, 1))


# -- Bernoulli and closed forms ---------------------------------------------------

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
    got = t4(1, prec40)
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
