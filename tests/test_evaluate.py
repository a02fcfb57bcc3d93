"""Numeric evaluation: direct sums against exact/independent oracles, split
structure, dispatcher routes, and truncation soundness."""

import math
import random
from fractions import Fraction
from itertools import combinations

import mpmath as mp
import pytest

from polyzeta import (
    BigReal,
    DivergenceError,
    DomainError,
    LambdaSpec,
    Precision,
    dual_word,
    evaluate_lambda,
    evaluate_z,
    evaluate_zp,
    lambda_from_z_string,
    lambda_to_word,
    word_to_lambda,
    zeta_spec,
)
from polyzeta import evaluate
from polyzeta.evaluate import (
    _suffix_sums,
    evaluate_J,
    evaluate_word,
    holder_split,
    plan_nested_sum,
)
from polyzeta.model import delta_spec, make_word
from polyzeta.precision import ln, pi
from polyzeta.acceptance import word_corpus
from conftest import random_z_entries

F = Fraction


def tol(exp10):
    return F(1, 10 ** exp10)


def assert_close(a, b, exp10):
    assert abs(a - b).to_fraction() < tol(exp10)


# -- direct summation ---------------------------------------------------------

def test_direct_base_two_unit_is_log_two(prec40):
    got = evaluate_lambda(delta_spec(1), prec40)
    assert_close(got, ln(2, prec40), 40)


def test_zero_exponents_collapse_to_rational(prec40):
    got = evaluate_lambda(LambdaSpec.of((0, 0), (3, 2)), prec40)
    assert_close(got, F(1, 2), 40)


def test_negative_exponent_values(prec40):
    for n, want in [(1, 2), (2, 6), (3, 26)]:
        got = evaluate_lambda(LambdaSpec.of((-n,), (2,)), prec40)
        assert_close(got, want, 38)


def test_direct_rejects_divergent(prec40):
    with pytest.raises(DivergenceError):
        evaluate_lambda(LambdaSpec.of((1,), (1,)), prec40)


def test_suffix_kernel_matches_exact_partial_sums():
    # the full value after n steps must equal the exact truncated nested sum,
    # in the every-suffix pass and in the full-value pass
    spec = delta_spec(2, 1)
    exact = F(0)
    for n1 in range(1, 13):
        for n2 in range(1, n1):
            exact += F(1, 2 ** (n1 - n2) * 2 ** n2) / (n1 ** 2 * n2)
    for every_suffix in (True, False):
        values, bits = _suffix_sums(spec, 12, 50, every_suffix)
        assert abs(F(values[0], 2 ** bits) - exact) < F(10) ** -45, every_suffix


def full_value_specs():
    """Specs the direct and dual routes hand to the full-value pass."""
    rng = random.Random(8)
    mixed = [F(2), F(-2), F(3, 2), F(5, 2), F(-3)]
    specs = [LambdaSpec.of((s,), (2,)) for s in range(1, 6)]
    specs += [LambdaSpec.of(exps, (F(3, 2),) * len(exps)) for exps in [(3,), (2, 1), (1, 2, 2)]]
    specs += [
        LambdaSpec.of(tuple(rng.randint(1, 4) for _ in range(4)), tuple(rng.sample(mixed, 4)))
        for _ in range(6)
    ]
    specs += [LambdaSpec.of((2, -1, 0), (F(-7, 4), 3, 2)), LambdaSpec.of((-3,), (2,))]
    dual, _ = dual_word(lambda_to_word(lambda_from_z_string((-1,) * 4)))
    specs.append(word_to_lambda(dual))
    return specs


def test_full_value_pass_matches_every_suffix_pass():
    # the direct and dual routes read values[0] only; the full-value pass
    # must give it bit for bit, at the same bits
    specs = full_value_specs()
    assert evaluate._geometric(specs[-1].bases)  # the dual takes the direct pass
    for spec in specs:
        for dps in (30, 120):
            terms = plan_nested_sum(spec, -dps).terms
            every, bits = _suffix_sums(spec, terms, dps)
            full, full_bits = _suffix_sums(spec, terms, dps, every_suffix=False)
            assert (full, full_bits) == ([every[0]], bits), (spec, dps)


def two_division_suffix_sums(spec, terms, dps, every_suffix=True):
    """The kernel before its division plan: each level and step divides by
    its base as a * den // num, then by n^s_j (or s_j times by n)."""
    bits = math.ceil(dps * math.log2(10)) + evaluate._rounding_bits(spec, terms)
    one = 1 << bits
    k = spec.depth
    nums = [b.numerator for b in spec.bases]
    dens = [b.denominator for b in spec.bases]
    exps = spec.exponents
    inner = [0] * (k - 1) + [one]
    if not every_suffix:
        total = 0
        for n in range(1, terms + 1):
            scaled = [a * den // num for a, den, num in zip(inner, dens, nums)]
            for j, s in enumerate(exps):
                t = scaled[j] // n ** s if s > 0 else scaled[j] * n ** -s
                if j:
                    inner[j - 1] = scaled[j - 1] + t
                else:
                    total += t
            inner[k - 1] = scaled[k - 1]
        return [total], bits

    sums = [[0] * max(s, 1) for s in exps]
    for n in range(1, terms + 1):
        scaled = [a * den // num for a, den, num in zip(inner, dens, nums)]
        for j, s in enumerate(exps):
            t = scaled[j]
            row = sums[j]
            if s > 0:
                for i in range(s):
                    t //= n
                    row[i] += t
            else:
                t *= n ** -s
                row[0] += t
            if j:
                inner[j - 1] = scaled[j - 1] + t
        inner[k - 1] = scaled[k - 1]
    values = [v for row in sums for v in reversed(row)]
    values.append(one)
    return values, bits


# power-of-two and other numerators and denominators, of both signs
PLAN_BASES = [F(2), F(-2), F(4), F(-4), F(3), F(-3),
              F(3, 2), F(-3, 2), F(5, 2), F(5, 4), F(7, 3), F(-7, 4)]
PLAN_EXPONENTS = [-1, 0, 1, 2, 3, 6]


def division_plan_corpus():
    """Seeded (spec, terms) over PLAN_BASES and PLAN_EXPONENTS at depths
    1-4; each pass runs about twice as long as it takes some level's
    |num| * n^s to pass 2^30, where the divisor n^s grows past one 30-bit
    digit of a Python int."""
    rng = random.Random(1729)
    corpus = []
    while len(corpus) < 24:
        depth = 1 + len(corpus) % 4
        spec = LambdaSpec.of(
            tuple(rng.choice(PLAN_EXPONENTS) for _ in range(depth)),
            tuple(rng.choice(PLAN_BASES) for _ in range(depth)),
        )
        crossings = []
        for s, b in spec.terms:
            if s >= 3:
                n = 1
                while abs(b.numerator) * n ** s <= 2 ** 30:
                    n += 1
                crossings.append(n)
        if crossings and min(crossings) <= 600:
            corpus.append((spec, 2 * min(crossings)))
    return corpus


def test_division_plan_matches_the_two_division_kernel():
    # shifts replace multiplies and divisions by powers of two; every value
    # and the bits must stay what the plain floor divisions give
    corpus = division_plan_corpus()
    assert {b for spec, _ in corpus for b in spec.bases} == set(PLAN_BASES)
    assert {s for spec, _ in corpus for s in spec.exponents} == set(PLAN_EXPONENTS)
    for spec, terms in corpus:
        for dps in (30, 200):
            for every_suffix in (True, False):
                got = _suffix_sums(spec, terms, dps, every_suffix)
                want = two_division_suffix_sums(spec, terms, dps, every_suffix)
                assert got == want, (spec, terms, dps, every_suffix)


def nested_sum_ratios(spec):
    """x_j = b_{j-1}/b_j with b_0 = 1: the ratios of the nested-sum form."""
    bases = (F(1),) + spec.bases
    return [prev / b for prev, b in zip(bases, bases[1:])]


def exact_partial_sum(spec, n):
    """Sum over n >= n_1 > ... > n_k >= 1 of prod x_j^n_j n_j^-s_j, exactly."""
    pairs = list(zip(spec.exponents, nested_sum_ratios(spec)))
    # inner[j]: the sum over levels j.. with the top index at most m
    inner = [F(0)] * len(pairs) + [F(1)]
    for m in range(1, n + 1):
        for j, (s, x) in enumerate(pairs):
            inner[j] += x ** m * F(m) ** -s * inner[j + 1]
    return inner[0]


def suffix_specs(spec):
    """Every suffix of spec in kernel order: block j yields exponents
    s_j, s_j - 1, ..., 1 (only s_j itself when s_j <= 0), then the empty spec."""
    out = []
    for j, (s, b) in enumerate(spec.terms):
        for head in range(s, 0, -1) if s > 0 else (s,):
            out.append(LambdaSpec(((head, b),) + spec.terms[j + 1:]))
    return out + [LambdaSpec(())]


def test_suffix_kernel_every_suffix_matches_exact():
    # the oracle itself against the sum over index tuples n_1 > n_2 > n_3
    spec = LambdaSpec.of((1, 2, 1), (-2, F(3, 2), 4))
    x = nested_sum_ratios(spec)
    brute = F(0)
    for idx in combinations(range(10, 0, -1), 3):
        term = F(1)
        for (s, _), xj, nj in zip(spec.terms, x, idx):
            term *= xj ** nj * F(nj) ** -s
        brute += term
    assert exact_partial_sum(spec, 10) == brute

    # the left half of the z(-2,1,-3) split has bases (2, 2, 4, 4, 2): its
    # last ratio b_4/b_5 = 2 exceeds 1, so x^n grows while b^-n shrinks;
    # holding those apart as fixed-point powers loses the inner sums once
    # 4^-n drops below 2^-bits, which 90 steps at 30 digits reach
    word = lambda_to_word(lambda_from_z_string((-2, 1, -3)))
    left = holder_split(word, F(2))[-1].left
    assert left == LambdaSpec.of((2, 1, 1, 1, 1), (2, 2, 4, 4, 2))
    cases = [
        (left, 90, 30),
        (LambdaSpec.of((3, 1, 2), (F(5, 4), -3, F(3, 2))), 40, 50),
        (LambdaSpec.of((2, -1, 0), (F(-7, 4), 3, 2)), 40, 50),
    ]
    for spec, steps, dps in cases:
        values, bits = _suffix_sums(spec, steps, dps)
        suffixes = suffix_specs(spec)
        assert len(values) == len(suffixes)
        for got, suffix in zip(values, suffixes):
            want = exact_partial_sum(suffix, steps)
            assert abs(F(got, 2 ** bits) - want) < F(10) ** -dps, suffix
        (full,), full_bits = _suffix_sums(spec, steps, dps, every_suffix=False)
        want = exact_partial_sum(spec, steps)
        assert abs(F(full, 2 ** full_bits) - want) < F(10) ** -dps, spec


def test_truncation_soundness():
    prec = Precision(35)
    rng = random.Random(11)
    specs = [
        delta_spec(2, 1),
        delta_spec(1, 1, 1),
        LambdaSpec.of((1, -2), (2, 2)),
        LambdaSpec.of((2,), (F(3, 2),)),
        LambdaSpec.of((1, 3), (-2, 4)),
    ]
    for spec in specs:
        plan = plan_nested_sum(spec, -(prec.digits + prec.guard / 2))
        base, bits = _suffix_sums(spec, plan.terms, prec.working_dps)
        more, more_bits = _suffix_sums(spec, plan.terms + 25, prec.working_dps)
        diff = F(more[0], 2 ** more_bits) - F(base[0], 2 ** bits)
        assert abs(diff) < F(10) ** int(plan.tail_log10 + 1)


# -- split structure ----------------------------------------------------------

def test_split_of_weight_three_word():
    word = make_word((0, 0, 1))  # encodes the weight-3 depth-1 MZV
    terms = holder_split(word, F(2))
    assert [t.split_index for t in terms] == [0, 1, 2, 3]
    assert [t.sign for t in terms] == [1, 1, 1, 1]
    assert terms[0].left.depth == 0 and terms[0].right == delta_spec(3)
    assert terms[1].left == delta_spec(1) and terms[1].right == delta_spec(2)
    assert terms[2].left == delta_spec(1, 1) and terms[2].right == delta_spec(1)
    assert terms[3].left == delta_spec(2, 1) and terms[3].right.depth == 0


def test_split_term_count_and_empty_halves():
    for word in word_corpus(10, 8, seed=5):
        terms = holder_split(word, F(2))
        assert len(terms) == len(word) + 1
        assert terms[0].left.depth == 0
        assert terms[-1].right.depth == 0


def test_split_last_term_is_scaled_dual():
    # the r = weight term carries the full dual string scaled by q
    word = lambda_to_word(zeta_spec(2, 1, 2, 1, 1, 1))
    terms = holder_split(word, F(2))
    assert terms[-1].sign == 1
    assert terms[-1].left == delta_spec(5, 3)

    word = lambda_to_word(LambdaSpec.of((2, 1), (1, -1)))
    terms = holder_split(word, F(3))
    assert len(terms) == 4
    assert terms[-1].sign == -1
    assert terms[-1].left == LambdaSpec.of((1, 2), (3, F(3, 2)))


def test_split_rejects_bad_parameter():
    with pytest.raises(DomainError):
        holder_split(make_word((0, 1)), F(1))


# -- dispatcher ---------------------------------------------------------------

def test_euler_identity(prec50):
    assert_close(evaluate_z((2, 1), prec50), evaluate_z((3,), prec50), 45)


def test_alternating_duality_pair(prec50):
    a = evaluate_lambda(LambdaSpec.of((2, 1), (1, -1)), prec50)
    b = evaluate_lambda(LambdaSpec.of((1, 2), (2, 1)), prec50)
    assert_close(a, -b, 45)


def test_unit_base_two_powers(prec40):
    got = evaluate_lambda(delta_spec(1, 1, 1, 1), prec40)
    want = ln(2, prec40) ** 4 * F(1, 24)
    assert_close(got, want, 40)


def test_evaluate_rejects_divergent(prec40):
    with pytest.raises(DivergenceError):
        evaluate_lambda(zeta_spec(1, 2), prec40)


def test_nonpositive_exponent_unit_base_diverges(prec40):
    with pytest.raises(DivergenceError):
        evaluate_lambda(LambdaSpec.of((-1,), (1,)), prec40)


def test_nonpositive_exponent_below_threshold_sums_directly(prec40):
    # convergent, no word encoding, base below 3/2: slow-ratio direct pass
    spec = LambdaSpec.of((2, -1), (F(5, 4), F(5, 4)))
    got = evaluate_lambda(spec, prec40)
    with mp.workdps(90):
        want = mp.mpf(0)
        for n1 in range(2, 700):
            inner = sum(mp.mpf(n2) for n2 in range(1, n1))
            want += (mp.mpf(4) / 5) ** n1 / n1 ** 2 * inner
        assert abs(got.mpf - want) < mp.mpf(10) ** -38


def test_zp_values(prec50):
    assert_close(evaluate_zp(2, (1,), prec50), ln(2, prec50), 45)
    want = pi(prec50) ** 2 * F(1, 6)
    assert_close(evaluate_zp(1, (2,), prec50), want, 45)
    # 12 z(3) - pi^2 ln 2 - 12 zp(2,2,1) - 12 zp(2,3) = 0
    combo = (
        evaluate_z((3,), prec50) * 12
        - pi(prec50) ** 2 * ln(2, prec50)
        - evaluate_zp(2, (2, 1), prec50) * 12
        - evaluate_zp(2, (3,), prec50) * 12
    )
    assert abs(combo).to_fraction() < tol(45)


def test_zp_validation(prec40):
    with pytest.raises(DivergenceError):
        evaluate_zp(1, (1, 2), prec40)
    with pytest.raises(DomainError):
        evaluate_zp(F(1, 2), (2,), prec40)
    with pytest.raises(DomainError):
        evaluate_zp(2, (0,), prec40)


def test_zp_below_geometric_threshold(prec40):
    # base 5/4 forces the adaptive conjugate pair; check against the
    # library polylog since zp(p, s) at depth 1 is Li_s(1/p)
    got = evaluate_zp(F(5, 4), (2,), prec40)
    with mp.workdps(80):
        want = mp.polylog(2, mp.mpf(4) / 5)
        assert abs(got.mpf - want) < mp.mpf(10) ** -40


def brute_J(x: Fraction, terms: int, dps: int) -> mp.mpf:
    # J(x) = sum_n x^n / n^2 * H_{n-1}, straight summation oracle
    with mp.workdps(dps):
        xv = mp.mpf(x.numerator) / x.denominator
        total = mp.mpf(0)
        harmonic = mp.mpf(0)
        power = mp.mpf(1)
        for n in range(1, terms + 1):
            power *= xv
            total += power / n ** 2 * harmonic
            harmonic += mp.mpf(1) / n
        return total


def test_J_values(prec40):
    assert evaluate_J(0, prec40) == 0
    assert_close(evaluate_J(1, prec40), evaluate_z((2, 1), prec40), 38)
    for x in (F(3, 10), F(-3, 10), F(120, 169)):
        got = evaluate_J(x, prec40)
        want = brute_J(x, 700, 80)
        assert abs(got.mpf - want) < mp.mpf(10) ** -38
    with pytest.raises(DomainError):
        evaluate_J(F(11, 10), prec40)


def test_J_functional_equation(prec40):
    x = F(3, 10)
    residual = (
        evaluate_J(-x, prec40)
        + evaluate_J(x, prec40)
        - evaluate_J(x * x, prec40) * F(1, 4)
        - evaluate_J(2 * x / (x + 1), prec40)
        + evaluate_J(4 * x / (x + 1) ** 2, prec40) * F(1, 8)
    )
    assert abs(residual).to_fraction() < tol(35)


# -- route invariances ----------------------------------------------------------

def test_split_parameter_invariance_small(prec40):
    from polyzeta import BigReal

    words = word_corpus(4, 6, seed=9)
    for word in words:
        values = []
        for p in (F(2), F(3), F(3, 2)):
            total = BigReal(0, prec40)
            for term in holder_split(word, p):
                total = total + (
                    evaluate_lambda(term.left, prec40)
                    * evaluate_lambda(term.right, prec40)
                    * term.sign
                )
            values.append(total)
        for v in values[1:]:
            assert_close(values[0], v, 38)


def test_duality_invariance_numeric(prec40):
    for word in word_corpus(6, 7, seed=10):
        dual, sign = dual_word(word)
        assert_close(evaluate_word(word, prec40), evaluate_word(dual, prec40) * sign, 38)


def test_mixed_base_words_route_invariance():
    # words with bases off the unit circle exercise the scaled complements
    # and the adaptive conjugate parameter; all routes must agree
    prec = Precision(35)
    rng = random.Random(2024)
    base_pool = [F(1), F(-1), F(2), F(-2), F(3, 2), F(3)]
    checked = 0
    while checked < 25:
        length = rng.randint(2, 6)
        word = tuple(
            rng.choice([F(0)] + base_pool) for _ in range(length)
        )
        if word[-1] == 0 or word[0] == 1 or all(a == 0 for a in word):
            continue
        values = []
        from polyzeta import BigReal

        # q = 3 at p = 3/2 clears every complement modulus in the pool
        for p in (F(2), F(3), F(3, 2)):
            total = BigReal(0, prec)
            usable = True
            for term in holder_split(word, p):
                for half in (term.left, term.right):
                    if half.depth and min(abs(b) for b in half.bases) <= 1:
                        usable = False
                if not usable:
                    break
                total = total + (
                    evaluate_lambda(term.left, prec)
                    * evaluate_lambda(term.right, prec)
                    * term.sign
                )
            if usable:
                values.append(total)
        values.append(evaluate_word(word, prec))  # dispatcher route
        try:
            dual, sign = dual_word(word)
            values.append(evaluate_word(dual, prec) * sign)
        except DivergenceError:
            pass
        assert len(values) >= 2
        for v in values[1:]:
            assert abs(values[0] - v).to_fraction() < tol(30)
        checked += 1


def test_two_hundred_digit_values():
    prec = Precision(200)
    z3 = evaluate_z((3,), prec)
    with mp.workdps(260):
        assert abs(z3.mpf - mp.zeta(3)) < mp.mpf(10) ** -200
    alt = evaluate_z((-1,), prec)  # -log 2 via the alternating unit sum
    assert abs(alt + ln(2, prec)).to_fraction() < F(1, 10 ** 200)


def contract_corpus():
    """Specs on every route, and a weight-7 +-1 word for fixed-p splits."""
    rng = random.Random(41)
    corpus = [
        # +-1 bases: the Hoelder split at p = 2
        *(lambda_from_z_string(random_z_entries(rng, max_weight=9)) for _ in range(4)),
        # duals with every base 2: the dual route
        lambda_from_z_string((-1,)),
        lambda_from_z_string((-1, 1, -1)),
        lambda_from_z_string((-1, -1, -1, -1)),
        # complements 1 - 5/4 and 1 - 4/3 force an adaptive p != 2
        LambdaSpec.of((2, 1), (F(5, 4), F(4, 3))),
        LambdaSpec.of((1, 2), (-2, F(4, 3))),
        # no word encoding: the direct pass at ratio 4/5
        LambdaSpec.of((2, -1), (F(5, 4), F(5, 4))),
    ]

    def entries_of_weight(weight):
        while True:
            entries = random_z_entries(rng, max_weight=weight, max_depth=6)
            if sum(abs(e) for e in entries) == weight:
                return entries

    # weights 10 to 12 on the dispatcher's own routes
    corpus += [lambda_from_z_string(entries_of_weight(w)) for w in (10, 11, 12, 12)]
    # Hoelder splits of a +-1 word at fixed p: every half is summed directly,
    # the right halves at ratio p and the left ones at q or 2q (1/p + 1/q = 1)
    split_word = lambda_to_word(lambda_from_z_string(entries_of_weight(7)))
    return corpus, split_word


def test_digit_contract_against_thirty_more_digits():
    # |value at d digits - value at d + 30 digits| < 10^-d on every route
    corpus, split_word = contract_corpus()

    def split_value(word, p, prec):
        return sum(
            (
                evaluate_lambda(t.left, prec) * evaluate_lambda(t.right, prec) * t.sign
                for t in holder_split(word, p)
            ),
            BigReal(0, prec),
        )

    for d in (30, 50, 200):
        for spec in corpus:
            low = evaluate_lambda(spec, Precision(d)).to_fraction()
            high = evaluate_lambda(spec, Precision(d + 30)).to_fraction()
            assert abs(low - high) < F(1, 10 ** d), (spec, d)
        for p in (F(2), F(3), F(3, 2)):
            low = split_value(split_word, p, Precision(d)).to_fraction()
            high = split_value(split_word, p, Precision(d + 30)).to_fraction()
            assert abs(low - high) < F(1, 10 ** d), (p, d)


def test_values_carry_their_working_digits():
    # before its final rounding every value is within 10^-W, W = d + 20 the
    # working digits, so the values at d and d + 30 digits agree to
    # 10^-(d + 19) relative to max(1, |v|), which leaves room for the rounding
    corpus, _ = contract_corpus()
    corpus += [
        lambda_from_z_string((2, 1) * 8),  # weight 24, depth 16
        lambda_from_z_string((2, 1) * 12),  # weight 36, depth 24
        lambda_from_z_string((3, 1) * 6),  # weight 24, depth 12
        # the complement 1 - 11/10 forces p close to 1
        LambdaSpec.of((2, 1), (F(11, 10), -1)),
        # nonpositive exponents: the direct pass, large values
        LambdaSpec.of((3, 0, -2), (2, 3, F(7, 4))),
        LambdaSpec.of((-5,), (2,)),
        # every base at least 3/2: the direct pass
        LambdaSpec.of((2, 3), (3, F(7, 4))),
    ]
    cases = [(spec, lambda prec, spec=spec: evaluate_lambda(spec, prec), (30, 50, 200))
             for spec in corpus]
    cases.append(("z(200)", lambda prec: evaluate_z((200,), prec), (50,)))
    for label, make, digits in cases:
        for d in digits:
            low = make(Precision(d)).to_fraction()
            high = make(Precision(d + 30)).to_fraction()
            assert abs(low - high) < F(1, 10 ** (d + 19)) * max(1, abs(high)), (label, d)


def random_split_specs(seed):
    """Convergent specs with bases near the unit circle that take the split,
    many of them at an adaptive p."""
    rng = random.Random(seed)
    base_pool = [F(1), F(-1), F(-2), F(5, 4), F(4, 3), F(11, 10), F(-3, 2)]
    while True:
        depth = rng.randint(1, 4)
        exps = tuple(rng.randint(1, 3) for _ in range(depth))
        spec = LambdaSpec.of(exps, tuple(rng.choice(base_pool) for _ in exps))
        if spec.is_convergent() and len(evaluate._route(spec)[0]) == 2:
            yield spec


def test_split_pass_suffixes_stay_within_their_bound():
    # every suffix of a scaled word is at most M = prod max(1, 1/(|b_j| - 1)),
    # the bound the split's error budget multiplies by
    dps = 30
    checked = adaptive = 0
    for spec in random_split_specs(606):
        if checked == 40:
            break
        right, left = evaluate._route(spec)[0]
        adaptive += right.bases[0] != 2 * spec.bases[0]  # right is p * word
        for pass_spec in (right, left):
            bound = evaluate._suffix_bound(pass_spec.bases)
            terms = plan_nested_sum(pass_spec, -dps).terms
            values, bits = _suffix_sums(pass_spec, terms, dps)
            for v in values:
                # each value is within 2*10^-dps of the suffix it sums
                assert abs(F(v, 2 ** bits)) <= bound + F(2, 10 ** dps), (spec, pass_spec)
        checked += 1
    assert adaptive >= 10


def assert_route_is_holder_split(word, p):
    passes, signs, _ = evaluate._route(word_to_lambda(word))
    terms = holder_split(word, p)
    assert passes == (terms[0].right, terms[-1].left), word
    assert signs == tuple(t.sign for t in terms), word


def test_route_split_matches_holder_split():
    # the split's passes are the r = 0 right half and the r = weight left
    # half, and its signs are the split's, at p = 2 on +-1 words ...
    split_words = [
        word for word in word_corpus(60, 9, seed=21)
        if len(evaluate._route(word_to_lambda(word))[0]) == 2
    ]
    assert len(split_words) >= 40
    for word in split_words:
        assert_route_is_holder_split(word, F(2))
    # ... and at the adaptive p of bases off the unit circle
    adaptive = 0
    for spec in random_split_specs(77):
        word = lambda_to_word(spec)
        p = evaluate._split_parameter(word)
        if p != 2:
            assert_route_is_holder_split(word, p)
            adaptive += 1
            if adaptive == 12:
                break


def test_route_direct_and_dual_make_one_pass():
    spec = LambdaSpec.of((2, 1), (3, F(-7, 4)))
    assert evaluate._route(spec) == ((spec,), (1,), 2)
    spec = LambdaSpec.of((2, -1), (F(5, 4), F(5, 4)))  # no word encoding
    assert evaluate._route(spec) == ((spec,), (1,), 2)
    # z(-1, -1, -1): bases -1, 1, -1; the dual word has bases 2, 2
    spec = lambda_from_z_string((-1, -1, -1))
    dual, sign = dual_word(lambda_to_word(spec))
    assert evaluate._route(spec) == ((word_to_lambda(dual),), (sign,), 2)


def test_evaluate_lambda_never_calls_holder_split(monkeypatch):
    prec = Precision(40)
    specs = [
        lambda_from_z_string((2, 1)),
        lambda_from_z_string((-2, 1, -3)),
        LambdaSpec.of((2, 1), (F(5, 4), F(4, 3))),
    ]
    oracles = []
    for spec in specs:
        word = lambda_to_word(spec)
        assert len(evaluate._route(spec)[0]) == 2
        terms = holder_split(word, evaluate._split_parameter(word))
        oracles.append(sum(
            (evaluate_lambda(t.left, prec) * evaluate_lambda(t.right, prec) * t.sign
             for t in terms),
            BigReal(0, prec),
        ))

    def no_split(*args):
        raise AssertionError("evaluate_lambda called holder_split")

    monkeypatch.setattr(evaluate, "holder_split", no_split)
    evaluate_lambda.cache_clear()
    for spec, oracle in zip(specs, oracles):
        assert_close(evaluate_lambda(spec, prec), oracle, 38)


def test_printed_precision_semantics():
    # printed value at N digits matches the (N+10)-digit run truncated
    for make in (
        lambda p: evaluate_z((3,), p),
        lambda p: evaluate_zp(2, (2, 1), p),
        lambda p: evaluate_J(F(7, 10), p),
    ):
        low = str(make(Precision(30)))
        from polyzeta import BigReal

        high = str(BigReal(make(Precision(40)).mpf, Precision(30)))
        assert low == high
