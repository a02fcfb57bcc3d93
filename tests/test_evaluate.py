"""Numeric evaluation: direct sums against exact/independent oracles, split
structure, dispatcher routes, and truncation soundness."""

import hashlib
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
    UnsupportedSpec,
    dual_word,
    evaluate_lambda,
    evaluate_z,
    evaluate_zp,
    lambda_from_z_string,
    lambda_to_word,
    parse_spec,
    word_to_lambda,
    zeta_spec,
)
from polyzeta import acceptance, evaluate, identities
from polyzeta.evaluate import (
    evaluate_J,
    evaluate_word,
    holder_split,
    plan,
    plan_nested_sum,
)
from polyzeta.model import delta_spec, make_word
from polyzeta.precision import linear_combination, ln, pi
from polyzeta.acceptance import random_z_entries, word_corpus

from conftest import libmp_raw, mpf

F = Fraction


def tol(exp10):
    return F(1, 10 ** exp10)


def assert_close(a, b, exp10):
    assert abs(a - b).to_fraction() < tol(exp10)


def pass_bits(spec, terms, dps):
    """The bits that keep `terms` kernel steps over spec within 10^-dps."""
    return math.ceil(dps * math.log2(10)) + evaluate._rounding_bits(spec, terms)


def suffix_sums(spec, terms, dps, every_suffix=True):
    """(values, bits): the compiled pass over spec, run for `terms` steps at
    pass_bits(spec, terms, dps)."""
    bits = pass_bits(spec, terms, dps)
    bases = tuple((b.numerator, b.denominator) for b in spec.bases)
    return evaluate._compiled_pass(spec.exponents, bases, every_suffix)(terms, 1 << bits), bits


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
        values, bits = suffix_sums(spec, 12, 50, every_suffix)
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
    assert evaluate._geometric(specs[-1].key[2])  # the dual takes the direct pass
    for spec in specs:
        for dps in (30, 120):
            terms = plan_nested_sum(spec, -dps).terms
            every, bits = suffix_sums(spec, terms, dps)
            full, full_bits = suffix_sums(spec, terms, dps, every_suffix=False)
            assert (full, full_bits) == ([every[0]], bits), (spec, dps)


def two_division_suffix_sums(spec, terms, dps, every_suffix=True):
    """The kernel as an interpreted loop over lists: each level and step
    divides by its base as a * den // num, then by n^s_j (or s_j times by
    n)."""
    bits = pass_bits(spec, terms, dps)
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


def mixed_kernel_corpus():
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


def deep_kernel_corpus():
    """Seeded (spec, terms) as deep as the split passes of weight-10 words:
    depths 8-10, exponents 1-9 (each spec has a 9), bases all +-2 or all
    3/2, each run for its plan's length at 200 digits."""
    rng = random.Random(2718)
    corpus = []
    for depth in (8, 9, 10):
        for choices in ([F(2), F(-2)], [F(3, 2)]):
            exponents = [rng.randint(1, 9) for _ in range(depth - 1)] + [9]
            rng.shuffle(exponents)
            spec = LambdaSpec.of(exponents, [rng.choice(choices) for _ in range(depth)])
            corpus.append((spec, plan_nested_sum(spec, -200).terms))
    return corpus


def test_compiled_pass_matches_the_two_division_kernel():
    # the compiled pass shifts where a numerator or denominator is a power
    # of two and unrolls the divisions by n; every value and the bits must
    # stay what the plain floor divisions of the interpreted loop give
    mixed, deep = mixed_kernel_corpus(), deep_kernel_corpus()
    assert {b for spec, _ in mixed for b in spec.bases} == set(PLAN_BASES)
    assert {s for spec, _ in mixed for s in spec.exponents} == set(PLAN_EXPONENTS)
    assert {spec.depth for spec, _ in deep} == {8, 9, 10}
    assert {b for spec, _ in deep for b in spec.bases} == {F(2), F(-2), F(3, 2)}
    assert all(max(spec.exponents) == 9 for spec, _ in deep)
    for spec, terms in mixed + deep:
        for dps in (30, 200):
            for every_suffix in (True, False):
                got = suffix_sums(spec, terms, dps, every_suffix)
                want = two_division_suffix_sums(spec, terms, dps, every_suffix)
                assert got == want, (spec, terms, dps, every_suffix)


@pytest.mark.parametrize("exponents, bases", [
    (("2",), ((2, 1),)), ((2.0,), ((2, 1),)), ((True,), ((2, 1),)),
    ((2,), (("2", 1),)), ((2,), ((2.0, 1),)), ((2,), ((True, 1),)),
    ((2,), ((3, "2"),)), ((2,), ((3, 2.0),)), ((2,), ((3, True),)),
])
def test_compiled_pass_takes_ints_only(monkeypatch, exponents, bases):
    # the pass source is exec'd, so anything but a plain int is refused
    # before any source runs
    def no_exec(*args):
        raise AssertionError("exec reached")

    evaluate._compiled_pass.cache_clear()
    monkeypatch.setattr(evaluate, "exec", no_exec, raising=False)
    for every_suffix in (True, False):
        with pytest.raises(TypeError, match="takes int exponents"):
            evaluate._compiled_pass(exponents, bases, every_suffix)


def test_long_level_and_deep_dual_pass():
    # z(120) splits into a 120-line unrolled level and a depth-119 dual
    prec = Precision(10)
    passes = plan(zeta_spec(120), prec).passes
    assert [run.spec.exponents[0] for run in passes] == [120, 2]
    assert [run.spec.depth for run in passes] == [1, 119]
    got = evaluate_z((120,), prec)
    with mp.workdps(40):
        assert abs(mpf(got) - mp.zeta(120)) < mp.mpf(10) ** -10


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
        values, bits = suffix_sums(spec, steps, dps)
        suffixes = suffix_specs(spec)
        assert len(values) == len(suffixes)
        for got, suffix in zip(values, suffixes):
            want = exact_partial_sum(suffix, steps)
            assert abs(F(got, 2 ** bits) - want) < F(10) ** -dps, suffix
        (full,), full_bits = suffix_sums(spec, steps, dps, every_suffix=False)
        want = exact_partial_sum(spec, steps)
        assert abs(F(full, 2 ** full_bits) - want) < F(10) ** -dps, spec


def floor_error_bound(spec, terms):
    """N (max_j g_j + 2) units, g_j = (3 + g_(j+1)) / (|b_j| - 1) from the
    innermost level out: the floor error that `evaluate._rounding_bits`
    derives for a pass with positive exponents, before its margin."""
    g, gs = F(0), []
    for b in reversed(spec.bases):
        g = (3 + g) / (abs(b) - 1)
        gs.append(g)
    return terms * (max(gs) + 2)


def test_floor_error_stays_under_the_contraction_bound():
    # passes replayed against exact partial sums: every value's floor error,
    # in units of 2^-bits, is under the derived bound without its margin,
    # in both pass modes.  Bases 2, -2, 4 and 3/2 at 60 and 200 steps, and
    # the two passes of a split at an adaptive p at the plan's own steps and
    # bits (the measured error was at most 0.16 of the bound)
    specs = [
        LambdaSpec.of((2, 1, 1, 1), (2, 2, 2, 2)),
        LambdaSpec.of((1, 2, 1), (-2, 2, -2)),
        LambdaSpec.of((3, 1, 2), (4, 4, 4)),
        LambdaSpec.of((2, 1, 1), (F(3, 2),) * 3),
    ]
    cases = [(spec, terms, 120) for spec in specs for terms in (60, 200)]
    how = plan(LambdaSpec.of((2, 2), (F(11, 10),) * 2), Precision(10))
    assert (how.route, how.p) == ("split", F(11, 10))
    cases += [(run.spec, run.terms, run.bits) for run in how.passes]
    for spec, terms, bits in cases:
        bound = floor_error_bound(spec, terms)
        bases = tuple((b.numerator, b.denominator) for b in spec.bases)
        for every_suffix, suffixes in ((True, suffix_specs(spec)), (False, [spec])):
            values = evaluate._compiled_pass(spec.exponents, bases, every_suffix)(terms, 1 << bits)
            assert len(values) == len(suffixes)
            for got, suffix in zip(values, suffixes):
                error = abs(got - exact_partial_sum(suffix, terms) * 2 ** bits)
                assert error < bound, (spec, terms, every_suffix, suffix)


def test_a_deep_split_pass_plans_few_rounding_bits():
    # z(500) at 10 digits splits, and its left pass, 2 times the dual
    # z(2,1,...,1), has depth 499 and bases 2, whose floor error grows by 3
    # units a level; a bound of N^(k+1) units planned about 3,600 bits for
    # its 34-digit target
    how = plan(zeta_spec(500), Precision(10))
    target = how.working.working_dps * math.log2(10)
    assert [run.spec.depth for run in how.passes] == [1, 499]
    for run in how.passes:
        assert target < run.bits < target + 64, run


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
        base, bits = suffix_sums(spec, plan.terms, prec.working_dps)
        more, more_bits = suffix_sums(spec, plan.terms + 25, prec.working_dps)
        diff = F(more[0], 2 ** more_bits) - F(base[0], 2 ** bits)
        assert abs(diff) < F(10) ** int(plan.tail_log10 + 1)


def test_plan_needs_every_base_outside_the_unit_circle():
    for spec in (zeta_spec(2), LambdaSpec.of((2, 1), (2, -1))):
        with pytest.raises(UnsupportedSpec, match="needs all"):
            plan_nested_sum(spec, -30)


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


def test_split_rejects_divergent_words():
    # a trailing dx/x form diverges at 0; a letter in (0, 1) puts the pole
    # of dx/(x - a) inside the path
    for word in ((0, 1, 0), (0, F(1, 2)), (F(-1), F(1, 3), 2)):
        with pytest.raises(DivergenceError):
            holder_split(make_word(word), F(2))


def test_entry_points_reject_float_bases(prec40):
    # 1.1 is the binary fraction 2476979795053773/2251799813685248, whose
    # zp(., 2) differs from zp(11/10, 2) at digit 17: refuse it
    for p, x in ((1.1, 0.3), (2.0, -1.0), ("2", "1/2")):
        with pytest.raises(TypeError):
            evaluate_zp(p, (2,), prec40)
        with pytest.raises(TypeError):
            evaluate_J(x, prec40)
        with pytest.raises(TypeError):
            holder_split(make_word((0, 1)), p)
    assert evaluate_zp(2, (2,), prec40) == evaluate_zp(F(2), (2,), prec40)


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
        assert abs(mpf(got) - want) < mp.mpf(10) ** -38


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
    with pytest.raises(ValueError, match="at least one exponent"):
        evaluate_zp(2, (), prec40)


def test_zp_rejects_non_integer_exponents(prec40):
    # (1.9,) used to be truncated to zp(2, 1)
    for exponents in ((1.9,), (2.0,), (F(2),), (2, "1")):
        with pytest.raises(TypeError):
            evaluate_zp(2, exponents, prec40)


def test_zp_below_geometric_threshold(prec40):
    # base 5/4 forces the adaptive conjugate pair; check against the
    # library polylog since zp(p, s) at depth 1 is Li_s(1/p)
    got = evaluate_zp(F(5, 4), (2,), prec40)
    with mp.workdps(80):
        want = mp.polylog(2, mp.mpf(4) / 5)
        assert abs(mpf(got) - want) < mp.mpf(10) ** -40


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
        assert abs(mpf(got) - want) < mp.mpf(10) ** -38
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

def split_sum(terms, prec):
    """sum_r sign_r * L_r * R_r over holder_split terms, each product and
    sum rounded at prec."""
    return linear_combination(
        [(t.sign, evaluate_lambda(t.left, prec) * evaluate_lambda(t.right, prec)) for t in terms],
        prec,
    )


def test_split_parameter_invariance_small(prec40):
    words = word_corpus(4, 6, seed=9)
    for word in words:
        values = [split_sum(holder_split(word, p), prec40) for p in (F(2), F(3), F(3, 2))]
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
        # q = 3 at p = 3/2 clears every complement modulus in the pool
        for p in (F(2), F(3), F(3, 2)):
            terms = holder_split(word, p)
            halves = [h for t in terms for h in (t.left, t.right) if h.depth]
            if all(min(abs(b) for b in h.bases) > 1 for h in halves):
                values.append(split_sum(terms, prec))
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
        assert abs(mpf(z3) - mp.zeta(3)) < mp.mpf(10) ** -200
    alt = evaluate_z((-1,), prec)  # -log 2 via the alternating unit sum
    assert abs(alt + ln(2, prec)).to_fraction() < F(1, 10 ** 200)


# the closed forms' constants zeta(r) = L[r | 1] and Li_r(1/2) = L[r | 2],
# each with the mpmath function that computes it on a context
CONSTANTS = (
    (zeta_spec, range(2, 16), lambda ctx, r: ctx.zeta(r)),
    (delta_spec, range(1, 16), lambda ctx, r: ctx.polylog(r, ctx.mpf(1) / 2)),
)


def mpmath_constant(fn, r, prec):
    """fn(r) from mpmath at the working dps + 20, rounded once to prec as a
    (mantissa, exponent) pair.  At the working dps itself mpmath's
    Li_3(1/2) at 100 digits is 0.504 ulp off, one rounding the wrong way."""
    ctx = mp.MPContext()
    ctx.dps = prec.working_dps + 20
    sign, man, exp, _ = fn(ctx, r)._mpf_
    return BigReal((-int(man) if sign else int(man), exp), prec)


@pytest.mark.parametrize("digits", [30, 50, 100, 200])
def test_closed_form_constants_match_mpmath(digits):
    prec = Precision(digits)
    for spec, orders, fn in CONSTANTS:
        for r in orders:
            got = evaluate_lambda(spec(r), prec)
            want = mpmath_constant(fn, r, prec)
            assert abs(got - want).to_fraction() < tol(prec.working_dps), spec(r)


def test_closed_form_constants_keep_mpmath_bits_where_the_criteria_read_them(monkeypatch):
    """Every depth-1 constant a selftest criterion's closed forms read at 50
    digits has the bits of mpmath's value rounded once."""
    read = set()

    def spy(spec, prec):
        if spec.depth == 1 and spec.bases[0] in (1, 2) and prec == Precision(50):
            read.add(spec)
        return evaluate_lambda(spec, prec)

    monkeypatch.setattr(identities, "evaluate_lambda", spy)
    for criterion in acceptance.CRITERIA:
        if not criterion.slow:
            assert criterion.run()[0], criterion.ident
    assert {s.bases[0] for s in read} == {1, 2}
    fns = {spec(1).bases[0]: fn for spec, _, fn in CONSTANTS}
    for spec in read:
        want = mpmath_constant(fns[spec.bases[0]], spec.exponents[0], Precision(50))
        assert evaluate_lambda(spec, Precision(50))._v == want._v, spec


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
    # |value at d digits - value at d + 30 digits| < 10^-d on every route,
    # for values below 10^guard; each value also keeps the contract's own
    # bound, 1.2 x 10^-W max(1, |value|) with W = d + guard.  The split
    # values keep only 10^-d: split_sum rounds each of its w + 1 products.
    corpus, split_word = contract_corpus()

    # the worst case a targeted search found: 0.122 x 10^-W max(1, |value|)
    cases = [(spec, d) for d in (30, 50, 200) for spec in corpus]
    cases.append((LambdaSpec.of((-1, 0, -1), (F(11, 10), F(11, 10), 4)), 33))
    for spec, d in cases:
        prec = Precision(d)
        low = evaluate_lambda(spec, prec).to_fraction()
        high = evaluate_lambda(spec, Precision(d + 30)).to_fraction()
        assert abs(low - high) < F(1, 10 ** d), (spec, d)
        assert abs(low - high) < F(6, 5 * 10 ** prec.working_dps) * max(1, abs(high)), (spec, d)
    for d in (30, 50, 200):
        for p in (F(2), F(3), F(3, 2)):
            low = split_sum(holder_split(split_word, p), Precision(d)).to_fraction()
            high = split_sum(holder_split(split_word, p), Precision(d + 30)).to_fraction()
            assert abs(low - high) < F(1, 10 ** d), (p, d)
    # the contract is relative to W = digits + guard significant digits, and
    # absolute only while |value| < 10^guard: lambda(-30; 2), about 2.28e37,
    # comes back at 12 digits off by about 4758, 2e-34 of its size
    big, prec = LambdaSpec.of((-30,), (2,)), Precision(12)
    low = evaluate_lambda(big, prec).to_fraction()
    high = evaluate_lambda(big, Precision(42)).to_fraction()
    assert abs(low - high) < F(1, 10 ** prec.working_dps) * abs(high)


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


ROUTE_PREC = Precision(30)


def random_split_specs(seed):
    """Convergent specs with bases near the unit circle that take the split,
    many of them at an adaptive p."""
    rng = random.Random(seed)
    base_pool = [F(1), F(-1), F(-2), F(5, 4), F(4, 3), F(11, 10), F(-3, 2)]
    while True:
        depth = rng.randint(1, 4)
        exps = tuple(rng.randint(1, 3) for _ in range(depth))
        spec = LambdaSpec.of(exps, tuple(rng.choice(base_pool) for _ in exps))
        if spec.is_convergent() and plan(spec, ROUTE_PREC).route == "split":
            yield spec


def test_split_pass_suffixes_stay_within_their_bound():
    # every suffix of a scaled word is at most M = prod max(1, 1/(|b_j| - 1)),
    # the bound the split's error budget multiplies by
    checked = adaptive = 0
    for spec in random_split_specs(606):
        if checked == 40:
            break
        how = plan(spec, ROUTE_PREC)
        dps = how.working.working_dps
        adaptive += how.p != 2
        for run in how.passes:
            bound = F(*evaluate._suffix_bound(run.spec.key[2]))
            values, bits = suffix_sums(run.spec, run.terms, dps)
            for v in values:
                # each value is within 2*10^-dps of the suffix it sums
                assert abs(F(v, 2 ** bits)) <= bound + F(2, 10 ** dps), (spec, run.spec)
        checked += 1
    assert adaptive >= 10


def assert_route_is_holder_split(word, p):
    how = plan(word_to_lambda(word), ROUTE_PREC)
    terms = holder_split(word, p)
    assert (how.route, how.p) == ("split", p), word
    assert tuple(run.spec for run in how.passes) == (terms[0].right, terms[-1].left), word
    assert how.signs == tuple(t.sign for t in terms), word


def test_route_split_matches_holder_split():
    # the split's passes are the r = 0 right half and the r = weight left
    # half, and its signs are the split's, at p = 2 on +-1 words ...
    split_words = [
        word for word in word_corpus(60, 9, seed=21)
        if plan(word_to_lambda(word), ROUTE_PREC).route == "split"
    ]
    assert len(split_words) >= 40
    for word in split_words:
        assert_route_is_holder_split(word, F(2))
    # ... and at the adaptive p of bases off the unit circle
    adaptive = 0
    for spec in random_split_specs(77):
        p = plan(spec, ROUTE_PREC).p
        if p != 2:
            assert_route_is_holder_split(lambda_to_word(spec), p)
            adaptive += 1
            if adaptive == 12:
                break


def one_pass_route(spec):
    """(route, p, pass specs, signs) of spec's plan, after checking that it
    runs one digit past the requested working digits (error factor 2)."""
    how = plan(spec, ROUTE_PREC)
    assert how.working == Precision(ROUTE_PREC.digits, ROUTE_PREC.guard + 1)
    return how.route, how.p, tuple(run.spec for run in how.passes), how.signs


def test_route_direct_and_dual_make_one_pass():
    spec = LambdaSpec.of((2, 1), (3, F(-7, 4)))
    assert one_pass_route(spec) == ("direct", None, (spec,), (1,))
    spec = LambdaSpec.of((2, -1), (F(5, 4), F(5, 4)))  # no word encoding
    assert one_pass_route(spec) == ("direct", None, (spec,), (1,))
    # z(-1, -1, -1): bases -1, 1, -1; the dual word has bases 2, 2
    spec = lambda_from_z_string((-1, -1, -1))
    dual, sign = dual_word(lambda_to_word(spec))
    assert one_pass_route(spec) == ("dual", None, (word_to_lambda(dual),), (sign,))
    # z(3, 1) takes the split, at p = 2
    assert plan(lambda_from_z_string((3, 1)), ROUTE_PREC).route == "split"


def test_evaluate_lambda_never_calls_holder_split(monkeypatch):
    prec = Precision(40)
    specs = [
        lambda_from_z_string((2, 1)),
        lambda_from_z_string((-2, 1, -3)),
        LambdaSpec.of((2, 1), (F(5, 4), F(4, 3))),
    ]
    oracles = []
    for spec in specs:
        # z(2, 1) takes its dual z(3)'s value, so its oracle is z(3)'s split
        how, sign, word = plan(spec, prec), 1, lambda_to_word(spec)
        if how.route == "dual":
            sign, word = how.signs[0], lambda_to_word(how.dual)
            how = plan(how.dual, prec)
        assert how.route == "split"
        oracle = split_sum(holder_split(word, how.p), prec)
        oracles.append(oracle if sign > 0 else -oracle)
    assert [plan(spec, prec).route for spec in specs] == ["dual", "split", "split"]

    def no_split(*args):
        raise AssertionError("evaluate_lambda called holder_split")

    monkeypatch.setattr(evaluate, "holder_split", no_split)
    evaluate_lambda.cache_clear()
    for spec, oracle in zip(specs, oracles):
        assert_close(evaluate_lambda(spec, prec), oracle, 38)


def test_three_memos_and_the_plan_numbers():
    # the evaluator's state is three lru_cache memos: clearing them makes the
    # next evaluation cold, and clearing evaluate_lambda's alone (as the
    # benchmark's rounds do) leaves the plan and the compiled passes warm
    memos = {name: obj for name, obj in vars(evaluate).items() if hasattr(obj, "cache_clear")}
    assert sorted(memos) == ["_compiled_pass", "evaluate_lambda", "plan"]
    prec = Precision(30)
    # a dual-route spec reads its plan's numbers from its dual's plan: the
    # direct pass of z(-1, -1, -1)'s geometric dual, and the split of z(3),
    # z(2, 1)'s dual, which has the smaller key
    cases = [
        ("direct", None, LambdaSpec.of((3,), (2,)), lambda: evaluate_zp(2, (3,), prec)),
        ("dual", None, lambda_from_z_string((-1, -1, -1)), lambda: evaluate_z((-1, -1, -1), prec)),
        ("split", F(2), lambda_from_z_string((3, 1)), lambda: evaluate_z((3, 1), prec)),
        ("dual", F(2), lambda_from_z_string((2, 1)), lambda: evaluate_z((2, 1), prec)),
    ]

    def counts():
        return {name: memo.cache_info()[:2] for name, memo in memos.items()}

    def calls_since(before):
        return {
            name: (hits - before[name][0], misses - before[name][1])
            for name, (hits, misses) in counts().items()
        }

    for memo in memos.values():
        memo.cache_clear()
    for route, p, spec, call in cases:
        # the dual route adds one miss in each (spec, prec) memo, the dual's:
        # plan(spec) asks plan(dual), which evaluate_lambda(dual) then finds
        dual = route == "dual"
        before = counts()
        call()
        cold = calls_since(before)
        how = plan(spec, prec)
        passes = len(how.passes)
        # z(3, 1) is self-dual, so its two split passes are one pass, run once
        distinct = len(set(how.passes))
        assert cold["evaluate_lambda"] == (0, 1 + dual), route
        assert cold["plan"] == (dual, 1 + dual), route
        hits, misses = cold["_compiled_pass"]
        assert misses >= 1 and hits + misses == distinct, route

        before = counts()
        call()
        assert calls_since(before)["evaluate_lambda"] == (1, 0), route
        evaluate_lambda.cache_clear()
        before = counts()
        call()
        warm = calls_since(before)
        assert warm["evaluate_lambda"] == (0, 1 + dual), route
        assert warm["plan"] == (1 + dual, 0), route
        assert warm["_compiled_pass"] == (distinct, 0), route

        assert (how.route, how.p) == (route, p)
        if dual:
            assert how.passes == plan(how.dual, prec).passes, route
        assert passes == (1 if p is None else 2)
        dps = how.working.working_dps
        for run in how.passes:
            assert run.terms == plan_nested_sum(run.spec, -dps).terms, route
            assert run.bits == pass_bits(run.spec, run.terms, dps), route


def test_warm_lookup_hashes_no_fraction(monkeypatch):
    # a spec is interned by its int key and hashes by identity, so neither
    # building it nor finding its cached value runs Fraction.__hash__, which
    # is Python code and a modular inverse per base
    spec, prec = zeta_spec(3, 1, 2, 2, 1, 1, 1, 1), Precision(50)
    value = evaluate_lambda(spec, prec)

    def no_hash(self):
        raise AssertionError("a Fraction was hashed")

    monkeypatch.setattr(Fraction, "__hash__", no_hash)
    assert evaluate_lambda(spec, prec) is value
    other = LambdaSpec.of((2, 1), (F(5, 4), F(-3, 2)))
    assert hash(other) == hash(LambdaSpec(other.terms))


def test_plain_tuple_precision_is_refused_cold_and_warm():
    # Precision(50) == (50, 20), so an untyped memo would answer the tuple
    # with the Precision's value once that is cached, and fail on the missing
    # .digits while it is not; both (spec, prec) entry points refuse it
    spec = LambdaSpec.of((3, 2), (F(7, 3), F(-5, 2)))
    plain = tuple(Precision(50))
    for memo in (plan, evaluate_lambda):
        memo.cache_clear()
    for warm in (False, True):
        if warm:
            evaluate_lambda(spec, Precision(50))
        for call in (plan, evaluate_lambda):
            with pytest.raises(TypeError, match="prec must be a Precision"):
                call(spec, plain)


def counted_kernel_runs(monkeypatch):
    """A list that each kernel pass run from now on appends its compile key
    to."""
    compiled, runs = evaluate._compiled_pass, []

    def counted(*key):
        kernel = compiled(*key)

        def run(*args):
            runs.append(key)
            return kernel(*args)

        return run

    monkeypatch.setattr(evaluate, "_compiled_pass", counted)
    return runs


# SHA-256 of the libmp-layout bits of z(3,1), L[2 | 1], L[2,1,3 | 1,1,1],
# L[2,2 | 1,1] and L[4,1,1 | 1,1,1] at 200 digits, taken when each of their
# split passes ran twice
SELF_DUAL_SHA256 = "cd76e8f6a5384afa2206fbe40eda4289959869942260cec556e68ffb6ab0fade"


def test_a_self_dual_split_runs_its_one_pass_once(monkeypatch):
    # at p = 2 the left pass q*dual of a self-dual word is its right pass
    # p*word; the four L[...] words are the self-dual split words of
    # word_corpus(300, 10, seed=5)
    prec = Precision(200)
    z31 = lambda_from_z_string((3, 1))
    specs = [z31] + [
        parse_spec(text)
        for text in ("L[2 | 1]", "L[2,1,3 | 1,1,1]", "L[2,2 | 1,1]", "L[4,1,1 | 1,1,1]")
    ]
    how = plan(z31, prec)
    assert how.route == "split" and how.p == 2
    assert how.passes[0] == how.passes[1] and how.passes[0].terms == 826
    for memo in (plan, evaluate._compiled_pass, evaluate_lambda):
        memo.cache_clear()
    runs = counted_kernel_runs(monkeypatch)
    raw = []
    for spec in specs:
        runs.clear()
        value = evaluate_lambda(spec, prec)
        assert len(runs) == 1, spec
        raw.append(repr(libmp_raw(value)))
    assert hashlib.sha256("\n".join(raw).encode()).hexdigest() == SELF_DUAL_SHA256


def own_split(spec, prec):
    """spec's value from its own Hoelder split, combined as the split route
    combines it: the every-suffix passes of p*word and q*dual at the split's
    working precision, the signed products of their suffixes and one
    rounding.  Returns the value and the two pass plans."""
    word = lambda_to_word(spec)
    terms = holder_split(word, evaluate._split_parameter(spec.key[2]))
    specs = terms[0].right, terms[-1].left
    weight = len(word)
    bounds = sum(F(*evaluate._suffix_bound(s.key[2])) for s in specs)
    factor = 2 * (weight + 1) * (bounds + 1)
    working = Precision(
        prec.digits, prec.guard + evaluate._decimal_exponent(*factor.as_integer_ratio())
    )
    runs = [plan_nested_sum(s, -working.working_dps) for s in specs]
    right, left = (
        evaluate._compiled_pass(*run.spec.key[1:], True)(run.terms, 1 << run.bits)
        for run in runs
    )
    total = sum(t.sign * left[weight - t.split_index] * right[t.split_index] for t in terms)
    return BigReal((total, -sum(run.bits for run in runs)), prec), runs


def test_a_duality_pair_runs_each_pass_once(monkeypatch):
    # whichever member comes first runs the pair's passes, and the other one
    # takes its value: z(2, 1) = z(3) (MZV duality), an alternating word and
    # its dual of bases 2, 2 and 1, and z(-1, -1, -1) with its geometric dual
    prec = Precision(40)
    pairs = []
    for entries in ((2, 1), (-2, 1), (-1, -1, -1)):
        spec = lambda_from_z_string(entries)
        dual, sign = dual_word(lambda_to_word(spec))
        pairs.append((spec, word_to_lambda(dual), sign))
    for spec, dual, sign in pairs:
        for first, second in ((spec, dual), (dual, spec)):
            for memo in (plan, evaluate._compiled_pass, evaluate_lambda):
                memo.cache_clear()
            runs = counted_kernel_runs(monkeypatch)
            a = evaluate_lambda(first, prec)
            passes = len(runs)
            b = evaluate_lambda(second, prec)
            monkeypatch.undo()
            assert len(runs) == passes == len(set(runs)), (first, second)
            assert passes == (1 if plan(spec, prec).p is None else 2), spec
            assert libmp_raw(a if sign > 0 else -a) == libmp_raw(b), (first, second)


def test_redirected_values_keep_their_own_split_bits():
    # a split word whose convergent dual has the smaller key takes the dual's
    # value; its own split, at p = 2, runs the same two passes swapped, and
    # gives the value bit for bit.  The corpus: +-1 words (MZVs and
    # alternating sums) with their duals, and words with other bases, some of
    # which split at an adaptive p and so keep their own split
    words = word_corpus(80, 9, seed=36)
    words += [dual_word(word)[0] for word in words]
    specs = [word_to_lambda(word) for word in words]
    rng = random.Random(36)
    pool = [F(1), F(-1), F(2), F(-2), F(3), F(-3, 2), F(5, 2), F(5, 4), F(-4, 3)]
    while len(specs) < 260:
        exps = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
        spec = LambdaSpec.of(exps, tuple(rng.choice(pool) for _ in exps))
        if spec.is_convergent():
            specs.append(spec)
    redirected = adaptive = 0
    for d in (40, 200):
        prec = Precision(d)
        for spec in specs[:: 1 if d == 40 else 8]:
            how = plan(spec, prec)
            if how.route == "split":
                adaptive += how.p != 2
            if how.route != "dual" or how.p is None:
                continue
            redirected += 1
            value, runs = own_split(spec, prec)
            assert how.p == 2 and how.passes == tuple(reversed(runs)), spec
            assert how.dual.key < spec.key and plan(how.dual, prec).route == "split"
            assert libmp_raw(evaluate_lambda(spec, prec)) == libmp_raw(value), (spec, d)
    assert redirected >= 80 and adaptive >= 20


def test_a_word_without_a_mirror_stays_split():
    # a dual with a letter in (-1, 0) diverges as a sum, so it has no value
    # to take, and its word keeps its own split.  L[1 | 4/3] splits at the
    # adaptive p = 4/3, and its dual L[1 | -1/3], of the smaller key, would
    # split at 7, not at q = 4.  L[1,1 | -1,9/5] splits at 2, and so would its
    # dual L[1,1 | -4/5,2], whose key is smaller too, but it diverges
    prec = Precision(40)
    for spec, p in ((LambdaSpec.of((1,), (F(4, 3),)), F(4, 3)),
                    (LambdaSpec.of((1, 1), (-1, F(9, 5))), F(2))):
        dual = word_to_lambda(dual_word(lambda_to_word(spec))[0])
        assert dual.key < spec.key and not dual.is_convergent(), spec
        how = plan(spec, prec)
        assert (how.route, how.p, how.dual) == ("split", p, None), spec
        value, runs = own_split(spec, prec)
        assert how.passes == tuple(runs)
        assert libmp_raw(evaluate_lambda(spec, prec)) == libmp_raw(value), spec
    # every adaptive split keeps its word's own split: a convergent spec
    # splits at p != 2 only for a letter in (1, 7/4), whose dual letter lies
    # in (-3/4, 0)
    adaptive = 0
    for spec in random_split_specs(36):
        word = lambda_to_word(spec)
        if evaluate._split_parameter(spec.key[2]) != 2:
            assert not word_to_lambda(dual_word(word)[0]).is_convergent(), spec
            adaptive += 1
            if adaptive == 12:
                break


def test_printed_precision_semantics():
    # printed value at N digits matches the (N+10)-digit run truncated
    for make in (
        lambda p: evaluate_z((3,), p),
        lambda p: evaluate_zp(2, (2, 1), p),
        lambda p: evaluate_J(F(7, 10), p),
    ):
        low = str(make(Precision(30)))
        from polyzeta import BigReal

        high = str(BigReal(make(Precision(40)).to_fraction(), Precision(30)))
        assert low == high
