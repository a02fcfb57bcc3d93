"""The evaluator's Plan: the int-keyed ``plan`` against the same plan taken
by definition in Fraction arithmetic, and ``plan_nested_sum``'s choice of N
replayed in exact Fractions."""

import json
import math
import os
import random
from fractions import Fraction

import pytest

from polyzeta import DivergenceError, LambdaSpec, Precision, UnsupportedSpec, parse_spec
from polyzeta import evaluate
from polyzeta.acceptance import word_corpus
from polyzeta.evaluate import GEOMETRIC_THRESHOLD, Plan, SumPlan, plan
from polyzeta.model import format_spec, word_to_lambda

F = Fraction
REFS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "refs")


# -- the Plan by definition ---------------------------------------------------
# ``plan`` and ``plan_nested_sum`` as they stood in Fraction arithmetic: the
# word letter by letter, its dual by one subtraction per letter, the split's
# signs from the depths of word slices, the bound and the error factor as
# Fractions, and N by testing every point of the step sequence.

def _convergence_by_definition(spec):
    if spec.depth == 0 or all(abs(b) > 1 for b in spec.bases):
        return ""
    if any(abs(b) < 1 for b in spec.bases):
        return "a base has modulus below 1"
    if any(s < 1 for s in spec.exponents):
        return "nonpositive exponent with a base of modulus 1"
    if spec.terms[0] == (1, F(1)):
        return "leading term (s, b) = (1, 1) diverges like the harmonic series"
    return ""


def _word_by_definition(spec):
    reason = _convergence_by_definition(spec)
    if reason:
        raise DivergenceError(f"{format_spec(spec)} diverges: {reason}")
    word = []
    for s, b in spec.terms:
        word += [F(0)] * (s - 1) + [b]
    return tuple(word)


def _spec_by_definition(word):
    terms, zeros = [], 0
    for a in word:
        if a == 0:
            zeros += 1
        else:
            terms.append((zeros + 1, a))
            zeros = 0
    return LambdaSpec(tuple(terms))


def _depth_by_definition(word):
    return sum(1 for a in word if a != 0)


def _geometric_by_definition(bases):
    return min(abs(b) for b in bases) >= GEOMETRIC_THRESHOLD


def _rounding_bits_by_definition(spec, terms):
    k = spec.depth
    c = 2 + max(max(s, 0) for s in spec.exponents)
    degree = k + 1 + sum(max(-s, 0) for s in spec.exponents)
    general = math.ceil(math.log2(1 + k * c) + degree * math.log2(max(terms, 1)))
    if min(spec.exponents) < 1:
        return general
    # with positive exponents, each level's floor error contracts: g_j =
    # (3 + g_(j+1)) / (|b_j| - 1), and the passes' sums stay under
    # N (max g + 2) units, given 16 bits more, never above the general bound
    g, gs = F(0), []
    for b in reversed(spec.bases):
        g = (3 + g) / (abs(b) - 1)
        gs.append(g)
    bound = max(terms, 1) * (max(gs) + 2)
    bits = 0
    while 2 ** bits < bound:
        bits += 1
    return min(general, bits + 16)


def _nested_sum_by_definition(spec, eps_log10):
    k = spec.depth
    rmin = min(abs(b) for b in spec.bases)
    if rmin <= 1:
        raise UnsupportedSpec(f"{format_spec(spec)}: direct summation needs all |b_j| > 1")
    r = float(1 / rmin)
    m = (k - 1) + sum(-s for s in spec.exponents if s < 0)
    rho = (1 + r) / 2
    log_r = math.log10(r)
    log_gap = -math.log10(1 - rho)
    n = max(k, 1)
    while True:
        tail = m * math.log10(n + 1) + (n + 1) * log_r + log_gap
        if tail < eps_log10 and r * (1 + 1 / n) ** m <= rho:
            bits = math.ceil(-eps_log10 * math.log2(10)) + _rounding_bits_by_definition(spec, n)
            return SumPlan(spec, n, tail, bits)
        n += max(1, n // 8)


def _split_parameter_by_definition(word):
    m1 = min(abs(a) for a in word if a != 0)
    m2 = min([F(1)] + [abs(1 - a) for a in word if a != 1 and a != 0])
    if 2 * m1 >= GEOMETRIC_THRESHOLD and 2 * m2 >= GEOMETRIC_THRESHOLD:
        return F(2)
    target = min(GEOMETRIC_THRESHOLD, (1 + m1 + m2) / 2)
    q = target / m2
    return q / (q - 1)


def _suffix_bound_by_definition(bases):
    bound = F(1)
    for b in bases:
        if abs(b) < 2:
            bound /= abs(b) - 1
    return bound


def _scaled_by_definition(spec, scale):
    return LambdaSpec(tuple((s, scale * b) for s, b in spec.terms))


def _plan_by_definition(spec, prec):
    route, p, specs, signs, factor = "direct", None, (spec,), (1,), F(2)
    if spec.depth and not _geometric_by_definition(spec.bases) and min(spec.exponents) >= 1:
        word = _word_by_definition(spec)
        dual = tuple(1 - a for a in reversed(word))
        k, weight = _depth_by_definition(word), len(word)
        sign = (-1) ** (weight + k + _depth_by_definition(dual))
        dual_spec = _spec_by_definition(dual)
        if _geometric_by_definition(dual_spec.bases) or (
            dual_spec.key < spec.key and not _convergence_by_definition(dual_spec)
        ):
            how = _plan_by_definition(dual_spec, prec)
            return Plan("dual", how.p, (sign,), how.working, how.passes, dual_spec)
        route, p = "split", _split_parameter_by_definition(word)
        specs = _scaled_by_definition(spec, p), _scaled_by_definition(dual_spec, p / (p - 1))
        signs = tuple(
            (-1) ** (r + k + _depth_by_definition(dual[weight - r:])
                     + _depth_by_definition(word[r:]))
            for r in range(weight + 1)
        )
        factor = 2 * (weight + 1) * (sum(_suffix_bound_by_definition(s.bases) for s in specs) + 1)
    ceiling = math.ceil(factor)
    working = Precision(prec.digits, prec.guard + (len(str(ceiling - 1)) if ceiling > 1 else 0))
    passes = tuple(
        _nested_sum_by_definition(s, -working.working_dps) for s in specs if s.depth
    )
    return Plan(route, p, signs, working, passes, None)


def typed(x):
    """x with the type of every part beside it, so that equal results of
    unequal types (2 and Fraction(2), 1 and 1.0) compare unequal."""
    if isinstance(x, LambdaSpec):
        return LambdaSpec, typed(x.terms)
    if isinstance(x, tuple):
        return type(x), tuple(typed(v) for v in x)
    return type(x), x


def outcome(make, spec, prec):
    """make(spec, prec), typed, or the type and text of what it raised."""
    try:
        return typed(make(spec, prec))
    except (DivergenceError, UnsupportedSpec) as e:
        return type(e), str(e)


def pool_specs():
    specs = []
    for name in ("mzv_table", "geometric_hiprec"):
        with open(os.path.join(REFS, f"{name}.json"), encoding="utf-8") as fh:
            specs += [parse_spec(e["spec"]) for e in json.load(fh)["entries"]]
    return specs


# 7/4 puts 2|1 - b| on the threshold 3/2, the edge of p = 2
PLAN_BASES = [F(1), F(-1), F(2), F(-2), F(3), F(4), F(3, 2), F(-3, 2), F(5, 4), F(7, 4),
              F(11, 10), F(-7, 3), F(101, 100), F(1499, 1000)]
# without 101/100 and its scaled forms, whose N of about 2.3e5 at 1000 digits
# makes r^(N+1) a number of 1.5 million bits
REPLAY_BASES = [F(1), F(-1), F(2), F(-2), F(3), F(4), F(3, 2), F(-3, 2), F(11, 10), F(-7, 3)]


def seeded_specs(seed, count, bases=PLAN_BASES):
    """count seeded specs of depth 1-4 over exponents -1..5 and bases,
    convergent or not."""
    rng = random.Random(seed)
    specs = []
    for _ in range(count):
        exps = tuple(rng.randint(-1, 5) for _ in range(rng.randint(1, 4)))
        specs.append(LambdaSpec.of(exps, tuple(rng.choice(bases) for _ in exps)))
    return specs


def word_pairs(count, seed):
    """The specs of count +-1 words (MZVs and alternating sums) and of their
    duals, many of which take the dual route."""
    words = word_corpus(count, 9, seed=seed)
    words += [tuple(1 - a for a in reversed(word)) for word in words]
    return [word_to_lambda(word) for word in words]


def test_plan_is_the_plan_by_definition():
    # each spec is planned cold: a spec on the dual route plans its dual
    # through the memo, from the pair it derived, and a spec planned alone
    # derives its own
    seeded = seeded_specs(4300, 2500)
    specs = pool_specs() + word_pairs(80, 4300) + seeded
    seen = {"direct": 0, "dual": 0, "split": 0, "adaptive": 0, "geometric dual": 0,
            "nonpositive": 0, "refused": 0}
    for digits in (10, 40, 50, 200, 1000):
        prec = Precision(digits)
        for spec in specs:
            plan.cache_clear()
            want = outcome(_plan_by_definition, spec, prec)
            assert outcome(plan, spec, prec) == want, (spec, digits)
            if want[0] is not Plan:
                seen["refused"] += 1
                continue
            how = plan(spec, prec)
            seen[how.route] += 1
            seen["adaptive"] += how.p not in (None, 2)
            seen["geometric dual"] += how.route == "dual" and how.p is None
            seen["nonpositive"] += min(spec.exponents) < 1
    # only seeded specs diverge, so at each precision at least 2000 of them
    # have a plan, and every kind of plan occurs
    assert seen["refused"] <= 5 * (len(seeded) - 2000)
    assert min(seen.values()) >= 50, seen


def test_a_dual_route_pair_plans_alike_in_any_order():
    # each plan derives its own word and dual, so a pair's plans do not
    # depend on which member is planned first, or on the other being
    # planned at all: word then dual, dual then word, and each alone, from
    # a cleared memo, all give the plans by definition
    words = word_corpus(40, 9, seed=4301)
    pairs = [(word_to_lambda(w), word_to_lambda(tuple(1 - a for a in reversed(w))))
             for w in words]
    routes = set()
    for digits in (30, 200):
        prec = Precision(digits)
        for word, dual in pairs:
            want = {spec: outcome(_plan_by_definition, spec, prec) for spec in (word, dual)}
            for order in ((word, dual), (dual, word), (word,), (dual,)):
                plan.cache_clear()
                for spec in order:
                    assert outcome(plan, spec, prec) == want[spec], (spec, order, digits)
            routes.update(plan(spec, prec).route for spec in (word, dual))
    assert routes == {"dual", "split"}


def sequence_before(n0, terms):
    """The point of the step sequence n0, n + max(1, n // 8), ... just
    before terms, or None when terms is n0."""
    before, n = None, n0
    while n < terms:
        before, n = n, n + max(1, n // 8)
    assert n == terms
    return before


def test_plan_nested_sum_replays_in_exact_fractions():
    # with r = 1/min |b_j| and rho = (1 + r)/2 exact, the pass's N satisfies
    # both inequalities of its tail bound, (N+1)^m r^(N+1)/(1 - rho) <
    # 10^eps and r(1 + 1/N)^m <= rho, and the point of the step sequence
    # before N (skipped or tested) fails one of them: the float steps decide
    # as exact arithmetic does
    runs = {}
    for digits in (10, 50, 200, 1000):
        prec = Precision(digits)
        for spec in word_pairs(30, 17) + seeded_specs(17, 160, REPLAY_BASES):
            try:
                how = plan(spec, prec)
            except (DivergenceError, UnsupportedSpec):
                continue
            for run in how.passes:
                runs[run] = -how.working.working_dps

    def tail_bound_holds(n, r, m, eps):
        rho = (1 + r) / 2
        return ((n + 1) ** m * r ** (n + 1) / (1 - rho) < F(10) ** eps
                and r * (1 + F(1, n)) ** m <= rho)

    checked = 0
    for run, eps in runs.items():
        spec, terms = run.spec, run.terms
        r = 1 / min(abs(b) for b in spec.bases)
        m = spec.depth - 1 + sum(-s for s in spec.exponents if s < 0)
        assert tail_bound_holds(terms, r, m, eps), run
        before = sequence_before(max(spec.depth, 1), terms)
        if before is not None:
            assert not tail_bound_holds(before, r, m, eps), run
            checked += 1
    assert len(runs) >= 600 and checked >= 0.95 * len(runs)


@pytest.mark.parametrize("exponents, scaled", [((-1,), False), ((2,), True), ((2, 1), True)])
def test_plan_refuses_a_base_within_float_rounding_of_one(monkeypatch, exponents, scaled):
    # min |b_j| = 1 + 10^-20 makes r = 1/min |b_j| round to 1.0, so 1 - rho
    # is 0 and no float tail bound exists; the plan names the spec, also
    # when the pass that fails is a scaled half of the split
    near_one = Fraction(10 ** 20 + 1, 10 ** 20)
    spec = LambdaSpec.of(exponents, (near_one,) * len(exponents))
    planned = []
    plan_nested_sum = evaluate.plan_nested_sum

    def recording(run_spec, eps_log10):
        planned.append(run_spec)
        return plan_nested_sum(run_spec, eps_log10)

    monkeypatch.setattr(evaluate, "plan_nested_sum", recording)
    with pytest.raises(UnsupportedSpec) as raised:
        plan(spec, Precision(30))
    assert str(raised.value) == (
        f"{format_spec(spec)}: a base modulus this close to 1 cannot be summed"
    )
    assert (planned[-1] != spec) == scaled
