"""Acceptance criteria, runnable from the CLI (`polyzeta selftest`) and from
the test suite.  Each criterion pins its tolerance; the runner prints one
pass/fail line per criterion.

The criteria share their checks and their seeded generators:

- `_worst(pairs, exp10)` is the one residual gate: it passes when every
  |got - want| is below 10^-exp10 and reports the worst residual;
  `_within` compares a single value and reports only the tolerance;
- `_recovers(values, want)` runs `lindep` and checks the relation it finds;
- `exponent_string` draws the exponents of a random word, which
  `random_z_entries` signs and `word_corpus` collects, and
  `planted_relation` draws a vector with one planted integer relation.
  The tests draw from the same generators.
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from typing import Callable, NamedTuple

from .cli import eval_expression, format_result, parse_expression
from .evaluate import (
    evaluate_lambda,
    evaluate_word,
    evaluate_z,
    evaluate_zp,
    evaluate_J,
    holder_split,
    plan,
)
from .identities import (
    delta_12,
    delta_negative_exact,
    evaluate_formal_sum,
    li2_half,
    mu_power,
    rational_stuffle_check,
    reversal_reduction,
    shuffle_words,
    stuffle_identity,
    t5,
    z213,
    zagier,
)
from .model import (
    LambdaSpec,
    constant_base_spec,
    delta_spec,
    dual_word,
    lambda_from_z_string,
    lambda_to_word,
    mu_spec,
    word_to_lambda,
)
from .precision import BigReal, Precision, linear_combination, ln, pi
from .relations import lindep


def _tol(exp10: int) -> Fraction:
    return Fraction(1, 10 ** exp10)


def _within(a: BigReal, b, exp10: int) -> tuple[bool, str]:
    diff = abs(a - b).to_fraction()
    if diff < _tol(exp10):
        return True, f"max residual < 10^-{exp10}"
    # a float, since Fraction has no format spec "e" before Python 3.12
    return False, f"|diff| = {float(diff):.3e} vs 10^-{exp10}"


def _worst(pairs, exp10: int) -> tuple[bool, str]:
    """Pass when every |got - want| of the (got, want) pairs is below
    10^-exp10; the detail names the worst residual."""
    worst = max((abs(got - want).to_fraction() for got, want in pairs), default=Fraction(0))
    return worst < _tol(exp10), f"worst residual {float(worst):.3e}"


def _recovers(values, want) -> tuple[bool, str]:
    """Pass when `lindep` returns exactly the relation ``want``."""
    result = lindep(values)
    if result.coefficients != want:
        return False, f"got {result.coefficients}, wanted {want}"
    return True, f"recovered {want}, residual {float(result.residual.to_fraction()):.1e}"


def exponent_string(rng: random.Random, depth: int, max_weight: int, cap: int):
    """``depth`` exponents in [1, cap] of total weight at most ``max_weight``:
    each is drawn up to the weight left minus the remaining depth.  Callers
    keep ``depth <= max_weight``, so every draw has a valid range."""
    exps = []
    budget = max_weight
    for j in range(depth):
        exps.append(rng.randint(1, min(budget - (depth - j - 1), cap)))
        budget -= exps[-1]
    return tuple(exps)


def random_z_entries(rng: random.Random, max_weight: int = 8, max_depth: int = 4):
    """A convergent signed exponent string (no leading unsigned 1)."""
    while True:
        exps = exponent_string(rng, rng.randint(1, max_depth), max_weight, 4)
        entries = tuple(e * rng.choice((1, -1)) for e in exps)
        if entries[0] != 1:
            return entries


def word_corpus(count: int, max_weight: int, seed: int):
    """Deterministic convergent +-1-base words, distinct, weight bounded."""
    rng = random.Random(seed)
    words = {}
    while len(words) < count:
        words[lambda_to_word(lambda_from_z_string(random_z_entries(rng, max_weight)))] = None
    return list(words)


def planted_relation(seed: int):
    """Random reals in [1, 2) at 60 digits, the last one set by a planted
    primitive relation: (values, coefficients), the coefficients
    sign-normalized as `lindep` reports them."""
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    prec = Precision(60)
    bits = 4 * prec.working_dps  # comfortably more than the mantissa
    values = [BigReal(Fraction(rng.getrandbits(bits), 2 ** bits) + 1, prec) for _ in range(n - 1)]
    coeffs = [rng.randint(-50, 50) or 1 for _ in range(n - 1)]
    last = rng.randint(1, 50)
    values.append(linear_combination(zip(coeffs, values), prec) / (-last))
    planted = coeffs + [last]
    g = gcd(*planted)
    # no planted coefficient is 0, so the first one fixes the sign
    sign = 1 if planted[0] > 0 else -1
    return values, tuple(sign * c // g for c in planted)


def _evaluate_via_split(word, p: Fraction, prec: Precision) -> BigReal:
    spec_prec = plan(word_to_lambda(word), prec).working
    total = linear_combination(
        [
            (t.sign, (evaluate_lambda(t.left, spec_prec), evaluate_lambda(t.right, spec_prec)))
            for t in holder_split(word, p)
        ],
        spec_prec,
    )
    return BigReal(total.to_fraction(), prec)


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def crit_euler() -> tuple[bool, str]:
    prec = Precision(50)
    return _within(evaluate_z((2, 1), prec), evaluate_z((3,), prec), 45)


def crit_ezface_golden() -> tuple[bool, str]:
    prec = Precision(50)
    value = eval_expression(parse_expression("Pi^6/z(6)"), prec)
    text = format_result(value, 50)
    want = "945." + "0" * 47
    ok_text = text == want
    ok_val, detail = _within(value, 945, 44)
    if not ok_text:
        return False, f"printed {text!r}, wanted {want!r}"
    return ok_val, f"prints {text[:8]}..0; {detail}"


def crit_lindep_weight8() -> tuple[bool, str]:
    prec = Precision(50)
    z = lambda *a: evaluate_z(a, prec)
    return _recovers(
        [z(4, 1, 3), z(5, 3), z(8), z(5) * z(3), z(3) ** 2 * z(2)],
        (36, 36, -71, 90, -18),
    )


def crit_lindep_log_form() -> tuple[bool, str]:
    prec = Precision(50)
    values = [
        evaluate_z((3,), prec),
        pi(prec) ** 2 * ln(2, prec),
        evaluate_zp(2, (2, 1), prec),
        evaluate_zp(2, (3,), prec),
    ]
    return _recovers(values, (12, -1, -12, -12))


def crit_zagier() -> tuple[bool, str]:
    prec = Precision(50)
    return _worst(((evaluate_z((3, 1) * n, prec), zagier(n, prec)) for n in range(4)), 45)


def crit_z213_family() -> tuple[bool, str]:
    prec = Precision(50)
    return _worst(((evaluate_z((2,) + (1, 3) * n, prec), z213(n, prec)) for n in (1, 2)), 40)


def crit_duality() -> tuple[bool, str]:
    prec = Precision(50)
    a = evaluate_lambda(LambdaSpec.of((2, 1), (1, -1)), prec)
    b = evaluate_lambda(LambdaSpec.of((1, 2), (2, 1)), prec)
    if abs(a + b).to_fraction() >= _tol(45):
        return False, f"alternating pair residual {float(abs(a + b).to_fraction()):.3e}"
    pairs = []
    for word in word_corpus(15, 8, seed=20260809):
        dual, sign = dual_word(word)
        # left side through the split so the two routes stay independent
        pairs.append((_evaluate_via_split(word, Fraction(2), prec), evaluate_word(dual, prec) * sign))
    return _worst(pairs, 40)


def crit_holder_invariance() -> tuple[bool, str]:
    prec = Precision(50)
    params = (Fraction(2), Fraction(3), Fraction(3, 2))
    pairs = []
    for word in word_corpus(20, 8, seed=77):
        pairs += combinations([_evaluate_via_split(word, p, prec) for p in params], 2)
    return _worst(pairs, 40)


def crit_closed_forms() -> tuple[bool, str]:
    prec = Precision(50)
    units = lambda base, n: evaluate_lambda(constant_base_spec(base, (1,) * n), prec)
    pairs = [(units(2, n), mu_power(2, n, prec)) for n in range(7)]
    pairs += [(units(3, n), mu_power(3, n, prec)) for n in range(5)]
    pairs += [
        (evaluate_lambda(delta_spec(2), prec), li2_half(prec)),
        (evaluate_lambda(delta_spec(1, 2), prec), delta_12(prec)),
    ]
    return _worst(pairs, 40)


def crit_t4_t5() -> tuple[bool, str]:
    prec = Precision(50)
    pairs = []
    for m in (1, 2, 3):
        for n in (0, 1, 2):
            got = evaluate_lambda(mu_spec(*(-1,) * m, 1, *(-1,) * n), prec)
            pairs.append((got, t5(m, n, prec)))
    return _worst(pairs, 40)


def crit_functional_equation() -> tuple[bool, str]:
    prec = Precision(50)
    lhs = evaluate_lambda(LambdaSpec.of((2, 1), (-1, -1)), prec)
    rhs = evaluate_z((2, 1), prec) * Fraction(1, 8)
    if abs(lhs - rhs).to_fraction() >= _tol(45):
        return False, f"eighth-value residual {float(abs(lhs - rhs).to_fraction()):.3e}"
    x = Fraction(3, 10)
    legs = (
        evaluate_J(-x, prec)
        + evaluate_J(x, prec)
        - evaluate_J(x * x, prec) * Fraction(1, 4)
        - evaluate_J(2 * x / (x + 1), prec)
        + evaluate_J(4 * x / (x + 1) ** 2, prec) * Fraction(1, 8)
    )
    ok = abs(legs).to_fraction() < _tol(35)
    return ok, f"J-equation residual {float(abs(legs).to_fraction()):.3e}"


def crit_zagier_dressed() -> tuple[bool, str]:
    prec = Precision(50)
    total = (
        evaluate_z((2, 3, 1), prec)
        + evaluate_z((3, 2, 1), prec)
        + evaluate_z((3, 1, 2), prec)
    )
    want = pi(prec) ** 6 * Fraction(1, 5040)
    return _within(total, want, 40)


def crit_reversal_reduction() -> tuple[bool, str]:
    prec = Precision(45)
    lhs2 = evaluate_z((3, 2), prec) + evaluate_z((2, 3), prec)
    lhs3 = evaluate_z((3, 1, 2), prec) - evaluate_z((2, 1, 3), prec)
    pairs = [
        (lhs2, evaluate_z((3,), prec) * evaluate_z((2,), prec) - evaluate_z((5,), prec)),
        (lhs2, evaluate_formal_sum(reversal_reduction((3, 2)), prec)),
        (lhs3, evaluate_formal_sum(reversal_reduction((3, 1, 2)), prec)),
    ]
    return _worst(pairs, 35)


def crit_simplex_lock() -> tuple[bool, str]:
    prec = Precision(50)
    expected = [1, 2, 6, 26, 150, 1082]
    for n, want in enumerate(expected):
        if delta_negative_exact(n) != want:
            return False, f"recurrence value for n={n} is not {want}"
    pairs = ((evaluate_lambda(LambdaSpec.of((-n,), (2,)), prec), want) for n, want in enumerate(expected))
    return _worst(pairs, 40)


def crit_property_suites() -> tuple[bool, str]:
    rng = random.Random(424242)

    def base_entry():
        den = rng.choice((1, 2))
        return Fraction(rng.randint(2 * den, 9 * den), den)

    # exact rational product rule, 200 random base vectors in [2, 9]
    for _ in range(200):
        da, db = rng.randint(0, 3), rng.randint(1, 3)
        a = [base_entry() for _ in range(da)]
        b = [base_entry() for _ in range(db)]
        if not rational_stuffle_check(a, b):
            return False, f"rational product rule failed for {a} x {b}"
    # shuffle multiplicity
    for _ in range(40):
        n, m = rng.randint(0, 4), rng.randint(1, 4)
        w1 = tuple(Fraction(rng.choice((0, 1, -1, 2))) for _ in range(n))
        w2 = tuple(Fraction(rng.choice((0, 1, -1, 2))) for _ in range(m))
        total = sum(c for c, _ in shuffle_words(w1, w2))
        if total != comb(n + m, n):
            return False, f"shuffle multiplicity off for {w1} x {w2}"
    # planted relation recovery, 100 cases at 60 digits
    misses = 0
    for seed in range(9000, 9100):
        values, planted = planted_relation(seed)
        misses += lindep(values).coefficients != planted
    if misses:
        return False, f"{misses}/100 planted relations missed"
    # precision monotonicity on a sample of exported values
    for digits in (30, 40):
        for make in (
            lambda p: pi(p),
            lambda p: ln(2, p),
            lambda p: evaluate_z((3,), p),
            lambda p: evaluate_zp(2, (2, 1), p),
        ):
            low = str(make(Precision(digits)))
            high = str(BigReal(make(Precision(digits + 10)).to_fraction(), Precision(digits)))
            if low != high:
                return False, f"monotonicity broke at {digits} digits: {low} vs {high}"
    # stuffle / shuffle numeric consistency on random convergent specs with
    # mixed bases (depth <= 3, weight <= 6)
    prec = Precision(40)
    tol = _tol(30)

    def random_spec(max_depth=3, max_weight=6):
        while True:
            exps = exponent_string(rng, rng.randint(1, max_depth), max_weight, 3)
            bases = [Fraction(rng.choice((1, -1, 2, -2))) for _ in exps]
            spec = LambdaSpec.of(exps, tuple(bases))
            if spec.is_convergent():
                return spec

    for _ in range(10):
        u = random_spec()
        v = random_spec()
        lhs = evaluate_lambda(u, prec) * evaluate_lambda(v, prec)
        rhs = evaluate_formal_sum(stuffle_identity(u, v), prec)
        if abs(lhs - rhs).to_fraction() >= tol:
            return False, f"stuffle consistency failed for {u} x {v}"
    for _ in range(8):
        w1 = lambda_to_word(random_spec(max_depth=2, max_weight=3))
        w2 = lambda_to_word(random_spec(max_depth=2, max_weight=4))
        lhs = evaluate_word(w1, prec) * evaluate_word(w2, prec)
        rhs = evaluate_formal_sum(shuffle_words(w1, w2), prec)
        if abs(lhs - rhs).to_fraction() >= tol:
            return False, f"shuffle consistency failed for {w1} x {w2}"
    return True, "rational rule 200/200, shuffle counts, planted 100/100, monotonic, products consistent"


class Criterion(NamedTuple):
    ident: str
    label: str
    fn: Callable[[], tuple[bool, str]]
    slow: bool = False

    def run(self) -> tuple[bool, str]:
        """Pass flag and the line ``polyzeta selftest`` prints."""
        ok, detail = self.fn()
        status = "pass" if ok else "FAIL"
        return ok, f"{status} {self.ident}: {self.label} [{detail}]"


CRITERIA = (
    Criterion("euler", "z(2,1) equals z(3) at 50 digits", crit_euler),
    Criterion("ezface-golden", 'eval "Pi^6/z(6)" prints 945.000...', crit_ezface_golden),
    Criterion("lindep-weight8", "relation on the weight-8 depth-3 vector", crit_lindep_weight8),
    Criterion("lindep-log-form", "relation (12,-1,-12,-12) on the log form", crit_lindep_log_form),
    Criterion("zagier", "z({3,1}^n) = 2 pi^4n/(4n+2)! for n <= 3", crit_zagier),
    Criterion("z213-family", "z(2,{1,3}^n) closed form for n <= 2", crit_z213_family),
    Criterion("duality", "alternating pair + randomized word duality", crit_duality, slow=True),
    Criterion("holder-invariance", "split parameter invariance p in {2,3,3/2}", crit_holder_invariance, slow=True),
    Criterion("closed-forms", "powers of log 2, base-3 units, dilog at 1/2", crit_closed_forms),
    Criterion("t4-t5", "unit Euler sums vs A/P/Z closed forms", crit_t4_t5),
    Criterion("functional-equation", "eighth-value identity and J equation", crit_functional_equation),
    Criterion("zagier-dressed", "2-insertions of {3,1} sum to pi^6/7!", crit_zagier_dressed),
    Criterion("reversal-reduction", "depth-2 and depth-3 reversal sums", crit_reversal_reduction),
    Criterion("simplex-lock", "delta(-n) matches the recurrence", crit_simplex_lock),
    Criterion("property-suites", "rational rule, shuffles, planted relations", crit_property_suites, slow=True),
)


def run_criteria(level: str = "full") -> bool:
    """Run the criteria of a level, printing one pass/fail/skip line each to
    stdout and the wall time of each criterion run to stderr."""
    all_ok = True
    for crit in CRITERIA:
        if level == "fast" and crit.slow:
            print(f"skip {crit.ident}: {crit.label}", flush=True)
            continue
        start = time.perf_counter()
        ok, line = crit.run()
        elapsed = time.perf_counter() - start
        all_ok &= ok
        print(line, flush=True)
        print(f"time {crit.ident}: {elapsed:.3f} s", file=sys.stderr, flush=True)
    return all_ok
