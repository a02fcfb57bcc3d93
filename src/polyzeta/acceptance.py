"""Acceptance criteria, runnable from the CLI (`polyzeta selftest`) and from
the test suite.  Each criterion pins its tolerance; the runner prints one
pass/fail line per criterion."""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd
from typing import Callable

from .cli import eval_expression, format_result, parse_expression
from .evaluate import (
    direct_nested_sum,
    evaluate_lambda,
    evaluate_word,
    evaluate_z,
    evaluate_zp,
    evaluate_J,
    holder_split,
    working_precision,
)
from .identities import (
    closed_form,
    delta_negative_exact,
    evaluate_formal_sum,
    rational_stuffle_check,
    reversal_reduction,
    shuffle_words,
    stuffle_identity,
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
from .precision import BigReal, Precision, ln, pi, pow_int
from .relations import lindep


def _tol(exp10: int) -> Fraction:
    return Fraction(1, 10 ** exp10)


def _within(a: BigReal, b, exp10: int) -> tuple[bool, str]:
    diff = abs(a - b)
    ok = diff.to_fraction() < _tol(exp10)
    return ok, f"|diff| = {diff.to_fraction():.3e} vs 10^-{exp10}" if not ok else f"max residual < 10^-{exp10}"


def _max_residual(residuals) -> str:
    worst = max(residuals) if residuals else Fraction(0)
    return f"worst residual {float(worst):.3e}"


def word_corpus(count: int, max_weight: int, seed: int):
    """Deterministic convergent +-1-base words, distinct, weight bounded."""
    rng = random.Random(seed)
    seen = set()
    out = []
    while len(out) < count:
        depth = rng.randint(1, 4)
        exps = []
        budget = max_weight
        for j in range(depth):
            hi = budget - (depth - j - 1)
            if hi < 1:
                break
            exps.append(rng.randint(1, min(hi, 4)))
            budget -= exps[-1]
        if len(exps) < depth:
            continue
        signs = [rng.choice((1, -1)) for _ in exps]
        entries = tuple(s * e for s, e in zip(signs, exps))
        if entries[0] == 1:
            continue
        spec = lambda_from_z_string(entries)
        word = lambda_to_word(spec)
        if word in seen:
            continue
        seen.add(word)
        out.append(word)
    return out


def _evaluate_via_split(word, p: Fraction, prec: Precision) -> BigReal:
    spec_prec = working_precision(prec, word_to_lambda(word))
    total = BigReal(0, spec_prec)
    for term in holder_split(word, p):
        left = evaluate_lambda(term.left, spec_prec)
        right = evaluate_lambda(term.right, spec_prec)
        total = total + left * right * term.sign
    return BigReal(total.mpf, prec)


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
    values = [
        z(4, 1, 3),
        z(5, 3),
        z(8),
        z(5) * z(3),
        pow_int(z(3), 2, prec) * z(2),
    ]
    result = lindep(values)
    want = (36, 36, -71, 90, -18)
    if result.coefficients != want:
        return False, f"got {result.coefficients}, wanted {want}"
    return True, f"recovered {want}, residual {float(result.residual.to_fraction()):.1e}"


def crit_lindep_log_form() -> tuple[bool, str]:
    prec = Precision(50)
    values = [
        evaluate_z((3,), prec),
        pow_int(pi(prec), 2, prec) * ln(2, prec),
        evaluate_zp(2, (2, 1), prec),
        evaluate_zp(2, (3,), prec),
    ]
    result = lindep(values)
    want = (12, -1, -12, -12)
    if result.coefficients != want:
        return False, f"got {result.coefficients}, wanted {want}"
    return True, f"recovered {want}, residual {float(result.residual.to_fraction()):.1e}"


def crit_zagier() -> tuple[bool, str]:
    prec = Precision(50)
    residuals = []
    for n in range(4):
        got = evaluate_z((3, 1) * n, prec)
        want = closed_form("zagier", (n,), prec)
        residuals.append(abs(got - want).to_fraction())
    ok = all(r < _tol(45) for r in residuals)
    return ok, _max_residual(residuals)


def crit_z213_family() -> tuple[bool, str]:
    prec = Precision(50)
    residuals = []
    for n in (1, 2):
        got = evaluate_z((2,) + (1, 3) * n, prec)
        want = closed_form("z213", (n,), prec)
        residuals.append(abs(got - want).to_fraction())
    ok = all(r < _tol(40) for r in residuals)
    return ok, _max_residual(residuals)


def crit_duality() -> tuple[bool, str]:
    prec = Precision(50)
    a = evaluate_lambda(LambdaSpec.of((2, 1), (1, -1)), prec)
    b = evaluate_lambda(LambdaSpec.of((1, 2), (2, 1)), prec)
    if abs(a + b).to_fraction() >= _tol(45):
        return False, f"alternating pair residual {float(abs(a + b).to_fraction()):.3e}"
    residuals = []
    for word in word_corpus(15, 8, seed=20260809):
        dual, sign = dual_word(word)
        # left side through the split so the two routes stay independent
        lhs = _evaluate_via_split(word, Fraction(2), prec)
        rhs = evaluate_word(dual, prec) * sign
        residuals.append(abs(lhs - rhs).to_fraction())
    ok = all(r < _tol(40) for r in residuals)
    return ok, _max_residual(residuals)


def crit_holder_invariance() -> tuple[bool, str]:
    prec = Precision(50)
    params = (Fraction(2), Fraction(3), Fraction(3, 2))
    residuals = []
    for word in word_corpus(20, 8, seed=77):
        vals = [_evaluate_via_split(word, p, prec) for p in params]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                residuals.append(abs(vals[i] - vals[j]).to_fraction())
    ok = all(r < _tol(40) for r in residuals)
    return ok, _max_residual(residuals)


def crit_closed_forms() -> tuple[bool, str]:
    prec = Precision(50)
    residuals = []
    for n in range(7):
        got = evaluate_lambda(constant_base_spec(2, (1,) * n), prec)
        want = pow_int(ln(2, prec), n, prec) * Fraction(1, factorial(n))
        residuals.append(abs(got - want).to_fraction())
    for n in range(5):
        got = evaluate_lambda(constant_base_spec(3, (1,) * n), prec)
        want = closed_form("mu_power", (3, n), prec)
        residuals.append(abs(got - want).to_fraction())
    residuals.append(
        abs(evaluate_lambda(delta_spec(2), prec) - closed_form("li2_half", (), prec)).to_fraction()
    )
    residuals.append(
        abs(evaluate_lambda(delta_spec(1, 2), prec) - closed_form("delta_12", (), prec)).to_fraction()
    )
    ok = all(r < _tol(40) for r in residuals)
    return ok, _max_residual(residuals)


def crit_t4_t5() -> tuple[bool, str]:
    prec = Precision(50)
    residuals = []
    for m in (1, 2, 3):
        for n in (0, 1, 2):
            bases = (-1,) * m + (1,) + (-1,) * n
            got = evaluate_lambda(mu_spec(*bases), prec)
            want = closed_form("t5", (m, n), prec)
            residuals.append(abs(got - want).to_fraction())
            if n == 0:
                other = closed_form("t4", (m,), prec)
                residuals.append(abs(got - other).to_fraction())
    ok = all(r < _tol(40) for r in residuals)
    return ok, _max_residual(residuals)


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
    want = pow_int(pi(prec), 6, prec) * Fraction(1, 5040)
    return _within(total, want, 40)


def crit_reversal_reduction() -> tuple[bool, str]:
    prec = Precision(45)
    lhs2 = evaluate_z((3, 2), prec) + evaluate_z((2, 3), prec)
    rhs2 = evaluate_z((3,), prec) * evaluate_z((2,), prec) - evaluate_z((5,), prec)
    r1 = abs(lhs2 - rhs2).to_fraction()
    fs2 = reversal_reduction((3, 2))
    r2 = abs(lhs2 - evaluate_formal_sum(fs2, prec)).to_fraction()
    fs3 = reversal_reduction((3, 1, 2))
    lhs3 = evaluate_z((3, 1, 2), prec) - evaluate_z((2, 1, 3), prec)
    r3 = abs(lhs3 - evaluate_formal_sum(fs3, prec)).to_fraction()
    ok = r1 < _tol(35) and r2 < _tol(35) and r3 < _tol(35)
    return ok, _max_residual([r1, r2, r3])


def crit_simplex_lock() -> tuple[bool, str]:
    prec = Precision(50)
    expected = [1, 2, 6, 26, 150, 1082]
    residuals = []
    for n, want in enumerate(expected):
        if delta_negative_exact(n) != want:
            return False, f"recurrence value for n={n} is not {want}"
        got = direct_nested_sum(LambdaSpec.of((-n,), (2,)), prec)
        residuals.append(abs(got - want).to_fraction())
    ok = all(r < _tol(40) for r in residuals)
    return ok, _max_residual(residuals)


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
    for trial in range(100):
        case = random.Random(9000 + trial)
        n = case.randint(3, 6)
        prec = Precision(60)
        bits = 4 * prec.working_dps
        values = [
            BigReal(Fraction(case.getrandbits(bits), 2 ** bits) + 1, prec)
            for _ in range(n - 1)
        ]
        coeffs = [case.randint(-50, 50) or 1 for _ in range(n - 1)]
        last_coeff = case.randint(1, 50)
        acc = BigReal(0, prec)
        for c, v in zip(coeffs, values):
            acc = acc + v * c
        values.append(acc / (-last_coeff))
        planted = coeffs + [last_coeff]
        g = 0
        for v in planted:
            g = gcd(g, abs(v))
        planted = [v // g for v in planted]
        if planted[next(i for i, v in enumerate(planted) if v)] < 0:
            planted = [-v for v in planted]
        got = lindep(values)
        if got.coefficients != tuple(planted):
            misses += 1
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
            high = str(
                BigReal(make(Precision(digits + 10)).mpf, Precision(digits))
            )
            if low != high:
                return False, f"monotonicity broke at {digits} digits: {low} vs {high}"
    # stuffle / shuffle numeric consistency on random convergent specs with
    # mixed bases (depth <= 3, weight <= 6)
    prec = Precision(40)
    tol = _tol(30)

    def random_spec(max_depth=3, max_weight=6):
        while True:
            depth = rng.randint(1, max_depth)
            exps = []
            budget = max_weight
            for j in range(depth):
                hi = budget - (depth - j - 1)
                exps.append(rng.randint(1, max(1, min(hi, 3))))
                budget -= exps[-1]
            bases = [Fraction(rng.choice((1, -1, 2, -2))) for _ in range(depth)]
            spec = LambdaSpec.of(tuple(exps), tuple(bases))
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
        if len(w1) + len(w2) > 7:
            continue
        lhs = evaluate_word(w1, prec) * evaluate_word(w2, prec)
        rhs = evaluate_formal_sum(shuffle_words(w1, w2), prec)
        if abs(lhs - rhs).to_fraction() >= tol:
            return False, f"shuffle consistency failed for {w1} x {w2}"
    return True, "rational rule 200/200, shuffle counts, planted 100/100, monotonic, products consistent"


@dataclass(frozen=True)
class Criterion:
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


def run_criteria(level: str = "full", out=None) -> bool:
    """Run the criteria of a level, printing one pass/fail/skip line each to
    ``out`` and the wall time of each criterion run to stderr."""
    out = out or sys.stdout
    all_ok = True
    for crit in CRITERIA:
        if level == "fast" and crit.slow:
            print(f"skip {crit.ident}: {crit.label}", file=out, flush=True)
            continue
        start = time.perf_counter()
        ok, line = crit.run()
        elapsed = time.perf_counter() - start
        all_ok &= ok
        print(line, file=out, flush=True)
        print(f"time {crit.ident}: {elapsed:.3f} s", file=sys.stderr, flush=True)
    return all_ok
