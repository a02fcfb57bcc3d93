"""Numeric evaluation of convergent multiple polylogarithms.

One summation kernel.  It makes a single forward pass of N outer steps over
a spec in Python-int fixed point (scale 2^bits), with N from the closed-form
tail bound of ``plan_nested_sum``.  A pass returns either the full value
alone, at one floor division by n^s_j per level and step, or the truncated
value of every suffix of the spec, including the suffixes that start inside
a block of dx/x forms, at s_j divisions by n.  Each step multiplies and
floor-divides by small integers only: the base numerators and denominators
and powers of the summation index n.  The division by each base
b_j = num/den follows one plan per level, fixed before the steps
(``_division_plan``): a shift replaces the multiply by den = 2^e and the
division by num = +-2^u, so the bases +-2 and 4 of a +-1 word split at
p = 2 cost one shift and the halves 3/2 and 5/2 shift instead of
multiplying.  A right shift floors exactly as the floor division it
replaces, so the plan changes the cost of a step, not its value.

Routes.  ``_route`` decides once per spec which passes evaluate it, the
signs that combine their values, and the error factor that sets their
digits; ``working_precision`` and ``evaluate_lambda`` both read it.

* direct -- every base has modulus at least ``GEOMETRIC_THRESHOLD``, or a
  nonpositive exponent forces every modulus above 1, so the pass converges
  geometrically: one full-value pass of the spec.

* dual -- the dual word ``1 - reversed(word)`` has every base modulus at
  least ``GEOMETRIC_THRESHOLD``: ``sign *`` one full-value pass of the dual.

* split -- for words whose bases sit on or near the unit circle (MZVs,
  alternating sums), the [0,1] iterated integral splits at 1/p into
  weight+1 products sign_r * L_r * R_r with 1/p + 1/q = 1, as
  ``holder_split`` lists them.  Every right half R_r is the suffix
  ``p * word[r:]`` and every left half L_r is a suffix of ``q * dual``, so
  two every-suffix passes, one per scaled word, hold all 2(weight+1)
  factors.  p = q = 2 unless unit-gap bases make 2 infeasible, then an
  adaptive conjugate pair (``_split_parameter``).

Error budget.  Before its one final rounding, every value ``evaluate_lambda``
returns is within 10^-W of lambda, W = ``prec.working_dps``, so the BigReal
is right to every digit it carries.  A pass run to D digits stops where the
plan's tail bound is below 10^-D and keeps its rounding below 10^-D
(``_rounding_bits``), so each suffix value it returns is within 2*10^-D.

* direct and dual -- the value is one suffix value, so D = W + 1 suffices.

* split -- the value is sum_r sign_r * L_r * R_r over weight+1 products.  A
  word's suffixes have exponents s_j >= 1 and every |b_j| > 1; writing
  n_j = m_j + ... + m_k with every gap m_j >= 1 bounds a suffix by
  prod_j sum_m |b_j|^-m, so |lambda| <= M = prod_j max(1, 1/(|b_j| - 1)) for
  every suffix of the pass (the max keeps M valid for the shorter ones).
  With delta = 2*10^-D bounding |L~ - L| and |R~ - R|, each product is off
  by at most delta*(M_L + M_R + delta) <= delta*(M_L + M_R + 1), so the sum
  is off by at most (weight+1)*(M_L + M_R + 1)*delta, which is at most 10^-W
  once 10^(D-W) >= 2*(weight+1)*(M_L + M_R + 1).

``working_precision`` computes D before any pass, as W plus the decimal
exponent of the route's error factor: 2 on the direct and dual routes,
2*(weight+1)*(M_L + M_R + 1) on the split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DivergenceError, DomainError, UnsupportedSpec
from .model import (
    LambdaSpec,
    Word,
    dual_word,
    format_spec,
    lambda_from_z_string,
    lambda_to_word,
    require_convergent,
    word_convergent,
    word_depth,
    word_to_lambda,
)
from .precision import BigReal, Precision

GEOMETRIC_THRESHOLD = Fraction(3, 2)


def _geometric(bases) -> bool:
    return min(abs(b) for b in bases) >= GEOMETRIC_THRESHOLD


def _suffix_bound(bases) -> Fraction:
    """M = prod_j max(1, 1/(|b_j| - 1)), at least |lambda| of every suffix of
    a spec with these bases, positive exponents and every |b_j| > 1."""
    bound = Fraction(1)
    for b in bases:
        if abs(b) < 2:
            bound /= abs(b) - 1
    return bound


def _decimal_exponent(bound: Fraction) -> int:
    """Smallest e >= 0 with 10^e >= bound."""
    ceiling = -(-bound.numerator // bound.denominator)
    return len(str(ceiling - 1)) if ceiling > 1 else 0


@lru_cache(maxsize=4096)
def _route(spec: LambdaSpec) -> tuple[tuple[LambdaSpec, ...], tuple[int, ...], Fraction]:
    """(passes, signs, factor): the kernel passes that evaluate spec, the
    signs that combine their values, and the error factor of the sum.

    direct and dual make one full-value pass, of spec or of its dual, and
    the value is signs[0] times it.  The split makes two every-suffix
    passes, R of p*word and L of q*dual, and the value is
    sum_r signs[r] * L[weight-r] * R[r] with
    signs[r] = (-1)^(r + depth + depth(dual[weight-r:]) + depth(word[r:])),
    the terms of ``holder_split(word, p)``.  See the module docstring for
    the factor.
    """
    # no word encoding for nonpositive exponents, but convergence guarantees
    # all |b_j| > 1 there, so the direct pass still applies at its slower ratio
    if not spec.depth or _geometric(spec.bases) or min(spec.exponents) < 1:
        return (spec,), (1,), Fraction(2)
    word = lambda_to_word(spec)
    dual, sign = dual_word(word)
    dual_spec = word_to_lambda(dual)
    if _geometric(dual_spec.bases):
        return (dual_spec,), (sign,), Fraction(2)
    p = _split_parameter(word)
    right, left = _scaled_spec(word, p), _scaled_spec(dual, p / (p - 1))
    weight, k = len(word), word_depth(word)
    signs = tuple(
        (-1) ** (r + k + word_depth(dual[weight - r:]) + word_depth(word[r:]))
        for r in range(weight + 1)
    )
    bounds = _suffix_bound(left.bases) + _suffix_bound(right.bases)
    factor = 2 * (weight + 1) * (bounds + 1)
    return (right, left), signs, factor


def working_precision(prec: Precision, spec: LambdaSpec) -> Precision:
    """Precision whose working_dps D the kernel passes for spec run at:
    W = prec.working_dps plus the decimal exponent of the route's error
    factor, so the value is within 10^-W before its final rounding."""
    factor = _route(spec)[2]
    return Precision(prec.digits, prec.guard + _decimal_exponent(factor))


# ---------------------------------------------------------------------------
# Truncation plan and the fixed-point suffix kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SumPlan:
    """Truncation point N and the log10 of the tail bound there.

    With r = 1/min |b_j| and m = k - 1 + sum_{s_j < 0} -s_j, the tail of the
    nested sum past outer index N is at most sum_{n>N} n^m * r^n, which the
    plan bounds in closed form by g(N+1)/(1-rho) with g(n) = n^m r^n and
    rho = (1+r)/2, valid because N is chosen large enough that g is decaying
    at least as fast as rho.
    """

    terms: int
    tail_log10: float


def plan_nested_sum(spec: LambdaSpec, eps_log10: float) -> SumPlan:
    k = spec.depth
    rmin = min(abs(b) for b in spec.bases)
    if rmin <= 1:
        raise UnsupportedSpec(
            f"{format_spec(spec)}: direct summation needs all |b_j| > 1"
        )
    r = float(1 / rmin)
    m = (k - 1) + sum(-s for s in spec.exponents if s < 0)
    rho = (1 + r) / 2
    log_r = math.log10(r)
    log_gap = -math.log10(1 - rho)
    n = max(k, 1)
    while True:
        tail = m * math.log10(n + 1) + (n + 1) * log_r + log_gap
        if tail < eps_log10 and r * (1 + 1 / n) ** m <= rho:
            return SumPlan(n, tail)
        n += max(1, n // 8)


def _rounding_bits(spec: LambdaSpec, terms: int) -> int:
    """Bits that `terms` kernel steps of floor rounding can cost.

    Every multiplier in a step has modulus at most 1 (1/b_j, 1/n) except
    n^a_j with a_j = max(-s_j, 0), and a level makes at most
    c = 2 + max(s_j, 0) floor roundings per step, each off by under one
    unit.  So a level's error grows per step by at most n^a_j times (c plus
    the error of the level below), and the innermost power b_k^-n gains at
    most one unit per step.  Induction up the levels bounds every stored
    value's error after N steps by (1 + k c) N^D units, D = k + 1 + sum a_j.

    The full-value pass is covered by the same bound: a level divides once
    by n^s_j where the every-suffix pass divides s_j times by n, so it makes
    at most 2 floor roundings per level and step, never more than c.  Its
    value is in fact bit-identical to the every-suffix pass's full value,
    so bits, and every value the evaluator returns, are unchanged.

    The division plan leaves the count alone too: dividing by b_j is one
    floor rounding whether it is a right shift or a floor division (both
    floor the same exact quotient), and a multiply or left shift by den is
    exact.  So the plan changes neither these bits nor any stored value.
    """
    k = spec.depth
    c = 2 + max(max(s, 0) for s in spec.exponents)
    degree = k + 1 + sum(max(-s, 0) for s in spec.exponents)
    return math.ceil(math.log2(1 + k * c) + degree * math.log2(max(terms, 1)))


def _power_of_two_exponent(x: int) -> int | None:
    """u with x = 2^u, or None when x is not a power of two."""
    return x.bit_length() - 1 if x > 0 and not x & (x - 1) else None


@lru_cache(maxsize=1024)
def _division_plan(bases: tuple[Fraction, ...]):
    """The step that takes each level's stored A to floor(A * den / num).

    For b_j = num/den the plan multiplies by den as ``a << e`` when
    den = 2^e (not at all when den = 1), else as ``a * den``, and divides by
    num as ``a >> u`` when num = 2^u, ``-a >> u`` when num = -2^u, else as
    ``a // num``.  Python's shift floors like its floor division, so for
    every int x, x >> u == x // 2^u and -x >> u == x // -2^u: the plan is
    bit-identical to ``a * den // num`` and only cheaper (at 3400 bits a
    shift costs under a third of a division by 2).  The plan is compiled
    into one list expression, since a call per level would cost more than
    the shift saves on 40- to 70-digit passes.
    """
    levels = []
    for j, b in enumerate(bases):
        num, den = b.numerator, b.denominator
        a = f"a[{j}]"
        if den > 1:
            e = _power_of_two_exponent(den)
            a = f"({a} << {e})" if e is not None else f"{a} * {den}"
        u = _power_of_two_exponent(abs(num))
        if u is None:
            levels.append(f"{a} // {num}")
        else:
            levels.append(f"{'-' if num < 0 else ''}{a} >> {u}")
    return eval(f"lambda a: [{', '.join(levels)}]")


def _suffix_sums(
    spec: LambdaSpec, terms: int, dps: int, every_suffix: bool = True
) -> tuple[list[int], int]:
    """Truncated values of the suffixes of spec, as ints scaled by 2^bits.

    Returns (values, bits).  For positive exponents values[i] is the suffix
    that starts at position i of the spec's word, so a block (s, b) yields
    the suffixes with exponents s, s-1, ..., 1 in that order, and the last
    entry is the empty suffix, 1.  A nonpositive exponent yields only its
    own block's suffix.  Each value sums the outer index over 1..terms, and
    its rounding error stays below 10^-dps.

    The split needs every suffix.  The direct and dual routes need only the
    full value, so with every_suffix False the pass skips the partial
    suffixes and values holds just values[0]: a level then makes one floor
    division by n^s_j per step instead of s_j divisions by n, and only
    level 0 accumulates.  floor(floor(t/n)/n) = floor(t/n^2) for n > 0, so
    values[0] is bit-identical in both modes.

    With b_0 = 1 and P_j(n) the inner sum over n >= n_j > ... > n_k, the
    scaled partial sums A_j(n) = b_{j-1}^-n P_j(n) obey
        A_j(n) = A_j(n-1)/b_{j-1} + n^-s_j A_{j+1}(n-1)/b_j,
    with A_{k+1}(n) = b_k^-n; a suffix starting in block j with exponent
    s' <= s_j accumulates n^-s' A_{j+1}(n-1)/b_j.  Every |b_j| > 1 keeps
    each stored A bounded, so b^-n and x^n are never held apart.  Both
    modes take the division by b_j from one ``_division_plan``, built before
    the steps: shifts where a numerator or denominator is a power of two,
    each exactly the floor division it replaces, so values and bits do not
    depend on the plan.
    """
    bits = math.ceil(dps * math.log2(10)) + _rounding_bits(spec, terms)
    one = 1 << bits
    k = spec.depth
    exps = spec.exponents
    divide = _division_plan(spec.bases)
    # inner[j] holds A_{j+2}(n), inner[k-1] the power b_k^-n (1-based A)
    inner = [0] * (k - 1) + [one]
    if not every_suffix:
        total = 0
        for n in range(1, terms + 1):
            scaled = divide(inner)
            for j, s in enumerate(exps):
                t = scaled[j] // n ** s if s > 0 else scaled[j] * n ** -s
                if j:
                    inner[j - 1] = scaled[j - 1] + t
                else:
                    total += t
            inner[k - 1] = scaled[k - 1]
        return [total], bits

    sums = [[0] * max(s, 1) for s in exps]  # sums[j][i]: exponent i+1 (or s_j)
    for n in range(1, terms + 1):
        scaled = divide(inner)
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


# ---------------------------------------------------------------------------
# Conjugate-parameter split of the iterated integral
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitTerm:
    """One product term of the split: sign * lambda(left) * lambda(right)."""

    split_index: int
    sign: int
    left: LambdaSpec
    right: LambdaSpec


def _scaled_spec(word: Word, scale: Fraction) -> LambdaSpec:
    spec = word_to_lambda(word)
    return LambdaSpec(tuple((s, scale * b) for s, b in spec.terms))


def holder_split(word: Word, p: Fraction) -> tuple[SplitTerm, ...]:
    """Split a convergent word at every prefix length r = 0..weight.

    For each r the prefix is reversed and complemented (a -> 1-a), and both
    halves are rescaled onto [0,1] (bases multiplied by q on the left, p on
    the right).  The resulting identity is

        lambda(word) = sum_r sign_r * lambda(left_r) * lambda(right_r),

    with sign_r = (-1)^(r + depth(word) + depth(left_r) + depth(right_r))
    and empty halves contributing the factor 1.
    """
    ok, reason = word_convergent(word)
    if not ok:
        raise DivergenceError(f"word {word} diverges: {reason}")
    p = Fraction(p)
    if p <= 1:
        raise DomainError("split parameter p must exceed 1")
    q = p / (p - 1)
    k = word_depth(word)
    terms = []
    for r in range(len(word) + 1):
        left_word = tuple(1 - a for a in reversed(word[:r]))
        right_word = word[r:]
        left = _scaled_spec(left_word, q)
        right = _scaled_spec(right_word, p)
        sign = -1 if (r + k + left.depth + right.depth) % 2 else 1
        terms.append(SplitTerm(r, sign, left, right))
    return tuple(terms)


def _split_parameter(word: Word) -> Fraction:
    """Choose p so every half of the split is directly summable.

    m1 bounds base moduli on the right halves, m2 the complemented moduli on
    the left; feasibility needs p*m1 and q*m2 above 1, always satisfiable
    because m1 >= 1 and m2 > 0.
    """
    m1 = min(abs(a) for a in word if a != 0)
    m2 = min(
        [Fraction(1)] + [abs(1 - a) for a in word if a != 1 and a != 0]
    )
    if 2 * m1 >= GEOMETRIC_THRESHOLD and 2 * m2 >= GEOMETRIC_THRESHOLD:
        return Fraction(2)
    target = min(GEOMETRIC_THRESHOLD, (1 + m1 + m2) / 2)
    q = target / m2
    return q / (q - 1)


# ---------------------------------------------------------------------------
# Dispatchers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def evaluate_lambda(spec: LambdaSpec, prec: Precision) -> BigReal:
    """Evaluate any convergent spec to |error| < 10^-digits.

    Before the final rounding the value is within 10^-prec.working_dps; see
    ``working_precision``.  Pure in (spec, prec), so results are memoized;
    identity checks that sum many formal terms revisit the same values
    constantly.
    """
    require_convergent(spec)
    dps = working_precision(prec, spec).working_dps
    if spec.depth == 0:
        return BigReal(1, prec)
    passes, signs, _ = _route(spec)
    split = len(passes) == 2
    # each pass's values are within 2*10^-dps: the plan cuts the tail below
    # 10^-dps and the kernel keeps its rounding below 10^-dps.  A suffix has
    # no more levels and no smaller base modulus, so the pass's plan bounds
    # its tail too.
    runs = [
        _suffix_sums(s, plan_nested_sum(s, -dps).terms, dps, every_suffix=split)
        for s in passes
    ]
    if split:
        (right, right_bits), (left, left_bits) = runs
        weight = len(signs) - 1
        total = sum(sign * left[weight - r] * right[r] for r, sign in enumerate(signs))
        value = total, -(left_bits + right_bits)
    else:
        [([full], bits)] = runs
        value = signs[0] * full, -bits
    # one rounding, from the kernel's (mantissa, exponent) pair
    return BigReal(value, prec)


def evaluate_word(word: Word, prec: Precision) -> BigReal:
    """lambda value of the spec encoded by a convergent word."""
    return evaluate_lambda(word_to_lambda(word), prec)


def evaluate_z(entries, prec: Precision) -> BigReal:
    """Signed Euler-sum string in z notation."""
    return evaluate_lambda(lambda_from_z_string(entries), prec)


def evaluate_zp(p, exponents, prec: Precision) -> BigReal:
    """zp(p, s) = sum over n_1 > ... > n_k of p^-n_1 prod n_j^-s_j.

    Equals the constant-base value lambda_p(s); p = 1 reduces to the MZV and
    then needs s_1 >= 2.
    """
    p = Fraction(p)
    exponents = tuple(int(s) for s in exponents)
    if p < 1:
        raise DomainError(f"zp requires p >= 1, got {p}")
    if not exponents:
        raise ValueError("zp requires at least one exponent")
    if any(s < 1 for s in exponents):
        raise DomainError("zp exponents must be positive integers")
    if p == 1 and exponents[0] == 1:
        raise DivergenceError(
            f"zp(1, {', '.join(map(str, exponents))}) diverges: "
            "leading exponent 1 needs p > 1"
        )
    spec = LambdaSpec.of(exponents, (p,) * len(exponents))
    return evaluate_lambda(spec, prec)


def evaluate_J(x, prec: Precision) -> BigReal:
    """J(x) = sum_{n1 > n2} x^n1 / (n1^2 n2), for -1 <= x <= 1.

    Equals lambda(2, 1; 1/x, 1/x); J(0) = 0 (empty sum).
    """
    x = Fraction(x)
    if not -1 <= x <= 1:
        raise DomainError(f"J is defined on [-1, 1], got {x}")
    if x == 0:
        return BigReal(0, prec)
    spec = LambdaSpec.of((2, 1), (1 / x, 1 / x))
    return evaluate_lambda(spec, prec)
