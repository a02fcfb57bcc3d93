"""Numeric evaluation of convergent multiple polylogarithms.

One summation kernel.  It makes a single forward pass of N outer steps over
a spec in Python-int fixed point (scale 2^bits), with N from the closed-form
tail bound of ``plan_nested_sum``.  A pass returns either the full value
alone, at one floor division by n^s_j per level and step, or the truncated
value of every suffix of the spec, including the suffixes that start inside
a block of dx/x forms, at s_j divisions by n.  Each step multiplies and
floor-divides by small integers only: the base numerators and denominators
and powers of the summation index n.  Each pass runs as straight-line
Python compiled once per exponents, bases and mode (``_compiled_pass``):
locals in place of lists, the s_j divisions by n unrolled, and a shift
wherever a base's numerator or denominator is a power of two, so the bases
+-2 and 4 of a +-1 word split at p = 2 cost one shift per level and step.
A right shift floors exactly as the floor division it replaces, so
compiling changes the cost of a step, not its value.

Routes.  ``plan(spec, prec)`` decides once per (spec, prec), before any
pass, how ``evaluate_lambda`` computes the value: the route and its p, the
signs that combine the passes' values, the working precision, and per pass
the spec, the steps and the bits (a frozen ``Plan``).  Only the direct and
split routes run passes.  A plan reads the spec's int key, the exponents
and each base's (numerator, denominator), not Fraction arithmetic: the
geometric tests and p = 2 are ratio comparisons, the suffix bounds and
the error factor are int products, and the split's signs are parities of
suffix counts of nonzero letters, read off the exponents and the bases
equal to 1.  ``plan_nested_sum`` skips the points of its step sequence
that cannot pass its tail test, and it says why.

* direct -- every base has modulus at least ``GEOMETRIC_THRESHOLD``, or a
  nonpositive exponent forces every modulus above 1, so the pass converges
  geometrically: one full-value pass of the spec.

* split -- for words whose bases sit on or near the unit circle (MZVs,
  alternating sums), the [0,1] iterated integral splits at 1/p into
  weight+1 products sign_r * L_r * R_r with 1/p + 1/q = 1, as
  ``holder_split`` lists them.  Every right half R_r is the suffix
  ``p * word[r:]`` and every left half L_r is a suffix of ``q * dual``, so
  two every-suffix passes, one per scaled word, hold all 2(weight+1)
  factors.  p = q = 2 unless unit-gap bases make 2 infeasible, then an
  adaptive conjugate pair (``_split_parameter``).

* dual -- ``sign *`` the dual's own value, ``evaluate_lambda(dual, prec)``
  through its memo, where ``dual_word`` gives the dual word
  ``1 - reversed(word)`` and the sign; the plan's p, working precision and
  passes are those of ``plan(dual, prec)``.  A spec takes it when its
  dual's bases are all geometric, so the dual's route is direct, or when
  its dual converges as a sum and has the smaller ``LambdaSpec.key`` of the
  two.  Then both specs converge, so every letter b of the word other than
  0 and 1 has |b| >= 1 and |1 - b| >= 1, and both split at p = q = 2: the
  dual's passes 2*dual and 2*word are the word's two passes, swapped.  Its
  signs are the word's reversed times (-1)^(weight + depth + depth(dual)),
  the sign of ``dual_word``, so the dual's total is exactly sign times the
  word's, over the same bits; the working precision is the same, and
  rounding to nearest is odd-symmetric, so the value keeps every bit the
  word's own split gives it.  A pair evaluated on both sides runs its two
  passes once.  A dual with a letter in (-1, 0) diverges as a sum, so its
  word keeps its split, often at an adaptive p.

Error budget.  Before its one final rounding, every value ``evaluate_lambda``
returns is within 10^-W of lambda, W = ``prec.working_dps``, the digits
plus the guard digits.  A pass run to D digits stops where the plan's tail
bound is below 10^-D and keeps its rounding below 10^-D
(``_rounding_bits``), so each suffix value it returns is within 2*10^-D.

* direct -- the value is one suffix value, so D = W + 1 suffices.

* split -- the value is sum_r sign_r * L_r * R_r over weight+1 products.  A
  word's suffixes have exponents s_j >= 1 and every |b_j| > 1; writing
  n_j = m_j + ... + m_k with every gap m_j >= 1 bounds a suffix by
  prod_j sum_m |b_j|^-m, so |lambda| <= M = prod_j max(1, 1/(|b_j| - 1)) for
  every suffix of the pass (the max keeps M valid for the shorter ones).
  With delta = 2*10^-D bounding |L~ - L| and |R~ - R|, each product is off
  by at most delta*(M_L + M_R + delta) <= delta*(M_L + M_R + 1), so the sum
  is off by at most (weight+1)*(M_L + M_R + 1)*delta, which is at most 10^-W
  once 10^(D-W) >= 2*(weight+1)*(M_L + M_R + 1).

* dual -- the value is the dual's, within its route's budget.

The plan's working precision runs the passes at D digits: W plus the
decimal exponent of the route's error factor, 2 on the direct route,
2*(weight+1)*(M_L + M_R + 1) on the split, and the dual's on the dual
route.

Memos.  Three ``lru_cache`` memos hold the evaluator's state; clearing all
three makes the next evaluation cold:

* ``plan`` -- keyed by (spec, prec): the Plan;
* ``_compiled_pass`` -- keyed by (exponents, (numerator, denominator) of
  each base, every_suffix), the last two parts of the pass spec's
  ``LambdaSpec.key``: the compiled pass;
* ``evaluate_lambda`` -- keyed by (spec, prec): the value.

The dual route adds none: a spec on it holds its own entries in ``plan``
and ``evaluate_lambda``, and reads its value from the dual's entry, so
clearing ``evaluate_lambda`` alone still makes every next value run its
passes again.

The two (spec, prec) memos are typed, and both functions refuse a prec
that is not a Precision: a plain tuple equals the Precision of the same
fields, so an untyped memo would answer it from the cache.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import DivergenceError, DomainError, UnsupportedSpec
from .model import (
    LambdaSpec,
    Word,
    dual_word,
    format_spec,
    int_tuple,
    lambda_from_z_string,
    lambda_to_word,
    rational,
    require_convergent,
    word_depth,
    word_to_lambda,
)
from .precision import BigReal, Precision

GEOMETRIC_THRESHOLD = Fraction(3, 2)
_T_NUM, _T_DEN = GEOMETRIC_THRESHOLD.as_integer_ratio()


def _geometric(ratios) -> bool:
    """Every base n/d, given as its pair, has |n|/d >= GEOMETRIC_THRESHOLD."""
    return all(abs(n) * _T_DEN >= _T_NUM * d for n, d in ratios)


def _suffix_bound(ratios) -> tuple[int, int]:
    """M = prod_j max(1, 1/(|b_j| - 1)), at least |lambda| of every suffix of
    a spec with these bases, positive exponents and every |b_j| > 1, as a
    (numerator, denominator) pair: a base n/d with |n| < 2d gives d/(|n| - d)."""
    num = den = 1
    for n, d in ratios:
        if abs(n) < 2 * d:
            num *= d
            den *= abs(n) - d
    return num, den


def _decimal_exponent(num: int, den: int) -> int:
    """Smallest e >= 0 with 10^e >= num/den."""
    ceiling = -(-num // den)
    return len(str(ceiling - 1)) if ceiling > 1 else 0


# ---------------------------------------------------------------------------
# Truncation plan and the fixed-point suffix kernel
# ---------------------------------------------------------------------------

# Every record in the package is a NamedTuple, or a small slotted class where
# its type checks an invariant, never a frozen dataclass: building a dataclass
# costs about 0.7 ms at every import, a few percent of a CLI start.
class SumPlan(NamedTuple):
    """One kernel pass of spec run to 10^eps: its N outer steps, the log10
    of the tail bound there, and the bits of its fixed-point scale 2^bits.

    With r = 1/min |b_j| and m = k - 1 + sum_{s_j < 0} -s_j, the tail of the
    nested sum past outer index N is at most sum_{n>N} n^m * r^n, which the
    plan bounds in closed form by g(N+1)/(1-rho) with g(n) = n^m r^n and
    rho = (1+r)/2, valid because N is chosen large enough that g is decaying
    at least as fast as rho.  The bits keep the rounding of N steps below
    10^eps too (``_rounding_bits``).
    """

    spec: LambdaSpec
    terms: int
    tail_log10: float
    bits: int


_NEAR_ONE = "a base modulus this close to 1 cannot be summed"


def plan_nested_sum(spec: LambdaSpec, eps_log10: float) -> SumPlan:
    """The SumPlan of spec at 10^eps_log10.

    It reads the exponents and the bases' (numerator, denominator) pairs:
    the least modulus num/den by cross products, and r = den/num, the
    float of 1/min |b_j|.  N is the first point of the sequence max(k, 1),
    n + max(1, n // 8), ... at which the tail bound is below 10^eps_log10
    and r(1 + 1/n)^m <= rho.  As m log10(n + 1) >= 0, the bound's log10 is
    at least (n + 1) log10(r) + log_gap, so no point below least =
    (eps_log10 - log_gap)/log10(r) - 1 passes.  Each point whose next one
    is still below least is skipped untested: it misses by at least a step
    times |log10(r)|, far beyond float rounding.  Every later point is
    tested as before, so N and tail_log10 are those of testing them all.
    """
    k = spec.depth
    num, den = 1, 0  # the least |n|/d so far, from an infinite start
    for n, d in spec.key[2]:
        if abs(n) * den < num * d:
            num, den = abs(n), d
    if num <= den:
        raise UnsupportedSpec(
            f"{format_spec(spec)}: direct summation needs all |b_j| > 1"
        )
    r = den / num
    m = (k - 1) - sum(s for s in spec.exponents if s < 0)
    rho = (1 + r) / 2
    if rho == 1:
        # r is within float rounding of 1, so 1 - rho is 0 and no float tail
        # bound exists (nor a number of terms that could be run)
        raise UnsupportedSpec(f"{format_spec(spec)}: {_NEAR_ONE}")
    log_r = math.log10(r)
    log_gap = -math.log10(1 - rho)
    n = max(k, 1)
    least = (eps_log10 - log_gap) / log_r - 1
    while n + (n // 8 or 1) < least:
        n += n // 8 or 1
    while True:
        tail = m * math.log10(n + 1) + (n + 1) * log_r + log_gap
        if tail < eps_log10 and r * (1 + 1 / n) ** m <= rho:
            bits = math.ceil(-eps_log10 * math.log2(10)) + _rounding_bits(spec, n)
            return SumPlan(spec, n, tail, bits)
        n += n // 8 or 1


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

    The compiled pass leaves the count alone too: dividing by b_j is one
    floor rounding whether it is a right shift or a floor division (both
    floor the same exact quotient), and a multiply or left shift by den is
    exact.  So compiling changes neither these bits nor any stored value.
    """
    k = spec.depth
    c = 2 + max(max(spec.exponents), 0)
    degree = k + 1 - sum(s for s in spec.exponents if s < 0)
    return math.ceil(math.log2(1 + k * c) + degree * math.log2(max(terms, 1)))


def _power_of_two_exponent(x: int) -> int | None:
    """u with x = 2^u, or None when x is not a power of two."""
    return x.bit_length() - 1 if x > 0 and not x & (x - 1) else None


@lru_cache(maxsize=1024)
def _compiled_pass(
    exponents: tuple[int, ...], bases: tuple[tuple[int, int], ...], every_suffix: bool
):
    """The kernel pass over these exponents and (numerator, denominator)
    bases as one straight-line function (terms, one) -> values: the
    truncated values of the spec's suffixes, summing the outer index over
    1..terms, as ints scaled by one = 2^bits.

    For positive exponents values[i] is the suffix that starts at position
    i of the spec's word, so a block (s, b) yields the suffixes with
    exponents s, s-1, ..., 1 in that order, and the last entry is the empty
    suffix, 1.  A nonpositive exponent yields only its own block's suffix.
    The split needs every suffix.  The direct and dual routes need only the
    full value, so with every_suffix False values holds just values[0]:
    floor(floor(t/n)/n) = floor(t/n^2) for n > 0, so it is bit-identical in
    both modes.

    With b_0 = 1 and P_j(n) the inner sum over n >= n_j > ... > n_k, the
    scaled partial sums A_j(n) = b_{j-1}^-n P_j(n) obey
        A_j(n) = A_j(n-1)/b_{j-1} + n^-s_j A_{j+1}(n-1)/b_j,
    with A_{k+1}(n) = b_k^-n; a suffix starting in block j with exponent
    s' <= s_j accumulates n^-s' A_{j+1}(n-1)/b_j.  Every |b_j| > 1 keeps
    each stored A bounded, so b^-n and x^n are never held apart.

    Each level's stored A, its scaled value and its suffix sums are locals
    (a0..., c0..., s0_0...).  A step first scales every level,
    c_j = floor(a_j * den / num): it multiplies by den as ``a << e`` when
    den = 2^e (not at all when den = 1), else as ``a * den``, and divides
    by num as ``a >> u`` when num = 2^u, ``-a >> u`` when num = -2^u, else
    as ``a // num``.  Python's shift floors like its floor division, so for
    every int x, x >> u == x // 2^u and -x >> u == x // -2^u.  Then level j
    divides by n: s_j unrolled ``t = t // n`` lines, each added to its
    suffix sum, in every-suffix mode; one ``// n ** s_j`` in full-value
    mode; a multiply by ``n ** -s_j`` when s_j <= 0.  It stores
    a_{j-1} = c_{j-1} + t, and the step ends with a_{k-1} = c_{k-1}.

    The source is exec'd, so every exponent, numerator and denominator
    must be a plain int; anything else, a bool included, raises TypeError
    before any source is built.  (A key equal to one already compiled, such
    as True for 1, gets that pass, which was built from ints.)
    """
    if any(type(x) is not int for x in exponents + sum(bases, ())):
        raise TypeError(
            "a kernel pass takes int exponents and (int, int) bases, "
            f"got {exponents!r} and {bases!r}"
        )
    k = len(exponents)
    step = []
    sums = [] if every_suffix else ["s0_0"]
    for j, (num, den) in enumerate(bases):
        a = f"a{j}"
        if den > 1:
            e = _power_of_two_exponent(den)
            a = f"({a} << {e})" if e is not None else f"{a} * {den}"
        u = _power_of_two_exponent(abs(num))
        sign = "-" if num < 0 else ""
        step.append(f"c{j} = {a} // {num}" if u is None else f"c{j} = {sign}{a} >> {u}")
    for j, s in enumerate(exponents):
        power = "n" if abs(s) == 1 else f"n ** {abs(s)}"
        t = f"c{j} // {power}" if s > 0 else f"c{j} * {power}"
        if every_suffix:
            divisions = [f"c{j} // n"] + ["t // n"] * (s - 1) if s > 0 else [t]
            for i, division in enumerate(divisions):
                step += [f"t = {division}", f"s{j}_{i} += t"]
            sums += [f"s{j}_{i}" for i in reversed(range(len(divisions)))]
            t = "t"
        if j:
            step.append(f"a{j - 1} = c{j - 1} + {t}")
        elif not every_suffix:
            step.append(f"s0_0 += {t}")
    step.append(f"a{k - 1} = c{k - 1}")
    values = sums + ["one"] if every_suffix else sums
    source = [
        "def kernel_pass(terms, one):",
        *(f"    a{j} = 0" for j in range(k - 1)),
        f"    a{k - 1} = one",
        *(f"    {v} = 0" for v in sums),
        "    for n in range(1, terms + 1):",
        *(f"        {line}" for line in step),
        f"    return [{', '.join(values)}]",
    ]
    namespace = {}
    exec("\n".join(source), namespace)
    return namespace["kernel_pass"]


# ---------------------------------------------------------------------------
# Conjugate-parameter split of the iterated integral
# ---------------------------------------------------------------------------

class SplitTerm(NamedTuple):
    """One product term of the split: sign * lambda(left) * lambda(right)."""

    split_index: int
    sign: int
    left: LambdaSpec
    right: LambdaSpec


def _scaled_spec(spec: LambdaSpec, num: int, den: int) -> LambdaSpec:
    """spec with every base multiplied by num/den > 0, from the pairs."""
    pairs = zip(spec.exponents, spec.key[2])
    return LambdaSpec(tuple([(s, Fraction(n * num, d * den)) for s, (n, d) in pairs]))


def holder_split(word: Word, p: Fraction) -> tuple[SplitTerm, ...]:
    """Split a convergent word at every prefix length r = 0..weight.

    For each r the left half is the prefix reversed and complemented
    (a -> 1-a), the suffix ``dual[weight - r:]`` of `model.dual_word`'s
    dual, and both halves are rescaled onto [0,1] (bases multiplied by q on
    the left, p on the right).  The resulting identity is

        lambda(word) = sum_r sign_r * lambda(left_r) * lambda(right_r),

    with sign_r = (-1)^(r + depth(word) + depth(left_r) + depth(right_r))
    and empty halves contributing the factor 1.
    """
    dual, _ = dual_word(word)
    p = rational(p)
    if p <= 1:
        raise DomainError("split parameter p must exceed 1")
    p_num, p_den = p.as_integer_ratio()
    k = word_depth(word)
    weight = len(word)
    terms = []
    for r in range(weight + 1):
        left = _scaled_spec(word_to_lambda(dual[weight - r:]), p_num, p_num - p_den)
        right = _scaled_spec(word_to_lambda(word[r:]), p_num, p_den)
        sign = -1 if (r + k + left.depth + right.depth) % 2 else 1
        terms.append(SplitTerm(r, sign, left, right))
    return tuple(terms)


def _split_parameter(ratios) -> Fraction:
    """Choose p so every half of the split is directly summable, from the
    bases' (numerator, denominator) pairs, the word's nonzero letters.

    m1 bounds base moduli on the right halves, m2 the complemented moduli on
    the left; feasibility needs p*m1 and q*m2 above 1, always satisfiable
    because m1 >= 1 and m2 > 0.  As 2*m1 >= 2, p = 2 exactly when 2*m2
    reaches the threshold, which is decided on the pairs: 2|1 - a| =
    2|d - n|/d for each letter a = n/d other than 1.
    """
    if all(n == d or 2 * abs(d - n) * _T_DEN >= _T_NUM * d for n, d in ratios):
        return Fraction(2)
    m1 = min(Fraction(abs(n), d) for n, d in ratios)
    m2 = min([Fraction(1)] + [Fraction(abs(d - n), d) for n, d in ratios if n != d])
    target = min(GEOMETRIC_THRESHOLD, (1 + m1 + m2) / 2)
    q = target / m2
    return q / (q - 1)


# ---------------------------------------------------------------------------
# One plan per (spec, prec), and the dispatchers
# ---------------------------------------------------------------------------

class Plan(NamedTuple):
    """How ``evaluate_lambda`` computes a spec at a precision, before any pass.

    route is "direct", "dual" or "split".  The direct route returns its one
    full-value pass's value.  The split's passes are R of p*word and L of
    q*dual, every-suffix, and it returns sum_r signs[r] * L[weight-r] * R[r]
    with signs[r] = (-1)^(r + depth + depth(dual[weight-r:]) + depth(word[r:])),
    the terms of ``holder_split(word, p)``.  The dual route returns
    signs[0] times the value of dual, the dual word's spec, and its p,
    working precision and passes are those of ``plan(dual, prec)``: the
    passes it costs, run once for the pair.  p is None and dual is None
    where they do not apply.
    """

    route: str
    p: Fraction | None
    signs: tuple[int, ...]
    working: Precision
    passes: tuple[SumPlan, ...]
    dual: LambdaSpec | None


@lru_cache(maxsize=4096, typed=True)
def plan(spec: LambdaSpec, prec: Precision) -> Plan:
    """The Plan of spec at prec; the module docstring derives its routes
    and its working precision."""
    if not isinstance(prec, Precision):
        raise TypeError(f"prec must be a Precision, got {prec!r}")
    route, p, specs, signs, factor = "direct", None, (spec,), (1,), (2, 1)
    _, exponents, ratios = spec.key
    # no word encoding for nonpositive exponents, but convergence guarantees
    # all |b_j| > 1 there, so the direct pass still applies at its slower ratio
    if spec.depth and not _geometric(ratios) and min(exponents) >= 1:
        dual, sign = dual_word(lambda_to_word(spec))
        dual_spec = word_to_lambda(dual)
        # the dual's own value costs no more than this spec's: one direct
        # pass when its bases are geometric, else its split, which runs this
        # spec's two passes in mirror order.  Of such a pair the spec with
        # the smaller key runs them and the other takes its value, and the
        # dual's plan derives its own pair; a dual that diverges as a sum
        # has no value of its own to give.
        if _geometric(dual_spec.key[2]) or (
            dual_spec.key < spec.key and dual_spec.is_convergent()
        ):
            how = plan(dual_spec, prec)
            return Plan("dual", how.p, (sign,), how.working, how.passes, dual_spec)
        route, p = "split", _split_parameter(ratios)
        p_num, p_den = p.as_integer_ratio()
        specs = _scaled_spec(spec, p_num, p_den), _scaled_spec(dual_spec, p_num, p_num - p_den)
        # signs[r] = (-1)^(r + k + depth(dual[weight-r:]) + depth(word[r:])),
        # from suffix counts of nonzero letters: the exponent is 2k at r = 0,
        # and passing a letter a adds 1 + [1 - a != 0] - [a != 0], which is
        # odd just for a letter other than 0 and 1, a base other than 1
        signs, current = [], 1
        for s, (n, d) in zip(exponents, ratios):
            signs += [current] * s
            current = current if n == d else -current
        signs = tuple(signs + [current])
        # 2 (weight + 1) (M_R + M_L + 1), each M a pair, as one pair
        (m_r, d_r), (m_l, d_l) = _suffix_bound(specs[0].key[2]), _suffix_bound(specs[1].key[2])
        factor = 2 * len(signs) * (m_r * d_l + m_l * d_r + d_r * d_l), d_r * d_l
    working = Precision(prec.digits, prec.guard + _decimal_exponent(*factor))
    # each pass's values are within 2*10^-D: its plan cuts the tail below
    # 10^-D and its bits keep the rounding below 10^-D.  A suffix has no more
    # levels and no smaller base modulus, so the pass's plan bounds its tail too.
    try:
        passes = tuple(plan_nested_sum(s, -working.working_dps) for s in specs if s.depth)
    except UnsupportedSpec:
        if route == "direct":
            raise
        # the split's halves have every |b_j| > 1 and fail only near 1, on
        # scaled bases: name the spec that was asked for
        raise UnsupportedSpec(f"{format_spec(spec)}: {_NEAR_ONE}") from None
    return Plan(route, p, signs, working, passes, None)


@lru_cache(maxsize=4096, typed=True)
def evaluate_lambda(spec: LambdaSpec, prec: Precision) -> BigReal:
    """Evaluate any convergent spec to W = prec.working_dps significant
    digits, W = digits + guard.

    Runs the passes of ``plan(spec, prec)`` and combines them, so before the
    final rounding the value is within 10^-W of lambda; that rounding, to
    the binary precision of W digits, moves it by at most a fifth of
    10^-W |lambda|.  The contract is relative: |error| < 10^-W max(1,
    |lambda|) * 6/5, so the value is right to W significant digits, and
    within 10^-digits absolutely while |lambda| < 10^guard.  Past that only
    the relative bound holds: lambda(-30; 2), about 2.28e37, comes back at
    12 digits off by about 4758, 2e-34 of its size.  Pure in (spec, prec),
    so results are memoized; identity checks that sum many formal terms
    revisit the same values constantly.
    """
    if not isinstance(prec, Precision):
        raise TypeError(f"prec must be a Precision, got {prec!r}")
    require_convergent(spec)
    if spec.depth == 0:
        return BigReal(1, prec)
    how = plan(spec, prec)
    if how.route == "dual":
        # through the memo, so the pair's second member costs a lookup
        value = evaluate_lambda(how.dual, prec)
        return value if how.signs[0] > 0 else -value
    split = how.route == "split"
    # a self-dual word's two split passes are equal, so each distinct pass
    # runs once
    values = {}
    for run in how.passes:
        if run not in values:
            kernel = _compiled_pass(*run.spec.key[1:], split)
            values[run] = kernel(run.terms, 1 << run.bits)
    runs = [values[run] for run in how.passes]
    if split:
        right, left = runs
        weight = len(how.signs) - 1
        total = sum(sign * left[weight - r] * right[r] for r, sign in enumerate(how.signs))
    else:
        [[total]] = runs
    # one rounding, from the kernel's (mantissa, exponent) pair
    return BigReal((total, -sum(run.bits for run in how.passes)), prec)


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
    p = rational(p)
    exponents = int_tuple(exponents)
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
    x = rational(x)
    if not -1 <= x <= 1:
        raise DomainError(f"J is defined on [-1, 1], got {x}")
    if x == 0:
        return BigReal(0, prec)
    spec = LambdaSpec.of((2, 1), (1 / x, 1 / x))
    return evaluate_lambda(spec, prec)
