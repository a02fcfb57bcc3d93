"""Integer-relation discovery over vectors of high-precision reals.

One integral LLL, `_lll`, serves every reduction, at the Lovasz parameter
its caller passes: 3/4 (`LOVASZ`) for `lll_reduce` and the final pass, 3/10
(`LIFT_LOVASZ`) for the lifts.  It tracks the Gram-Schmidt data through the
scaled integers lambda_ij and the Gram determinants d_i, so every division
is exact.  It runs on the Gram matrix of the basis and moves only the
n-column unimodular transform: `lll_reduce` and the final pass multiply that
transform back into their rows, and the lifts use it as it is.  `lindep`
embeds the input reals into the classical relation lattice
(e_i | round(C x_i)) and accepts a candidate c only when its norm is under a
cap and the recomputed |sum c_i x_i| is below |c|_1 / C (``_accepts``).

The relation lattice is reduced at growing precision, in the lift-reduce
manner of Novocin, Stehle and Villard: each lift adds the next
`STAGE_DIGITS` digits of the column to the basis the previous lift reduced,
truncated to about `LIFT_BITS` bits, and records the unimodular transform.
A lift reduces weakly, at 3/10: it only has to bring the basis close enough
for the next stage, and LLL terminates for any parameter above 1/4.
After each lift, `lindep` tests the transform's rows against its acceptance
test and returns the first that passes, skipping the remaining lifts.  Only
when no row of any lift passes does the final pass run: the exact LLL on the
full, untruncated lattice, reached through the transform, so the basis that
the "no relation" verdict and its exclusion bound read is LLL-reduced
whatever the lifts did.  Each lift and the final pass is a stage that offers
candidates (``_stages``); `lindep` runs the one residual and acceptance test
over them all.  So a candidate from a weakly reduced lift is as certified as
one from the final pass: the test reads the candidate, not how reduced the
basis it came from was.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from typing import NamedTuple

from .errors import InsufficientPrecision
from .model import int_tuple
from .precision import BigReal, linear_combination

# Lovasz parameter, as (numerator, denominator), of `lll_reduce` and of the
# exact final pass, whose basis the "no relation" verdict reads.
LOVASZ = (3, 4)
MIN_LINDEP_DIGITS = 30
# Digits of the scaled column that each lift of the staged reduction adds.
# Wider stages make fewer LLL calls but give each more swaps on larger
# numbers; narrower ones make more calls, each on a lattice closer to reduced.
STAGE_DIGITS = 30
# Bits kept in the second-smallest row of a lift after its right shift.
# Fewer bits make each lift's Gram numbers smaller; too few leave the lift
# too coarse to reduce, which moves its work on to the next stage.
LIFT_BITS = 100
# Lovasz parameter of every lift.  A lift only has to bring the basis close
# enough for the next stage, and LLL terminates for any parameter in
# (1/4, 1].  A weaker one makes fewer swaps and size reductions in each
# lift, but leaves its rows longer, which moves work on to the next stage
# and the final pass.  Of 2/5, 1/3, 3/10 and 27/100, 3/10 ran the
# benchmark's relation_hunt references fastest (ROADMAP dead ends).
LIFT_LOVASZ = (3, 10)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _dot(u, v):
    return sum(map(operator.mul, u, v))


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _gram(rows):
    """The lower triangle of the rows' Gram matrix: row i holds
    rows_i . rows_j for j <= i, all that `_lll` reads."""
    return [[_dot(a, b) for b in rows[:i + 1]] for i, a in enumerate(rows)]


def _times(v, rows):
    """The product V rows, reading rows by columns."""
    columns = list(zip(*rows))
    return [[_dot(vrow, column) for column in columns] for vrow in v]


def _lll(gram, lovasz):
    """Integral LLL of a basis B given by its Gram matrix, of which it reads
    only the lower triangle (``_gram``).

    Returns (V, d): the unimodular transform V, whose rows give the reduced
    basis as V B, and the Gram determinants d_0 = 1, ..., d_n of that basis.
    This is Cohen's all-integer LLL (Algorithm 2.6.7), with Lovasz parameter
    num/den for lovasz = (num, den), 1/4 < num/den <= 1, and the scaled
    integers lambda_kj = d_(j+1) mu_kj, so every division is exact.  It
    needs b_k . b_j only when it first visits row k, and then row k is still
    b_k: size reductions and swaps move rows at or below kmax only.  Each
    row j < k so far combines b_0, ..., b_(k-1) alone, so b_k . b_j is
    V_j . G[k].  Each size reduction and swap moves V's n entries alone.
    """
    num, den = lovasz
    n = len(gram)
    v = _identity(n)
    lam = [[0] * n for _ in range(n)]
    d = [1] * (n + 1)

    def size_reduce(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            # q is +-1 in most reductions, which need no products
            if q == 1:
                v[k] = list(map(operator.sub, v[k], v[l]))
            elif q == -1:
                v[k] = list(map(operator.add, v[k], v[l]))
            else:
                v[k] = [a - q * b for a, b in zip(v[k], v[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k, kmax):
        v[k], v[k - 1] = v[k - 1], v[k]
        # swapping the rows swaps lambda_kj and lambda_(k-1)j for j < k - 1;
        # lambda_k(k-1) stays, and no entry on or above the diagonal is read
        lam[k], lam[k - 1] = lam[k - 1], lam[k]
        lm = lam[k][k - 1] = lam[k - 1][k - 1]
        old_d, next_d = d[k], d[k + 1]
        new_d = (d[k - 1] * next_d + lm * lm) // old_d
        for row in lam[k + 1:kmax + 1]:
            t = row[k]
            row[k] = (next_d * row[k - 1] - lm * t) // old_d
            row[k - 1] = (new_d * t + lm * row[k]) // next_d
        d[k] = new_d

    if n == 0:
        return v, d
    d[1] = gram[0][0]
    if d[1] == 0:
        raise ValueError("rows must be linearly independent (zero row)")
    k = 1
    kmax = 0
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                u = _dot(v[j], gram[k])
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                else:
                    if u == 0:
                        raise ValueError("rows must be linearly independent")
                    d[k + 1] = u
        while True:
            size_reduce(k, k - 1)
            if den * d[k + 1] * d[k - 1] < (
                num * d[k] * d[k] - den * lam[k][k - 1] ** 2
            ):
                swap(k, kmax)
                k = max(1, k - 1)
            else:
                for l in range(k - 2, -1, -1):
                    size_reduce(k, l)
                k += 1
                break
    return v, d


def lll_reduce(rows) -> list[tuple[int, ...]]:
    """Lovasz-condition (delta = 3/4) reduced basis, exact arithmetic.  Each
    entry must be an int: a float, Fraction or str raises TypeError instead
    of being truncated or parsed.  Rows of unequal lengths raise
    ValueError."""
    rows = [int_tuple(row) for row in rows]
    if len({len(row) for row in rows}) > 1:
        raise ValueError("rows must have equal lengths")
    v, _ = _lll(_gram(rows), LOVASZ)
    return [tuple(row) for row in _times(v, rows)]


def _lifts(column, total):
    """Yield the transform U after each lift of the staged reduction.

    ``column`` holds the inputs scaled by 10^total and rounded.  U starts as
    the identity.  For e = STAGE_DIGITS, 2 STAGE_DIGITS, ... below total, a
    lift takes the column's leading e digits c and shifts the rows
    (U_i | U_i c) right until the second-smallest keeps about LIFT_BITS
    bits.  It reduces them at LIFT_LOVASZ, 3/10, with identity columns
    appended, whose part of the reduced basis is the unimodular transform
    V, and U becomes V U.  Those columns only carry V, so the lift hands
    `_lll` the Gram matrix of the shifted rows with 1 added on its diagonal,
    which is the Gram matrix of the rows with the identity columns, and
    takes V from it as it is.  With total <= STAGE_DIGITS there is no lift.
    A weakly reduced lift is no less sound: its rows are candidates that
    `lindep` tests as any other, and the final pass reduces at 3/4 whatever
    basis the lifts leave.
    """
    u = _identity(len(column))
    for e in range(STAGE_DIGITS, total, STAGE_DIGITS):
        unit = 10 ** (total - e)
        lifted = [(v + unit // 2) // unit for v in column]
        rows = [row + [_dot(row, lifted)] for row in u]
        sizes = sorted(max(abs(v) for v in row).bit_length() for row in rows)
        shift = max(sizes[1] - LIFT_BITS, 0)
        gram = _gram([[v >> shift for v in row] for row in rows])
        for row in gram:
            row[-1] += 1  # the diagonal entry
        transform, _ = _lll(gram, LIFT_LOVASZ)
        u = _times(transform, u)
        yield u


class RelationResult(NamedTuple):
    """Outcome of an integer-relation search.

    ``coefficients`` is None when no relation passed the acceptance test; in
    that case ``exclusion_bound`` is a lower bound (from the reduced basis'
    Gram-Schmidt norms) on the Euclidean norm of any exact relation.
    """

    coefficients: tuple[int, ...] | None
    residual: BigReal
    exclusion_bound: float | None = None

    @property
    def found(self) -> bool:
        return self.coefficients is not None


def _normalize_sign(coeffs):
    """coeffs with its first nonzero entry positive.  Every candidate is a
    row of a unimodular transform, or the coefficient part c of a nonzero
    lattice vector (c | c.column), so c has a nonzero entry."""
    lead = next(c for c in coeffs if c)
    return tuple(coeffs) if lead > 0 else tuple(-c for c in coeffs)


def _accepts(coeffs, residual: Fraction, total: int) -> bool:
    """lindep's acceptance test for a candidate c with |sum c_i x_i| equal to
    residual, at scale C = 10^total: |c| <= C^(1/(n+1)) and
    |sum c_i x_i| < |c|_1 / C."""
    n = len(coeffs)
    scale = 10 ** total
    norm2 = sum(c * c for c in coeffs)
    # norm cap compared exactly: norm^(2(n+1)) <= C^2
    return (
        norm2 ** (n + 1) <= scale * scale
        and residual * scale < sum(abs(c) for c in coeffs)
    )


def _scaled_column(values, total):
    """round(10^total x_i), half away from zero, from each input's exact
    float."""
    scale = 10 ** total
    column = []
    for x in values:
        scaled = x.to_fraction() * scale
        column.append(
            int(scaled + Fraction(1, 2))
            if scaled >= 0
            else -int(-scaled + Fraction(1, 2))
        )
    return column


def _residual(values, coeffs) -> BigReal:
    """|sum c_i x_i| in the inputs' working precision, the one residual that
    lindep's acceptance reads on every path: `precision.linear_combination`,
    added left to right."""
    return abs(linear_combination(zip(coeffs, values), values[0].prec))


def _prefilter_rejects(coeffs, column) -> bool:
    """True when c is sure to fail lindep's residual test, from integers alone.

    column_i = round(C x_i) for the exact value x_i of each input's float,
    so |C x_i - column_i| <= 1/2 and C |c.x| >= |c.column| - |c|_1 / 2.  When
    |c.column| >= 2 |c|_1 that is at least 1.5 |c|_1.  The residual the test
    reads is c.x summed in working-precision floats; it is off from the exact
    sum by about |c|_1 max|x_i| 10^-(digits+guard), which C scales to
    |c|_1 max|x_i| 10^-(guard+10), far below the |c|_1 / 2 to spare unless
    an input exceeds 10^(guard+9).  So C |residual| > |c|_1 and `_accepts`
    rejects c, without the cost of the residual and its exact Fraction.  A
    row skipped wrongly would only send the search on to the next lift and
    the final pass, which the prefilter does not touch.
    """
    return abs(_dot(coeffs, column)) >= 2 * sum(abs(c) for c in coeffs)


def _candidates(u, column):
    """The rows c of a lift's transform U that the prefilter keeps, in order
    of their norm in the full lattice, |c|^2 + (c.column)^2: the order in
    which the final pass would rank them."""
    kept = []
    for coeffs in u:
        if not _prefilter_rejects(coeffs, column):
            kept.append((_dot(coeffs, coeffs) + _dot(coeffs, column) ** 2, coeffs))
    kept.sort(key=lambda item: item[0])
    return [coeffs for _, coeffs in kept]


def _stages(column, total):
    """Yield (candidates, grams) for each stage of the reduction, in order.

    A lift offers the rows of its transform that ``_candidates`` keeps, in
    norm order, with grams None.  The final pass, the exact LLL from the last
    transform, offers only the shortest row of its basis, with its Gram
    determinants for the exclusion bound.  It offers no other row: offering
    every row of the final basis, on 2000 seeded 30-60-digit vectors with
    relations planted just above the norm cap, turned one "no relation"
    into a relation that is not exact (n = 10 at 40 digits, |c| = 532.8
    under the cap of 533.7).
    """
    n = len(column)
    u = _identity(n)
    for u in _lifts(column, total):
        yield _candidates(u, column), None
    # U is unimodular, so the exact LLL of (U_i | U_i column) reduces the
    # full relation lattice
    rows = [row + [_dot(row, column)] for row in u]
    transform, grams = _lll(_gram(rows), LOVASZ)
    best = min(_times(transform, rows), key=lambda row: _dot(row, row))
    yield [best[:n]], grams


def _exclusion_bound(grams, n: int, total: int) -> float:
    """A lower bound on the norm of any exact relation, from the Gram
    determinants of the final pass's basis.

    min_i |b*_i| bounds the shortest lattice vector; an exact relation c
    lifts to a lattice vector of norm <= |c| sqrt(1 + n/4).  The searched
    norm cap also limits what was certified.  Work in natural logs: at high
    precision both quantities exceed the float range, and clamping the bound
    down to the largest float keeps it a valid lower bound.
    """
    log_min_gso = min(
        math.log(grams[i + 1]) - math.log(grams[i]) for i in range(n)
    )
    log_bound = min(
        (log_min_gso - math.log(1 + n / 4)) / 2,
        total * math.log(10) / (n + 1),
    )
    bound = math.exp(log_bound) if log_bound < _LOG_FLOAT_MAX else sys.float_info.max
    # exp can round past the cap C^(1/(n+1)); compare exactly, as `_accepts`
    # does, and step down to the float below it
    while Fraction(bound) ** (2 * (n + 1)) > 10 ** (2 * total):
        bound = math.nextafter(bound, 0)
    return bound


def require_lindep_digits(digits: int) -> None:
    """Refuse a lindep at fewer than MIN_LINDEP_DIGITS digits.  The CLI
    calls this before it computes the values of a lindep list."""
    if digits < MIN_LINDEP_DIGITS:
        raise InsufficientPrecision(
            f"lindep needs at least {MIN_LINDEP_DIGITS} digits, got {digits}"
        )


def lindep(values) -> RelationResult:
    """Search for integers c with sum c_i x_i = 0.

    The inputs must be BigReal at one common Precision of at least 30
    digits.  Scaling constant C = 10^(digits-10); a candidate c is accepted
    only if its Euclidean norm stays below the cap B = C^(1/(n+1)) AND
    |sum c_i x_i| < |c|_1 / C.  The candidates are the rows of the transform
    after each lift of the staged reduction, shortest first, and last the
    shortest vector of the exact final LLL; the first that passes is
    returned, and the lifts after it and the final pass are skipped.

    Why both tests.  An exact relation c leaves a residual of at most |c|_1
    times the inputs' error, which is ten digits below 1/C, so it passes.
    A spurious c is an accident of the finite inputs: there are about
    V_n B^n integer vectors of norm at most B (V_n the volume of the unit
    n-ball), and their sums c.x spread over a range of about B, so the
    smallest residual among them is about B^(1-n) = C^(-(n-1)/(n+1)).  A
    fixed threshold cannot separate that from a relation: a half-precision
    threshold C^(-1/2) is above C^(-(n-1)/(n+1)) for every n >= 4, so
    vectors that the lifts of a relation-free input produce would pass it.
    The bound |c|_1 / C scales with the candidate instead, but it does not
    make an accidental pass negligible: the expected number of vectors
    under the cap that pass it is about 1.4 V_n / B (an estimate that fits
    the rates measured on relation-free inputs, not a derivation).  That is
    small at 100 digits and more, and not at 30-40 digits with n >= 5: over
    400 seeded relation-free vectors of n uniform entries at 30 digits,
    lindep returned a false relation for 16 at n = 10 and 8 at n = 8, and at
    40 digits for 1 at n = 8.  The norm cap is what makes "no relation"
    reachable at all: without it, lattice vectors of norm about C^(1/n)
    have residuals that pass either test.

    Why a candidate from a lift is as certified as one from the final pass.
    Neither test asks where c came from: the counting argument is about
    every integer vector under the cap, so a c that passes is a relation
    with the same confidence whichever reduction produced it, and however
    weakly: the lifts reduce at Lovasz parameter 3/10, the final pass at
    3/4.  The lifts only find it sooner.  "No relation" is still the exact
    final pass's verdict, with the exclusion bound read from its Gram
    determinants, and that basis is LLL-reduced at 3/4.

    Which relation.  When the inputs satisfy several independent relations,
    the result is the first candidate that passes: an exact relation under
    the cap, not necessarily the shortest, and it may change with the
    precision.  Which of several relations comes back is not part of the
    contract (LLL never promised the shortest): lindep([log 2, log 3, log 6,
    log 12, pi]) returns (1, 1, -1, 0, 0) at 50, 100 and 400 digits and
    (1, 0, 1, -1, 0) at 200.
    """
    values = list(values)
    if len(values) < 2:
        raise ValueError("need at least two values")
    if not all(isinstance(x, BigReal) for x in values):
        raise TypeError("lindep operates on BigReal values")
    precs = {x.prec for x in values}
    if len(precs) != 1:
        raise InsufficientPrecision("mixed precisions among lindep inputs")
    digits = values[0].prec.digits
    require_lindep_digits(digits)

    total = digits - 10
    column = _scaled_column(values, total)
    for candidates, grams in _stages(column, total):
        for coeffs in candidates:
            residual = _residual(values, coeffs)
            if _accepts(coeffs, residual.to_fraction(), total):
                return RelationResult(_normalize_sign(coeffs), residual)
    # no stage yielded a relation: the final stage's one candidate and
    # Gram determinants give the verdict's residual and exclusion bound
    return RelationResult(
        None, residual, exclusion_bound=_exclusion_bound(grams, len(values), total)
    )
