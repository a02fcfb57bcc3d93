"""Integer-relation discovery over vectors of high-precision reals.

`lll_reduce` is the all-integer lattice reduction (Lovasz parameter 3/4)
that tracks the Gram-Schmidt data through the scaled integers lambda_ij and
the Gram determinants d_i, so every division below is exact.  `lindep`
embeds the input reals into the classical relation lattice
(e_i | round(C x_i)) and accepts a candidate only when the recomputed linear
combination is tiny compared to the scale C.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import InsufficientPrecision
from .precision import BigReal

LOVASZ_NUM = 3
LOVASZ_DEN = 4
MIN_LINDEP_DIGITS = 30
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _lll_with_grams(rows):
    b = [list(int(x) for x in row) for row in rows]
    n = len(b)
    lam = [[0] * n for _ in range(n)]
    d = [1] * (n + 1)

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def size_reduce(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            for i in range(len(b[k])):
                b[k][i] -= q * b[l][i]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k, kmax):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lm = lam[k][k - 1]
        new_d = (d[k - 1] * d[k + 1] + lm * lm) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lm * t) // d[k]
            lam[i][k - 1] = (new_d * t + lm * lam[i][k]) // d[k + 1]
        d[k] = new_d

    if n == 0:
        return [], d
    d[1] = dot(b[0], b[0])
    if d[1] == 0:
        raise ValueError("rows must be linearly independent (zero row)")
    k = 1
    kmax = 0
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                u = dot(b[k], b[j])
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
            if LOVASZ_DEN * d[k + 1] * d[k - 1] < (
                LOVASZ_NUM * d[k] * d[k] - LOVASZ_DEN * lam[k][k - 1] ** 2
            ):
                swap(k, kmax)
                k = max(1, k - 1)
            else:
                for l in range(k - 2, -1, -1):
                    size_reduce(k, l)
                k += 1
                break
    return [tuple(row) for row in b], d


def lll_reduce(rows) -> list[tuple[int, ...]]:
    """Lovasz-condition (delta = 3/4) reduced basis, exact arithmetic."""
    reduced, _ = _lll_with_grams(rows)
    return reduced


@dataclass(frozen=True)
class RelationResult:
    """Outcome of an integer-relation search.

    ``coefficients`` is None when no relation passed the acceptance test; in
    that case ``exclusion_bound`` is a lower bound (from the reduced basis'
    Gram-Schmidt norms) on the Euclidean norm of any exact relation.
    """

    coefficients: tuple[int, ...] | None
    residual: BigReal
    norm: float
    exclusion_bound: float | None = None

    @property
    def found(self) -> bool:
        return self.coefficients is not None


def _normalize_sign(coeffs):
    for c in coeffs:
        if c > 0:
            return tuple(coeffs)
        if c < 0:
            return tuple(-v for v in coeffs)
    return tuple(coeffs)


def lindep(values, prec=None) -> RelationResult:
    """Search for integers c with sum c_i x_i = 0.

    The inputs must be BigReal at one common Precision of at least 30
    digits.  Scaling constant C = 10^(digits-10); a candidate from the
    reduced lattice is accepted only if |sum c_i x_i| < 10^(-(digits-10)/2)
    (ten digits of rounding headroom, quadratic gap against coincidental
    smallness) AND its Euclidean norm stays below C^(1/(n+1)).  The norm cap
    is what makes "no relation" reachable: generic inputs always admit
    lattice vectors of norm about C^(1/n) whose residuals pass the threshold
    but which only reflect the finite sampling of the inputs, not a relation
    among the underlying reals.
    """
    values = list(values)
    if len(values) < 2:
        raise ValueError("need at least two values")
    if not all(isinstance(x, BigReal) for x in values):
        raise TypeError("lindep operates on BigReal values")
    precs = {x.prec for x in values}
    if len(precs) != 1:
        raise InsufficientPrecision("mixed precisions among lindep inputs")
    precision = values[0].prec
    if prec is not None and prec != precision:
        raise InsufficientPrecision("inputs not bound to the requested precision")
    digits = precision.digits
    if digits < MIN_LINDEP_DIGITS:
        raise InsufficientPrecision(
            f"lindep needs at least {MIN_LINDEP_DIGITS} digits, got {digits}"
        )

    n = len(values)
    scale = 10 ** (digits - 10)
    rows = []
    for i, x in enumerate(values):
        scaled = x.to_fraction() * scale
        rounded = (
            int(scaled + Fraction(1, 2))
            if scaled >= 0
            else -int(-scaled + Fraction(1, 2))
        )
        row = [0] * (n + 1)
        row[i] = 1
        row[n] = rounded
        rows.append(row)

    reduced, grams = _lll_with_grams(rows)

    candidate = None
    for row in reduced:
        coeffs = row[:n]
        if all(c == 0 for c in coeffs):
            continue
        norm2 = sum(c * c for c in row)
        if candidate is None or norm2 < candidate[0]:
            candidate = (norm2, coeffs)

    threshold = Fraction(1, 10 ** ((digits - 10) // 2))
    if candidate is not None:
        _, coeffs = candidate
        residual = values[0] * coeffs[0]
        for c, x in zip(coeffs[1:], values[1:]):
            residual = residual + x * c
        residual = abs(residual)
        norm2 = sum(c * c for c in coeffs)
        # norm cap C^(1/(n+1)), compared exactly: norm^(2(n+1)) <= C^2
        norm_ok = norm2 ** (n + 1) <= scale * scale
        if norm_ok and residual.to_fraction() < threshold:
            coeffs = _normalize_sign(coeffs)
            return RelationResult(
                coefficients=coeffs,
                residual=residual,
                norm=math.sqrt(norm2),
            )

    # no acceptable relation: bound the norm of any exact one from below.
    # min_i |b*_i| bounds the shortest lattice vector; an exact relation c
    # lifts to a lattice vector of norm <= |c| sqrt(1 + n/4).  The searched
    # norm cap also limits what was certified.  Work in natural logs: at
    # high precision both quantities exceed the float range, and clamping
    # the bound down to the largest float keeps it a valid lower bound.
    log_min_gso = min(
        math.log(grams[i + 1]) - math.log(grams[i]) for i in range(len(reduced))
    )
    log_bound = min(
        (log_min_gso - math.log(1 + n / 4)) / 2,
        (digits - 10) * math.log(10) / (n + 1),
    )
    bound = math.exp(log_bound) if log_bound < _LOG_FLOAT_MAX else sys.float_info.max
    zero = values[0] - values[0]
    best_resid = abs(sum((x * c for c, x in zip(candidate[1], values)), zero)) if candidate else zero
    return RelationResult(
        coefficients=None,
        residual=best_resid,
        norm=0.0,
        exclusion_bound=bound,
    )
