"""Lattice reduction and integer-relation search.

The reducedness oracle recomputes the Gram-Schmidt data in exact Fraction
arithmetic straight from the definition, independently of the integral
bookkeeping inside lll_reduce.  The row-form integral LLL below, which moves
every entry of each row as a list, is the oracle of `relations._lll`, which
carries each row as one packed integer and reads it against the rows or a
Gram matrix: both must make the same decisions.
"""

import math
import random
import sys
from fractions import Fraction

import mpmath as mp
import pytest

from polyzeta import (
    BigReal,
    InsufficientPrecision,
    Precision,
    evaluate_z,
    evaluate_zp,
    lindep,
)
from polyzeta import relations
from polyzeta.acceptance import planted_relation
from polyzeta.precision import ln, pi, round_scaled
from polyzeta.relations import (
    LIFT_BITS,
    LIFT_LOVASZ,
    LOVASZ,
    STAGE_DIGITS,
    _accepts,
    _dot,
    _identity,
    _lift,
    _lifts,
    _lll,
    _pack,
    _times,
    _unpack,
    lll_reduce,
)

from conftest import mpf

F = Fraction


def assert_lll_reduced(rows, delta=F(3, 4)):
    n = len(rows)
    mu = [[F(0)] * n for _ in range(n)]
    norms = [F(0)] * n
    star = []
    for i in range(n):
        v = [F(x) for x in rows[i]]
        for j in range(i):
            mu[i][j] = sum(F(a) * c for a, c in zip(rows[i], star[j])) / norms[j]
            v = [a - mu[i][j] * c for a, c in zip(v, star[j])]
        star.append(v)
        norms[i] = sum(a * a for a in v)
    for i in range(n):
        for j in range(i):
            assert abs(mu[i][j]) <= F(1, 2), f"size reduction fails at {(i, j)}"
    for i in range(1, n):
        assert norms[i] >= (delta - mu[i][i - 1] ** 2) * norms[i - 1], f"swap condition at {i}"
    return norms


def lattice_vectors(rows, radius):
    """All small integer combinations of the rows (brute-force enumeration)."""
    n = len(rows)
    out = []

    def rec(i, acc):
        if i == n:
            if any(acc):
                out.append(tuple(acc))
            return
        for c in range(-radius, radius + 1):
            rec(i + 1, [a + c * r for a, r in zip(acc, rows[i])])

    rec(0, [0] * len(rows[0]))
    return out


# The row-form oracle of `relations._lll`: the same integral LLL at the
# Lovasz parameter (numerator, denominator), reducing the rows themselves, so
# it moves every entry of each row.  It returns the reduced rows, the Gram
# determinants, the swaps and the size-reduction visits (calls of
# size_reduce), which `_lll` must count alike.
def _lll_with_grams(rows, lovasz):
    num, den = lovasz
    b = [list(int(x) for x in row) for row in rows]
    n = len(b)
    lam = [[0] * n for _ in range(n)]
    d = [1] * (n + 1)
    swaps = reductions = 0

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
        return [], d, swaps, reductions
    d[1] = _dot(b[0], b[0])
    if d[1] == 0:
        raise ValueError("rows must be linearly independent (zero row)")
    k = 1
    kmax = 0
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                u = _dot(b[k], b[j])
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
            reductions += 1
            if den * d[k + 1] * d[k - 1] < (
                num * d[k] * d[k] - den * lam[k][k - 1] ** 2
            ):
                swap(k, kmax)
                swaps += 1
                k = max(1, k - 1)
            else:
                for l in range(k - 2, -1, -1):
                    size_reduce(k, l)
                    reductions += 1
                k += 1
                break
    return [tuple(row) for row in b], d, swaps, reductions


def test_identity_fixed_point():
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert lll_reduce(ident) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_first_vector_close_to_shortest():
    rows = [[201, 37], [1648, 297]]
    reduced = lll_reduce(rows)
    assert_lll_reduced(reduced)
    shortest = min(
        sum(x * x for x in v) for v in lattice_vectors(rows, 25)
    )
    first = sum(x * x for x in reduced[0])
    assert first <= 2 * shortest  # 2^((n-1)/2) bound squared for n = 2


def test_reduction_preserves_lattice():
    rows = [[1, 1, 1], [-1, 0, 2], [3, 5, 6]]
    reduced = lll_reduce(rows)
    assert_lll_reduced(reduced)
    # same lattice: each reduced vector is a small integer combination and
    # determinants match up to sign
    def det3(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    assert abs(det3(rows)) == abs(det3([list(r) for r in reduced]))


def test_random_reductions_satisfy_conditions():
    rng = random.Random(17)
    done = 0
    while done < 25:
        n = rng.randint(2, 5)
        rows = [[rng.randint(-60, 60) for _ in range(n)] for _ in range(n)]
        try:
            reduced = lll_reduce(rows)
        except ValueError:
            continue  # singular draw
        assert_lll_reduced(reduced)
        done += 1


def test_degenerate_input_rejected():
    with pytest.raises(ValueError):
        lll_reduce([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        lll_reduce([[0, 0], [1, 1]])
    with pytest.raises(ValueError, match="equal lengths"):
        lll_reduce([[1, 0, 5], [0, 1]])


@pytest.mark.parametrize("entry", [1.9, F(7, 2), "3"], ids=["float", "fraction", "str"])
def test_lll_reduce_refuses_entries_that_are_not_ints(entry):
    # an entry is coerced as an index, never truncated or parsed
    with pytest.raises(TypeError):
        lll_reduce([[entry, 0], [0, 1]])


def test_lindep_trivial():
    prec = Precision(40)
    xs = [BigReal(1, prec), BigReal(F(1, 2), prec)]
    result = lindep(xs)
    assert result.found and result.coefficients == (1, -2)
    xs = [BigReal(1, prec), BigReal(F(1, 3), prec)]
    assert lindep(xs).coefficients == (1, -3)


def test_lindep_sign_normalization():
    prec = Precision(40)
    xs = [BigReal(F(-1, 2), prec), BigReal(F(1, 4), prec)]
    result = lindep(xs)
    assert result.coefficients[0] > 0


def test_lindep_scale_invariance():
    prec = Precision(45)
    base = [F(7, 5), F(21, 11), F(133, 55)]  # 19*x0/5 ... pick any dependent triple
    # make x2 = 2 x0 + x1 / 7 for an exact relation
    vals = [F(3, 7), F(5, 11)]
    vals.append(2 * vals[0] + 7 * vals[1])
    for scale in (F(1), F(7, 3)):
        xs = [BigReal(v * scale, prec) for v in vals]
        result = lindep(xs)
        assert result.found
        assert result.coefficients == (2, 7, -1)


def test_lindep_soundness_recheck_higher_precision():
    prec = Precision(50)
    z3 = evaluate_z((3,), prec)
    z21 = evaluate_z((2, 1), prec)
    result = lindep([z3, z21])
    assert result.coefficients == (1, -1)
    # recompute the combination 20 digits higher
    hi = Precision(70)
    combo = evaluate_z((3,), hi) - evaluate_z((2, 1), hi)
    assert abs(combo).to_fraction() < F(1, 10 ** 20)


def random_real(rng: random.Random, prec: Precision) -> BigReal:
    """A full-entropy random value in [1, 2) at working precision."""
    bits = 4 * prec.working_dps  # comfortably more than the mantissa
    return BigReal(F(rng.getrandbits(bits), 2 ** bits) + 1, prec)


def under_norm_cap(bound: float, n: int, digits: int) -> bool:
    """bound <= C^(1/(n+1)) with C = 10^(digits-10), compared exactly."""
    return F(bound) ** (2 * (n + 1)) <= 10 ** (2 * (digits - 10))


def test_lindep_no_relation_gives_exclusion_bound():
    prec = Precision(40)
    rng = random.Random(23)
    xs = [random_real(rng, prec) for _ in range(3)]
    result = lindep(xs)
    assert not result.found
    assert result.coefficients is None
    assert result.exclusion_bound is not None and result.exclusion_bound > 10 ** 3


def test_lindep_no_relation_past_float_range():
    # at 400 digits the scale C = 10^390 exceeds the largest float; the
    # bound stays finite and under the norm cap C^(1/5) = 10^78
    prec = Precision(400)
    result = lindep([ln(2, prec), ln(3, prec), ln(5, prec), pi(prec)])
    assert not result.found
    assert 10 ** 3 < result.exclusion_bound and under_norm_cap(result.exclusion_bound, 4, 400)


def test_lindep_exclusion_bound_never_exceeds_the_norm_cap():
    # n = 4 at 80 digits: the Gram-Schmidt bound is far above the cap
    # C^(1/5) = 1e14, and exp(ln(10) * 70 / 5) rounds to 100000000000000.12;
    # the bound is stepped down to the largest float under the cap
    prec = Precision(80)
    basis = [evaluate_z(e, prec) for e in ((2, 2, 2, 2), (2, 3, 3), (3, 2, 3), (3, 3, 2))]
    result = lindep(basis)
    assert not result.found
    assert under_norm_cap(result.exclusion_bound, 4, 80)
    assert result.exclusion_bound == 1e14


def test_lindep_exclusion_bound_clamps_to_largest_float():
    # n = 2 at 1000 digits: the norm cap C^(1/3) = 10^330 and the
    # Gram-Schmidt bound both pass the float range, so the bound is clamped
    # down to the largest float, which is still a valid lower bound
    prec = Precision(1000)
    result = lindep([ln(2, prec), pi(prec)])
    assert not result.found
    assert result.exclusion_bound == sys.float_info.max


def test_lindep_rejects_bogus_sampling_relations():
    # 53-bit float inputs carry exact relations among their dyadic values
    # (coefficients around 10^8); those reflect the sampling, not the reals,
    # and must be rejected by the norm cap
    prec = Precision(40)
    rng = random.Random(23)
    xs = [BigReal(Fraction(rng.random()) + 1, prec) for _ in range(3)]
    result = lindep(xs)
    assert not result.found
    assert result.exclusion_bound is not None


def test_lindep_rejects_candidates_from_the_lifts(monkeypatch):
    # a relation-free vector of n = 4 rationals with 130 decimals, at 100
    # digits: the shortest row of its 60-digit lift has norm 3.7e14, under
    # the cap C^(1/5) = 1e18, and |sum c_i x_i| = 4.3e-46 is below a fixed
    # half-precision threshold 1e-45; the scaled test |c|_1 / C rejects it
    rng = random.Random(635758219)
    den = 10 ** 130
    xs = [F(rng.randrange(den // 10, den), den) * rng.choice((1, -1)) for _ in range(4)]
    prec = Precision(100)
    total = prec.digits - 10
    transforms = []
    lll = relations._lll

    def recording(rows, metric, lovasz):
        result = lll(rows, metric, lovasz)
        transforms.append(result[0])
        return result

    monkeypatch.setattr(relations, "_lll", recording)
    assert not lindep([BigReal(x, prec) for x in xs]).found
    # the last two calls are the truncated 3/4 pass and the exact final pass
    lifts = transforms[:-2]
    assert len(lifts) == 2
    # each lift's transform V makes the rows V U
    n = len(xs)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for v in lifts:
        u = [
            [sum(t * u[k][j] for k, t in enumerate(row)) for j in range(n)]
            for row in v
        ]
    c = u[0]
    residual = abs(sum(ci * x for ci, x in zip(c, xs)))
    norm2 = sum(ci * ci for ci in c)
    assert 3e14 < norm2 ** 0.5 < 4e14
    assert norm2 ** (n + 1) <= 10 ** (2 * total)
    assert residual < F(1, 10 ** (total // 2))  # a fixed threshold accepts c
    assert not _accepts(c, residual, total)
    assert _accepts(c, F(0), total)  # an exact relation of that norm passes


def residual_at(seed, f, n=6, digits=40):
    """n exact rationals whose last entry is solved so that a primitive c
    with small entries leaves c.x = f |c|_1 / C exactly, C = 10^(digits-10):
    (values at digits, c sign-normalized as lindep reports it)."""
    rng = random.Random(seed)
    den = 10 ** (digits + 30)
    xs = [F(rng.randrange(den // 10, den), den) * rng.choice((1, -1)) for _ in range(n - 1)]
    while True:
        c = [rng.randint(-9, 9) for _ in range(n)]
        if c[-1] and math.gcd(*c) == 1:
            break
    target = f * F(sum(map(abs, c)), 10 ** (digits - 10))
    xs.append((target - sum(ci * x for ci, x in zip(c, xs))) / c[-1])
    prec = Precision(digits)
    sign = 1 if next(ci for ci in c if ci) > 0 else -1
    return [BigReal(x, prec) for x in xs], tuple(sign * ci for ci in c)


def test_accepts_holds_the_residual_to_its_bound():
    # a relation whose residual is half the bound |c|_1 / C is found, and
    # one at twice the bound is not: a looser residual test would accept it
    for seed in range(3):
        values, c = residual_at(seed, F(1, 2))
        assert lindep(values).coefficients == c, seed
        values, c = residual_at(seed, 2)
        assert not lindep(values).found, seed


def rational_vector(rng, n, digits, relations=0):
    """n exact rationals of digits + 30 decimals; each of the last
    ``relations`` entries is solved from a relation with small coefficients
    over the entries before it, so the relations are independent.  Returns
    the vector and the relations, as lists of integer coefficients."""
    den = 10 ** (digits + 30)
    xs = [F(rng.randrange(den // 10, den), den) * rng.choice((1, -1))
          for _ in range(n - relations)]
    planted = []
    for _ in range(relations):
        coeffs = [rng.randint(-9, 9) for _ in xs]
        last = rng.randint(1, 9)
        xs.append(-sum(c * x for c, x in zip(coeffs, xs)) / last)
        planted.append(coeffs + [last] + [0] * (n - len(xs)))
    return xs, planted


def lindep_column(values, total):
    """lindep's column: each input's float scaled by 10^total and rounded."""
    return [round_scaled(x, 10 ** total) for x in values]


def counting_lll(monkeypatch):
    """Record each call of the reduction that lindep makes."""
    calls = []
    lll = relations._lll

    def recording(rows, metric, lovasz):
        calls.append(len(rows))
        return lll(rows, metric, lovasz)

    monkeypatch.setattr(relations, "_lll", recording)
    return calls


def test_lindep_stops_at_the_first_certified_lift(monkeypatch):
    calls = counting_lll(monkeypatch)
    prec = Precision(400)
    xs, (planted,) = rational_vector(random.Random(5100), 12, 400, relations=1)
    result = lindep([BigReal(x, prec) for x in xs])
    assert len(calls) == 1  # the first 30-digit lift already holds it
    assert result.coefficients == relations._normalize_sign(planted)

    calls.clear()
    weight8, relation = readme_vectors()[0]
    assert lindep(weight8).coefficients == relation
    assert len(calls) == 1


def test_lindep_without_relation_runs_every_lift_and_the_final_pass(monkeypatch):
    calls = counting_lll(monkeypatch)
    prec = Precision(400)
    xs, _ = rational_vector(random.Random(5101), 12, 400)
    result = lindep([BigReal(x, prec) for x in xs])
    assert not result.found
    # lifts at 30, 60, ..., 360 digits, the truncated 3/4 pass over all 390
    # digits, then the exact pass
    assert len(calls) == 14
    assert calls[-1] == 12  # the final pass reduces the n rows (U_i | U_i column)
    assert 10 ** 3 < result.exclusion_bound  # the cap C^(1/13) = 10^30
    assert under_norm_cap(result.exclusion_bound, 12, 400)


def test_lindep_holds_lift_candidates_to_the_norm_cap():
    # x = (1, p/q) with p, q of 65 digits at 190 digits: the norm cap is
    # C^(1/3) = 1e60, and the 150-digit lift holds the relation (p, -q) of
    # norm 5e64, whose residual passes the prefilter and the residual test
    rng = random.Random(5400)
    p, q = rng.randrange(10 ** 64, 10 ** 65), rng.randrange(10 ** 64, 10 ** 65)
    prec = Precision(190)
    values = [BigReal(1, prec), BigReal(F(p, q), prec)]
    total = prec.digits - 10
    column = lindep_column(values, total)
    *_, u = relations._lifts(column, total)
    assert [p, -q] in u or [-p, q] in u
    assert not relations._prefilter_rejects([p, -q], column)
    result = lindep(values)
    assert not result.found
    assert under_norm_cap(result.exclusion_bound, 2, 190)


def multi_relation_corpus():
    """40 seeded vectors with 2 or 3 independent relations at 60-300 digits."""
    rng = random.Random(5200)
    corpus = []
    for _ in range(40):
        digits = rng.choice((60, 100, 200, 300))
        relations_ = rng.randint(2, 3)
        n = rng.randint(relations_ + 2, 7)
        xs, _ = rational_vector(rng, n, digits, relations_)
        corpus.append((xs, Precision(digits)))
    return corpus


def test_lindep_returns_exact_relations_on_multi_relation_inputs():
    # which of several relations comes back is not part of the contract;
    # that it is an exact relation under the norm cap is
    for xs, prec in multi_relation_corpus():
        result = lindep([BigReal(x, prec) for x in xs])
        assert result.found
        c = result.coefficients
        assert sum(ci * x for ci, x in zip(c, xs)) == 0
        assert sum(ci * ci for ci in c) ** (len(c) + 1) <= 10 ** (2 * (prec.digits - 10))


def test_prefilter_rejects_only_rows_that_fail_the_residual_test():
    rng = random.Random(5300)
    free = []
    for _ in range(10):
        digits = rng.choice((60, 100, 200, 300))
        xs, _ = rational_vector(rng, rng.randint(3, 7), digits)
        free.append((xs, Precision(digits)))
    rejected = kept = 0
    for xs, prec in multi_relation_corpus() + free:
        values = [BigReal(x, prec) for x in xs]
        total = prec.digits - 10
        column = lindep_column(values, total)
        for u in relations._lifts(column, total):
            for c in u:
                if not relations._prefilter_rejects(c, column):
                    kept += 1
                    continue
                rejected += 1
                exact = abs(sum(ci * x.to_fraction() for ci, x in zip(c, values)))
                assert not _accepts(c, exact, total)
                assert not _accepts(c, relations._residual(values, c).to_fraction(), total)
    assert rejected > 500 and kept > 100  # both branches were exercised


def test_lindep_validation():
    prec = Precision(40)
    one = BigReal(1, prec)
    with pytest.raises(ValueError):
        lindep([one])
    with pytest.raises(InsufficientPrecision):
        lindep([one, BigReal(2, Precision(50))])
    low = Precision(20)
    with pytest.raises(InsufficientPrecision):
        lindep([BigReal(1, low), BigReal(2, low)])
    with pytest.raises(TypeError):
        lindep([1, 2])


def test_lindep_planted_relations_sample():
    ok = 0
    for trial in range(20):
        values, planted = planted_relation(31000 + trial)
        if lindep(values).coefficients == planted:
            ok += 1
    assert ok == 20


def readme_vectors():
    """The two README lindep inputs at 50 digits, with their relations."""
    prec = Precision(50)
    z = {s: evaluate_z(s, prec) for s in [(4, 1, 3), (5, 3), (8,), (5,), (3,), (2,)]}
    weight8 = [z[(4, 1, 3)], z[(5, 3)], z[(8,)], z[(5,)] * z[(3,)], z[(3,)] ** 2 * z[(2,)]]
    log_form = [
        z[(3,)],
        pi(prec) ** 2 * ln(2, prec),
        evaluate_zp(2, (2, 1), prec),
        evaluate_zp(2, (3,), prec),
    ]
    return [(weight8, (36, 36, -71, 90, -18)), (log_form, (12, -1, -12, -12))]


def pslq_relation(values):
    """mpmath's PSLQ, an algorithm independent of the lattice reduction,
    searching coefficients up to lindep's norm cap C^(1/(n+1))."""
    digits = values[0].prec.digits
    maxcoeff = int(10 ** ((digits - 10) / (len(values) + 1))) + 1
    with mp.workdps(digits):
        found = mp.pslq([+mpf(x) for x in values], maxcoeff=maxcoeff, maxsteps=10 ** 6)
    if found is None:
        return None
    if next(c for c in found if c) < 0:
        found = [-c for c in found]
    return tuple(found)


def test_lindep_agrees_with_pslq():
    corpus = [planted_relation(31000 + trial) for trial in range(20)] + readme_vectors()
    for values, planted in corpus:
        assert pslq_relation(values) == planted
        assert lindep(values).coefficients == planted


# -- staged reduction -------------------------------------------------------------

def det_abs(rows):
    """|det| by exact Fraction elimination."""
    m = [[F(x) for x in row] for row in rows]
    det = F(1)
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return 0
        m[k], m[pivot] = m[pivot], m[k]
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return abs(det)


def scaled_column(rng, n, total, planted):
    """Entries of about 10^total, as lindep scales its inputs; with
    ``planted`` the last one solves a relation whose last coefficient is 7,
    up to the rounding.  Returns the column and the relation (or None)."""
    column = [rng.randrange(10 ** total // 10, 10 ** total) * rng.choice((1, -1))
              for _ in range(n)]
    if not planted:
        return column, None
    coeffs = [rng.randint(-9, 9) for _ in range(n - 1)] + [7]
    column[-1] = -sum(c * s for c, s in zip(coeffs, column[:-1])) // 7
    return column, coeffs


def staged_lll(column, total):
    """Every lift of the staged reduction, the truncated 3/4 pass over the
    whole column when a lift ran, then the exact final pass from the last
    transform: the basis lindep's "no relation" verdict reads."""
    u = _identity(len(column))
    for u in _lifts(column, total):
        pass
    if total > STAGE_DIGITS:
        u = _lift(u, column, LOVASZ)
    rows = [row + [_dot(row, column)] for row in u]
    reduced, grams, _, _ = _lll(rows, rows, LOVASZ)
    return [tuple(row) for row in reduced], grams


@pytest.mark.parametrize("planted", [True, False], ids=["planted", "relation-free"])
def test_staged_reduction_is_an_lll_basis_of_the_full_lattice(planted):
    n, total = 12, 400 - 10
    column, relation = scaled_column(random.Random(4700 + planted), n, total, planted)
    reduced, grams = staged_lll(column, total)
    norms = assert_lll_reduced(reduced)
    # the Gram determinants that the exclusion bound reads belong to this basis
    for i in range(n):
        assert grams[i + 1] == grams[i] * norms[i]
    transform = [row[:n] for row in reduced]
    assert det_abs(transform) == 1
    assert [row[n] for row in reduced] == [
        sum(a * b for a, b in zip(u, column)) for u in transform
    ]
    if relation is not None:
        assert list(reduced[0][:n]) in (relation, [-c for c in relation])


def test_staged_reduction_without_lifts_is_the_single_pass():
    rng = random.Random(4711)
    n, total = 6, STAGE_DIGITS
    column, _ = scaled_column(rng, n, total, planted=False)
    full = [[int(i == j) for j in range(n)] + [s] for i, s in enumerate(column)]
    reduced, _ = staged_lll(column, total)
    assert reduced == lll_reduce(full)


def shortest_norm2(basis):
    """lambda_1^2 of the lattice the rows span, exactly: Fincke-Pohst
    enumeration, in Fractions, of every integer x with |x B|^2 <= |b_1|^2,
    where |x B|^2 = sum_i |b*_i|^2 (x_i + sum_(j>i) mu_ji x_j)^2."""
    n = len(basis)
    gram = [[_dot(a, b) for b in basis] for a in basis]
    mu = [[F(0)] * n for _ in range(n)]
    star = []  # |b*_i|^2
    for i in range(n):
        for j in range(i):
            mu[i][j] = (gram[i][j] - sum(mu[j][k] * mu[i][k] * star[k] for k in range(j))) / star[j]
        star.append(gram[i][i] - sum(mu[i][k] ** 2 * star[k] for k in range(i)))
    norms = [gram[0][0]]
    x = [0] * n

    def search(i, room):
        # room: what coordinates i, i - 1, ..., 0 may still add to |x B|^2
        if i < 0:
            if any(x):
                norms.append(sum(xi * _dot(row, x) for xi, row in zip(x, gram)))
            return
        center = -sum(mu[j][i] * x[j] for j in range(i + 1, n))
        reach = math.isqrt(math.floor(room / star[i])) + 1
        for xi in range(math.floor(center) - reach, math.ceil(center) + reach + 1):
            step = star[i] * (xi - center) ** 2
            if step <= room:
                x[i] = xi
                search(i - 1, room - step)
        x[i] = 0

    search(n - 1, F(gram[0][0]))
    return min(norms)


def near_relation_vector(seed, n, digits, near):
    """n exact rationals of digits + 30 decimals, at digits, each of whose
    last ``near`` entries is solved so that some c with entries in [-9, 9]
    leaves c.x = f |c|_1 / C, f in [10, 1000], C = 10^(digits-10): a short
    vector (c | c.column) of the relation lattice, which lindep's residual
    test rejects."""
    rng = random.Random(seed)
    den = 10 ** (digits + 30)
    xs = [F(rng.randrange(den // 10, den), den) * rng.choice((1, -1)) for _ in range(n - near)]
    for _ in range(near):
        c = [rng.randint(-9, 9) for _ in xs] + [rng.randint(1, 9)]
        target = F(rng.randint(10, 1000) * sum(map(abs, c)), 10 ** (digits - 10))
        xs.append((target - sum(a * x for a, x in zip(c, xs))) / c[-1])
    prec = Precision(digits)
    return [BigReal(x, prec) for x in xs]


@pytest.mark.parametrize(
    "seed, n, digits, near",
    [(1, 3, 48, 1), (2, 3, 32, 1), (5, 5, 38, 2), (6, 5, 56, 1), (7, 4, 60, 1),
     (9, 4, 49, 2), (13, 4, 39, 1)],
)
def test_exclusion_bound_is_under_the_shortest_vector_over_the_lift_factor(seed, n, digits, near):
    # an exact relation c lifts to a lattice vector of norm at most
    # |c| sqrt(1 + n/4), so the bound times that factor may not pass
    # lambda_1 of the final basis's lattice, compared exactly
    values = near_relation_vector(seed, n, digits, near)
    result = lindep(values)
    assert not result.found
    total = digits - 10
    reduced, grams = staged_lll(lindep_column(values, total), total)
    assert result.exclusion_bound == relations._exclusion_bound(grams, n, total)
    shortest = shortest_norm2(reduced)
    least = min(F(grams[i + 1], grams[i]) for i in range(n))  # min |b*_i|^2
    lift = 1 + F(n, 4)
    # the Gram-Schmidt term sets the bound: min |b*_i| is under the cap
    # C^(1/(n+1)), and lambda_1 lies within sqrt(lift) of it, so a bound
    # without the lift factor, or raised by e sqrt(lift), passes
    # lambda_1 / sqrt(lift)
    assert least ** (n + 1) < 10 ** (2 * total)
    assert least <= shortest < least * lift
    assert F(result.exclusion_bound) ** 2 * lift <= shortest


@pytest.mark.parametrize("rows", [[], [(3,)]], ids=["no-rows", "one-row"])
def test_lll_reduce_keeps_reduced_input(rows):
    assert lll_reduce(rows) == rows


# -- the Gram-matrix LLL against the row-form oracle ------------------------------

def lift_basis(u, column, total, e):
    """The basis that the lift adding the column's leading e digits reduces,
    from the transform U before it: the rows (U_i | U_i c) shifted right, as
    `_lifts` shifts them, with the identity columns appended."""
    unit = 10 ** (total - e)
    lifted = [(v + unit // 2) // unit for v in column]
    rows = [row + [_dot(row, lifted)] for row in u]
    sizes = sorted(max(abs(v) for v in row).bit_length() for row in rows)
    shift = max(sizes[1] - LIFT_BITS, 0)
    return [[v >> shift for v in row] + ident for row, ident in zip(rows, _identity(len(u)))]


def oracle_stages(column, total):
    """lindep's staged reduction with every lattice reduced in row form:
    for each lift, at LIFT_LOVASZ, and then, when a lift ran, for the
    truncated pass over the whole column at LOVASZ, the identity-column
    block of its reduced rows (the transform V), its Gram determinants, its
    swaps and its size-reduction visits; last, at LOVASZ, the final pass's
    rows (U_i | U_i column), its reduced rows, its Gram determinants and its
    two counts."""
    n = len(column)
    u = _identity(n)
    stages = []
    lifts = [(e, LIFT_LOVASZ) for e in range(STAGE_DIGITS, total, STAGE_DIGITS)]
    for e, lovasz in lifts + [(total, LOVASZ)] * bool(lifts):
        reduced, *rest = _lll_with_grams(lift_basis(u, column, total, e), lovasz)
        transform = [list(row[n + 1:]) for row in reduced]
        stages.append((transform, *rest))
        u = [[sum(t * u[k][j] for k, t in enumerate(trow)) for j in range(n)]
             for trow in transform]
    rows = [row + [_dot(row, column)] for row in u]
    return stages, (rows, *_lll_with_grams(rows, LOVASZ))


# the lindep vectors whose every stage is checked against the oracle
STAGE_CASES = [(4, 100, False), (6, 200, True), (8, 300, False), (10, 200, False),
               (12, 300, False), (12, 100, True), (5, 400, False), (9, 400, True)]


@pytest.mark.parametrize("n, digits, planted", STAGE_CASES)
def test_gram_lll_matches_the_row_form_oracle_on_lindep_stages(monkeypatch, n, digits, planted):
    # each lift, and the truncated pass after them, reduces the Gram matrix
    # of its shifted rows, plus 1 on the diagonal for the identity columns it
    # drops; its transform V must be the oracle's identity block, and the
    # rows the final pass carries must come back as the oracle's reduced
    # rows; every call makes the oracle's swaps and size-reduction visits
    total = digits - 10
    column, _ = scaled_column(random.Random(4800 + n + digits), n, total, planted)
    calls = []
    lovaszes = []
    lll = relations._lll

    def recording(rows, metric, lovasz):
        lovaszes.append(lovasz)
        calls.append(lll(rows, metric, lovasz))
        return calls[-1]

    monkeypatch.setattr(relations, "_lll", recording)
    for _ in relations._stages(column, total):
        pass
    stages, (rows, reduced, *final) = oracle_stages(column, total)
    lifts = (total - 1) // STAGE_DIGITS
    assert len(stages) == lifts + 1
    assert lovaszes == [LIFT_LOVASZ] * lifts + [LOVASZ, LOVASZ]
    assert calls[:-1] == stages
    carried, *counted = calls[-1]
    assert counted == final
    assert [tuple(row) for row in carried] == reduced


def test_each_lift_is_reduced_at_the_lift_parameter(monkeypatch):
    # each lift's reduced basis, its shifted rows with identity columns times
    # the transform V, is LLL-reduced at 3/10; some are not at 3/4, so the
    # lifts do run at the weaker parameter
    transforms = []
    lll = relations._lll

    def recording(rows, metric, lovasz):
        result = lll(rows, metric, lovasz)
        transforms.append(result[0])
        return result

    monkeypatch.setattr(relations, "_lll", recording)
    lifts = weak = 0
    for n, digits, planted in [(4, 100, False), (6, 200, True), (8, 300, False), (12, 200, False)]:
        total = digits - 10
        column, _ = scaled_column(random.Random(4900 + n + digits), n, total, planted)
        transforms.clear()
        us = [_identity(n), *_lifts(column, total)]
        assert len(transforms) == len(us) - 1 == (total - 1) // STAGE_DIGITS
        for u, e, v in zip(us, range(STAGE_DIGITS, total, STAGE_DIGITS), transforms):
            basis = _times(v, lift_basis(u, column, total, e))
            assert_lll_reduced(basis, delta=F(3, 10))
            lifts += 1
            try:
                assert_lll_reduced(basis)
            except AssertionError:
                weak += 1
    assert lifts == 23 and weak > 0


@pytest.mark.parametrize(
    "rows", [[], [[5, -3]], [[201, 37], [1648, 297]]], ids=["n0", "n1", "n2"]
)
def test_gram_lll_matches_the_row_form_oracle_on_small_bases(rows):
    reduced, *counted = _lll_with_grams(rows, LOVASZ)
    carried, *rest = _lll(rows, rows, LOVASZ)
    assert rest == counted
    assert [tuple(row) for row in carried] == reduced
    assert lll_reduce(rows) == reduced


@pytest.mark.parametrize("rows", [[[1, 2], [2, 4]], [[0, 0], [1, 1]]], ids=["dependent", "zero-row"])
def test_gram_lll_rejects_dependent_rows_as_the_oracle_does(rows):
    with pytest.raises(ValueError) as expected:
        _lll_with_grams(rows, LOVASZ)
    with pytest.raises(ValueError) as raised:
        lll_reduce(rows)
    assert str(raised.value) == str(expected.value)


def random_bases():
    """The bases of the random-bases test, as lists of rows.

    First 300 of n = 1-6 rows of n to n + 2 entries of at most 2^0-2^40, and
    in half the bases at most 2^0-2^2: small entries make Lovasz tests that
    hold with equality, where `<` and `<=` part (at both parameters in this
    sample).  One basis in ten gets a zero first row or a row that sums two
    rows before it.  Then 24 wide bases of n = 2-16 rows, the first two of
    16, with entries of up to 2^100-2^400: knapsack bases (I | a) with one or
    two wide columns, the shape of the final pass's rows (U_i | U_i column),
    alternating with dense bases of n to n + 2 wide entries.
    """
    rng = random.Random(4950)
    for _ in range(300):
        n = rng.randint(1, 6)
        bound = 2 ** rng.choice((rng.randint(0, 2), rng.randint(0, 40)))
        rows = [[rng.randint(-bound, bound) for _ in range(n + rng.randint(0, 2))]]
        rows += [[rng.randint(-bound, bound) for _ in rows[0]] for _ in range(n - 1)]
        planted = rng.random()
        if planted < 0.05:
            rows[0] = [0] * len(rows[0])
        elif planted < 0.1 and n > 2:
            i, j = rng.sample(range(n - 1), 2)
            rows[-1] = [a + b for a, b in zip(rows[i], rows[j])]
        yield rows
    rng = random.Random(5000)
    for i in range(24):
        n = 16 if i < 2 else rng.randint(2, 16)
        bound = 2 ** rng.randint(100, 400)
        if i % 2:
            m = n + rng.randint(0, 2)
            yield [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)]
        else:
            wide = rng.randint(1, 2)
            yield [ident + [rng.randint(-bound, bound) for _ in range(wide)]
                   for ident in _identity(n)]


def test_gram_lll_matches_the_row_form_oracle_on_random_bases():
    # `_lll` carrying the rows themselves, as lll_reduce and the final pass
    # call it, must return the oracle's reduced rows, d and counts, or raise
    # its ValueError
    errors = set()
    for rows in random_bases():
        for lovasz in (LIFT_LOVASZ, LOVASZ):
            try:
                reduced, *counted = _lll_with_grams(rows, lovasz)
            except ValueError as expected:
                errors.add(str(expected))
                with pytest.raises(ValueError) as raised:
                    _lll(rows, rows, lovasz)
                assert str(raised.value) == str(expected), rows
                continue
            carried, *rest = _lll(rows, rows, lovasz)
            assert rest == counted, (rows, lovasz)
            assert [tuple(row) for row in carried] == reduced, (rows, lovasz)
    assert errors == {"rows must be linearly independent",
                      "rows must be linearly independent (zero row)"}


# -- the packed rows of `relations._lll` ------------------------------------------

@pytest.mark.parametrize("width", [2, 3, 8, 64, 65, 130])
def test_packed_rows_round_trip_at_the_field_edges(width):
    # each field holds [-2^(width-1), 2^(width-1)); a first visit reads
    # fewer fields than the row holds, and a row may be out of range in
    # between, as long as it is back in range when it is read
    half = 1 << (width - 1)
    edges = [half - 1, -(half - 1), -half, 0]
    rows = [edges, edges[::-1], [-half] * 5, [half - 1] * 5, [0] * 4,
            [1, -half, half - 1, -1, 0, -half, 0, half - 1]]
    for row in rows:
        packed = _pack(row, width)
        for count in range(len(row) + 1):
            assert _unpack(packed, width, count) == row[:count], (row, count)
    a, b = [-half, half - 1, -1, 1], [-half, half - 1, half - 1, -half]
    twice = _pack(a, width) + 2 * _pack(b, width)  # every field out of range
    assert _unpack(twice - 2 * _pack(b, width), width, len(a)) == a


def unpacked_ratios(monkeypatch):
    """Run `relations._lll` over the stages of STAGE_CASES and over the
    random bases carried as rows, and check every unpack: each entry e read
    has 4 e^2 <= (n + 3) M, M = max_i rows_i . metric_i, the width is
    1 + bitlength(isqrt((n + 3) M / 4)), and both forms unpack.  Returns
    each unpack's largest |e| / sqrt((n + 3) M / 4)."""
    lll, unpack = relations._lll, relations._unpack
    calls = []
    forms = set()
    ratios = []

    def recording_lll(rows, metric, lovasz):
        calls.append(((len(rows) + 3) * max(map(_dot, rows, metric)), metric is rows))
        try:
            return lll(rows, metric, lovasz)
        finally:
            calls.pop()

    def recording_unpack(packed, width, count):
        entries = unpack(packed, width, count)
        limit, form = calls[-1]
        assert width == math.isqrt(limit // 4).bit_length() + 1
        assert all(4 * e * e <= limit for e in entries)
        forms.add(form)
        ratios.append(math.sqrt(F(4 * max(map(abs, entries), default=0) ** 2, limit)))
        return entries

    monkeypatch.setattr(relations, "_lll", recording_lll)
    monkeypatch.setattr(relations, "_unpack", recording_unpack)
    for n, digits, planted in STAGE_CASES:
        total = digits - 10
        column, _ = scaled_column(random.Random(4800 + n + digits), n, total, planted)
        for _ in relations._stages(column, total):
            pass
    for rows in random_bases():
        for lovasz in (LIFT_LOVASZ, LOVASZ):
            try:
                relations._lll(rows, rows, lovasz)
            except ValueError:
                pass
    assert forms == {True, False}
    return ratios


def test_every_unpacked_entry_lies_under_the_derived_bound(monkeypatch):
    ratios = unpacked_ratios(monkeypatch)
    assert 0 < max(ratios) <= 1
