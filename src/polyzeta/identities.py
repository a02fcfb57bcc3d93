"""Symbolic identity engine: stuffle/shuffle products, duality rewrites,
sign and composition expansions, reversal reductions, and exact closed forms,
one function each, used as numeric oracles.

All symbolic output is a `FormalSum`: an exact-rational linear combination of
term bodies in a fixed canonical order, so rendered identities are
byte-stable.  Bodies are `LambdaSpec`s, integral words (tuples of rational
form parameters) or `SpecProduct`s (products of specs, from reversal
reductions); every one of them can be evaluated.

Every term algebra here is a dict from a hashable key to an exact
coefficient (an int until a division makes it a Fraction), and `_add_term`
is its one merge step: it adds a coefficient in and drops the key when the
sum is zero.  `FormalSum` merges its terms with it, keyed by `_body_key`.
The shuffle and stuffle products count their raw terms before they build
bodies, so each distinct body is built and keyed once.

Reversal reductions eliminate divergent intermediates in a polynomial
algebra over the formal symbol T = "zeta(1)".  A T-polynomial is such a
dict, keyed by (degree of T, sorted tuple of convergent zeta exponent
strings).  Products concatenate and sort the factor tuples; sums merge
through `_add_term`.  Only the final degree-0 part becomes a `FormalSum`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import comb, factorial, isqrt

import mpmath as mp

from .errors import DivergenceError, DomainError
from .evaluate import evaluate_lambda, evaluate_word
from .model import (
    EMPTY_SPEC,
    LambdaSpec,
    format_spec,
    lambda_to_word,
    make_word,
    mu_spec,
    mzv_dual_string,
    zeta_spec,
)
from .precision import BigReal, Precision, ln, pi

# ---------------------------------------------------------------------------
# Formal sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpecProduct:
    """A product of lambda values, kept in canonical factor order."""

    factors: tuple[LambdaSpec, ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "factors",
            tuple(sorted(self.factors, key=_spec_key)),
        )


def _spec_key(spec: LambdaSpec):
    return (
        spec.depth,
        spec.exponents,
        tuple((b.numerator, b.denominator) for b in spec.bases),
    )


def _body_key(body):
    if isinstance(body, LambdaSpec):
        return (0,) + _spec_key(body)
    if isinstance(body, tuple):  # a word
        return (1, len(body), tuple((a.numerator, a.denominator) for a in body))
    if isinstance(body, SpecProduct):
        return (2, len(body.factors), tuple(_spec_key(f) for f in body.factors))
    raise TypeError(f"unsupported formal-sum body: {type(body)!r}")


def _add_term(out: dict, key, c) -> None:
    """Add the exact coefficient c to out[key], dropping the key at zero."""
    c += out.get(key, 0)
    if c:
        out[key] = c
    else:
        out.pop(key, None)


class FormalSum:
    """Exact-rational linear combination of term bodies, canonicalized.

    ``terms`` is a tuple of (coefficient, body) pairs in `_body_key` order,
    with no zero coefficient and no repeated body.  Coefficients are kept as
    given, ints or Fractions; the two compare, hash and print alike.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        coeffs: dict = {}
        bodies: dict = {}
        for coeff, body in terms:
            key = _body_key(body)
            bodies[key] = body
            _add_term(coeffs, key, coeff)
        object.__setattr__(
            self, "terms", tuple((coeffs[key], bodies[key]) for key in sorted(coeffs))
        )

    @classmethod
    def single(cls, body, coeff=1) -> "FormalSum":
        return cls(((coeff, body),))

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return FormalSum(self.terms + other.terms)

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + (-other)

    def __neg__(self) -> "FormalSum":
        return FormalSum((-c, b) for c, b in self.terms)

    def __eq__(self, other):
        return isinstance(other, FormalSum) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"FormalSum({render_formal_sum(self)})"


def _render_body(body) -> str:
    if isinstance(body, LambdaSpec):
        return format_spec(body)
    if isinstance(body, tuple):
        return "W[" + ",".join(str(a) for a in body) + "]"
    if not body.factors:  # a SpecProduct
        return "1"
    return "*".join(format_spec(f) for f in body.factors)


def render_formal_sum(fs: FormalSum) -> str:
    if not fs.terms:
        return "0"
    parts = []
    for i, (c, body) in enumerate(fs.terms):
        mag = abs(c)
        text = _render_body(body) if mag == 1 else f"{mag}*{_render_body(body)}"
        if i == 0:
            parts.append(text if c > 0 else f"-{text}")
        else:
            parts.append(f"+ {text}" if c > 0 else f"- {text}")
    return " ".join(parts)


def evaluate_formal_sum(fs: FormalSum, prec: Precision) -> BigReal:
    """Numeric value sum(coeff * value(body))."""
    total = BigReal(0, prec)
    for coeff, body in fs.terms:
        if isinstance(body, LambdaSpec):
            v = evaluate_lambda(body, prec)
        elif isinstance(body, tuple):
            v = evaluate_word(body, prec)
        else:  # a SpecProduct
            v = BigReal(1, prec)
            for f in body.factors:
                v = v * evaluate_lambda(f, prec)
        total = total + v * coeff
    return total


# ---------------------------------------------------------------------------
# Stuffle algebra
# ---------------------------------------------------------------------------


def stuffle_set(s, t, a, b):
    """All interleave/merge combinations of two exponent strings with their
    running-product base strings.

    Returns a tuple of (u, c) pairs, one per combination path; when the
    letters carry equal values, distinct paths may repeat a numeric string,
    which is how multiplicities arise.  Base rule: after consuming i letters
    of s and j of t, the emitted base is a_i * b_j (empty products are 1).
    """
    s = tuple(int(x) for x in s)
    t = tuple(int(x) for x in t)
    a = tuple(Fraction(x) for x in a)
    b = tuple(Fraction(x) for x in b)
    if len(s) != len(a) or len(t) != len(b):
        raise ValueError("exponent and base strings must have equal lengths")
    out = []

    def rec(i, j, u, c):
        if i == len(s) and j == len(t):
            out.append((tuple(u), tuple(c)))
            return
        ai = a[i] if i < len(s) else None
        bj = b[j] if j < len(t) else None
        a_prev = a[i - 1] if i > 0 else Fraction(1)
        b_prev = b[j - 1] if j > 0 else Fraction(1)
        if i < len(s):
            rec(i + 1, j, u + [s[i]], c + [ai * b_prev])
        if i < len(s) and j < len(t):
            rec(i + 1, j + 1, u + [s[i] + t[j]], c + [ai * bj])
        if j < len(t):
            rec(i, j + 1, u + [t[j]], c + [a_prev * bj])

    rec(0, 0, [], [])
    return tuple(out)


def stuffle_identity(u: LambdaSpec, v: LambdaSpec) -> FormalSum:
    """lambda(u) * lambda(v) as a sum over the interleave/merge set.

    Repeated (exponents, bases) pairs are counted first, so each distinct
    spec is built once, with its multiplicity as coefficient.
    """
    counts: dict = {}
    for pair in stuffle_set(u.exponents, v.exponents, u.bases, v.bases):
        _add_term(counts, pair, 1)
    return FormalSum((n, LambdaSpec.of(ue, ce)) for (ue, ce), n in counts.items())


def rational_stuffle_check(a, b) -> bool:
    """Exact rational check of the product rule for f(g) = prod 1/(g_j - 1).

    With zero exponent strings the nested sums collapse to these rational
    products, so f(a) f(b) must equal the sum of f over the combination set.
    Serves as an independent oracle for stuffle_set.
    """
    a = tuple(Fraction(x) for x in a)
    b = tuple(Fraction(x) for x in b)
    if any(x == 1 for x in a + b):
        raise DomainError("entries equal to 1 pole the rational check")

    def f(vals):
        out = Fraction(1)
        for g in vals:
            if g == 1:
                raise DomainError(f"merged base {g} poles the rational check")
            out /= g - 1
        return out

    pairs = stuffle_set((0,) * len(a), (0,) * len(b), a, b)
    return f(a) * f(b) == sum((f(c) for _, c in pairs), Fraction(0))


# ---------------------------------------------------------------------------
# Shuffle algebra
# ---------------------------------------------------------------------------


def shuffle_words(w1, w2) -> FormalSum:
    """All order-preserving interleavings of two words, with multiplicity.

    The interleavings run over small-int codes of the distinct letters and
    are counted in a dict, so each distinct word is built once.
    """
    w1 = make_word(w1)
    w2 = make_word(w2)
    letters = tuple(set(w1 + w2))
    code = {a: n for n, a in enumerate(letters)}
    c1 = tuple(code[a] for a in w1)
    c2 = tuple(code[a] for a in w2)
    counts: dict = {}

    def rec(i, j, acc):
        if i == len(c1) and j == len(c2):
            _add_term(counts, tuple(acc), 1)
            return
        if i < len(c1):
            acc.append(c1[i])
            rec(i + 1, j, acc)
            acc.pop()
        if j < len(c2):
            acc.append(c2[j])
            rec(i, j + 1, acc)
            acc.pop()

    rec(0, 0, [])
    return FormalSum(
        (n, tuple(letters[c] for c in codes)) for codes, n in counts.items()
    )


# ---------------------------------------------------------------------------
# Integral-transformation expansions
# ---------------------------------------------------------------------------


def _rational_sqrt(x: Fraction) -> Fraction | None:
    """Positive rational square root of x, or None.

    x is in lowest terms, so it is a square exactly when its numerator and
    denominator are; the integer square roots decide that exactly.
    """
    if x <= 0:
        return None
    p, q = isqrt(x.numerator), isqrt(x.denominator)
    if p * p != x.numerator or q * q != x.denominator:
        return None
    return Fraction(p, q)


def cyclotomic_expand(spec: LambdaSpec, n: int) -> FormalSum:
    """Rewrite lambda(s; b^n-style bases) as n^(weight-depth) times the sum
    over all n^depth root-of-unity dressings of the n-th roots.

    n = 1 is the identity; n = 2 needs every base to be the square of a
    rational and yields a fully rational sum over sign dressings.  Higher
    orders need complex roots of unity, which nothing here evaluates, so
    they raise DomainError.
    """
    if n not in (1, 2):
        raise DomainError(f"cyclotomic order must be 1 or 2, got {n}")
    if any(s < 1 for s in spec.exponents):
        raise DomainError("cyclotomic expansion needs positive exponents")
    if n == 1:
        return FormalSum.single(spec)
    roots = []
    for b in spec.bases:
        r = _rational_sqrt(b)
        if r is None:
            raise DomainError(
                f"{format_spec(spec)}: base {b} is not the square of a rational"
            )
        roots.append(r)
    coeff = 2 ** (spec.weight - spec.depth)
    return FormalSum(
        (coeff, LambdaSpec.of(spec.exponents, tuple(e * r for e, r in zip(signs, roots))))
        for signs in iproduct((1, -1), repeat=spec.depth)
    )


def alternating_source_spec(s) -> LambdaSpec:
    """lambda(1+s_k, ..., 1+s_1; -1, ..., -1) for nonnegative integers s."""
    s = tuple(int(x) for x in s)
    exps = tuple(1 + x for x in reversed(s))
    return LambdaSpec.of(exps, (Fraction(-1),) * len(exps))


def alternating_to_mu(s) -> FormalSum:
    """Expand the all-alternating value of alternating_source_spec(s) into
    2^sum(s) signed unit Euler sums.

    Each term's bases are, for j = 1..k, a -1 followed by the chosen signs
    (eps_i,j); its coefficient is the product of those signs.
    """
    s = tuple(int(x) for x in s)
    if any(x < 0 for x in s):
        raise DomainError("entries must be nonnegative")
    total = sum(s)
    terms = []
    for eps in iproduct((1, -1), repeat=total):
        it = iter(eps)
        bases: list[int] = []
        coeff = 1
        for sj in s:
            bases.append(-1)
            for _ in range(sj):
                e = next(it)
                coeff *= e
                bases.append(e)
        terms.append((coeff, mu_spec(*bases)))
    return FormalSum(terms)


def _blocks(seq: tuple, mask: int) -> list[tuple]:
    """Cut a nonempty seq into consecutive blocks: bit j-1 of mask set keeps
    seq[j-1] and seq[j] in one block, a clear bit cuts between them."""
    blocks = []
    start = 0
    for j in range(1, len(seq)):
        if not mask >> (j - 1) & 1:
            blocks.append(seq[start:j])
            start = j
    blocks.append(seq[start:])
    return blocks


def _compositions(total: int):
    """All positive-integer compositions of total >= 1 (2^(total-1) of them)."""
    ones = (1,) * total
    for mask in range(1 << (total - 1)):
        yield tuple(len(block) for block in _blocks(ones, mask))


def mu_source_spec(s) -> LambdaSpec:
    """mu of the concatenation over j = 0..k-1 of {-1} {1}^s_(k-j)."""
    s = tuple(int(x) for x in s)
    bases: list[int] = []
    for sj in reversed(s):
        bases.append(-1)
        bases.extend([1] * sj)
    return mu_spec(*bases)


def mu_to_compositions(s) -> FormalSum:
    """Expand mu_source_spec(s) into all-alternating lambda strings.

    One +1 term per independent choice of a composition of each s_j + 1;
    the term's exponents are the concatenated composition parts, all bases
    -1.  2^sum(s) terms in total.
    """
    s = tuple(int(x) for x in s)
    if any(x < 0 for x in s):
        raise DomainError("entries must be nonnegative")
    terms = []
    for combo in iproduct(*(tuple(_compositions(sj + 1)) for sj in s)):
        exps: list[int] = []
        for part in combo:
            exps.extend(part)
        body = LambdaSpec.of(tuple(exps), (Fraction(-1),) * len(exps))
        terms.append((1, body))
    return FormalSum(terms)


def delta_mu_dual(s) -> tuple[int, LambdaSpec]:
    """Base-2 value delta(s_1..s_k) as a signed unit +-1 Euler sum.

    Returns (sign, mu-spec) with delta(s) = sign * mu(...), where the mu
    bases are, for j = k down to 1, a -1 followed by s_j - 1 ones and
    sign = (-1)^k.
    """
    s = tuple(int(x) for x in s)
    if not s or any(x < 1 for x in s):
        raise DomainError("entries must be positive integers")
    bases: list[int] = []
    for sj in reversed(s):
        bases.append(-1)
        bases.extend([1] * (sj - 1))
    return (-1) ** len(s), mu_spec(*bases)


def mu_to_delta(bases) -> tuple[int, tuple[int, ...]]:
    """Inverse of delta_mu_dual: a unit +-1 string starting with -1 maps to
    (sign, delta argument string)."""
    bases = tuple(int(b) for b in bases)
    if not bases or bases[0] != -1 or any(b not in (1, -1) for b in bases):
        raise DomainError("expected a unit +-1 string starting with -1")
    ones_runs: list[int] = []
    for b in bases:
        if b == -1:
            ones_runs.append(0)
        else:
            ones_runs[-1] += 1
    exps = tuple(r + 1 for r in reversed(ones_runs))
    return (-1) ** len(ones_runs), exps


# ---------------------------------------------------------------------------
# Weak chains and reversal reduction
# ---------------------------------------------------------------------------


def _weak_chains(s: tuple[int, ...]):
    """Exponent strings of the strict chains in the weak-chain expansion of
    a nonempty s."""
    for mask in range(1 << (len(s) - 1)):
        # a set bit j-1 means n_j == n_{j+1}: the block's exponents merge
        yield tuple(sum(block) for block in reversed(_blocks(s, mask)))


def weak_chain_expand(s) -> FormalSum:
    """Expand the weakly increasing chain sum over n_1 <= ... <= n_k of
    prod n_j^-s_j into strict-chain MZV strings.

    Each choice of which adjacent indices coincide merges those exponents;
    the surviving strict chain is read off innermost-first, so every term is
    a reversed, partially merged zeta string with coefficient +1.
    """
    s = tuple(int(x) for x in s)
    if not s:
        return FormalSum.single(EMPTY_SPEC)
    return FormalSum((1, zeta_spec(*chain)) for chain in _weak_chains(s))


def _t_accumulate(out: dict, p: dict, factor) -> None:
    """out += factor * p for T-polynomials."""
    for key, c in p.items():
        _add_term(out, key, factor * c)


def _t_mul(p: dict, q: dict) -> dict:
    """Product of two T-polynomials: degrees add, factor strings merge."""
    out: dict = {}
    for (d1, f1), c1 in p.items():
        for (d2, f2), c2 in q.items():
            _add_term(out, (d1 + d2, tuple(sorted(f1 + f2))), c1 * c2)
    return out


def _regularize_string(s: tuple[int, ...], memo: dict) -> dict:
    """Zeta string (possibly with leading 1s) as a polynomial in the formal
    divergent symbol T = "zeta(1)", with convergent coefficients.

    The polynomial is a dict mapping (degree of T, sorted tuple of convergent
    zeta exponent strings) to the exact rational coefficient of that product
    (an int until a division makes it a Fraction); zero coefficients are
    never stored.  Results are kept in ``memo``, which the caller scopes to
    one reduction.

    Uses the exact product expansion of T with the tail string w = s[1:]:
    inserting the 1 at any slot or merging it into an entry.  Insertions
    into the leading run of 1s reproduce s itself, giving it multiplicity
    (leading-ones(w) + 1) on the left; everything else has strictly fewer
    leading 1s or is shorter, so the recursion terminates.  The expansion
    holds for every common truncation of the underlying sums, so
    substituting the results back preserves exact identities.
    """
    if not s or s[0] != 1:
        return {(0, (s,) if s else ()): 1}
    if s in memo:
        return memo[s]
    w = s[1:]
    lead = 0
    while lead < len(w) and w[lead] == 1:
        lead += 1
    scale = Fraction(1, lead + 1)
    out = {
        (degree + 1, factors): scale * c
        for (degree, factors), c in _regularize_string(w, memo).items()
    }
    for i in range(lead + 1, len(w) + 1):
        _t_accumulate(out, _regularize_string(w[:i] + (1,) + w[i:], memo), -scale)
    for i in range(len(w)):
        merged = w[:i] + (w[i] + 1,) + w[i + 1:]
        _t_accumulate(out, _regularize_string(merged, memo), -scale)
    memo[s] = out
    return out


def reversal_reduction(s) -> FormalSum:
    """zeta(s) + (-1)^depth zeta(reversed s) as products of lower-depth MZVs.

    Built from inclusion-exclusion over the adjacent order constraints:
    each constraint subset contributes a signed product of weakly increasing
    chain sums over its maximal runs, and the full-constraint term is the
    reversed string plus merged lower-depth chains.  Interior exponent-1
    entries make individual pieces divergent; those are eliminated exactly
    through the T-polynomial rewriting of ``_regularize_string``, and the
    divergent degrees provably cancel (asserted).  The algebra runs on plain
    dicts of exact rationals; only the degree-0 result becomes a FormalSum.
    """
    s = tuple(int(x) for x in s)
    k = len(s)
    if k == 0 or s[0] < 2 or s[-1] < 2:
        raise DivergenceError(
            "reversal reduction needs first and last exponents >= 2"
        )
    memo: dict = {}  # zeta string -> its T-polynomial
    lifts: dict = {}  # block -> T-polynomial of its weak-chain expansion
    total: dict = {}
    for mask in range(1 << (k - 1)):
        nbits = bin(mask).count("1")
        piece = {(0, ()): (-1) ** nbits}
        full_chain = mask == (1 << (k - 1)) - 1
        # runs of consecutive constrained indices partition the variables
        for block in _blocks(s, mask):
            lifted = lifts.get(block)
            if lifted is None:
                lifted = {}
                for chain in _weak_chains(block):
                    _t_accumulate(lifted, _regularize_string(chain, memo), 1)
                lifts[block] = lifted
            if full_chain:
                # move the all-strict reversed term to the left-hand side
                lifted = dict(lifted)
                _t_accumulate(lifted, _regularize_string(block[::-1], memo), -1)
            piece = _t_mul(piece, lifted)
        _t_accumulate(total, piece, 1)
    bad = {key: c for key, c in total.items() if key[0] != 0}
    assert not bad, f"divergent degrees failed to cancel: {bad}"
    # one spec per distinct exponent string, not one per factor
    strings = {f for _, factors in total for f in factors}
    specs = {f: zeta_spec(*f) for f in strings}
    return FormalSum(
        (c, SpecProduct(tuple(specs[f] for f in factors)))
        for (_, factors), c in total.items()
    )


# ---------------------------------------------------------------------------
# Bernoulli numbers and closed forms
# ---------------------------------------------------------------------------

_BERNOULLI_CACHE: dict[int, Fraction] = {0: Fraction(1)}


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number (B_1 = -1/2 convention)."""
    if n < 0:
        raise DomainError("Bernoulli index must be nonnegative")
    if n not in _BERNOULLI_CACHE:
        for m in range(1, n + 1):
            if m in _BERNOULLI_CACHE:
                continue
            acc = Fraction(0)
            for j in range(m):
                acc += comb(m + 1, j) * _BERNOULLI_CACHE[j]
            _BERNOULLI_CACHE[m] = -acc / (m + 1)
    return _BERNOULLI_CACHE[n]


def delta_negative_exact(n: int) -> int:
    """delta(-n) = sum k^n / 2^k: integers satisfying the button-combination
    recurrence d(n) = 1 + sum_j C(n, j) d(j)."""
    if n < 0:
        raise DomainError("index must be nonnegative")
    vals = [1]
    for m in range(1, n + 1):
        vals.append(1 + sum(comb(m, j) * vals[j] for j in range(m)))
    return vals[n]


def delta_one_negative_exact(n: int) -> Fraction:
    """delta(1, -n) for n >= 1, via Bernoulli numbers (exact rational)."""
    if n < 1:
        raise DomainError("index must be a positive integer")
    return sum(
        (
            Fraction(comb(n, nu)) * bernoulli(n - nu) * delta_negative_exact(nu)
            / (nu + 1)
            for nu in range(n + 1)
        ),
        Fraction(0),
    )


class ClosedFormConstants:
    """Base constants for the closed forms at a fixed precision.

    A(r) is the polylogarithm of 1/2, P(r) = (ln 2)^r / r!, Z(r) the signed
    zeta value (-1)^r zeta(r).  These are materialized from the library's
    own zeta/polylog routines so they stay independent of the nested-sum
    evaluator they are used to check.
    """

    def __init__(self, prec: Precision):
        self.prec = prec
        # a context of its own, not precision._context's: mpmath's polylog
        # raises and restores the precision of the context it runs in, which
        # would change the rounding of another thread's values meanwhile
        self._ctx = mp.MPContext()
        self._ctx.dps = prec.working_dps
        self._cache: dict = {}

    def _mk(self, key, fn) -> BigReal:
        if key not in self._cache:
            self._cache[key] = BigReal(fn(self._ctx), self.prec)
        return self._cache[key]

    def A(self, r: int) -> BigReal:
        if r < 1:
            raise DomainError("A(r) needs r >= 1")
        return self._mk(("A", r), lambda ctx: ctx.polylog(r, ctx.mpf(1) / 2))

    def P(self, r: int) -> BigReal:
        if r < 0:
            raise DomainError("P(r) needs r >= 0")
        return self._mk(("P", r), lambda ctx: ctx.log(2) ** r / ctx.factorial(r))

    def Z(self, r: int) -> BigReal:
        if r < 2:
            raise DomainError("Z(r) needs r >= 2")
        return self._mk(("Z", r), lambda ctx: (-1) ** r * ctx.zeta(r))

    def zeta(self, r: int) -> BigReal:
        if r < 2:
            raise DomainError("zeta(r) needs r >= 2")
        return self._mk(("zeta", r), lambda ctx: +ctx.zeta(r))


def zagier(n: int, prec: Precision) -> BigReal:
    """zeta({3,1}^n) = 2 pi^(4n) / (4n+2)!."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    num = 2 * pi(prec) ** (4 * n)
    return num * Fraction(1, factorial(4 * n + 2))


def _zeta4_run(m: int, prec: Precision) -> BigReal:
    """zeta({4}^m) = 4^m * zagier(m)."""
    return zagier(m, prec) * Fraction(4 ** m)


def z213(n: int, prec: Precision) -> BigReal:
    """zeta(2, {1,3}^n) in terms of pi powers and depth-1 zetas."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    c = ClosedFormConstants(prec)
    total = BigReal(0, prec)
    for k in range(n + 1):
        acc = c.zeta(4 * k + 2) * (4 * k + 1)
        for j in range(1, k + 1):
            acc = acc - c.zeta(4 * j - 1) * c.zeta(4 * k - 4 * j + 3) * 4
        total = total + _zeta4_run(n - k, prec) * acc * Fraction((-1) ** k)
    return total * Fraction(1, 4 ** n)


def mu_power(p, n: int, prec: Precision) -> BigReal:
    """mu({p}^n) = (log q)^n / n! with 1/p + 1/q = 1."""
    p = Fraction(p)
    if n < 0:
        raise DomainError("n must be nonnegative")
    if not (p > 1 or p <= -1):
        raise DomainError("requires p > 1 or p <= -1")
    q = p / (p - 1)
    return ln(q, prec) ** n * Fraction(1, factorial(n))


def t4(m: int, prec: Precision) -> BigReal:
    if m < 1:
        raise DomainError("m must be a positive integer")
    c = ClosedFormConstants(prec)
    acc = BigReal(0, prec)
    for k in range(m + 1):
        acc = acc + c.A(k + 1) * c.P(m - k)
    return acc * Fraction((-1) ** (m + 1)) - c.Z(m + 1)


def t5(m: int, n: int, prec: Precision) -> BigReal:
    if m < 1 or n < 0:
        raise DomainError("needs m >= 1 and n >= 0")
    c = ClosedFormConstants(prec)
    first = BigReal(0, prec)
    for k in range(m + 1):
        first = first + c.A(k + n + 1) * c.P(m - k) * comb(n + k, n)
    second = BigReal(0, prec)
    for k in range(n + 1):
        second = second + c.Z(k + m + 1) * c.P(n - k) * comb(m + k, m)
    return first * Fraction((-1) ** (m + 1)) + second * Fraction((-1) ** (n + 1))


def li2_half(prec: Precision) -> BigReal:
    p = pi(prec)
    l2 = ln(2, prec)
    return p * p * Fraction(1, 12) - l2 * l2 * Fraction(1, 2)


def zeta_li_log(n: int, prec: Precision) -> BigReal:
    """delta(2, {1}^n) = zeta(n+2) - sum_{r=1}^{n+2} A_r P_{n+2-r}."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    c = ClosedFormConstants(prec)
    acc = c.zeta(n + 2)
    for r in range(1, n + 3):
        acc = acc - c.A(r) * c.P(n + 2 - r)
    return acc


def delta_odd(n: int, prec: Precision) -> BigReal:
    """delta(1, 2n-1) = 1/2 sum_{j=1}^{2n-1} (-1)^(j+1) A_j A_{2n-j}."""
    if n < 1:
        raise DomainError("n must be a positive integer")
    c = ClosedFormConstants(prec)
    acc = BigReal(0, prec)
    for j in range(1, 2 * n):
        acc = acc + c.A(j) * c.A(2 * n - j) * Fraction((-1) ** (j + 1))
    return acc * Fraction(1, 2)


def delta_12(prec: Precision) -> BigReal:
    c = ClosedFormConstants(prec)
    return (
        c.A(2) * c.A(1) * Fraction(5, 7)
        - c.A(3) * Fraction(2, 7)
        + c.A(1) ** 3 * Fraction(5, 21)
    )


# ---------------------------------------------------------------------------
# Identity catalog / export
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Identity:
    tag: str
    lhs: FormalSum
    rhs: FormalSum

    def to_json(self) -> str:
        return json.dumps(
            {
                "lhs": render_formal_sum(self.lhs),
                "rhs": render_formal_sum(self.rhs),
                "tag": self.tag,
            },
            sort_keys=True,
        )


def _convergent_strings(max_weight: int):
    """All convergent unsigned MZV strings of weight <= max_weight."""
    out = []

    def rec(prefix, remaining):
        if prefix:
            out.append(tuple(prefix))
        lo = 2 if not prefix else 1
        for s in range(lo, remaining + 1):
            prefix.append(s)
            rec(prefix, remaining - s)
            prefix.pop()

    rec([], max_weight)
    return out


def identity_catalog(max_weight: int) -> list[Identity]:
    """Deterministic identity corpus up to a weight bound."""
    if max_weight < 3:
        raise ValueError("max_weight must be at least 3")
    identities: list[Identity] = []
    strings = _convergent_strings(max_weight)

    for s in strings:
        dual = mzv_dual_string(s)
        if dual <= s:  # emit each dual pair once
            continue
        identities.append(
            Identity(
                "duality",
                FormalSum.single(zeta_spec(*s)),
                FormalSum.single(zeta_spec(*dual)),
            )
        )

    for u in strings:
        for v in strings:
            if sum(u) + sum(v) > max_weight or u > v:
                continue
            lhs = FormalSum.single(SpecProduct((zeta_spec(*u), zeta_spec(*v))))
            identities.append(
                Identity("stuffle", lhs, stuffle_identity(zeta_spec(*u), zeta_spec(*v)))
            )
            identities.append(
                Identity(
                    "shuffle",
                    lhs,
                    shuffle_words(
                        lambda_to_word(zeta_spec(*u)),
                        lambda_to_word(zeta_spec(*v)),
                    ),
                )
            )

    for s in strings:
        if s[0] >= 2 and s[-1] >= 2:
            k = len(s)
            lhs = FormalSum.single(zeta_spec(*s)) + FormalSum.single(
                zeta_spec(*reversed(s)), (-1) ** k
            )
            identities.append(Identity("reversal", lhs, reversal_reduction(s)))

    return identities


def export_identities(identities, fh) -> int:
    """Write one JSON line per identity to the open text file fh; returns
    the number written."""
    for ident in identities:
        fh.write(ident.to_json() + "\n")
    return len(identities)
