"""The paper's unit Euler sum transformations and three of its closed forms,
as the tests use them: nothing in the package calls these, so they live
beside the tests that hold them to the evaluator.

The transformations (Borwein, Bradley, Broadhurst and Lisoněk, "Special
values of multiple polylogarithms") write one value as a formal sum of
others: `cyclotomic_expand` dresses bases with square roots of unity,
`alternating_to_mu` writes an all-alternating sum as signed unit Euler sums,
`mu_to_compositions` writes a unit Euler sum as all-alternating strings,
and `delta_mu_dual` reads the base-2/unit-sum duality off `model.dual_word`.
Sign dressings are one `itertools.product` over per-slot sign tuples, and
the compositions of `mu_to_compositions` are `_weak_chains` of strings of
1s; `_weak_chains` is also the oracle of the catalog's ``_chains`` and
``_lift``.  The closed forms `zeta_li_log`, `delta_odd` and
`delta_one_negative_exact` are built as `polyzeta.identities` builds the
others, from pi, ln 2, zeta(r) and Li_r(1/2), and keep their bodies, so the
closed-form digest of `test_pinned_values` holds their bits.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from math import comb, isqrt, prod

from polyzeta.errors import DomainError
from polyzeta.evaluate import evaluate_lambda
from polyzeta.identities import FormalSum, delta_negative_exact, mu_power
from polyzeta.model import (
    LambdaSpec,
    delta_spec,
    dual_word,
    format_spec,
    int_tuple,
    lambda_to_word,
    mu_spec,
    word_to_lambda,
    zeta_spec,
)
from polyzeta.precision import BigReal, Precision, linear_combination

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
    s = int_tuple(s)
    exps = tuple(1 + x for x in reversed(s))
    return LambdaSpec.of(exps, (Fraction(-1),) * len(exps))


def alternating_to_mu(s) -> FormalSum:
    """Expand the all-alternating value of alternating_source_spec(s) into
    2^sum(s) signed unit Euler sums.

    Each term's bases are, for j = 1..k, a -1 followed by the chosen signs
    (eps_i,j); its coefficient is the product of those signs.
    """
    s = int_tuple(s)
    if any(x < 0 for x in s):
        raise DomainError("entries must be nonnegative")
    # slot j holds a -1 and then s_j chosen signs; the coefficient is the
    # product of the chosen signs, the bases' product with the k -1s undone
    slots = [[(-1,) + eps for eps in iproduct((1, -1), repeat=sj)] for sj in s]
    undo = (-1) ** len(s)
    terms = []
    for dressing in iproduct(*slots):
        bases = sum(dressing, ())
        terms.append((undo * prod(bases), mu_spec(*bases)))
    return FormalSum(terms)


def _weak_chains(s: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Exponent strings of the strict chains in the weak-chain expansion of
    a nonempty s, one per way to merge adjacent exponents.

    The weakly increasing chain sum over n_1 <= ... <= n_k of
    prod n_j^-s_j is the sum, with coefficient 1 each, of the MZVs of these
    strings: the exponents of coinciding adjacent indices merge, and the
    surviving strict chain is read innermost first.  The strings are built
    from the last exponent backwards, the last entry of each being the open
    block: every earlier exponent opens a block of its own or joins the
    open one.  On s = (1,)*n the strings are the 2^(n-1) compositions of n,
    each once, which is how ``mu_to_compositions`` draws them
    (``_string_table`` walks the catalog's strings depth first instead).
    """
    chains = [s[-1:]]
    for e in reversed(s[:-1]):
        chains = [c for head in chains for c in (head + (e,), head[:-1] + (head[-1] + e,))]
    return chains


def mu_source_spec(s) -> LambdaSpec:
    """mu of the concatenation over j = 0..k-1 of {-1} {1}^s_(k-j)."""
    s = int_tuple(s)
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
    s = int_tuple(s)
    if any(x < 0 for x in s):
        raise DomainError("entries must be nonnegative")
    terms = []
    for combo in iproduct(*(_weak_chains((1,) * (sj + 1)) for sj in s)):
        exps = sum(combo, ())
        terms.append((1, LambdaSpec.of(exps, (Fraction(-1),) * len(exps))))
    return FormalSum(terms)


def delta_mu_dual(s) -> tuple[int, LambdaSpec]:
    """Base-2 value delta(s_1..s_k) as a signed unit +-1 Euler sum.

    Returns (sign, mu-spec) with delta(s) = sign * mu(...): the `dual_word`
    dual of delta(s)'s word.  That word has 2 at each term's end and 0
    elsewhere, so x -> 1 - x maps it onto letters -1 and 1 alone: the mu
    bases are, for j = k down to 1, a -1 followed by s_j - 1 ones, and
    sign = (-1)^k.
    """
    s = int_tuple(s)
    if not s or any(x < 1 for x in s):
        raise DomainError("entries must be positive integers")
    dual, sign = dual_word(lambda_to_word(delta_spec(*s)))
    return sign, word_to_lambda(dual)


# ---------------------------------------------------------------------------
# Bernoulli numbers and closed forms
# ---------------------------------------------------------------------------


def _bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0 .. B_n, exactly, from the recurrence sum_{j<=m} C(m+1, j) B_j = 0
    (so B_1 = -1/2)."""
    out = [Fraction(1)]
    for m in range(1, n + 1):
        out.append(-sum(comb(m + 1, j) * out[j] for j in range(m)) / (m + 1))
    return out


def delta_one_negative_exact(n: int) -> Fraction:
    """delta(1, -n) for n >= 1, via Bernoulli numbers (exact rational)."""
    if n < 1:
        raise DomainError("index must be a positive integer")
    b = _bernoulli_numbers(n)
    return sum(
        (
            Fraction(comb(n, nu)) * b[n - nu] * delta_negative_exact(nu)
            / (nu + 1)
            for nu in range(n + 1)
        ),
        Fraction(0),
    )


def zeta_li_log(n: int, prec: Precision) -> BigReal:
    """delta(2, {1}^n) = zeta(n+2) - sum_{r=1}^{n+2} A_r P_{n+2-r}."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    terms = [(1, evaluate_lambda(zeta_spec(n + 2), prec))]
    for r in range(1, n + 3):
        terms.append((-1, (evaluate_lambda(delta_spec(r), prec), mu_power(2, n + 2 - r, prec))))
    return linear_combination(terms, prec)


def delta_odd(n: int, prec: Precision) -> BigReal:
    """delta(1, 2n-1) = 1/2 sum_{j=1}^{2n-1} (-1)^(j+1) A_j A_{2n-j}."""
    if n < 1:
        raise DomainError("n must be a positive integer")
    a = {r: evaluate_lambda(delta_spec(r), prec) for r in range(1, 2 * n)}
    terms = [((-1) ** (j + 1), (a[j], a[2 * n - j])) for j in range(1, 2 * n)]
    return linear_combination(terms, prec) * Fraction(1, 2)
