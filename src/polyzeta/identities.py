"""Symbolic identity engine: stuffle/shuffle products, duality rewrites,
reversal reductions, and exact closed forms, one function each, used as
numeric oracles.

One enumerator per object.  ``_stuffle_counts`` counts the stuffle paths
for `stuffle_identity`, the catalog and the exact product rule of
`rational_stuffle_check` alike, so that rule checks the DP the package
runs.  Reversal reductions build the weak chains of a block, the merges of
its adjacent exponents, from those of its tail (``_chains``), and the
Tier-1 tests hold their lifts to a direct enumeration of the merges.  The
catalog's MZV duality pairs apply the one duality map, `model.dual_word`,
to 0/1 letter codes (reverse, swap 0 and 1).

All symbolic output is a `FormalSum`: an exact-rational linear combination of
term bodies in a fixed canonical order, so rendered identities are
byte-stable.  Bodies are `LambdaSpec`s, integral words (tuples of rational
form parameters) or `SpecProduct`s (products of specs, from reversal
reductions); every one of them can be evaluated.  A sum keeps its text
from its first render, or from a producer that joined it from texts it
holds, as the catalog does from its spec and product tables; a spec's or a
product's text is built afresh wherever a render needs it.

Every term algebra here is a dict from a hashable key to an exact
coefficient (an int until a division makes it a Fraction), and `_add_term`
is its one merge step: it adds a coefficient in and drops the key when the
sum is zero.  `FormalSum` merges its terms with it, keyed by `_body_key`; a
spec's key is read from `LambdaSpec.key`.  Producers that emit their
terms sorted and merged already (the shuffle product, the catalog's
products, reversal reductions) build it through `FormalSum._canonical`,
which skips the keying and the sort.

The shuffle and stuffle products count instead of listing: a dynamic
program over the (i, j) states (i letters of one factor and j of the other
consumed) maps each distinct prefix to its multiplicity, so merged paths
are added once, not walked one by one.  Prefixes are ints, so a step is a
multiply-add.  Shuffle words are base-k ints of letter codes ranked by
(numerator, denominator), so their int order is the `_body_key` order;
stuffle prefixes are base-radix ints of exponents, a zeta string's rank
(below), or of letter codes decoded at the end when the letters carry
bases.  Both DPs key a state by its two prefixes, in sorted order where
the product commutes, and can hold their states from one call to the
next, so the catalog, which keeps one memo per DP over its build, computes
each state once.

Reversal reductions eliminate divergent intermediates in a polynomial
algebra over the formal symbol T = "zeta(1)", one `_Reversals` object per
`reversal_reduction` call or catalog build.  Each zeta string enters it as
its rank, the base-radix int of its exponents, whose int order is the
specs' `LambdaSpec.key` order; T is the string (1,), of rank 1, below every
convergent string.  A T-polynomial is a dict keyed by the sorted tuple of
the ranks of a product's factors, T's once per power, with int
coefficients: each polynomial is kept scaled by a factorial that clears
its denominators, and the one division happens when the final degree-0
part becomes a `FormalSum`.  Products concatenate and sort the rank
tuples; sums merge through `_add_term`.  The inclusion-exclusion over the
cuts of a string into blocks is summed by a prefix DP on the last block,
O(depth^2) products instead of one per each of the 2^(depth-1) cuts, and
the DP's rows for a prefix are kept for the next string that shares it.
The emitted terms sort by (count, ranks) as ints, and each distinct
product becomes one `SpecProduct` with its text per algebra.  The
algebra's memos (string -> T-polynomial, block -> weak chains and lifted
T-polynomial, rank -> zeta spec and text, ranks -> product and text,
coefficient -> text) live as long as the object, so no memo here
outlives the call that made it.  The specs are interned in `model`, whose
table holds them weakly, so it keeps nothing past a build either.

`identity_catalog` keeps one spec table per build: each convergent string
gets one rank, one zeta spec and one word with their texts, which its
duality, stuffle, shuffle and reversal identities share, so each spec and
each product is built, keyed and rendered once, and every side's text is
joined from its bodies' texts as the side is built.

Exponent strings enter through `model.int_tuple` and bases through
`model.rational`, so a non-integer exponent or a float base raises TypeError
instead of being truncated or rounded.

The closed forms are the paper's evaluations in terms of pi, ln 2 and two
constant families: A(r) = Li_r(1/2) = L[r | 2] and the signed zeta values
Z(r) = (-1)^r zeta(r), zeta(r) = L[r | 1], with P(r) = (ln 2)^r / r! =
`mu_power(2, r)`.  Both families are depth-1 kernel values from
`evaluate_lambda`, memoized per (spec, prec) there.  They check the
evaluator on other words and routes than their own; the Tier-1 tests hold
both families to mpmath, so that a kernel fault cannot cancel out of both
sides.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import comb, factorial, perm
from typing import NamedTuple

from .errors import DivergenceError, DomainError
from .evaluate import evaluate_lambda
from .model import (
    LambdaSpec,
    delta_spec,
    format_spec,
    int_tuple,
    make_word,
    rational,
    word_to_lambda,
    zeta_spec,
)
from .precision import BigReal, Precision, linear_combination, ln, pi

# ---------------------------------------------------------------------------
# Formal sums
# ---------------------------------------------------------------------------


class SpecProduct:
    """A product of lambda values, kept in canonical factor order."""

    __slots__ = ("factors",)

    def __new__(cls, factors):
        return cls._sorted(tuple(sorted(factors, key=lambda f: f.key)))

    @classmethod
    def _sorted(cls, factors: tuple) -> "SpecProduct":
        """A product of factors already in ``key`` order, unsorted."""
        product = object.__new__(cls)
        _set_factors(product, factors)
        return product

    def __setattr__(self, name, value):
        raise AttributeError("SpecProduct is immutable")

    def __reduce__(self):
        return SpecProduct._sorted, (self.factors,)

    def __eq__(self, other):
        return isinstance(other, SpecProduct) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"SpecProduct(factors={self.factors!r})"


# _sorted binds the slot through its own descriptor, past the __setattr__
# that refuses assignment
_set_factors = SpecProduct.factors.__set__


def _body_key(body):
    """The canonical order of bodies: specs, then words, then products,
    specs by `LambdaSpec.key`."""
    if isinstance(body, LambdaSpec):
        return (0, body.key)
    if isinstance(body, tuple):  # a word
        return (1, len(body), tuple((a.numerator, a.denominator) for a in body))
    if isinstance(body, SpecProduct):
        return (2, len(body.factors), tuple(f.key for f in body.factors))
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
    given, ints or Fractions; the two compare, hash and print alike, and any
    other coefficient raises TypeError.  A sum is immutable, so its hash
    holds while it sits in a set or a dict.

    ``_specs`` resolves the bodies once: per term, the tuple of specs whose
    product is the body, ``(spec,)`` for a spec, a product's ``factors``,
    and ``(word_to_lambda(word),)`` for a word.  It starts as None and is
    filled whole by the first `evaluate_formal_sum`, so a later evaluation
    only looks values up.  It holds specs, not values, and it is not part
    of ==, hash, repr, copy or pickle.

    ``_text`` keeps `render_formal_sum`'s text from its first use, or from
    a producer that builds the same text from pieces it already holds, as
    `identity_catalog` does from its spec and product tables.  It is the
    one text any body or sum keeps: specs and products keep none.  It too
    is not part of ==, hash, copy or pickle.
    """

    __slots__ = ("terms", "_specs", "_text")

    def __init__(self, terms=()):
        coeffs: dict = {}
        bodies: dict = {}
        for coeff, body in terms:
            if not isinstance(coeff, (int, Fraction)):
                raise TypeError(f"coefficients are ints or Fractions, got {type(coeff).__name__}")
            key = _body_key(body)
            bodies[key] = body
            _add_term(coeffs, key, coeff)
        _set_terms(self, tuple((coeffs[key], bodies[key]) for key in sorted(coeffs)))
        _set_specs(self, None)
        _set_text(self, None)

    @classmethod
    def single(cls, body, coeff=1) -> "FormalSum":
        """coeff * body as one canonical term, and the empty sum for a zero
        coeff; the body and coeff are checked as __init__ checks them."""
        return cls(((coeff, body),))

    @classmethod
    def _canonical(cls, terms, text: str | None = None) -> "FormalSum":
        """A FormalSum of terms that are already canonical: in `_body_key`
        order, merged and nonzero.  For producers that emit them so; it
        skips the keying and the sort.  text, if given, is the sum's
        `render_formal_sum` text."""
        fs = object.__new__(cls)
        _set_terms(fs, tuple(terms))
        _set_specs(fs, None)
        _set_text(fs, text)
        return fs

    def __setattr__(self, name, value):
        raise AttributeError("FormalSum is immutable")

    def __reduce__(self):
        return FormalSum._canonical, (self.terms,)

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return FormalSum(self.terms + other.terms) if isinstance(other, FormalSum) else NotImplemented

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + (-other) if isinstance(other, FormalSum) else NotImplemented

    def __neg__(self) -> "FormalSum":
        return FormalSum((-c, b) for c, b in self.terms)

    def __eq__(self, other):
        return isinstance(other, FormalSum) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"FormalSum({render_formal_sum(self)})"


# __init__ and _canonical bind the slots through their own descriptors,
# past the __setattr__ that refuses assignment, and so do the first
# evaluation that resolves a sum's bodies and the first render
_set_terms = FormalSum.terms.__set__
_set_specs = FormalSum._specs.__set__
_set_text = FormalSum._text.__set__


def _render_body(body) -> str:
    if isinstance(body, LambdaSpec):
        return format_spec(body)
    if isinstance(body, tuple):
        return "W[" + ",".join(map(str, body)) + "]"
    return "*".join(map(format_spec, body.factors)) or "1"  # a SpecProduct


def _lead(c) -> str:
    """The text that leads a term of coefficient c in a sum: its sign
    between spaces, then its magnitude and "*" unless that is 1."""
    x = str(c)  # an int's or a Fraction's text leads with its sign
    if x[0] == "-":
        return " - " if x == "-1" else f" - {x[1:]}*"
    return " + " if x == "1" else f" + {x}*"


class _Leads(dict):
    """int coefficient -> its `_lead`, made on first use (a Fraction would
    hash in Python, slower than `_lead` itself)."""

    __slots__ = ()

    def __missing__(self, c):
        lead = self[c] = _lead(c)
        return lead


def _join_terms(parts) -> str:
    """The text of a sum from its terms' texts, each led by its `_lead`:
    "0" for none, and the first sign only if it is "-"."""
    text = "".join(parts)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def render_formal_sum(fs: FormalSum) -> str:
    """The sum's text, built once and kept on it."""
    text = fs._text
    if text is None:
        text = _join_terms([_lead(c) + _render_body(body) for c, body in fs.terms])
        _set_text(fs, text)
    return text


def _body_specs(body) -> tuple:
    """The specs whose product is body, as `FormalSum` keeps them."""
    if isinstance(body, LambdaSpec):
        return (body,)
    if isinstance(body, tuple):  # a word
        return (word_to_lambda(body),)
    return body.factors


def evaluate_formal_sum(fs: FormalSum, prec: Precision) -> BigReal:
    """Numeric value sum(coeff * value(body)) in term order, by one
    `precision.linear_combination` over the bodies' products of values, so
    it skips the operations whose result is exactly an operand: a product
    starts from its first factor, the empty product is 1, and a sum of the
    one term 1 * spec is the spec's value itself.

    The bodies' specs come from the sum's ``_specs``, resolved whole on the
    first evaluation (a divergent word raises before any is kept), so a
    warm evaluation costs its `evaluate_lambda` lookups and its arithmetic."""
    specs = fs._specs
    if specs is None:
        specs = tuple(_body_specs(body) for _, body in fs.terms)
        _set_specs(fs, specs)
    terms = []
    for (coeff, _), factors in zip(fs.terms, specs):
        if len(factors) == 1:  # a lone factor is passed as its value
            terms.append((coeff, evaluate_lambda(factors[0], prec)))
        else:
            terms.append((coeff, [evaluate_lambda(f, prec) for f in factors]))
    return linear_combination(terms, prec)


# ---------------------------------------------------------------------------
# Stuffle algebra
# ---------------------------------------------------------------------------


def _shared_prefix(held: list, t) -> int:
    """The length n of the prefix that t shares with the string last in
    held = [last, rows], where rows[i] depends on last[:i] alone: it keeps
    rows[:n + 1], which hold for t too, and makes t the last string.  The
    caller computes the rows past n."""
    last, rows = held
    n = 0
    while n < min(len(t), len(last)) and t[n] == last[n]:
        n += 1
    del rows[n + 1:]
    held[0] = t
    return n


def _stuffle_counts(s: tuple, t: tuple, bases=None, radix=None, memo=None) -> dict:
    """The interleave/merge paths of the exponent strings s and t, counted:
    a dict from each distinct letter string to its number of paths.

    A path consumes, at each step, the next letter of s, the next of t, or
    both at once, merged into the sum of their exponents.  The step into
    the (i, j) state (i letters of s and j of t consumed) emits the letter
    e, its exponent, or, when bases is the pair (a, b) of base strings of s
    and t, the letter (e, A[i] * B[j]), A and B being a and b behind a
    leading 1 (the empty product).  A path ends in the last letter of s,
    of t, or of both merged, so the paths of a state are those of its one
    to three predecessors, each extended by its step's letter.  A state
    maps every distinct prefix to its multiplicity, so paths that agree so
    far are merged at once.

    A prefix is kept as its code, the base-radix int of its letters' codes,
    each in 1..radix-1, so a step is one multiply-add.  Without bases an
    exponent is its own code: radix, which the caller passes, exceeds every
    exponent a merge makes, the result is keyed by the codes, and a zeta
    string's code is its `_Reversals` rank of that radix.  With bases a
    letter's code is its place in a table of the letters met, and the
    result is keyed by the letter strings, decoded.

    A state is keyed by the prefixes s[:i] and t[:j].  Without bases
    stuffling commutes, so the two are in sorted order, and ``memo``, a
    dict that a caller keeps over its calls with one radix and no bases,
    holds the states, so calls that share prefixes compute them once.  The
    dicts returned are then the memo's: read them, do not change them.
    """
    if bases is None:
        code = None  # an exponent is its own code
    else:
        aa, bb = (1,) + tuple(bases[0]), (1,) + tuple(bases[1])
        table: dict = {}  # letter -> its code, from 1 in the order met
        radix = 3 * (len(s) + 1) * (len(t) + 1) + 1  # more than the letters a DP meets
        memo = None  # the letters depend on the bases

        def code(e, i, j):
            return table.setdefault((e, aa[i] * bb[j]), len(table) + 1)

    if memo is None:
        memo = {}

    def paths(x: tuple, y: tuple) -> dict:
        if code is None and x > y:
            x, y = y, x
        counts = memo.get((x, y))
        if counts is None:
            i, j = len(x), len(y)
            steps = []  # (the predecessor's paths, the step's exponent)
            if i:
                steps.append((paths(x[:-1], y), x[-1]))
            if i and j:
                steps.append((paths(x[:-1], y[:-1]), x[-1] + y[-1]))
            if j:
                steps.append((paths(x, y[:-1]), y[-1]))
            counts = {}
            get = counts.get
            for heads, e in steps:
                letter = e if code is None else code(e, i, j)
                for head, c in heads.items():
                    key = head * radix + letter
                    counts[key] = get(key, 0) + c
            memo[x, y] = counts = counts or {0: 1}  # no letters: the empty prefix
        return counts

    counts = paths(s, t)
    if code is None:
        return counts
    letters = [None, *table]
    out = {}
    for key, c in counts.items():
        string = []
        while key:
            key, x = divmod(key, radix)
            string.append(letters[x])
        out[tuple(reversed(string))] = c
    return out


def stuffle_identity(u: LambdaSpec, v: LambdaSpec) -> FormalSum:
    """lambda(u) * lambda(v) as a sum over the interleave/merge set: each
    distinct spec once, with its number of paths as coefficient."""
    counts = _stuffle_counts(u.exponents, v.exponents, (u.bases, v.bases))
    return FormalSum((n, LambdaSpec(letters)) for letters, n in counts.items())


def rational_stuffle_check(a, b) -> bool:
    """Exact rational check of the product rule for f(g) = prod 1/(g_j - 1).

    With zero exponent strings the nested sums collapse to these rational
    products, so f(a) f(b) must equal the sum of f over the combination
    set.  The set is counted by `_stuffle_counts` on the (exponent, base)
    letters `stuffle_identity` counts, so the rule is an exact oracle for
    that DP.
    """
    a = tuple(map(rational, a))
    b = tuple(map(rational, b))
    if any(x == 1 for x in a + b):
        raise DomainError("entries equal to 1 pole the rational check")

    def f(vals):
        out = Fraction(1)
        for g in vals:
            if g == 1:
                raise DomainError(f"merged base {g} poles the rational check")
            out /= g - 1
        return out

    counts = _stuffle_counts((0,) * len(a), (0,) * len(b), (a, b))
    total = sum((n * f(c for _, c in letters) for letters, n in counts.items()), Fraction(0))
    return f(a) * f(b) == total


# ---------------------------------------------------------------------------
# Shuffle algebra
# ---------------------------------------------------------------------------


def _shuffle_counts(c1: tuple, c2: tuple, k: int, memo=None) -> dict:
    """The interleavings of two strings of letter codes 0..k-1, counted: a
    dict from each distinct word's code to its multiplicity.

    A word's code is the base-k int of its letter codes behind a leading
    digit 1, so words of equal length compare as ints in the order of their
    code strings.  An interleaving of c1 and c2 ends in the last letter of
    one of them, so the words are those of c1 less its last letter with
    c2, and of c1 with c2 less its last letter, each extended by that
    letter.  Each pair of prefixes is one state, mapping every distinct
    word to its multiplicity, so the work follows the distinct prefixes,
    not the C(len(c1) + len(c2), len(c1)) interleavings.  Shuffling
    commutes, so a state is keyed by its prefixes in sorted order, and
    ``memo``, a dict that a caller keeps over its calls, holds the states,
    so calls that share prefixes compute them once.  The dicts returned
    are the memo's: read them, do not change them.
    """
    if memo is None:
        memo = {}
    if c1 > c2:
        c1, c2 = c2, c1
    counts = memo.get((c1, c2))
    if counts is None:
        counts = {}
        if c1:
            a = c1[-1]
            counts = {head * k + a: c for head, c in _shuffle_counts(c1[:-1], c2, k, memo).items()}
        if c2:
            b, get = c2[-1], counts.get
            for head, c in _shuffle_counts(c1, c2[:-1], k, memo).items():
                key = head * k + b
                counts[key] = get(key, 0) + c
        memo[c1, c2] = counts or {1: 1}  # two empty strings: the empty word
    return memo[c1, c2]


def shuffle_words(w1, w2) -> FormalSum:
    """All order-preserving interleavings of two words, with multiplicity.

    The distinct letters are coded 0..k-1 in (numerator, denominator) order,
    the order `_body_key` compares them in, and `_shuffle_counts` counts the
    words by their base-k codes.  All words have one length, so the sorted
    codes are the canonical term order: each distinct word is built once
    and emitted in place, with no keying or sort.
    """
    w1 = make_word(w1)
    w2 = make_word(w2)
    letters = sorted(set(w1 + w2), key=lambda a: (a.numerator, a.denominator))
    k = len(letters)
    code = {a: n for n, a in enumerate(letters)}
    counts = _shuffle_counts(tuple(code[a] for a in w1), tuple(code[a] for a in w2), k)
    length = len(w1) + len(w2)
    terms = []
    for word in sorted(counts):
        rest, digits = word, []
        for _ in range(length):
            rest, digit = divmod(rest, k)
            digits.append(letters[digit])
        terms.append((counts[word], tuple(reversed(digits))))
    return FormalSum._canonical(terms)


# ---------------------------------------------------------------------------
# Reversal reduction
# ---------------------------------------------------------------------------


class _Reversals:
    """The reversal algebra of one `reversal_reduction` call or of one
    catalog build: the rank code of its zeta strings and its memos.

    A nonempty zeta exponent string enters the algebra as its rank, the
    base-``radix`` int of its exponents.  ``radix`` exceeds every exponent
    of the strings reduced, their weight bound, so no digit is 0: a deeper
    string has the larger rank, and strings of one depth compare as their
    exponents do.  Rank order is therefore `LambdaSpec.key` order on zeta
    specs, and T = "zeta(1)", the string (1,), has rank 1, below every
    convergent string.  ``polys`` maps each string to its T-polynomial
    (`_regularize_string`), ``chains`` each block to its weak chains
    (`_chains`), ``lifts`` each block to its lift (`_lift`), ``specs`` and
    ``texts`` each rank to its zeta spec and that spec's `format_spec`
    text (the catalog fills them first from its spec table, a lone
    reduction as ranks come out) and ``products`` each sorted rank tuple to
    the pair of its `SpecProduct` and that product's `render_formal_sum`
    text, so within one algebra each spec, each product and each text is
    built once.  ``rows`` holds the string reduced last and the prefix
    DP's rows for it (`_shared_prefix`).
    """

    __slots__ = ("radix", "polys", "chains", "lifts", "specs", "texts", "products", "coefficients", "rows")

    def __init__(self, radix: int):
        self.radix = radix
        self.polys: dict = {}
        self.chains: dict = {}
        self.lifts: dict = {}
        self.specs: dict = {}
        self.texts: dict = {}
        self.products: dict = {}
        self.coefficients: dict = {}
        self.rows: list = [(), [{(): 1}]]

    def rank(self, s: tuple[int, ...]) -> int:
        """The rank of the exponent string s."""
        r = 0
        for e in s:
            r = r * self.radix + e
        return r

    def spec(self, r: int) -> LambdaSpec:
        """The zeta spec of rank r, decoded from its digits on first use,
        with its text."""
        spec = self.specs.get(r)
        if spec is None:
            exponents, rest = [], r
            while rest:
                rest, e = divmod(rest, self.radix)
                exponents.append(e)
            spec = self.specs[r] = zeta_spec(*reversed(exponents))
            self.texts[r] = format_spec(spec)
        return spec

    def product(self, ranks: tuple[int, ...]) -> tuple["SpecProduct", str]:
        """The product of the specs of sorted ranks and its text, built on
        first use."""
        got = self.products.get(ranks)
        if got is None:
            factors = tuple(map(self.spec, ranks))
            text = "*".join(map(self.texts.__getitem__, ranks)) or "1"
            got = self.products[ranks] = SpecProduct._sorted(factors), text
        return got


def _t_accumulate(out: dict, p: dict, factor) -> None:
    """out += factor * p for T-polynomials."""
    for key, c in p.items():
        _add_term(out, key, factor * c)


def _t_mul(out: dict, p: dict, q: dict, factor: int) -> None:
    """out += factor * p * q for T-polynomials: the rank tuples merge.  A
    sum that reaches 0 keeps its key; the caller drops those at the end."""
    get = out.get
    for f1, c1 in p.items():
        c1 *= factor
        for f2, c2 in q.items():
            # most products put one tuple wholly before the other
            if not f1 or f1[-1] <= f2[0]:
                key = f1 + f2
            elif f2[-1] <= f1[0]:
                key = f2 + f1
            else:
                key = tuple(sorted(f1 + f2))
            out[key] = get(key, 0) + c1 * c2


def _leading_ones(s: tuple[int, ...]) -> int:
    """L(s), the number of leading 1s of s."""
    n = 0
    while n < len(s) and s[n] == 1:
        n += 1
    return n


def _regularize_string(s: tuple[int, ...], alg: _Reversals) -> dict:
    """L(s)! times the zeta string s (possibly with leading 1s) as a
    polynomial in the formal divergent symbol T = "zeta(1)", with convergent
    coefficients; L(s) is the number of leading 1s of s.

    The polynomial is a dict mapping the sorted tuple of the ranks of a
    product's factors, T's rank 1 once per power of T, to the int
    coefficient of that product; zero coefficients are never stored.
    Results are kept in ``alg.polys``, keyed by s, for the life of the
    algebra: one reduction or one catalog build.

    Uses the exact product expansion of T with the tail string w = s[1:]:
    inserting the 1 at any slot or merging it into an entry.  Insertions
    into the leading run of 1s reproduce s itself, giving it multiplicity
    L(w) + 1 = L(s) on the left, so L(s) reg(s) = T reg(w) - sum reg(x)
    over the other insertions and the merges x.  Every such x has fewer
    leading 1s than s or is shorter, so the recursion terminates; a merge
    at index i < L(w) leaves i leading 1s and every other x keeps L(w).
    With L(x) <= L(s) - 1, multiplying by (L(s) - 1)! gives
    L(s)! reg(s) = T L(w)! reg(w) - sum (L(s) - 1)! / L(x)! * L(x)! reg(x),
    an int combination of int polynomials.  The expansion holds for every
    common truncation of the underlying sums, so substituting the results
    back preserves exact identities.
    """
    out = alg.polys.get(s)
    if out is not None:
        return out
    if not s or s[0] != 1:
        out = alg.polys[s] = {(alg.rank(s),) if s else (): 1}
        return out
    w = s[1:]
    lead = _leading_ones(w)
    # T's rank 1 is the least, so it goes in front of each sorted tuple
    out = {(1,) + ranks: c for ranks, c in _regularize_string(w, alg).items()}
    for i in range(lead + 1, len(w) + 1):
        _t_accumulate(out, _regularize_string(w[:i] + (1,) + w[i:], alg), -1)
    for i in range(len(w)):
        merged = w[:i] + (w[i] + 1,) + w[i + 1:]
        scale = perm(lead, lead - i) if i < lead else 1  # lead! / L(merged)!
        _t_accumulate(out, _regularize_string(merged, alg), -scale)
    alg.polys[s] = out
    return out


def _chains(block: tuple[int, ...], alg: _Reversals) -> tuple[list, list]:
    """block's weak chains, one per way to merge adjacent exponents, as
    (ranks, ones): the ranks of the chains that open with an exponent >= 2,
    and the chains that open with a 1 as strings; kept in ``alg.chains``.

    They are built from the chains of the tail block[1:]: each tail chain
    takes e = block[0] as a new last entry or merged into its last one, a
    rank r becoming r * radix + e or r + e.  Only the merge into the lone
    chain (1,) changes a first entry, so that is the one way a chain that
    opens with a 1 becomes a rank.  Distinct cuts of a block have distinct
    partial sums, so no two chains coincide."""
    got = alg.chains.get(block)
    if got is None:
        e = block[0]
        if len(block) == 1:
            got = ([], [block]) if e == 1 else ([e], [])
        else:
            ranks, ones = _chains(block[1:], alg)
            got = ([x for r in ranks for x in (r * alg.radix + e, r + e)], [])
            for chain in ones:
                got[1].append(chain + (e,))
                if len(chain) > 1:
                    got[1].append(chain[:-1] + (chain[-1] + e,))
                else:
                    got[0].append(1 + e)
        alg.chains[block] = got
    return got


def _lift(block: tuple[int, ...], alg: _Reversals) -> dict:
    """len(block)! times the T-polynomial of block's weak-chain expansion,
    kept in ``alg.lifts``: a chain that opens with an exponent >= 2 is its
    own monomial, and one with L leading 1s adds len(block)! / L! times its
    `_regularize_string` polynomial (L <= len(block))."""
    lifted = alg.lifts.get(block)
    if lifted is None:
        n = factorial(len(block))
        ranks, ones = _chains(block, alg)
        lifted = {(r,): n for r in ranks}
        for chain in ones:
            _t_accumulate(lifted, _regularize_string(chain, alg), n // factorial(_leading_ones(chain)))
        alg.lifts[block] = lifted
    return lifted


def _reversal_reduction(s, alg: _Reversals) -> FormalSum:
    """`reversal_reduction` of a checked exponent string s in the algebra
    alg, whose radix exceeds the weight of s.

    The inclusion-exclusion runs over the cuts of s into consecutive blocks
    (the maximal runs of constrained indices), a cut into b blocks signed
    (-1)^(k - b), k = len(s), and a prefix DP on the last block sums it:
    g[i] = sum_j C(i, j) (-1)^(i - j - 1) g[j] lift(s[j:i]), g[0] = 1, is
    i! times the sum for s[:i], since the binomial turns j! and (i - j)!,
    the scales of g[j] and of the lift, into i!.  That is O(k^2) products
    instead of one per each of the 2^(k - 1) cuts.  The one-block term, the
    fully constrained chain, holds the reversed string, which moves to the
    left-hand side.  The algebra runs on ints and divides by k! once, when
    the degree-0 part becomes a FormalSum: its rank tuples sorted by
    (count, ranks) are the canonical order of its products.
    """
    k = len(s)
    scale = factorial(k)
    # g[i] depends on s[:i] alone: keep the rows of the prefix that s shares
    # with the string reduced last
    common, g = _shared_prefix(alg.rows, s), alg.rows[1]
    for i in range(common + 1, k + 1):
        gi: dict = {}
        for j in range(i):
            c = comb(i, j)
            _t_mul(gi, g[j], _lift(s[j:i], alg), c if (i - j) % 2 else -c)
        g.append({ranks: c for ranks, c in gi.items() if c})
    total = dict(g[k])
    # the reversed string starts with s[-1] >= 2, so its own scale is 0! = 1
    _t_accumulate(total, _regularize_string(s[::-1], alg), -scale if k % 2 else scale)
    order = sorted(total)
    # T's rank 1 is the least, so a surviving power of T leads the first tuple
    if order and order[0][:1] == (1,):  # an explicit raise, so that python -O keeps the check
        bad = {ranks: total[ranks] for ranks in order if ranks[:1] == (1,)}
        raise AssertionError(f"divergent degrees failed to cancel: {bad}")
    terms, parts = [], []
    # c -> (c / scale, its `_lead`), over the reductions of this length
    coefficients = alg.coefficients.setdefault(scale, {})
    for ranks in sorted(order, key=len):  # by (count, ranks)
        c = total[ranks]
        coeff = coefficients.get(c)
        if coeff is None:
            q, r = divmod(c, scale)
            value = Fraction(c, scale) if r else q
            coeff = coefficients[c] = (value, _lead(value))
        product, text = alg.products.get(ranks) or alg.product(ranks)
        terms.append((coeff[0], product))
        parts.append(coeff[1] + text)
    return FormalSum._canonical(terms, _join_terms(parts))


def reversal_reduction(s) -> FormalSum:
    """zeta(s) + (-1)^depth zeta(reversed s) as products of lower-depth MZVs.

    Built from inclusion-exclusion over the adjacent order constraints:
    each constraint subset contributes a signed product of weakly increasing
    chain sums over its maximal runs, and the full-constraint term is the
    reversed string plus merged lower-depth chains.  Interior exponent-1
    entries make individual pieces divergent; those are eliminated exactly
    through the T-polynomial rewriting of ``_regularize_string``, and the
    divergent degrees provably cancel (a leftover raises AssertionError,
    under python -O too).  The algebra runs on plain dicts of ints, scaled
    by depth!; only the degree-0 result is divided and becomes a FormalSum.
    Each call makes its own algebra.
    """
    s = int_tuple(s)
    if not s or s[0] < 2 or s[-1] < 2:
        raise DivergenceError(
            "reversal reduction needs first and last exponents >= 2"
        )
    return _reversal_reduction(s, _Reversals(sum(s) + 1))


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def delta_negative_exact(n: int) -> int:
    """delta(-n) = sum k^n / 2^k: integers satisfying the button-combination
    recurrence d(n) = 1 + sum_j C(n, j) d(j)."""
    if n < 0:
        raise DomainError("index must be nonnegative")
    vals = [1]
    for m in range(1, n + 1):
        vals.append(1 + sum(comb(m, j) * vals[j] for j in range(m)))
    return vals[n]


def zagier(n: int, prec: Precision) -> BigReal:
    """zeta({3,1}^n) = 2 pi^(4n) / (4n+2)!."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    num = 2 * pi(prec) ** (4 * n)
    return num * Fraction(1, factorial(4 * n + 2))


def z213(n: int, prec: Precision) -> BigReal:
    """zeta(2, {1,3}^n) in terms of pi powers and depth-1 zetas."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    terms = []
    for k in range(n + 1):
        acc = evaluate_lambda(zeta_spec(4 * k + 2), prec) * (4 * k + 1)
        for j in range(1, k + 1):
            left = evaluate_lambda(zeta_spec(4 * j - 1), prec)
            acc = acc - left * evaluate_lambda(zeta_spec(4 * k - 4 * j + 3), prec) * 4
        fours = zagier(n - k, prec) * Fraction(4 ** (n - k))  # zeta({4}^(n-k))
        terms.append(((-1) ** k, (fours, acc)))
    return linear_combination(terms, prec) * Fraction(1, 4 ** n)


def mu_power(p, n: int, prec: Precision) -> BigReal:
    """mu({p}^n) = (log q)^n / n! with 1/p + 1/q = 1."""
    p = rational(p)
    if n < 0:
        raise DomainError("n must be nonnegative")
    if not (p > 1 or p <= -1):
        raise DomainError("requires p > 1 or p <= -1")
    q = p / (p - 1)
    return ln(q, prec) ** n * Fraction(1, factorial(n))


def t5(m: int, n: int, prec: Precision) -> BigReal:
    """mu({-1}^m, 1, {-1}^n) from A(r) = Li_r(1/2), P(r) = (ln 2)^r / r! and
    Z(r) = (-1)^r zeta(r); n = 0 is the paper's T4."""
    if m < 1 or n < 0:
        raise DomainError("needs m >= 1 and n >= 0")
    a_terms, z_terms = [], []
    for k in range(m + 1):
        a = evaluate_lambda(delta_spec(k + n + 1), prec)
        a_terms.append((comb(n + k, n), (a, mu_power(2, m - k, prec))))
    for k in range(n + 1):
        z = evaluate_lambda(zeta_spec(k + m + 1), prec)
        z_terms.append(((-1) ** (k + m + 1) * comb(m + k, m), (z, mu_power(2, n - k, prec))))
    first, second = linear_combination(a_terms, prec), linear_combination(z_terms, prec)
    return linear_combination([((-1) ** (m + 1), first), ((-1) ** (n + 1), second)], prec)


def li2_half(prec: Precision) -> BigReal:
    p = pi(prec)
    l2 = ln(2, prec)
    return p * p * Fraction(1, 12) - l2 * l2 * Fraction(1, 2)


def delta_12(prec: Precision) -> BigReal:
    a1, a2, a3 = (evaluate_lambda(delta_spec(r), prec) for r in (1, 2, 3))
    return a2 * a1 * Fraction(5, 7) - a3 * Fraction(2, 7) + a1 ** 3 * Fraction(5, 21)


# ---------------------------------------------------------------------------
# Identity catalog / export
# ---------------------------------------------------------------------------


class Identity(NamedTuple):
    tag: str
    lhs: FormalSum
    rhs: FormalSum

    def to_json(self) -> str:
        """One JSON object with the keys lhs, rhs and tag, byte for byte as
        ``json.dumps(..., sort_keys=True)`` writes it: json's own string
        quoting, its default separators, keys in sorted order."""
        lhs, rhs = _quote(render_formal_sum(self.lhs)), _quote(render_formal_sum(self.rhs))
        return f'{{"lhs": {lhs}, "rhs": {rhs}, "tag": {_quote(self.tag)}}}'


def _string_table(max_weight: int) -> list[tuple]:
    """(s, weight, rank, text, letters) for every convergent unsigned MZV
    string s of weight <= max_weight, sorted by s: the compositions with a
    leading part >= 2, walked depth first with the parts ascending, so each
    string follows its prefix and is built from it.  The rank is of radix
    max_weight + 1 (`_Reversals.rank`), text is the exponents joined by
    commas, and letters is the str of the 0/1 letter codes of zeta(s)'s
    word, an exponent e giving e - 1 0s and a 1: 0 for dx/x, 1 for
    dx/(x-1), the codes `shuffle_words` gives the letters 0 and 1."""
    radix, table = max_weight + 1, []
    stack = [((e,), e, e, str(e), "0" * (e - 1) + "1") for e in range(max_weight, 1, -1)]
    while stack:
        table.append(stack.pop())
        s, weight, rank, text, letters = table[-1]
        stack += [
            (s + (e,), weight + e, rank * radix + e, f"{text},{e}", letters + "0" * (e - 1) + "1")
            for e in range(max_weight - weight, 0, -1)
        ]
    return table


# a word's dual reverses its letter codes and swaps 0 and 1, and the bytes
# of a letter-code str translated by _CODES are the codes as ints
_SWAP = str.maketrans("01", "10")
_CODES = bytes.maketrans(b"01", b"\x00\x01")
_LETTERS = {"0": Fraction(0), "1": Fraction(1)}


def identity_catalog(max_weight: int) -> list[Identity]:
    """Deterministic identity corpus up to a weight bound.

    One spec table per build (`_string_table`): every convergent string of
    weight <= max_weight gets one rank in the build's `_Reversals` algebra,
    one zeta spec, one word and the texts of both, and the duality,
    stuffle, shuffle and reversal identities all take their bodies from it,
    so each spec is built, keyed and rendered once, and so is each product,
    through the algebra's product table.  Every body of every identity is
    in the table: products, duals and reversals of these strings are
    convergent strings of no larger weight.  Each side is emitted in
    canonical order, sorted by rank or word code, with its text joined
    from its bodies' texts.  A word's code is the base-2 word code of
    `_shuffle_counts`.
    """
    if max_weight < 3:
        raise ValueError("max_weight must be at least 3")
    identities: list[Identity] = []
    table = _string_table(max_weight)
    strings = [row[0] for row in table]

    alg = _Reversals(max_weight + 1)
    specs, texts = alg.specs, alg.texts
    rank: dict = {}
    letters: dict = {}  # exponent string -> its word's letter codes, a str
    codes: dict = {}  # exponent string -> the same codes, as the bytes of their ints
    coded: dict = {}  # word code -> exponent string
    words: dict = {}  # word code -> word
    word_texts: dict = {}  # word code -> the word's text
    for s, _, r, text, bits in table:
        rank[s] = r
        specs[r] = zeta_spec(*s)
        texts[r] = f"L[{text} | {','.join('1' * len(s))}]"
        letters[s] = bits
        codes[s] = bits.encode().translate(_CODES)
        code = int("1" + bits, 2)
        coded[code] = s
        words[code] = tuple(map(_LETTERS.__getitem__, bits))
        word_texts[code] = f"W[{','.join(bits)}]"

    def one(r) -> FormalSum:
        return FormalSum._canonical(((1, specs[r]),), texts[r])

    leads = _Leads()

    def side(counts: dict, bodies: dict, names: dict) -> FormalSum:
        """The sum of counts[x] bodies[x] in the order of the keys x, its
        text joined from the bodies' texts names[x]."""
        order = sorted(counts)
        return FormalSum._canonical(
            [(counts[x], bodies[x]) for x in order], _join_terms([leads[counts[x]] + names[x] for x in order])
        )

    for s in strings:
        # the `dual_word` dual on the letter codes
        dual = coded[int("1" + letters[s][::-1].translate(_SWAP), 2)]
        if dual > s:  # emit each dual pair once
            identities.append(Identity("duality", one(rank[s]), one(rank[dual])))

    weights = [row[1] for row in table]
    # light[b]: the indices of the strings of weight <= b, ascending
    light = {b: [j for j, w in enumerate(weights) if w <= b] for b in range(max_weight)}
    for i, u in enumerate(strings):
        if i == 0 or u[0] != strings[i - 1][0]:
            # the DPs' states: later left factors, and so their right
            # factors, open with a larger exponent and share few states with
            # these, so starting afresh bounds the memos at little cost
            stuffles: dict = {}
            shuffles: dict = {}
        js = light[max_weight - weights[i]]
        ru, cu = rank[u], codes[u]
        for v in map(strings.__getitem__, js[bisect_left(js, i):]):  # every v >= u
            rv = rank[v]
            product, text = alg.product((ru, rv) if ru <= rv else (rv, ru))
            lhs = FormalSum._canonical(((1, product),), text)
            # keyed by ranks: the radix is the algebra's
            counts = _stuffle_counts(u, v, radix=alg.radix, memo=stuffles)
            identities.append(Identity("stuffle", lhs, side(counts, specs, texts)))
            counts = _shuffle_counts(cu, codes[v], 2, shuffles)
            identities.append(Identity("shuffle", lhs, side(counts, words, word_texts)))

    for s in strings:
        if s[-1] >= 2:  # s[0] >= 2 holds for every convergent string
            counts = {rank[s]: 1}
            _add_term(counts, rank[s[::-1]], (-1) ** len(s))  # a palindrome: 2 zeta(s) or 0
            identities.append(Identity("reversal", side(counts, specs, texts), _reversal_reduction(s, alg)))

    return identities


def export_identities(identities, fh) -> int:
    """Write one JSON line per identity to the open text file fh; returns
    the number written."""
    for ident in identities:
        fh.write(ident.to_json() + "\n")
    return len(identities)
