"""Data model for multiple-polylogarithm specifications and integral words.

A `LambdaSpec` is the nested-sum object lambda(s_1..s_k; b_1..b_k): exponent
string s and exact rational base string b, depth k, weight sum(s).  A `Word`
is its iterated-integral encoding: a tuple of 1-form parameters where 0
stands for the form dx/x and a nonzero value b for dx/(x-b).  Conversions
and convergence checks between these encodings live here, and so does
`dual_word`, the package's one duality map: it reverses the path (x -> 1 - x)
and reads the word back.  MZV duality, the evaluator's dual route and the
left halves of `evaluate.holder_split` all go through it.  All base
arithmetic is exact.  Exponents enter through `int_tuple` and bases,
letters and parameters through `rational`, so a float is refused, never
truncated or read as its binary fraction.

Specs are hash-consed: there is one live `LambdaSpec` per ``key``, so equal
specs are one object, and equality and hashing are object identity, which
every memo and dict keyed by specs compares and hashes in C.  The table
that finds a spec by its key holds it weakly, so a spec that nothing else
references leaves it.
"""

from __future__ import annotations

import numbers
import operator
# the builtin core of weakref, which costs no import: weak references and
# the atomic removal that WeakValueDictionary uses
from _weakref import _remove_dead_weakref, ref as _weak_ref
from fractions import Fraction

from .errors import DivergenceError, UnsupportedSpec

Word = tuple[Fraction, ...]


def int_tuple(values) -> tuple[int, ...]:
    """values as a tuple of ints: the one coercion of exponent strings.  A
    float, Fraction or str raises TypeError instead of being truncated."""
    return tuple(map(operator.index, values))


def rational(value) -> Fraction:
    """value as a Fraction: the one coercion of bases, form parameters and
    split parameters.  An int or Fraction keeps its value; a float, str or
    anything else raises TypeError instead of being read as the binary
    fraction it rounds to."""
    if type(value) is Fraction:  # the common cases skip the ABC check
        return value
    if type(value) is int:
        return Fraction(value)
    if not isinstance(value, numbers.Rational):
        raise TypeError(
            f"expected an int or Fraction, got {type(value).__name__} {value!r}"
        )
    return Fraction(value)


class LambdaSpec:
    """Exponent/base pairs of a multiple polylogarithm, outermost first.

    An immutable object with slots: assigning an attribute raises
    AttributeError, and copy and pickle rebuild the spec from ``terms``.
    ``exponents`` and ``bases`` are the two strings as tuples, and ``key``
    is (depth, exponents, (numerator, denominator) of each base), all ints;
    the three are built once with ``terms``.  ``key`` is the spec's one
    identity: every constructor, copy and pickle returns the one live spec
    with its key, found in a table that holds specs weakly, so equal specs
    are the same object and equality and hashing are the object's own.
    `identities` sorts by ``key`` and the evaluator's compile memo is keyed
    by its parts.
    """

    __slots__ = ("terms", "exponents", "bases", "key", "__weakref__")

    def __new__(cls, terms):
        exponents = int_tuple([s for s, _ in terms])
        # a Fraction skips the call of `rational`, and the one ratio of a
        # zero Fraction is (0, 1)
        bases = tuple([b if type(b) is Fraction else rational(b) for _, b in terms])
        ratios = tuple([b.as_integer_ratio() for b in bases])
        if (0, 1) in ratios:
            raise ValueError("bases must be nonzero")
        key = (len(bases), exponents, ratios)
        ref = _INTERNED.get(key)
        spec = None if ref is None else ref()
        if spec is None:
            spec = object.__new__(cls)
            _set_terms(spec, tuple(zip(exponents, bases)))
            _set_exponents(spec, exponents)
            _set_bases(spec, bases)
            _set_key(spec, key)
            spec = _intern(spec)
        return spec

    def __setattr__(self, name, value):
        raise AttributeError("LambdaSpec is immutable")

    def __reduce__(self):
        return LambdaSpec, (self.terms,)

    def __repr__(self):
        return f"LambdaSpec(terms={self.terms!r})"

    @classmethod
    def of(cls, exponents, bases) -> "LambdaSpec":
        exponents = tuple(exponents)
        bases = tuple(bases)
        if len(exponents) != len(bases):
            raise ValueError("exponent and base strings must have equal length")
        return cls(tuple(zip(exponents, bases)))

    @property
    def depth(self) -> int:
        return len(self.terms)

    @property
    def weight(self) -> int:
        return sum(self.exponents)

    def is_convergent(self) -> bool:
        return check_convergence(self)[0]

    def __str__(self):
        return format_spec(self)


# __new__ binds the slots through their own descriptors, past the
# __setattr__ that refuses assignment
_set_terms, _set_exponents, _set_bases, _set_key = (
    getattr(LambdaSpec, name).__set__ for name in LambdaSpec.__slots__[:4]
)

# key -> weak reference to the one live spec with that key
_INTERNED: dict = {}


def _intern(spec: LambdaSpec) -> LambdaSpec:
    """The one live spec with spec's key: spec itself, unless another thread
    entered an equal spec first.

    ``dict.setdefault`` and ``_remove_dead_weakref`` are each one atomic
    step, so two threads that build one key get one object; an entry is
    dropped only while its reference is dead, by the dying spec's callback
    or by a builder that found it, never while it holds a live spec.
    """
    key = spec.key
    ref = _weak_ref(spec, lambda _, key=key: _remove_dead_weakref(_INTERNED, key))
    while (held := _INTERNED.setdefault(key, ref)) is not ref:
        live = held()
        if live is not None:
            return live
        _remove_dead_weakref(_INTERNED, key)
    return spec


EMPTY_SPEC = LambdaSpec(())


_ZERO, _ONE = Fraction(0), Fraction(1)


def zeta_spec(*exponents: int) -> LambdaSpec:
    """Unsigned MZV: all bases 1."""
    return LambdaSpec(tuple(zip(exponents, (_ONE,) * len(exponents))))


def delta_spec(*exponents: int) -> LambdaSpec:
    """All bases 2 (geometrically convergent)."""
    return LambdaSpec.of(exponents, (Fraction(2),) * len(exponents))


def constant_base_spec(base, exponents) -> LambdaSpec:
    exponents = tuple(exponents)
    return LambdaSpec.of(exponents, (base,) * len(exponents))


def mu_spec(*bases) -> LambdaSpec:
    """Unit Euler sum: all exponents 1."""
    return LambdaSpec.of((1,) * len(bases), bases)


def format_spec(spec: LambdaSpec) -> str:
    """Canonical text form ``L[s1,...,sk | b1,...,bk]``."""
    if not spec.depth:
        return "L[]"
    return f"L[{','.join(map(str, spec.exponents))} | {','.join(map(str, spec.bases))}]"


def parse_spec(text: str) -> LambdaSpec:
    text = text.strip()
    if not text.startswith("L[") or not text.endswith("]"):
        raise ValueError(f"not a spec literal: {text!r}")
    body = text[2:-1].strip()
    if not body:
        return EMPTY_SPEC
    left, _, right = body.partition("|")
    exponents = [int(tok) for tok in left.split(",")]
    bases = [_base_literal(tok.strip()) for tok in right.split(",")]
    return LambdaSpec.of(exponents, bases)


def _base_literal(tok: str) -> Fraction:
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        raise ValueError(f"denominator must be nonzero in base {tok!r}") from None


def check_convergence(spec: LambdaSpec) -> tuple[bool, str]:
    """Decide whether the nested sum converges, with a reason on failure.

    Convergent iff all |b_j| >= 1, all s_j >= 1 and (b_1, s_1) != (1, 1);
    or all |b_j| > 1 with arbitrary integer exponents.
    """
    # on the key's (numerator, denominator) pairs: |b| > 1 is |num| > den
    _, exponents, ratios = spec.key
    if all(abs(n) > d for n, d in ratios):
        return True, ""
    if any(abs(n) < d for n, d in ratios):
        return False, "a base has modulus below 1"
    if min(exponents) < 1:
        return False, "nonpositive exponent with a base of modulus 1"
    if exponents[0] == 1 and ratios[0] == (1, 1):
        return False, "leading term (s, b) = (1, 1) diverges like the harmonic series"
    return True, ""


def require_convergent(spec: LambdaSpec) -> None:
    ok, reason = check_convergence(spec)
    if not ok:
        raise DivergenceError(f"{format_spec(spec)} diverges: {reason}")


# ---------------------------------------------------------------------------
# z-notation (signed exponent strings)
# ---------------------------------------------------------------------------

def lambda_from_z_string(entries) -> LambdaSpec:
    """Signed exponent string -> LambdaSpec.

    Entry signs are per-index alternation markers sigma_j (the summand
    carries sigma_j^(-n_j)), so the lambda bases are the running products
    b_j = sigma_1 * ... * sigma_j.
    """
    entries = int_tuple(entries)
    if any(e == 0 for e in entries):
        raise ValueError("z arguments must be nonzero integers")
    if entries and entries[0] == 1:
        raise DivergenceError(
            f"z({', '.join(map(str, entries))}) diverges: "
            f"leading argument {entries[0]} is an unsigned 1"
        )
    bases = []
    running = 1
    for e in entries:
        running *= 1 if e > 0 else -1
        bases.append(Fraction(running))
    return LambdaSpec.of(tuple(abs(e) for e in entries), tuple(bases))


# ---------------------------------------------------------------------------
# Words (iterated-integral encoding)
# ---------------------------------------------------------------------------

def make_word(values) -> Word:
    return tuple(map(rational, values))


def word_depth(word: Word) -> int:
    return sum(1 for a in word if a != 0)


def word_convergent(word: Word) -> tuple[bool, str]:
    # on the letters' (numerator, denominator) pairs
    ratios = [a.as_integer_ratio() for a in word]
    if not ratios:
        return True, ""
    if ratios[-1][0] == 0:
        return False, "trailing dx/x form diverges at 0"
    if ratios[0] == (1, 1):
        return False, "leading dx/(x-1) form diverges at 1"
    if any(0 < n < d for n, d in ratios):
        return False, "a letter in (0, 1) puts the pole of dx/(x-a) inside the path"
    return True, ""


def lambda_to_word(spec: LambdaSpec) -> Word:
    """Word of length weight with b_j at positions sum(s_1..s_j), 0 elsewhere.

    The lambda value equals (-1)^depth times the word's iterated integral.
    """
    if spec.depth and min(spec.exponents) < 1:
        raise UnsupportedSpec("words require positive exponents")
    require_convergent(spec)
    out: list[Fraction] = []
    for s, b in spec.terms:
        out += [_ZERO] * (s - 1)
        out.append(b)
    return tuple(out)


def word_to_lambda(word: Word) -> LambdaSpec:
    """Collect adjacent dx/x forms back into exponents; inverse of lambda_to_word."""
    if word and word[-1] == 0:
        raise DivergenceError("trailing dx/x form cannot be collected (divergent at 0)")
    terms = []
    zeros = 0
    for a in word:
        if a:
            terms.append((zeros + 1, a))
            zeros = 0
        else:
            zeros += 1
    return LambdaSpec(tuple(terms))


# 1 - a for the letters of +-1 words, by (numerator, denominator); any other
# letter's complement is made from its pair
_COMPLEMENTS = {(0, 1): _ONE, (1, 1): _ZERO, (-1, 1): Fraction(2)}


def dual_word(word: Word) -> tuple[Word, int]:
    """Reverse the word and replace each form parameter a by 1 - a.

    Returns (dual, sign) with lambda(word) = sign * lambda(dual); the sign is
    (-1)^(weight + depth(word) + depth(dual)).
    """
    word = make_word(word)
    ok, reason = word_convergent(word)
    if not ok:
        raise DivergenceError(f"word {word} diverges: {reason}")
    # the dual converges too: dual[-1] = 1 - word[0] != 0, dual[0] =
    # 1 - word[-1] != 1, and 1 - a lies in (0, 1) exactly when a does.  A
    # letter n/d has the complement (d - n)/d, in lowest terms as n/d is
    ratios = list(map(Fraction.as_integer_ratio, word))
    dual = tuple([
        _COMPLEMENTS[r] if r in _COMPLEMENTS else Fraction(r[1] - r[0], r[1])
        for r in reversed(ratios)
    ])
    # a letter a adds 1 + [a != 0] + [1 - a != 0] to weight + depth(word) +
    # depth(dual), an odd count just when a is neither 0 nor 1
    sign = -1 if sum(0 != n != d for n, d in ratios) % 2 else 1
    return dual, sign

