"""Data model for multiple-polylogarithm specifications and integral words.

A `LambdaSpec` is the nested-sum object lambda(s_1..s_k; b_1..b_k): exponent
string s and exact rational base string b, depth k, weight sum(s).  A `Word`
is its iterated-integral encoding: a tuple of 1-form parameters where 0
stands for the form dx/x and a nonzero value b for dx/(x-b).  Conversions,
convergence checks and duality maps between these encodings live here; all
base arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DivergenceError, UnsupportedSpec

Word = tuple[Fraction, ...]
MzvString = tuple[int, ...]


def _frac(b) -> Fraction:
    f = Fraction(b)
    if f == 0:
        raise ValueError("bases must be nonzero")
    return f


@dataclass(frozen=True)
class LambdaSpec:
    """Exponent/base pairs of a multiple polylogarithm, outermost first."""

    terms: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "terms", tuple((int(s), _frac(b)) for s, b in self.terms)
        )

    @classmethod
    def of(cls, exponents, bases) -> "LambdaSpec":
        exponents = tuple(exponents)
        bases = tuple(bases)
        if len(exponents) != len(bases):
            raise ValueError("exponent and base strings must have equal length")
        return cls(tuple(zip(exponents, bases)))

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.terms)

    @property
    def bases(self) -> tuple[Fraction, ...]:
        return tuple(b for _, b in self.terms)

    @property
    def depth(self) -> int:
        return len(self.terms)

    @property
    def weight(self) -> int:
        return sum(s for s, _ in self.terms)

    def is_convergent(self) -> bool:
        return check_convergence(self)[0]

    def __str__(self):
        return format_spec(self)


EMPTY_SPEC = LambdaSpec(())


def zeta_spec(*exponents: int) -> LambdaSpec:
    """Unsigned MZV: all bases 1."""
    return LambdaSpec.of(exponents, (Fraction(1),) * len(exponents))


def delta_spec(*exponents: int) -> LambdaSpec:
    """All bases 2 (geometrically convergent)."""
    return LambdaSpec.of(exponents, (Fraction(2),) * len(exponents))


def constant_base_spec(base, exponents) -> LambdaSpec:
    exponents = tuple(exponents)
    return LambdaSpec.of(exponents, (Fraction(base),) * len(exponents))


def mu_spec(*bases) -> LambdaSpec:
    """Unit Euler sum: all exponents 1."""
    return LambdaSpec.of((1,) * len(bases), tuple(Fraction(b) for b in bases))


def format_spec(spec: LambdaSpec) -> str:
    """Canonical text form ``L[s1,...,sk | b1,...,bk]``."""
    ss = ",".join(str(s) for s in spec.exponents)
    bs = ",".join(str(b) for b in spec.bases)
    return f"L[{ss} | {bs}]" if spec.depth else "L[]"


def parse_spec(text: str) -> LambdaSpec:
    text = text.strip()
    if not text.startswith("L[") or not text.endswith("]"):
        raise ValueError(f"not a spec literal: {text!r}")
    body = text[2:-1].strip()
    if not body:
        return EMPTY_SPEC
    left, _, right = body.partition("|")
    exponents = [int(tok) for tok in left.split(",")]
    bases = [Fraction(tok.strip()) for tok in right.split(",")]
    return LambdaSpec.of(exponents, bases)


def check_convergence(spec: LambdaSpec) -> tuple[bool, str]:
    """Decide whether the nested sum converges, with a reason on failure.

    Convergent iff all |b_j| >= 1, all s_j >= 1 and (b_1, s_1) != (1, 1);
    or all |b_j| > 1 with arbitrary integer exponents.
    """
    if spec.depth == 0:
        return True, ""
    if all(abs(b) > 1 for b in spec.bases):
        return True, ""
    if any(abs(b) < 1 for b in spec.bases):
        return False, "a base has modulus below 1"
    if any(s < 1 for s in spec.exponents):
        return False, "nonpositive exponent with a base of modulus 1"
    if spec.terms[0] == (1, Fraction(1)):
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
    entries = tuple(int(e) for e in entries)
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
    return tuple(Fraction(v) for v in values)


def word_depth(word: Word) -> int:
    return sum(1 for a in word if a != 0)


def word_convergent(word: Word) -> tuple[bool, str]:
    if not word:
        return True, ""
    if word[-1] == 0:
        return False, "trailing dx/x form diverges at 0"
    if word[0] == 1:
        return False, "leading dx/(x-1) form diverges at 1"
    return True, ""


def lambda_to_word(spec: LambdaSpec) -> Word:
    """Word of length weight with b_j at positions sum(s_1..s_j), 0 elsewhere.

    The lambda value equals (-1)^depth times the word's iterated integral.
    """
    if any(s < 1 for s in spec.exponents):
        raise UnsupportedSpec("words require positive exponents")
    require_convergent(spec)
    out: list[Fraction] = []
    for s, b in spec.terms:
        out.extend([Fraction(0)] * (s - 1))
        out.append(b)
    return tuple(out)


def word_to_lambda(word: Word) -> LambdaSpec:
    """Collect adjacent dx/x forms back into exponents; inverse of lambda_to_word."""
    if word and word[-1] == 0:
        raise DivergenceError("trailing dx/x form cannot be collected (divergent at 0)")
    terms = []
    zeros = 0
    for a in word:
        if a == 0:
            zeros += 1
        else:
            terms.append((zeros + 1, Fraction(a)))
            zeros = 0
    return LambdaSpec(tuple(terms))


def dual_word(word: Word) -> tuple[Word, int]:
    """Reverse the word and replace each form parameter a by 1 - a.

    Returns (dual, sign) with lambda(word) = sign * lambda(dual); the sign is
    (-1)^(weight + depth(word) + depth(dual)).
    """
    ok, reason = word_convergent(word)
    if not ok:
        raise DivergenceError(f"word {word} diverges: {reason}")
    dual = tuple(1 - a for a in reversed(word))
    ok, reason = word_convergent(dual)
    if not ok:
        raise DivergenceError(f"dual word {dual} diverges: {reason}")
    sign = -1 if (len(word) + word_depth(word) + word_depth(dual)) % 2 else 1
    return dual, sign


def mzv_dual_string(entries) -> MzvString:
    """Duality on unsigned MZV argument strings.

    (s_1+2, {1}^r_1, ..., s_m+2, {1}^r_m) maps to
    (r_m+2, {1}^s_m, ..., r_1+2, {1}^s_1); an involution.
    """
    entries = tuple(int(e) for e in entries)
    if any(e < 1 for e in entries):
        raise ValueError("MZV duality requires positive integer arguments")
    if not entries:
        return ()
    if entries[0] < 2:
        raise DivergenceError("MZV string with leading 1 diverges")
    # split into blocks: a head >= 2 followed by its run of 1s
    blocks: list[tuple[int, int]] = []  # (s_i, r_i) with head = s_i + 2
    for e in entries:
        if e >= 2:
            blocks.append((e - 2, 0))
        else:
            s, r = blocks[-1]
            blocks[-1] = (s, r + 1)
    out: list[int] = []
    for s, r in reversed(blocks):
        out.append(r + 2)
        out.extend([1] * s)
    return tuple(out)
