"""lindep returns the same result, bit for bit, as it did when these digests
were taken: the coefficients, the raw bits of the residual and the exact
float of the exclusion bound, on the benchmark's planted references, its
relation-free references up to n = 8, and seeded vectors at 30-40 digits,
where no lift runs and the final pass alone decides.  The digest has a
semantic twin: every planted vector gets back a relation that holds exactly
over Q, and every relation-free one gets none, which holds also for a change
that moves bits on purpose."""

import functools
import hashlib
import json
import os
import random
from fractions import Fraction
from math import gcd

from polyzeta import BigReal, Precision, lindep

from conftest import libmp_raw

REFS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "refs")
RESULTS_SHA256 = "ce31f6a543d86c8d278807bbc5ff4be06cd521fcc0c16ca6366b037286b2a639"


def sha256_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def reference_vector(entry):
    """The exact rationals of a relation_hunt reference entry, drawn as the
    benchmark draws them: ``digits + 30`` decimals, and with a planted
    relation the last entry solved from it; (xs, digits, planted)."""
    rng = random.Random(entry["gen_seed"])
    den = 10 ** (entry["digits"] + 30)
    xs = [Fraction(rng.randrange(den // 10, den), den) * rng.choice((1, -1))
          for _ in range(entry["dim"])]
    if entry["kind"] == "planted":
        while True:
            coeffs = [rng.randint(-9, 9) for _ in xs]
            g = 0
            for c in coeffs:
                g = gcd(g, c)
            if coeffs[-1] and g == 1:
                break
        xs[-1] = -sum(c * x for c, x in zip(coeffs[:-1], xs[:-1])) / coeffs[-1]
    digest = sha256_lines(f"{x.numerator}/{x.denominator}" for x in xs)[:16]
    assert digest == entry["digest"], f"{entry['cell']} no longer regenerates"
    return xs, entry["digits"], entry["kind"] == "planted"


def reference_vectors():
    with open(os.path.join(REFS, "relation_hunt.json"), encoding="utf-8") as fh:
        entries = json.load(fh)["entries"]
    return [
        reference_vector(e)
        for e in entries
        if e["kind"] == "planted" or e["dim"] <= 8
    ]


def low_digit_vectors():
    """24 seeded vectors at 30, 35 and 40 digits, n = 4..8, half of them
    with a planted relation of coefficients in [-9, 9]; (xs, digits,
    planted) each."""
    rng = random.Random(5500)
    out = []
    for i in range(24):
        digits = (30, 35, 40)[i % 3]
        n = rng.randint(4, 8)
        den = 10 ** (digits + 30)
        xs = [Fraction(rng.randrange(den // 10, den), den) for _ in range(n)]
        if i % 2:
            coeffs = [rng.randint(-9, 9) for _ in range(n - 1)]
            xs[-1] = sum(c * x for c, x in zip(coeffs, xs)) / rng.randint(1, 9)
        out.append((xs, digits, bool(i % 2)))
    return out


@functools.cache
def corpus_results():
    """(xs, planted, lindep result) for every vector of the corpus, run once
    for both the digest and its semantic twin."""
    corpus = reference_vectors() + low_digit_vectors()
    return [
        (xs, planted, lindep([BigReal(x, Precision(digits)) for x in xs]))
        for xs, digits, planted in corpus
    ]


def result_line(result) -> str:
    bound = result.exclusion_bound
    return (
        f"{result.coefficients} {libmp_raw(result.residual)} "
        f"{bound.hex() if bound is not None else None}"
    )


def test_lindep_results_keep_every_bit():
    results = [result for _, _, result in corpus_results()]
    assert len(results) == 80 + 36 + 24
    low = results[-24:]
    assert any(r.found for r in low) and not all(r.found for r in low)
    assert sha256_lines(result_line(r) for r in results) == RESULTS_SHA256


def test_lindep_results_keep_the_relation_contract():
    # the digest's semantic twin: each planted vector gets back a relation
    # that holds exactly over Q on the exact inputs, not only to the working
    # precision, and each relation-free vector gets none, whatever the bits
    # of the residual and the bound
    planted = [(xs, r) for xs, p, r in corpus_results() if p]
    free = [r for _, p, r in corpus_results() if not p]
    assert len(planted) == 80 + 12 and len(free) == 36 + 12
    for xs, result in planted:
        assert result.found, xs
        assert sum(c * x for c, x in zip(result.coefficients, xs, strict=True)) == 0, xs
    assert not any(result.found for result in free)
