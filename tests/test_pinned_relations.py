"""lindep returns the same result, bit for bit, as it did when these digests
were taken: the coefficients, the raw bits of the residual and the exact
float of the exclusion bound, on the benchmark's planted references, its
relation-free references up to n = 8, and seeded vectors at 30-40 digits,
where no lift runs and the final pass alone decides."""

import hashlib
import json
import os
import random
from fractions import Fraction
from math import gcd

from polyzeta import BigReal, Precision, lindep

REFS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "refs")
RESULTS_SHA256 = "db940c98bb462420dde13be657969260ed1e73aa708a9df441ad0add1e1dc09c"


def sha256_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def reference_vector(entry):
    """The exact rationals of a relation_hunt reference entry, drawn as the
    benchmark draws them: ``digits + 30`` decimals, and with a planted
    relation the last entry solved from it."""
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
    return xs, entry["digits"]


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
    with a planted relation of coefficients in [-9, 9]."""
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
        out.append((xs, digits))
    return out


def result_line(result) -> str:
    bound = result.exclusion_bound
    return (
        f"{result.coefficients} {result.residual.mpf._mpf_} "
        f"{bound.hex() if bound is not None else None}"
    )


def test_lindep_results_keep_every_bit():
    corpus = reference_vectors() + low_digit_vectors()
    assert len(corpus) == 80 + 36 + 24
    results = [
        lindep([BigReal(x, Precision(digits)) for x in xs]) for xs, digits in corpus
    ]
    low = results[-24:]
    assert any(r.found for r in low) and not all(r.found for r in low)
    assert sha256_lines(result_line(r) for r in results) == RESULTS_SHA256
