"""Generate the benchmark's input pools and reference outputs.

    python3 perfbench/make_refs.py            # rewrite perfbench/refs/*.json

The pools are drawn from fixed generator seeds, so the files are
reproducible; ``run.py --seed`` only selects from them.  Every reference is
computed by a route that shares no arithmetic with the evaluator under test
and is cross-checked against a second route:

* values: a Python-integer fixed-point nested sum (``lambda_fixed``) written
  here, either directly (all |b| >= 3/2) or through the Hoelder split at
  p = 3 for unit-base words.  Cross-checks: polyzeta itself at a larger
  guard (it splits at p = 2 or uses duality), plus ``mpmath.zeta`` /
  ``mpmath.altzeta`` / ``mpmath.polylog`` at depth 1;
* relation vectors: planted coefficients are checked exactly over the
  rationals, and every verdict is cross-checked with ``mpmath.pslq`` within
  lindep's norm cap (see ``_pslq_agrees``);
* identity_session: golden stdout is copied from the README; the catalog
  digest is the byte-stable rendering of ``identity_catalog(8)``.

Takes a few minutes on one core.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import mpmath as mp  # noqa: E402

from workloads import (  # noqa: E402
    CATALOG_WEIGHT,
    MZV_DIGITS,
    GEO_DIGITS,
    README_LINES,
    REF_EXTRA_DIGITS,
    REFS_DIR,
    relation_vector,
    sha256_lines,
    vector_digest,
)

GEN_SEED = 20261017


# ---------------------------------------------------------------------------
# Independent fixed-point nested sum
# ---------------------------------------------------------------------------

def _pass_length(depth: int, r: float, eps_log10: float) -> int:
    """N with sum_{n>N} n^(depth-1) r^n < 10^eps_log10.

    The summand with outer index n is at most C(n-1, depth-1) r^n, because
    every base factor is at most r per unit of index; the geometric tail
    from N+1 is bounded by its first term over (1 - rho).
    """
    m = depth - 1
    n = depth
    while True:
        rho = r * (1 + 1 / (n + 1)) ** m
        if rho < 1:
            tail = m * math.log10(n + 1) + (n + 1) * math.log10(r) - math.log10(1 - rho)
            if tail < eps_log10:
                return n
        n += max(1, n // 16)


def lambda_fixed(terms, bits: int, eps_log10: float) -> int:
    """lambda(s; b) * 2^bits as an integer, for |b_j| > 1 and s_j >= 1.

    A_j(n) = n^-s_j * B_j(n) with B_j(n+1) = (B_j(n) + A_{j+1}(n)) / b_j is
    a forward recurrence in which every multiplier has modulus below one,
    so rounding errors stay O(N * depth) units in the last place.
    """
    k = len(terms)
    if k == 0:
        return 1 << bits
    r = float(1 / min(abs(b) for _, b in terms))
    big_n = _pass_length(k, r, eps_log10)
    inv = [(b.denominator, b.numerator) for _, b in terms]
    exps = [s for s, _ in terms]
    power = 1 << bits
    inner = [0] * k
    prev = [0] * k
    total = 0
    for n in range(1, big_n + 1):
        cur = [0] * k
        for j in range(k - 1):
            num, den = inv[j]
            inner[j] = ((inner[j] + prev[j + 1]) * num) // den
            cur[j] = inner[j] // n ** exps[j]
        num, den = inv[k - 1]
        power = (power * num) // den
        cur[k - 1] = power // n ** exps[k - 1]
        total += cur[0]
        prev = cur
    return total


def _bits_for(digits: int) -> int:
    return math.ceil((digits + 10) * math.log2(10)) + 40


def fixed_direct(spec, digits: int) -> Fraction:
    bits = _bits_for(digits)
    return Fraction(lambda_fixed(spec.terms, bits, -(digits + 5)), 1 << bits)


def fixed_split(word, digits: int, p=Fraction(3)) -> Fraction:
    """The word's value through the Hoelder split at p, halves in fixed point."""
    from polyzeta.evaluate import holder_split

    bits = _bits_for(digits)
    eps = -(digits + 5 + math.log10(len(word) + 1) + 2)
    total = 0
    for term in holder_split(word, p):
        left = lambda_fixed(term.left.terms, bits, eps)
        right = lambda_fixed(term.right.terms, bits, eps)
        total += term.sign * ((left * right) >> bits)
    return Fraction(total, 1 << bits)


def _fixed_ref(value: Fraction, scale: int) -> str:
    return str(round(value * 10 ** scale))


def _agree(a: Fraction, b, digits: int, what: str) -> None:
    b = Fraction(b)
    if abs(a - b) >= Fraction(1, 10 ** digits):
        raise SystemExit(f"cross-check failed for {what}: |diff| = {float(abs(a - b)):.3e}")


def _mp_fraction(x) -> Fraction:
    sign, man, exp, _ = mp.mpf(x)._mpf_
    value = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -value if sign else value


def _depth1_check(spec, value: Fraction, digits: int) -> None:
    if spec.depth != 1:
        return
    (s, b), = spec.terms
    with mp.workdps(digits + 20):
        if b == 1:
            other = mp.zeta(s)
        elif b == -1:
            other = -mp.altzeta(s)
        else:
            other = mp.polylog(s, mp.mpf(b.denominator) / b.numerator)
        _agree(value, _mp_fraction(other), digits + 5, f"{spec} vs mpmath")


def _polyzeta_check(spec, value: Fraction, digits: int, guard: int) -> None:
    from polyzeta import Precision, evaluate_lambda

    got = evaluate_lambda(spec, Precision(digits, guard)).to_fraction()
    _agree(value, got, digits + 5, f"{spec} vs polyzeta")


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------

def _random_z_string(rng: random.Random, weight: int) -> tuple[int, ...]:
    depth = rng.randint(1, min(weight, 5))
    cuts = sorted(rng.sample(range(1, weight), depth - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [weight])]
    return tuple(p * rng.choice((1, -1)) for p in parts)


def _takes_split(z) -> bool:
    """False for the words the evaluator routes through duality instead."""
    from polyzeta import (DivergenceError, dual_word, lambda_from_z_string,
                          lambda_to_word, word_to_lambda)
    from polyzeta.evaluate import GEOMETRIC_THRESHOLD

    word = lambda_to_word(lambda_from_z_string(z))
    try:
        dual, _ = dual_word(word)
    except DivergenceError:
        return True
    bases = word_to_lambda(dual).bases
    return not (bases and min(abs(b) for b in bases) >= GEOMETRIC_THRESHOLD)


def _split_cost(word) -> int:
    """Kernel work of the p = 2 split the evaluator takes: sum over the halves
    of depth times pass length.  Used only to keep each weight's pool of
    similar cost, so that seeds draw rounds of similar cost."""
    from polyzeta.evaluate import holder_split

    cost = 0
    for term in holder_split(word, Fraction(2)):
        for half in (term.left, term.right):
            if half.depth:
                r = float(1 / min(abs(b) for b in half.bases))
                cost += half.depth * _pass_length(half.depth, r, -(MZV_DIGITS + 60))
    return cost


def mzv_pool(rng: random.Random, per_weight: int = 12, candidates: int = 48):
    from polyzeta import format_spec, lambda_from_z_string, lambda_to_word

    entries = []
    scale = MZV_DIGITS + REF_EXTRA_DIGITS
    for weight in range(3, 11):
        seen = set()
        attempts = 0
        while len(seen) < candidates and attempts < 5000:
            attempts += 1
            z = _random_z_string(rng, weight)
            if z[0] == 1 or z in seen or not _takes_split(z):
                continue
            seen.add(z)
        cost = {z: _split_cost(lambda_to_word(lambda_from_z_string(z))) for z in seen}
        middle = sorted(cost.values())[len(cost) // 2]
        for z in sorted(sorted(seen, key=lambda z: (abs(cost[z] - middle), z))[:per_weight]):
            spec = lambda_from_z_string(z)
            word = lambda_to_word(spec)
            value = fixed_split(word, scale + 10)
            _depth1_check(spec, value, scale)
            _polyzeta_check(spec, value, MZV_DIGITS + 20, 20)
            entries.append({
                "cell": f"w{weight}",
                "z": list(z),
                "spec": format_spec(spec),
                "ref": _fixed_ref(value, scale),
                "scale": scale,
            })
            print("mzv", z, flush=True)
    return entries


GEO_CELLS = {
    # name: (depth, base chooser)
    "zp2-d1": (1, "const2"),
    "zp2-d2": (2, "const2"),
    "zp2-d3": (3, "const2"),
    "zp3/2-d1": (1, "const3/2"),
    "zp3/2-d2": (2, "const3/2"),
    "mix3/2-d2": (2, "mix3/2"),
    "mix3/2-d3": (3, "mix3/2"),
    "mix3/2-d4": (4, "mix3/2"),
    "mix2-d3": (3, "mix2"),
    "mix2-d4": (4, "mix2"),
}
_FAST_BASES = (Fraction(2), Fraction(-2), Fraction(5, 2), Fraction(-3))


def _geo_bases(rng: random.Random, depth: int, kind: str):
    if kind == "const2":
        return (Fraction(2),) * depth
    if kind == "const3/2":
        return (Fraction(3, 2),) * depth
    bases = [rng.choice(_FAST_BASES) for _ in range(depth)]
    # pin the smallest modulus so every spec of a cell has the same pass length
    bases[rng.randrange(depth)] = Fraction(3, 2) if kind == "mix3/2" else rng.choice(
        (Fraction(2), Fraction(-2))
    )
    return tuple(bases)


def geometric_pool(rng: random.Random, per_cell: int = 6):
    from polyzeta import LambdaSpec, format_spec, lambda_from_z_string, lambda_to_word

    scale = GEO_DIGITS + REF_EXTRA_DIGITS
    entries = []
    for cell, (depth, kind) in GEO_CELLS.items():
        # the weight sets the working precision, so it is pinned per depth;
        # depth 1 allows three weights to give the seed a choice
        weights = (3, 4, 5) if depth == 1 else (2 * depth + 1,)
        seen = set()
        for _ in range(5000):
            if len(seen) == per_cell:
                break
            exps = tuple(rng.randint(1, 4 if depth > 1 else 5) for _ in range(depth))
            if sum(exps) in weights:
                seen.add(LambdaSpec.of(exps, _geo_bases(rng, depth, kind)))
        for spec in sorted(seen, key=format_spec):
            value = fixed_direct(spec, scale + 10)
            _depth1_check(spec, value, scale)
            _polyzeta_check(spec, value, GEO_DIGITS, 100)
            entries.append({"cell": cell, "spec": format_spec(spec),
                            "ref": _fixed_ref(value, scale), "scale": scale})
            print("geo", format_spec(spec), flush=True)
    for depth in range(2, 8):
        z = (-1,) * depth
        spec = lambda_from_z_string(z)
        value = fixed_split(lambda_to_word(spec), scale + 10)
        _polyzeta_check(spec, value, GEO_DIGITS, 100)
        entries.append({"cell": "dual", "spec": format_spec(spec),
                        "ref": _fixed_ref(value, scale), "scale": scale})
        print("geo", z, flush=True)
    return entries


RELATION_DIMS = (4, 6, 8, 10, 12)
RELATION_DIGITS = (100, 200, 300)


def relation_cells():
    cells = []
    for dim in RELATION_DIMS:
        for digits in RELATION_DIGITS:
            cells.append((dim, digits, "planted"))
            cells.append((dim, digits, "none"))
        cells.append((dim, 400, "planted"))
    return cells


def _pslq_agrees(xs, digits: int, expected) -> bool:
    n = len(xs)
    # maxcoeff covers every vector within lindep's norm cap C^(1/(n+1))
    maxcoeff = int(10 ** ((digits - 10) / (n + 1))) + 1
    if expected is None:
        # At twice the digits pslq's tolerance, 10^(-1.5 digits), lies far
        # below the residuals that vectors within the cap reach by the
        # inputs' finite sampling alone, so it must find nothing.  (At
        # ``digits`` it reports such vectors once n >= 8.)
        with mp.workdps(2 * digits):
            found = mp.pslq([mp.mpf(x.numerator) / x.denominator for x in xs],
                            maxcoeff=maxcoeff, maxsteps=10 ** 6)
        return found is None
    with mp.workdps(digits):
        found = mp.pslq([mp.mpf(x.numerator) / x.denominator for x in xs],
                        maxcoeff=maxcoeff, maxsteps=10 ** 6)
    return found is not None and tuple(abs(c) for c in found) == tuple(abs(c) for c in expected)


def relation_pool(rng: random.Random, per_cell: int = 4):
    from polyzeta import BigReal, Precision, lindep

    entries = []
    for dim, digits, kind in relation_cells():
        for _ in range(per_cell):
            gen_seed = rng.randrange(2 ** 32)
            xs, planted = relation_vector(gen_seed, dim, digits, kind)
            if planted is not None and sum(c * x for c, x in zip(planted, xs)) != 0:
                raise SystemExit(f"planted relation does not hold exactly {dim}/{digits}")
            result = lindep([BigReal(x, Precision(digits)) for x in xs])
            if result.coefficients != planted:
                raise SystemExit(f"lindep disagrees with the planted verdict {dim}/{digits}/{kind}")
            if not _pslq_agrees(xs, digits, planted):
                raise SystemExit(f"pslq disagrees with the verdict {dim}/{digits}/{kind}")
            entries.append({
                "cell": f"{kind}-n{dim}-d{digits}",
                "gen_seed": gen_seed,
                "dim": dim,
                "digits": digits,
                "kind": kind,
                "digest": vector_digest(xs),
                "coefficients": list(planted) if planted else None,
            })
            print("rel", dim, digits, kind, flush=True)
    return entries


def identity_refs():
    from polyzeta import identity_catalog

    lines = [ident.to_json() for ident in identity_catalog(CATALOG_WEIGHT)]
    return {
        "catalog_weight": CATALOG_WEIGHT,
        "catalog_count": len(lines),
        "catalog_sha256": sha256_lines(lines),
        # golden stdout, copied from the README's command-line section
        "cli": [{"argv": argv, "stdout": out} for argv, out in README_LINES],
    }


def _write(name: str, payload) -> None:
    os.makedirs(REFS_DIR, exist_ok=True)
    with open(os.path.join(REFS_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    pools = {
        "mzv_table": lambda: {"entries": mzv_pool(random.Random(GEN_SEED + 1))},
        "geometric_hiprec": lambda: {"entries": geometric_pool(random.Random(GEN_SEED + 2))},
        "relation_hunt": lambda: {
            "entries": relation_pool(random.Random(GEN_SEED + 3)),
            # the README's weight-8 relation among z(4,1,3), z(5,3), z(8),
            # z(5)z(3) and z(3)^2 z(2)
            "readme_vector_coefficients": [36, 36, -71, 90, -18],
        },
        "identity_session": identity_refs,
    }
    for name, build in sorted(pools.items()):
        _write(f"{name}.json", build())
    return 0


if __name__ == "__main__":
    sys.exit(main())
