"""The four benchmark workloads.

Each workload turns ``--seed`` into a list of *rounds*: fixed lists of
operations drawn from the checked-in pools under ``refs/`` (``make_refs.py``
wrote them), each with the reference its output is checked against.  A
seeded shuffle of each pool cell is dealt out over the rounds in turn, so a
run covers as much of each cell as it has room for, and the run's cost
depends little on which seed picked its inputs.  ``run.py`` clears the
``evaluate_lambda`` cache before each round, so every round starts cold.

polyzeta is imported inside ``setup`` on purpose: ``run.py`` drops it from
``sys.modules`` before each timed set-up, so the import is part of set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_DIR = os.path.join(HERE, "refs")

MZV_DIGITS = 200
# Words per weight and round.  Weight 7 sits mid-cost with as many words
# below it as above, so the median op falls in the middle of its block, and
# three rounds of four cover its whole 12-word pool, whatever the seed.
MZV_PER_CELL = {"w3": 1, "w4": 1, "w5": 2, "w6": 2, "w7": 4, "w8": 2, "w9": 2, "w10": 2}
GEO_DIGITS = 1000
# Specs per cell and round, one unless named.  Every round runs the whole
# zp(3/2, s1, s2) cell: its four specs cost alike and sit mid-range, and as
# many ops cost less as more, so the median op falls inside that block.  The
# three costliest cells get two a round, so three rounds run all six of
# each and the tail (ten samples beyond it) falls among them, whatever the
# seed.
GEO_PER_CELL = {"zp2-d3": 2, "zp3/2-d2": 4, "mix2-d4": 2, "mix3/2-d3": 2, "mix3/2-d4": 2}
RELATION_PER_CELL = 2
REF_EXTRA_DIGITS = 30
IDENTITY_DIGITS = 40
IDENTITY_TOL_DIGITS = 30
VERIFY_MAX_WEIGHT = 6
CATALOG_WEIGHT = 8
README_DIGITS = 50

README_LINES = (
    (["eval", "Pi^6/z(6)", "--digits", "50"], "945." + "0" * 47 + "\n"),
    (["eval", "z(2,1) - z(3)", "--digits", "50"], "0." + "0" * 49 + "\n"),
    (["eval", "lindep([z(4,1,3), z(5,3), z(8), z(5)*z(3), z(3)^2*z(2)])", "--digits", "50"],
     "36, 36, -71, 90, -18\n"),
    (["eval", "lindep([z(3), Pi^2*log(2), zp(2,2,1), zp(2,3)])", "--ezface-format"],
     "12., -1., -12., -12.\n"),
)


@dataclass
class Op:
    """One timed operation: ``run()`` returns the output ``check`` judges."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Round:
    ops: list[Op]
    reset: Callable[[], None]
    digest: str


def _load(name: str) -> dict:
    with open(os.path.join(REFS_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def sha256_lines(parts) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _by_cell(entries) -> dict[str, list[dict]]:
    cells: dict[str, list[dict]] = {}
    for entry in entries:
        cells.setdefault(entry["cell"], []).append(entry)
    return cells


def _value_check(entry: dict, digits: int) -> Callable[[object], bool]:
    ref = Fraction(int(entry["ref"]), 10 ** entry["scale"])
    tol = Fraction(1, 10 ** digits)
    return lambda value: abs(value.to_fraction() - ref) < tol


def _clear_cache() -> Callable[[], None]:
    from polyzeta import evaluate

    return evaluate.evaluate_lambda.cache_clear


def _deal(seed: int, entries, per_cell, rounds: int) -> list[list[dict]]:
    """Each round's picks: per cell, the next ``per_cell(cell)`` entries of a
    seeded shuffle of that cell, taken cyclically across the rounds."""
    rng = random.Random(seed)
    dealt: list[list[dict]] = [[] for _ in range(rounds)]
    for cell, pool in sorted(_by_cell(entries).items()):
        order = rng.sample(pool, len(pool))
        k = per_cell(cell)
        for r in range(rounds):
            dealt[r].extend(order[(r * k + j) % len(order)] for j in range(k))
    return dealt


def _value_rounds(name: str, seed: int, rounds: int, digits: int,
                  per_cell: dict[str, int]) -> list[Round]:
    from polyzeta import Precision, evaluate, parse_spec

    prec = Precision(digits)
    reset = _clear_cache()
    out = []
    for chosen in _deal(seed, _load(name)["entries"], lambda c: per_cell.get(c, 1), rounds):
        ops = []
        for entry in chosen:
            spec = parse_spec(entry["spec"])
            ops.append(Op(entry["spec"], lambda spec=spec: evaluate.evaluate_lambda(spec, prec),
                          _value_check(entry, digits)))
        out.append(Round(ops, reset, sha256_lines(e["spec"] for e in chosen)))
    return out


def mzv_table(seed: int, rounds: int) -> list[Round]:
    return _value_rounds("mzv_table", seed, rounds, MZV_DIGITS, MZV_PER_CELL)


def geometric_hiprec(seed: int, rounds: int) -> list[Round]:
    return _value_rounds("geometric_hiprec", seed, rounds, GEO_DIGITS, GEO_PER_CELL)


# ---------------------------------------------------------------------------
# relation_hunt
# ---------------------------------------------------------------------------

def _normalize_sign(coeffs):
    for c in coeffs:
        if c:
            return tuple(coeffs) if c > 0 else tuple(-v for v in coeffs)
    return tuple(coeffs)


def relation_vector(gen_seed: int, dim: int, digits: int, kind: str):
    """Exact rationals of ``digits + 30`` decimals; with ``kind == "planted"``
    the last entry is solved from a primitive relation with entries in
    [-9, 9], returned sign-normalized as lindep reports it."""
    rng = random.Random(gen_seed)
    den = 10 ** (digits + 30)
    xs = [Fraction(rng.randrange(den // 10, den), den) * rng.choice((1, -1)) for _ in range(dim)]
    if kind == "none":
        return xs, None
    while True:
        coeffs = [rng.randint(-9, 9) for _ in range(dim)]
        g = 0
        for c in coeffs:
            g = gcd(g, c)
        if coeffs[-1] and g == 1:
            break
    xs[-1] = -sum(c * x for c, x in zip(coeffs[:-1], xs[:-1])) / coeffs[-1]
    return xs, _normalize_sign(coeffs)


def vector_digest(xs) -> str:
    return sha256_lines(f"{x.numerator}/{x.denominator}" for x in xs)[:16]


def _relation_op(entry: dict) -> Op:
    from polyzeta import BigReal, Precision, relations

    cell = entry["cell"]
    xs, planted = relation_vector(entry["gen_seed"], entry["dim"], entry["digits"], entry["kind"])
    if vector_digest(xs) != entry["digest"]:
        raise RuntimeError(f"regenerated vector for {cell} does not match its reference")
    expected = tuple(entry["coefficients"]) if entry["coefficients"] else None
    if planted != expected:
        raise RuntimeError(f"planted relation for {cell} does not match its reference")
    prec = Precision(entry["digits"])
    values = [BigReal(x, prec) for x in xs]
    return Op(cell, lambda: relations.lindep(values),
              lambda result: result.coefficients == expected)


def relation_hunt(seed: int, rounds: int) -> list[Round]:
    from polyzeta import Precision, evaluate_z, relations

    refs = _load("relation_hunt")
    # the README weight-8 vector, evaluated here so the timed op is LLL only
    prec = Precision(README_DIGITS)
    z = {s: evaluate_z(s, prec) for s in [(4, 1, 3), (5, 3), (8,), (5,), (3,), (2,)]}
    readme = [z[(4, 1, 3)], z[(5, 3)], z[(8,)], z[(5,)] * z[(3,)], z[(3,)] ** 2 * z[(2,)]]
    expected = tuple(refs["readme_vector_coefficients"])
    readme_op = Op("readme-weight8", lambda: relations.lindep(readme),
                   lambda result: result.coefficients == expected)
    built: dict[str, Op] = {}  # an entry dealt to two rounds is built once
    out = []
    for picks in _deal(seed, refs["entries"], lambda c: RELATION_PER_CELL, rounds):
        for e in picks:
            if e["digest"] not in built:
                built[e["digest"]] = _relation_op(e)
        ops = [built[e["digest"]] for e in picks]
        parts = [f"{e['cell']}:{e['digest']}" for e in picks] + ["readme-weight8"]
        out.append(Round(ops + [readme_op], lambda: None, sha256_lines(parts)))
    return out


# ---------------------------------------------------------------------------
# identity_session
# ---------------------------------------------------------------------------

def _body_weight(body) -> int:
    """Weight of a formal-sum body: a spec, a word or a product of specs."""
    if isinstance(body, tuple):
        return len(body)
    factors = getattr(body, "factors", None)
    if factors is not None:
        return sum(f.weight for f in factors)
    return body.weight


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def identity_session(seed: int, rounds: int) -> list[Round]:
    from polyzeta import Precision, cli, identities

    os.environ.pop("POLYLOG_DIGITS", None)  # the README lines assume the default
    del seed  # the inputs are the catalog itself; every seed runs them alike
    refs = _load("identity_session")

    def build_catalog():
        return [ident.to_json() for ident in identities.identity_catalog(refs["catalog_weight"])]

    def catalog_ok(lines) -> bool:
        return (len(lines) == refs["catalog_count"]
                and sha256_lines(lines) == refs["catalog_sha256"])

    prec = Precision(IDENTITY_DIGITS)
    tol = Fraction(1, 10 ** IDENTITY_TOL_DIGITS)
    # catalog order: the checks share cached values, so their order sets
    # which check pays for a value and would make the tail depend on the seed
    verify = [
        ident for ident in identities.identity_catalog(refs["catalog_weight"])
        if max((_body_weight(b) for _, b in ident.lhs.terms + ident.rhs.terms), default=0)
        <= VERIFY_MAX_WEIGHT
    ]
    verify_ops = [
        Op(f"verify:{ident.tag}",
           lambda ident=ident: (identities.evaluate_formal_sum(ident.lhs, prec)
                                - identities.evaluate_formal_sum(ident.rhs, prec)),
           lambda diff: abs(diff).to_fraction() < tol)
        for ident in verify
    ]
    lines = [(entry["argv"], entry["stdout"]) for entry in refs["cli"]]
    cli_ops = [
        Op("cli:" + argv[1], lambda argv=argv: _run_cli(cli, argv),
           lambda got, golden=golden: got == (0, golden, ""))
        for argv, golden in lines
    ]
    ops = [Op("catalog", build_catalog, catalog_ok)] + verify_ops + cli_ops
    parts = [op.label for op in verify_ops] + [" ".join(argv) for argv, _ in lines]
    parts += [ident.to_json() for ident in verify]
    return [Round(ops, _clear_cache(), sha256_lines(parts))] * rounds


WORKLOADS = {
    "mzv_table": mzv_table,
    "geometric_hiprec": geometric_hiprec,
    "relation_hunt": relation_hunt,
    "identity_session": identity_session,
}
