"""Count the LLL swaps and size reductions of lindep on the relation_hunt
references, in one or two checkouts.

Usage: python tools/lll_counts.py TREE [TREE]

TREE is a checkout of this repository.  The vectors are the 140 references
of the first TREE's ``perfbench/refs/relation_hunt.json``, in 35 cells,
drawn as the benchmark draws them (``relation_vector`` of its
``perfbench/workloads.py``).  For each TREE one python process imports
polyzeta from TREE/src and runs lindep on every vector, with each call of
``relations._lll`` under a profiler of its own.  A swap or a size reduction
is a call of ``_lll``'s closure ``swap`` or ``size_reduce``, read from
cProfile's call counts, so the counts depend on the code and the inputs
alone, not on the machine's speed, and the package carries no counter.  A
call of ``_lll`` from ``_lifts`` is a lift, one from ``_stages`` the final
pass.

Per cell and TREE it prints the lifts run, the swaps and size reductions
of the lifts and those of the final pass, summed over the cell's vectors,
and then their totals.  With two trees it adds each total's change and
whether every vector's verdict, its coefficients or else its exclusion
bound, is the same in both.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

COUNTS = ("lifts", "lift_swaps", "lift_reductions", "final_swaps", "final_reductions")
HEADS = ("lifts", "lift swaps", "lift sizered", "final swaps", "final sizered")

CHILD = """
import cProfile, json, sys
from fractions import Fraction
from polyzeta import BigReal, Precision, lindep, relations

lll = relations._lll
calls = []

def profiled(*args):
    phase = {"_lifts": "lift", "_stages": "final"}[sys._getframe(1).f_code.co_name]
    profile = cProfile.Profile()
    profile.enable()
    try:
        return lll(*args)
    finally:
        profile.disable()
        names = {}
        for entry in profile.getstats():
            name = getattr(entry.code, "co_name", None)
            names[name] = names.get(name, 0) + entry.callcount
        calls.append((phase, names.get("swap", 0), names.get("size_reduce", 0)))

relations._lll = profiled
for vector in json.load(sys.stdin):
    prec = Precision(vector["digits"])
    calls.clear()
    result = lindep([BigReal(Fraction(x), prec) for x in vector["xs"]])
    counts = dict.fromkeys(sys.argv[1:], 0)
    for phase, swaps, reductions in calls:
        counts["lifts"] += phase == "lift"
        counts[phase + "_swaps"] += swaps
        counts[phase + "_reductions"] += reductions
    bound = result.exclusion_bound
    counts["verdict"] = [result.coefficients and list(result.coefficients),
                         bound and bound.hex()]
    print(json.dumps(counts))
"""


def _references(tree: Path) -> list[dict]:
    """Every relation_hunt reference of tree as {cell, digits, xs}, xs the
    exact rationals as "numerator/denominator" strings."""
    spec = importlib.util.spec_from_file_location(
        "workloads", tree / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)  # its dataclasses look their module up
    refs = json.loads((tree / "perfbench" / "refs" / "relation_hunt.json").read_text(
        encoding="utf-8"))
    vectors = []
    for e in refs["entries"]:
        xs, _ = workloads.relation_vector(e["gen_seed"], e["dim"], e["digits"], e["kind"])
        vectors.append({"cell": e["cell"], "digits": e["digits"],
                        "xs": [f"{x.numerator}/{x.denominator}" for x in xs]})
    return vectors


def _count(tree: Path, vectors: list[dict]) -> list[dict]:
    """One fresh process in tree: each vector's counts and verdict."""
    out = subprocess.run(
        [sys.executable, "-c", CHILD, *COUNTS],
        env=dict(os.environ, PYTHONPATH=str(tree / "src")),
        input=json.dumps(vectors), capture_output=True, text=True, check=True,
    ).stdout
    return [json.loads(line) for line in out.splitlines()]


def main(argv: list[str]) -> int:
    trees = [Path(arg) for arg in argv]
    if not 1 <= len(trees) <= 2:
        sys.exit(__doc__)
    vectors = _references(trees[0])
    results = [_count(tree, vectors) for tree in trees]
    width = max(len(v["cell"]) for v in vectors) + 1
    header = f"{'cell':<{width}}"
    for n in range(1, len(trees) + 1):
        header += " |" + "".join(f" {f'{n}: {head}':>16}" for head in HEADS)
    print(header)
    totals = [dict.fromkeys(COUNTS, 0) for _ in trees]
    for cell in dict.fromkeys(v["cell"] for v in vectors):
        line = f"{cell:<{width}}"
        for result, total in zip(results, totals):
            sums = [sum(r[c] for v, r in zip(vectors, result) if v["cell"] == cell)
                    for c in COUNTS]
            line += " |" + "".join(f" {s:>16}" for s in sums)
            for c, s in zip(COUNTS, sums):
                total[c] += s
        print(line)
    print(f"{'total':<{width}}" + "".join(
        " |" + "".join(f" {total[c]:>16}" for c in COUNTS) for total in totals))
    if len(trees) == 2:
        before, after = totals
        print(f"{'change':<{width}}" + " |" + " " * 17 * len(COUNTS) + " |" + "".join(
            f" {after[c] / before[c] - 1 if before[c] else 0:>+16.1%}" for c in COUNTS))
        differ = [v["cell"] for v, a, b in zip(vectors, *results) if a["verdict"] != b["verdict"]]
        if differ:
            print(f"verdicts: {len(differ)} of {len(vectors)} differ, in {', '.join(differ)}")
        else:
            print(f"verdicts: all {len(vectors)} the same")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
