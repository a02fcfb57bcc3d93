"""Count the LLL swaps and size reductions of lindep on the relation_hunt
references, in one or two checkouts.

Usage: python tools/lll_counts.py TREE [TREE]

TREE is a checkout of this repository.  The vectors are the 140 references
of the first TREE's ``perfbench/refs/relation_hunt.json``, in 35 cells,
drawn as the benchmark draws them (``relation_vector`` of its
``perfbench/workloads.py``).  For each TREE one python process imports
polyzeta from TREE/src and runs lindep on every vector, reading the swaps
and size reductions that each call of ``relations._lll`` returns with its
reduced rows or transform.  The counts depend on the code and the inputs alone, not on the
machine's speed.  A tree whose ``_lll`` returns no counts stops the child
with a message that names the tree.  The caller of ``_lll`` names the
phase (the child's ``phases``): a call from ``_lifts`` is a lift and one
from ``_stages`` the final pass.  A call from ``_lift``, the lift body, is
named by ``_lift``'s own caller: from ``_lifts`` a lift, from ``_stages``
the truncated 3/4 pass before the final one ("pre").  Any other caller
stops the child with a message that names it.

Per cell and TREE it prints the lifts run, the swaps and size reductions
of the lifts, of the pre pass and of the final pass, summed over the
cell's vectors, and then their totals; a tree without the pre pass reads 0
there.  With two trees it adds each total's change ("new" where the first
tree reads 0 and the second does not) and whether every vector's verdict,
its coefficients or else its exclusion bound, is the same in both.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

from trees import command_line, read_tree, run

COUNTS = ("lifts", "lift_swaps", "lift_reductions", "pre_swaps", "pre_reductions",
          "final_swaps", "final_reductions")
HEADS = ("lifts", "lift swaps", "lift sizered", "pre swaps", "pre sizered",
         "final swaps", "final sizered")

CHILD = """
import json, sys
from fractions import Fraction
from polyzeta import BigReal, Precision, lindep, relations

lll = relations._lll
calls = []
# the phase of each caller of _lll, and of each caller of the lift body
phases = {"_lifts": "lift", "_stages": "final", "_lift < _lifts": "lift",
          "_lift < _stages": "pre"}

def counted(*args):
    caller = sys._getframe(1)
    name = caller.f_code.co_name
    if name not in phases:
        name += " < " + caller.f_back.f_code.co_name
    if name not in phases:
        sys.exit(f"relations._lll called from {name}, which names no phase")
    result = lll(*args)
    if len(result) != 4:
        sys.exit("relations._lll returns no swap and size-reduction counts")
    calls.append((phases[name], *result[2:]))
    return result

relations._lll = counted
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
    out = run(tree, "counting process", ["-c", CHILD, *COUNTS], stdin=json.dumps(vectors))
    return [json.loads(line) for line in out.splitlines()]


def _change(before: int, after: int) -> str:
    """A total's relative change, or "new" where it grew from 0."""
    if before:
        return f"{after / before - 1:+.1%}"
    return "new" if after else "+0.0%"


def main(argv: list[str]) -> int:
    trees = [read_tree(arg) for arg in command_line(argv, __doc__, {1, 2}, {})[0]]
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
            f" {_change(before[c], after[c]):>16}" for c in COUNTS))
        differ = [v["cell"] for v, a, b in zip(vectors, *results) if a["verdict"] != b["verdict"]]
        if differ:
            print(f"verdicts: {len(differ)} of {len(vectors)} differ, in {', '.join(differ)}")
        else:
            print(f"verdicts: all {len(vectors)} the same")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
