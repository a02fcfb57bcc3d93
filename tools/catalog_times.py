"""Time identity_catalog(w) with its JSON lines in one or two checkouts.

Usage: python tools/catalog_times.py TREE [TREE] [--weights LO-HI] [--rounds N]

TREE is a checkout of this repository.  For each weight w from LO to HI
(default 8-12) the script runs N rounds (default 3).  In each round every
TREE gets a fresh python process, the trees taking turns at going first.
The process imports polyzeta from TREE/src, builds identity_catalog(w) and
writes every identity's to_json line, one build after another: a warm-up
build, then timed builds until BUDGET_S seconds are spent and at least
TIMED_BUILDS builds are timed, so a slow weight still gets enough builds
to take the least of.  It reports the least time of one build and the
SHA-256 of its lines, joined by newlines, as the benchmark's
`identity_session` digests them.

Per weight it prints the number of identities and, per TREE, the least
time over all rounds and its growth over the previous weight.  With two
trees it adds the second tree's change against the first and whether their
digests are the same; with one it prints the digest.  Each digest is
printed in full, all 64 hex digits, so a golden can be read off the table.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from trees import command_line, read_tree, run, turns

BUDGET_S = 0.5
TIMED_BUILDS = 5

CHILD = """
import hashlib, json, sys, time
from polyzeta.identities import identity_catalog
w, budget, timed = int(sys.argv[1]), float(sys.argv[2]), int(sys.argv[3])
best, builds, spent = float("inf"), 0, 0.0
while builds <= timed or spent < budget:
    t = time.perf_counter()
    lines = [ident.to_json() for ident in identity_catalog(w)]
    took = time.perf_counter() - t
    builds, spent = builds + 1, spent + took
    if builds > 1:
        best = min(best, took)
digest = hashlib.sha256("\\n".join(lines).encode()).hexdigest()
print(json.dumps({"count": len(lines), "best_s": best, "sha256": digest}))
"""


def _measure(tree: Path, weight: int) -> dict:
    """One fresh process in tree: the count, least build time and digest."""
    return json.loads(run(tree, "catalog process",
                          ["-c", CHILD, str(weight), str(BUDGET_S), str(TIMED_BUILDS)]))


def _weights(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv: list[str]) -> int:
    trees, options = command_line(argv, __doc__, {1, 2}, {
        "--weights": (_weights, range(8, 13)), "--rounds": (int, 3)})
    trees, weights, rounds = [read_tree(t) for t in trees], options["--weights"], options["--rounds"]
    if rounds < 1 or not weights or weights[0] < 3:
        sys.exit(__doc__)
    header = f"{'weight':>6} {'identities':>10}"
    for n in range(1, len(trees) + 1):
        header += f" {f'tree {n} ms':>12} {'growth':>7}"
    print(header + ("  change  sha256" if len(trees) == 2 else "  sha256"))
    previous: list = [None] * len(trees)
    for w in weights:
        best = [float("inf")] * len(trees)
        digests: list[set] = [set() for _ in trees]
        counts = set()
        for r in range(rounds):
            for n in turns(range(len(trees)), r):
                got = _measure(trees[n], w)
                best[n] = min(best[n], got["best_s"])
                digests[n].add(got["sha256"])
                counts.add(got["count"])
        line = f"{w:>6} {'/'.join(map(str, sorted(counts))):>10}"
        for n, t in enumerate(best):
            growth = f"x{t / previous[n]:.2f}" if previous[n] else "-"
            line += f" {t * 1000:>12.2f} {growth:>7}"
            previous[n] = t
        shown = " ".join(sorted(set.union(*digests)))
        if len(trees) == 2:
            same = len(set.union(*digests)) == 1
            line += f" {best[1] / best[0] - 1:>+7.1%}  {shown} {'same' if same else 'DIFFERENT'}"
        else:
            line += f"  {shown}"
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
