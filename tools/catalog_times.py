"""Time identity_catalog(w) with its JSON lines in one or two checkouts.

Usage: python tools/catalog_times.py TREE [TREE] [--weights LO-HI] [--rounds N]

TREE is a checkout of this repository.  For each weight w from LO to HI
(default 8-12) the script runs N rounds (default 3).  In each round every
TREE gets a fresh python process, the trees taking turns at going first.
The process imports polyzeta from TREE/src, builds identity_catalog(w) and
writes every identity's to_json line, one build after another for
BUDGET_S seconds (at least twice, the first build being a warm-up), and
reports the least time of one build and the SHA-256 of its lines, joined
by newlines, as the benchmark's `identity_session` digests them.

Per weight it prints the number of identities and, per TREE, the least
time over all rounds and its growth over the previous weight.  With two
trees it adds the second tree's change against the first and whether their
digests are the same; with one it prints the digest.  Each digest is
printed in full, all 64 hex digits, so a golden can be read off the table.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

BUDGET_S = 0.5

CHILD = """
import hashlib, json, sys, time
from polyzeta.identities import identity_catalog
w, budget = int(sys.argv[1]), float(sys.argv[2])
best, builds, spent = float("inf"), 0, 0.0
while builds < 2 or spent < budget:
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
    """One fresh process in tree: the count, least build time and digest.
    A failed process stops the script with its stderr."""
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(weight), str(BUDGET_S)],
        env=dict(os.environ, PYTHONPATH=str(tree / "src")),
        capture_output=True, text=True,
    )
    if child.returncode:
        sys.exit(f"{tree}: the catalog process exited with status {child.returncode}:\n"
                 + child.stderr.rstrip())
    return json.loads(child.stdout)


def _parse(argv: list[str]) -> tuple[list[Path], range, int]:
    trees, weights, rounds = [], range(8, 13), 3
    args = iter(argv)
    try:
        for arg in args:
            if arg == "--weights":
                lo, _, hi = next(args).partition("-")
                weights = range(int(lo), int(hi or lo) + 1)
            elif arg == "--rounds":
                rounds = int(next(args))
            else:
                trees.append(Path(arg))
    except (StopIteration, ValueError):  # an option without its value, or not an int
        sys.exit(__doc__)
    if not 1 <= len(trees) <= 2 or rounds < 1 or not weights or weights[0] < 3:
        sys.exit(__doc__)
    return trees, weights, rounds


def main(argv: list[str]) -> int:
    trees, weights, rounds = _parse(argv)
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
            order = range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))
            for n in order:
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
