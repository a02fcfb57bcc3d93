"""Compare two checkouts on one benchmark workload in alternated pairs.

Usage: python tools/pair_bench.py PARENT CHANGE WORKLOAD SEED
           [--out FILE] [--claim METRIC]

PARENT and CHANGE are checkouts of this repository.  The script runs

    python3 perfbench/run.py --workload WORKLOAD --seconds S --seed SEED

with each checkout as its working directory, S the ``run_seconds`` of
PARENT's BENCHMARK.json, PAIRS times per side, alternating which side runs
first, and stops if any run is not ``"correct": true``.  It refuses to
start unless both checkouts lie in one directory: where a checkout lies
moves ``setup_s`` and ``peak_rss_mb`` by itself.  It also refuses while
either checkout holds a ``__pycache__`` under ``src/``: the benchmark
imports polyzeta from there, and valid bytecode skips the compile that
``setup_s`` otherwise times.  It never deletes anything.  For each
end-to-end metric of that BENCHMARK.json it prints each side's median and
quartiles, the pairs the change wins (ties count for neither side) and the
verdict of the rule for claiming a gain: the change wins at least 9 of 10
pairs, and its median is better than the parent's by more than the
parent's interquartile range.  Without a gain, the verdict compares the
change's median with the metric's bound, unless the parent's interquartile
range exceeds that bound, which leaves the metric unresolved.

The last line of stdout is one JSON object: the workload, the seed, the
run length, each side's metrics run by run, and per metric both sides'
quartiles, the wins and the verdict.

With --out FILE that object is also added to the ``runs`` list of FILE, a
JSON file in the ``BENCH_<n>.json`` layout: ``what``, ``command``,
``method``, ``facts`` (python version, cores, platform and
PYTHONDONTWRITEBYTECODE if set), ``claim`` and ``runs``.  A missing FILE
is created; an existing one keeps its other fields and gains the run.
--claim METRIC records in ``claim`` that the change claims a gain on
METRIC of this WORKLOAD; without it a new FILE's claim is null.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
RULE = "wins >= 9/10 pairs and a median gap above the parent's interquartile range"


def _run(checkout: Path, workload: str, seed: str, seconds: int) -> dict:
    """One benchmark run in checkout: its metrics, by name."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--seed", seed],
        cwd=checkout, capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if result["correct"] is not True:
        sys.exit(f"{checkout}: run not correct: {result}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def _summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _facts() -> dict:
    facts = {"python": platform.python_version(), "nproc": os.cpu_count(),
             "platform": platform.platform()}
    if os.environ.get("PYTHONDONTWRITEBYTECODE"):
        facts["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return facts


def _record(path: Path, run: dict, claim: str | None, seconds: int) -> None:
    """Add run to the BENCH file at path, creating the file if missing."""
    if path.exists():
        bench = json.loads(path.read_text(encoding="utf-8"))
    else:
        bench = {
            "what": "end-to-end metrics of perfbench/run.py, parent commit against this"
                    " change, in alternated pairs, as tools/pair_bench.py's last stdout"
                    " line; each verdict without a claim is read against the metric's bound",
            "command": "python3 tools/pair_bench.py PARENT CHANGE <workload> <seed>"
                       " --out <this file>",
            "method": "both checkouts side by side; each pair runs parent and change once,"
                      " alternating which runs first, each run python3 perfbench/run.py"
                      f" --workload <workload> --seconds {seconds} --seed <seed>; quartiles"
                      " by statistics.quantiles (exclusive method) over the pairs; a win is"
                      " a pair where the change reads better, ties count for neither",
            "facts": _facts(),
            "claim": None,
            "runs": [],
        }
    if claim is not None:
        bench["claim"] = {"workload": run["workload"], "metric": claim, "rule": RULE}
    bench["runs"].append(run)
    path.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str]) -> int:
    options = {"--out": None, "--claim": None}
    args = []
    it = iter(argv)
    for arg in it:
        if arg in options:
            options[arg] = next(it, None)
            if options[arg] is None:
                sys.exit(__doc__)
        else:
            args.append(arg)
    if len(args) != 4:
        sys.exit(__doc__)
    parent, change = Path(args[0]), Path(args[1])
    workload, seed = args[2], args[3]
    spec = json.loads((parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    if options["--claim"] not in (None, *(m["name"] for m in spec["end_to_end"])):
        sys.exit(f"--claim: no end-to-end metric {options['--claim']!r}")
    if parent.resolve().parent != change.resolve().parent:
        sys.exit(f"{parent} and {change} lie in different directories, which skews setup_s"
                 " and peak_rss_mb; put both checkouts side by side and rerun")
    for checkout in (parent, change):
        caches = sorted((checkout / "src").rglob("__pycache__"))
        if caches:
            sys.exit(f"{checkout}: bytecode under src/ skews setup_s; remove {caches[0]} and rerun")
    seconds = spec["run_seconds"]
    runs = {parent: [], change: []}
    for i in range(PAIRS):
        order = (parent, change) if i % 2 == 0 else (change, parent)
        for checkout in order:
            runs[checkout].append(_run(checkout, workload, seed, seconds))
        print(f"pair {i + 1}/{PAIRS} done", file=sys.stderr)

    print(f"{workload} seed {seed}, {PAIRS} alternated pairs of {seconds} s runs,"
          " parent -> change")
    print(f"{'metric':<12} {'parent q1/med/q3':>28} {'change q1/med/q3':>28} "
          f"{'gap':>8} {'wins':>5}  verdict")
    summary = {}
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        before = [run[name] for run in runs[parent]]
        after = [run[name] for run in runs[change]]
        wins = sum(sign * (b - a) > 0 for b, a in zip(before, after))
        (p1, pm, p3), (c1, cm, c3) = _summary(before), _summary(after)
        gain = sign * (pm - cm)
        if wins >= 0.9 * PAIRS and gain > p3 - p1:
            verdict = "gain"
        elif p3 - p1 > metric["bound"] * pm:
            verdict = "unresolved: parent IQR above bound"
        else:
            verdict = "within bound" if -gain <= metric["bound"] * pm else "worse than bound"
        print(f"{name:<12} {p1:>9.4g} {pm:>9.4g} {p3:>9.4g} {c1:>9.4g} {cm:>9.4g} {c3:>9.4g}"
              f" {(cm - pm) / pm:>+8.1%} {wins:>2}/{PAIRS}  {verdict}")
        summary[name] = {"parent_q1_median_q3": [p1, pm, p3],
                         "change_q1_median_q3": [c1, cm, c3],
                         "wins": wins, "verdict": verdict}
    run = {"workload": workload, "seed": int(seed), "run_seconds": seconds,
           "pairs": PAIRS, "parent_runs": runs[parent],
           "change_runs": runs[change], "metrics": summary}
    print(json.dumps(run))
    if options["--out"] is not None:
        _record(Path(options["--out"]), run, options["--claim"], seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
