"""polyzeta benchmark: one workload per run, from the root of a checkout.

    python3 perfbench/run.py --workload mzv_table --seed 1 --seconds 15 --trace 0

The seed selects the rounds' inputs from the pools in ``perfbench/refs``;
the number of rounds is ``--seconds`` over the nominal round time.  The run
sets up SETUPS times (each time dropping polyzeta and mpmath from
``sys.modules`` and importing them again, then building the inputs), then
runs the rounds, clearing the ``evaluate_lambda`` cache before each one.
Every output is checked against its reference.  Every timing is scaled to
the quiet reference machine's speed by ``SpeedGauge``.  With ``--trace 1``
each round runs untraced and then traced, and the per-layer numbers of the
traced rounds are reported, with the tracing overhead.  The last line of stdout is the JSON result; the
human-readable report and the machine facts come before it.  See
``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
DEFAULT_SEED = 1
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail latency
SETUPS = 7  # cold set-ups per run; setup_s is their median
# A run makes seconds / NOMINAL_ROUND_S rounds, about one round per nominal
# time on the 2-core reference machine.  The count does not depend on speed,
# so every run of a workload has the same number of samples and its tail
# sits at the same rank.
NOMINAL_ROUND_S = 5.0
MIN_ROUNDS = 2
# The speed probe: fixed work in the mix of the workloads (interpreter
# steps and products of 2060-bit integers), run every PROBE_PERIOD_S, and
# its time on the reference machine when that machine is quiet.
PROBE_LOOPS = 10
PROBE_PERIOD_S = 0.002
PROBE_MIN = 5  # probes a timing is scaled by, at the least
PROBE_REF_S = 0.000042
_PROBE_X = 3 ** 1300

sys.path.insert(0, HERE)

import workloads  # noqa: E402


class Result(NamedTuple):
    """One round as run: its scaled latencies, outputs and ops' clock time."""

    rnd: workloads.Round
    latencies: list
    outputs: list
    raw_s: float
    traced: bool = False
    spans: tuple = (0, 0)  # the round's range of span indices when traced
    formal_sums: int = 0


def _purge() -> None:
    for name in list(sys.modules):
        if name.split(".")[0] in ("polyzeta", "mpmath"):
            del sys.modules[name]
    gc.collect()  # free the dropped modules so set-ups do not pile up memory


def _probe() -> None:
    s, y = 0, _PROBE_X
    for i in range(PROBE_LOOPS):
        s += i * i % 7
        y = (y * _PROBE_X) >> 2060


class SpeedGauge:
    """Times code as it would run on the quiet reference machine.

    The 2-vCPU VM the benchmark was written on runs the same code up to
    twice as slowly at some moments as at others, in swings from tens of
    milliseconds to many minutes.  Process CPU time swings with wall time,
    so the slowdown is not time stolen from the process.  While the gauge
    runs, a timer signal runs the probe every PROBE_PERIOD_S, in this
    thread, and records how long it took.  ``time`` subtracts the probes
    that fell inside the timed call and scales the rest by PROBE_REF_S over
    their mean duration, topped up with the last probes before the call to
    PROBE_MIN probes.  The probe slows down with the machine, so the scaled
    time keeps what the code costs and drops most of how busy the machine
    was.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _sample(self, *_):
        start = time.perf_counter()
        _probe()
        self.samples.append((start, time.perf_counter() - start))

    @contextlib.contextmanager
    def running(self):
        self.samples = []
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def time(self, fn):
        """``fn()``, with its scaled duration and its clock time (probes
        included) in seconds."""
        del self.samples[:-PROBE_MIN]  # keep memory flat over a long run
        k = len(self.samples)
        start = time.perf_counter()
        out = fn()
        end = time.perf_counter()
        before = [d for _, d in self.samples[max(0, k - PROBE_MIN):k]]
        inside = [d for t, d in self.samples[k:] if start <= t and t + d <= end]
        speed = statistics.fmean((before + inside)[-max(PROBE_MIN, len(inside)):])
        return out, (end - start - sum(inside)) * PROBE_REF_S / speed, end - start


def _setup(workload: str, seed: int, rounds: int):
    """One cold set-up, after ``_purge``: import polyzeta, build the seeded
    rounds, load refs."""
    import polyzeta

    if os.path.dirname(os.path.abspath(polyzeta.__file__)) != os.path.join(SRC, "polyzeta"):
        raise RuntimeError(f"imported polyzeta from {polyzeta.__file__}, not from {SRC}")
    return workloads.WORKLOADS[workload](seed, rounds)


def _attempt(op):
    try:
        return op.run()
    except Exception as exc:  # an operation that raises is a failure
        return exc


def _run_round(rnd, gauge: SpeedGauge):
    """One round: scaled op latencies, outputs, and the ops' clock time."""
    rnd.reset()
    latencies, outputs, total_raw = [], [], 0.0
    for op in rnd.ops:
        out, scaled, raw = gauge.time(lambda: _attempt(op))
        latencies.append(scaled)
        outputs.append(out)
        total_raw += raw
    return latencies, outputs, total_raw


def _passes(op, out) -> bool:
    if isinstance(out, Exception):
        return False
    try:
        return bool(op.check(out))
    except Exception:
        return False


def _canonical(out):
    """Comparable form of an output, for traced-versus-untraced checks."""
    if hasattr(out, "to_fraction"):
        return out.to_fraction()
    if hasattr(out, "coefficients"):
        return (out.coefficients, out.residual.to_fraction(), out.exclusion_bound)
    if isinstance(out, Exception):
        return repr(out)
    return out


def _tail(latencies):
    """Latency with exactly TAIL_BEYOND samples above it, its percentile, n."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, 1)  # 1-based nearest rank
    return ordered[rank - 1], 100.0 * rank / n, n


def _facts(workload: str, seed: int, digest: str, load_at_start) -> dict:
    import mpmath

    return {
        "workload": workload,
        "seed": seed,
        "input_sha256": digest,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "loadavg_start": load_at_start,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_at_start = list(os.getloadavg())
    if not os.path.isfile(os.path.join(SRC, "polyzeta", "__init__.py")):
        print(f"error: no polyzeta sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    n_rounds = max(MIN_ROUNDS, round(args.seconds / NOMINAL_ROUND_S))
    gauge = SpeedGauge()
    setup_times, setup_raw, digests = [], [], set()
    with gauge.running():
        for _ in range(SETUPS):
            _purge()
            rnds, dt, raw = gauge.time(lambda: _setup(args.workload, args.seed, n_rounds))
            setup_times.append(dt)
            setup_raw.append(raw)
            digests.add(workloads.sha256_lines(r.digest for r in rnds))
    if len(digests) != 1:
        print("error: the same seed built different inputs", file=sys.stderr)
        return 2
    facts = _facts(args.workload, args.seed, digests.pop(), load_at_start)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()

    rounds = []
    with gauge.running():
        for rnd in rnds:
            rounds.append(Result(rnd, *_run_round(rnd, gauge)))
            if tracer is not None:
                lo, sums = len(tracer.span_fid), tracer.formal_sums
                with tracer.installed():
                    lat, outs, raw = _run_round(rnd, gauge)
                rounds.append(Result(rnd, lat, outs, raw, True, (lo, len(tracer.span_fid)),
                                     tracer.formal_sums - sums))

    attempted = failed = false_verdicts = 0
    for r in rounds:
        for op, out in zip(r.rnd.ops, r.outputs):
            attempted += 1
            if not _passes(op, out):
                failed += 1
                false_verdicts += r.traced and hasattr(out, "coefficients")
    if tracer is not None:
        # a traced repetition must return exactly what the untraced one did
        for plain, traced in zip(rounds[0::2], rounds[1::2]):
            for a, b in zip(plain.outputs, traced.outputs):
                if _canonical(a) != _canonical(b):
                    failed += 1

    untraced = [r for r in rounds if not r.traced]
    walls = [sum(r.latencies) for r in untraced]
    latencies = [x for r in untraced for x in r.latencies]
    tail, tail_pct, n = _tail(latencies)
    report = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.fmean(walls), "s"),
        "ops_per_s": (len(latencies) / sum(walls), "1/s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1000 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    lines = [f"{name:<16} {value:>14.6g} {unit}" for name, (value, unit) in report.items()]
    lines[4] += f"   (p{tail_pct:.1f} of {n} op samples, {TAIL_BEYOND} beyond it)"
    lines.append(f"{'fail_ratio':<16} {failed / attempted:>14.6g}    ({failed} of {attempted} ops)")
    lines.append(f"rounds: {len(untraced)} untraced, {n} ops; scaled walls "
                 + ", ".join(f"{w:.3f}s" for w in walls) + "; raw walls "
                 + ", ".join(f"{r.raw_s:.3f}s" for r in untraced))
    lines.append("set-ups: scaled " + ", ".join(f"{t:.3f}s" for t in setup_times)
                 + "; raw " + ", ".join(f"{t:.3f}s" for t in setup_raw))

    if tracer is not None:
        traced = [r for r in rounds if r.traced]
        per_round = []
        for r in traced:
            # span times are raw: scale them by the round's scaled-to-raw ratio
            factor = sum(r.latencies) / r.raw_s
            m = tracer.layer_metrics(*r.spans)
            for k, v in m.items():
                unit = _unit(k)
                m[k] = v * factor if unit in ("s", "ms") else v / factor if unit == "1/s" else v
            m["identities.formal_sums"] = r.formal_sums
            per_round.append(m)
        layer = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        layer["relations.false_verdicts"] = false_verdicts
        layer["trace.overhead_s"] = statistics.median(
            sum(t.latencies) - sum(u.latencies) for u, t in zip(rounds[0::2], rounds[1::2]))
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(layer.items())}
        lines.append(f"traced rounds: {len(traced)}; traced wall_s "
                     f"{statistics.fmean(sum(r.latencies) for r in traced):.6g} s")
        lines += [f"{k:<34} {v['value']:>14.6g} {v['unit']}" for k, v in metrics.items()]
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json.gz"), facts)
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in report.items()}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("facts " + json.dumps(facts, sort_keys=True))
    print("\n".join(lines))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"facts": facts, "report": lines, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"),
                         ("_ratio", "ratio"), ("_mean", "digits")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
