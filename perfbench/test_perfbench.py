"""Tests of the benchmark itself:  python3 -m pytest -q perfbench"""

from __future__ import annotations

import os
import statistics
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _cheap(rounds, keep):
    """The first round restricted to the ops ``keep`` selects, in order."""
    rnd = rounds[0]
    return workloads.Round([op for op in rnd.ops if keep(op)], rnd.reset, rnd.digest)


def _outputs(rnd):
    with run.SpeedGauge().running() as gauge:
        return run._run_round(rnd, gauge)[1]


def _low_weight(op) -> bool:
    from polyzeta import parse_spec

    return parse_spec(op.label).weight <= 3


def test_same_seed_same_inputs():
    for name, build in workloads.WORKLOADS.items():
        first, second = build(11, 2), build(11, 2)
        assert [r.digest for r in first] == [r.digest for r in second], name
        assert ([op.label for r in first for op in r.ops]
                == [op.label for r in second for op in r.ops]), name
    assert workloads.mzv_table(11, 1)[0].digest != workloads.mzv_table(12, 1)[0].digest


def test_rounds_deal_out_each_cell():
    entries = [{"cell": "a", "spec": str(i)} for i in range(3)] + [{"cell": "b", "spec": "b"}]
    dealt = workloads._deal(5, entries, lambda cell: 1, 3)
    # three rounds of one pick cover the three-entry cell; "b" repeats
    assert sorted(r[0]["spec"] for r in dealt) == ["0", "1", "2"]
    assert [r[1]["spec"] for r in dealt] == ["b"] * 3


def test_traced_and_untraced_outputs_identical():
    rounds = [
        _cheap(workloads.mzv_table(3, 1), _low_weight),
        _cheap(workloads.relation_hunt(3, 1), lambda op: op.label.endswith("d100")),
        _cheap(workloads.identity_session(3, 1),
               lambda op: op.label.startswith("verify") or "Pi^6" in op.label),
    ]
    tracer = Tracer()
    for rnd in rounds:
        assert rnd.ops
        with run.SpeedGauge().running() as gauge:
            _, plain, _ = run._run_round(rnd, gauge)
            lo = len(tracer.span_fid)
            with tracer.installed():
                _, traced, _ = run._run_round(rnd, gauge)
        assert [run._canonical(x) for x in plain] == [run._canonical(x) for x in traced]
        assert all(run._passes(op, out) for op, out in zip(rnd.ops, traced))
        assert len(tracer.span_fid) > lo
    # leaving the block restores the original functions
    from polyzeta import evaluate, relations

    assert hasattr(evaluate.evaluate_lambda, "cache_info")
    assert relations.lindep.__module__ == "polyzeta.relations"
    assert "__wrapped__" not in vars(relations.lindep)


def test_checker_counts_a_perturbed_value_once():
    rnd = _cheap(workloads.mzv_table(5, 1), _low_weight)
    outs = _outputs(rnd)
    assert all(run._passes(op, out) for op, out in zip(rnd.ops, outs))
    outs[0] = outs[0] + Fraction(1, 10 ** (workloads.MZV_DIGITS - 2))
    assert sum(not run._passes(op, out) for op, out in zip(rnd.ops, outs)) == 1


def test_checker_rejects_a_wrong_verdict():
    rnd = _cheap(workloads.relation_hunt(5, 1), lambda op: op.label == "planted-n4-d100")
    outs = _outputs(rnd)
    assert run._passes(rnd.ops[0], outs[0])
    none_rnd = _cheap(workloads.relation_hunt(5, 1), lambda op: op.label == "none-n4-d100")
    none_outs = _outputs(none_rnd)
    assert not run._passes(rnd.ops[0], none_outs[0])
    assert not run._passes(rnd.ops[0], ValueError("raised"))


def test_tail_has_ten_samples_beyond():
    value, pct, n = run._tail([float(i) for i in range(100)])
    assert (value, n) == (89.0, 100) and pct == 90.0


def test_gauge_scales_by_the_probes_inside_the_call():
    gauge = run.SpeedGauge()
    with gauge.running():
        start = time.perf_counter()
        out, scaled, raw = gauge.time(lambda: time.sleep(0.1) or "done")
        elapsed = time.perf_counter() - start
    assert out == "done"
    inside = gauge.samples[1:]  # the first sample is taken before the call
    assert len(inside) >= 5
    assert raw == pytest.approx(elapsed, abs=1e-3)
    probes = [d for _, d in inside]
    assert scaled == pytest.approx((raw - sum(probes)) * run.PROBE_REF_S / statistics.fmean(probes))
    rnd = _cheap(workloads.mzv_table(5, 1), _low_weight)
    with run.SpeedGauge().running() as gauge:
        latencies, outs, total_raw = run._run_round(rnd, gauge)
    assert len(latencies) == len(outs) == len(rnd.ops)
    assert all(x > 0 for x in latencies) and total_raw > 0
