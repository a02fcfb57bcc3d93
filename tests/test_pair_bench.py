"""tools/pair_bench.py --out and --claim: the pair runs land in a file of
the BENCH_<n>.json layout, created on the first run and extended after; and
checkouts that do not lie side by side, or one with bytecode under src/,
are refused before any run."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_record_writes_and_extends_the_bench_layout(tmp_path, load_tool):
    tool = load_tool("pair_bench")
    out = tmp_path / "BENCH_x.json"
    run = {"workload": "identity_session", "seed": 1, "run_seconds": 15, "pairs": 10,
           "parent_runs": [], "change_runs": [], "metrics": {}}
    tool._record(out, run, "wall_s", 15)
    tool._record(out, dict(run, seed=7), None, 15)
    bench = json.loads(out.read_text(encoding="utf-8"))
    assert list(bench) == ["what", "command", "method", "facts", "claim", "runs"]
    assert "--seconds 15" in bench["method"]
    assert set(bench["facts"]) >= {"python", "nproc", "platform"}
    # a later run without --claim keeps the claim the file holds
    assert bench["claim"] == {"workload": "identity_session", "metric": "wall_s",
                              "rule": tool.RULE}
    assert [r["seed"] for r in bench["runs"]] == [1, 7]


def test_claim_must_name_an_end_to_end_metric(load_tool):
    tool = load_tool("pair_bench")
    with pytest.raises(SystemExit, match="no end-to-end metric 'speed'"):
        tool.main([str(ROOT), str(ROOT), "identity_session", "1", "--claim", "speed"])
    with pytest.raises(SystemExit):  # an option without its value
        tool.main([str(ROOT), str(ROOT), "identity_session", "1", "--out"])


def test_refuses_a_checkout_with_bytecode_under_src(tmp_path, load_tool):
    # bytecode under either src/ skips the compile that setup_s times, so
    # the tool names that checkout and stops before any run, deleting nothing
    tool = load_tool("pair_bench")
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        (checkout / "src" / "polyzeta").mkdir(parents=True)
        (checkout / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cache = change / "src" / "polyzeta" / "__pycache__"
    cache.mkdir()
    with pytest.raises(SystemExit, match="^" + re.escape(f"{change}: bytecode under src/")):
        tool.main([str(parent), str(change), "identity_session", "1"])
    assert cache.is_dir()


def test_refuses_checkouts_that_do_not_share_a_directory(tmp_path, load_tool):
    # where a checkout lies moves setup_s and peak_rss_mb, so the tool names
    # both checkouts and stops before any run, deleting nothing
    tool = load_tool("pair_bench")
    parent, change = tmp_path / "parent", tmp_path / "elsewhere" / "change"
    for checkout in (parent, change):
        (checkout / "src" / "polyzeta").mkdir(parents=True)
        (checkout / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    with pytest.raises(SystemExit, match="^" + re.escape(
            f"{parent} and {change} lie in different directories")):
        tool.main([str(parent), str(change), "identity_session", "1"])
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "elsewhere", "elsewhere/change", "elsewhere/change/BENCHMARK.json",
        "elsewhere/change/src", "elsewhere/change/src/polyzeta",
        "parent", "parent/BENCHMARK.json", "parent/src", "parent/src/polyzeta",
    ]


def test_refuses_a_checkout_without_src_polyzeta(tmp_path, load_tool):
    # a missing checkout is named before its BENCHMARK.json is read
    tool = load_tool("pair_bench")
    missing = tmp_path / "missing"
    with pytest.raises(SystemExit) as stop:
        tool.main([str(ROOT), str(missing), "identity_session", "1"])
    assert stop.value.code == (
        f"{missing}: not a checkout of this repository (no src/polyzeta directory)")


def test_a_failed_run_names_its_checkout_and_shows_its_stderr(tmp_path, load_tool):
    # a checkout without perfbench/run.py fails its first run: the tool
    # stops with one line that names the checkout, then python's own error
    tool = load_tool("pair_bench")
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        (checkout / "src" / "polyzeta").mkdir(parents=True)
        (checkout / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    with pytest.raises(SystemExit) as stop:
        tool.main([str(parent), str(change), "identity_session", "1"])
    first, *rest = str(stop.value.code).splitlines()
    assert re.fullmatch(re.escape(f"{parent}: ") + r".* exited with status 2:", first)
    assert "can't open file" in rest[-1] and "run.py" in rest[-1]


@pytest.mark.parametrize("same", [False, True], ids=["two checkouts", "one checkout twice"])
def test_each_side_runs_ten_times_and_the_first_side_alternates(
        same, tmp_path, monkeypatch, capsys, load_tool):
    # a faked run puts its call number in every metric, so each side's runs
    # show when they ran, also where one checkout stands on both sides
    tool = load_tool("pair_bench")
    parent, change = (tmp_path / "tree",) * 2 if same else (tmp_path / "parent", tmp_path / "change")
    for checkout in {parent, change}:
        (checkout / "src" / "polyzeta").mkdir(parents=True)
        (checkout / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]]
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append(checkout)
        return dict.fromkeys(names, 100 + len(calls))

    monkeypatch.setattr(tool, "_run", fake_run)
    assert tool.main([str(parent), str(change), "identity_session", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    # the parent goes first in pairs 1, 3, 5, ... and the change in 2, 4, 6, ...
    assert calls == [parent, change, change, parent] * 5
    assert [r["wall_s"] for r in result["parent_runs"]] == [101 + 2 * i + i % 2 for i in range(10)]
    assert [r["wall_s"] for r in result["change_runs"]] == [102 + 2 * i - i % 2 for i in range(10)]
    assert result["suspect_runs"] == []


def test_a_suspect_run_lies_five_times_from_its_sides_median(load_tool):
    # BENCH_45.json's identity_session seed-1 parent run 9 read wall_s
    # 0.00072 s against 0.015-0.017 s in the other 19 runs of that code
    tool = load_tool("pair_bench")
    bench = json.loads((ROOT / "BENCH_45.json").read_text(encoding="utf-8"))
    run, = [r for r in bench["runs"] if r["workload"] == "identity_session" and r["seed"] == 1]
    suspects = tool._suspects({"parent": run["parent_runs"], "change": run["change_runs"]})
    assert [(s["side"], s["run"]) for s in suspects] == [("parent", 9)]
    assert suspects[0]["wall_s"] == run["parent_runs"][8]["wall_s"]
    assert 22 < suspects[0]["ratio"] < 23
