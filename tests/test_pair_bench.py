"""tools/pair_bench.py --out and --claim: the pair runs land in a file of
the BENCH_<n>.json layout, created on the first run and extended after; and
checkouts that do not lie side by side, or one with bytecode under src/,
are refused before any run."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "pair_bench.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("pair_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_record_writes_and_extends_the_bench_layout(tmp_path):
    tool = load_tool()
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


def test_claim_must_name_an_end_to_end_metric():
    tool = load_tool()
    with pytest.raises(SystemExit, match="no end-to-end metric 'speed'"):
        tool.main([str(ROOT), str(ROOT), "identity_session", "1", "--claim", "speed"])
    with pytest.raises(SystemExit):  # an option without its value
        tool.main([str(ROOT), str(ROOT), "identity_session", "1", "--out"])


def test_refuses_a_checkout_with_bytecode_under_src(tmp_path):
    # bytecode under either src/ skips the compile that setup_s times, so
    # the tool names that checkout and stops before any run, deleting nothing
    tool = load_tool()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        (checkout / "src" / "polyzeta").mkdir(parents=True)
        (checkout / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cache = change / "src" / "polyzeta" / "__pycache__"
    cache.mkdir()
    with pytest.raises(SystemExit, match="^" + re.escape(f"{change}: bytecode under src/")):
        tool.main([str(parent), str(change), "identity_session", "1"])
    assert cache.is_dir()


def test_refuses_checkouts_that_do_not_share_a_directory(tmp_path):
    # where a checkout lies moves setup_s and peak_rss_mb, so the tool names
    # both checkouts and stops before any run, deleting nothing
    tool = load_tool()
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
