"""tools/lll_counts.py, the LLL swaps and size reductions of lindep per
relation_hunt cell: counts read from cProfile's call counts, which two runs
must give alike."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "lll_counts.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("lll_counts", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny_corpus(tool):
    """The first planted and the first relation-free reference, at n = 4 and
    100 digits: one stops at a lift, the other runs the final pass."""
    vectors = tool._references(ROOT)
    return [next(v for v in vectors if v["cell"] == cell)
            for cell in ("planted-n4-d100", "none-n4-d100")]


def test_two_runs_count_alike(monkeypatch):
    tool = load_tool()
    vectors = tiny_corpus(tool)
    runs = []
    for seed in ("0", "1"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        runs.append(tool._count(ROOT, vectors))
    assert runs[0] == runs[1]
    planted, free = runs[0]
    assert planted["lifts"] == 1 and planted["lift_swaps"] > 0
    assert planted["final_swaps"] == planted["final_reductions"] == 0
    assert planted["verdict"][0] is not None and planted["verdict"][1] is None
    assert free["lifts"] == 2 and free["final_swaps"] > 0 and free["final_reductions"] > 0
    assert free["verdict"][0] is None and free["verdict"][1] is not None


def test_two_trees_print_each_cell_the_totals_and_the_verdicts(capsys, monkeypatch):
    tool = load_tool()
    vectors = tiny_corpus(tool)
    monkeypatch.setattr(tool, "_references", lambda tree: vectors)
    assert tool.main([str(ROOT), str(ROOT)]) == 0
    header, *rows, total, change, verdicts = capsys.readouterr().out.splitlines()
    assert header.split("|")[1].split() == [
        "1:", "lifts", "1:", "lift", "swaps", "1:", "lift", "sizered",
        "1:", "final", "swaps", "1:", "final", "sizered",
    ]
    assert [row.split()[0] for row in rows] == ["planted-n4-d100", "none-n4-d100"]
    for row in rows + [total]:
        _, first, second = row.split("|")
        assert first.split() == second.split()
    assert change.split("|")[2].split() == ["+0.0%"] * 5
    assert verdicts == "verdicts: all 2 the same"
