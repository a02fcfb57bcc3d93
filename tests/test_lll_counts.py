"""tools/lll_counts.py, the LLL swaps and size reductions of lindep per
relation_hunt cell: the counts that each call of relations._lll returns,
which two runs must give alike."""

import re
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def tiny_corpus(tool):
    """The first planted and the first relation-free reference, at n = 4 and
    100 digits: one stops at a lift, the other runs the pre pass and the
    final pass."""
    vectors = tool._references(ROOT)
    return [next(v for v in vectors if v["cell"] == cell)
            for cell in ("planted-n4-d100", "none-n4-d100")]


def test_two_runs_count_alike(monkeypatch, load_tool):
    tool = load_tool("lll_counts")
    vectors = tiny_corpus(tool)
    runs = []
    for seed in ("0", "1"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        runs.append(tool._count(ROOT, vectors))
    assert runs[0] == runs[1]
    planted, free = runs[0]
    assert planted["lifts"] == 1 and planted["lift_swaps"] > 0
    assert planted["pre_swaps"] == planted["pre_reductions"] == 0
    assert planted["final_swaps"] == planted["final_reductions"] == 0
    assert planted["verdict"][0] is not None and planted["verdict"][1] is None
    assert free["lifts"] == 2 and free["pre_swaps"] > 0 and free["pre_reductions"] > 0
    assert free["final_reductions"] > 0
    assert free["verdict"][0] is None and free["verdict"][1] is not None


def test_two_trees_print_each_cell_the_totals_and_the_verdicts(capsys, monkeypatch, load_tool):
    tool = load_tool("lll_counts")
    vectors = tiny_corpus(tool)
    monkeypatch.setattr(tool, "_references", lambda tree: vectors)
    assert tool.main([str(ROOT), str(ROOT)]) == 0
    header, *rows, total, change, verdicts = capsys.readouterr().out.splitlines()
    assert header.split("|")[1].split() == [
        "1:", "lifts", "1:", "lift", "swaps", "1:", "lift", "sizered",
        "1:", "pre", "swaps", "1:", "pre", "sizered",
        "1:", "final", "swaps", "1:", "final", "sizered",
    ]
    assert [row.split()[0] for row in rows] == ["planted-n4-d100", "none-n4-d100"]
    for row in rows + [total]:
        _, first, second = row.split("|")
        assert first.split() == second.split()
    assert change.split("|")[2].split() == ["+0.0%"] * 7
    assert verdicts == "verdicts: all 2 the same"


def test_a_failed_child_names_its_tree_and_shows_its_stderr(tmp_path, monkeypatch, load_tool):
    # a tree whose polyzeta fails to import: the script stops with one
    # line that names the tree, then the child's own traceback
    tool = load_tool("lll_counts")
    vectors = tiny_corpus(tool)
    monkeypatch.setattr(tool, "_references", lambda tree: vectors)
    broken = tmp_path / "broken"
    (broken / "src" / "polyzeta").mkdir(parents=True)
    (broken / "src" / "polyzeta" / "__init__.py").write_text('raise ImportError("planted")\n')
    with pytest.raises(SystemExit) as stop:
        tool.main([str(broken)])
    first, *rest = str(stop.value.code).splitlines()
    assert re.fullmatch(re.escape(f"{broken}: ") + r".* exited with status 1:", first)
    assert rest[-1] == "ImportError: planted"


def patched_tree(tmp_path, old, new):
    """A tree holding this checkout's src/ with one text of relations.py
    replaced."""
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    module = tree / "src" / "polyzeta" / "relations.py"
    text = module.read_text(encoding="utf-8")
    assert text.count(old) == 1
    module.write_text(text.replace(old, new), encoding="utf-8")
    return tree


def test_a_tree_without_the_pre_pass_reads_zero_there(tmp_path, load_tool):
    tool = load_tool("lll_counts")
    vectors = tiny_corpus(tool)
    tree = patched_tree(tmp_path, "        u = _lift(u, column, LOVASZ)\n", "        pass\n")
    planted, free = tool._count(tree, vectors)
    assert free["pre_swaps"] == free["pre_reductions"] == 0
    assert free["final_swaps"] > 0 and free["final_reductions"] > 0
    assert [planted["verdict"], free["verdict"]] == [
        r["verdict"] for r in tool._count(ROOT, vectors)]


def test_an_unknown_caller_of_lll_stops_the_count_and_is_named(tmp_path, monkeypatch, load_tool):
    # the pre pass reached through a function the tool has no phase for
    tool = load_tool("lll_counts")
    vectors = tiny_corpus(tool)
    monkeypatch.setattr(tool, "_references", lambda tree: vectors)
    tree = patched_tree(tmp_path, "        u = _lift(u, column, LOVASZ)\n",
                        "        u = (lambda: _lift(u, column, LOVASZ))()\n")
    with pytest.raises(SystemExit) as stop:
        tool.main([str(tree)])
    assert str(stop.value.code).splitlines()[-1] == (
        "relations._lll called from _lift < <lambda>, which names no phase")


def test_a_tree_whose_lll_returns_no_counts_stops_the_count_and_is_named(
        tmp_path, monkeypatch, load_tool):
    # an _lll that returns only its rows and d, as before it counted its work
    tool = load_tool("lll_counts")
    vectors = tiny_corpus(tool)
    monkeypatch.setattr(tool, "_references", lambda tree: vectors)
    tree = patched_tree(
        tmp_path,
        "\n    return [_unpack(row, width, len(rows[0])) for row in v], d, swaps, reductions\n",
        "\n    return [_unpack(row, width, len(rows[0])) for row in v], d\n")
    with pytest.raises(SystemExit) as stop:
        tool.main([str(tree)])
    first, *rest = str(stop.value.code).splitlines()
    assert first == f"{tree}: the counting process exited with status 1:"
    assert rest == ["relations._lll returns no swap and size-reduction counts"]


@pytest.mark.parametrize("argv", [["--help"], ["-h"], [str(ROOT), "--weights", "3"]])
def test_an_unknown_option_exits_with_the_usage(argv, load_tool):
    tool = load_tool("lll_counts")
    with pytest.raises(SystemExit) as stop:
        tool.main(argv)
    assert stop.value.code == tool.__doc__


def test_a_bad_tree_is_named_before_any_tree_is_counted(tmp_path, monkeypatch, load_tool):
    # a second tree that is missing, or a directory without src/polyzeta,
    # stops the script before it reads or counts the first
    tool = load_tool("lll_counts")
    read = []
    monkeypatch.setattr(tool, "_references", lambda tree: read.append(tree))
    monkeypatch.setattr(tool, "_count", lambda tree, vectors: read.append(tree))
    for bad in (tmp_path / "missing", tmp_path):
        with pytest.raises(SystemExit) as stop:
            tool.main([str(ROOT), str(bad)])
        assert stop.value.code == (
            f"{bad}: not a checkout of this repository (no src/polyzeta directory)")
    assert read == []
