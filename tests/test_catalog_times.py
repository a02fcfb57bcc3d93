"""tools/catalog_times.py, the growth table of identity_catalog with its
JSON lines: one row per weight with the count, each tree's least time and
growth, and the digest of the lines, which two trees must share."""

import hashlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# the catalog's JSON lines at weights 3-5, joined by newlines
DIGESTS = {
    3: "3138c0f656ec7287149d0fd583e7084600f5adc71c138e786cc36362c7df2824",
    4: "ffb84dad31902cda2dc42a61e027f6352f3ef4542d48d1405590885705bbbd1b",
    5: "2cfd8a3c1296989a6ca8a9dad83fee004c57e02d3daa46fb35dc4bf63b86f326",
}
COUNTS = {3: 3, 4: 8, 5: 20}


def test_the_digests_are_the_catalog_lines():
    from polyzeta.identities import identity_catalog

    for w, digest in DIGESTS.items():
        lines = [ident.to_json() for ident in identity_catalog(w)]
        assert len(lines) == COUNTS[w]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


def test_catalog_times_prints_one_row_per_weight(capsys, monkeypatch, load_tool):
    tool = load_tool("catalog_times")
    monkeypatch.setattr(tool, "BUDGET_S", 0.0)  # TIMED_BUILDS builds a process
    assert tool.main([str(ROOT), str(ROOT), "--weights", "3-5", "--rounds", "1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == [
        "weight", "identities", "tree", "1", "ms", "growth", "tree", "2", "ms", "growth",
        "change", "sha256",
    ]
    assert len(rows) == 3
    for w, row in zip(range(3, 6), rows):
        cells = row.split()
        assert cells[:2] == [str(w), str(COUNTS[w])]
        assert float(cells[2]) > 0 and float(cells[4]) > 0
        if w == 3:  # no growth before the first weight
            assert cells[3] == cells[5] == "-"
        else:
            assert cells[3].startswith("x") and cells[5].startswith("x")
        assert cells[-2:] == [DIGESTS[w], "same"]


def test_catalog_times_one_tree_prints_the_digest(capsys, monkeypatch, load_tool):
    tool = load_tool("catalog_times")
    monkeypatch.setattr(tool, "BUDGET_S", 0.0)
    assert tool.main([str(ROOT), "--weights", "4", "--rounds", "1"]) == 0
    _, row = capsys.readouterr().out.splitlines()
    cells = row.split()
    assert cells[:2] == ["4", "8"] and cells[3] == "-"
    assert cells[-1] == DIGESTS[4]


def test_a_failed_child_names_its_tree_and_shows_its_stderr(tmp_path, load_tool):
    # a tree whose polyzeta fails to import: the script stops with one
    # line that names the tree, then the child's own traceback
    tool = load_tool("catalog_times")
    broken = tmp_path / "broken"
    (broken / "src" / "polyzeta").mkdir(parents=True)
    (broken / "src" / "polyzeta" / "__init__.py").write_text('raise ImportError("planted")\n')
    with pytest.raises(SystemExit) as stop:
        tool.main([str(broken), "--weights", "3", "--rounds", "1"])
    first, *rest = str(stop.value.code).splitlines()
    assert re.fullmatch(re.escape(f"{broken}: ") + r".* exited with status 1:", first)
    assert rest[-1] == "ImportError: planted"


@pytest.mark.parametrize("options", [["--weights"], ["--rounds", "x"], ["--weights", "a-b"]])
def test_a_bad_option_exits_with_the_usage(options, load_tool):
    tool = load_tool("catalog_times")
    with pytest.raises(SystemExit) as stop:
        tool.main([str(ROOT), *options])
    assert stop.value.code == tool.__doc__


@pytest.mark.parametrize("argv", [["--help"], [str(ROOT), "-w", "3"]])
def test_an_unknown_option_exits_with_the_usage(argv, load_tool):
    tool = load_tool("catalog_times")
    with pytest.raises(SystemExit) as stop:
        tool.main(argv)
    assert stop.value.code == tool.__doc__


def test_a_bad_tree_is_named_before_any_child_runs(tmp_path, monkeypatch, load_tool):
    # a second tree that is missing, or a directory without src/polyzeta,
    # stops the script before the first tree's first process
    tool = load_tool("catalog_times")
    measured = []
    monkeypatch.setattr(tool, "_measure", lambda tree, weight: measured.append(tree))
    for bad in (tmp_path / "missing", tmp_path):
        with pytest.raises(SystemExit) as stop:
            tool.main([str(ROOT), str(bad), "--weights", "3", "--rounds", "1"])
        assert stop.value.code == (
            f"{bad}: not a checkout of this repository (no src/polyzeta directory)")
    assert measured == []
