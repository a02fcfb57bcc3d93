"""The rules every module under src/ keeps, read off its syntax tree, so
comments and docstrings do not count.

- Values are integer tuples that precision.py rounds itself, so no module
  imports mpmath or names mpmath, a context or mpmath's global precision;
  mpmath is the tests' oracle only.
- Records are NamedTuples or small slotted classes, because a dataclass is
  code-generated at every import, so no module imports dataclasses.
- A slotted record binds its slots through the slots' own descriptors,
  which are cheaper than a call of object.__setattr__, so src/ makes no
  such call.
- python -O strips assert statements, so a check in src/ raises
  explicitly: no module holds an assert, on a line of its own or not.
- A name with a leading underscore is private to its module, so no module
  imports one from another (``from .precision import _x``).
- State lives in memos (lru_caches and dicts that only cache what their
  arguments determine) and in a record's own slots, never in a name that a
  function rebinds, so no module holds a global or nonlocal statement.
- A `BigReal` holds its value as the raw pair ``_v``, (mantissa, binary
  exponent), which only precision.py reads or writes: every other module
  goes through its operators, `to_fraction` or a function of precision.py
  such as `round_scaled`, so no other module names ``_v``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

MODULES = {"mpmath", "dataclasses"}
NAMES = {"mpmath", "MPContext", "workdps", "workprec"}
RAW_PAIR_OWNER = "precision.py"


def violations(root: Path) -> list[str]:
    """"path:line: code" for each node under root's *.py files that breaks
    one of the rules."""
    found = []
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, (ast.Assert, ast.Global, ast.Nonlocal)):
                bad = True
            elif isinstance(node, ast.Import):
                bad = any(a.name.split(".")[0] in MODULES for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                bad = (node.module or "").split(".")[0] in MODULES or (
                    node.level > 0 and any(a.name.startswith("_") for a in node.names))
            elif isinstance(node, ast.Call):
                f = node.func
                bad = (isinstance(f, ast.Attribute) and f.attr == "__setattr__"
                       and isinstance(f.value, ast.Name) and f.value.id == "object")
            else:
                name = getattr(node, "id", getattr(node, "attr", None))
                bad = name in NAMES or (name == "_v" and path.name != RAW_PAIR_OWNER)
            if bad:
                found.append(f"{path}:{node.lineno}: {ast.get_source_segment(text, node)}")
    return found


def test_src_keeps_the_source_rules():
    found = violations(SRC)
    assert not found, (
        "src/ may not use mpmath (the tests' oracle only), import"
        " dataclasses (records are NamedTuples or slotted classes),"
        " call object.__setattr__ (bind slots through their"
        " descriptors), import another module's private names,"
        " assert (python -O strips asserts; raise explicitly), rebind a"
        " global or nonlocal name (state lives in memos) nor read a"
        " BigReal's raw pair _v outside precision.py:\n" + "\n".join(found)
    )


@pytest.mark.parametrize("module, code", [
    ("relations.py", "def f(x):\n    assert x\n"),
    ("relations.py", "def f():\n    global y\n"),
    ("relations.py", "def f():\n    y = 1\n    def g():\n        nonlocal y\n"),
    ("relations.py", "def f(x):\n    return x._v\n"),
    ("relations.py", "_v = 1\n"),
    ("model.py", "import mpmath.libmp\n"),
    ("model.py", "from dataclasses import dataclass\n"),
    ("model.py", "from .precision import _bits\n"),
    ("model.py", "object.__setattr__(x, 'a', 1)\n"),
    ("model.py", "def f(x):\n    return x.workdps\n"),
])
def test_each_rule_finds_a_planted_violation(module, code, tmp_path):
    (tmp_path / module).write_text(code, encoding="utf-8")
    found = violations(tmp_path)
    assert len(found) == 1 and found[0].startswith(f"{tmp_path / module}:"), found


def test_precision_may_read_the_raw_pair(tmp_path):
    (tmp_path / RAW_PAIR_OWNER).write_text("def f(x):\n    return x._v\n", encoding="utf-8")
    assert violations(tmp_path) == []
