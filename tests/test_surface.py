"""The package exports exactly the names the README lists, every
submodule name the README mentions exists there, and every function or
class src/ defines is used in src/, exported or documented."""

import ast
import importlib
import re
from pathlib import Path

import polyzeta

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SRC = ROOT / "src" / "polyzeta"


def readme_exports() -> list[str]:
    """Backquoted names in the bullet list that follows the README's
    ``polyzeta.__all__`` line."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if "(`polyzeta.__all__`)" in line)
    names = []
    for line in lines[start + 2:]:
        if not line.strip():
            break
        names.extend(re.findall(r"`(\w+)`", line))
    return names


def test_exports_match_the_readme():
    documented = readme_exports()
    assert len(documented) == len(set(documented)) == 24
    assert sorted(polyzeta.__all__) == sorted(documented)
    for name in polyzeta.__all__:
        assert getattr(polyzeta, name) is not None, name


def readme_submodule_names() -> list[tuple[str, str]]:
    """(module, name) for each backquoted call or name in the README
    paragraph that starts "Everything else lives in its submodule", read
    as belonging to the last `polyzeta.<module>` before it.  Backquoted
    text that is not a name, such as `x ** n`, is skipped."""
    text = README.read_text(encoding="utf-8")
    start = text.index("Everything else lives in its submodule")
    paragraph = text[start:text.index("\n\n", start)]
    pairs = []
    module = None
    for quoted in re.findall(r"`([^`]+)`", paragraph):
        if quoted.startswith("polyzeta."):
            module = quoted
            continue
        m = re.fullmatch(r"(\w+)(\(.*\))?", quoted)
        if m:
            pairs.append((module, m.group(1)))
    return pairs


def test_readme_submodule_names_exist():
    pairs = readme_submodule_names()
    assert len(pairs) == 18
    for module, name in pairs:
        assert module is not None, name
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def unreferenced_definitions() -> list[tuple[str, str]]:
    """(module, name) for each module-level function or class of
    src/polyzeta that no other top-level statement of src/ names, as a
    name or an attribute.  An import is no use, nor is a mention in a
    string or a comment.  Dunder hooks such as a module's ``__getattr__``
    are called by Python, so they are left out."""
    definitions, statements = [], []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            named = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}
            statements.append((stmt, named))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("__"):
                definitions.append((path.stem, stmt))
    return [(module, d.name) for module, d in definitions
            if not any(d.name in named for stmt, named in statements if stmt is not d)]


def test_every_definition_in_src_is_used_exported_or_documented():
    # src/ keeps only what the program runs or the README offers: a
    # function only the tests call lives beside them (tests/paper_forms.py)
    public = set(polyzeta.__all__) | {name for _, name in readme_submodule_names()}
    unused = [f"{module}.{name}" for module, name in unreferenced_definitions()
              if name not in public]
    assert not unused, f"defined in src/, called only from outside it: {unused}"
    assert sorted(name for _, name in unreferenced_definitions()) == ["lll_reduce", "parse_spec"]
