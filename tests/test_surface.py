"""The package exports exactly the names the README lists, and every
submodule name the README mentions exists there."""

import importlib
import re
from pathlib import Path

import polyzeta

README = Path(__file__).resolve().parents[1] / "README.md"


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
    assert len(pairs) == 21
    for module, name in pairs:
        assert module is not None, name
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
