"""The package exports exactly the names the README lists."""

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
