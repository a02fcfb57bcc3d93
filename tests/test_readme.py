"""The README's `polyzeta eval` lines, run through the CLI: each must print
exactly the line the README shows under it."""

import re
import shlex
from pathlib import Path

import pytest

from polyzeta.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def _eval_examples():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines()
    return [
        (shlex.split(line[2:])[1:], lines[i + 1] + "\n")
        for i, line in enumerate(lines)
        if line.startswith("$ polyzeta eval ")
    ]


EXAMPLES = _eval_examples()


def test_readme_has_eval_examples():
    assert len(EXAMPLES) == 4


@pytest.mark.parametrize("argv, stdout", EXAMPLES, ids=[argv[1] for argv, _ in EXAMPLES])
def test_readme_eval_line(argv, stdout, monkeypatch, capsys):
    # the examples without --digits use the documented default of 50
    monkeypatch.delenv("POLYLOG_DIGITS", raising=False)
    assert run(argv) == 0
    assert capsys.readouterr().out == stdout
