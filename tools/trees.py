"""Run python in checkouts of this repository and read a tool's command line.

The tools that compare checkouts (trees) share this module: a tool reads
its arguments through `command_line` and each tree through `read_tree`,
runs each tree's code in a child process through `run`, and takes the
order of the trees in each pair or round from `turns`.  Scripts run as
``python tools/X.py`` find it on their own ``sys.path``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path


def run(tree: Path, what: str, args: list[str], stdin: str | None = None) -> str:
    """The stdout of ``python ARGS`` run in tree, with PYTHONPATH the
    absolute tree/src alone and every other variable of os.environ as it is.
    A failed child stops the tool with "TREE: the WHAT exited with status
    N:" and then the child's stderr."""
    child = subprocess.run(
        [sys.executable, *args], cwd=tree, input=stdin, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(tree.resolve() / "src")),
    )
    if child.returncode:
        sys.exit(f"{tree}: the {what} exited with status {child.returncode}:\n"
                 + child.stderr.rstrip())
    return child.stdout


def command_line(argv: list[str], doc: str, counts: set[int],
                 options: dict) -> tuple[list[str], dict]:
    """argv's positional arguments and the value of each option.  options
    maps an option's name to (reader, default): the reader turns the word
    after the option into its value.  A word that starts with "-" and names
    no option (--help among them), a number of positional arguments outside
    counts, an option without its value, or a value its reader rejects with
    ValueError exits with doc, the tool's usage."""
    values = {name: default for name, (_, default) in options.items()}
    args = []
    words = iter(argv)
    try:
        for word in words:
            if word in options:
                values[word] = options[word][0](next(words))
            elif word.startswith("-"):
                sys.exit(doc)
            else:
                args.append(word)
    except (StopIteration, ValueError):
        sys.exit(doc)
    if len(args) not in counts:
        sys.exit(doc)
    return args, values


def read_tree(word: str) -> Path:
    """The tree that word names.  It must be a directory holding
    src/polyzeta; anything else exits with a message that names it, before
    the tool reads or runs anything in any tree."""
    tree = Path(word)
    if not (tree / "src" / "polyzeta").is_dir():
        sys.exit(f"{word}: not a checkout of this repository (no src/polyzeta directory)")
    return tree


def turns(trees: list, i: int) -> list:
    """The order in which trees run in pair or round i: as given when i is
    even, reversed when it is odd."""
    return trees if i % 2 == 0 else trees[::-1]
