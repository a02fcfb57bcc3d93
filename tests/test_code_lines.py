"""tools/code_lines.py, the line count that simplicity changes report:
docstrings, comment-only lines and blank lines do not count, and a
triple-quoted string that is no docstring counts every line it spans."""

SOURCE = '''"""Module docstring,
over two lines."""

# a comment-only line
import os  # a trailing comment


def f(x):
    """Function docstring."""

    # another comment
    text = """a triple-quoted string
that is no docstring
spans three lines"""
    return os.path.join(x, text)


class C:
    """Class
    docstring."""

    y = 1
'''
# import os, def f, the three lines of text, return, class C, y = 1
CODE_LINES = 8


def test_code_lines_counts_only_code(tmp_path, capsys, load_tool):
    tool = load_tool("code_lines")
    package = tmp_path / "src" / "polyzeta"
    package.mkdir(parents=True)
    (package / "synthetic.py").write_text(SOURCE, encoding="utf-8")
    (package / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n', encoding="utf-8")
    assert tool.code_lines(package / "synthetic.py") == CODE_LINES
    assert tool.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     0  empty.py",
        f"{CODE_LINES:6d}  synthetic.py",
        f"{CODE_LINES:6d}  total",
    ]
