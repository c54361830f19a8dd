"""tools/code_lines.py: which lines count as code, on made-up sources."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

DOCUMENTED = textwrap.dedent('''\
    """Module docstring,
    over two lines."""

    # a comment line


    def f():
        """Function docstring."""
        return 1  # a trailing comment leaves its line code


    class C:
        """Class
        docstring."""

        x = 2


    def g():
        y = 3
        """No docstring: it does not start the body."""
    ''')

MULTI_LINE = textwrap.dedent('''\
    total = (1 +
             2 +

             # a comment inside the brackets
             3)
    text = """one
    two"""
    ''')


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docstring_comment_and_blank_lines_are_not_counted(code_lines):
    # def f, return, class C, x = 2, def g, y = 3, and the string that
    # follows y = 3, which starts no body
    assert code_lines.code_lines(DOCUMENTED) == 7


def test_each_line_of_a_multi_line_statement_with_a_token_counts(code_lines):
    # the three lines of the sum that hold a token, not its blank or comment
    # line, and both lines of the string
    assert code_lines.code_lines(MULTI_LINE) == 5


def test_made_up_tree_counts_per_module_and_in_total(code_lines, tmp_path, capsys):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('"""Only a docstring."""\n', encoding="utf-8")
    (package / "documented.py").write_text(DOCUMENTED, encoding="utf-8")
    (package / "multi_line.py").write_text(MULTI_LINE, encoding="utf-8")
    (tmp_path / "tools.py").write_text("outside = 1\n", encoding="utf-8")  # not under src/
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0 pkg/__init__.py", "7 pkg/documented.py", "5 pkg/multi_line.py", "12 src/"]
