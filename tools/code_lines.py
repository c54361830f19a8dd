"""Code lines of a source tree's `src/`, per module and in total.

Usage:

    python tools/code_lines.py [CHECKOUT]

CHECKOUT (default: the checkout holding this script) is a susyqm source tree.
A code line is a line that holds a token other than a comment, a line break
or an indentation change, and that is not part of a docstring (the string a
module, class or function body starts with). Blank, comment and docstring
lines are left out, so a change counts only the code it adds or removes.
Prints one `<count> <module>` line per file under `src/`, then `<total> src/`.
"""

import ast
import glob
import io
import os
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers of every module, class and function docstring in `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(text):
    """Number of code lines in the Python source `text`."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main(argv):
    root = os.path.abspath(argv[1] if len(argv) > 1 else
                           os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    src = os.path.join(root, "src")
    total = 0
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(count, os.path.relpath(path, src))
    print(total, "src/")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
