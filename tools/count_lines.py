"""Print the code lines and the lines in all of Python source files.

A code line holds a token that is not a comment, a docstring or
whitespace: tokenize finds the tokens, ast the docstrings (the first
statement of a module, class or function, if it is a string).

    python tools/count_lines.py src/resokit/*.py
"""

import ast
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def counts(path: str) -> tuple:
    """(code lines, lines in all) of the Python file at path."""
    with open(path, "rb") as f:
        source = f.read()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add((first.lineno, first.col_offset))
    code = set()
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
                continue
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code), source.count(b"\n")


def main(paths) -> int:
    for path in paths:
        code, total = counts(path)
        print(f"{path}: {code} code lines, {total} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
