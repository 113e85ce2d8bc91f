#!/usr/bin/env python3
"""Code lines of the package, per module and in total.

    python3 tools/code_lines.py [directory]

A code line is a line that holds a token which is not a comment, a
docstring or whitespace.  A token that spans lines, such as a
multi-line string that is not a docstring, holds each of its lines.
The directory defaults to ``src/leray`` beside this one; every
``*.py`` file in it is counted.
"""

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree):
    """(line, column) of each docstring: the string constant that opens
    a module, class or function body."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source):
    docstrings = docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in LAYOUT or (tok.type == tokenize.STRING
                                  and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv):
    directory = argv[1] if len(argv) > 1 else os.path.join(ROOT, "src",
                                                           "leray")
    total = 0
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as f:
                n = code_lines(f.read())
            print("%6d  %s" % (n, name))
            total += n
    print("%6d  total" % total)


if __name__ == "__main__":
    main(sys.argv)
