"""The statements of src/ffrg that no test reaches.

Runs the tests under tests/, all but the five-seed acceptance fixture
(tests/test_acceptance.py), in this process under sys.settrace, then
prints each statement inside a function body of src/ffrg, docstrings left
out, that no test executed, as "path:line: source".  A statement counts as
executed when any line of its own code (a compound statement's header, not
its bodies) ran; one that compiles to no code (a bare `try:`) is not
counted.  It needs no coverage package and takes about 90 s.

Usage:
    python scripts/reach.py

Exit status 0 when every statement was reached, 1 when one was not, and
pytest's own status when a test failed.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from types import CodeType

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
PACKAGE = os.path.join(ROOT, "src", "ffrg")


def _code_lines(code: CodeType) -> set[int]:
    """The lines that a code object and those nested in it hold code for."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _code_lines(const)
    return lines


def _bodies(node: ast.AST):
    """The statement lists nested in a statement (or except clause): its
    bodies, its except clauses and its match cases' bodies."""
    for field in ("body", "orelse", "finalbody", "handlers"):
        yield getattr(node, field, [])
    for case in getattr(node, "cases", ()):
        yield case.body


def _own_lines(node: ast.AST) -> set[int]:
    """The lines of a statement (or except clause) outside its bodies."""
    lines = set(range(node.lineno, node.end_lineno + 1))
    for body in _bodies(node):
        for child in body:
            lines -= set(range(child.lineno, child.end_lineno + 1))
    return lines


def statements(source: str) -> list[tuple[int, set[int]]]:
    """(first line, own lines) of each statement inside a function body."""
    found = []

    def visit(body: list, in_function: bool) -> None:
        for node in body:
            if in_function:
                found.append((node.lineno, _own_lines(node)))
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in _bodies(node):
                if is_def and inner is node.body and ast.get_docstring(node) is not None:
                    inner = inner[1:]
                visit(inner, in_function or is_def)

    visit(ast.parse(source).body, False)
    return found


def unreached(hits: set[tuple[str, int]]) -> list[str]:
    """"path:line: source" of each statement of the package that no hit reached."""
    out = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as f:
            source = f.read()
        code = _code_lines(compile(source, path, "exec"))
        text = source.splitlines()
        for first, lines in statements(source):
            if lines & code and not any((path, line) in hits for line in lines):
                out.append(f"{os.path.relpath(path, ROOT)}:{first}: {text[first - 1].strip()}")
    return out


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pytest

    hits: set[tuple[str, int]] = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename.startswith(PACKAGE) else None

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests"),
                              "--ignore", os.path.join(ROOT, "tests", "test_acceptance.py")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print(f"pytest exited {int(status)}; nothing reported", file=sys.stderr)
        return int(status)
    missed = unreached(hits)
    print("\n".join(missed) if missed else "every statement reached")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
