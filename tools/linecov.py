"""Print the statements of ``src/chromlc`` that no test executes.

    python tools/linecov.py [pytest arguments]

A line tracer on ``sys.settrace`` alone, for machines without ``coverage``.
It runs pytest in this process, records every line executed in
``src/chromlc``, and then prints each line that holds bytecode but never
ran, as ``path:line: source``.  Def, class and import lines and docstrings
are left out: they run when the module is imported.  The exit code is
pytest's when pytest fails; when it passes, 1 if any line never ran and 0
otherwise, so the tool is a check that the suite runs every line.  The
suite takes about twice as long under the tracer.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "chromlc"


def code_lines(code) -> set:
    """Every line that holds bytecode in ``code`` or in a code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def import_time_lines(tree) -> set:
    """Def and class headers with their decorators, imports and docstrings."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            skip.update(range(first, node.body[0].lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            skip.update(range(node.lineno, node.end_lineno + 1))
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.body:
            doc = node.body[0]
            if isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant) and isinstance(doc.value.value, str):
                skip.update(range(doc.lineno, doc.end_lineno + 1))
    return skip


def main(argv) -> int:
    executed = {}  # resolved path -> lines run
    tracers = {}  # co_filename -> the line tracer of its file, or None outside src/chromlc

    def tracer_for(filename):
        path = os.path.realpath(filename)
        if os.path.dirname(path) != str(SRC):
            return None
        lines = executed.setdefault(path, set())

        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in tracers:
            tracers[filename] = tracer_for(filename)
        return tracers[filename]

    sys.settrace(trace_calls)
    try:
        code = pytest.main(list(argv))
    finally:
        sys.settrace(None)
    missed = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = code_lines(compile(text, str(path), "exec")) - import_time_lines(ast.parse(text))
        source = text.splitlines()
        for line in sorted(lines - executed.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} lines of src/chromlc never ran", file=sys.stderr)
    return code or int(missed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
