"""List the statements of src/gridfreq that no tier-1 test runs.

It runs the tier-1 suite in this process under a ``sys.settrace`` tracer
started before gridfreq is imported, so module-level statements count,
and records each line of src/gridfreq that runs.  A statement ran when
a line of it ran that holds bytecode; for a compound statement (``if``,
``for``, ``def`` ...) only its header's lines are its own.  Code that
runs in a child process (a ``python -m gridfreq.cli`` run, a sweep's
pool) is not seen, so the body of a module's
``if __name__ == "__main__":`` is not listed.

Run as ``python tests/untested.py`` from the repository root; arguments
go on to pytest.  It prints each statement that no test ran as
``file:line``, then their count, and exits 1 when it printed any, so CI
fails on an untested statement; otherwise it exits with pytest's status.
"""

import ast
import dis
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gridfreq"


def _code_lines(code) -> set:
    """The lines that hold bytecode in code and the code nested in it."""
    lines = {line for _, line in dis.findlinestarts(code) if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            lines |= _code_lines(const)
    return lines


def statements(source: str, filename: str = "<source>") -> dict:
    """Each statement's first line, mapped to the lines it owns that hold
    bytecode; a statement that owns none is left out, and so is the body
    of a module's ``if __name__ == "__main__":``, which runs only in a
    child process."""
    code_lines = _code_lines(compile(source, filename, "exec"))
    tree = ast.parse(source, filename)
    script = set()
    for node in tree.body:
        if (isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"):
            script.update(range(node.body[0].lineno, node.end_lineno + 1))
    owned = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node.lineno in script:
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        lines = code_lines.intersection(range(first, max(first, last) + 1))
        if lines:
            owned[first] = lines
    return owned


def untested(hits: dict) -> list:
    """(path, line) of each statement of the package that no hit covers;
    hits maps a file name to the set of its lines that ran."""
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        ran = hits.get(str(path), set())
        owned = statements(path.read_text(encoding="utf-8"), str(path))
        out += [(path, first) for first, lines in sorted(owned.items())
                if not lines & ran]
    return out


def exit_status(missed: list, status: int) -> int:
    """1 when any statement ran under no test, else pytest's status."""
    return 1 if missed else int(status)


def main(args) -> int:
    hits = {}
    prefix = str(PACKAGE) + "/"

    def trace_lines(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set())
        return trace_lines

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        import pytest
        status = pytest.main(["-q", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = untested(hits)
    for path, line in missed:
        print(f"{path.relative_to(ROOT)}:{line}")
    print(f"{len(missed)} statements of src/gridfreq run by no test")
    return exit_status(missed, status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
