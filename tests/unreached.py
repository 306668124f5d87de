"""The statements of src/ that tier-1 never executes.

It runs the tier-1 suite in this process under `sys.settrace` and prints
each statement of `src/eprsat` whose lines never ran, as `path:line: text`,
then a count.  Docstrings, `try:` headers and `global` declarations are
left out (a `try:` body is listed statement by statement); code that a test
runs in a subprocess is not seen.  A listed statement is one no tier-1 input reaches:
a candidate for deletion, unless it is input validation or the contract of
a public helper.  Pytest does not collect this script.  Run from the
repository root:

    PYTHONPATH=src python3 tests/unreached.py

It takes several times as long as tier-1.  It exits with pytest's status;
unreached statements alone never fail it.
"""
import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "eprsat"

_ours: dict[str, bool] = {}          # co_filename -> lies in SRC
_hit: set[tuple[str, int]] = set()   # (co_filename, line) that ran


def _line(frame, event, arg):
    if event == "line":
        _hit.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    ours = _ours.get(name)
    if ours is None:
        ours = _ours[name] = Path(name).resolve().parent == SRC
    return _line if ours else None


def _is_docstring(node, parent) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str) and parent.body[0] is node)


def statements(path: Path):
    """(first line, last line of its header) of each statement of `path`
    that compiles to code."""
    tree = ast.parse(path.read_text())
    for parent in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            body = getattr(parent, field, [])
            for node in body if isinstance(body, list) else ():   # not a lambda's
                if (_is_docstring(node, parent)
                        or isinstance(node, (ast.Try, ast.Global, ast.Nonlocal))):
                    continue
                first = min([node.lineno]
                            + [d.lineno for d in getattr(node, "decorator_list", [])])
                inner = [c.lineno for f in ("body", "orelse", "finalbody", "handlers")
                         for c in getattr(node, f, [])]
                yield first, (min(inner) - 1 if inner else node.end_lineno)


def main() -> int:
    sys.path.insert(0, str(SRC.parent))
    threading.settrace(_call)
    sys.settrace(_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran: dict[Path, set[int]] = {}
    for name, line in _hit:
        ran.setdefault(Path(name).resolve(), set()).add(line)
    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        hit = ran.get(path.resolve(), set())
        for first, last in sorted(statements(path)):
            total += 1
            if hit.isdisjoint(range(first, max(first, last) + 1)):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{missed} of {total} src/ statements never executed under tier-1")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
