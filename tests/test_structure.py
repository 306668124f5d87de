"""Module structure: imports live at module level and form no cycle."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "eprsat"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_function_local_imports():
    found = []
    for path in MODULES:
        for fn in ast.walk(_tree(path)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append(f"{path.name}:{node.lineno} in {fn.name}")
    assert MODULES
    assert found == []


def test_package_imports_form_no_cycle():
    graph = {}
    for path in MODULES:
        deps = set()
        for node in _tree(path).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps.update([node.module] if node.module
                            else [a.name for a in node.names])
        graph[path.stem] = deps
    assert "solver" in graph["cli"]

    done, active = set(), []

    def visit(mod):
        assert mod not in active, " -> ".join(active + [mod])
        if mod in done:
            return
        active.append(mod)
        for dep in sorted(graph[mod]):
            visit(dep)
        active.pop()
        done.add(mod)

    for mod in sorted(graph):
        visit(mod)
