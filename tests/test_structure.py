"""Module structure: imports live at module level and form no cycle."""
import ast
import pathlib

import eprsat

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


def test_no_unused_module_level_import():
    found = []
    for path in MODULES:
        tree = _tree(path)
        names = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names.update((a.asname or a.name, node.lineno) for a in node.names)
            elif isinstance(node, ast.Import):
                names.update((a.asname or a.name.split(".")[0], node.lineno)
                             for a in node.names)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        # a package re-exports what it lists in __all__
        used |= {e.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                 for e in node.value.elts}
        found += [f"{path.name}:{line} {name}" for name, line in names.items()
                  if name not in used]
    assert found == []


def test_renaming_apart_and_diff_pairs_stay_in_constrained():
    """Outside `constrained`, only `Solver._push` (every trail entry gets
    fresh variables) uses `rename_clit_fresh`, and nothing uses `diff_pairs`:
    the lifted steps rename apart in `constrained.meet` and `diff_apart`."""
    found = []
    for path in MODULES:
        if path.stem == "constrained":
            continue
        tree = _tree(path)
        allowed = set()
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name == "Solver":
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef) and fn.name == "_push":
                        allowed |= {id(n) for n in ast.walk(fn)}
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if (name in ("rename_clit_fresh", "diff_pairs")
                    and isinstance(node, (ast.Name, ast.Attribute))
                    and id(node) not in allowed):
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def _calls_outside(name, method):
    """Every call of `name` in src/ outside the method `Solver.<method>`."""
    found = []
    for path in MODULES:
        tree = _tree(path)
        allowed = {id(n) for cls in tree.body
                   if isinstance(cls, ast.ClassDef) and cls.name == "Solver"
                   for fn in cls.body
                   if isinstance(fn, ast.FunctionDef) and fn.name == method
                   for n in ast.walk(fn)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in allowed
                  and name in (getattr(node.func, "id", None),
                               getattr(node.func, "attr", None))]
    return found


def test_a_propagation_candidate_is_made_only_by_derive():
    """`PropCand(...)` is built only inside `Solver._derive`, which sizes it:
    Propagate pushes a piece of the queued candidate, not a new one."""
    assert _calls_outside("PropCand", "_derive") == []


def test_one_routine_takes_the_trail_difference():
    """`diff_apart` is called in src/ only by `Solver._undefined_pieces`
    (`constrained.difference`, the public helper, aside): propagation, the
    backjump level, `full_scan` and the decision pool share that one call."""
    found = _calls_outside("diff_apart", "_undefined_pieces")
    assert [f for f in found if not f.startswith("constrained.py")] == []


# the enumerating helpers, by the module that defines them; only the oracle,
# the audits and the tests may call them
GROUNDING = {
    "syntax": {"ground_assignments"},
    "constraints": {"solutions"},
    "constrained": {"cover"},
    "trail": {"_instances", "clause_instances", "ground_walk", "is_assertive"},
}
SOLVER_SIDE = ("syntax", "constraints", "constrained", "trail", "derive",
               "solver", "render")


def test_only_the_referee_helpers_ground():
    """In the solver-side modules only the grounding helpers themselves
    reference a grounding helper, and the modules that define none
    (`derive`, `solver`, `render`) import none."""
    found = []
    for mod in SOLVER_SIDE:
        tree = _tree(SRC / f"{mod}.py")
        own = GROUNDING.get(mod, set())
        names = set(own)   # the local names that denote a grounding helper
        modules = {}       # local name -> package module, for `from . import`
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None:
                        modules[a.asname or a.name] = a.name
                    if a.name in GROUNDING.get(node.module, ()):
                        names.add(a.asname or a.name)
                        if not own:
                            found.append(f"{mod}.py:{node.lineno} imports {a.name}")
        allowed = {id(n) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and fn.name in own
                   for n in ast.walk(fn)}
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if isinstance(node, ast.Name):
                hit = node.id in names
            elif isinstance(node, ast.Attribute):
                hit = (isinstance(node.value, ast.Name) and node.attr
                       in GROUNDING.get(modules.get(node.value.id), ()))
            else:
                continue
            if hit:
                found.append(f"{mod}.py:{node.lineno} "
                             f"{getattr(node, 'id', None) or node.attr}")
    assert found == []


def test_no_private_name_is_imported_from_a_sibling():
    """An underscore-prefixed name is its module's own: no other module of
    the package imports it."""
    found = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and (
                    node.level == 1 or (node.module or "").startswith("eprsat")):
                found += [f"{path.name}:{node.lineno} {a.name}"
                          for a in node.names if a.name.startswith("_")]
    assert found == []


# definitions nothing in `src/` calls, kept on purpose: each is a referee,
# a round-trip check or a hook that something outside `src/` needs
REFEREES = {
    "solutions": "test oracle for the constraint semantics",
    "is_normal": "test oracle for the constraint normal form",
    "parse_model": "reads a model document back: the round-trip check",
    "trace_decisions": "reads a trace back: the round-trip check",
    "render_problem": "writes a problem back: the round-trip check",
    "error": "argparse hook (`_ArgumentParser.error`)",
}


def test_every_definition_has_a_caller_in_src():
    """Every module-level function and class of `src/` is used where it can
    be: an `ast.Name` refers to it in its own module or in a module that
    imports it by that name, or the package imports it and lists it in
    `eprsat.__all__`.  A same-named definition elsewhere does not keep it.
    Every method of such a class is used by name (an `ast.Name` or
    `ast.Attribute`) somewhere in `src/` or exported; that scan goes by name
    alone, so same-named methods count as one name.  A dunder, and a kept
    referee named in `REFEREES`, need no use."""
    trees = {path.stem: _tree(path) for path in MODULES}
    exported = set(eprsat.__all__)
    names = {mod: {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
             for mod, tree in trees.items()}
    used = set().union(*names.values()) | {
        n.attr for tree in trees.values() for n in ast.walk(tree)
        if isinstance(n, ast.Attribute)}
    importers = {}   # (module, name) -> the modules importing it by that name
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if a.asname in (None, a.name):
                        importers.setdefault((node.module, a.name), set()).add(mod)
    defs = []        # (qualified name, name, used)
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            where = {mod} | importers.get((mod, node.name), set())
            defs.append((f"{mod}.{node.name}", node.name,
                         any(node.name in names[m] for m in where)
                         or (node.name in exported and "__init__" in where)))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{mod}.{node.name}.{d.name}", d.name,
                          d.name in used or d.name in exported)
                         for d in node.body if isinstance(d, ast.FunctionDef)]
    assert defs
    unused = {(q, name) for q, name, hit in defs
              if not hit and not (name.startswith("__") and name.endswith("__"))}
    dead = sorted(q for q, name in unused if name not in REFEREES)
    assert not dead, "no caller in src/: " + ", ".join(dead)
    assert {name for _, name in unused} == set(REFEREES)


# parameters their function's body never reads, kept on purpose: each is
# part of a public signature
UNREAD = {
    "constrained.is_empty(lit)": "public signature; the constraint alone "
                                 "decides emptiness",
}


def test_every_parameter_is_read():
    """Every parameter of a `src/` function or method (nested ones too),
    a method's `self` aside, is read somewhere in its body, or is listed in
    `UNREAD` with its reason."""
    unread = []
    for path in MODULES:
        for fn in ast.walk(_tree(path)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            params = [p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg] if p is not None]
            read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.stem}.{fn.name}({p})" for p in params
                       if p not in read and p != "self"]
    assert sorted(unread) == sorted(UNREAD)


# parameter defaults that every `src/` call site overrides, kept on purpose
OVERRIDDEN = {
    "solver.Solver.__init__(auditor)": "tests build unaudited solvers",
}


def test_every_default_is_used():
    """Every parameter default of a `src/` function or method is used: some
    call in `src/` that names the function (by name alone, as the caller
    gate matches; a `Cls(...)` call names `Cls.__init__`) omits the
    parameter, or it is listed in `OVERRIDDEN` with its reason.  Calls from
    tests do not count.  Another dunder, and a definition that no `src/`
    call names (a kept referee or an export, which the caller gate vouches
    for), serve callers outside `src/` and are not scanned."""
    trees = [_tree(path) for path in MODULES]
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                calls.setdefault(getattr(f, "id", None) or getattr(f, "attr", None),
                                 []).append(node)

    def omits(call, i, param):
        return (len(call.args) <= i
                and not any(isinstance(a, ast.Starred) for a in call.args)
                and all(k.arg not in (param, None) for k in call.keywords))

    unused = []
    for path, tree in zip(MODULES, trees):
        # functions whose first parameter is bound at the call (`self`)
        bound = {id(fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)
                 and "staticmethod" not in {getattr(d, "id", None)
                                            for d in fn.decorator_list}}
        # constructors, by the class name their calls use
        inits = {id(fn): cls.name for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for fn in cls.body
                 if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or (
                    fn.name.startswith("__") and id(fn) not in inits):
                continue
            called = inits.get(id(fn), fn.name)
            name = f"{called}.__init__" if id(fn) in inits else fn.name
            a = fn.args
            params = [*a.posonlyargs, *a.args][id(fn) in bound:]
            defaulted = [(i, p.arg) for i, p in enumerate(params)
                         if i >= len(params) - len(a.defaults)]
            defaulted += [(len(params), p.arg) for p, d
                          in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            sites = calls.get(called, [])
            unused += [f"{path.stem}.{name}({p})" for i, p in defaulted
                       if sites and not any(omits(c, i, p) for c in sites)]
    assert sorted(unused) == sorted(OVERRIDDEN)
