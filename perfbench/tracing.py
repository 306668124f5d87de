"""Per-layer attribution from outside the program: wrappers, spans, counts.

A traced pass replaces selected `eprsat` functions and methods with wrappers
and restores the originals afterwards.  A *span* wrapper times the call and
keeps a stack, so a layer's self time is its span's duration minus the time
its child spans cover.  A *count* wrapper only counts calls (and, where
asked, result sizes or hits); the time of its call stays with the enclosing
span.  Hot, tiny functions are counted rather than timed so the wrappers do
not bury the layers they measure.

A module-level function is replaced on every `eprsat.*` module attribute that
holds it, because modules import each other's functions by name (`solver`
imports `cover` and `find_candidates`).  Methods are replaced on the class.
"""
from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter
from typing import Callable, Optional

from eprsat import (audit, constrained, constraints, derive, oracle, parser,
                    render, solver, syntax, trail)

_MARK = "__perfbench_wrapper__"


def _is_some(r) -> bool:
    return r is not None


# (metric name, owner, attribute, result size or None, hit test or None)
SPANS: list[tuple[str, object, str, Optional[Callable], Optional[Callable]]] = [
    ("parser.parse_problem", parser, "parse_problem", None, None),
    ("constraints.normalize", constraints, "normalize", None, None),
    ("constraints.find_solution_enum", constraints, "find_solution_enum", None, None),
    ("constrained.cover", constrained, "cover", len, None),
    ("constrained.diff_pairs", constrained, "diff_pairs", None, None),
    ("constrained.elim_free_vars", constrained, "elim_free_vars", None, None),
    ("trail.is_assertive", trail, "is_assertive", None, None),
    ("derive.find_candidates", derive, "find_candidates", len, None),
    ("derive.is_blocked", derive, "is_blocked", None, _is_some),
    ("solver.solve", solver.Solver, "solve", None, None),
    ("solver.propagate", solver.Solver, "prop_loop", None, None),
    ("solver.consequences", solver.Solver, "add_consequences", None, None),
    ("solver.decide", solver.Solver, "select_decision", None, None),
    ("solver.full_scan", solver.Solver, "full_scan", None, None),
    ("solver.resolve", solver.Solver, "_resolution_step", None, None),
    ("solver.backjump_level", solver.Solver, "compute_backjump_level", None, None),
    ("solver.simplify", solver, "simplify_pool", None, None),
    ("audit.after_rule", audit.Auditor, "after_rule", None, None),
    ("audit.before_learn", audit.Auditor, "before_learn", None, None),
    ("audit.at_success", audit.Auditor, "at_success", None, None),
    ("oracle.ground_problem", oracle, "ground_problem", None, None),
    ("oracle.brute_sat", oracle, "brute_sat", None, None),
    ("oracle.verify_model", oracle, "verify_model", None, None),
    ("oracle.check_nonredundant", oracle, "check_nonredundant", None, None),
    ("render.merge_cover", render, "merge_cover", None, None),
    ("render.render_model", render, "render_model", None, None),
    ("render.render_trace", render, "render_trace", None, None),
]

COUNTS: list[tuple[str, object, str, Optional[Callable], Optional[Callable]]] = [
    ("syntax.mgu_atoms", syntax, "mgu_atoms", None, _is_some),
    ("constrained.rename_clit_fresh", constrained, "rename_clit_fresh", None, None),
    ("solver.queue", solver.Solver, "_enqueue", None, None),
    ("trail.value_of", trail.Trail, "value_of", None, None),
    ("trail.clause_instances", trail, "clause_instances", len, None),
    ("trail.cmp_clauses", trail.InducedOrdering, "cmp_clauses", None, None),
]

# Trace payloads: these renderers count as `render.payload` only when the
# innermost span is the solver's own (not preprocessing, not an audit).
PAYLOAD = [(render, "render_entry"), (render, "render_conflict"),
           (render, "render_clause")]

GROUND = (syntax, "ground_assignments")

LAYERS = ("parser", "constraints", "constrained", "trail", "derive", "solver",
          "audit", "oracle", "render")
# layers the solve phase reaches (audit hooks run inside Solver.solve)
SOLVE_LAYERS = ("constraints", "constrained", "trail", "derive", "solver",
                "audit", "oracle")
# layers whose spans enclose a call of ground_assignments
GROUND_LAYERS = ("constrained", "trail", "derive", "solver", "audit", "oracle",
                 "render")
REFEREE_LAYERS = ("audit", "oracle")


def wrapper_names() -> list[str]:
    """Every installed wrapper, as `owner.attribute`."""
    return [_owner_name(o, a) for _, o, a, _, _ in SPANS + COUNTS] + \
        [_owner_name(o, a) for o, a in PAYLOAD + [GROUND]]


def _owner_name(owner, attr: str) -> str:
    mod = getattr(owner, "__module__", None)
    if isinstance(owner, type):
        return f"{mod.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Span stack and counters for one traced pass.

    A frame is [span name, child time, layer, inside an oracle/audit span,
    phase].  The phase is the outermost span's name: `solver.solve` for the
    solve, `parser.parse_problem` or `solver.simplify` for set-up, a renderer
    or an oracle function for output and checking.  Self time is kept per
    phase, so `constrained.cover` reached from the queue is told apart from
    the same function reached from `merge_cover` or `verify_model`.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []
        self.fired: set[str] = set()    # every wrapper that ran, over all passes
        self.reset()

    def reset(self) -> None:
        """Start the counters of a new pass (wrappers keep the same stack)."""
        self.stack[:] = [["bench", 0.0, "bench", False, None]]
        self.self_s: Counter = Counter()     # (phase, span) -> seconds
        self.total_s: Counter = Counter()    # span -> seconds, children included
        self.calls: Counter = Counter()
        self.items: Counter = Counter()
        self.hits: Counter = Counter()
        self.ground: Counter = Counter()

    # -- wrapper factories -------------------------------------------------

    def span(self, name: str, orig, size, hit, fired: str):
        stack, clock = self.stack, self.clock
        layer = name.split(".", 1)[0]
        referee = layer in REFEREE_LAYERS
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, layer, referee or parent[3], parent[4] or name]
            stack.append(frame)
            t0 = clock()
            try:
                res = orig(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent[1] += dur
                tracer.self_s[frame[4], name] += dur - frame[1]
                tracer.total_s[name] += dur
                tracer.calls[name] += 1
                tracer.fired.add(fired)
            if size is not None:
                tracer.items[name] += size(res)
            if hit is not None and hit(res):
                tracer.hits[name] += 1
            return res

        return wrapper

    def count(self, name: str, orig, size, hit, fired: str):
        tracer = self

        def wrapper(*args, **kwargs):
            res = orig(*args, **kwargs)
            tracer.calls[name] += 1
            tracer.fired.add(fired)
            if size is not None:
                tracer.items[name] += size(res)
            if hit is not None and hit(res):
                tracer.hits[name] += 1
            return res

        return wrapper

    def payload(self, orig, fired: str):
        tracer, stack = self, self.stack

        def wrapper(*args, **kwargs):
            tracer.fired.add(fired)
            top = stack[-1][0]
            if top.startswith("solver.") and top != "solver.simplify":
                tracer.calls["render.payload"] += 1
            return orig(*args, **kwargs)

        return wrapper

    def grounding(self, orig, fired: str):
        """Counts the assignments yielded, for the innermost open span's layer
        and, outside every oracle/audit span, for the north-star total."""
        tracer, stack = self, self.stack

        def wrapper(vars_, n):
            frame = stack[-1]
            tracer.fired.add(fired)
            k = 0
            try:
                for d in orig(vars_, n):
                    k += 1
                    yield d
            finally:
                tracer.ground[frame[2]] += k
                if not frame[3]:
                    tracer.ground["outside_oracle_audit"] += k

        return wrapper

    # -- metrics -------------------------------------------------------------

    def solve_self_s(self) -> dict[str, float]:
        """Self time per span inside the solve phase."""
        return {k: v for (phase, k), v in self.self_s.items()
                if phase == "solver.solve"}

    def metrics(self) -> dict[str, float]:
        """The per-layer figures of the pass just traced."""
        m: dict[str, float] = {}
        for name, *_ in SPANS:
            m[f"{name}.self_s"] = sum(v for (_, k), v in self.self_s.items()
                                      if k == name)
        m["render.merge_cover.total_s"] = self.total_s["render.merge_cover"]
        for layer in LAYERS:
            m[f"layer.{layer}.self_s"] = sum(
                v for (_, k), v in self.self_s.items()
                if k.split(".", 1)[0] == layer)
        for layer in SOLVE_LAYERS:
            m[f"solve.{layer}.self_s"] = sum(
                v for (phase, k), v in self.self_s.items()
                if phase == "solver.solve" and k.split(".", 1)[0] == layer)
        for name in ("derive.find_candidates", "derive.is_blocked",
                     "constraints.normalize", "constraints.find_solution_enum",
                     "constrained.cover", "constrained.diff_pairs",
                     "trail.is_assertive", "syntax.mgu_atoms",
                     "constrained.rename_clit_fresh", "trail.value_of",
                     "trail.cmp_clauses", "render.payload"):
            m[f"{name}.calls"] = self.calls[name]
        m["solver.queue.pushes"] = self.calls["solver.queue"]
        m["derive.find_candidates.leaves"] = self.items["derive.find_candidates"]
        m["constrained.cover.atoms"] = self.items["constrained.cover"]
        m["trail.clause_instances.items"] = self.items["trail.clause_instances"]
        m["syntax.mgu_atoms.hit_ratio"] = _ratio(self.hits["syntax.mgu_atoms"],
                                                 self.calls["syntax.mgu_atoms"])
        m["derive.is_blocked.blocked_ratio"] = _ratio(
            self.hits["derive.is_blocked"], self.calls["derive.is_blocked"])
        for layer in GROUND_LAYERS + ("outside_oracle_audit",):
            m[f"ground.{layer}.items"] = self.ground[layer]
        return m

    # -- installation ----------------------------------------------------------

    @contextlib.contextmanager
    def install(self):
        """Install every wrapper for the `with` block; restore on exit."""
        patches: list[tuple[object, str, object]] = []
        try:
            for table, factory in ((SPANS, self.span), (COUNTS, self.count)):
                for name, owner, attr, size, hit in table:
                    orig = _original(owner, attr)
                    _patch(patches, owner, attr, orig,
                           factory(name, orig, size, hit, _owner_name(owner, attr)))
            for owner, attr in PAYLOAD:
                orig = _original(owner, attr)
                _patch(patches, owner, attr, orig,
                       self.payload(orig, _owner_name(owner, attr)))
            owner, attr = GROUND
            orig = _original(owner, attr)
            _patch(patches, owner, attr, orig,
                   self.grounding(orig, _owner_name(owner, attr)))
            yield self
        finally:
            while patches:
                holder, attr, orig = patches.pop()
                setattr(holder, attr, orig)


def _ratio(a: int, b: int) -> float:
    return a / b if b else 0.0


def _original(owner, attr: str):
    value = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if getattr(value, _MARK, False):
        raise RuntimeError(f"{_owner_name(owner, attr)} is already wrapped")
    return value


def _patch(patches: list, owner, attr: str, orig, wrapper) -> None:
    setattr(wrapper, _MARK, True)
    wrapper.__wrapped__ = orig
    wrapper.__name__ = attr
    if isinstance(owner, type):
        patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)
        return
    for holder in _eprsat_modules():
        for name, value in list(vars(holder).items()):
            if value is orig:
                patches.append((holder, name, orig))
                setattr(holder, name, wrapper)


def _eprsat_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "eprsat" or k.startswith("eprsat."))]


def installed_wrappers() -> list[str]:
    """Attributes of the program that hold a wrapper right now (should be
    none outside a traced pass)."""
    found = []
    classes = {o for _, o, *_ in SPANS + COUNTS if isinstance(o, type)}
    for holder in _eprsat_modules() + sorted(classes, key=lambda c: c.__name__):
        for name, value in list(vars(holder).items()):
            if getattr(value, _MARK, False):
                found.append(f"{getattr(holder, '__name__', holder)}.{name}")
    return found
