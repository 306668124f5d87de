"""Dismatching constraints: conjunctions of tuple disequations.

A constraint is TOP, BOT, or a conjunction of atomic subconstraints
``lhs != rhs`` over equal-length term tuples.  Normal form demands that
every lhs holds only variables (C1), none repeated (C2).  A grounding of
the lhs variables violates the constraint when some rhs tuple matches the
instantiated lhs tuple.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .syntax import (
    Subst,
    apply_args,
    fresh_var,
    match_args,
    mgu_args,
)

Pair = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class Constraint:
    kind: str  # 'top' | 'bot' | 'and'
    subs: tuple[Pair, ...] = ()

    def __post_init__(self) -> None:
        if self.kind == "and" and not self.subs:
            raise ValueError("empty conjunction; use TOP")

    @property
    def is_top(self) -> bool:
        return self.kind == "top"

    @property
    def is_bot(self) -> bool:
        return self.kind == "bot"


TOP = Constraint("top")
BOT = Constraint("bot")


def conj(subs: Iterable[Pair]) -> Constraint:
    subs = tuple(subs)
    return Constraint("and", subs) if subs else TOP


def conjoin(*cs: Constraint) -> Constraint:
    """The conjunction of `cs`, normalized; BOT as soon as a part is BOT."""
    subs: tuple[Pair, ...] = ()
    for c in cs:
        if c.kind == "and":
            subs += c.subs
        elif c.kind == "bot":
            return BOT
    return normalize(conj(subs))


def lvars(c: Constraint) -> list[int]:
    out: list[int] = []
    if c.kind == "and":
        for lhs, _ in c.subs:
            for t in lhs:
                if t < 0 and t not in out:
                    out.append(t)
    return out


def rvars(c: Constraint) -> list[int]:
    out: list[int] = []
    if c.kind == "and":
        for _, rhs in c.subs:
            for t in rhs:
                if t < 0 and t not in out:
                    out.append(t)
    return out


def apply_constraint(c: Constraint, s: Subst) -> Constraint:
    """Apply a substitution to the left-hand sides.

    Standing assumption: the substitution never touches right-hand-side
    variables (their namespaces are kept disjoint by construction).
    """
    if c.kind != "and":
        return c
    if __debug__:
        rv = set(rvars(c))
        assert not (set(s) & rv), "substitution binds rhs variables"
    return Constraint("and", tuple((apply_args(lhs, s), rhs) for lhs, rhs in c.subs))


def rename_rhs_fresh(c: Constraint) -> Constraint:
    if c.kind != "and":
        return c
    ren = {v: fresh_var() for v in rvars(c)}
    return Constraint("and", tuple((lhs, apply_args(rhs, ren)) for lhs, rhs in c.subs))


def rename_constraint(c: Constraint, ren: Subst) -> Constraint:
    """Rename on both sides (used when renaming a whole constrained literal)."""
    if c.kind != "and":
        return c
    return Constraint(
        "and",
        tuple((apply_args(lhs, ren), apply_args(rhs, ren)) for lhs, rhs in c.subs),
    )


# ---------------------------------------------------------------------------
# normal form transformation

def _rhs_canon(lhs: tuple[int, ...], rhs: tuple[int, ...]) -> tuple:
    # key identifying a subconstraint up to renaming of its rhs variables
    seen: dict[int, int] = {}
    canon = []
    for t in rhs:
        if t < 0:
            if t not in seen:
                seen[t] = len(seen)
            canon.append((1, seen[t]))
        else:
            canon.append((0, t))
    return (lhs, tuple(canon))


def _normalize_sub(lhs: tuple[int, ...], rhs: tuple[int, ...]) -> Optional[Pair]:
    """Normalize one subconstraint.  None means TOP (drop); BOT raises _Bot."""
    lhs = tuple(lhs)
    rhs = tuple(rhs)
    assert len(lhs) == len(rhs)
    changed = True
    while changed:
        changed = False
        # rule 1: identical constants at a position
        # rule 2: distinct constants -> TOP
        # rule 3: lhs constant against rhs variable -> drop, instantiate rhs
        for i, (s, t) in enumerate(zip(lhs, rhs)):
            if s >= 0:
                if t >= 0:
                    if s == t:
                        lhs = lhs[:i] + lhs[i + 1:]
                        rhs = rhs[:i] + rhs[i + 1:]
                    else:
                        return None
                else:
                    sub = {t: s}
                    lhs = lhs[:i] + lhs[i + 1:]
                    rhs = apply_args(rhs[:i] + rhs[i + 1:], sub)
                changed = True
                break
        if changed:
            continue
        # rule 4: () != ()
        if not lhs:
            raise _Bot
        # rules 5/6: repeated lhs variable
        for i in range(len(lhs)):
            dup = None
            for j in range(i + 1, len(lhs)):
                if lhs[j] == lhs[i]:
                    dup = j
                    break
            if dup is not None:
                u = mgu_args([(rhs[i], rhs[dup])])
                if u is None:
                    return None  # rule 6
                lhs = lhs[:dup] + lhs[dup + 1:]
                rhs = apply_args(rhs[:dup] + rhs[dup + 1:], u)
                changed = True
                break
        if changed:
            continue
        # rule 7: rhs matches lhs entirely
        if match_args(rhs, lhs) is not None:
            raise _Bot
        # rule 8: drop positions whose rhs variable occurs nowhere else
        counts: dict[int, int] = {}
        for t in rhs:
            if t < 0:
                counts[t] = counts.get(t, 0) + 1
        droppable = [i for i, t in enumerate(rhs) if t < 0 and counts[t] == 1]
        if droppable and len(droppable) < len(lhs):
            keep = [i for i in range(len(lhs)) if i not in droppable]
            lhs = tuple(lhs[i] for i in keep)
            rhs = tuple(rhs[i] for i in keep)
            changed = True
        elif droppable:
            # every position droppable: the rhs matches outright
            raise _Bot
    return lhs, rhs


class _Bot(Exception):
    pass


def normalize(c: Constraint) -> Constraint:
    """Rewrite into normal form (C1, C2), collapsing TOP/BOT members."""
    if c.kind != "and":
        return c
    out: list[Pair] = []
    seen: set[tuple] = set()
    for lhs, rhs in c.subs:
        try:
            nf = _normalize_sub(lhs, rhs)
        except _Bot:
            return BOT
        if nf is None:
            continue
        key = _rhs_canon(*nf)
        if key in seen:
            continue
        seen.add(key)
        out.append(nf)
    return conj(out)


def is_normal(c: Constraint) -> bool:
    """C1/C2 plus the variable-disjointness conditions, machine-checkable."""
    if c.kind != "and":
        return True
    lv: set[int] = set()
    rhs_var_sets: list[set[int]] = []
    for lhs, rhs in c.subs:
        if len(lhs) != len(rhs) or not lhs:
            return False
        if any(t >= 0 for t in lhs):
            return False  # C1
        if len(set(lhs)) != len(lhs):
            return False  # C2
        lv.update(lhs)
        rhs_var_sets.append({t for t in rhs if t < 0})
    for i, a in enumerate(rhs_var_sets):
        if a & lv:
            return False
        for b in rhs_var_sets[i + 1:]:
            if a & b:
                return False
    return True


# ---------------------------------------------------------------------------
# semantics

def violates(delta: Subst, c: Constraint) -> bool:
    """True iff delta is not a solution: some rhs matches the grounded lhs."""
    if c.is_top:
        return False
    if c.is_bot:
        return True
    for lhs, rhs in c.subs:
        grounded = apply_args(lhs, delta)
        if match_args(rhs, grounded) is not None:
            return True
    return False


def solutions(c: Constraint, variables: list[int], n: int) -> list[Subst]:
    """Exhaustive solution enumeration over `variables` (the test oracle)."""
    if __debug__:
        assert set(lvars(c)) <= set(variables)
        assert not (set(variables) & set(rvars(c)))
    out = []
    for combo in itertools.product(range(n), repeat=len(variables)):
        delta = dict(zip(variables, combo))
        if not violates(delta, c):
            out.append(delta)
    return out


def find_solution_enum(c: Constraint, variables: list[int], n: int) -> Optional[Subst]:
    """Least solution w.r.t. the enumeration order, or None.

    Starts from the all-least assignment.  On a violated subconstraint the
    right-most involved position is bumped (with carry to the left across all
    variables) and everything to the right resets, which skips the whole
    block sharing the violating combination.
    """
    if c.is_bot:
        return None
    if __debug__:
        assert set(lvars(c)) <= set(variables)
        assert not (set(variables) & set(rvars(c)))
    if c.is_top or not variables:
        return dict.fromkeys(variables, 0)
    pos = {v: i for i, v in enumerate(variables)}
    vals = [0] * len(variables)

    def bump(at: int) -> bool:
        # increment position `at` with carry leftward; reset everything right
        i = at
        while i >= 0:
            if vals[i] < n - 1:
                vals[i] += 1
                for j in range(i + 1, len(vals)):
                    vals[j] = 0
                return True
            i -= 1
        return False

    while True:
        delta = dict(zip(variables, vals))
        offending = None
        for lhs, rhs in c.subs:
            if match_args(rhs, apply_args(lhs, delta)) is not None:
                offending = lhs
                break
        if offending is None:
            return delta
        rightmost = max(pos[v] for v in offending if v < 0)
        if not bump(rightmost):
            return None
