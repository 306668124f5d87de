"""Dismatching constraints: conjunctions of tuple disequations.

A constraint is TOP, BOT, or a conjunction of atomic subconstraints
``lhs != rhs`` over equal-length term tuples.  Normal form demands that
every lhs holds only variables (C1), none repeated (C2).  A grounding of
the lhs variables violates the constraint when some rhs tuple matches the
instantiated lhs tuple.

Normal form is kept, not recomputed.  The `normal` mark, outside equality
and hashing, says a constraint is what `normalize` returns.  `normalize`,
`conjoin` and `instantiate` set it on what they compute; the renamings and
`subset` keep it, since a bijective renaming and a subset keep normal form.
Nothing else may set it: these trust a marked constraint's subconstraints
as they are (`instantiate` renormalizes only those its substitution binds,
`conjoin` only dedups), and a hand-built, unmarked constraint is
normalized in full.

Every constraint a lifted step or `find_solution_enum` sees is normal: the
search bumps lhs variables, and a ground lhs has none.  A caller's own
constraint is normalized where it comes in: `conjoin`, `instantiate`, and
`constrained`'s public `is_empty` and `difference`.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .syntax import (
    Subst,
    apply_args,
    args_vars,
    match_args,
    mgu_args,
    numbered,
    renaming_for,
)

Pair = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class Constraint:
    kind: str  # 'top' | 'bot' | 'and'
    subs: tuple[Pair, ...] = ()
    normal: bool = field(default=False, compare=False, repr=False)

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
    """The conjunction of `cs`, normalized: each part alone (a marked one
    as it is), then their subconstraints deduplicated in order."""
    parts = [c if c.normal else normalize(c) for c in cs if not c.is_top]
    if any(c.is_bot for c in parts):
        return BOT
    if len(parts) == 1:
        return parts[0]
    return _dedup([sub for c in parts for sub in c.subs])


def lvars(c: Constraint) -> list[int]:
    return args_vars(t for lhs, _ in c.subs for t in lhs)


def rvars(c: Constraint) -> list[int]:
    return args_vars(t for _, rhs in c.subs for t in rhs)


def rename_rhs_fresh(c: Constraint) -> Constraint:
    if c.kind != "and":
        return c
    ren = renaming_for(rvars(c))
    return Constraint("and", tuple((lhs, apply_args(rhs, ren)) for lhs, rhs in c.subs),
                      c.normal)


def rename_constraint(c: Constraint, ren: Subst) -> Constraint:
    """Rename on both sides (used when renaming a whole constrained literal);
    `ren` maps c's variables one-to-one onto variables."""
    if c.kind != "and":
        return c
    return Constraint(
        "and",
        tuple((apply_args(lhs, ren), apply_args(rhs, ren)) for lhs, rhs in c.subs),
        c.normal,
    )


def subset(c: Constraint, subs: tuple[Pair, ...]) -> Constraint:
    """The conjunction of `subs`, some of c's subconstraints in c's order;
    marked normal when c is."""
    return Constraint("and", subs, c.normal) if subs else TOP


# ---------------------------------------------------------------------------
# normal form transformation

def _normalize_sub(lhs: tuple[int, ...], rhs: tuple[int, ...]) -> Optional[Pair]:
    """Normalize one subconstraint in one left-to-right pass.  None means
    TOP (drop it); ``((), ())`` is BOT (rule 4's ``() != ()``)."""
    assert len(lhs) == len(rhs)
    # rules 1-3: an lhs constant drops its position; it binds an rhs
    # variable against it (3) and is TOP against another constant (2)
    bound: Subst = {}
    for s, t in zip(lhs, rhs):
        if s >= 0 and (t if t >= 0 else bound.setdefault(t, s)) != s:
            return None
    # rules 5/6: unify the rhs terms under each repeated lhs variable, first
    # variable first, and keep its first position
    at: dict[int, list[int]] = {}
    for s, t in zip(lhs, apply_args(rhs, bound)):
        if s < 0:
            at.setdefault(s, []).append(t)
    lv = tuple(at)
    rv = tuple(ts[0] for ts in at.values())
    dups = [(ts[0], t) for ts in at.values() for t in ts[1:]]
    if dups:
        u = mgu_args(dups)
        if u is None:
            return None
        rv = apply_args(rv, u)
    # rules 4, 7 and 8: keep the positions whose rhs term is a constant or
    # a repeated variable; with none kept the rhs matches outright (BOT)
    keep = [i for i, t in enumerate(rv) if t >= 0 or rv.count(t) > 1]
    return tuple(lv[i] for i in keep), tuple(rv[i] for i in keep)


def normalize(c: Constraint) -> Constraint:
    """Rewrite into normal form (C1, C2), collapsing TOP/BOT members; a
    marked constraint is returned as it is."""
    if c.kind != "and" or c.normal:
        return c
    return _renormalize(c, {})


def instantiate(c: Constraint, s: Subst) -> Constraint:
    """The normal form of `c` with `s` (which binds no rhs variable) applied
    to every lhs.  On a marked `c` only the subconstraints whose lhs `s`
    binds are renormalized."""
    if c.kind != "and":
        return c
    if __debug__:
        assert not (set(s) & set(rvars(c))), "substitution binds rhs variables"
    return _renormalize(c, s)


def _renormalize(c: Constraint, s: Subst) -> Constraint:
    out: list[Pair] = []
    touched = False
    for sub in c.subs:
        lhs, rhs = sub
        new = apply_args(lhs, s)
        if c.normal and new == lhs:
            out.append(sub)
            continue
        touched = True
        nf = _normalize_sub(new, rhs)
        if nf is not None:
            if not nf[0]:
                return BOT
            out.append(nf)
    return _dedup(out) if touched else c


def _dedup(subs: list[Pair]) -> Constraint:
    """Normal subconstraints, each at its first occurrence up to renaming
    its rhs, as a marked conjunction."""
    out: list[Pair] = []
    seen: set[tuple] = set()
    for sub in subs:
        key = (sub[0], numbered(sub[1]))
        if key not in seen:
            seen.add(key)
            out.append(sub)
    return Constraint("and", tuple(out), True) if out else TOP


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
        rhs_var_sets.append(set(args_vars(rhs)))
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
    if c.is_top:
        return dict.fromkeys(variables, 0)
    if __debug__:
        assert set(lvars(c)) <= set(variables)
        assert not (set(variables) & set(rvars(c)))
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
        rightmost = max(map(pos.get, offending))
        if not bump(rightmost):
            return None
