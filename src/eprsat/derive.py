"""Candidate derivation: resolving clause literals against trail entries.

A derivation tuple carries a remainder of a clause, the accumulated
substitution and constraint, and the trail entry each resolved literal used.
Tuples whose remainder is empty are conflict candidates; single-literal
remainders are propagation candidates.  Each resolution step is
`constrained.meet`: it renames the entry fresh, so one entry can justify
several independent instances in a single derivation (constraints stay
right-hand-side disjoint), and it renames nothing that cannot unify.  A
search that must use the newest entry is cut as soon as no unresolved
literal can still unify with it.

Each literal is offered only the entries that hold, at each of its constant
arguments, that constant or a variable: an argument index built lazily per
call (Sekar, Ramakrishnan & Voronkov, *Term Indexing*).  Any other entry
fails `meet` before it is renamed, so the renames, the fresh-variable
numbering and the leaves in their order are those of offering every entry
of the literal's (predicate, sign).  Positions go in clause order and
entries in trail order: resolving the most constrained position first
(fail-first) would reorder the renames and the leaves, and forward checking
per node was measured slower on the colourings.

The same machinery answers every other question the solver asks about false
clause instances, without grounding.  A conflict derivation (no literal
kept) picks, for every literal, the trail entry that falsifies it; strong
consistency makes that the literal's defining entry.  So assertiveness is a
count of top-level entries among a leaf's sources, a blocked decision is a
derivation using the decision as a pseudo-entry at two positions whose
instances can differ, and a clause is falsifiable under a trail prefix when
the solver's derivation against it has a conflict leaf.  Non-emptiness of a
leaf is always the least-solution test of `constrained.no_instances`.  The
grounding versions in `trail` serve only as referees.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .constrained import cover_size, least_instance, meet, no_instances
from .constraints import (
    TOP,
    Constraint,
    apply_constraint,
    conj,
    conjoin,
    rename_rhs_fresh,
)
from .syntax import (
    Clause,
    Lit,
    Subst,
    apply_args,
    apply_clause,
    apply_lit,
    args_vars,
    compose,
    mgu_many,
    renaming_for,
    unifiable_apart,
)
from .trail import Trail, TrailEntry


@dataclass(frozen=True)
class DTuple:
    """One maximal derivation outcome for a clause against the trail."""

    remaining: tuple[int, ...]          # unresolved literal positions
    sigma: Subst
    pi: Constraint
    used: tuple[tuple[int, int], ...]   # (position, entry pos); extras negative


def find_candidates(
    clause: Clause,
    sources: list[TrailEntry],
    newest_pos: Optional[int] = None,
    keep_limit: int = 1,
    extra: Optional[list[tuple[Lit, Constraint]]] = None,
) -> list[DTuple]:
    """All maximal derivation tuples for `clause` against `sources`.

    keep_limit bounds the remainder size of reported tuples.
    With `newest_pos`, only derivations touching that entry at least once
    are explored: a node that has not used it yet is cut when no later
    position's literal, under the node's sigma, unifies with it.  Sigma only
    grows along a branch, so the cut loses no leaf and keeps leaf order.
    Extra pseudo-entries get pseudo-positions -1, -2, ...
    """
    need_newest = newest_pos is not None
    pool: list[tuple[int, Lit, Constraint]] = [
        (e.pos, e.lit, e.pi) for e in sources
    ]
    if extra:
        pool += [(-1 - i, lit, pi) for i, (lit, pi) in enumerate(extra)]

    by_pred: dict[tuple[str, bool], list[tuple[int, Lit, Constraint]]] = {}
    for src in pool:
        by_pred.setdefault((src[1].pred, src[1].neg), []).append(src)
    # (predicate, sign, argument position j, constant c) -> the bucket's
    # sources holding c or a variable at j, in bucket order; built lazily
    by_arg: dict[tuple[str, bool, int, int], list[tuple[int, Lit, Constraint]]] = {}

    def bucket(l: Lit) -> list[tuple[int, Lit, Constraint]]:
        return by_pred.get((l.pred, not l.neg), [])

    def compatible(lit: Lit) -> list[tuple[int, Lit, Constraint]]:
        # `lit` is a clause literal under the node's sigma; a source clashing
        # with one of its constants would fail `meet` before any renaming
        whole = best = bucket(lit)
        for j, c in enumerate(lit.args):
            if c < 0:
                continue
            key = (lit.pred, not lit.neg, j, c)
            got = by_arg.get(key)
            if got is None:
                got = by_arg[key] = [src for src in whole
                                     if src[1].args[j] == c or src[1].args[j] < 0]
            if len(got) < len(best):
                best = got
        return best

    # the newest entry's literal at each position it is compatible with
    newest = [next((src[1] for src in bucket(clause[p]) if src[0] == newest_pos), None)
              for p in range(len(clause))] if need_newest else []

    def reaches_newest(pos: int, sigma: Subst) -> bool:
        return any(nl is not None
                   and unifiable_apart(apply_args(clause[p].args, sigma), nl.args)
                   for p, nl in enumerate(newest[pos:], pos))

    out: list[DTuple] = []

    def leaf_ok(kept: list[int], sigma: Subst, pi: Constraint) -> bool:
        # maximality: no kept literal still resolves against any source
        for p in kept:
            lit = apply_lit(clause[p], sigma)
            if any(meet(lit, pi, src_lit, src_pi) is not None
                   for _, src_lit, src_pi in compatible(lit)):
                return False
        return True

    def rec(pos: int, kept: list[int], sigma: Subst, pi: Constraint,
            uses: int, used: list[tuple[int, int]]) -> None:
        if need_newest and uses == 0 and not reaches_newest(pos, sigma):
            return
        if pos == len(clause):
            if leaf_ok(kept, sigma, pi):
                out.append(DTuple(tuple(kept), sigma, pi, tuple(used)))
            return
        # resolve this position against each compatible source
        lit = apply_lit(clause[pos], sigma)
        for src_pos, src_lit, src_pi in compatible(lit):
            got = meet(lit, pi, src_lit, src_pi)
            if got is None:
                continue
            theta, combined = got
            rec(pos + 1, kept, compose(sigma, theta), combined,
                uses + (1 if src_pos == newest_pos else 0),
                used + [(pos, src_pos)])
        # or keep it (keep_limit bounds the remainder size)
        if len(kept) < keep_limit:
            rec(pos + 1, kept + [pos], sigma, pi, uses, used)

    rec(0, [], {}, TOP, 0, [])
    return out


def is_assertive(trail: Trail, clause: Clause, sigma: Subst, pi: Constraint) -> bool:
    """Some instance of (clause*sigma; pi) is false with exactly one literal
    defined at the top level (the lifted `trail.is_assertive`)."""
    top = trail.level
    base = apply_clause(clause, sigma)
    entries = trail.entries
    pi = rename_rhs_fresh(pi)
    for leaf in find_candidates(base, entries, keep_limit=0):
        if sum(1 for _, src in leaf.used if entries[src].level == top) != 1:
            continue
        both = conjoin(apply_constraint(pi, leaf.sigma), leaf.pi)
        if not no_instances(base, leaf.sigma, both, trail.n):
            return True
    return False


# ---------------------------------------------------------------------------
# blocked decisions

def is_blocked(
    entries: list[TrailEntry],
    d_lit: Lit,
    d_pi: Constraint,
    pool: list[Clause],
    n: int,
) -> Optional[tuple[int, Clause, Lit, Lit]]:
    """Witness (clause index, ground instance, L1, L2) or None.

    The decision must already be undefined under the trail `entries`
    (caller contract).
    A clause blocks the decision when some ground instance becomes false
    with two distinct literals falsified by the decision alone.
    """
    # decisions covering a single ground atom are never blocked
    if cover_size(d_lit, d_pi, n) <= 1:
        return None

    for ci, clause in enumerate(pool):
        hits = [p for p, l in enumerate(clause)
                if l.pred == d_lit.pred and l.neg != d_lit.neg]
        if len(hits) < 2:
            continue
        leaves = find_candidates(clause, entries, keep_limit=0,
                                 extra=[(d_lit, d_pi)])
        for leaf in leaves:
            d_positions = [p for p, src in leaf.used if src < 0]
            if len(d_positions) < 2:
                continue
            base = apply_clause(clause, leaf.sigma)
            delta = least_instance(
                base, {}, _split(base, d_positions, leaf.pi), n)
            if delta is None:
                continue
            inst = apply_clause(base, delta)
            l1, l2 = next((inst[p], inst[q])
                          for i, p in enumerate(d_positions)
                          for q in d_positions[i + 1:] if inst[p] != inst[q])
            return ci, inst, l1, l2
    return None


def _split(base: Clause, positions: list[int], pi: Constraint) -> Constraint:
    """pi plus: the literals at `positions` are not all the same instance.

    They are equal exactly on the instances of their mgu eta, so the
    addition is the disequation (V) != eta(V) over their variables V."""
    lits = [base[p] for p in positions]
    eta = mgu_many(lits)
    if eta is None:
        return pi
    vs = tuple(args_vars(a for l in lits for a in l.args))
    img = apply_args(vs, eta)
    img = apply_args(img, renaming_for(args_vars(img)))
    return conjoin(pi, conj([(vs, img)]))
