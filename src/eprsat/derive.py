"""Candidate derivation: resolving clause literals against trail entries.

A derivation tuple carries a remainder of a clause, the accumulated
substitution and constraint, and the trail entry each resolved literal used.
Tuples whose remainder is empty are conflict candidates; single-literal
remainders are propagation candidates.  A kept literal may resolve too:
if with an instance, that is a conflict, which the same search finds with
nothing kept; if not, the tuple is a propagation no other tuple reports.
Each resolution step is
`constrained.meet`: it renames the entry fresh, so one entry can justify
several independent instances in a single derivation (constraints stay
right-hand-side disjoint), and it renames nothing that cannot unify.

The sources are a trail prefix, so an entry's position is its index, and
the search keeps no other bookkeeping.  Each literal is offered only the
entries that hold, at each of its constant arguments, that constant or a
variable: an argument index built lazily per call (Sekar, Ramakrishnan &
Voronkov, *Term Indexing*).  Any other entry fails `meet` before it is
renamed, so the leaves are those of offering every entry of the literal's
(predicate, sign).

The search is a planned join.  A derivation that must use the newest entry
is found as the semi-naive delta (Bancilhon & Ramakrishnan, SIGMOD 1986):
one search per position that resolves against that entry, starting there.
The other positions follow greedily, fewest unbound variables first, ties
in clause order (Selinger et al., SIGMOD 1979), so a selective literal
prunes before the others are enumerated.  The plan is made per call: a
cache would grow with every clause made of fresh variables.  The leaves are
sorted back into the order of the clause-order search (entries in trail
order, keeping a position last), and a leaf whose constraint is not TOP is
resolved again in clause order, so its conjuncts come in that order too;
only the fresh-variable numbering and the key order of sigma move.  A plan
sized by the entries each position is offered, and forward checking per
node, were measured slower on the colourings.

The same machinery answers every other question the solver asks about false
clause instances, without grounding.  A conflict derivation (no literal
kept) picks, for every literal, the trail entry that falsifies it; strong
consistency makes that the literal's defining entry.  So assertiveness is a
count of top-level entries among a leaf's sources, a blocked decision is a
derivation against the trail with the decision as one more entry that uses
it at two positions whose instances can differ, and a clause is falsifiable
under a trail prefix when the solver's derivation against it has a conflict
leaf.  Non-emptiness of a leaf is asked of its constraint alone, by
`constrained.no_instances`; only a blocked decision's witness asks for the
least instance itself.  The grounding versions in `trail` serve only as
referees.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .constrained import cover_size, least_instance, meet, no_instances
from .constraints import (
    TOP,
    Constraint,
    conj,
    conjoin,
    instantiate,
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
    clause_vars,
    compose,
    mgu_many,
    renaming_for,
)
from .trail import Trail, TrailEntry


@dataclass(frozen=True)
class DTuple:
    """One derivation outcome for a clause against the trail."""

    remaining: tuple[int, ...]          # unresolved literal positions
    sigma: Subst
    pi: Constraint
    used: tuple[tuple[int, int], ...]   # (position, entry pos)


def find_candidates(
    clause: Clause,
    sources: list[TrailEntry],
    keep_limit: int,
    newest_pos: Optional[int] = None,
) -> list[DTuple]:
    """All derivation tuples for `clause` against `sources` with at most
    `keep_limit` literals left, in the order of the search that visits
    positions in clause order and sources in trail order, keeping a
    position last.

    `sources` is a trail prefix: the entry at position i is `sources[i]`.
    With `newest_pos`, only derivations that use that entry are returned:
    one search per position p whose literal can unify with it, which
    resolves p against it alone and first, lets no position before p use it,
    and lets the positions after p use any source.  So each such derivation
    is found once, by the search of the first position that uses the entry.
    """
    by_pred: dict[tuple[str, bool], list[TrailEntry]] = {}
    for e in sources:
        by_pred.setdefault((e.lit.pred, e.lit.neg), []).append(e)
    # (predicate, sign, argument position j, constant c) -> the bucket's
    # entries holding c or a variable at j, in bucket order; built lazily
    by_arg: dict[tuple[str, bool, int, int], list[TrailEntry]] = {}

    def compatible(lit: Lit) -> list[TrailEntry]:
        # `lit` is a clause literal under the node's sigma; an entry clashing
        # with one of its constants would fail `meet` before any renaming
        whole = best = by_pred.get((lit.pred, not lit.neg), [])
        for j, c in enumerate(lit.args):
            if c < 0:
                continue
            key = (lit.pred, not lit.neg, j, c)
            got = by_arg.get(key)
            if got is None:
                got = by_arg[key] = [e for e in whole
                                     if e.lit.args[j] == c or e.lit.args[j] < 0]
            if len(got) < len(best):
                best = got
        return best

    width = len(clause)
    lit_vs = [set(args_vars(lit.args)) for lit in clause]

    def join_order(first: Optional[int]) -> list[int]:
        # `first`, if any, then greedily the position with the fewest
        # variables not yet bound, ties in clause order
        order = [] if first is None else [first]
        bound = set() if first is None else set(lit_vs[first])
        rest = [p for p in range(width) if p != first]
        while rest:
            p = min(rest, key=lambda q: len(lit_vs[q] - bound))
            rest.remove(p)
            order.append(p)
            bound |= lit_vs[p]
        return order

    found: list[tuple[list[int], DTuple]] = []

    def replay(used: list[tuple[int, int]]) -> tuple[Subst, Constraint]:
        # a leaf's resolutions in clause order, as the clause-order search
        # makes them: the conjuncts of pi, and their normal forms, follow
        # the order of resolution
        sigma, pi = {}, TOP
        for p, src_pos in used:
            src = sources[src_pos]
            got = meet(apply_lit(clause[p], sigma), pi, src.lit, src.pi)
            assert got is not None, "a leaf's resolutions fail in clause order"
            sigma, pi = compose(sigma, got[0]), got[1]
        return sigma, pi

    def rec(order: list[int], i: int, barred: int, kept: list[int],
            sigma: Subst, pi: Constraint, used: list[tuple[int, int]]) -> None:
        if i == width:
            # each position's source, "keep" (len(sources)) last:
            # sorting on it gives the leaf order of the clause-order search
            choice = [len(sources)] * width
            for p, src_pos in used:
                choice[p] = src_pos
            in_order = sorted(used)
            if not pi.is_top and used != in_order:
                sigma, pi = replay(in_order)
            found.append((choice, DTuple(tuple(sorted(kept)), sigma, pi,
                                         tuple(in_order))))
            return
        pos = order[i]
        # resolve this position against each compatible source, but not
        # against the newest entry before the position that uses it first
        lit = apply_lit(clause[pos], sigma)
        for e in compatible(lit):
            if e.pos == newest_pos and pos < barred:
                continue
            got = meet(lit, pi, e.lit, e.pi)
            if got is None:
                continue
            theta, combined = got
            rec(order, i + 1, barred, kept, compose(sigma, theta), combined,
                used + [(pos, e.pos)])
        # or keep it (keep_limit bounds the remainder size)
        if len(kept) < keep_limit:
            rec(order, i + 1, barred, kept + [pos], sigma, pi, used)

    if newest_pos is None:
        rec(join_order(None), 0, 0, [], {}, TOP, [])
    else:
        newest = sources[newest_pos]
        for p, lit in enumerate(clause):
            if lit.pred != newest.lit.pred or lit.neg == newest.lit.neg:
                continue
            got = meet(lit, TOP, newest.lit, newest.pi)
            if got is not None:
                rec(join_order(p), 1, p, [], got[0], got[1], [(p, newest_pos)])
    found.sort(key=lambda leaf: leaf[0])
    return [leaf for _, leaf in found]


def is_assertive(trail: Trail, clause: Clause, sigma: Subst, pi: Constraint) -> bool:
    """Some instance of (clause*sigma; pi) is false with exactly one literal
    defined at the top level (the lifted `trail.is_assertive`)."""
    top = trail.level
    entries = trail.entries
    pi = rename_rhs_fresh(pi)
    for leaf in find_candidates(apply_clause(clause, sigma), entries, keep_limit=0):
        if sum(1 for _, src in leaf.used if entries[src].level == top) != 1:
            continue
        if not no_instances(conjoin(instantiate(pi, leaf.sigma), leaf.pi), trail.n):
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

    The decision must already be undefined under the trail prefix `entries`
    (caller contract); it is searched as one more entry after them.
    A clause blocks the decision when some ground instance becomes false
    with two distinct literals falsified by the decision alone.
    """
    # decisions covering a single ground atom are never blocked
    if cover_size(d_lit, d_pi, n) <= 1:
        return None
    decision = TrailEntry(d_lit, d_pi, 0, len(entries))

    for ci, clause in enumerate(pool):
        hits = [p for p, l in enumerate(clause)
                if l.pred == d_lit.pred and l.neg != d_lit.neg]
        if len(hits) < 2:
            continue
        for leaf in find_candidates(clause, entries + [decision], keep_limit=0):
            d_positions = [p for p, src in leaf.used if src == decision.pos]
            if len(d_positions) < 2:
                continue
            base = apply_clause(clause, leaf.sigma)
            delta = least_instance(base, _split(base, d_positions, leaf.pi), n)
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
    vs = tuple(clause_vars(lits))
    img = apply_args(vs, eta)
    img = apply_args(img, renaming_for(args_vars(img)))
    return conjoin(pi, conj([(vs, img)]))
