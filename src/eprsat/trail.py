"""The trail: annotated constrained closures defining a partial model.

Entries are decisions (integer level annotation, empty closure) or deduced
literals (annotated with the clause that implied them plus the producing
substitution).  Strong consistency -- pairwise disjoint atom covers -- is an
invariant the solver maintains and the auditor re-checks.  The trail also
induces the ordering used for redundancy: atoms compare by the position of
their defining entry (undefined atoms maximal), ties broken by a fixed base
order, lifted to literals and, by multiset extension, to clauses (computed
as a lexicographic comparison of sorted keys, see `InducedOrdering`).

The trail owns its decision levels: `push` and `pop` keep the decisions'
positions, so `level` is their count and `level_prefix_len(j)` the position
of decision j+1.  The solver gives the k-th decision level k, which the
audit re-checks.

`Trail.defining_entry` is memoized per ground atom: the memo holds the first
covering entry of the whole trail, and `push` and `pop` (so `truncate` too)
clear it.  A query over the first `upto` entries reads the same answer when
its position is below `upto` and None otherwise, which is exact because the
memo keeps the first covering entry, even on a trail that breaks strong
consistency.  Only the referees ask (`value_of`, `ground_walk`, the audit's
conflict-set check, and `InducedOrdering.def_pos` of its snapshot trail); on
a solve with no audit the memo stays empty and each clear is one truth test.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .constraints import Constraint, lvars, violates
from .syntax import (
    Clause,
    Lit,
    Subst,
    apply_clause,
    args_vars,
    clause_vars,
    ground_assignments,
    match_args,
)

TRUE, FALSE, UNDEF = 1, -1, 0


@dataclass(frozen=True)
class TrailEntry:
    lit: Lit                     # the instantiated literal on the trail
    pi: Constraint
    level: int
    pos: int
    reason: Optional[int] = None      # clause index; None for decisions
    reason_lit: int = -1              # index of the propagated literal
    sigma: Subst = field(default_factory=dict)  # over the reason clause vars

    @property
    def is_decision(self) -> bool:
        return self.reason is None


class Trail:
    """Single-owner mutable sequence of entries with per-predicate buckets."""

    def __init__(self, n: int):
        self.n = n                    # domain size
        self.entries: list[TrailEntry] = []
        self._buckets: dict[str, list[TrailEntry]] = {}
        self._decisions: list[int] = []   # the decisions' positions, in order
        # ground atom -> its first covering entry on the whole trail
        self._defs: dict[Lit, Optional[TrailEntry]] = {}

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def level(self) -> int:
        return len(self._decisions)

    def for_pred(self, pred: str) -> list[TrailEntry]:
        return self._buckets.get(pred, [])

    def push(self, entry: TrailEntry) -> None:
        if entry.pos != len(self.entries):
            raise ValueError(f"entry at pos {entry.pos} pushed onto a trail "
                             f"of {len(self.entries)} entries")
        self.entries.append(entry)
        self._buckets.setdefault(entry.lit.pred, []).append(entry)
        if entry.is_decision:
            self._decisions.append(entry.pos)
        if self._defs:
            self._defs.clear()

    def pop(self) -> TrailEntry:
        e = self.entries.pop()
        # the trail's last entry is the last of its bucket
        self._buckets[e.lit.pred].pop()
        if e.is_decision:
            self._decisions.pop()
        if self._defs:
            self._defs.clear()
        return e

    def truncate(self, length: int) -> None:
        while len(self.entries) > length:
            self.pop()

    def level_prefix_len(self, lvl: int) -> int:
        """Entries up to (excluding) the first decision above `lvl`."""
        return (self._decisions[lvl] if lvl < len(self._decisions)
                else len(self.entries))

    # -- truth values -------------------------------------------------------

    def defining_entry(self, atom: Lit, upto: Optional[int] = None) -> Optional[TrailEntry]:
        """The first of the first `upto` entries (default: all) covering this
        ground atom, if any; memoized (see the module docstring)."""
        try:
            e = self._defs[atom]
        except KeyError:
            e = self._defs[atom] = _defining(self.for_pred(atom.pred), atom)
        return e if upto is None or e is None or e.pos < upto else None

    def value_of(self, lit: Lit, upto: Optional[int]) -> int:
        e = self.defining_entry(lit.atom, upto)
        if e is None:
            return UNDEF
        return TRUE if e.lit.neg == lit.neg else FALSE


def _defining(entries: Iterable[TrailEntry], atom: Lit) -> Optional[TrailEntry]:
    """The first of `entries` (in trail order, all of `atom`'s predicate)
    whose cover holds the ground atom `atom`: the one scan for a defining
    entry."""
    for e in entries:
        d = match_args(e.lit.args, atom.args)
        if d is not None and not violates(d, e.pi):
            return e
    return None


# ---------------------------------------------------------------------------
# ground walks, assertiveness

def _instances(clause: Clause, sigma: Subst, pi: Constraint, n: int,
               ) -> Iterator[Clause]:
    """Each distinct ground instance of (clause*sigma; pi), in assignment
    order, as it is made; free lhs vars existential."""
    base = apply_clause(clause, sigma)
    seen = set()
    for d in ground_assignments(args_vars(clause_vars(base) + lvars(pi)), n):
        if violates(d, pi):
            continue
        g = apply_clause(base, d)
        if g not in seen:
            seen.add(g)
            yield g


def clause_instances(clause: Clause, sigma: Subst, pi: Constraint, n: int,
                     ) -> list[Clause]:
    """Ground instances of (clause*sigma; pi); free lhs vars existential.

    For the audits and tests only: no solver path grounds."""
    return list(_instances(clause, sigma, pi, n))


def ground_walk(trail: Trail, clause: Clause, sigma: Subst, pi: Constraint,
                upto: Optional[int] = None,
                ) -> Iterator[tuple[Clause, list[Optional[TrailEntry]], bool]]:
    """Each ground instance of (clause*sigma; pi), lazily, with the defining
    entry of each of its literals among the first `upto` entries and
    whether those entries falsify every literal."""
    for g in _instances(clause, sigma, pi, trail.n):
        defs = [trail.defining_entry(l.atom, upto) for l in g]
        yield g, defs, all(e is not None and e.lit.neg != l.neg
                           for e, l in zip(defs, g))


def is_assertive(trail: Trail, clause: Clause, sigma: Subst, pi: Constraint) -> bool:
    """Some covered ground instance is false with exactly one top-level literal.

    Enumerates the instances; the solver runs the lifted
    `derive.is_assertive`, and this form referees it in the audits."""
    top = trail.level
    return any(false and sum(e.level == top for e in defs) == 1
               for _, defs, false in ground_walk(trail, clause, sigma, pi))


# ---------------------------------------------------------------------------
# induced ordering

_INF = 1 << 60


@dataclass(frozen=True)
class InducedOrdering:
    """Snapshot ordering: trail position of the defining entry, then a fixed
    base order (predicate name, argument indices; negative above positive).

    The snapshot is a `Trail` of the entries at `from_trail`, which no one
    pushes onto or pops, so its `defining_entry` memo answers `def_pos` for
    the snapshot's life.  Clauses compare by `clause_key`, memoized too."""

    snapshot: Trail
    _keys: dict = field(default_factory=dict, init=False, compare=False,
                        repr=False)

    @staticmethod
    def from_trail(trail: Trail) -> "InducedOrdering":
        snapshot = Trail(trail.n)
        for e in trail.entries:
            snapshot.push(e)
        return InducedOrdering(snapshot)

    def def_pos(self, atom: Lit) -> int:
        """Position of the defining entry; maximal when undefined."""
        e = self.snapshot.defining_entry(atom)
        return _INF if e is None else e.pos

    def lit_key(self, lit: Lit):
        # same atom: the negative literal is the bigger one
        return (self.def_pos(lit.atom), lit.pred, lit.args, lit.neg)

    def clause_key(self, c: Clause):
        """(abstract multiset, literal multiset), each sorted descending.

        The multiset extension of a total order is lexicographic order on
        descending-sorted lists (a proper prefix is smaller), so comparing
        these keys is the clause ordering."""
        key = self._keys.get(c)
        if key is None:
            key = self._keys[c] = (
                sorted(((self.def_pos(l.atom), l.neg) for l in c), reverse=True),
                sorted((self.lit_key(l) for l in c), reverse=True))
        return key

    def cmp_clauses(self, c1: Clause, c2: Clause) -> int:
        return _cmp(self.clause_key(c1), self.clause_key(c2))


def _cmp(k1, k2) -> int:
    return -1 if k1 < k2 else (0 if k1 == k2 else 1)
