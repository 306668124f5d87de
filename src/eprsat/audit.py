"""Runtime audits: the sound-state invariant and the regular-run properties.

The auditor hangs off the solver and re-derives, from first principles, what
each rule application was supposed to guarantee: strong consistency of the
trail, the per-entry propagation/decision conditions, falseness and
non-emptiness of conflict sets, the top-level-literal counts, the strict
decrease of the conflict-resolution measure, blocking of removed decisions
by case-(3) clauses, non-redundancy of every learned clause and its
entailment by the input (both asked of the one `GroundProblem` encoding),
and the model property at success.  The input is grounded once per run,
for the entailment checks and `--check`'s oracle, and the clause pool, of
the same signature, at each learning check: both fit under the one DPLL
atom cap, or both learning checks are skipped.  At every backjump it also
referees the solver's lifted derivations by grounding: assertiveness of the
conflict and the absence of false learned-clause instances under the chosen
prefix, and at success it asks `Solver.full_scan` if propagation left
anything undone.  A learned clause is grounded in full only when the two
learning checks run; the check for a false instance under the backjump
prefix walks the instances lazily and stops at the first false one.
Each defining-entry lookup is answered once per ground atom per trail
state: the entry checks, the conflict-set checks, the two-per-level check,
the ground `is_assertive` and the false-under-prefix check all ask
`Trail.defining_entry`, whose memo lives until the next push or pop.
Violations are collected, not raised, so a test can assert the list is
empty.

Incremental schedule: each push runs the per-entry checks of
`_check_entry` on the new entry against the entries before it; each
resolution step checks the conflict set and the measure, over instances
grounded once per conflict set (a Skip keeps the set); Backjump and
Success sweep the whole trail: the decisions' levels 1..k, `_check_entry`
on every entry (so decisions are re-checked against the grown learned set)
and two literals of its level in every reason instance above level 0.

The resolution measure is the multiset of the conflict set's ground
instances under the induced ordering of the trail at the Conflict, which the
auditor snapshots there.  That ordering is
total, and the Dershowitz-Manna multiset extension of a total order is
lexicographic order on descending-sorted lists, a proper prefix being
smaller.  So the measure is kept as the descending-sorted list of the
instances' `clause_key`s, and "strictly decreased" is one list comparison.
"""
from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Optional

from .constrained import CLit, is_empty, overlaps
from .constraints import TOP
from .derive import is_blocked
from .oracle import (
    GroundProblem,
    OracleCeiling,
    check_nonredundant,
    ground_problem,
    verify_model,
)
from .render import render_clause
from .syntax import (
    Clause,
    Signature,
    apply_clause,
    apply_lit,
    clause_vars,
    ground_assignments,
)
from .trail import (
    FALSE,
    InducedOrdering,
    clause_instances,
    ground_walk,
    is_assertive,
)


class Auditor:
    def __init__(self, sig: Signature, clauses: list[Clause]):
        self.sig = sig
        self.input_clauses = list(clauses)
        self.violations: list[str] = []
        self.skipped: list[str] = []
        self._last_rules: deque[str] = deque(maxlen=3)  # all the Factorize check reads
        self._measure: Optional[tuple[int, list]] = None
        # the induced ordering of the trail at the last Conflict
        self._ordering: Optional[InducedOrdering] = None
        # the last conflict set grounded, and its ground instances
        self._grounded: Optional[tuple[object, list[Clause]]] = None
        # verify_model's (ok, witness) for the model at Success
        self.model_check: Optional[tuple[bool, Optional[Clause]]] = None

    def _flag(self, msg: str) -> None:
        self.violations.append(msg)

    @cached_property
    def input_ground(self) -> GroundProblem:
        """The input never changes: it is grounded once per run, for the
        entailment checks and `--check`'s oracle.  Over the atom cap this
        raises `OracleCeiling` before grounding anything, and caches
        nothing."""
        return ground_problem(self.sig, self.input_clauses)

    # -- hooks ----------------------------------------------------------------

    def after_rule(self, rule: str, solver) -> None:
        self._last_rules.append(rule)
        if rule in ("Propagate", "Decide"):
            self._check_entry(solver, solver.trail.entries[-1])
        elif rule == "Conflict":
            self._ordering = InducedOrdering.from_trail(solver.trail)
            insts = self._conflict_instances(solver)
            self._check_conflict_set(solver, insts, fresh=True)
            self._measure = self._measure_of(solver, insts)
        elif rule in ("Skip", "Resolve", "Factorize"):
            insts = self._conflict_instances(solver)
            self._check_conflict_set(solver, insts, fresh=False)
            self._check_measure_decrease(rule, solver, insts)
            self._check_immediate_conflict_factorize(rule)
        elif rule == "Backjump":
            self._full_sweep(solver)
            self._measure = self._ordering = self._grounded = None
        elif rule == "Success":
            self._full_sweep(solver)
        elif rule == "Failure":
            if not any(c == () for c in solver.pool):
                self._flag("Failure without the empty clause")

    def _conflict_instances(self, solver):
        """The ground instances of the solver's conflict set, or None without
        one, grounded once per conflict set: a Skip keeps the same object,
        and each resolution step reads them for all its checks."""
        cs = solver.conflict
        if cs is None:
            return None
        if self._grounded is None or self._grounded[0] is not cs:
            self._grounded = (cs, clause_instances(cs.clause, cs.sigma, cs.pi,
                                                   solver.n))
        return self._grounded[1]

    def before_learn(self, solver, learned: Clause, case: int,
                     target_len: int) -> None:
        """Checks before Backjump `case` learns `learned` and cuts the
        trail to `target_len` entries (over the atom cap, skipping both
        ground learning checks)."""
        if self._ordering is None:
            self._flag("learning without a conflict snapshot")
            return
        try:
            gp, pool = self.input_ground, ground_problem(self.sig, solver.pool)
        except OracleCeiling:
            self.skipped += ["non-redundancy check skipped (universe too big)",
                             "entailment check skipped (universe too big)"]
        else:
            # the distinct ground instances, in assignment order
            insts = clause_instances(learned, {}, TOP, solver.n)
            if not check_nonredundant(insts, pool, self._ordering):
                self._flag(f"learned clause is redundant: "
                           f"{render_clause(self.sig, learned)}")
            # sound-state item for the learned set: the inputs entail it
            if not all(gp.entails(gp.clauses, inst) for inst in insts):
                self._flag(f"learned clause not entailed by the input: "
                           f"{render_clause(self.sig, learned)}")
        self._check_false_under_prefix(solver, learned, target_len)
        cs = solver.conflict
        assertive = None
        if case != 1:
            # case 2 is taken exactly when the lifted test found it assertive
            assertive = is_assertive(solver.trail, cs.clause, cs.sigma, cs.pi)
            if assertive != (case == 2):
                self._flag(f"lifted assertiveness disagrees with grounding "
                           f"at a case-({case}) backjump")
        # a clause learned below a surviving decision must block it
        entry = solver.trail.entries[-1] if solver.trail.entries else None
        if entry is not None and entry.is_decision and learned != ():
            if not assertive:
                wit = is_blocked(solver.trail, entry.pos, entry.lit, entry.pi,
                                 [learned], solver.n)
                if wit is None:
                    self._flag("case-(3) clause does not block the removed decision")

    def _check_false_under_prefix(self, solver, learned: Clause,
                                  target_len: int) -> None:
        # the solver's lifted falsifiability test chose this prefix; the
        # instances are walked one assignment and one literal at a time
        if learned == ():
            return
        trail = solver.trail
        for d in ground_assignments(clause_vars(learned), solver.n):
            if all(trail.value_of(apply_lit(l, d), upto=target_len) == FALSE
                   for l in learned):
                self._flag(f"learned clause has a false instance under the "
                           f"backjump prefix: "
                           f"{render_clause(self.sig, apply_clause(learned, d))}")
                return

    def at_success(self, solver) -> None:
        if (left := solver.full_scan()) is not None:
            self._flag(f"success but propagation left {left}")
        model = [CLit(e.lit, e.pi) for e in solver.trail.entries]
        self.model_check = verify_model(model, self.sig, self.input_clauses)
        ok, witness = self.model_check
        if not ok:
            self._flag(f"success but the model misses an instance: {witness}")

    # -- entry checks -----------------------------------------------------------

    def _check_entry(self, solver, e) -> None:
        """The per-entry checks of `e` against the entries before it, at its
        push and again at every sweep."""
        trail, n = solver.trail, solver.n
        if is_empty(e.lit, e.pi, n):
            self._flag(f"entry {e.pos} is empty")
        for other in trail.entries[:e.pos]:
            if overlaps(e.lit, e.pi, other.lit, other.pi, n):
                self._flag(f"strong consistency broken: entries "
                           f"{other.pos} and {e.pos}")
        if e.is_decision:
            if is_blocked(trail, e.pos, e.lit, e.pi, solver.pool,
                          n) is not None:
                self._flag(f"decision at {e.pos} is blocked w.r.t. the "
                           f"current clause sets")
            return
        clause = solver.pool[e.reason]
        if apply_lit(clause[e.reason_lit], e.sigma) != e.lit:
            self._flag(f"closure substitution does not produce entry {e.pos}")
        rest = clause[:e.reason_lit] + clause[e.reason_lit + 1:]
        if rest:
            # a remainder with no ground instance is flagged too
            falses = [false for _, _, false in
                      ground_walk(trail, rest, e.sigma, e.pi, upto=e.pos)]
            if not falses or not all(falses):
                self._flag(f"reason remainder not false for entry {e.pos}")

    # -- conflict-set checks ------------------------------------------------------

    def _check_conflict_set(self, solver, insts, fresh: bool) -> None:
        if insts is None:
            return
        trail = solver.trail
        if not insts:
            self._flag("empty conflict set")
            return
        top = trail.level
        for g in insts:
            # one lookup per literal gives both its value and its level
            defs = [trail.defining_entry(l.atom) for l in g]
            if not all(e is not None and e.lit.neg != l.neg for e, l in zip(defs, g)):
                self._flag("conflict set holds a non-false instance")
                break
            if top > 0:
                at_top = sum(1 for e in defs if e.level == top)
                need = 2 if fresh else 1
                if at_top < need:
                    self._flag(
                        f"conflict instance has {at_top} top-level literals, "
                        f"needs {need}")
                    break

    def _measure_of(self, solver, insts):
        """(trail length, the instances' clause keys sorted descending).

        The induced ordering is total, so the multiset extension over the
        instances is lexicographic order on this list."""
        if insts is None or self._ordering is None:
            return None
        return (len(solver.trail),
                sorted(map(self._ordering.clause_key, insts), reverse=True))

    def _check_measure_decrease(self, rule: str, solver, insts) -> None:
        before = self._measure
        after = self._measure_of(solver, insts)
        self._measure = after
        if before is None or after is None:
            return
        if after[0] < before[0]:
            return
        if after[0] > before[0]:
            self._flag(f"{rule} grew the trail during resolution")
            return
        # same trail length: the instance multiset must strictly decrease
        if not after[1] < before[1]:
            self._flag(f"{rule} did not decrease the resolution measure")

    def _check_immediate_conflict_factorize(self, rule: str) -> None:
        if (len(self._last_rules) >= 3
                and self._last_rules[-2] == "Conflict"
                and self._last_rules[-3] == "Decide"
                and rule != "Factorize"):
            self._flag(f"immediate conflict resolved by {rule}, not Factorize")

    # -- full sweep ----------------------------------------------------------------

    def _full_sweep(self, solver) -> None:
        entries = solver.trail.entries
        levels = [e.level for e in entries if e.is_decision]
        if levels != list(range(1, len(levels) + 1)):
            self._flag("decision levels are not 1..k in trail order")
        for e in entries:
            self._check_entry(solver, e)
            # every reason instance carries two literals of its level
            if not e.is_decision and e.level > 0:
                self._check_two_per_level(solver, e)

    def _check_two_per_level(self, solver, e) -> None:
        clause = solver.pool[e.reason]
        for _, defs, _ in ground_walk(solver.trail, clause, e.sigma, e.pi):
            count = sum(1 for ent in defs if ent is not None and ent.level == e.level)
            if count < 2:
                self._flag(
                    f"reason instance of entry {e.pos} has {count} literals "
                    f"of level {e.level}")
                return

