"""The transition system: conflict search, conflict resolution, learning.

State is the five-tuple (trail; input clauses; learned clauses; level;
indicator), and the trail keeps the level (`Trail.level`).  Conflict search
runs exhaustive propagation through a priority queue of candidates
(smallest ground cover first), detecting conflicts eagerly; decisions are
drawn from a pool seeded with the input literals and repaired by splitting
whenever a candidate is blocked.  Conflict resolution applies Skip /
Factorize / Resolve until a clause can be learned, then backjumps to the
smallest level where the new clause propagates.

Everything the solver learns about the trail comes from one derivation
path, `Solver._derive`: a leaf with nothing left is a conflict, one with one
literal left a propagation candidate.  `_reseed_full` (which on the empty
trail queues each unit clause), `add_consequences` and, once per level
prefix, `compute_backjump_level` search with it; `full_scan` only asks.
The one exception is the queue clash: before it derives, `add_consequences`
reads a conflict off a queued candidate that the new entry falsifies, the
first in queue order among those of the complementary shape.
`_undefined_pieces` is the one trail difference, for Propagate, the backjump
level, `full_scan` and the decisions; it yields only the pieces with an
instance, and subtracts only the entries the trail's argument index offers
its starting pieces (`Trail.unifiable`), since the others clash with every
piece the difference makes.  The lifted steps live in `constrained`; a
resolution step unifies each conflict literal with the rightmost entry once
(`_entry_unifiers`) for Resolve and Factorize, which share a closure step.

Between two decisions the trail only grows or is cut back, so the
decisions carry their trail difference across calls (`_decision_pieces`).
Each pool atom (a literal and its complement share one) keeps its non-empty
undefined pieces and the trail length L they were taken at, and the next
call subtracts only the entries from position L on.  The backjump drops
every carried entry taken at a length above its cut, as it undoes the
refinements: every Skip is followed by a Backjump before the next decision,
and `_push` makes every entry new, so the first L entries of a kept one are
those its pieces were taken against.  `diff_apart` is a left fold over its
sources, so the two parts give the pieces, in order, that one difference
against the whole trail gives.

Each rule takes what the search that found it established and re-checks
none of it: `prop_loop` vouches for Propagate, `select_decision` for Decide
(it checks a script line once), `add_consequences` for Conflict,
`_resolution_step` for the rest, and `_solve` for Failure and Success.
A run of Skips shares one assertiveness answer, since a skipped entry
defines no literal of the conflict's instances.
Success rescans nothing: propagation is exhaustive, so no clause is left
false or propagating.  Every derivation is found when its newest entry is
pushed, by the search that starts at the first position resolving against
that entry; the queue is exhausted before each decision; Conflict clears
only the queue of a level that the backjump removes; and the backjump cuts
at a level boundary and queues what the learned clause derives there.
`full_scan` asks it again, for the audit.

So every level prefix below the current level is conflict-free and
propagation-complete for the whole pool: each was so when its decision was
taken, and a clause learned since does not propagate below its level.  No
such prefix falsifies a learned clause, as `compute_backjump_level`
asserts: a ground instance of a resolvent is the resolvent of instances of
its parents, so one of those would be false there, or would propagate the
resolved literal; a factor has the same ground literals.
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Optional

from .constrained import (
    CLit,
    cover_size,
    diff_apart,
    elim_free_vars,
    no_instances,
    overlaps,
    rename_clit_fresh,
)
from .constraints import (
    TOP,
    Constraint,
    conj,
    conjoin,
    instantiate,
    normalize,
    rename_rhs_fresh,
)
from .derive import find_candidates, is_assertive, is_blocked
from .syntax import (
    Clause,
    Lit,
    Signature,
    Subst,
    apply_args,
    apply_clause,
    apply_lit,
    apply_term,
    canonical_clause,
    canonical_variant,
    clause_vars,
    compose,
    factor_through,
    lit_vars,
    match_lit,
    mgu_atoms,
    numbered,
    renaming_for,
    restrict,
    unifiable_apart,
)
from .render import render_clause, render_conflict, render_entry
from .trail import Trail, TrailEntry


class RuleRejected(Exception):
    """A rule was invoked on a state violating its preconditions."""


class StepCap(Exception):
    pass


@dataclass
class RunConfig:
    max_steps: int = 1_000_000
    seed: Optional[int] = None
    script: Optional[list[tuple[Lit, Constraint]]] = None
    simplify: bool = True

    def __post_init__(self) -> None:
        if self.max_steps <= 0:
            raise ValueError("step cap must be positive")


@dataclass
class TraceEvent:
    rule: str
    level: int
    payload: str


@dataclass
class ConflictSet:
    clause: Clause
    sigma: Subst
    pi: Constraint
    origin: Optional[int] = None   # pool index when it is an input/learned clause


@dataclass
class Verdict:
    status: str                    # 'sat' | 'unsat' | 'stepcap'
    model: list[CLit] = field(default_factory=list)
    steps: int = 0
    learned: int = 0
    trace: list[TraceEvent] = field(default_factory=list)
    backjumps: int = 0


@dataclass
class PropCand:
    clause_idx: int
    lit_idx: int
    sigma: Subst                   # over the clause variables (plus sources)
    pi: Constraint
    lit: Lit                       # the clause literal under sigma
    size: int                      # its cover size, positive: the priority


class Solver:
    def __init__(self, sig: Signature, clauses: list[Clause], cfg: RunConfig,
                 auditor=None):
        self.sig = sig
        self.n = sig.n
        self.cfg = cfg
        self.original = [canonical_clause(c) for c in clauses]
        self.pool: list[Clause] = list(self.original)
        self.deletion_log: list[str] = []
        if cfg.simplify:
            self.pool, self.deletion_log = simplify_pool(self.pool)
        self.n_input = len(self.pool)
        self.trail = Trail(self.n)
        self.conflict: Optional[ConflictSet] = None
        self.trace: list[TraceEvent] = []
        self.steps = 0
        self.terminal: Optional[str] = None
        self.auditor = auditor
        self._rng = random.Random(cfg.seed) if cfg.seed is not None else None
        # a script line's constraint, in normal form as the lifted steps expect
        self._script = [(lit, normalize(pi)) for lit, pi in cfg.script or ()]
        # propagation queue: (cover size, seq, candidate)
        self._pq: list[tuple[int, int, PropCand]] = []
        self._seq = 0
        # decision pool (one canonical variant per input literal), refinements
        self.pool_cands: list[tuple[Lit, Constraint]] = [
            (l, TOP) for l in dict.fromkeys(_canon_lit(l) for c in self.pool for l in c)]
        self._refinements: list[tuple[int, int, tuple[Lit, Constraint], int]] = []
        # each pool atom's non-empty undefined pieces, carried between decisions:
        # (atom, pi) -> (pieces, the trail length they were taken at)
        self._carried: dict[tuple[Lit, Constraint],
                            tuple[list[tuple[Subst, Constraint]], int]] = {}
        # scores: canonical literal -> value
        self.scores: dict[Lit, float] = {}
        self._bump = 1.0
        # clauses by (predicate, polarity) of their literals
        self._clauses_by_shape: dict[tuple[str, bool], list[int]] = {}
        for ci in range(len(self.pool)):
            self._index_new_clause(ci)

    # -- bookkeeping --------------------------------------------------------

    def _index_new_clause(self, ci: int) -> None:
        for key in set((l.pred, l.neg) for l in self.pool[ci]):
            self._clauses_by_shape.setdefault(key, []).append(ci)

    def _emit(self, rule: str, payload: str) -> None:
        self.steps += 1
        if self.steps > self.cfg.max_steps:
            raise StepCap
        level = -1 if rule == "Success" else self.trail.level
        self.trace.append(TraceEvent(rule, level, payload))
        if self.auditor is not None:
            self.auditor.after_rule(rule, self)

    # -- propagation queue ---------------------------------------------------

    def _enqueue(self, cand: PropCand) -> None:
        # `_derive` sized the candidate, and made it only if non-empty
        heapq.heappush(self._pq, (cand.size, self._seq, cand))
        self._seq += 1

    # -- rules: conflict search ----------------------------------------------

    def rule_propagate(self, cand: PropCand, tau: Subst, pi: Constraint) -> TrailEntry:
        """Push the piece (cand.lit*tau; pi) of the queued candidate, with
        closure substitution cand.sigma then tau.  `prop_loop` vouches that
        it is undefined (a piece of the trail difference) and non-empty."""
        entry = self._push(apply_lit(cand.lit, tau), pi, reason=cand.clause_idx,
                           reason_lit=cand.lit_idx, sigma=compose(cand.sigma, tau))
        self._emit("Propagate", render_entry(self.sig, entry))
        return entry

    def rule_decide(self, lit: Lit, pi: Constraint) -> TrailEntry:
        """Push (lit; pi) as a decision.  `select_decision` vouches that it is
        non-empty, undefined, unblocked and an instance of an input literal."""
        entry = self._push(lit, pi, reason=None)
        self._emit("Decide", render_entry(self.sig, entry))
        return entry

    def rule_conflict(self, cs: ConflictSet) -> None:
        """Record `cs`, which the search found false under the trail: the
        queue clash or a derivation in `add_consequences`."""
        self.conflict = cs
        self._pq.clear()
        self._bump_clause(cs.clause)
        self._emit("Conflict", render_conflict(self.sig, cs))

    def rule_success(self) -> None:
        # `_solve` vouches: the queue is exhausted and no decision is left,
        # so no clause is false or propagates (see the module docstring)
        self.terminal = "sat"
        self._emit("Success", "model found")

    def rule_failure(self) -> None:
        # `_solve` vouches: the pool holds the empty clause
        self.terminal = "unsat"
        self._emit("Failure", "empty clause present")

    # -- rules: conflict resolution -------------------------------------------

    def rule_skip(self) -> None:
        """Pop the rightmost entry; the caller vouches that it touches no
        instance of the conflict (`_resolution_step` found no position)."""
        entry = self.trail.entries[-1]
        self.trail.pop()
        self._emit("Skip", render_entry(self.sig, entry))

    def rule_resolve(self, pos: int, eta: Subst, new_pi: Constraint) -> None:
        """Resolve the literal at `pos` against the rightmost trail entry:
        `eta` unifies the entry's atom with the literal under the conflict's
        sigma and `new_pi` is both constraints met under it (`_meets_entry`)."""
        cs = self.conflict
        entry = self.trail.entries[-1]
        reason = self.pool[entry.reason]
        # rename the reason clause apart when it shares variables
        shared = set(clause_vars(reason)) & set(clause_vars(cs.clause))
        rho = renaming_for(clause_vars(reason)) if shared else {}
        rp = apply_clause(reason, rho)
        eta0 = mgu_atoms(rp[entry.reason_lit].atom, cs.clause[pos].atom)
        assert eta0 is not None, "eta exists, so eta0 must"
        rest_r = rp[:entry.reason_lit] + rp[entry.reason_lit + 1:]
        self._bump_clause(apply_clause(rest_r, eta0))
        self._rewrite_conflict(
            "Resolve", cs.clause[:pos] + cs.clause[pos + 1:] + rest_r, eta0, eta,
            {apply_term(v, rho): apply_term(apply_term(v, entry.sigma), eta)
             for v in clause_vars(reason)}, new_pi)

    def rule_factorize(self, i: int, j: int, eta: Subst) -> None:
        """Merge the conflict clause's literals i < j under `eta`."""
        cs = self.conflict
        eta0 = mgu_atoms(cs.clause[i].atom, cs.clause[j].atom)
        assert eta0 is not None
        self._rewrite_conflict("Factorize", cs.clause[:j] + cs.clause[j + 1:],
                               eta0, eta, {}, instantiate(cs.pi, eta))

    def _rewrite_conflict(self, rule: str, lits: Clause, eta0: Subst, eta: Subst,
                          reason_mu: Subst, pi: Constraint) -> None:
        """The closure step Resolve and Factorize share: the new conflict
        clause is `lits` under the mgu `eta0`, and its closure substitution
        is the one that `mu` factors into through `eta0`, restricted to the
        new clause.  `mu` is the conflict's sigma then `eta` on the conflict
        clause and `reason_mu` on the reason clause (Resolve only)."""
        cs = self.conflict
        mu = {v: apply_term(apply_term(v, cs.sigma), eta)
              for v in clause_vars(cs.clause)}
        mu.update(reason_mu)
        clause = canonical_clause(apply_clause(lits, eta0))
        sigma = restrict(factor_through(eta0, mu, mu), clause_vars(clause))
        self.conflict = ConflictSet(clause, sigma, pi)
        self._emit(rule, render_conflict(self.sig, self.conflict))

    def rule_backjump(self, case: int) -> int:
        """Learn the conflict clause, cut the trail to the level search's
        target and queue its candidates; `_resolution_step` vouches for `case`."""
        learned = canonical_variant(self.conflict.clause)
        target_len, target_level, cands = (
            self.compute_backjump_level(learned) if learned
            else (len(self.trail), 0, []))
        if self.auditor is not None:
            self.auditor.before_learn(self, learned, case, target_len)
        self.pool.append(learned)
        ci = len(self.pool) - 1
        self._index_new_clause(ci)
        self.trail.truncate(target_len)
        self.conflict = None
        self._decay_scores()
        self._reroll_refinements(target_len)
        self._emit(
            "Backjump",
            f"case {case} | learn C{ci + 1}: "
            f"{render_clause(self.sig, learned)} | to level {target_level}",
        )
        self._pq.clear()
        for cand in cands:
            self._enqueue(cand)
        return ci

    # -- helpers shared by the rules ------------------------------------------

    def _push(self, lit: Lit, pi: Constraint, reason: Optional[int],
              reason_lit: int = -1, sigma: Optional[Subst] = None) -> TrailEntry:
        # every trail entry gets its own fresh variables
        lit2, pi2, ren = rename_clit_fresh(lit, pi)
        sigma2 = compose(sigma or {}, ren) if reason is not None else {}
        level = self.trail.level + (reason is None)   # a decision opens one
        entry = TrailEntry(lit2, pi2, level=level, pos=len(self.trail),
                           reason=reason, reason_lit=reason_lit, sigma=sigma2)
        self.trail.push(entry)
        return entry

    def _is_undefined(self, lit: Lit, pi: Constraint) -> bool:
        return not any(overlaps(lit, pi, e.lit, e.pi, self.n)
                       for e in self.trail.for_pred(lit.pred))

    def _occurs_in_input(self, lit: Lit) -> bool:
        # optional fourth condition of Decide: |L| instantiates an input atom
        return any(match_lit(l.atom, lit.atom) is not None
                   for c in self.original for l in c)

    def _entry_unifiers(self, lits: Clause, entry: TrailEntry,
                        ) -> list[tuple[int, Lit, Subst]]:
        """(position, atom, its mgu with the entry's atom) for each literal of
        `lits` (the conflict clause under its sigma) the entry can falsify."""
        target = entry.lit.atom
        out = []
        for i, l in enumerate(lits):
            if l.neg == entry.lit.neg or l.pred != target.pred:
                continue
            eta = mgu_atoms(target, l.atom)
            if eta is not None:
                out.append((i, l.atom, eta))
        return out

    def _factorize_choice(self, cs: ConflictSet, entry: TrailEntry,
                          unifiers: list[tuple[int, Lit, Subst]]):
        # a pair's joint unifier unifies each of its literals with the entry,
        # so only the literals that unify with it alone can pair
        for k, (i, ai, _) in enumerate(unifiers):
            for j, aj, _ in unifiers[k + 1:]:
                eta = mgu_atoms(ai, aj)
                if eta is None:
                    continue
                eta = mgu_atoms(apply_lit(ai, eta), entry.lit.atom, base=eta)
                if eta is not None and self._meets_entry(
                        cs.pi, entry, eta) is not None:
                    return i, j, eta
        return None

    def _meets_entry(self, pi: Constraint, entry: TrailEntry,
                     eta: Subst) -> Optional[Constraint]:
        """`pi` and `entry`'s constraint met under `eta`, when a clause
        constrained by `pi` has an instance under `eta` that `entry`
        falsifies: `eta` unifies one of its literals with `entry`."""
        met = conjoin(instantiate(pi, eta),
                      instantiate(rename_rhs_fresh(entry.pi), eta))
        return None if no_instances(met, self.n) else met

    # -- propagation ----------------------------------------------------------

    def prop_loop(self) -> bool:
        """Exhaust the queue; False means a conflict is pending."""
        while self._pq:
            _, _, cand = heapq.heappop(self._pq)
            for tau, pi in self._undefined_pieces(cand.lit, [({}, cand.pi)]):
                if not self.add_consequences(self.rule_propagate(cand, tau, pi)):
                    return False
        return True

    def _undefined_pieces(self, lit: Lit, pieces: list[tuple[Subst, Constraint]],
                          start: int = 0, upto: Optional[int] = None):
        """The non-empty pieces (sigma', pi') of `lit`, in `diff_apart`'s
        order, left of the non-empty `pieces` by the entries of its predicate
        at positions start <= pos < upto.  The difference is taken at the
        call, emptiness lazily.

        `diff_apart` is handed only the entries, of either sign, that the
        trail's argument index offers one of the starting pieces, in trail
        order.  Every piece the fold makes is an instance of a starting
        piece, so an entry that clashes with each of them clashes with all
        their pieces: it would leave each piece as it is and be renamed
        never, so leaving it out changes neither the pieces nor the fresh
        variables."""
        trail = self.trail
        sources = [(e.lit, e.pi) for e in trail.unifiable(
            lit.pred, [apply_args(lit.args, s) if s else lit.args
                       for s, _ in pieces], start,
            len(trail) if upto is None else upto)]
        return ((s, p) for s, p in diff_apart(lit, pieces, sources)
                if not no_instances(p, self.n))

    def _derive(self, ci: int, clause: Clause, upto: Optional[int] = None,
                newest_pos: Optional[int] = None):
        """The one derivation path: resolve `clause` against the first `upto`
        trail entries (default: all).

        Yields, in leaf order, a ConflictSet for every leaf with no literal
        left and a ground instance, and the PropCands (free variables
        eliminated) of every leaf with one literal left whose cover size, the
        queue priority, is positive.  With `newest_pos`, only derivations
        that use that entry.  `ci` is the clause's pool index.
        """
        for leaf in find_candidates(clause, self.trail, keep_limit=1, upto=upto,
                                    newest_pos=newest_pos):
            if not leaf.remaining:
                if not no_instances(leaf.pi, self.n):
                    yield ConflictSet(clause, restrict(leaf.sigma, clause_vars(clause)),
                                      leaf.pi, origin=ci)
                continue
            lit_idx = leaf.remaining[0]
            lit = apply_lit(clause[lit_idx], leaf.sigma)
            for lit2, pi2, sigma2 in elim_free_vars(lit, leaf.pi, leaf.sigma, self.n):
                size = cover_size(lit2, pi2, self.n)
                if size:
                    yield PropCand(ci, lit_idx, sigma2, pi2, lit2, size)

    def add_consequences(self, entry: TrailEntry) -> bool:
        """Conflict checks and new candidates after a push; False on conflict."""
        # the entry falsifies only literals of the complementary shape
        pred, neg = entry.lit.pred, not entry.lit.neg
        # type-1: the first queued candidate, in (size, seq) order, that the
        # new entry falsifies; the others of another shape are dropped
        # before anything is sorted
        clashing = sorted(item for item in self._pq
                          if item[2].lit.pred == pred and item[2].lit.neg == neg)
        for _, _, cand in clashing:
            delta = mgu_atoms(cand.lit.atom, entry.lit.atom)
            if delta is None:
                continue
            met = self._meets_entry(cand.pi, entry, delta)
            if met is None:
                continue
            clause = self.pool[cand.clause_idx]
            self.rule_conflict(ConflictSet(
                clause, restrict(compose(cand.sigma, delta), clause_vars(clause)),
                met, origin=cand.clause_idx))
            return False
        # derived consequences: every clause touching the new entry
        for ci in self._clauses_by_shape.get((pred, neg), []):
            for got in self._derive(ci, self.pool[ci], newest_pos=entry.pos):
                if isinstance(got, ConflictSet):
                    self.rule_conflict(got)
                    return False
                self._enqueue(got)
        return True

    def _reseed_full(self) -> None:
        # queue every clause's candidates; a conflict leaf is not acted on
        for ci, clause in enumerate(self.pool):
            for got in self._derive(ci, clause):
                if isinstance(got, PropCand):
                    self._enqueue(got)

    def full_scan(self) -> Optional[ConflictSet | PropCand]:
        """The first conflict set, or candidate with an undefined piece, of
        any pool clause against the trail.  A query; it enqueues nothing."""
        return next((got for ci, clause in enumerate(self.pool)
                     for got in self._derive(ci, clause)
                     if isinstance(got, ConflictSet) or any(self._undefined_pieces(
                         got.lit, [({}, got.pi)]))), None)

    # -- decisions -------------------------------------------------------------

    def select_decision(self) -> Optional[tuple[Lit, Constraint]]:
        """The next decision, which satisfies every precondition of Decide:
        a script line once checked, else the unblocked piece `_repair_blocking`
        finds for the first pool literal, in score order, with undefined pieces."""
        if self._script:
            lit, pi = self._script.pop(0)
            self._check_script_decision(lit, pi)
            return lit, pi
        jitter = self._rng.random if self._rng is not None else lambda: 0.0
        ranked = sorted((-self._combined_score(lit), jitter(), i)
                        for i, (lit, _) in enumerate(self.pool_cands))
        for _, _, i in ranked:
            lit, pi = self.pool_cands[i]
            pieces = self._decision_pieces(lit, pi)
            if pieces:
                return self._repair_blocking(
                    i, [(apply_lit(lit, s), p) for s, p in pieces])
        return None

    def _decision_pieces(self, lit: Lit, pi: Constraint,
                         ) -> list[tuple[Subst, Constraint]]:
        """The non-empty pieces of `lit` (constraint `pi`, non-empty) minus the
        atoms the trail defines, in `diff_apart`'s order against the whole
        trail: the pieces carried per atom from the last call, unless a
        backjump dropped them, less the entries pushed since."""
        key = (lit.atom, pi)
        pieces, start = self._carried.get(key, ([({}, pi)], 0))
        pieces = list(self._undefined_pieces(lit, pieces, start=start))
        self._carried[key] = (pieces, len(self.trail))
        return pieces

    def _check_script_decision(self, lit: Lit, pi: Constraint) -> None:
        # a script line comes from outside the search, so Decide's
        # preconditions are checked here, once; `__init__` normalized pi
        if no_instances(pi, self.n):
            raise RuleRejected("empty decision")
        if not self._is_undefined(lit, pi):
            raise RuleRejected("decision covers a defined atom")
        wit = is_blocked(self.trail, len(self.trail), lit, pi, self.pool, self.n)
        if wit is not None:
            raise RuleRejected(f"decision blocked by clause C{wit[0] + 1}")
        if not self._occurs_in_input(lit):
            raise RuleRejected("decision does not instantiate an input literal")

    def _repair_blocking(self, pool_idx: int,
                         pieces: list[tuple[Lit, Constraint]],
                         ) -> tuple[Lit, Constraint]:
        """The first of the non-empty `pieces`, split while blocked (a ground
        part never is); each part of a split holds a witness atom, so is non-empty.

        If any split happened, the pool entry is replaced by the refined
        piece list so the candidate pool keeps covering the original atoms;
        the replacement is undone when backjumping below this point.
        """
        work = list(pieces)
        split = False
        while (wit := is_blocked(self.trail, len(self.trail), *work[0],
                                 self.pool, self.n)) is not None:
            d_lit, d_pi = work[0]
            _, _, l1, l2 = wit
            # l1 and l2 are distinct ground instances of d_lit: they bind
            # some variable x apart, and the split puts x at l1's constant
            d1 = match_lit(d_lit.atom, l1.atom)
            d2 = match_lit(d_lit.atom, l2.atom)
            x = next(v for v in lit_vars(d_lit) if d1[v] != d2[v])
            c1 = d1[x]
            work[0:1] = [(apply_lit(d_lit, {x: c1}), instantiate(d_pi, {x: c1})),
                         (d_lit, conjoin(d_pi, conj([((x,), (c1,))])))]
            split = True
        if split:
            self._refinements.append(
                (len(self.trail), pool_idx, self.pool_cands[pool_idx], len(work)))
            self.pool_cands[pool_idx:pool_idx + 1] = work
        return work[0]

    def _reroll_refinements(self, trail_len: int) -> None:
        # undo the refinements, and drop the carried pieces, taken at a
        # trail length above `trail_len`
        while self._refinements and self._refinements[-1][0] > trail_len:
            _, idx, old, count = self._refinements.pop()
            self.pool_cands[idx:idx + count] = [old]
        self._carried = {key: kept for key, kept in self._carried.items()
                         if kept[1] <= trail_len}

    # -- scores -----------------------------------------------------------------

    def _bump_clause(self, clause: Clause) -> None:
        for l in clause:
            key = _canon_lit(l)
            self.scores[key] = self.scores.get(key, 0.0) + self._bump

    def _decay_scores(self) -> None:
        self._bump /= 0.95
        if self._bump > 1e100:
            # rescale everything before the bump overflows; the order stays
            scale = 1.0 / self._bump
            self.scores = {l: s * scale for l, s in self.scores.items()}
            self._bump = 1.0

    def _combined_score(self, lit: Lit) -> float:
        """Sum of the scores of the literals unifiable with `lit`."""
        total = 0.0
        for l, s in self.scores.items():
            if (l.neg == lit.neg and l.pred == lit.pred
                    and unifiable_apart(l.args, lit.args)):
                total += s
        return total

    # -- the regular-run driver -----------------------------------------------

    def solve(self) -> Verdict:
        try:
            self._solve()
        except StepCap:
            return self._verdict("stepcap", [])
        return self._verdict(self.terminal, [CLit(e.lit, e.pi)
                                             for e in self.trail.entries])

    def _solve(self) -> None:
        self._reseed_full()
        while True:
            if self.conflict is not None:
                self._resolution_step()
                continue
            if any(c == () for c in self.pool):
                self.rule_failure()
                return
            if not self.prop_loop():
                continue  # conflict recorded by add_consequences
            d = self.select_decision()
            if d is not None:
                self.add_consequences(self.rule_decide(*d))
                continue
            if self.auditor is not None:
                self.auditor.at_success(self)
            self.rule_success()
            return

    def _resolution_step(self) -> None:
        """Apply the conflict-resolution rules that fit, up to the first
        that is not a Skip.  The preconditions are decided here, each once
        per step: assertiveness (Backjump), then, from one scan of the
        conflict literals against the rightmost entry, the Factorize pair and
        the resolvable position, which `rule_factorize` and `rule_resolve`
        take as arguments.  A run of Skips shares one assertiveness answer:
        a skipped entry defines no literal of any conflict instance, so
        those instances and the levels of their literals stay as they were."""
        cs = self.conflict
        if cs.clause == ():
            # the empty clause was derived (only level 0 can get here):
            # learn it, then Failure follows
            assert self.trail.level == 0
            self.rule_backjump(1)
            return
        if self.trail.level > 0 and is_assertive(
                self.trail, cs.clause, cs.sigma, cs.pi):
            self.rule_backjump(2)
            return
        lits = apply_clause(cs.clause, cs.sigma)
        while True:
            entry = self.trail.entries[-1]
            unifiers = self._entry_unifiers(lits, entry)
            resolvable = None if entry.is_decision else next(
                ((pos, eta, met) for pos, _, eta in unifiers
                 if (met := self._meets_entry(cs.pi, entry, eta)) is not None),
                None)
            if entry.is_decision or resolvable is not None:
                break
            self.rule_skip()
        found = self._factorize_choice(cs, entry, unifiers)
        if found is not None:
            self.rule_factorize(*found)
        elif resolvable is None:
            self.rule_backjump(3)
        else:
            self.rule_resolve(*resolvable)

    def compute_backjump_level(self, learned: Clause,
                               ) -> tuple[int, int, list[PropCand]]:
        """(trail prefix length, level, the candidates the learned clause
        derives there) for the backjump target, one derivation per level: the
        smallest level where the learned clause propagates, else the level
        below the current one.  No prefix below the current level falsifies
        the learned clause (see the module docstring), so every leaf of those
        derivations is a candidate."""
        ci = len(self.pool)
        k = self.trail.level
        assert k >= 1, "backjump level computed only above level 0"
        for j in range(k):
            plen = self.trail.level_prefix_len(j)
            cands = list(self._derive(ci, learned, upto=plen))
            assert all(isinstance(c, PropCand) for c in cands), (
                "a learned clause is false below its conflict level")
            if any(any(self._undefined_pieces(c.lit, [({}, c.pi)], upto=plen))
                   for c in cands):
                break
        return plen, j, cands

    def _verdict(self, status: str, model: list[CLit]) -> Verdict:
        # each Backjump learns one clause, and nothing else adds one
        learned = len(self.pool) - self.n_input
        return Verdict(status, model=model, steps=self.steps, learned=learned,
                       trace=self.trace, backjumps=learned)


# ---------------------------------------------------------------------------
# small helpers

def _canon_lit(l: Lit) -> Lit:
    # the variant whose variables are numbered 0, 1, ... in order of occurrence
    return Lit(l.neg, l.pred, numbered(l.args))


# ---------------------------------------------------------------------------
# admissible simplifications (preprocessing)

def is_tautology(c: Clause) -> bool:
    atoms = {(l.pred, l.args) for l in c if not l.neg}
    return any((l.pred, l.args) in atoms for l in c if l.neg)


def _embedding(lits: Clause, target: Clause, bindable: frozenset[int],
               sigma: Subst) -> Optional[int]:
    """Where `lits[0]` goes: the first position in `target` that starts a
    map of `lits` onto distinct literals of `target` by an extension of
    `sigma` binding only `bindable` (0 when `lits` is empty), or None when
    there is none.  Binding the target's own variables would fabricate
    substitutions it never made."""
    if not lits:
        return 0
    want = apply_lit(lits[0], sigma) if sigma else lits[0]
    for j, l in enumerate(target):
        m = match_lit(want, l)
        if (m is not None and m.keys() <= bindable
                and _embedding(lits[1:], target[:j] + target[j + 1:],
                               bindable, compose(sigma, m)) is not None):
            return j
    return None


def simplify_pool(pool: list[Clause]) -> tuple[list[Clause], list[str]]:
    """Tautology deletion, strict subsumption, subsumption resolution.

    Both rules embed literals of c into distinct literals of d of the same
    predicate and sign, so a pair is ruled out by the feature vectors of its
    clauses (each one's literal count per (predicate, sign) key; Schulz,
    *Simple and Efficient Clause Subsumption with Feature Vector Indexing*):
    c can subsume d only when every count of c fits in d, and c can resolve
    into d with L, embedding (c - L) + {~L}, only when the key of ~L is one of
    d's and every count fits but L's own, which may exceed d's by one.  Only
    the literals L of c that this allows are tried, in order; an embedding of
    any other one fails on a count.  A pair test reads nothing but its two
    clause versions and their positions, so a pair that failed is not tried
    again in its sweep until one of the two is replaced: the round that
    confirms the fixpoint tries only the pairs that changed.
    """
    log: list[str] = []
    clauses = list(pool)
    alive = [True] * len(clauses)
    feats = [_features(c) for c in clauses]
    variants: list[Optional[tuple]] = [None] * len(clauses)
    # version numbers, unique across positions: j, j + len(pool), ... at position j
    ver = list(range(len(clauses)))
    failed_res: set[tuple[int, int]] = set()    # (version of c, version of d)
    failed_sub: set[tuple[int, int]] = set()

    def variant(k: int) -> tuple:
        if variants[k] is None:
            variants[k] = _variant(clauses[k])
        return variants[k]

    def subsumes(k: int, d: Clause) -> bool:
        var, bind, _ = variant(k)
        return _embedding(var, d, bind, {}) is not None

    # the later passes only drop literals of a non-tautology or delete
    # clauses, so no tautology appears after this one pass
    for i, c in enumerate(clauses):
        if is_tautology(c):
            alive[i] = False
            log.append(f"tautology: deleted clause {i + 1}")
    changed = True
    while changed:
        changed = False
        # subsumption resolution: C or L with C*s subset of D deletes ~L*s from D
        for i, c in enumerate(clauses):
            if not alive[i] or not c:
                continue
            cc, _, comp = feats[i]
            vi = ver[i]
            for j, d in enumerate(clauses):
                if (i == j or not alive[j] or comp.isdisjoint(feats[j][1])
                        or (vi, ver[j]) in failed_res):
                    continue
                cd = feats[j][0]
                over = [k for k, m in cc.items() if m > cd.get(k, 0)]
                res = None
                if len(over) < 2 and all(cc[k] == cd.get(k, 0) + 1 for k in over):
                    _, bind, tries = variant(i)
                    for key, ckey, lits in tries:
                        if cd.get(ckey, 0) > cc.get(ckey, 0) and over in ([], [key]):
                            at = _embedding(lits, d, bind, {})
                            if at is not None:
                                res = canonical_clause(d[:at] + d[at + 1:])
                                break
                if res is None:
                    failed_res.add((vi, ver[j]))
                    continue
                clauses[j] = res
                feats[j], variants[j] = _features(res), None
                ver[j] += len(clauses)
                log.append(f"subsumption resolution: clause {j + 1} reduced")
                changed = True
        for i, c in enumerate(clauses):
            if not alive[i]:
                continue
            cc, keys, _ = feats[i]
            vi = ver[i]
            for j, d in enumerate(clauses):
                if (i == j or not alive[j] or not keys <= feats[j][1]
                        or (vi, ver[j]) in failed_sub):
                    continue
                cd = feats[j][0]
                # of two clauses that subsume each other the earlier stays
                if (all(m <= cd[k] for k, m in cc.items()) and subsumes(i, d)
                        and (i < j or len(c) < len(d) or not subsumes(j, c))):
                    alive[j] = False
                    log.append(f"subsumption: clause {j + 1} deleted by {i + 1}")
                    changed = True
                else:
                    failed_sub.add((vi, ver[j]))
    return [c for i, c in enumerate(clauses) if alive[i]], log


def _features(c: Clause) -> tuple:
    """The feature vector of a clause version: its literal count per
    (predicate, sign) key, its keys, and their complements."""
    counts: dict[tuple[str, bool], int] = {}
    for l in c:
        counts[(l.pred, l.neg)] = counts.get((l.pred, l.neg), 0) + 1
    return counts, frozenset(counts), frozenset((p, not neg) for p, neg in counts)


def _variant(c: Clause) -> tuple:
    """A variant of c sharing no variable with any clause, its variables (the
    ones an embedding may bind), and its resolution tries: (key of L, key of
    ~L, ~L followed by the rest of the variant) for each literal L of the
    variant, in order, but for a repeat of the literal before it (whose
    embedding search is the same)."""
    var = canonical_variant(c)
    tries = [((l.pred, l.neg), (l.pred, not l.neg), (l.negate(),) + var[:li] + var[li + 1:])
             for li, l in enumerate(var) if not li or l != var[li - 1]]
    return var, frozenset(clause_vars(var)), tries
