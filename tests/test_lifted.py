"""The solver's lifted counting and conflict derivations against the
grounding versions they replace.

The grounding versions (`constrained.cover`, `trail.is_assertive`, ground
enumeration of clause instances) remain as referees; here they check
`cover_size`, `derive.is_assertive`, the falsifiability answer of
`Solver._candidates_under_prefix` and the witness of `derive.is_blocked` on
random constraints and on every call a solve makes, and the audited
colourings run clean with only the learning checks skipped.  A last test
forbids grounding outright and solves anyway, and another checks that
`constrained`'s lifted steps rename a trail entry only when it unifies.
The last ones check that the learning path's shortcuts are exact:
`_factorize_choice` against the all-pairs scan it replaced, the
newest-entry searches of `find_candidates` against the search without a
newest entry, the planned join with its argument index against the
clause-order search that offers every entry of a literal's (predicate,
sign), the join order on a hand-built clause, the ground path of
`meet` against renaming, the shape test of `simplify_pool` against the loop
that tries every pair, each conflict-resolution precondition decided once
per step, and the backjump queuing what its level search derived.  Then Decide and
Propagate are checked to re-run none of the preconditions their search
established, the decision pieces carried between `select_decision`
calls to equal the non-empty pieces of a fresh trail difference, to be
shared by a literal and its complement and to be dropped by a backjump
that cuts past them, the blocking repair to take only non-empty pieces and
return one, every caller to hand `find_candidates` a trail
prefix, and the queue clash scan, filtered by shape, to find the conflict
the whole-queue scan finds.
"""
import itertools
import os
import random
import sys

import pytest

from eprsat import audit, constrained, derive, solver as solver_mod, syntax, trail
from eprsat.audit import Auditor
from eprsat.constrained import cover, cover_size, diff_apart, no_instances
from eprsat.constraints import (
    BOT,
    TOP,
    conj,
    conjoin,
    instantiate,
    lvars,
    normalize,
    rename_rhs_fresh,
    violates,
)
from eprsat.derive import find_candidates
from eprsat.oracle import GenParams, gen_benchmark, gen_random_instance
from eprsat.parser import parse_problem, parse_script
from eprsat.render import render_clit, render_conflict, render_model
from eprsat.solver import ConflictSet, RunConfig, Solver
from eprsat.syntax import (
    Lit,
    apply_clause,
    apply_lit,
    canonical_variant,
    clause_vars,
    compose,
    ground_assignments,
    lit_vars,
    match_args,
    mgu_atoms,
    restrict,
    var_code,
)
from population import criterion_1_population


# ---------------------------------------------------------------------------
# cover_size

def _random_constraint(rng, vs, n):
    """A random conjunction over lhs variables `vs`; subconstraints share
    lhs variables and mix constants with (possibly repeated) rhs variables."""
    subs = []
    for i in range(rng.randrange(1, 6)):
        width = rng.randrange(1, min(3, len(vs)) + 1)
        lhs = tuple(rng.sample(vs, width))
        rvs = [var_code(8000 + 10 * i + k) for k in range(2)]
        rhs = tuple(rng.choice(rvs) if rng.random() < 0.4 else rng.randrange(n)
                    for _ in range(width))
        subs.append((lhs, rhs))
    return normalize(conj(subs))


def test_cover_size_counts_the_cover():
    rng = random.Random(4242)
    seen = dict(checked=0, top=0, bot=0, multi=0, shared=0, constants=0)
    while seen["checked"] < 1200:
        n = rng.randrange(1, 5)
        arity = rng.randrange(0, 4)
        pool = [var_code(rng.randrange(0, 4)) for _ in range(arity)]
        args = tuple(rng.choice(pool) if rng.random() < 0.8 else rng.randrange(n)
                     for _ in range(arity))
        lit = Lit(False, "P", args)
        vs = lit_vars(lit)
        roll = rng.random()
        if roll < 0.05:
            pi = TOP
        elif roll < 0.1:
            pi = BOT
        else:
            pi = _random_constraint(rng, vs, n) if vs else TOP
        assert cover_size(lit, pi, n) == len(cover(lit, pi, n)), (lit, pi, n)
        seen["checked"] += 1
        seen["top"] += pi.is_top
        seen["bot"] += pi.is_bot
        if pi.kind == "and":
            lhs_vars = [v for lhs, _ in pi.subs for v in lhs]
            seen["multi"] += len(pi.subs) > 1
            seen["shared"] += len(lhs_vars) > len(set(lhs_vars))
            seen["constants"] += any(t >= 0 for _, rhs in pi.subs for t in rhs)
    assert min(seen.values()) >= 50, seen


def test_cover_size_examples():
    x, y, v = var_code(0), var_code(1), var_code(20)
    # (P(x,y); (x,y) != (v,v) /\ x != a /\ y != b) over 3 constants
    pi = normalize(conj([((x, y), (v, v)), ((x,), (0,)), ((y,), (1,))]))
    assert cover_size(Lit(False, "P", (x, y)), pi, 3) == 3
    assert cover_size(Lit(False, "P", (x, x)), TOP, 5) == 5
    assert cover_size(Lit(False, "P", (0, 1)), TOP, 5) == 1
    assert cover_size(Lit(False, "P", (x,)), BOT, 5) == 0


def test_cover_size_rejects_free_lhs_variables():
    x, y = var_code(0), var_code(1)
    pi = conj([((y,), (0,))])
    with pytest.raises(ValueError):
        cover_size(Lit(False, "P", (x,)), pi, 3)


# ---------------------------------------------------------------------------
# lifted derivations against grounding, on every call a solve makes

def _is_false(sources, lit):
    # strong consistency: an opposite-polarity entry covering the atom defines it
    for e in sources:
        if e.lit.pred == lit.pred and e.lit.neg != lit.neg:
            d = match_args(e.lit.args, lit.args)
            if d is not None and not violates(d, e.pi):
                return True
    return False


def _ground_falsifiable(clause, sources, n):
    """Ground search for an all-false instance, grounding literal by literal
    and abandoning a partial grounding at its first literal that is not
    false."""
    def search(i, delta):
        if i == len(clause):
            return True
        lit = apply_lit(clause[i], delta)
        for ext in ground_assignments(lit_vars(lit), n):
            if _is_false(sources, apply_lit(lit, ext)) and search(
                    i + 1, {**delta, **ext}):
                return True
        return False

    return search(0, {})


def _ground_is_blocked(entries, d_lit, d_pi, pool, n):
    """The enumerating decision-blocking test the solver used to run."""
    if len(cover(d_lit.atom, d_pi, n)) <= 1:
        return None
    for ci, clause in enumerate(pool):
        hits = [p for p, l in enumerate(clause)
                if l.pred == d_lit.pred and l.neg != d_lit.neg]
        if len(hits) < 2:
            continue
        decision = trail.TrailEntry(d_lit, d_pi, 0, len(entries))
        for leaf in find_candidates(clause, entries + [decision], keep_limit=0):
            d_positions = [p for p, src in leaf.used if src == decision.pos]
            if len(d_positions) < 2:
                continue
            base = apply_clause(clause, leaf.sigma)
            vs = clause_vars(base)
            extra_vs = [v for v in lvars(leaf.pi) if v not in vs]
            for delta in ground_assignments(vs + extra_vs, n):
                if violates(delta, leaf.pi):
                    continue
                inst = apply_clause(base, delta)
                for i in range(len(d_positions)):
                    for j in range(i + 1, len(d_positions)):
                        l1, l2 = inst[d_positions[i]], inst[d_positions[j]]
                        if l1 != l2:
                            return ci, inst, l1, l2
    return None


class _Referee:
    """Wraps the solver's lifted calls and compares each with grounding."""

    def __init__(self, monkeypatch):
        self.calls = dict(assertive=0, falsifiable=0, blocked=0, witness=0)
        self.mismatches = []

        def assertive(tr, clause, sigma, pi):
            got = derive.is_assertive(tr, clause, sigma, pi)
            self.calls["assertive"] += 1
            if got != trail.is_assertive(tr, clause, sigma, pi):
                self.mismatches.append(("is_assertive", clause, got))
            return got

        real_candidates = Solver._candidates_under_prefix

        def candidates(solver, ci, clause, plen):
            got = real_candidates(solver, ci, clause, plen)
            self.calls["falsifiable"] += 1
            if (got is None) != _ground_falsifiable(
                    clause, solver.trail.entries[:plen], solver.n):
                self.mismatches.append(("falsifiable", clause, got))
            return got

        def is_blocked(entries, d_lit, d_pi, pool, n):
            got = derive.is_blocked(entries, d_lit, d_pi, pool, n)
            self.calls["blocked"] += 1
            self.calls["witness"] += got is not None
            if got != _ground_is_blocked(entries, d_lit, d_pi, pool, n):
                self.mismatches.append(("is_blocked", d_lit, got))
            return got

        monkeypatch.setattr(solver_mod, "is_assertive", assertive)
        monkeypatch.setattr(Solver, "_candidates_under_prefix", candidates)
        monkeypatch.setattr(solver_mod, "is_blocked", is_blocked)


def _coloring(nodes, edges, colours):
    ks = [f"k{j}" for j in range(1, colours + 1)]
    vs = [f"n{i}" for i in range(1, nodes + 1)]
    lines = [f"domain {' '.join(vs + ks)} .",
             "-node(X) | " + " | ".join(f"col(X,{k})" for k in ks) + " .",
             "-edge(X,Y) | -col(X,C) | -col(Y,C) ."]
    lines += [f"node({v}) ." for v in vs]
    lines += [f"edge({vs[a]},{vs[b]}) ." for a, b in edges]
    return parse_problem("\n".join(lines) + "\n")


def _c5_2():
    return _coloring(5, [(i, (i + 1) % 5) for i in range(5)], 2)


def _k4_3():
    return _coloring(4, [(i, j) for i in range(4) for j in range(i + 1, 4)], 3)


def _php_4_3():
    """Pigeonhole with 4 pigeons and 3 holes; its `pig` and `diff` facts are
    ground trail entries."""
    ps, hs = ["a1", "a2", "a3", "a4"], ["h1", "h2", "h3"]
    lines = [f"domain {' '.join(ps + hs)} .",
             "-pig(X) | " + " | ".join(f"in(X,{h})" for h in hs) + " .",
             "-in(X,H) | -in(Y,H) | -diff(X,Y) ."]
    lines += [f"pig({p}) ." for p in ps]
    lines += [f"diff({p},{q}) ." for p in ps for q in ps if p != q]
    return parse_problem("\n".join(lines) + "\n")


def _probe(n):
    return parse_problem(
        f"domain {' '.join(f'c{i}' for i in range(n))} .\n"
        "q(X) | -r(X) .\nr(c0) .\np(X,Y,Z,W) | -q(X) .\n-p(X,Y,Z,W) | s(Y) .\n")


@pytest.mark.parametrize("make, status, steps", [
    (_c5_2, "unsat", 101),
    (_k4_3, "unsat", 238),
    (_php_4_3, "unsat", 198),
])
def test_lifted_matches_ground_on_colourings(monkeypatch, make, status, steps):
    ref = _Referee(monkeypatch)
    sig, clauses = make()
    verdict = Solver(sig, clauses, RunConfig(max_steps=10_000)).solve()
    assert (verdict.status, verdict.steps) == (status, steps)
    assert ref.mismatches == []
    assert min(ref.calls.values()) > 0, ref.calls


@pytest.mark.parametrize("make, learned", [(_c5_2, 2), (_k4_3, 7), (_php_4_3, 3)])
def test_audited_colourings_skip_only_the_learning_checks(make, learned):
    # their universes are too big for the two learning checks, which are
    # skipped without grounding the learned clause; every other audit runs
    sig, clauses = make()
    auditor = Auditor(sig, clauses)
    verdict = Solver(sig, clauses, RunConfig(max_steps=10_000),
                     auditor=auditor).solve()
    assert (verdict.status, verdict.learned) == ("unsat", learned)
    assert auditor.violations == []
    assert auditor.skipped == learned * [
        "non-redundancy check skipped (universe too big)",
        "entailment check skipped (universe too big)"]


def test_audited_c5_2_shrinks_the_trail_at_every_skip():
    """Skip pops the trail, so at each of C5/2's 30 Skips the resolution
    measure's trail length drops, which is a decrease without comparing
    the instance multisets, and no audit flags it."""
    sig, clauses = _c5_2()
    auditor = Auditor(sig, clauses)
    check = auditor._check_measure_decrease
    lengths = []

    def spy(rule, solver, insts):
        before = auditor._measure[0]
        check(rule, solver, insts)
        if rule == "Skip":
            lengths.append((before, auditor._measure[0]))

    auditor._check_measure_decrease = spy
    verdict = Solver(sig, clauses, RunConfig(max_steps=10_000),
                     auditor=auditor).solve()
    assert (verdict.status, verdict.steps) == ("unsat", 101)
    assert len(lengths) == 30
    assert all(after == before - 1 for before, after in lengths)
    assert auditor.violations == []


def test_audited_c5_2_grounds_each_conflict_set_once(monkeypatch):
    """A Skip only pops the trail and keeps the conflict set, so the audit
    grounds each distinct conflict set once, not once per resolution step:
    on C5/2, whose 30 Skips would each ground it again."""
    sig, clauses = _c5_2()
    auditor = Auditor(sig, clauses)
    grounded, conflicts, skips = [], [], []
    real_instances, real_after_rule = audit.clause_instances, auditor.after_rule

    def instances(clause, sigma, pi, n):
        grounded.append(clause)
        return real_instances(clause, sigma, pi, n)

    def after_rule(rule, solver):
        if rule == "Skip":
            skips.append(solver.conflict)
        cs = solver.conflict
        if cs is not None and not any(seen is cs for seen in conflicts):
            conflicts.append(cs)
        real_after_rule(rule, solver)

    monkeypatch.setattr(audit, "clause_instances", instances)
    auditor.after_rule = after_rule
    verdict = Solver(sig, clauses, RunConfig(max_steps=10_000),
                     auditor=auditor).solve()
    assert (verdict.status, verdict.steps) == ("unsat", 101)
    assert len(skips) == 30
    assert grounded == [cs.clause for cs in conflicts]
    assert auditor.violations == []


def test_lifted_matches_ground_on_a_random_population(monkeypatch):
    ref = _Referee(monkeypatch)
    statuses = set()
    for seed in range(150):
        sig, clauses = gen_random_instance(GenParams(
            n_preds=3, max_arity=3, domain_size=4, n_clauses=10, max_lits=4,
            seed=seed))
        verdict = Solver(sig, clauses, RunConfig(max_steps=10_000)).solve()
        statuses.add(verdict.status)
    assert statuses == {"sat", "unsat"}
    assert ref.mismatches == []
    assert min(ref.calls.values()) > 0, ref.calls


# ---------------------------------------------------------------------------
# no grounding outside the oracle and the audits

def _forbid_grounding(monkeypatch):
    forbidden = (syntax.ground_assignments, constrained.cover)

    def refuse(*args, **kwargs):
        raise AssertionError("grounding outside the oracle and the audits")

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "eprsat" or name.startswith("eprsat.")):
            continue
        for attr, value in list(vars(module).items()):
            if any(value is f for f in forbidden):
                monkeypatch.setattr(module, attr, refuse)


@pytest.mark.parametrize("make, status, steps", [
    (lambda: _probe(60), "sat", 8),
    (lambda: gen_benchmark(7, 3), "sat", 82),
    (_c5_2, "unsat", 101),
    (_k4_3, "unsat", 238),
])
def test_solve_and_render_without_grounding(monkeypatch, make, status, steps):
    sig, clauses = make()
    _forbid_grounding(monkeypatch)
    with pytest.raises(AssertionError):
        cover(Lit(False, "r", (0,)), TOP, 1)
    verdict = Solver(sig, clauses, RunConfig(max_steps=10_000)).solve()
    assert (verdict.status, verdict.steps) == (status, steps)
    if status == "sat":
        assert render_model(sig, verdict.model).endswith("% all other atoms false\n")


# ---------------------------------------------------------------------------
# no renaming without unifying

@pytest.mark.parametrize("make, status, steps", [
    (lambda: gen_benchmark(7, 3), "sat", 82),
    (_k4_3, "unsat", 238),
])
def test_find_candidates_renames_only_sources_that_unify(monkeypatch, make, status,
                                                        steps):
    """Every rename in `constrained` (`meet`, `diff_apart`) is of a source
    whose atom then unifies."""
    renamed = []
    failed = []
    real_rename, real_mgu = constrained.rename_clit_fresh, constrained.mgu_atoms

    def rename(lit, pi):
        out = real_rename(lit, pi)
        renamed.append(out[0].atom)
        return out

    def mgu(a, b, base=None):
        theta = real_mgu(a, b, base)
        if theta is None and b == renamed[-1]:
            failed.append((a, b))
        return theta

    monkeypatch.setattr(constrained, "rename_clit_fresh", rename)
    monkeypatch.setattr(constrained, "mgu_atoms", mgu)
    sig, clauses = make()
    verdict = Solver(sig, clauses, RunConfig(max_steps=10_000)).solve()
    assert (verdict.status, verdict.steps) == (status, steps)
    assert renamed
    assert failed == [], f"{len(failed)} of {len(renamed)} renamed sources failed to unify"


# ---------------------------------------------------------------------------
# the learning path decides each thing once, and its shortcuts are exact

DATA = os.path.join(os.path.dirname(__file__), "data")


def _ex33():
    sig, clauses = parse_problem(open(os.path.join(DATA, "ex33.p")).read())
    script = parse_script(open(os.path.join(DATA, "ex33.dec")).read(), sig)
    return sig, clauses, script


def _learning_runs():
    """(name, sig, clauses, script, status or None): the colourings, the
    scripted ex33, pigeonhole and a random population."""
    runs = [("C5/2", *_c5_2(), None, "unsat"), ("K4/3", *_k4_3(), None, "unsat"),
            ("ex33", *_ex33(), "sat"), ("PHP(4,3)", *_php_4_3(), None, "unsat")]
    for seed in range(150):
        sig, clauses = gen_random_instance(GenParams(
            n_preds=3, max_arity=3, domain_size=4, n_clauses=10, max_lits=4,
            seed=seed))
        runs.append((f"pop-{seed}", sig, clauses, None, None))
    return runs


def _all_pairs_factorize_choice(s, cs, entry):
    """The scan `_factorize_choice` replaced: every same-sign,
    same-predicate pair in (i, j) order, unified with each other and then
    with the entry."""
    for i in range(len(cs.clause)):
        for j in range(i + 1, len(cs.clause)):
            li, lj = cs.clause[i], cs.clause[j]
            if li.neg != lj.neg or li.pred != lj.pred:
                continue
            if entry.lit.neg == li.neg or entry.lit.pred != li.pred:
                continue
            ai = apply_lit(li, cs.sigma).atom
            aj = apply_lit(lj, cs.sigma).atom
            eta = mgu_atoms(ai, aj)
            if eta is None:
                continue
            eta = mgu_atoms(apply_lit(ai, eta), entry.lit.atom, base=eta)
            if eta is None:
                continue
            entry_pi = rename_rhs_fresh(entry.pi)
            combined = conjoin(instantiate(cs.pi, eta),
                               instantiate(entry_pi, eta))
            if combined.is_bot:
                continue
            if constrained.no_instances(combined, s.n):
                continue
            return i, j, eta
    return None


def test_factorize_choice_matches_the_all_pairs_scan(monkeypatch):
    real = Solver._factorize_choice
    seen = dict(calls=0, found=0)

    def referee(self, cs, entry, unifiers):
        got = real(self, cs, entry, unifiers)
        seen["calls"] += 1
        seen["found"] += got is not None
        # fail at once: a wrong choice can send the solve into a long detour
        assert got == _all_pairs_factorize_choice(self, cs, entry), (
            cs.clause, entry.lit, got)
        return got

    monkeypatch.setattr(Solver, "_factorize_choice", referee)
    for name, sig, clauses, script, status in _learning_runs():
        verdict = Solver(sig, clauses,
                         RunConfig(max_steps=10_000, script=script)).solve()
        assert status in (None, verdict.status), name
    assert seen["found"] > 50 and seen["calls"] > seen["found"], seen


def test_newest_entry_cut_keeps_every_leaf(monkeypatch):
    """With `newest_pos`, `find_candidates` returns exactly the leaves of the
    search without it that use the newest entry, in the same order."""
    real = derive.find_candidates
    seen = dict(calls=0, leaves=0)

    def shape(leaves):
        return [(leaf.remaining, leaf.used) for leaf in leaves]

    def referee(clause, sources, keep_limit, newest_pos=None):
        got = real(clause, sources, keep_limit, newest_pos=newest_pos)
        if newest_pos is not None:
            want = [leaf for leaf in real(clause, sources, keep_limit=keep_limit)
                    if any(src == newest_pos for _, src in leaf.used)]
            seen["calls"] += 1
            seen["leaves"] += len(got)
            assert shape(got) == shape(want), (clause, newest_pos)
        return got

    monkeypatch.setattr(solver_mod, "find_candidates", referee)
    for make, status, steps in [(lambda: gen_benchmark(7, 3), "sat", 82),
                                (_c5_2, "unsat", 101), (_k4_3, "unsat", 238)]:
        sig, clauses = make()
        verdict = Solver(sig, clauses, RunConfig(max_steps=10_000)).solve()
        assert (verdict.status, verdict.steps) == (status, steps)
    assert seen["leaves"] > 100, seen


def _bucket_search(clause, sources, keep_limit, newest_pos=None):
    """The search `find_candidates` plans, made in clause order without the
    argument index: each position is offered every source of its
    (predicate, sign) bucket, and a search that must use the newest entry
    is cut once no unresolved literal can unify with it."""
    pool = [(e.pos, e.lit, e.pi) for e in sources]
    by_pred = {}
    for src in pool:
        by_pred.setdefault((src[1].pred, src[1].neg), []).append(src)

    def bucket(pos):
        return by_pred.get((clause[pos].pred, not clause[pos].neg), [])

    newest = [next((src[1] for src in bucket(p) if src[0] == newest_pos), None)
              for p in range(len(clause))]

    def reaches_newest(pos, sigma):
        return any(nl is not None and syntax.unifiable_apart(
                       syntax.apply_args(clause[p].args, sigma), nl.args)
                   for p, nl in enumerate(newest[pos:], pos))

    out = []

    def leaf_ok(kept, sigma, pi):
        return not any(derive.meet(apply_lit(clause[p], sigma), pi, src_lit, src_pi)
                       for p in kept for _, src_lit, src_pi in bucket(p))

    def rec(pos, kept, sigma, pi, uses, used):
        if newest_pos is not None and uses == 0 and not reaches_newest(pos, sigma):
            return
        if pos == len(clause):
            if leaf_ok(kept, sigma, pi):
                out.append(derive.DTuple(tuple(kept), sigma, pi, tuple(used)))
            return
        lit = apply_lit(clause[pos], sigma)
        for src_pos, src_lit, src_pi in bucket(pos):
            got = derive.meet(lit, pi, src_lit, src_pi)
            if got is not None:
                rec(pos + 1, kept, syntax.compose(sigma, got[0]), got[1],
                    uses + (src_pos == newest_pos), used + [(pos, src_pos)])
        if len(kept) < keep_limit:
            rec(pos + 1, kept + [pos], sigma, pi, uses, used)

    rec(0, [], {}, TOP, 0, [])
    return out


def _up_to_renaming(clause, leaves):
    """(remaining, used, sigma, pi) per leaf, sigma as the images of the
    clause's variables in clause order, and every variable that is not the
    clause's numbered by its first occurrence in those images, then in pi.
    So the key order of sigma, which follows the order of resolution, does
    not count."""
    vs = clause_vars(clause)
    keep = set(vs)
    out = []
    for leaf in leaves:
        ren = {}

        def name(t):
            return t if t >= 0 or t in keep else ren.setdefault(t, ("v", len(ren)))

        sigma = [name(leaf.sigma.get(v, v)) for v in vs]
        pi = [(tuple(map(name, lhs)), tuple(map(name, rhs)))
              for lhs, rhs in leaf.pi.subs]
        out.append((leaf.remaining, leaf.used, sigma, leaf.pi.kind, pi))
    return out


def test_argument_index_keeps_every_leaf(monkeypatch):
    """`find_candidates` offers a position only the sources that hold its
    literal's constant, or a variable, at each constant argument, and
    visits the positions in its join order, yet returns the leaves of the
    clause-order search offered the whole (predicate, sign) bucket, in the
    same order and equal up to the variables the search made: the sources
    it leaves out are only those `meet` rejects.  It calls `meet` less than
    a quarter as often."""
    real, real_meet = derive.find_candidates, derive.meet
    seen = dict(calls=0, leaves=0, meets=0, indexed=0, bucket=0)

    def meet(*args):
        seen["meets"] += 1
        return real_meet(*args)

    def referee(clause, sources, keep_limit, newest_pos=None):
        args = (clause, sources, keep_limit, newest_pos)
        before = seen["meets"]
        got = real(*args)
        middle = seen["meets"]
        want = _bucket_search(*args)
        seen["indexed"] += middle - before
        seen["bucket"] += seen["meets"] - middle
        seen["calls"] += 1
        seen["leaves"] += len(got)
        assert _up_to_renaming(clause, got) == _up_to_renaming(clause, want), (
            clause, newest_pos, keep_limit)
        return got

    monkeypatch.setattr(derive, "meet", meet)
    monkeypatch.setattr(derive, "find_candidates", referee)
    monkeypatch.setattr(solver_mod, "find_candidates", referee)
    runs = _learning_runs() + [("ladder-7-3", *gen_benchmark(7, 3), None, "sat")]
    for name, sig, clauses, script, status in runs:
        verdict = Solver(sig, clauses,
                         RunConfig(max_steps=10_000, script=script)).solve()
        assert status in (None, verdict.status), name
    assert seen["leaves"] > 1000 and seen["indexed"] * 4 < seen["bucket"], seen


def test_newest_entry_split_finds_each_leaf_once(monkeypatch):
    """The newest entry resolves at two positions of the pigeonhole clause,
    so `find_candidates` runs a search from each; a position before the one
    it starts from may not use the entry, so each leaf comes out once, and
    the leaves are those of the clause-order search, in its order, with the
    conjuncts of each constraint in that search's order.  The join starts at
    the newest entry's position and goes on with the literal with the fewest
    unbound variables."""
    a1, a2, a3, h1 = 0, 1, 2, 3
    x, y, h = var_code(100), var_code(101), var_code(102)
    w, u, t, z, v = (var_code(i) for i in range(110, 115))

    def entry(pos, pred, args, pi=TOP):
        return trail.TrailEntry(Lit(False, pred, args), pi, 0, pos)

    clause = (Lit(True, "in", (x, h)), Lit(True, "in", (y, h)),
              Lit(True, "diff", (x, y)))
    entries = [entry(0, "diff", (a1, a2)), entry(1, "diff", (a2, a1)),
               entry(2, "diff", (w, u), conj([((w, u), (t, t))])),
               entry(3, "in", (z, h1), conj([((z,), (a1,)), ((z,), (a2,))])),
               entry(4, "in", (a2, h1)),
               entry(5, "in", (v, h1), conj([((v,), (a3,))]))]
    got = find_candidates(clause, entries, newest_pos=5, keep_limit=1)
    shapes = [(leaf.remaining, leaf.used) for leaf in got]
    assert len(set(shapes)) == len(shapes)
    assert {0, 1} <= {p for leaf in got for p, src in leaf.used if src == 5}
    # found from position 1, then position 0: resolved again in clause order
    assert any(leaf.used == ((0, 3), (1, 5), (2, 2)) and len(leaf.pi.subs) == 4
               for leaf in got)
    want = _bucket_search(clause, entries, newest_pos=5, keep_limit=1)
    assert _up_to_renaming(clause, got) == _up_to_renaming(clause, want)

    real_meet = derive.meet
    met = []

    def meet(lit, *args):
        met.append(lit)
        return real_meet(lit, *args)

    monkeypatch.setattr(derive, "meet", meet)
    sources = [entry(0, "in", (a1, h1)), entry(1, "in", (a2, h1)),
               entry(2, "hole", (h1,)), entry(3, "diff", (a1, a2))]
    assert find_candidates(clause, sources, newest_pos=3, keep_limit=0)
    assert met[:2] == [clause[2], Lit(True, "in", (a1, h))]
    # the hole literal has the fewest unbound variables: it binds H first
    # without a newest entry, and comes right after in(X,H) with one
    holed = clause + (Lit(True, "hole", (h,)),)
    met.clear()
    assert find_candidates(holed, sources, keep_limit=0)
    assert met[:2] == [holed[3], Lit(True, "in", (x, h1))]
    met.clear()
    assert find_candidates(holed, sources, newest_pos=0, keep_limit=0)
    assert met[:2] == [holed[0], Lit(True, "hole", (h1,))]


_rename_clit_fresh = constrained.rename_clit_fresh


def _renaming_meet(lit, pi, src, src_pi):
    """`meet` without its ground path: rename `src` apart, unify, conjoin."""
    if not syntax.unifiable_apart(lit.args, src.args):
        return None
    r_lit, r_pi, _ = _rename_clit_fresh(src, src_pi)
    theta = mgu_atoms(lit.atom, r_lit.atom)
    met = conjoin(instantiate(pi, theta), instantiate(r_pi, theta))
    return None if met.is_bot else (theta, met)



def test_ground_meet_matches_the_renaming_path(monkeypatch):
    """A ground source under TOP is met without renaming, and the result is
    the renaming path's: the same theta, key order included, and the same
    constraint, for literals that repeat variables and hold constants."""
    def refuse(*args):
        raise AssertionError("a ground source was renamed")

    monkeypatch.setattr(constrained, "rename_clit_fresh", refuse)
    rng = random.Random(15)
    n = 3
    seen = dict(met=0, clash=0, repeated_clash=0, bot=0)
    for args in itertools.product((var_code(0), var_code(1), 0, 1), repeat=3):
        lit = Lit(False, "P", args)
        vs = lit_vars(lit)
        pis = [TOP] + [_random_constraint(rng, vs, n) for _ in range(3) if vs]
        for pi, src_args in itertools.product(pis, itertools.product(range(n), repeat=3)):
            src = Lit(True, "P", src_args)
            got = constrained.meet(lit, pi, src, TOP)
            want = _renaming_meet(lit, pi, src, TOP)
            assert (got is None) == (want is None), (lit, pi, src)
            if got is None:
                clash = syntax.match_args(args, src_args) is None
                seen["clash"] += clash
                seen["repeated_clash"] += clash and all(
                    a == b for a, b in zip(args, src_args) if a >= 0)
                seen["bot"] += not clash
                continue
            assert list(got[0].items()) == list(want[0].items()), (lit, src)
            assert got[1] == want[1], (lit, pi, src)
            seen["met"] += 1
    assert min(seen.values()) > 100, seen


def _unfiltered_simplify_pool(pool):
    """`simplify_pool` without its shape test: every ordered pair of live
    clauses is tried."""
    log = []
    clauses = list(pool)
    alive = [True] * len(clauses)
    variants = {}

    def variant(c):
        if c not in variants:
            variants[c] = canonical_variant(c)
        return variants[c]

    changed = True
    while changed:
        changed = False
        for i, c in enumerate(clauses):
            if alive[i] and solver_mod.is_tautology(c):
                alive[i] = False
                log.append(f"tautology: deleted clause {i + 1}")
                changed = True
        for i, c in enumerate(clauses):
            if not alive[i] or not c:
                continue
            for j, d in enumerate(clauses):
                if i == j or not alive[j]:
                    continue
                res = solver_mod._subsumption_resolvent(variant(c), d)
                if res is not None and res != d:
                    clauses[j] = res
                    log.append(f"subsumption resolution: clause {j + 1} reduced")
                    changed = True
        for i, c in enumerate(clauses):
            if not alive[i]:
                continue
            for j, d in enumerate(clauses):
                if i == j or not alive[j]:
                    continue
                if solver_mod._subsumes(variant(c), d) and (
                        i < j or len(c) < len(d)
                        or not solver_mod._subsumes(variant(d), c)):
                    alive[j] = False
                    log.append(f"subsumption: clause {j + 1} deleted by {i + 1}")
                    changed = True
    return [c for i, c in enumerate(clauses) if alive[i]], log


def test_simplify_shape_test_keeps_every_deletion(monkeypatch):
    """`simplify_pool` tries a pair only when the (predicate, sign) multisets
    of its clauses fit; the pool it leaves, up to variable renaming, and its
    deletion log are those of the loop that tries every pair, on the
    criterion-1 population and the learning runs, with fewer calls."""
    calls = dict(filtered=0, unfiltered=0)
    side = ["filtered"]

    def counted(real):
        def wrapper(c, d):
            calls[side[0]] += 1
            return real(c, d)
        return wrapper

    for name in ("_subsumes", "_subsumption_resolvent"):
        monkeypatch.setattr(solver_mod, name, counted(getattr(solver_mod, name)))

    def renamed(pool):
        return [apply_clause(c, {v: var_code(k) for k, v in enumerate(clause_vars(c))})
                for c in pool]

    pools = [clauses for _, clauses in criterion_1_population()]
    pools += [clauses for _, _, clauses, _, _ in _learning_runs()]
    deletions = 0
    for pool in pools:
        side[0] = "filtered"
        got, got_log = solver_mod.simplify_pool(pool)
        side[0] = "unfiltered"
        want, want_log = _unfiltered_simplify_pool(pool)
        assert got_log == want_log, pool
        assert renamed(got) == renamed(want), pool
        deletions += len(got_log)
    assert deletions > 100, deletions
    assert 0 < calls["filtered"] < calls["unfiltered"] / 2, calls


def test_resolution_step_decides_each_precondition_once(monkeypatch):
    """Per conflict-resolution step, `is_assertive` runs at most once, and a
    Factorize step runs `_factorize_choice` exactly once."""
    counts = {}
    factorized = dict(steps=0)
    bad = []
    real_step = Solver._resolution_step
    real_choice = Solver._factorize_choice
    real_factorize = Solver.rule_factorize

    def step(self):
        counts.update(assertive=0, choice=0, factorize=0)
        real_step(self)
        if counts["assertive"] > 1 or (counts["factorize"]
                                       and counts["choice"] != 1):
            bad.append(dict(counts))
        factorized["steps"] += counts["factorize"]

    def assertive(*args):
        counts["assertive"] += 1
        return derive.is_assertive(*args)

    def choice(self, *args):
        counts["choice"] += 1
        return real_choice(self, *args)

    def factorize(self, *args):
        counts["factorize"] += 1
        return real_factorize(self, *args)

    monkeypatch.setattr(Solver, "_resolution_step", step)
    monkeypatch.setattr(Solver, "_factorize_choice", choice)
    monkeypatch.setattr(Solver, "rule_factorize", factorize)
    monkeypatch.setattr(solver_mod, "is_assertive", assertive)
    for name, sig, clauses, script, status in _learning_runs()[:3]:
        verdict = Solver(sig, clauses,
                         RunConfig(max_steps=10_000, script=script)).solve()
        assert verdict.status == status, name
    assert bad == []
    assert factorized["steps"] > 10, factorized


def test_a_run_of_skips_shares_one_assertiveness_answer(monkeypatch):
    """No `is_assertive` call directly follows a Skip: a skipped entry
    defines no literal of any conflict instance, so the answer before the
    Skip stands, and the verdicts and step counts are unchanged."""
    runs = dict(calls=0, after_skip=0)
    current = []

    def assertive(*args):
        runs["calls"] += 1
        runs["after_skip"] += current[-1].trace[-1].rule == "Skip"
        return derive.is_assertive(*args)

    monkeypatch.setattr(solver_mod, "is_assertive", assertive)
    for make, steps in ((_c5_2, 101), (_k4_3, 238)):
        s = Solver(*make(), RunConfig(max_steps=10_000))
        current.append(s)
        verdict = s.solve()
        assert (verdict.status, verdict.steps) == ("unsat", steps)
    assert runs["after_skip"] == 0 and runs["calls"] > 0, runs


def _queued_form(s, cands):
    """(clause, literal, rendered piece) of `cands` in the order the queue
    pops them: smallest cover first, then as found; empty ones dropped."""
    sized = sorted(((cover_size(c.lit(s.pool), c.pi, s.n), k, c)
                    for k, c in enumerate(cands)), key=lambda t: t[:2])
    return [(c.clause_idx, c.lit_idx, render_clit(s.sig, c.lit(s.pool), c.pi))
            for size, _, c in sized if size]


def _backjump_past_a_false_level():
    """A solver at level 3 whose conflict ~P(X) | Q(X) has, at level 1, the
    candidate Q(a), true already, and at level 2 the false instance X = b:
    the backjump falls back to level 1 and queues that candidate."""
    sig, clauses = parse_problem("""
    domain a b .
    -P(a) | Q(a) .
    -P(b) | -Q(b) .
    R(a) | P(X) .
    """)
    script = parse_script("P(a)\nP(b)\nR(a)", sig)
    s = Solver(sig, clauses, RunConfig(script=script, simplify=False))
    for _ in range(3):
        s.add_consequences(s.rule_decide(*s.select_decision()))
        assert s.prop_loop()
    s.conflict = ConflictSet((Lit(True, "P", (var_code(0),)),
                              Lit(False, "Q", (var_code(0),))), {}, TOP)
    return s


def test_backjump_queues_what_the_learned_clause_derives(monkeypatch):
    """After each backjump that cuts at a level boundary the queue holds
    exactly what a fresh derivation of the learned clause against the cut
    trail yields, and the backjump derived nothing after the cut: the
    candidates come from the level search."""
    real_level = Solver.compute_backjump_level
    real_backjump = Solver.rule_backjump
    real_derive = Solver._derive
    cut = {}
    seen = dict(backjumps=0, queued=0)

    def level(self, learned):
        got = real_level(self, learned)
        cut["at_boundary"] = got[0] == self.trail.level_prefix_len(got[1])
        return got

    def derive_(self, *args, **kwargs):
        if "before" in cut and len(self.trail) < cut["before"]:
            cut["derived_after"] = True
        return real_derive(self, *args, **kwargs)

    def backjump(self, case):
        cut.clear()
        cut["before"] = len(self.trail)
        ci = real_backjump(self, case)
        del cut["before"]
        if cut.get("at_boundary"):
            assert "derived_after" not in cut, "derived after the cut"
            fresh = list(real_derive(self, ci, self.pool[ci], self.trail.entries))
            assert not any(isinstance(g, ConflictSet) for g in fresh)
            queued = [(c.clause_idx, c.lit_idx,
                       render_clit(self.sig, c.lit(self.pool), c.pi))
                      for _, _, c in sorted(self._pq)]
            assert queued == _queued_form(self, fresh)
            seen["backjumps"] += 1
            seen["queued"] += len(queued)
        return ci

    monkeypatch.setattr(Solver, "compute_backjump_level", level)
    monkeypatch.setattr(Solver, "_derive", derive_)
    monkeypatch.setattr(Solver, "rule_backjump", backjump)
    for make, steps in [(_c5_2, 101), (_k4_3, 238)]:
        verdict = Solver(*make(), RunConfig(max_steps=10_000)).solve()
        assert (verdict.status, verdict.steps) == ("unsat", steps)
    # the criterion-1 population, audited
    for seed, (sig, clauses) in enumerate(criterion_1_population()):
        auditor = Auditor(sig, clauses)
        Solver(sig, clauses, RunConfig(max_steps=10_000), auditor=auditor).solve()
        assert auditor.violations == [], (seed, auditor.violations[:3])
    s = _backjump_past_a_false_level()
    s.rule_backjump(2)
    assert (len(s.trail), s.trail.level, len(s._pq)) == (2, 1, 1)
    assert seen["backjumps"] > 40 and seen["queued"] > 40, seen


def test_decide_and_propagate_take_what_the_search_found(monkeypatch):
    """`rule_decide` and `rule_propagate` re-check none of their
    preconditions: inside them `is_blocked`, `no_instances`, `_is_undefined`
    and `_occurs_in_input` never run, while the search that vouches for them
    (`select_decision`, `prop_loop`) calls the first two."""
    inside = []
    calls = dict(rule=0, is_blocked=0, no_instances=0, decide=0, propagate=0)

    def count(real):
        def wrapper(*args):
            calls["rule" if inside else real.__name__] += 1
            return real(*args)
        return wrapper

    def rule(real, name):
        def wrapper(self, *args):
            calls[name] += 1
            inside.append(name)
            try:
                return real(self, *args)
            finally:
                inside.pop()
        return wrapper

    def forbidden(self, *args):
        raise AssertionError("a script-only check ran without a script")

    monkeypatch.setattr(solver_mod, "is_blocked", count(derive.is_blocked))
    monkeypatch.setattr(solver_mod, "no_instances", count(constrained.no_instances))
    monkeypatch.setattr(Solver, "rule_decide", rule(Solver.rule_decide, "decide"))
    monkeypatch.setattr(Solver, "rule_propagate",
                        rule(Solver.rule_propagate, "propagate"))
    monkeypatch.setattr(Solver, "_is_undefined", forbidden)
    monkeypatch.setattr(Solver, "_occurs_in_input", forbidden)
    for make, status, steps in [(_c5_2, "unsat", 101),
                                (lambda: gen_benchmark(7, 3), "sat", 82)]:
        sig, clauses = make()
        verdict = Solver(sig, clauses, RunConfig(max_steps=10_000)).solve()
        assert (verdict.status, verdict.steps) == (status, steps)
    assert calls["rule"] == 0, calls
    assert calls["decide"] > 0 and min(calls["is_blocked"], calls["no_instances"],
                                       calls["propagate"]) > 0, calls


# ---------------------------------------------------------------------------
# decision pieces carried between decisions

def _pieces_text(sig, lit, pieces):
    return [render_clit(sig, apply_lit(lit, s), p) for s, p in pieces]


def test_carried_decision_pieces_match_a_fresh_difference(monkeypatch):
    """At every `select_decision` call, each pool literal's carried pieces,
    kept under its atom, are the non-empty pieces of a fresh `diff_apart`
    against the whole trail, in the same order (compared as renderings,
    since the variable ids differ), also after the backjumps of the
    colourings and of the criterion-1 population (the whole of it: the
    instances that backjump are known only by solving them)."""
    real = Solver.select_decision
    seen = dict(carried=0, pieces=0)

    def referee(self):
        entries = self.trail.entries
        for lit, pi in list(self.pool_cands):
            kept = self._carried.get((lit.atom, pi))
            seen["carried"] += kept is not None and 0 < kept[1] <= len(entries)
            got = self._decision_pieces(lit, pi)
            want = [(s, p) for s, p in diff_apart(lit, [({}, pi)], [
                (e.lit, e.pi) for e in self.trail.for_pred(lit.pred)])
                if not no_instances(p, self.n)]
            assert _pieces_text(self.sig, lit, got) == _pieces_text(self.sig, lit, want), (
                render_clit(self.sig, lit, pi), len(entries))
            assert not any(no_instances(p, self.n) for _, p in got)
            seen["pieces"] += len(got)
        return real(self)

    monkeypatch.setattr(Solver, "select_decision", referee)
    runs = [(gen_benchmark(5, 4), "sat", 0), (_c5_2(), "unsat", 2),
            (_k4_3(), "unsat", 7)]
    runs += [(problem, None, None) for problem in criterion_1_population()]
    backjumps = 0
    for (sig, clauses), status, learned in runs:
        verdict = Solver(sig, clauses, RunConfig(max_steps=10_000)).solve()
        if status is not None:
            assert (verdict.status, verdict.learned) == (status, learned)
        backjumps += verdict.backjumps
    assert backjumps > 20 and seen["carried"] > 1000 and seen["pieces"] > 0, (
        backjumps, seen)


def test_backjump_drops_the_pieces_carried_past_its_cut(monkeypatch):
    """After every Backjump, each carried entry was taken at a trail length
    no longer than the trail the backjump left: the pieces taken past the
    cut are dropped with it, as the refinements are undone."""
    real = Solver.rule_backjump
    seen = dict(backjumps=0, dropped=0)

    def rule_backjump(self, case):
        before = len(self._carried)
        ci = real(self, case)
        assert all(kept[1] <= len(self.trail)
                   for kept in self._carried.values()), len(self.trail)
        seen["backjumps"] += 1
        seen["dropped"] += before - len(self._carried)
        return ci

    monkeypatch.setattr(Solver, "rule_backjump", rule_backjump)
    runs = [(_c5_2(), "unsat", 2), (_k4_3(), "unsat", 7)]
    runs += [(problem, None, None) for problem in criterion_1_population()]
    for (sig, clauses), status, learned in runs:
        verdict = Solver(sig, clauses, RunConfig(max_steps=10_000)).solve()
        if status is not None:
            assert (verdict.status, verdict.learned) == (status, learned)
    assert seen["backjumps"] > 20 and seen["dropped"] > 0, seen


def test_a_literal_and_its_complement_share_one_carried_difference(monkeypatch):
    """The pool literals are canonical variants, and the carried pieces
    are kept per atom: on ladder rung (7,3) the pool holds `q(X,Y)` and
    `~q(X,Y)`, and after the first decision `_carried` has fewer keys than
    the pool has literals."""
    real = Solver.select_decision
    seen = []

    def select_decision(self):
        got = real(self)
        if not seen:
            seen.append((len(self._carried), len(self.pool_cands)))
        return got

    monkeypatch.setattr(Solver, "select_decision", select_decision)
    verdict = Solver(*gen_benchmark(7, 3), RunConfig()).solve()
    assert (verdict.status, verdict.steps) == ("sat", 82)
    assert seen == [(11, 12)]


def test_repair_blocking_takes_non_empty_pieces_and_returns_one(monkeypatch):
    """`select_decision` hands `_repair_blocking` only non-empty pieces, at
    least one, and every call returns a non-empty piece: over ladder rung
    (7,3), C5/2, K4/3, PHP(4,3) and the criterion-1 population."""
    real = Solver._repair_blocking
    seen = dict(calls=0, pieces=0)

    def repair(self, pool_idx, pieces):
        assert pieces and not any(constrained.is_empty(l, p, self.n)
                                  for l, p in pieces)
        got = real(self, pool_idx, pieces)
        assert got is not None and not constrained.is_empty(*got, self.n)
        seen["calls"] += 1
        seen["pieces"] += len(pieces)
        return got

    monkeypatch.setattr(Solver, "_repair_blocking", repair)
    runs = [(gen_benchmark(7, 3), "sat", 82), (_c5_2(), "unsat", 101),
            (_k4_3(), "unsat", 238), (_php_4_3(), "unsat", 198)]
    runs += [(problem, None, None) for problem in criterion_1_population()]
    for (sig, clauses), status, steps in runs:
        verdict = Solver(sig, clauses, RunConfig(max_steps=10_000)).solve()
        if status is not None:
            assert (verdict.status, verdict.steps) == (status, steps)
    assert seen["calls"] > 400 and seen["pieces"] >= seen["calls"], seen


def test_find_candidates_reads_a_trail_prefix(monkeypatch):
    """Every caller hands `find_candidates` a trail prefix, whose entry at
    index i has position i, and a `newest_pos` inside it: the solver, the
    lifted assertiveness and blocking tests, and the audit, over the audited
    golden ex33 run, C5/2, K4/3 and the criterion-1 population.  The
    blocking test's decision is the one entry at level 0 with no reason."""
    real = derive.find_candidates
    seen = dict(calls=0, newest=0, blocking=0)

    def referee(clause, sources, keep_limit, newest_pos=None):
        assert [e.pos for e in sources] == list(range(len(sources))), clause
        if newest_pos is not None:
            assert 0 <= newest_pos < len(sources), (newest_pos, len(sources))
            seen["newest"] += 1
        seen["calls"] += 1
        seen["blocking"] += bool(sources) and sources[-1].is_decision and (
            sources[-1].level == 0)
        return real(clause, sources, keep_limit, newest_pos=newest_pos)

    monkeypatch.setattr(derive, "find_candidates", referee)
    monkeypatch.setattr(solver_mod, "find_candidates", referee)
    runs = [(*_ex33(), "sat"), (*_c5_2(), None, "unsat"),
            (*_k4_3(), None, "unsat")]
    runs += [(*problem, None, None) for problem in criterion_1_population()]
    for sig, clauses, script, status in runs:
        auditor = Auditor(sig, clauses)
        verdict = Solver(sig, clauses, RunConfig(max_steps=10_000, script=script),
                         auditor=auditor).solve()
        assert status in (None, verdict.status)
        assert auditor.violations == []
    assert min(seen.values()) > 100, seen


def _first_queue_clash(s, entry):
    """The clash scan as it was before the shape filter: the whole queue in
    (size, seq) order, each candidate instantiated, the first that the new
    entry falsifies; its rendered conflict, or None."""
    for _, _, cand in sorted(s._pq):
        lit = cand.lit(s.pool)
        if lit.neg == entry.lit.neg or lit.pred != entry.lit.pred:
            continue
        delta = mgu_atoms(lit.atom, entry.lit.atom)
        if delta is None:
            continue
        met = s._meets_entry(cand.pi, entry, delta)
        if met is None:
            continue
        clause = s.pool[cand.clause_idx]
        return render_conflict(s.sig, ConflictSet(
            clause, restrict(compose(cand.sigma, delta), clause_vars(clause)),
            met, origin=cand.clause_idx))
    return None


def test_shape_filtered_clash_scan_picks_the_first_clash(monkeypatch):
    """`add_consequences` scans only the queued candidates of the new
    entry's complementary shape, and finds the conflict the whole-queue
    scan finds first; with no clash there, it derives before any conflict.
    Over C5/2, K4/3 and the criterion-1 population."""
    real_add, real_derive = Solver.add_consequences, Solver._derive
    seen = dict(clashes=0, filtered=0)

    def derive(self, *args, **kwargs):
        self.derived = True
        return real_derive(self, *args, **kwargs)

    def add_consequences(self, entry):
        want = _first_queue_clash(self, entry)
        shape = (entry.lit.pred, not entry.lit.neg)
        seen["filtered"] += sum(1 for _, _, c in self._pq
                                if (c.base(self.pool).pred,
                                    c.base(self.pool).neg) != shape)
        self.derived = False
        ok = real_add(self, entry)
        if want is None:
            assert ok or self.derived, entry.lit
        else:
            assert not ok and not self.derived, entry.lit
            assert render_conflict(self.sig, self.conflict) == want
        seen["clashes"] += want is not None
        return ok

    monkeypatch.setattr(Solver, "add_consequences", add_consequences)
    monkeypatch.setattr(Solver, "_derive", derive)
    runs = [(_c5_2(), "unsat", 2), (_k4_3(), "unsat", 7)]
    runs += [(problem, None, None) for problem in criterion_1_population()]
    for (sig, clauses), status, learned in runs:
        verdict = Solver(sig, clauses, RunConfig(max_steps=10_000)).solve()
        if status is not None:
            assert (verdict.status, verdict.learned) == (status, learned)
    assert seen["clashes"] > 20 and seen["filtered"] > 300, seen
