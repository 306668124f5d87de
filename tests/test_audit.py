"""The audits fail closed: every check of the `Auditor` flags a state that
breaks it, with its exact message, and the learning checks record each
check they skip.

A run of the solver never reaches such a state, so these tests drive the
hooks directly with a stand-in solver that holds only what they read: the
clause pool, the domain size, the trail (which keeps the level) and the
conflict set.
Each per-entry check is shown to flag both at the push and at the sweep,
which run the same `_check_entry`.
"""
from types import SimpleNamespace

import pytest

from eprsat.audit import Auditor
from eprsat.constraints import TOP, conj
from eprsat.solver import ConflictSet
from eprsat.syntax import Lit, Signature, var_code
from eprsat.trail import Trail, TrailEntry

X = var_code(0)
a = 0
SIG = Signature({"P": 1, "Q": 1}, ("a", "b"))


def P(t, neg=False):
    return Lit(neg, "P", (t,))


def Q(t, neg=False):
    return Lit(neg, "Q", (t,))


def _learn(sig, inputs, pool, learned, trail_lits=(), target_len=0,
           snapshot=True):
    """The auditor after `learned` is learned at a case-(1) backjump to the
    first `target_len` entries of a trail of propagated `trail_lits`."""
    trail = Trail(sig.n)
    for pos, lit in enumerate(trail_lits):
        trail.push(TrailEntry(lit, TOP, level=0, pos=pos, reason=0))
    solver = SimpleNamespace(pool=pool, n=sig.n, trail=trail, conflict=None)
    auditor = Auditor(sig, inputs)
    if snapshot:
        auditor.after_rule("Conflict", solver)  # the ordering snapshot
    auditor.before_learn(solver, learned, 1, target_len)
    return auditor


def test_a_sound_learned_clause_passes_every_check():
    got = _learn(SIG, [(P(X),)], [], (P(X),))
    assert got.violations == [] and got.skipped == []


def test_learning_without_a_conflict_snapshot_is_flagged():
    got = _learn(SIG, [(P(X),)], [], (P(X),), snapshot=False)
    assert got.violations == ["learning without a conflict snapshot"]


@pytest.mark.parametrize("pool, learned, shown", [
    # every instance of P(X) is already a ground pool clause
    ([(P(X),)], (P(X),), "P(X)"),
    # P(a) | Q(a) is in no pool, but the smaller pool clause P(a) entails it
    ([(P(a),)], (P(a), Q(a)), "P(a) | Q(a)"),
])
def test_a_redundant_learned_clause_is_flagged(pool, learned, shown):
    got = _learn(SIG, pool, pool, learned)
    assert got.violations == [f"learned clause is redundant: {shown}"]
    assert got.skipped == []


def test_a_learned_clause_the_input_does_not_entail_is_flagged():
    got = _learn(SIG, [(P(X),)], [], (Q(a),))
    assert got.violations == ["learned clause not entailed by the input: Q(a)"]
    assert got.skipped == []


def test_a_false_instance_under_the_backjump_prefix_is_flagged():
    # ~Q(X) then P(X): every instance of Q(X) | ~P(X) is false under both
    # entries; the message shows the first instance in assignment order,
    # in the clause's own literal order
    learned = (Q(X), P(X, neg=True))
    trail = [Q(X, neg=True), P(X)]
    got = _learn(SIG, [learned], [], learned, trail, target_len=2)
    assert got.violations == ["learned clause has a false instance under the "
                              "backjump prefix: Q(a) | ~P(a)"]
    # under the first entry alone ~P(a) is undefined: nothing is false
    assert _learn(SIG, [learned], [], learned, trail,
                  target_len=1).violations == []


def test_checks_over_a_universe_too_big_are_skipped():
    # P/3 over four constants: 64 atoms, over the atom cap of 60
    sig = Signature({"P": 3}, ("a", "b", "c", "d"))
    unit = (Lit(False, "P", (X, X, X)),)
    got = _learn(sig, [unit], [unit], (Lit(False, "P", (a, a, a)),))
    assert got.violations == []
    assert got.skipped == ["non-redundancy check skipped (universe too big)",
                           "entailment check skipped (universe too big)"]


# ---------------------------------------------------------------------------
# the rule hooks: every other check, one case each

Y = var_code(1)
b = 1


def _solver(entries, pool=(), conflict=None):
    """A stand-in solver: a trail of `entries`, each (lit, pi, level,
    reason, reason_lit, sigma) with reason None for a decision."""
    trail = Trail(SIG.n)
    for pos, (lit, pi, lvl, reason, reason_lit, sigma) in enumerate(entries):
        trail.push(TrailEntry(lit, pi, lvl, pos, reason, reason_lit, sigma))
    return SimpleNamespace(pool=list(pool), n=SIG.n, trail=trail,
                           conflict=conflict)


def _decision(lit, level, pi=TOP):
    return (lit, pi, level, None, -1, {})


def _propagated(lit, level, reason, sigma=None, pi=TOP, reason_lit=0):
    return (lit, pi, level, reason, reason_lit, sigma or {})


def _hooks(solver, *rules):
    auditor = Auditor(SIG, [])
    for rule in rules:
        auditor.after_rule(rule, solver)
    return auditor.violations


NEITHER = conj([((X,), (a,)), ((X,), (b,))])   # X is neither a nor b


# (entries, pool, the one violation): each case breaks one per-entry check
# of the last entry and passes the others
ENTRY_CASES = {
    "empty": ([_decision(P(X), 1, NEITHER)], [], "entry 0 is empty"),
    "strong consistency": (
        [_decision(P(X), 1), _decision(P(a), 2)], [],
        "strong consistency broken: entries 0 and 1"),
    "blocked decision": (
        # ~P(a) | ~P(b) is false with two literals falsified by P(X) alone
        [_decision(P(X), 1)], [(P(X, neg=True), P(Y, neg=True))],
        "decision at 0 is blocked w.r.t. the current clause sets"),
    "closure substitution": (
        [_propagated(P(a), 0, reason=0)], [(P(X),)],
        "closure substitution does not produce entry 0"),
    "reason remainder": (
        [_propagated(P(X), 0, reason=0)], [(P(X), Q(X))],
        "reason remainder not false for entry 0"),
}


@pytest.mark.parametrize("hook", ["push", "sweep"])
@pytest.mark.parametrize("case", sorted(ENTRY_CASES))
def test_each_entry_check_flags_at_the_push_and_at_the_sweep(case, hook):
    entries, pool, msg = ENTRY_CASES[case]
    solver = _solver(entries, pool)
    if hook == "push":
        rule = "Decide" if solver.trail.entries[-1].is_decision else "Propagate"
    else:
        rule = "Success"
    assert _hooks(solver, rule) == [msg]


def test_a_reason_remainder_with_no_ground_instance_is_flagged():
    # an empty entry's remainder Q(X) :: X is neither a nor b has no ground
    # instance, so none of its instances is false
    solver = _solver([_propagated(P(X), 0, reason=0, pi=NEITHER)],
                     [(P(X), Q(X))])
    assert _hooks(solver, "Propagate") == [
        "entry 0 is empty", "reason remainder not false for entry 0"]


def test_the_sweep_rechecks_a_decision_against_the_grown_pool():
    solver = _solver([_decision(P(X), 1)])
    auditor = Auditor(SIG, [])
    auditor.after_rule("Decide", solver)
    solver.pool.append((P(X, neg=True), P(Y, neg=True)))
    auditor.after_rule("Backjump", solver)
    assert auditor.violations == [
        "decision at 0 is blocked w.r.t. the current clause sets"]


@pytest.mark.parametrize("entries", [
    [_decision(P(a), 2), _decision(Q(a), 1)],
    [_decision(P(a), 2)],
], ids=["out of order", "one decision at level 2"])
def test_the_sweep_flags_bad_decision_levels(entries):
    assert _hooks(_solver(entries), "Backjump") == [
        "decision levels are not 1..k in trail order"]


def test_the_sweep_flags_a_reason_instance_with_one_literal_of_its_level():
    # P(a) is propagated at level 1 from P(X) | ~Q(X), but Q(a) is defined at
    # level 0: the reason instance P(a) | ~Q(a) has one literal of level 1
    solver = _solver([_propagated(Q(a), 0, reason=0), _decision(P(b), 1),
                      _propagated(P(a), 1, reason=1, sigma={X: a})],
                     pool=[(Q(a),), (P(X), Q(X, neg=True))])
    assert _hooks(solver, "Backjump") == [
        "reason instance of entry 2 has 1 literals of level 1"]


def _conflict(*lits, pi=TOP):
    return ConflictSet(tuple(lits), {}, pi)


# Q(X) decided at level 1 makes both ~Q(a) and ~Q(b) false at the top level
TOP_TWO = ([_decision(Q(X), 1)], _conflict(Q(a, neg=True), Q(b, neg=True)))


@pytest.mark.parametrize("entries, conflict, msg", [
    ([], _conflict(P(X), pi=NEITHER), "empty conflict set"),
    ([], _conflict(P(X)), "conflict set holds a non-false instance"),
    ([_decision(P(a), 1)], _conflict(P(a, neg=True)),
     "conflict instance has 1 top-level literals, needs 2"),
])
def test_the_conflict_set_checks_flag(entries, conflict, msg):
    assert _hooks(_solver(entries, conflict=conflict), "Conflict") == [msg]


def test_a_resolution_step_that_grows_the_trail_is_flagged():
    solver = _solver(TOP_TWO[0], conflict=TOP_TWO[1])
    auditor = Auditor(SIG, [])
    auditor.after_rule("Conflict", solver)
    solver.trail.push(TrailEntry(P(a), TOP, 1, 1, 0, 0, {}))
    auditor.after_rule("Resolve", solver)
    assert auditor.violations == ["Resolve grew the trail during resolution"]


def test_a_resolution_step_that_keeps_the_measure_is_flagged():
    solver = _solver(TOP_TWO[0], conflict=TOP_TWO[1])
    assert _hooks(solver, "Conflict", "Resolve") == [
        "Resolve did not decrease the resolution measure"]


@pytest.mark.parametrize("rule, flagged", [("Resolve", True),
                                           ("Factorize", False)])
def test_an_immediate_conflict_must_be_resolved_by_factorize(rule, flagged):
    # the conflict after the step is a proper part of the one before, so
    # the measure decreases and only the rule itself is judged
    solver = _solver(TOP_TWO[0], conflict=TOP_TWO[1])
    auditor = Auditor(SIG, [])
    auditor.after_rule("Decide", solver)
    auditor.after_rule("Conflict", solver)
    solver.conflict = _conflict(Q(a, neg=True))
    auditor.after_rule(rule, solver)
    assert auditor.violations == (
        [f"immediate conflict resolved by {rule}, not Factorize"] if flagged
        else [])


def test_failure_without_the_empty_clause_is_flagged():
    assert _hooks(_solver([]), "Failure") == ["Failure without the empty clause"]
    assert _hooks(_solver([], pool=[()]), "Failure") == []


@pytest.mark.parametrize("case, learned, msg", [
    # the conflict has two top-level literals in its one instance, so a
    # case-(2) backjump disagrees with the grounded assertiveness test
    (2, (Q(a, neg=True), Q(b, neg=True)),
     "lifted assertiveness disagrees with grounding at a case-(2) backjump"),
    # ~Q(a) has one literal: it cannot block the decision Q(X)
    (3, (Q(a, neg=True),),
     "case-(3) clause does not block the removed decision"),
])
def test_a_backjump_that_contradicts_its_case_is_flagged(case, learned, msg):
    solver = _solver(TOP_TWO[0], conflict=TOP_TWO[1])
    auditor = Auditor(SIG, [learned])
    auditor.after_rule("Conflict", solver)
    auditor.before_learn(solver, learned, case, 0)
    assert auditor.violations == [msg]
    assert auditor.skipped == []

