"""The learning audits fail closed: `Auditor.before_learn` flags each kind of
bad learned clause, and records each check it skips, with its exact message.

A run of the solver never learns such a clause, so these tests drive the
hook directly with a stand-in solver that holds only what it reads: the
clause pool, the domain size, the trail and no conflict set.
"""
from types import SimpleNamespace

import pytest

from eprsat.audit import Auditor
from eprsat.constraints import TOP
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
    # P/3 over four constants: 64 atoms, over both ceilings (36 and 60)
    sig = Signature({"P": 3}, ("a", "b", "c", "d"))
    unit = (Lit(False, "P", (X, X, X)),)
    got = _learn(sig, [unit], [unit], (Lit(False, "P", (a, a, a)),))
    assert got.violations == []
    assert got.skipped == ["non-redundancy check skipped (universe too big)",
                           "entailment check skipped (universe too big)"]
