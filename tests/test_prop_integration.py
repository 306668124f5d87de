"""Integration checks for exhaustive propagation with free-variable
elimination and for the decision ranking."""

from eprsat.parser import parse_problem, parse_script
from eprsat.render import render_clit
from eprsat.solver import RunConfig, Solver
from eprsat.syntax import Lit, var_code


def test_free_variable_elimination_during_propagation():
    # deducing P(y,z) from Q assignments leaves an existential variable that
    # must be instantiated before the pieces reach the trail
    sig, clauses = parse_problem("""
    domain a b .
    -Q(X,X) .
    -Q(X,Y) | -Q(X,Z) | P(Y,Z) .
    """)
    script = parse_script("Q(X,Y) :: (X,Y) != (V,V)", sig)
    s = Solver(sig, clauses, RunConfig(script=script, simplify=False))
    v = s.solve()
    assert v.status == "sat"
    deduced = [e for e in s.trail.entries
               if e.lit.pred == "P" and not e.is_decision]
    rendered = [render_clit(sig, e.lit, e.pi) for e in deduced]
    # first piece lands whole; the second is trimmed against it
    assert rendered == ["P(X,Y) :: X != a /\\ Y != a", "P(a,X) :: X != b"]
    from eprsat.constrained import cover
    got = set()
    for e in deduced:
        got |= cover(e.lit, e.pi, 2)
    assert got == {Lit(False, "P", (0, 0)), Lit(False, "P", (1, 1))}


def test_unit_contradiction_found_while_seeding():
    sig, clauses = parse_problem("""
    domain a b .
    P(a) .
    -P(a) .
    """)
    s = Solver(sig, clauses, RunConfig(simplify=False))
    v = s.solve()
    rules = [e.rule for e in v.trace]
    assert rules[0] == "Propagate" and rules[1] == "Conflict"
    assert v.status == "unsat"


def test_saturated_trail_prop_loop_true():
    sig, clauses = parse_problem("domain a .\nP(a) .\n")
    s = Solver(sig, clauses, RunConfig(simplify=False))
    s._reseed_full()
    assert s.prop_loop() is True
    assert s.prop_loop() is True  # empty queue: immediately exhausted


def test_queue_clash_conflict_comes_before_any_derivation(monkeypatch):
    # P(a) is propagated first and falsifies the queued unit -P(a): the
    # conflict is read off the queue before any clause is derived against
    # the trail
    sig, clauses = parse_problem("""
    domain a b .
    P(a) .
    -P(a) .
    """)
    s = Solver(sig, clauses, RunConfig(simplify=False))
    s._reseed_full()
    derived = []
    monkeypatch.setattr(s, "_derive", lambda *args, **kw: derived.append(args))
    assert s.prop_loop() is False
    assert derived == []
    assert s.conflict is not None and s.conflict.origin == 1
    assert [e.rule for e in s.trace] == ["Propagate", "Conflict"]


def test_scores_rank_conflict_predicates_first():
    sig, clauses = parse_problem("""
    domain a b .
    P(X) | Q(X) .
    """)
    s = Solver(sig, clauses, RunConfig(simplify=False))
    x = var_code(0)
    s._bump_clause((Lit(True, "P", (x,)),))
    p_score = s._combined_score(Lit(True, "P", (x,)))
    q_score = s._combined_score(Lit(False, "Q", (x,)))
    assert p_score > q_score == 0.0


def test_combined_score_sum_vs_max():
    sig, clauses = parse_problem("domain a b .\nP(X) | Q(X) .\n")
    x = var_code(0)
    s = Solver(sig, clauses, RunConfig(simplify=False))
    s._bump_clause((Lit(False, "P", (0,)),))
    s._bump_clause((Lit(False, "P", (1,)),))
    # both instances unify with P(X): the sum (2.0), not the max (1.0)
    assert s._combined_score(Lit(False, "P", (x,))) == 2.0


def test_apply_subst_to_substitution_matches_composition():
    from eprsat.syntax import apply_lit, compose
    x, y = var_code(0), var_code(1)
    s = {x: y}
    t = {y: 0}
    lit = Lit(False, "P", (x, y))
    assert apply_lit(lit, compose(s, t)) == apply_lit(apply_lit(lit, s), t)


def test_queue_clash_skips_a_candidate_the_new_entry_cannot_falsify():
    # deciding Q(X) :: X != a queues P(a) and ~P(X) :: X != a; pushing P(a)
    # unifies with the queued ~P(X), but X != a leaves no common instance:
    # no conflict, and ~P(X) :: X != a is propagated in its turn
    sig, clauses = parse_problem("""
    domain a b c .
    -Q(X) | -P(X) .
    -Q(X) | P(a) .
    """)
    script = parse_script("Q(X) :: X != a", sig)
    s = Solver(sig, clauses, RunConfig(script=script, simplify=False))
    met = []
    real = s._meets_entry
    s._meets_entry = lambda *args: met.append(real(*args)) or met[-1]
    assert s.solve().status == "sat"
    assert met == [None]
    assert [e.rule for e in s.trace] == [
        "Decide", "Propagate", "Propagate", "Propagate", "Success"]
    assert s.trace[3].payload == "[reason C1] ~P(X) :: X != a"
