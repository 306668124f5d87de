import pytest

from eprsat.audit import Auditor
from eprsat.constraints import conj
from eprsat.oracle import GenParams, gen_random_instance
from eprsat.parser import parse_problem, parse_script
from eprsat.solver import (
    RuleRejected,
    RunConfig,
    Solver,
    _embedding,
    is_tautology,
    simplify_pool,
)
from eprsat.syntax import Lit, canonical_clause, canonical_variant, clause_vars, var_code

EX33 = """
domain a b c .
-P(c,X,X) .
-P(X,Y,Z) | -P(U,W,T) | Q(X,U) .
-P(X,Y,Z) | -Q(a,X) .
-Q(X,b) | -P(X,Y,Z) .
"""

EX33_SCRIPT = """
P(X,Y,Z) :: X != c
P(b,X,Y) :: TOP
~P(c,X,Y) :: (X,Y) != (V,V)
Q(X,Y) :: TOP
"""

GOLDEN_SEQUENCE = [
    "Propagate", "Decide", "Propagate", "Conflict", "Resolve", "Skip",
    "Factorize", "Factorize", "Backjump", "Propagate", "Decide", "Propagate",
    "Conflict", "Resolve", "Skip", "Factorize", "Factorize", "Backjump",
    "Propagate", "Decide", "Decide", "Success",
]


def _solve_ex33(**kw):
    sig, clauses = parse_problem(EX33)
    script = parse_script(EX33_SCRIPT, sig)
    cfg = RunConfig(script=script, simplify=False, **kw)
    s = Solver(sig, clauses, cfg)
    return sig, s, s.solve()


def test_worked_derivation_rule_sequence():
    _, _, v = _solve_ex33()
    assert [e.rule for e in v.trace] == GOLDEN_SEQUENCE
    assert v.status == "sat"
    assert v.backjumps == 2


def test_worked_derivation_final_trail():
    from eprsat.render import render_clit
    sig, s, v = _solve_ex33()
    got = [render_clit(sig, cl.lit, cl.pi) for cl in v.model]
    assert got == [
        "~P(c,X,X) :: TOP",
        "~P(a,X,Y) :: TOP",
        "~P(b,X,Y) :: TOP",
        "~P(c,X,Y) :: (X,Y) != (Z,Z)",
        "Q(X,Y) :: TOP",
    ]


def test_worked_derivation_learned_clauses():
    from eprsat.render import render_clause
    sig, s, v = _solve_ex33()
    learned = [render_clause(sig, c) for c in s.pool[s.n_input:]]
    assert learned == ["~P(a,X,Y)", "~P(b,X,Y)"]


def test_blocking_clause_backjump_case3():
    # a run over the three-clause set that must learn via case (3)
    sig, clauses = parse_problem("""
    domain a b c .
    R(X,X) .
    P(X) | -Q(X,Y) .
    R(X,Y) | Q(X,Y) | P(X) | P(Y) .
    """)
    script = parse_script("~R(X,Y) :: (X,Y) != (V,V)\n~P(X) :: TOP", sig)
    s = Solver(sig, clauses, RunConfig(script=script, simplify=False))
    v = s.solve()
    bj = [e for e in v.trace if e.rule == "Backjump"]
    assert bj and "case 3" in bj[0].payload
    assert "to level 1" in bj[0].payload
    from eprsat.render import render_clause
    learned = render_clause(sig, s.pool[s.n_input])
    assert learned == "P(X) | P(Y) | R(X,Y)"


def test_immediate_conflict_factorizes_then_asserts():
    sig, clauses = parse_problem("""
    domain a b c .
    P(X,X) .
    Q(X,a) .
    -Q(X,Y) | P(X,Y) | P(X,Y) .
    """)
    script = parse_script("~P(X,Y) :: (X,Y) != (V,V)", sig)
    s = Solver(sig, clauses, RunConfig(script=script, simplify=False))
    v = s.solve()
    rules = [e.rule for e in v.trace]
    i = rules.index("Conflict")
    assert rules[i - 1] == "Decide"
    assert rules[i + 1] == "Factorize"
    from eprsat.render import render_clause
    learned = render_clause(sig, s.pool[s.n_input])
    assert learned == "P(X,Y) | ~Q(X,Y)"


def test_level_zero_conflict_learns_empty_clause():
    sig, clauses = parse_problem("""
    domain a .
    P(a) .
    -P(a) .
    """)
    s = Solver(sig, clauses, RunConfig(simplify=False))
    v = s.solve()
    assert v.status == "unsat"
    rules = [e.rule for e in v.trace]
    assert rules[-1] == "Failure"
    assert "Backjump" in rules  # case (1) learned the empty clause
    bj = next(e for e in v.trace if e.rule == "Backjump")
    assert "case 1" in bj.payload and "false" in bj.payload


def test_empty_input_is_sat_immediately():
    sig = __import__("eprsat.syntax", fromlist=["Signature"]).Signature(
        {"P": 1}, ("a",))
    s = Solver(sig, [], RunConfig())
    v = s.solve()
    assert v.status == "sat" and v.model == []


def test_empty_clause_in_input_fails_immediately():
    sig, clauses = parse_problem("""
    domain a .
    false .
    """)
    s = Solver(sig, clauses, RunConfig(simplify=False))
    v = s.solve()
    assert v.status == "unsat"
    assert [e.rule for e in v.trace] == ["Failure"]


def test_step_cap_verdict():
    sig, clauses = parse_problem(EX33)
    s = Solver(sig, clauses, RunConfig(max_steps=3, simplify=False))
    v = s.solve()
    assert v.status == "stepcap"
    assert v.steps >= 3


def test_decide_rejects_defined_candidate():
    # a script decision is checked where `select_decision` pops it
    sig, clauses = parse_problem("""
    domain a b .
    P(X) .
    """)
    script = parse_script("P(X)", sig)
    s = Solver(sig, clauses, RunConfig(script=script, simplify=False))
    s._reseed_full()
    assert s.prop_loop()
    with pytest.raises(RuleRejected) as exc:
        s.select_decision()
    assert str(exc.value) == "decision covers a defined atom"
    assert len(s.trail) == 1 and s.trail.level == 0


def test_decide_rejects_blocked_candidate_with_witness():
    sig, clauses = parse_problem("""
    domain a b c .
    -P(X) | -P(Y) | Q(X,Y) .
    """)
    script = parse_script("~Q(X,Y) :: TOP\nP(X)", sig)
    s = Solver(sig, clauses, RunConfig(script=script, simplify=False))
    entry = s.rule_decide(*s.select_decision())
    assert s.add_consequences(entry)
    with pytest.raises(RuleRejected) as exc:
        s.select_decision()
    assert str(exc.value) == "decision blocked by clause C1"
    assert len(s.trail) == 1 and s.trail.level == 1


@pytest.mark.parametrize("line, message", [
    ("P(X) :: X != a /\\ X != b", "empty decision"),
    ("P(b)", "decision does not instantiate an input literal"),
])
def test_script_decision_checks_the_other_preconditions(line, message):
    sig, clauses = parse_problem("""
    domain a b .
    P(a) | Q(X) .
    """)
    s = Solver(sig, clauses, RunConfig(script=parse_script(line, sig),
                                       simplify=False))
    with pytest.raises(RuleRejected) as exc:
        s.solve()
    assert str(exc.value) == message
    assert s.steps == 0


def test_decision_repair_yields_unblocked_split():
    # repair loop must return an unblocked candidate for the blocked (P(x); TOP)
    sig, clauses = parse_problem("""
    domain a b c .
    -P(X) | -P(Y) | Q(X,Y) .
    P(a) | P(b) | P(c) .
    """)
    script = parse_script("~Q(X,Y) :: TOP", sig)
    s = Solver(sig, clauses, RunConfig(script=script, simplify=False))
    entry = s.rule_decide(*s.select_decision())
    s.add_consequences(entry)
    s.prop_loop()
    d = s.select_decision()
    assert d is not None
    from eprsat.derive import is_blocked
    assert is_blocked(s.trail, len(s.trail), d[0], d[1], s.pool, s.n) is None
    # the pool was refined; the refinement trail records it
    assert s._refinements


def test_backjump_level_second_highest_for_ground_clause():
    # propositional analogue: the assertive clause jumps to the
    # second-highest literal level
    sig, clauses = parse_problem("""
    domain a .
    P(a) | Q(a) | R(a) | S(a) .
    """)
    script = parse_script("P(a)\nQ(a)\nR(a)", sig)
    s = Solver(sig, clauses, RunConfig(script=script, simplify=False))
    for _ in range(3):
        entry = s.rule_decide(*s.select_decision())
        s.add_consequences(entry)
        s.prop_loop()
    # learned-style clause: ~P(a) | ~R(a): false at level 3, propagates at 1
    cl = canonical_clause((Lit(True, "P", (0,)), Lit(True, "R", (0,))))
    plen, level, cands = s.compute_backjump_level(cl)
    assert level == 1
    # what it propagates there is queued by the backjump: ~R(a)
    assert [(c.clause_idx, c.lit_idx) for c in cands] == [(len(s.pool), 1)]


def test_backjump_level_zero_when_false_above():
    # false at level 1 and propagating nowhere below it: the search ends at
    # the level below the current one, level 0
    sig, clauses = parse_problem("""
    domain a b .
    P(X) | Q(a) .
    """)
    script = parse_script("P(X)", sig)
    s = Solver(sig, clauses, RunConfig(script=script, simplify=False))
    entry = s.rule_decide(*s.select_decision())
    s.add_consequences(entry)
    s.prop_loop()
    cl = canonical_clause((Lit(True, "P", (0,)), Lit(True, "P", (1,))))
    plen, level, cands = s.compute_backjump_level(cl)
    assert level == 0 and plen == 0 and cands == []


def test_missed_keep_leaf_propagates_at_its_level():
    """L(b) is due at level 2: A(X) | L(X) resolves A(X) against ~A(X) :: X != a
    and keeps L(X), although L(X) meets ~L(X) :: X != b (a meet with no
    instance, so no conflict either)."""
    sig, clauses = parse_problem("""
    domain a b .
    A(X) | L(X) .
    -L(X) | B(X) .
    """)
    script = parse_script("~L(X) :: X != b\n~A(X) :: X != a", sig)
    for simplify in (True, False):
        v = Solver(sig, clauses, RunConfig(script=script, simplify=simplify)).solve()
        assert v.status == "sat"
        assert [(e.rule, e.level, e.payload) for e in v.trace[2:4]] == [
            ("Decide", 2, "[lvl 2 DECIDE] ~A(X) :: X != a"),
            ("Propagate", 2, "[reason C1] L(b) :: TOP")]


def test_audited_arity_3_run_that_missed_a_propagation():
    # at a missed propagation this run learned a redundant clause and the
    # audit reported a conflict instance with one top-level literal.  Its
    # universe has 54 atoms: under the one DPLL cap of 60, every learning
    # check runs, and on the code that missed the propagation the
    # non-redundancy check flags p1(X,X,Y) | p1(Y,a,b) | ~p1(Z,a,U), which
    # a second cap of 36 atoms hid
    sig, clauses = gen_random_instance(GenParams(
        n_preds=2, max_arity=3, domain_size=3, n_clauses=14, max_lits=4, seed=1180))
    auditor = Auditor(sig, clauses)
    Solver(sig, clauses, RunConfig(seed=3), auditor=auditor).solve()
    assert auditor.violations == []
    assert auditor.skipped == []


# ---------------------------------------------------------------------------
# simplifications

def P(*args):
    return Lit(False, "P", tuple(args))


def nP(*args):
    return Lit(True, "P", tuple(args))


def Q(*args):
    return Lit(False, "Q", tuple(args))


def nQ(*args):
    return Lit(True, "Q", tuple(args))


x, y = var_code(0), var_code(1)
a, b = 0, 1


def test_tautology_detection():
    assert is_tautology((P(x), nP(x)))
    assert not is_tautology((P(x), nP(y)))


def test_strict_subsumption_deletes():
    pool = [(P(x),), canonical_clause((P(a), Q(a)))]
    out, log = simplify_pool(pool)
    assert out == [(P(x),)]
    assert any("subsumption" in l for l in log)


def test_subsumption_resolution_reduces():
    # C or L = P(x) | Q(x);  D or ~L s = P(a) | R(a) | ~Q(a)  ==>  P(a) | R(a)
    pool = [
        canonical_clause((P(x), Q(x))),
        canonical_clause((P(a), Lit(False, "R", (a,)), nQ(a))),
    ]
    out, log = simplify_pool(pool)
    assert canonical_clause((P(a), Lit(False, "R", (a,)))) in out
    assert any("resolution" in l for l in log)


def test_tautology_deleted_from_pool():
    pool = [canonical_clause((P(x), nP(x))), (Q(a),)]
    out, log = simplify_pool(pool)
    assert out == [(Q(a),)]


def _subsumes(c, d):
    """Some instance of the variant c is a submultiset of d: the embedding
    search that `simplify_pool` runs for subsumption."""
    return _embedding(c, d, frozenset(clause_vars(c)), {}) is not None


def test_subsumes_needs_consistent_matching():
    assert _subsumes(canonical_variant((P(x),)), (P(a), Q(b)))
    assert not _subsumes(canonical_variant((P(a),)), (P(b),))
    assert _subsumes(canonical_variant((P(x), Q(x))),
                     canonical_clause((P(a), Q(a), Q(b))))
    assert not _subsumes(canonical_variant((P(x), Q(x))),
                         canonical_clause((P(a), Q(b))))


def test_subsumes_never_binds_subsumee_variables():
    # ~p0(X) | p1(X) must NOT subsume ~p1(X) | p1(b) | p1(Y) | ~p0(X) | p1(Z):
    # after ~p0 maps onto ~p0(X), the wanted p1(X) carries the subsumee's
    # variable, which no substitution of the subsumer may instantiate
    z = var_code(2)
    c = canonical_clause((nP(x), Q(x)))
    d = canonical_clause((nQ(x), Q(b), Q(y), nP(x), Q(z)))
    assert not _subsumes(canonical_variant(c), d)
    # but a genuine common instance still subsumes
    assert _subsumes(canonical_variant(c), canonical_clause((nP(y), Q(y), Q(b))))


# ---------------------------------------------------------------------------
# scores

def test_scores_bump_and_order_preserved_by_renormalization():
    sig, clauses = parse_problem("""
    domain a b .
    P(a) .
    -P(a) | Q(a) .
    -Q(X) .
    """)
    s = Solver(sig, clauses, RunConfig(simplify=False))
    v = s.solve()
    assert v.status == "unsat"
    assert s.scores  # conflict literals were bumped
    before = sorted(s.scores.items(), key=lambda kv: kv[1])
    order_before = [k for k, _ in before]
    scale = 1e-50
    s.scores = {k: val * scale for k, val in s.scores.items()}
    after = sorted(s.scores.items(), key=lambda kv: kv[1])
    assert [k for k, _ in after] == order_before


def test_score_overflow_guard_rescales_and_keeps_the_order():
    sig, clauses = parse_problem("""
    domain a b .
    P(X) | Q(X) | R(X, Y) .
    -P(a) | -R(X, X) .
    -Q(b) | R(a, Y) .
    """)
    s = Solver(sig, clauses, RunConfig(simplify=False))
    x = var_code(0)
    s._bump = 0.99e100
    for _ in range(2):
        s._bump_clause((Lit(False, "P", (0,)), Lit(True, "Q", (x,))))
    s._bump_clause((Lit(False, "P", (1,)), Lit(False, "R", (x, x))))

    def ranking():
        scored = [(s._combined_score(lit), i)
                  for i, (lit, _) in enumerate(s.pool_cands)]
        return [i for _, i in sorted(scored, key=lambda t: (-t[0], t[1]))]

    order = ranking()
    assert len({s._combined_score(l) for l, _ in s.pool_cands}) == 4
    s._decay_scores()   # the bump crosses 1e100
    assert s._bump == 1.0
    assert max(s.scores.values()) < 10.0
    assert ranking() == order


def test_scripted_decisions_are_used_verbatim():
    sig, clauses = parse_problem(EX33)
    script = parse_script(EX33_SCRIPT, sig)
    s = Solver(sig, clauses, RunConfig(script=script, simplify=False))
    v = s.solve()
    decides = [e.payload for e in v.trace if e.rule == "Decide"]
    assert decides[0].endswith("P(X,Y,Z) :: X != c")


def _hand_built_script_solver(pi):
    # a script built in code, not parsed: its constraint is not yet normal
    sig, clauses = parse_problem("domain a b .\nP(X) | Q(X) .\n")
    return Solver(sig, clauses, RunConfig(script=[(Lit(False, "P", (x,)), pi)],
                                          simplify=False))


def test_hand_built_script_decision_is_normalized():
    v = _hand_built_script_solver(conj([((a, x), (a, b))])).solve()
    decides = [e.payload for e in v.trace if e.rule == "Decide"]
    assert decides[0] == "[lvl 1 DECIDE] P(X) :: X != b"


def test_hand_built_script_decision_with_a_false_subconstraint_is_empty():
    s = _hand_built_script_solver(conj([((x,), (b,)), ((a,), (a,))]))
    with pytest.raises(RuleRejected) as exc:
        s.solve()
    assert str(exc.value) == "empty decision"
    assert s.steps == 0


def test_deterministic_trace_same_seed():
    sig, clauses = parse_problem(EX33)
    out = []
    for _ in range(2):
        s = Solver(sig, clauses, RunConfig(seed=7))
        v = s.solve()
        from eprsat.render import render_trace
        out.append(render_trace(v.trace))
    assert out[0] == out[1]
