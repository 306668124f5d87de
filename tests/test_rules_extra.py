"""Rule-level checks that complement the golden derivation."""

import pytest

from eprsat.cli import main
from eprsat.constraints import BOT, TOP
from eprsat.parser import parse_problem, parse_script
from eprsat.solver import RunConfig, Solver
from eprsat.syntax import Lit, var_code
from eprsat.trail import Trail, TrailEntry, ground_walk

x, y = var_code(0), var_code(1)
a, b, c = 0, 1, 2


def test_conflict_identification_unary_variant():
    # the unary cousin of the worked derivation: conflict lands on the
    # binary clause with {X<-a} and Y != c
    sig, clauses = parse_problem("""
    domain a b c .
    -P(c) .
    -P(X) | -P(Y) | Q(X,Y) .
    -P(Y) | -Q(a,Y) .
    -Q(X,b) | -P(X) .
    """)
    script = parse_script("P(X) :: X != c", sig)
    s = Solver(sig, clauses, RunConfig(script=script, simplify=False))
    v = s.solve()
    confl = next(e for e in v.trace if e.rule == "Conflict")
    assert confl.payload == "(C2) ~P(X) | ~P(Y) | Q(X,Y) ; {X<-a} ; Y != c"


def test_resolution_step_resolves_when_entry_touches_conflict():
    # the rightmost entry falsifies the conflict: Resolve, never Skip
    sig, clauses = parse_problem("""
    domain a b .
    P(a) .
    -P(a) .
    """)
    s = Solver(sig, clauses, RunConfig(simplify=False))
    s._reseed_full()
    assert not s.prop_loop()
    s.rule_conflict(s.conflict)
    length = len(s.trail)
    s._resolution_step()
    assert s.trace[-1].rule == "Resolve"
    assert len(s.trail) == length
    assert s.conflict.clause == ()


def test_ground_walk_empty_cover_has_no_instance():
    tr = Trail(2)
    tr.push(TrailEntry(Lit(False, "P", (x,)), TOP, 0, 0, reason=0))
    assert list(ground_walk(tr, (Lit(True, "P", (x,)),), {}, BOT)) == []


def test_levels_monotone_along_trail():
    sig, clauses = parse_problem("""
    domain a b c .
    -P(c,X,X) .
    -P(X,Y,Z) | -P(U,W,T) | Q(X,U) .
    -P(X,Y,Z) | -Q(a,X) .
    -Q(X,b) | -P(X,Y,Z) .
    """)
    script = parse_script("P(X,Y,Z) :: X != c", sig)
    s = Solver(sig, clauses, RunConfig(script=script, simplify=False,
                                       max_steps=6))
    s.solve()
    levels = [e.level for e in s.trail.entries]
    assert levels == sorted(levels)


def test_runconfig_rejects_nonpositive_step_cap():
    with pytest.raises(ValueError):
        RunConfig(max_steps=0)


def test_duplicate_domain_declaration_rejected():
    from eprsat.parser import ParseError
    with pytest.raises(ParseError) as exc:
        parse_problem("domain a .\ndomain b .\nP(a) .")
    assert "duplicate domain" in str(exc.value)


def test_cli_writes_no_model_on_unsat(tmp_path):
    p = tmp_path / "p.p"
    p.write_text("domain a .\nP(a) .\n-P(a) .\n")
    model = tmp_path / "m.txt"
    trace = tmp_path / "t.txt"
    code = main(["--input", str(p), "--model", str(model),
                 "--trace", str(trace)])
    assert code == 20
    assert not model.exists()
    assert trace.read_text().strip().endswith("| empty clause present")
    assert "RULE Failure" in trace.read_text()
