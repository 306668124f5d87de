"""Success without a rescan of the pool.

The solver reaches Success as soon as the queue is exhausted and no
decision is left; it relies on propagation being exhaustive (see the
`solver` module docstring).  The first test referees that claim by
grounding: after each satisfiable solve, no ground instance of a pool
clause is false or unit under the final trail.  The second shows that the
auditor's check at Success, `Solver.full_scan`, catches a conflict that the
search missed.
"""
import os

from eprsat.audit import Auditor
from eprsat.oracle import gen_benchmark
from eprsat.parser import parse_problem, parse_script
from eprsat.solver import ConflictSet, RunConfig, Solver
from eprsat.syntax import Lit, apply_lit, ground_assignments, lit_vars
from eprsat.trail import TRUE, UNDEF
from population import criterion_1_population

DATA = os.path.join(os.path.dirname(__file__), "data")


def _false_or_unit(lits, sigma, undefined, value, n):
    """A grounding (extending `sigma`) of `lits` with no true literal and
    at most one undefined literal, counting the `undefined` ones already
    chosen; None if there is none."""
    if not lits:
        return sigma
    lit = apply_lit(lits[0], sigma)
    for d in ground_assignments(lit_vars(lit), n):
        v = value(apply_lit(lit, d), None)
        if v == TRUE or (v == UNDEF and undefined):
            continue
        got = _false_or_unit(lits[1:], {**sigma, **d}, undefined + (v == UNDEF),
                             value, n)
        if got is not None:
            return got
    return None


def _left_over(slv):
    """(clause, grounding) of a pool clause instance the trail leaves false
    or unit, or None."""
    for clause in slv.pool:
        # literals with the fewest variables first: a true one prunes early
        lits = sorted(clause, key=lambda l: len(lit_vars(l)))
        got = _false_or_unit(lits, {}, 0, slv.trail.value_of, slv.n)
        if got is not None:
            return clause, got
    return None


def _runs():
    """(name, sig, clauses, config) for the workloads' satisfiable shapes."""
    yield "ladder-7-3", *gen_benchmark(7, 3), RunConfig()
    yield "probe-20", *parse_problem(
        f"domain {' '.join(f'c{i}' for i in range(20))} .\n"
        "q(X) | -r(X) .\nr(c0) .\np(X,Y,Z,W) | -q(X) .\n-p(X,Y,Z,W) | s(Y) .\n"), \
        RunConfig()
    sig, clauses = parse_problem(open(os.path.join(DATA, "ex33.p")).read())
    script = parse_script(open(os.path.join(DATA, "ex33.dec")).read(), sig)
    yield "ex33", sig, clauses, RunConfig(script=script)
    for seed, (sig, clauses) in enumerate(criterion_1_population(300)):
        yield f"pop-{seed}", sig, clauses, RunConfig()
    for seed, (sig, clauses) in enumerate(criterion_1_population(50)):
        yield f"pop-{seed}-seeded", sig, clauses, RunConfig(seed=seed)


def test_no_clause_instance_is_false_or_unit_at_success():
    sat = 0
    for name, sig, clauses, cfg in _runs():
        slv = Solver(sig, clauses, cfg)
        if slv.solve().status != "sat":
            continue
        sat += 1
        assert _left_over(slv) is None, name
    assert sat > 150, sat


def test_the_audit_at_success_flags_a_conflict_the_search_missed(monkeypatch):
    # blind the search to derivation conflicts: `-P(X) | -P(Y)` is false
    # once P(a) is pushed, and only a derivation can see it
    real = Solver.add_consequences

    def blind(self, entry):
        derive = self._derive
        self._derive = lambda *a, **k: (
            got for got in derive(*a, **k) if not isinstance(got, ConflictSet))
        try:
            return real(self, entry)
        finally:
            del self._derive

    monkeypatch.setattr(Solver, "add_consequences", blind)
    sig, clauses = parse_problem("domain a .\nP(a) .\n-P(X) | -P(Y) .\n")
    auditor = Auditor(sig, clauses)
    slv = Solver(sig, clauses, RunConfig(), auditor=auditor)
    assert slv.solve().status == "sat"
    left = slv.full_scan()
    assert isinstance(left, ConflictSet) and left.origin == 1
    # and the model check at Success sees the false instance ~P(a) | ~P(a)
    not_pa = Lit(True, "P", (0,))
    assert auditor.violations == [
        f"success but propagation left {left}",
        f"success but the model misses an instance: {(not_pa, not_pa)}"]
