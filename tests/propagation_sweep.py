"""Exhaustive propagation, refereed by grounding, over random populations.

Propagation is exhaustive, so before every Decide no clause of the pool may
have a ground instance with exactly one undefined literal position and every
other literal false under the trail: that instance is a Propagate the solver
missed.  Positions are counted, not distinct literals: an instance whose only
undefined literals are copies of one literal is left to Factorize.  The
audit does not see such a miss, since its Success check asks `full_scan`,
which derives through the same `find_candidates` as the solver.

`missed_propagation` is the check; tier-1 runs it on a few instances
(`tests/test_lifted.py`).  This script runs it before every decision of
the criterion-1 population (500 seeds) and of 1,500 seeds of an arity-3
population, each unseeded and with decision tie-break seed 3 (4,000 runs,
about 9 s on 2 CPUs with Python 3.11).
pytest does not collect it; run from the repository root:

    PYTHONPATH=src python3 tests/propagation_sweep.py

It prints each run with a miss, then the run count, the time and the count
of runs with a miss, and exits 1 on any miss.
"""
import sys
import time

from eprsat.oracle import GenParams, gen_random_instance
from eprsat.render import render_clause
from eprsat.solver import RunConfig, Solver
from eprsat.syntax import apply_lit, ground_assignments, lit_vars

SEEDS = (None, 3)
# (parameters, seed count) of the two random populations
POPULATIONS = [
    (GenParams(n_preds=3, max_arity=2, domain_size=3, n_clauses=12, max_lits=4), 500),
    (GenParams(n_preds=2, max_arity=3, domain_size=3, n_clauses=14, max_lits=4), 1500),
]


def missed_propagation(solver):
    """(pool index, ground instance) of the first pool clause instance with
    exactly one undefined literal position and every other literal false
    under the solver's trail, or None.  Grounds literal by literal, each
    literal's value read off `Trail.defining_entry`, and abandons a partial
    instance at a true literal or a second undefined one."""
    tr = solver.trail

    def search(clause, i, delta, undefined):
        if i == len(clause):
            return () if undefined else None
        lit = apply_lit(clause[i], delta)
        for ext in ground_assignments(lit_vars(lit), solver.n):
            g = apply_lit(lit, ext)
            e = tr.defining_entry(g.atom)
            if e is not None and e.lit.neg == g.neg:
                continue                       # true
            if e is None and undefined:
                continue                       # a second undefined position
            rest = search(clause, i + 1, {**delta, **ext}, undefined or e is None)
            if rest is not None:
                return (g,) + rest
        return None

    for ci, clause in enumerate(solver.pool):
        got = search(clause, 0, {}, False)
        if got is not None:
            return ci, got
    return None


def checked_decide(real, misses):
    """`Solver.rule_decide` that first appends each miss to `misses`."""
    def rule_decide(self, lit, pi):
        got = missed_propagation(self)
        if got is not None:
            misses.append(got)
        return real(self, lit, pi)
    return rule_decide


def main():
    misses = []
    Solver.rule_decide = checked_decide(Solver.rule_decide, misses)
    runs = bad = 0
    start = time.perf_counter()
    for params, count in POPULATIONS:
        for seed in range(count):
            sig, clauses = gen_random_instance(
                GenParams(**{**params.__dict__, "seed": seed}))
            for run_seed in SEEDS:
                misses.clear()
                Solver(sig, clauses, RunConfig(max_steps=20000, seed=run_seed)).solve()
                runs += 1
                if misses:
                    bad += 1
                    ci, g = misses[0]
                    print(f"MISS arity {params.max_arity} seed {seed} run seed "
                          f"{run_seed}: C{ci + 1} {render_clause(sig, g)}")
    print(f"{runs} runs in {time.perf_counter() - start:.1f} s, "
          f"{bad} with a missed propagation")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
