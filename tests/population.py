"""The criterion-1 population, shared by the tests that run over it.

`criterion_1_population` is the 500 random instances that acceptance
criterion 1 decides; `criterion_1_verdicts` is their unaudited solves, made
once per test session for every test that only reads the verdicts.
"""
from functools import cache

from eprsat.oracle import GenParams, gen_random_instance
from eprsat.solver import RunConfig, Solver

CRITERION_1_PARAMS = GenParams(n_preds=3, max_arity=2, domain_size=3,
                               n_clauses=12, max_lits=4)


def criterion_1_population(n: int = 500):
    """(sig, clauses) for seeds 0 .. n-1."""
    for seed in range(n):
        yield gen_random_instance(
            GenParams(**{**CRITERION_1_PARAMS.__dict__, "seed": seed}))


@cache
def criterion_1_verdicts():
    """(sig, clauses, verdict) for the whole population, default RunConfig."""
    return [(sig, clauses, Solver(sig, clauses, RunConfig()).solve())
            for sig, clauses in criterion_1_population()]
