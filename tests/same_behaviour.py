"""One digest of many solves, against its recorded value: "same behaviour".

A change that should not alter any run (a refactor, a speed-up) must keep
every rule application and every model document.  This script solves a
fixed corpus in one process and feeds one SHA-256 with each run's
preprocessing deletion log (`Solver.deletion_log`), its rendered trace and,
when the run is sat, its rendered model document:

- the `gen_benchmark` rungs (5,4), (7,3), (8,3), (8,4) and (10,3);
- C5/2 (`tests/data/c5-2.p`), then K4/3 and PHP(4,3) (the text builders of
  `tests/hard_families.py`);
- the criterion-1 seeds 0-299, then seeds 0-149 of an arity-3 population
  on a domain of 2.

Each instance runs unseeded and with the decision tie-break seeds 1, 2 and
5 (1,832 runs).  pytest does not collect it; run from the repository root:

    PYTHONPATH=src python3 tests/same_behaviour.py
    PYTHONPATH=src python3 -O tests/same_behaviour.py

The digest is the same under `-O`, which drops every `assert`.  It prints
the run count, the time and the digest, and exits non-zero unless the
digest is the recorded one.
"""
import hashlib
import os
import sys
import time

from eprsat.oracle import GenParams, gen_benchmark, gen_random_instance
from eprsat.parser import parse_problem
from eprsat.render import render_model, render_trace
from eprsat.solver import RunConfig, Solver
from hard_families import complete_colouring_text, pigeonhole_text

DIGEST = "cafe8f964a24c6c09eae06d2f3e9f12744edbb66612269ce85ac2201066860f0"

SEEDS = (None, 1, 2, 5)
RUNGS = [(5, 4), (7, 3), (8, 3), (8, 4), (10, 3)]
# (parameters, seed count) of the two random populations
POPULATIONS = [
    (GenParams(n_preds=3, max_arity=2, domain_size=3, n_clauses=12, max_lits=4), 300),
    (GenParams(n_preds=3, max_arity=3, domain_size=2, n_clauses=10, max_lits=4), 150),
]


def instances():
    """(sig, clauses) of the corpus, in digest order."""
    for nk in RUNGS:
        yield gen_benchmark(*nk)
    with open(os.path.join(os.path.dirname(__file__), "data", "c5-2.p"),
              encoding="utf-8") as f:
        yield parse_problem(f.read())
    yield parse_problem(complete_colouring_text(4, 3))
    yield parse_problem(pigeonhole_text(4, 3))
    for params, count in POPULATIONS:
        for seed in range(count):
            yield gen_random_instance(GenParams(**{**params.__dict__, "seed": seed}))


def main():
    digest = hashlib.sha256()
    runs = 0
    start = time.perf_counter()
    for sig, clauses in instances():
        for seed in SEEDS:
            solver = Solver(sig, clauses, RunConfig(max_steps=20000, seed=seed))
            digest.update("\n".join(solver.deletion_log).encode())
            verdict = solver.solve()
            digest.update(render_trace(verdict.trace).encode())
            if verdict.status == "sat":
                digest.update(render_model(sig, verdict.model).encode())
            runs += 1
    got = digest.hexdigest()
    ok = got == DIGEST
    print(f"{runs} runs in {time.perf_counter() - start:.1f} s, digest {got} "
          f"{'ok' if ok else 'MISMATCH'}")
    if not ok:
        print(f"  expected {DIGEST}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
