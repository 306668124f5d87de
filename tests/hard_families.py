"""The hard learning families, solved once each against their recorded runs.

K5/4 (the complete graph on 5 nodes with 4 colours) and PHP(5,4) (5 pigeons,
4 holes) are too slow for tier-1, so pytest does not collect this script.
Each must be unsat in its recorded step count with its recorded trace
SHA-256, which pins every rule application of the run.  Then PHP(4,3), K4/3
and PHP(5,4) are solved again under the runtime audit, which must find no
violation; their universes are over the one DPLL atom cap, so each learned
clause skips the two learning checks, and each run must skip its recorded
count of checks.  Last, the `gen_benchmark` rungs (10,3) and (12,3) are
solved and their model documents rendered:
each document must have its recorded SHA-256.  Their models are the largest
that `render.merge_cover` consolidates here.  Run from the repository root:

    PYTHONPATH=src python3 tests/hard_families.py

It prints each run's solve time (for an audited run its count of skipped
checks, for a rung its render time) and exits non-zero on a mismatch or an
audit violation.
"""
import hashlib
import sys
import time

from eprsat.audit import Auditor
from eprsat.oracle import gen_benchmark
from eprsat.parser import parse_problem
from eprsat.render import render_model, render_trace
from eprsat.solver import RunConfig, Solver


def _problem(domain, clauses):
    return "".join([f"domain {' '.join(domain)} .\n"]
                   + [f"{c} .\n" for c in clauses])


def complete_colouring_text(nodes, colours):
    ks = [f"k{j}" for j in range(1, colours + 1)]
    vs = [f"n{i}" for i in range(1, nodes + 1)]
    clauses = ["-node(X) | " + " | ".join(f"col(X,{k})" for k in ks),
               "-edge(X,Y) | -col(X,C) | -col(Y,C)"]
    clauses += [f"node({v})" for v in vs]
    clauses += [f"edge({vs[a]},{vs[b]})"
                for a in range(nodes) for b in range(a + 1, nodes)]
    return _problem(vs + ks, clauses)


def pigeonhole_text(pigeons, holes):
    ps = [f"a{i}" for i in range(1, pigeons + 1)]
    hs = [f"h{j}" for j in range(1, holes + 1)]
    clauses = ["-pig(X) | " + " | ".join(f"in(X,{h})" for h in hs),
               "-in(X,H) | -in(Y,H) | -diff(X,Y)"]
    clauses += [f"pig({p})" for p in ps]
    clauses += [f"diff({p},{q})" for p in ps for q in ps if p != q]
    return _problem(ps + hs, clauses)


FAMILIES = [
    ("K5/4", complete_colouring_text(5, 4), 824,
     "85188b05b147b9879ff3fbb6534260965f7cce08c400d97ce752453c20b1c829"),
    ("PHP(5,4)", pigeonhole_text(5, 4), 769,
     "c8250669c4711ab6475c213c0a8f3ee0a4578dfeae23ed684e324ef7c88fce93"),
]


# (name, problem text, steps, skipped checks), solved with the audit on
AUDITED = [
    ("PHP(4,3)", pigeonhole_text(4, 3), 198, 6),
    ("K4/3", complete_colouring_text(4, 3), 238, 14),
    ("PHP(5,4)", pigeonhole_text(5, 4), 769, 12),
]

# (n, k) of a sat gen_benchmark rung, SHA-256 of its model document
RUNGS = [
    ((10, 3), "9448110c7248322fa4828c8ef2c20c1e6ef409ffa3d0f951849019a1458632ef"),
    ((12, 3), "6c994e392bcdd891613b68f87169f4e4be5cc51d940abf0236f2e66f1b0a6150"),
]


def main():
    failed = 0
    for name, text, steps, sha in FAMILIES:
        sig, clauses = parse_problem(text)
        start = time.perf_counter()
        verdict = Solver(sig, clauses, RunConfig(max_steps=10_000)).solve()
        took = time.perf_counter() - start
        got_sha = hashlib.sha256(render_trace(verdict.trace).encode()).hexdigest()
        got = (verdict.status, verdict.steps, got_sha)
        ok = got == ("unsat", steps, sha)
        failed += not ok
        print(f"{name}: {verdict.status} in {verdict.steps} steps, "
              f"{took:.2f} s, trace {got_sha[:8]}… {'ok' if ok else 'MISMATCH'}")
        if not ok:
            print(f"  expected unsat in {steps} steps, trace {sha}")
    for name, text, steps, skipped in AUDITED:
        sig, clauses = parse_problem(text)
        auditor = Auditor(sig, clauses)
        start = time.perf_counter()
        verdict = Solver(sig, clauses, RunConfig(max_steps=10_000),
                         auditor=auditor).solve()
        took = time.perf_counter() - start
        ok = ((verdict.status, verdict.steps, len(auditor.skipped))
              == ("unsat", steps, skipped) and not auditor.violations)
        failed += not ok
        print(f"{name} audited: {verdict.status} in {verdict.steps} steps, "
              f"{took:.2f} s, {len(auditor.violations)} violations, "
              f"{len(auditor.skipped)} skipped {'ok' if ok else 'MISMATCH'}")
        if not ok:
            print(f"  expected unsat in {steps} steps with no violation and "
                  f"{skipped} skipped; first violations: "
                  f"{auditor.violations[:3]}")
    for nk, sha in RUNGS:
        sig, clauses = gen_benchmark(*nk)
        start = time.perf_counter()
        verdict = Solver(sig, clauses, RunConfig(max_steps=10_000)).solve()
        solved = time.perf_counter()
        doc = render_model(sig, verdict.model) if verdict.status == "sat" else ""
        rendered = time.perf_counter()
        got_sha = hashlib.sha256(doc.encode()).hexdigest()
        ok = (verdict.status, got_sha) == ("sat", sha)
        failed += not ok
        print(f"rung{nk}: {verdict.status} in {verdict.steps} steps, "
              f"{solved - start:.2f} s, rendered in {rendered - solved:.2f} s, "
              f"model {got_sha[:8]}… {'ok' if ok else 'MISMATCH'}")
        if not ok:
            print(f"  expected sat with model {sha}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
