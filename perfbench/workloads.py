"""The four workloads: problem text for each instance, and one pass over them.

Every instance is problem text made here, so the program under test sees only
its input format.  A pass mirrors `eprsat.cli.main` through library calls:
parse_problem -> Solver (with an Auditor on `check`) -> solve ->
render_trace / render_model -> on `check`, ground_problem + brute_sat +
verify_model.  Library functions are reached through their modules at call
time (`parser.parse_problem`, not an imported name), so the traced run's
wrappers see the benchmark's own calls too.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional

from eprsat import audit, oracle, parser, render, solver

STEP_CAP = 10_000

# Why each workload exists, and which layer does its work (sized on 2 CPUs,
# Python 3.11; see BENCHMARK.json for the one-line form).
#   ladder   -- gen_benchmark rung (7,3): sat, 82 steps, 0 backjumps.  Pure
#               propagation (derive.find_candidates); its model document is
#               the costliest output (render.merge_cover).
#   probe    -- ROADMAP's grounding probe at n=20: sat in 8 steps; the queue
#               priority enumerates n^4 ground atoms (constrained.cover).
#               merge_cover skips it through its cap, so render is bypassed.
#   coloring -- C5 with 2 colours and K4 with 3: unsat with 2 and 7 learned
#               clauses.  The learning/backjump path (compute_backjump_level).
#   check    -- what `--check` does: the audited ex33 replay with its decision
#               script, then the audited criterion-1 population compared with
#               the ground oracle.  Audit- and setup-heavy.
LADDER = (7, 3)
PROBE_N = 20
POPULATION = 500
POPULATION_PARAMS = dict(n_preds=3, max_arity=2, domain_size=3, n_clauses=12,
                         max_lits=4)

# the paper's worked example and the decision script that replays it
EX33 = """\
domain a b c .
-P(c,X,X) .
-P(X,Y,Z) | -P(U,W,T) | Q(X,U) .
-P(X,Y,Z) | -Q(a,X) .
-Q(X,b) | -P(X,Y,Z) .
"""
EX33_SCRIPT = """\
P(X,Y,Z) :: X != c
P(b,X,Y) :: TOP
~P(c,X,Y) :: (X,Y) != (V,V)
Q(X,Y) :: TOP
"""


@dataclass
class Instance:
    name: str
    text: str
    expect: Optional[str]               # 'sat' / 'unsat'; None: ask the oracle
    script: Optional[str] = None


@dataclass
class Outcome:
    """What one solve produced; the referee judges it after the pass."""

    inst: Instance
    verdict: Optional[solver.Verdict] = None
    sig: object = None
    clauses: list = field(default_factory=list)
    trace_text: str = ""
    model_text: str = ""
    oracle: Optional[str] = None        # the ground oracle's verdict (`check`)
    model_ok: Optional[bool] = None     # verify_model's answer (`check`)
    violations: list = field(default_factory=list)
    error: Optional[str] = None


# ---------------------------------------------------------------------------
# problem text

def _problem(domain: list[str], clauses: list[str]) -> str:
    return "".join([f"domain {' '.join(domain)} .\n"]
                   + [f"{c} .\n" for c in clauses])


def ladder_text(n: int, k: int) -> str:
    """`gen_benchmark(n, k)`: a reflexive, transitive q over a chain forces
    the p-cover whose adjacent positions are distinct."""
    xs = [f"X{i}" for i in range(1, k + 1)]
    clauses = ["q(X,X)"]
    clauses += [f"-q(a{i},a{i + 1})" for i in range(1, n)]
    for j in range(k - 1):
        args = list(xs)
        args[j + 1] = args[j]
        clauses.append(f"-p({','.join(args)})")
    clauses.append("-q(X,Z) | q(X,Y) | q(Y,Z)")
    clauses.append(" | ".join([f"p({','.join(xs)})"]
                              + [f"q({xs[j]},{xs[j + 1]})" for j in range(k - 1)]))
    return _problem([f"a{i}" for i in range(1, n + 1)], clauses)


def probe_text(n: int) -> str:
    return _problem([f"c{i}" for i in range(n)],
                    ["q(X) | -r(X)", "r(c0)", "p(X,Y,Z,W) | -q(X)",
                     "-p(X,Y,Z,W) | s(Y)"])


def coloring_text(nodes: int, edges: list[tuple[int, int]], colours: int) -> str:
    ks = [f"k{j}" for j in range(1, colours + 1)]
    vs = [f"n{i}" for i in range(1, nodes + 1)]
    clauses = ["-node(X) | " + " | ".join(f"col(X,{k})" for k in ks),
               "-edge(X,Y) | -col(X,C) | -col(Y,C)"]
    clauses += [f"node({v})" for v in vs]
    clauses += [f"edge({vs[a]},{vs[b]})" for a, b in edges]
    return _problem(vs + ks, clauses)


def population_text(seed: int) -> str:
    """One criterion-1 instance (`gen_random_instance`) as problem text."""
    params = oracle.GenParams(**POPULATION_PARAMS, seed=seed)
    sig, clauses = oracle.gen_random_instance(params)

    def term(t: int) -> str:
        return sig.domain[t] if t >= 0 else f"X{-t}"

    def lit(l) -> str:
        args = f"({','.join(term(a) for a in l.args)})" if l.args else ""
        return ("-" if l.neg else "") + l.pred + args

    return _problem(list(sig.domain),
                    [" | ".join(lit(l) for l in c) for c in clauses])


def instances(workload: str, seed: int) -> list[Instance]:
    """The fixed families ignore the seed; `check` shuffles its population
    with it, so runs also compare traces across different solve orders."""
    if workload == "ladder":
        n, k = LADDER
        return [Instance(f"ladder-{n}-{k}", ladder_text(n, k), "sat")]
    if workload == "probe":
        return [Instance(f"probe-{PROBE_N}", probe_text(PROBE_N), "sat")]
    if workload == "coloring":
        c5 = [(i, (i + 1) % 5) for i in range(5)]
        k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        return [Instance("c5-2", coloring_text(5, c5, 2), "unsat"),
                Instance("k4-3", coloring_text(4, k4, 3), "unsat")]
    if workload == "check":
        seeds = list(range(POPULATION))
        random.Random(seed).shuffle(seeds)
        return ([Instance("ex33", EX33, "sat", EX33_SCRIPT)]
                + [Instance(f"pop-{s}", population_text(s), None) for s in seeds])
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# one pass

def run_pass(workload: str, insts: list[Instance], clock=time.perf_counter,
             ) -> tuple[dict, list[Outcome]]:
    """Solve every instance once; returns the pass's times and the outcomes.

    Only program work is timed, with `clock`.  Hashing and judging happen
    afterwards.
    """
    audited = workload == "check"
    times = dict(setup_s=0.0, solve_s=0.0, render_s=0.0, check_s=0.0)
    outs: list[Outcome] = []
    start = clock()
    for inst in insts:
        out = Outcome(inst)
        outs.append(out)
        t0 = clock()
        try:
            sig, clauses = parser.parse_problem(inst.text)
            script = (parser.parse_script(inst.script, sig)
                      if inst.script else None)
            auditor = audit.Auditor(sig, clauses) if audited else None
            slv = solver.Solver(sig, clauses,
                                solver.RunConfig(max_steps=STEP_CAP, script=script),
                                auditor=auditor)
            t1 = clock()
            verdict = slv.solve()
            t2 = clock()
            out.trace_text = render.render_trace(verdict.trace)
            if verdict.status == "sat":
                out.model_text = render.render_model(sig, verdict.model)
            t3 = clock()
            if audited and verdict.status != "stepcap":
                gp = oracle.ground_problem(sig, clauses)
                out.oracle = "sat" if oracle.brute_sat(gp) is not None else "unsat"
                if verdict.status == "sat":
                    out.model_ok, _ = oracle.verify_model(verdict.model, sig, clauses)
            t4 = clock()
        except Exception as exc:  # the referee counts it as a failed solve
            out.error = f"{type(exc).__name__}: {exc}"
            continue
        times["setup_s"] += t1 - t0
        times["solve_s"] += t2 - t1
        times["render_s"] += t3 - t2
        times["check_s"] += t4 - t3
        out.verdict, out.sig, out.clauses = verdict, sig, clauses
        if auditor is not None:
            out.violations = list(auditor.violations)
    times["wall_s"] = clock() - start
    return times, outs
