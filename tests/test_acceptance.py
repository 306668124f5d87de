"""Acceptance suite: one test per criterion, run in order.

Each criterion prints a PASS line with its headline numbers (visible under
pytest -s); failures raise normally.  Criterion 8 (the step cap) aggregates
over every run the other criteria performed.
"""
import itertools
import os
import random
import time

from eprsat.audit import Auditor
from eprsat.constrained import (
    CLit,
    conjunction,
    cover,
    difference,
    elim_free_vars,
    is_empty,
)
from eprsat.constraints import conj, is_normal, normalize, solutions
from eprsat.oracle import (
    GenParams,
    brute_sat,
    gen_benchmark,
    gen_random_instance,
    ground_problem,
    verify_model,
)
from eprsat.parser import parse_model, parse_problem, parse_script
from eprsat.render import render_model, render_trace
from eprsat.solver import RunConfig, Solver
from eprsat.syntax import Lit, lit_vars, var_code
from population import criterion_1_population, criterion_1_verdicts

DATA = os.path.join(os.path.dirname(__file__), "data")
STEP_CAP = 1_000_000
_observed_steps: list[int] = []

def _solve(sig, clauses, audit=False, seed=None, script=None):
    auditor = Auditor(sig, clauses) if audit else None
    cfg = RunConfig(max_steps=STEP_CAP, seed=seed, script=script)
    solver = Solver(sig, clauses, cfg, auditor=auditor)
    verdict = solver.solve()
    _observed_steps.append(verdict.steps)
    return solver, verdict, auditor


def test_criterion_1_differential_correctness():
    t0 = time.time()
    n_sat = n_unsat = 0
    for seed, (sig, clauses, verdict) in enumerate(criterion_1_verdicts()):
        _observed_steps.append(verdict.steps)
        oracle = brute_sat(ground_problem(sig, clauses))
        expect = "sat" if oracle is not None else "unsat"
        assert verdict.status == expect, f"seed {seed}: {verdict.status} vs {expect}"
        if verdict.status == "sat":
            ok, witness = verify_model(verdict.model, sig, clauses)
            assert ok, f"seed {seed}: model fails on {witness}"
            n_sat += 1
        else:
            n_unsat += 1
    elapsed = time.time() - t0
    assert elapsed < 300, f"criterion 1 took {elapsed:.1f}s"
    print(f"\ncriterion 1: PASS 500/500 verdicts match "
          f"({n_sat} sat, {n_unsat} unsat) in {elapsed:.1f}s")


def _random_clit(rng, pred, arity, n):
    codes = [var_code(rng.randrange(500, 520)) for _ in range(arity)]
    args = tuple(rng.choice(codes + list(range(n))) for _ in range(arity))
    lit = Lit(rng.random() < 0.5, pred, args)
    vs = lit_vars(lit)
    subs = []
    for i in range(rng.randrange(0, 5)):
        if not vs:
            break
        width = rng.randrange(1, min(3, len(vs)) + 1)
        lhs = tuple(rng.sample(vs, width))
        rhs_vars = [var_code(6000 + 10 * i + k) for k in range(2)]
        rhs = tuple(rng.choice(rhs_vars + list(range(n))) for _ in range(width))
        subs.append((lhs, rhs))
    return CLit(lit, normalize(conj(subs)))


def test_criterion_2_constraint_operation_oracles():
    t0 = time.time()
    rng = random.Random(20_24)
    n = 3
    checked = 0
    while checked < 1000:
        arity = rng.randrange(1, 4)
        c1 = _random_clit(rng, "P", arity, n)
        c2 = _random_clit(rng, "P", arity, n)
        if c1.pi.is_bot or c2.pi.is_bot:
            continue
        c2 = CLit(Lit(c1.lit.neg, "P", c2.lit.args), c2.pi)
        g1, g2 = cover(c1.lit, c1.pi, n), cover(c2.lit, c2.pi, n)
        cj = conjunction(c1, c2)
        assert cover(cj.lit, cj.pi, n) == g1 & g2
        pieces = difference(c1, c2)
        covers = [cover(piece.lit, piece.pi, n) for piece in pieces]
        union = set().union(*covers) if covers else set()
        assert union == g1 - g2
        for i in range(len(covers)):
            for j in range(i + 1, len(covers)):
                assert not (covers[i] & covers[j])
        assert is_empty(c1.lit, c1.pi, n) == (not g1)
        # a closure with one extra (existential) lhs variable
        free = var_code(7000 + checked % 7)
        if lit_vars(c1.lit):
            anchor = rng.choice(lit_vars(c1.lit))
            extra = ((free, anchor), (var_code(7500), var_code(7500)))
            raw_pi = normalize(conj(list(c1.pi.subs) + [extra])
                               if c1.pi.kind == "and" else conj([extra]))
            if not raw_pi.is_bot:
                got = elim_free_vars(c1.lit, raw_pi, {}, n)
                union2 = set()
                for l2, p2, _ in got:
                    union2 |= cover(l2, p2, n)
                assert union2 == cover(c1.lit, raw_pi, n)
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60, f"criterion 2 took {elapsed:.1f}s"
    print(f"criterion 2: PASS 1000/1000 operation checks in {elapsed:.1f}s")


def test_criterion_3_normalization():
    rng = random.Random(333)
    pool = [var_code(600), var_code(601), var_code(602), var_code(603)]
    n = 3
    for round_ in range(1000):
        vs = pool[: rng.randrange(1, 5)]
        subs = []
        for i in range(rng.randrange(1, 5)):
            width = rng.randrange(1, 4)
            lhs = tuple(rng.choice(vs + list(range(n))) for _ in range(width))
            rhs_vars = [var_code(8000 + 10 * i + k) for k in range(3)]
            rhs = tuple(rng.choice(rhs_vars + list(range(n)))
                        for _ in range(width))
            subs.append((lhs, rhs))
        pi = conj(subs)
        out = normalize(pi)
        assert is_normal(out)
        assert solutions(pi, vs, n) == solutions(out, vs, n)
        assert normalize(out) == out
    print("criterion 3: PASS 1000/1000 normalizations")


GOLDEN_SEQUENCE = [
    "Propagate", "Decide", "Propagate", "Conflict", "Resolve", "Skip",
    "Factorize", "Factorize", "Backjump", "Propagate", "Decide", "Propagate",
    "Conflict", "Resolve", "Skip", "Factorize", "Factorize", "Backjump",
    "Propagate", "Decide", "Decide", "Success",
]

GOLDEN_FINAL_TRAIL = [
    "~P(c,X,X) :: TOP",
    "~P(a,X,Y) :: TOP",
    "~P(b,X,Y) :: TOP",
    "~P(c,X,Y) :: (X,Y) != (Z,Z)",
    "Q(X,Y) :: TOP",
]


def test_criterion_4_golden_regression():
    from eprsat.render import render_clit
    sig, clauses = parse_problem(open(os.path.join(DATA, "ex33.p")).read())
    script = parse_script(open(os.path.join(DATA, "ex33.dec")).read(), sig)
    _, verdict, _ = _solve(sig, clauses, script=script)
    assert verdict.status == "sat"
    assert [e.rule for e in verdict.trace] == GOLDEN_SEQUENCE
    got = [render_clit(sig, cl.lit, cl.pi) for cl in verdict.model]
    assert got == GOLDEN_FINAL_TRAIL
    golden = open(os.path.join(DATA, "ex33.trace.golden")).read()
    assert render_trace(verdict.trace) == golden
    print("criterion 4: PASS golden derivation byte-exact "
          f"({len(verdict.trace)} rule applications)")


def _adjacent_distinct_cover(n, k):
    out = set()
    for args in itertools.product(range(n), repeat=k):
        if all(args[i] != args[i + 1] for i in range(k - 1)):
            out.add(Lit(False, "p", args))
    return out


def test_criterion_5_benchmark_no_backjumping():
    for (n, k) in [(3, 3), (3, 4), (4, 3), (5, 4)]:
        target = _adjacent_distinct_cover(n, k)
        for seed in range(1, 6):
            t0 = time.time()
            sig, clauses = gen_benchmark(n, k)
            _, verdict, _ = _solve(sig, clauses, seed=seed)
            elapsed = time.time() - t0
            assert verdict.status == "sat", (n, k, seed)
            assert verdict.backjumps == 0, (n, k, seed)
            assert elapsed < 5, f"({n},{k}) seed {seed} took {elapsed:.1f}s"
            doc = render_model(sig, verdict.model)
            entries, compact = parse_model(doc, sig)
            found = False
            for lit, pi in entries + compact:
                if lit.pred == "p" and not lit.neg:
                    if cover(lit, pi, sig.n) == target:
                        found = True
                        break
            assert found, f"({n},{k}) seed {seed}: no single-literal cover"
    print("criterion 5: PASS 20/20 runs backjump-free with the compact cover")


def test_criterion_6_nonredundant_learning():
    shapes = [
        GenParams(n_preds=2, max_arity=2, domain_size=2, n_clauses=15,
                  max_lits=3),
        GenParams(n_preds=2, max_arity=2, domain_size=3, n_clauses=14,
                  max_lits=3),
    ]
    audited = 0
    learned_total = 0
    seed = 0
    while audited < 50:
        shape = shapes[seed % len(shapes)]
        p = GenParams(**{**shape.__dict__, "seed": 31_000 + seed})
        seed += 1
        sig, clauses = gen_random_instance(p)
        if sig.atom_universe_size() > 24:
            continue
        solver, verdict, auditor = _solve(sig, clauses, audit=True)
        if not any(e.rule == "Conflict" for e in verdict.trace):
            continue
        audited += 1
        learned_total += verdict.learned
        assert not auditor.violations, auditor.violations[:3]
        assert not any("non-redundancy" in s for s in auditor.skipped)
    assert learned_total > 0
    print(f"criterion 6: PASS 50 audited conflict runs, "
          f"{learned_total} learned clauses all non-redundant")


def _count_learning_checks(monkeypatch):
    """Make every audited run count the auditor's learning checks.  The
    returned check, called after a run, asserts that `before_learn` ran once
    per learned clause."""
    calls = []
    before_learn = Auditor.before_learn

    def spy_before_learn(auditor, solver, *args):
        before_learn(auditor, solver, *args)
        calls.append(args[0])      # the learned clause

    monkeypatch.setattr(Auditor, "before_learn", spy_before_learn)

    def check(solver, verdict, auditor) -> None:
        assert len(calls) == verdict.learned
        calls.clear()
    return check


def test_criterion_7_soundness_and_regularity_audits(monkeypatch):
    t0 = time.time()
    violations = []
    count_learning_checks = _count_learning_checks(monkeypatch)
    # criterion-1 population, audited
    most_learned = 0
    for sig, clauses in criterion_1_population():
        run = _solve(sig, clauses, audit=True)
        count_learning_checks(*run)
        most_learned = max(most_learned, run[1].learned)
        violations += run[2].violations
    assert most_learned >= 2
    # the golden derivation, audited
    sig, clauses = parse_problem(open(os.path.join(DATA, "ex33.p")).read())
    script = parse_script(open(os.path.join(DATA, "ex33.dec")).read(), sig)
    solver, verdict, auditor = _solve(sig, clauses, audit=True, script=script)
    count_learning_checks(solver, verdict, auditor)
    assert verdict.learned > 0
    violations += auditor.violations
    assert not any("non-redundancy" in s for s in auditor.skipped), \
        auditor.skipped
    # the benchmark family, audited
    for (n, k) in [(3, 3), (3, 4), (4, 3), (5, 4)]:
        for seed in range(1, 6):
            sig, clauses = gen_benchmark(n, k)
            run = _solve(sig, clauses, audit=True, seed=seed)
            count_learning_checks(*run)
            violations += run[2].violations
    assert violations == [], violations[:5]
    print(f"criterion 7: PASS 0 audit violations across 521 audited runs "
          f"({time.time() - t0:.1f}s)")


def test_criterion_8_termination_step_accounting():
    assert _observed_steps, "criteria must run before the step-cap check"
    worst = max(_observed_steps)
    assert worst <= STEP_CAP
    print(f"criterion 8: PASS worst-case {worst} rule applications over "
          f"{len(_observed_steps)} runs (cap {STEP_CAP})")
