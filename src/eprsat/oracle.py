"""Independent brute-force machinery: grounding, SAT oracles, model
verification, the non-redundancy check, and instance generators.

Everything here is deliberately separate from the solver's reasoning paths:
grounding is exhaustive enumeration, satisfiability is decided by plain
DPLL (the tests referee it with a full truth table, a second, independent
route), and redundancy goes straight by its definition over the ground
instances.  A `GroundProblem` is the one signed-literal encoding: its
`encode` builds every DPLL clause, and its `entails` answers each
entailment question, for the non-redundancy check and for the audits.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from .constrained import CLit, clit_cover
from .syntax import (
    Clause,
    Lit,
    Signature,
    apply_clause,
    canonical_clause,
    clause_vars,
    ground_assignments,
)
from .trail import InducedOrdering

DPLL_ATOM_CAP = 60      # backtracking route
REDUNDANCY_ATOM_CAP = 36


class OracleCeiling(ValueError):
    pass


@dataclass
class GroundProblem:
    atoms: list[Lit]                      # ground atoms, deterministic order
    index: dict[Lit, int]
    clauses: list[frozenset[int]]         # +-(i+1) signed atom indices
    ground_clauses: list[Clause]          # canonical ground clauses, deduped

    def encode(self, clause: Clause) -> frozenset[int]:
        """The ground clause as signed atom indices, +-(i+1)."""
        return frozenset(-(self.index[l.atom] + 1) if l.neg
                         else self.index[l.atom] + 1 for l in clause)

    def entails(self, premises: list[frozenset[int]], conclusion: Clause) -> bool:
        """The encoded `premises` entail the ground `conclusion`: DPLL finds
        no model of them plus the units of the negated conclusion."""
        units = [frozenset([-i]) for i in self.encode(conclusion)]
        return brute_sat(GroundProblem(self.atoms, self.index,
                                       premises + units, [])) is None


def _atom_universe(sig: Signature) -> list[Lit]:
    atoms = []
    for pred in sorted(sig.preds):
        for args in itertools.product(range(sig.n), repeat=sig.preds[pred]):
            atoms.append(Lit(False, pred, args))
    return atoms


def ground_problem(sig: Signature, clauses: list[Clause],
                   ceiling: int = DPLL_ATOM_CAP) -> GroundProblem:
    atoms = _atom_universe(sig)
    if len(atoms) > ceiling:
        raise OracleCeiling(
            f"ground universe has {len(atoms)} atoms, ceiling is {ceiling}")
    gp = GroundProblem(atoms, {a: i for i, a in enumerate(atoms)}, [], [])
    seen: set[Clause] = set()
    for c in clauses:
        for d in ground_assignments(clause_vars(c), sig.n):
            g = canonical_clause(apply_clause(c, d))
            if g in seen:
                continue
            seen.add(g)
            gp.ground_clauses.append(g)
            gp.clauses.append(gp.encode(g))
    return gp


# ---------------------------------------------------------------------------
# SAT oracles

def brute_sat(gp: GroundProblem) -> Optional[set[Lit]]:
    """DPLL with unit propagation; None means unsatisfiable.  It branches
    only on the atoms some clause mentions: the rest stay false."""
    if len(gp.atoms) > DPLL_ATOM_CAP:
        raise OracleCeiling(
            f"{len(gp.atoms)} atoms exceed the backtracking cap {DPLL_ATOM_CAP}")
    assign: dict[int, bool] = {}
    mentioned = sorted({abs(lit) for cl in gp.clauses for lit in cl})

    def value(cl):
        undef = None
        n_undef = 0
        for lit in cl:
            v = assign.get(abs(lit))
            if v is None:
                undef = lit
                n_undef += 1
            elif v == (lit > 0):
                return "sat", None
        if n_undef == 0:
            return "conflict", None
        if n_undef == 1:
            return "unit", undef
        return "open", None

    def propagate() -> bool:
        changed = True
        while changed:
            changed = False
            for cl in gp.clauses:
                st, unit = value(cl)
                if st == "conflict":
                    return False
                if st == "unit":
                    assign[abs(unit)] = unit > 0
                    changed = True
        return True

    def rec() -> bool:
        if not propagate():
            return False
        for i in mentioned:
            if i not in assign:
                saved = dict(assign)
                assign[i] = False
                if rec():
                    return True
                assign.clear()
                assign.update(saved)
                assign[i] = True
                if rec():
                    return True
                assign.clear()
                assign.update(saved)
                return False
        return True

    if not rec():
        return None
    return {gp.atoms[i - 1] for i, v in assign.items() if v}


# ---------------------------------------------------------------------------
# model verification

def verify_model(model: list[CLit], sig: Signature, clauses: list[Clause],
                 ) -> tuple[bool, Optional[Clause]]:
    """Check every ground instance under the induced interpretation
    (atoms not covered positively are false).  Returns a failing instance."""
    true_atoms: set[Lit] = set()
    for cl in model:
        if not cl.lit.neg:
            true_atoms |= clit_cover(cl, sig.n)
    true_atoms = {l.atom for l in true_atoms}
    for c in clauses:
        for d in ground_assignments(clause_vars(c), sig.n):
            g = apply_clause(c, d)
            if not any((l.atom in true_atoms) != l.neg for l in g):
                return False, canonical_clause(g)
    return True, None


# ---------------------------------------------------------------------------
# non-redundant learning check

def check_nonredundant(instances: list[Clause], pool: list[Clause],
                       ordering: InducedOrdering, sig: Signature) -> Optional[bool]:
    """True iff the clause with these ground `instances` is NOT redundant
    w.r.t. the pool and ordering.

    A ground instance is redundant when it already occurs in the ground pool
    or follows from the strictly smaller ground pool clauses (the "all
    smaller clauses" entailment shortcut is exact).  None means the check
    was skipped because the universe exceeds REDUNDANCY_ATOM_CAP.
    """
    try:
        gp = ground_problem(sig, pool, ceiling=REDUNDANCY_ATOM_CAP)
    except OracleCeiling:
        return None
    pool_ground = set(gp.ground_clauses)
    for g in instances:
        inst = canonical_clause(g)
        if inst in pool_ground:
            continue
        smaller = [e for c, e in zip(gp.ground_clauses, gp.clauses)
                   if ordering.cmp_clauses(c, inst) < 0]
        if not gp.entails(smaller, inst):
            return True  # found a non-redundant instance
    return False


# ---------------------------------------------------------------------------
# generators

@dataclass
class GenParams:
    n_preds: int = 3
    max_arity: int = 2
    domain_size: int = 3
    n_clauses: int = 8
    max_lits: int = 4
    seed: int = 0
    share_prob: float = 0.5
    allow_empty: bool = False

    def __post_init__(self) -> None:
        if min(self.n_preds, self.domain_size, self.n_clauses,
               self.max_lits) <= 0 or self.max_arity < 0:
            raise ValueError("generator parameters must be positive")


def gen_random_instance(p: GenParams) -> tuple[Signature, list[Clause]]:
    rng = random.Random(p.seed)
    preds = {}
    for i in range(rng.randrange(1, p.n_preds + 1)):
        preds[f"p{i}"] = rng.randrange(0, p.max_arity + 1)
    domain = tuple(chr(ord("a") + i) for i in range(p.domain_size))
    sig = Signature(preds, domain)
    clauses: list[Clause] = []
    names = sorted(preds)
    for _ in range(rng.randrange(1, p.n_clauses + 1)):
        n_lits = rng.randrange(0 if p.allow_empty else 1, p.max_lits + 1)
        lits = []
        varpool: list[int] = []  # clause-scoped codes keep output seed-stable
        for _ in range(n_lits):
            pred = rng.choice(names)
            args = []
            for _ in range(preds[pred]):
                r = rng.random()
                if r < 0.35:
                    args.append(rng.randrange(p.domain_size))
                elif varpool and r < 0.35 + p.share_prob * 0.65:
                    args.append(rng.choice(varpool))
                else:
                    v = -len(varpool) - 1
                    varpool.append(v)
                    args.append(v)
            lits.append(Lit(rng.random() < 0.5, pred, tuple(args)))
        if not lits and not p.allow_empty:
            continue
        clauses.append(tuple(lits))
    if not clauses:
        clauses.append((Lit(False, names[0],
                            tuple(0 for _ in range(preds[names[0]]))),))
    return sig, clauses


def gen_benchmark(n: int, k: int) -> tuple[Signature, list[Clause]]:
    """The scaling family: a reflexive chain over Q forces a P-cover whose
    natural representation is a single constrained literal with adjacent
    positions distinct."""
    if n < 2 or k < 2:
        raise ValueError("need n >= 2 and k >= 2")
    sig = Signature({"p": k, "q": 2}, tuple(f"a{i}" for i in range(1, n + 1)))
    clauses: list[Clause] = []
    xs = [-i - 1 for i in range(k)]
    x, y, z = -k - 1, -k - 2, -k - 3
    clauses.append((Lit(False, "q", (x, x)),))
    for i in range(n - 1):
        clauses.append((Lit(True, "q", (i, i + 1)),))
    for j in range(k - 1):
        args = list(xs)
        args[j + 1] = args[j]
        clauses.append((Lit(True, "p", tuple(args)),))
    clauses.append((Lit(True, "q", (x, z)), Lit(False, "q", (x, y)),
                    Lit(False, "q", (y, z))))
    big = [Lit(False, "p", tuple(xs))]
    for j in range(k - 1):
        big.append(Lit(False, "q", (xs[j], xs[j + 1])))
    clauses.append(tuple(big))
    return sig, clauses
