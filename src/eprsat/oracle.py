"""Independent brute-force machinery: grounding, SAT oracles, model
verification, the non-redundancy check, and instance generators.

Everything here is deliberately separate from the solver's reasoning paths:
grounding is exhaustive enumeration, satisfiability is decided by DPLL over
clause sets (the tests referee it with a full truth table, a second,
independent route), and redundancy goes straight by its definition over the
ground instances.  A `GroundProblem` is the one grounding path and the one
signed-literal encoding.  It grounds a clause by columns, one list per
literal of its signed index under every assignment: `add` keeps their rows
(for `ground_problem`, of the input or the pool), `verify_model` reads them in a
truth array, `encode` builds every other DPLL clause, and `entails` answers
each entailment question, for the non-redundancy check and the audits.
"""
from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

from .constrained import CLit, cover
from .syntax import (
    Clause,
    Lit,
    Signature,
    canonical_clause,
    clause_vars,
)
from .trail import InducedOrdering

DPLL_ATOM_CAP = 60      # backtracking route


class OracleCeiling(ValueError):
    pass


class GroundProblem:
    """The deduplicated ground instances of a clause set, as DPLL clauses.

    Atom i of the universe is `offset[p] + sum(arg_j * n**(k-1-j))` for
    predicate p of arity k (predicates by name, arguments lexicographic), and
    a ground literal is the signed index +-(i+1).  A clause is compiled once
    into index arithmetic per literal; each instance is kept as the sorted
    tuple of its signed literals, the same multiset test as comparing
    canonical ground clauses.  The `Lit` forms are decoded on demand.
    """

    def __init__(self, sig: Signature, ceiling: Optional[int]):
        self.size = sig.atom_universe_size()
        if ceiling is not None and self.size > ceiling:
            raise OracleCeiling(
                f"ground universe has {self.size} atoms, ceiling is {ceiling}")
        self.n = sig.n
        self._preds = sorted(sig.preds.items())
        self.offset: dict[str, int] = {}
        start = 0
        for pred, arity in self._preds:
            self.offset[pred] = start
            start += self.n ** arity
        self._starts = list(self.offset.values())   # `_atom` bisects them
        self.clauses: list[frozenset[int]] = []   # +-(i+1) signed atom indices
        # an insertion-ordered set: each clause's sorted signed literals
        self._keys: dict[tuple[int, ...], None] = {}

    # -- the kernel -----------------------------------------------------------

    def signed(self, lit: Lit) -> int:
        """The ground literal's signed atom index, +-(i+1)."""
        i = self.offset[lit.pred] + 1
        h = 0
        for t in lit.args:
            h = h * self.n + t
        return -(i + h) if lit.neg else i + h

    def _columns(self, clause: Clause) -> Iterator[list[int]]:
        """Yield each literal's signed index under every ground assignment of
        `clause_vars(clause)`, in `ground_assignments` order.  The literal is
        compiled once, to c (its index with every variable at 0) and k_v per
        variable v; its column [c] is widened by `a * k_v` for a in range(n),
        one variable after another, so the last variable varies fastest."""
        vs = clause_vars(clause)
        for l in clause:
            w = -1 if l.neg else 1      # the signed weight of the next argument
            col, coef = [w * (self.offset[l.pred] + 1)], {}
            for t in reversed(l.args):
                if t < 0:
                    coef[t] = coef.get(t, 0) + w
                else:
                    col[0] += t * w
                w *= self.n
            for v in vs:
                steps = [a * coef.get(v, 0) for a in range(self.n)]
                col = [s + k for s in col for k in steps]
            yield col

    def instances(self, clause: Clause) -> Iterator[tuple[int, ...]]:
        """The sorted signed literals of each ground instance of `clause`, in
        `ground_assignments` order, repeats included: the rows of its
        columns (the empty clause has no column and one instance)."""
        cols = list(self._columns(clause))
        return (tuple(sorted(row)) for row in (zip(*cols) if cols else [()]))

    def add(self, clause: Clause) -> None:
        """Append the ground instances of `clause` not already present."""
        keys = self._keys
        for key in self.instances(clause):
            if key not in keys:
                keys[key] = None
                self.clauses.append(frozenset(key))

    def encode(self, ground: Clause) -> frozenset[int]:
        """The ground clause as signed atom indices."""
        return frozenset(map(self.signed, ground))

    def __contains__(self, ground: Clause) -> bool:
        """The ground clause, as a multiset of literals, is one of `clauses`."""
        return tuple(sorted(map(self.signed, ground))) in self._keys

    # -- decoding -------------------------------------------------------------

    def _atom(self, i: int) -> Lit:
        k = bisect_right(self._starts, i) - 1
        pred, arity = self._preds[k]
        i -= self._starts[k]
        args = [0] * arity
        for j in range(arity - 1, -1, -1):
            i, args[j] = divmod(i, self.n)
        return Lit(False, pred, tuple(args))

    def decode(self, key) -> Clause:
        """The canonical ground clause of signed atom indices."""
        return canonical_clause(self._atom(s - 1) if s > 0
                                else self._atom(-s - 1).negate() for s in key)

    @cached_property
    def atoms(self) -> list[Lit]:
        """The ground atoms, atom i at position i."""
        return [self._atom(i) for i in range(self.size)]

    def entails(self, premises: list[frozenset[int]], conclusion: Clause) -> bool:
        """The encoded `premises` entail the ground `conclusion`: DPLL finds
        no model of them plus the units of the negated conclusion."""
        units = [frozenset([-i]) for i in self.encode(conclusion)]
        return brute_sat(self, premises + units) is None


def ground_problem(sig: Signature, clauses: list[Clause]) -> GroundProblem:
    gp = GroundProblem(sig, DPLL_ATOM_CAP)
    for c in clauses:
        gp.add(c)
    return gp


# ---------------------------------------------------------------------------
# SAT oracles

def brute_sat(gp: GroundProblem, clauses: Optional[list[frozenset[int]]] = None,
              ) -> Optional[set[Lit]]:
    """A model of `clauses` (default: `gp.clauses`) over `gp`'s atoms, or
    None when there is none: DPLL over clause sets (Davis, Logemann &
    Loveland, CACM 1962).  An atom no remaining clause mentions stays false."""
    if gp.size > DPLL_ATOM_CAP:
        raise OracleCeiling(
            f"{gp.size} atoms exceed the backtracking cap {DPLL_ATOM_CAP}")
    assumed = _dpll(gp.clauses if clauses is None else clauses, [])
    return None if assumed is None else {gp.atoms[s - 1] for s in assumed if s > 0}


def _dpll(clauses: list[frozenset[int]], assumed: list[int],
          ) -> Optional[list[int]]:
    """`assumed` plus the literals assumed on the way to a model of
    `clauses`, or None.  Assuming a literal drops the clauses it satisfies
    and removes its negation from the rest.  A unit clause is assumed
    first; otherwise the least atom left branches, false first."""
    if not all(clauses):
        return None
    if not clauses:
        return assumed
    branches = next((c for c in clauses if len(c) == 1), None)
    if branches is None:
        atom = min(abs(s) for c in clauses for s in c)
        branches = (-atom, atom)
    for s in branches:
        model = _dpll([c - {-s} if -s in c else c for c in clauses if s not in c],
                      assumed + [s])
        if model is not None:
            return model
    return None


# ---------------------------------------------------------------------------
# model verification

def verify_model(model: list[CLit], sig: Signature, clauses: list[Clause],
                 ) -> tuple[bool, Optional[Clause]]:
    """Check every ground instance under the induced interpretation (atoms
    not covered positively are false).  Returns the first failing instance,
    canonical.

    The interpretation is a truth `bytearray` indexed by signed literal, a
    negative one from the end, marked from each positive model literal's
    `cover`, looked up on this module because perfbench's selftest needs its
    `constrained.cover` wrapper to fire here.  Each column of a clause
    becomes a truth column as it is made (a failing clause's columns are
    made again to decode its row), and the first row with no true literal
    is the first failing instance in `ground_assignments` order."""
    gp = GroundProblem(sig, ceiling=None)
    truth = bytearray(gp.size + 1) + b"\x01" * gp.size    # every atom false
    for cl in model:
        if not cl.lit.neg:
            for atom in cover(cl.lit, cl.pi, sig.n):
                s = gp.signed(atom)
                truth[s], truth[-s] = 1, 0
    for c in clauses:
        cols = [bytes(map(truth.__getitem__, col)) for col in gp._columns(c)]
        for r, row in enumerate(zip(*cols) if cols else [()]):
            if not any(row):
                return False, gp.decode(col[r] for col in gp._columns(c))
    return True, None


# ---------------------------------------------------------------------------
# non-redundant learning check

def check_nonredundant(instances: list[Clause], pool: GroundProblem,
                       ordering: InducedOrdering) -> bool:
    """True iff the clause with these ground `instances` is NOT redundant
    w.r.t. the ground `pool` and the ordering.

    A ground instance is redundant when it already occurs in the ground pool
    or follows from the strictly smaller ground pool clauses (the "all
    smaller clauses" entailment shortcut is exact).

    The pool clauses are sorted out by their greatest literal first, read
    off their signed atom indices as `2 * def_pos + neg` (one `def_pos` per
    pool atom per call).  `clause_key` compares the descending list of
    `(def_pos, neg)` pairs first, so a clause whose greatest pair is below
    the instance's is smaller and one whose greatest pair is above is not.
    Only the ties are decoded and compared in full, from their multiset
    key: a repeated literal is part of the key, not of the frozenset.
    """
    rank = [0] + [2 * ordering.def_pos(atom) for atom in pool.atoms]
    tops = [max((rank[s] if s > 0 else rank[-s] + 1 for s in key), default=-1)
            for key in pool._keys]
    for g in instances:
        if g in pool:
            continue
        top = max((2 * ordering.def_pos(l.atom) + l.neg for l in g), default=-1)
        smaller = [e for key, t, e in zip(pool._keys, tops, pool.clauses)
                   if t < top or t == top
                   and ordering.cmp_clauses(pool.decode(key), g) < 0]
        if not pool.entails(smaller, g):
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
        n_lits = rng.randrange(1, p.max_lits + 1)
        lits = []
        varpool: list[int] = []  # clause-scoped codes keep output seed-stable
        for _ in range(n_lits):
            pred = rng.choice(names)
            args = []
            for _ in range(preds[pred]):
                r = rng.random()
                if r < 0.35:
                    args.append(rng.randrange(p.domain_size))
                elif varpool and r < 0.35 + 0.5 * 0.65:
                    args.append(rng.choice(varpool))
                else:
                    v = -len(varpool) - 1
                    varpool.append(v)
                    args.append(v)
            lits.append(Lit(rng.random() < 0.5, pred, tuple(args)))
        clauses.append(tuple(lits))
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
