"""Function-free first-order syntax: terms, literals, clauses, substitutions.

Terms are plain ints.  A constant is its index into the signature's domain
(>= 0); a variable with id i is encoded as -i - 1 (`var_code`, its own
inverse).  A substitution (`Subst`) is a dict whose domain is a set of
variables (Baader & Snyder, *Unification Theory*, Handbook of Automated
Reasoning 2001): no constant is a key, so `apply_term` and `apply_args`, the
one way to apply one, make one `dict.get` per term.  `args_vars` is the one
variable collector.  This keeps unification and grounding in tight loops
over small tuples.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional

Subst = dict[int, int]

# ids below the base are reserved for hand-built variables in tests
_FRESH_BASE = 10_000
_counter = itertools.count(_FRESH_BASE)


def fresh_var() -> int:
    """Allocate a globally fresh variable (monotone id counter)."""
    return -next(_counter) - 1


def var_code(i: int) -> int:
    return -i - 1


@dataclass
class Signature:
    """Predicate arities plus the ordered, finite set of constants."""

    preds: dict[str, int]
    domain: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.domain:
            raise ValueError("domain must be nonempty")
        if len(set(self.domain)) != len(self.domain):
            raise ValueError("duplicate constant names")
        for p, a in self.preds.items():
            if a < 0:
                raise ValueError(f"negative arity for {p}")

    @property
    def n(self) -> int:
        return len(self.domain)

    def atom_universe_size(self) -> int:
        return sum(self.n ** a for a in self.preds.values())


class Lit(NamedTuple):
    neg: bool
    pred: str
    args: tuple[int, ...]

    def negate(self) -> "Lit":
        return Lit(not self.neg, self.pred, self.args)

    @property
    def atom(self) -> "Lit":
        return Lit(False, self.pred, self.args) if self.neg else self


Clause = tuple[Lit, ...]


def args_vars(args: Iterable[int]) -> list[int]:
    """Variables in first-occurrence order."""
    seen: list[int] = []
    for a in args:
        if a < 0 and a not in seen:
            seen.append(a)
    return seen


def lit_vars(l: Lit) -> list[int]:
    return args_vars(l.args)


def clause_vars(c: Iterable[Lit]) -> list[int]:
    return args_vars(a for l in c for a in l.args)


# ---------------------------------------------------------------------------
# substitution application and composition

def apply_term(t: int, s: Subst) -> int:
    return s.get(t, t)


def apply_args(args: tuple[int, ...], s: Subst) -> tuple[int, ...]:
    return tuple(map(s.get, args, args))


def apply_lit(l: Lit, s: Subst) -> Lit:
    return Lit(l.neg, l.pred, apply_args(l.args, s))


def numbered(args: tuple[int, ...]) -> tuple[int, ...]:
    """The variant of `args` whose variables are var_code(0), var_code(1),
    ... in order of first occurrence; a ground tuple is returned as it is."""
    vs = args_vars(args)
    return apply_args(args, {v: var_code(i) for i, v in enumerate(vs)}) if vs else args


def apply_clause(c: Clause, s: Subst) -> Clause:
    return tuple(apply_lit(l, s) for l in c)


def compose(s: Subst, t: Subst) -> Subst:
    """Composition: applying the result equals applying s, then t."""
    out: Subst = {}
    for v, x in s.items():
        y = apply_term(x, t)
        if y != v:
            out[v] = y
    for v, x in t.items():
        if v not in s and x != v:
            out[v] = x
    return out


def restrict(s: Subst, vars_: Iterable[int]) -> Subst:
    keep = set(vars_)
    return {v: x for v, x in s.items() if v in keep}


# ---------------------------------------------------------------------------
# unification and matching

def _resolve(t: int, s: Subst) -> int:
    while t in s:
        t = s[t]
    return t


def mgu_args(pairs: Iterable[tuple[int, int]], base: Optional[Subst] = None) -> Optional[Subst]:
    """Most general unifier of term pairs, or None.

    Variable-variable bindings orient the younger (higher-id) variable to the
    older one, which keeps substitutions pointing at input-clause variables.
    """
    s: Subst = dict(base) if base else {}
    for a, b in pairs:
        a = _resolve(a, s)
        b = _resolve(b, s)
        if a == b:
            continue
        if a < 0 and b < 0:
            if var_code(a) < var_code(b):
                a, b = b, a
            s[a] = b
        elif a < 0:
            s[a] = b
        elif b < 0:
            s[b] = a
        else:
            return None
    return {v: _resolve(x, s) for v, x in s.items() if _resolve(x, s) != v}


def unifiable_apart(a_args: tuple[int, ...], b_args: tuple[int, ...]) -> bool:
    """Does mgu(a, b') exist for a variant b' of b sharing no variable with a?

    Exactly when the renamed `mgu_atoms` succeeds, since unifiability does not
    depend on variable names; but no fresh variable is allocated.  A
    union-find keys a's variables by their (negative) codes and b's by their
    (non-negative) ids, so the two stay apart; a root may carry a constant.
    """
    if len(a_args) != len(b_args):
        return False
    parent: dict[int, int] = {}
    const: dict[int, int] = {}
    for x, y in zip(a_args, b_args):
        if x >= 0 and y >= 0:
            if x != y:
                return False
            continue
        if y < 0:
            y = -y - 1
            while y in parent:
                y = parent[y]
            if x < 0:
                while x in parent:
                    x = parent[x]
                if x != y:
                    cx, cy = const.get(x), const.get(y)
                    if cx is not None and cy is not None and cx != cy:
                        return False
                    parent[x] = y
                    if cy is None and cx is not None:
                        const[y] = cx
                continue
            root, c = y, x
        else:
            while x in parent:
                x = parent[x]
            root, c = x, y
        bound = const.get(root)
        if bound is None:
            const[root] = c
        elif bound != c:
            return False
    return True


def mgu_atoms(a: Lit, b: Lit, base: Optional[Subst] = None) -> Optional[Subst]:
    if a.pred != b.pred or len(a.args) != len(b.args):
        return None
    return mgu_args(zip(a.args, b.args), base)


def mgu_many(lits: list[Lit]) -> Optional[Subst]:
    """Unify a nonempty list of equal-polarity literals simultaneously."""
    first = lits[0]
    pairs = []
    for other in lits[1:]:
        if other.neg != first.neg or other.pred != first.pred:
            return None
        pairs.extend(zip(first.args, other.args))
    return mgu_args(pairs)


def match_args(pattern: tuple[int, ...], subject: tuple[int, ...]) -> Optional[Subst]:
    """One-way matching: a substitution d with pattern*d == subject."""
    if len(pattern) != len(subject):
        return None
    s: Subst = {}
    for p, q in zip(pattern, subject):
        if p < 0:
            if p in s:
                if s[p] != q:
                    return None
            else:
                s[p] = q
        elif p != q:
            return None
    return {v: x for v, x in s.items() if v != x}


def match_lit(pattern: Lit, subject: Lit) -> Optional[Subst]:
    if pattern.neg != subject.neg or pattern.pred != subject.pred:
        return None
    return match_args(pattern.args, subject.args)


def factor_through(eta0: Subst, mu: Subst, over: Iterable[int]) -> Subst:
    """The substitution nu with v*eta0*nu == v*mu for all v in `over`.

    Exists whenever eta0 is a most general unifier and mu unifies the same
    expressions; asserted rather than checked.
    """
    nu: Subst = {}
    for v in over:
        lhs = apply_term(v, eta0)
        rhs = apply_term(v, mu)
        if lhs < 0:
            if lhs in nu:
                assert nu[lhs] == rhs, "factor_through: inconsistent factor"
            elif lhs != rhs:
                nu[lhs] = rhs
        else:
            assert lhs == rhs, "factor_through: eta0 not more general than mu"
    return nu


# ---------------------------------------------------------------------------
# grounding and renaming

def ground_assignments(vars_: list[int], n: int) -> Iterator[Subst]:
    """All groundings of vars_ over constants 0..n-1, lexicographic."""
    if not vars_:
        yield {}
        return
    for combo in itertools.product(range(n), repeat=len(vars_)):
        yield dict(zip(vars_, combo))


def renaming_for(vars_: Iterable[int]) -> Subst:
    return {v: fresh_var() for v in vars_}


# ---------------------------------------------------------------------------
# canonical ordering of literals inside clauses

def term_key(t: int) -> tuple[int, int]:
    return (0, t) if t >= 0 else (1, var_code(t))


def lit_key(l: Lit) -> tuple:
    return (l.pred, l.neg, tuple(term_key(a) for a in l.args))


def canonical_clause(lits: Iterable[Lit]) -> Clause:
    return tuple(sorted(lits, key=lit_key))


def canonical_variant(c: Clause) -> Clause:
    """Rename clause variables to a fresh block, keeping canonical order."""
    ren = renaming_for(clause_vars(canonical_clause(c)))
    return canonical_clause(apply_clause(c, ren))
