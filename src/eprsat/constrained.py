"""Constrained literals and the lifted steps every rule is made of.

A constrained literal pairs a literal with a normalized dismatching
constraint whose lhs variables all occur in the literal.  It denotes the set
of ground literals whose grounding solves the constraint.  Every rule that
resolves a literal against a trail literal makes one of two steps, each
implemented here once: `meet` renames the other literal apart, unifies and
conjoins both constraints under the unifier (the cover intersection), and
`diff_apart` subtracts its cover as a set of disjoint pieces.  Neither
renames a literal that cannot unify, and `meet` renames no ground literal
under TOP: it matches the other literal onto it.  Both put a constraint
under a substitution only with `constraints.instantiate` and conjoin
constraints only with `constraints.conjoin`; both keep normal form, and on
normal operands renormalize only the subconstraints the substitution binds.
Every step here relies on normal operands; the public `is_empty` and
`difference`, which take a caller's constraint, normalize it first.
Emptiness (`no_instances`) is asked of the constraint alone: (C*sigma; pi)
has an instance exactly when pi has a solution over its own lhs variables,
so no instance is built to ask it.  `least_instance` finds the least
grounding of a clause's variables for `is_blocked`'s witness, and
`cover_size` counts the cover; neither grounds.  The enumerating `cover`
stays as the referee for the oracle, the audits and the tests.
Closures arising during solving may carry extra "free" lhs variables; those
are existential and get eliminated by instantiation before a literal is
ever placed on the trail.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .constraints import (
    BOT,
    Constraint,
    conj,
    conjoin,
    find_solution_enum,
    instantiate,
    lvars,
    normalize,
    rename_constraint,
    rvars,
    subset,
    violates,
)
from .syntax import (
    Clause,
    Lit,
    Subst,
    apply_args,
    apply_lit,
    args_vars,
    clause_vars,
    compose,
    ground_assignments,
    lit_vars,
    match_args,
    mgu_args,
    mgu_atoms,
    renaming_for,
    unifiable_apart,
    var_code,
)


@dataclass(frozen=True)
class CLit:
    """Literal plus normalized constraint; lhs variables live in the literal."""

    lit: Lit
    pi: Constraint

    def __post_init__(self) -> None:
        if __debug__:
            lv = set(lvars(self.pi))
            assert lv <= set(lit_vars(self.lit)), "free lhs variable in CLit"
            assert not (set(rvars(self.pi)) & set(lit_vars(self.lit)))


def rename_clit_fresh(lit: Lit, pi: Constraint) -> tuple[Lit, Constraint, Subst]:
    """Whole-expression variant with fresh variables; returns the renaming."""
    ren = renaming_for(lit_vars(lit) + rvars(pi))  # lhs variables are the literal's
    return apply_lit(lit, ren), rename_constraint(pi, ren), ren


def free_lvars(lit: Lit, pi: Constraint) -> list[int]:
    return [v for v in lvars(pi) if v not in lit.args]


# ---------------------------------------------------------------------------
# semantics

def cover(lit: Lit, pi: Constraint, n: int) -> set[Lit]:
    """Gnd: ground instances of `lit` whose grounding solves `pi`.

    Extra lhs variables of `pi` are treated existentially.
    """
    out: set[Lit] = set()
    for d in ground_assignments(args_vars(lit_vars(lit) + lvars(pi)), n):
        if not violates(d, pi):
            out.add(apply_lit(lit, d))
    return out


def cover_size(lit: Lit, pi: Constraint, n: int) -> int:
    """|Gnd(lit; pi)|, counted by inclusion-exclusion instead of enumeration.

    The groundings violating every subconstraint of a set S are the instances
    of the unifier theta of their lhs -> rhs matchers: n^k of them, k the
    number of variables in theta(vars(lit)).  A set whose matchers do not
    unify contributes nothing and neither does any superset, so the search
    prunes it.  Subconstraints on disjoint variables are counted apart and
    multiplied, so independent ones cost a sum of unifications, not a
    product.  Free lhs variables are rejected; `elim_free_vars` removes them
    first.
    """
    if pi.is_bot:
        return 0
    vs = lit_vars(lit)
    if free_lvars(lit, pi):
        raise ValueError("cover_size: free lhs variable")
    if pi.is_top:
        return n ** len(vs)
    # rename every rhs apart (rhs variables are per-subconstraint patterns)
    # with codes below every variable in sight
    code = min(vs + rvars(pi) + [0])
    groups: list[tuple[set[int], list[list[tuple[int, int]]]]] = []
    for lhs, rhs in pi.subs:
        ren = {v: code - 1 - i for i, v in enumerate(args_vars(rhs))}
        code -= len(ren)
        scope = set(args_vars(lhs))
        matchers = [list(zip(lhs, apply_args(rhs, ren)))]
        for g in [g for g in groups if g[0] & scope]:
            groups.remove(g)
            scope |= g[0]
            matchers += g[1]
        groups.append((scope, matchers))
    total = n ** (len(vs) - sum(len(scope) for scope, _ in groups))
    for scope, matchers in groups:
        total *= _count_solutions(tuple(scope), matchers, n)
    return total


def _count_solutions(vs: tuple[int, ...], matchers: list[list[tuple[int, int]]],
                     n: int) -> int:
    total = 0

    def rec(start: int, theta: Subst, sign: int) -> None:
        nonlocal total
        total += sign * n ** len(args_vars(apply_args(vs, theta)))
        for i in range(start, len(matchers)):
            grown = mgu_args(matchers[i], theta)
            if grown is not None:
                rec(i + 1, grown, -sign)

    rec(0, {}, 1)
    return total


def least_instance(clause: Clause, pi: Constraint, n: int) -> Optional[Subst]:
    """Least grounding (enumeration order) of the variables of `clause`,
    then of pi's other lhs variables, that solves pi; None when
    (clause; pi) has no instance."""
    return find_solution_enum(pi, args_vars(clause_vars(clause) + lvars(pi)), n)


def no_instances(pi: Constraint, n: int) -> bool:
    """Does no grounding of pi's lhs variables solve pi?  Then no
    expression constrained by pi has an instance."""
    return find_solution_enum(pi, lvars(pi), n) is None


def is_empty(lit: Lit, pi: Constraint, n: int) -> bool:
    """True iff the cover is empty: a question about pi alone, asked of its
    normal form."""
    return no_instances(normalize(pi), n)


# ---------------------------------------------------------------------------
# conjunction

def meet(lit: Lit, pi: Constraint, src: Lit, src_pi: Constraint,
         ) -> Optional[tuple[Subst, Constraint]]:
    """(theta, pi and src_pi under theta), theta the mgu of the atom of `lit`
    with that of a variant of `src` (same predicate) renamed apart; None when
    the atoms do not unify (then nothing is renamed) or the conjunction is
    BOT.

    A ground `src` with constraint TOP has nothing to rename or conjoin: the
    mgu is the one-way match of `lit` onto it, the same bindings in the same
    key order as `mgu_atoms` gives."""
    if src_pi.is_top and min(src.args, default=0) >= 0:
        theta = match_args(lit.args, src.args)
        if theta is None:
            return None
        met = instantiate(pi, theta)
    else:
        if not unifiable_apart(lit.args, src.args):
            return None
        r_lit, r_pi, _ = rename_clit_fresh(src, src_pi)
        theta = mgu_atoms(lit.atom, r_lit.atom)
        met = conjoin(instantiate(pi, theta), instantiate(r_pi, theta))
    return None if met.is_bot else (theta, met)


def conjunction(a: CLit, b: CLit) -> CLit:
    """Cover intersection; an empty one is (a.lit; BOT)."""
    same = a.lit.neg == b.lit.neg and a.lit.pred == b.lit.pred
    got = meet(a.lit, a.pi, b.lit, b.pi) if same else None
    if got is None:
        return CLit(a.lit, BOT)
    return CLit(apply_lit(a.lit, got[0]), got[1])


def overlaps(lit: Lit, pi: Constraint, other: Lit, other_pi: Constraint,
             n: int) -> bool:
    """Do the atom covers of (lit; pi) and (other; other_pi) share a ground
    atom?  Polarity plays no part."""
    got = meet(lit, pi, other, other_pi) if lit.pred == other.pred else None
    return got is not None and not no_instances(got[1], n)


# ---------------------------------------------------------------------------
# difference

def diff_pairs(lit1: Lit, pi1: Constraint, lit2: Lit, pi2: Constraint,
               ) -> list[tuple[Subst, Constraint]]:
    """Difference of atom covers as disjoint pieces (tau, pi).

    Each piece denotes (lit1*tau; pi); together they cover
    Gnd(lit1; pi1) minus Gnd(lit2; pi2).  Operand 2 must already be
    variable-disjoint from operand 1 (callers rename).  Polarity is the
    caller's business: only the atoms matter here.
    """
    sigma = mgu_atoms(lit1.atom, lit2.atom)
    if sigma is None:
        return [({}, pi1)]
    if lit1.atom == lit2.atom:
        return _diff_same(pi1, pi2)
    # distinct unifiable literals: keep the non-instances, recurse on common
    out: list[tuple[Subst, Constraint]] = []
    img = apply_args(lit1.args, sigma)
    guard = (lit1.args, apply_args(img, renaming_for(args_vars(img))))
    keep = conjoin(pi1, conj([guard]))
    if not keep.is_bot:
        out.append(({}, keep))
    common_pi1 = instantiate(pi1, sigma)
    common_pi2 = instantiate(pi2, sigma)
    if not common_pi1.is_bot:
        for tau, pi in _diff_same(common_pi1, common_pi2):
            out.append((compose(sigma, tau), pi))
    return out


def _diff_same(pi1: Constraint, pi2: Constraint) -> list[tuple[Subst, Constraint]]:
    """Same-literal difference via the induced substitutions of pi2: piece
    i is (tau_i; pi1 and pi2's subconstraints before i, under tau_i),
    tau_i = lhs_i -> rhs_i, unless BOT.  Normal form keeps the rhs variables
    apart, so tau_i binds none.  A piece whose pi1 part is BOT is dropped
    before the rest is instantiated (`instantiate` makes no fresh variable)."""
    if pi2.is_top:
        return []
    if pi2.is_bot:
        return [({}, pi1)] if not pi1.is_bot else []
    out: list[tuple[Subst, Constraint]] = []
    etas = pi2.subs
    for i, (lhs_i, rhs_i) in enumerate(etas):
        tau = dict(zip(lhs_i, rhs_i))
        head = instantiate(pi1, tau)
        if head.is_bot:
            continue
        pi = conjoin(head, *(instantiate(subset(pi2, (sub,)), tau)
                             for sub in etas[:i]))
        if not pi.is_bot:
            out.append((tau, pi))
    return out


def diff_apart(lit: Lit, pieces: Iterable[tuple[Subst, Constraint]],
               sources: Iterable[tuple[Lit, Constraint]],
               ) -> list[tuple[Subst, Constraint]]:
    """The disjoint pieces (sigma; pi) of `lit` minus the atoms of every
    source (src; src_pi), each renamed apart, as disjoint non-BOT pieces
    (sigma', pi') of `lit`.  A source whose atom does not unify with a piece
    is not renamed and leaves the piece as it is, its sigma the same object.
    The sources are folded in one at a time, left to right, so subtracting
    a list in two parts, the first part's pieces passed on as the starting
    pieces of the second, gives the same pieces in the same order.  Every
    piece is an instance of a starting piece, so a source whose atom unifies
    with no starting piece changes nothing: the sources may be any superset,
    kept in order, of those that unify with one."""
    # each piece carries its instance lit*sigma, made once per piece
    work = [(s, p, apply_lit(lit, s)) for s, p in pieces if not p.is_bot]
    for src, src_pi in sources:
        new_work: list[tuple[Subst, Constraint, Lit]] = []
        for piece in work:
            s, p, cur = piece
            if not unifiable_apart(cur.args, src.args):
                new_work.append(piece)
                continue
            r_lit, r_pi, _ = rename_clit_fresh(src, src_pi)
            new_work += [(compose(s, tau), p2, apply_lit(cur, tau))
                         for tau, p2 in diff_pairs(cur, p, r_lit, r_pi)
                         if not p2.is_bot]
        work = new_work
        if not work:
            break
    return [(s, p) for s, p, _ in work]


def difference(a: CLit, b: CLit) -> list[CLit]:
    """Cover difference of two constrained literals, as disjoint pieces; the
    constraints are normalized first (a marked one is kept as it is)."""
    if a.lit.neg != b.lit.neg:
        return [a]
    return [CLit(apply_lit(a.lit, tau), pi)
            for tau, pi in diff_apart(a.lit, [({}, normalize(a.pi))],
                                      [(b.lit, normalize(b.pi))])]


# ---------------------------------------------------------------------------
# free-variable elimination

def elim_free_vars(lit: Lit, pi: Constraint, sigma: Subst, n: int,
                   ) -> list[tuple[Lit, Constraint, Subst]]:
    """Instantiate free lhs variables over the domain.

    Returns pieces (lit, pi, sigma') with no free lhs variables and non-BOT
    constraints; the producing substitution is extended alongside.  Pieces
    need not be disjoint.
    """
    pi = normalize(pi)
    if pi.is_bot:
        return []
    work = [(lit, pi, sigma)]
    done: list[tuple[Lit, Constraint, Subst]] = []
    while work:
        l, p, s = work.pop(0)
        free = free_lvars(l, p)
        if not free:
            done.append((l, p, s))
            continue
        x = min(free, key=var_code)  # lowest variable id first
        for d in range(n):
            p2 = instantiate(p, {x: d})
            if not p2.is_bot:
                work.append((apply_lit(l, {x: d}), p2, compose(s, {x: d})))
    return done
