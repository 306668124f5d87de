import random

from eprsat.constrained import cover
from eprsat.constraints import TOP
from eprsat.oracle import ground_problem
from eprsat.syntax import (
    Lit,
    Signature,
    apply_lit,
    apply_term,
    canonical_clause,
    compose,
    lit_vars,
    match_args,
    match_lit,
    mgu_atoms,
    mgu_many,
    renaming_for,
    unifiable_apart,
    var_code,
)

x, y, z, u, w = (var_code(i) for i in range(5))
a, b, c = 0, 1, 2


def P(*args):
    return Lit(False, "P", tuple(args))


def nP(*args):
    return Lit(True, "P", tuple(args))


def Q(*args):
    return Lit(False, "Q", tuple(args))


def test_apply_single_binding():
    assert apply_lit(P(x, y), {x: a}) == P(a, y)


def test_apply_identity():
    assert apply_lit(P(x), {}) == P(x)


def test_apply_full_grounding():
    l = Lit(True, "Q", (x, z))
    assert apply_lit(l, {x: b, z: b}) == Lit(True, "Q", (b, b))


def test_compose_chained_binding():
    assert compose({x: y}, {y: a}) == {x: a, y: a}


def test_compose_left_identity():
    assert compose({}, {x: a}) == {x: a}


def test_compose_earlier_binding_shields():
    assert compose({x: a}, {x: b}) == {x: a}


def test_compose_is_sequential_application():
    rng = random.Random(7)
    for _ in range(200):
        s = {var_code(i): rng.choice([a, b, var_code(rng.randrange(4))])
             for i in rng.sample(range(4), rng.randrange(4))}
        t = {var_code(i): rng.choice([a, b, var_code(rng.randrange(4))])
             for i in rng.sample(range(4), rng.randrange(4))}
        s = {v: w for v, w in s.items() if v != w}
        t = {v: w for v, w in t.items() if v != w}
        lit = P(*[rng.choice([a, var_code(rng.randrange(4))]) for _ in range(3)])
        assert apply_lit(apply_lit(lit, s), t) == apply_lit(lit, compose(s, t))


def test_mgu_forced():
    assert mgu_atoms(P(x, b), P(a, y)) == {x: a, y: b}


def test_mgu_constant_clash():
    assert mgu_atoms(P(x, x), P(a, b)) is None


def test_mgu_resolve_step_clause4():
    # unifying Q(x,u) instantiated with {x<-b,u<-b} against Q(x',b){x'<-b}
    got = mgu_atoms(Q(b, b), Q(x, b))
    assert got == {x: b}


def test_mgu_idempotent():
    rng = random.Random(3)
    for _ in range(300):
        args1 = tuple(rng.choice([a, b, c, x, y, z]) for _ in range(3))
        args2 = tuple(rng.choice([a, b, c, x, y, z, u]) for _ in range(3))
        s = mgu_atoms(P(*args1), P(*args2))
        if s is None:
            continue
        l1 = apply_lit(P(*args1), s)
        assert apply_lit(l1, s) == l1
        assert l1 == apply_lit(P(*args2), s)


def test_mgu_soundness_minimality_bruteforce():
    # ground unifier set of the mgu == set of common ground instances
    # operands kept variable-disjoint, matching the standing assumption
    rng = random.Random(11)
    n = 3
    for _ in range(250):
        args1 = tuple(rng.choice([a, b, x, y, z]) for _ in range(3))
        args2 = tuple(rng.choice([a, c, u, w]) for _ in range(3))
        l1, l2 = P(*args1), P(*args2)
        s = mgu_atoms(l1, l2)
        common = cover(l1, TOP, n) & cover(l2, TOP, n)
        if s is None:
            assert not common
        else:
            assert cover(apply_lit(l1, s), TOP, n) == common


def _unifies_renamed(args1, args2):
    l2 = Lit(False, "p", args2)
    return mgu_atoms(Lit(False, "p", args1),
                     apply_lit(l2, renaming_for(lit_vars(l2)))) is not None


def test_unifiable_apart_examples():
    assert unifiable_apart((), ())
    assert not unifiable_apart((a,), ())
    assert not unifiable_apart((x, x), (a, b))
    assert unifiable_apart((x, x), (y, b))
    assert unifiable_apart((x, y, x), (z, a, b))
    assert not unifiable_apart((x, y, x, y), (z, z, a, b))
    # b's x is not a's x
    assert unifiable_apart((x, a), (b, x))
    assert not unifiable_apart((x, x, y, y), (a, u, u, b))


def test_unifiable_apart_is_the_renamed_mgu_randomized():
    rng = random.Random(5)
    consts = [a, b, c]
    pool = [x, y, z, u, w]

    def terms(k, vs, p_var=0.5):
        return tuple(rng.choice(vs) if rng.random() < p_var else rng.choice(consts)
                     for _ in range(k))

    def arity_zero():
        return (), ()

    def constants_only():
        k = rng.randint(1, 4)
        return terms(k, pool, 0.0), terms(k, pool, 0.0)

    def repeated_variables():
        # few variables on one side, so they repeat: p(X,X) against p(a,b)
        k = rng.randint(2, 4)
        rep = (x,) * k if rng.random() < 0.3 else terms(k, [x, y], 0.8)
        other = terms(k, [z, u, w], 0.4)
        return (rep, other) if rng.random() < 0.5 else (other, rep)

    def shared_codes():
        k = rng.randint(1, 4)
        return terms(k, [x, y, z]), terms(k, [x, y, z])

    def chains():
        # p(X,Y,X) against p(Z,a,b): bindings that link positions far apart
        k = rng.randint(3, 5)
        return terms(k, [x, y], 0.8), terms(k, [z, u], 0.5)

    kinds = [arity_zero, constants_only, repeated_variables, shared_codes, chains]
    outcomes = {kind.__name__: set() for kind in kinds}
    for i in range(1000):
        kind = kinds[i % len(kinds)]
        args1, args2 = kind()
        got = unifiable_apart(args1, args2)
        assert got == _unifies_renamed(args1, args2), (kind.__name__, args1, args2)
        outcomes[kind.__name__].add(got)
    assert outcomes.pop("arity_zero") == {True}
    assert all(seen == {True, False} for seen in outcomes.values()), outcomes


def test_mgu_many_three_way():
    s = mgu_many([P(x, y), P(u, w), P(a, z)])
    assert s is not None
    assert len({apply_lit(l, s) for l in [P(x, y), P(u, w), P(a, z)]}) == 1


def test_match_plain():
    assert match_lit(P(x, y), P(a, b)) == {x: a, y: b}


def test_match_shared_variable():
    assert match_lit(P(x, x), P(a, b)) is None


def test_match_constant_vs_variable():
    assert match_lit(P(a, y), P(x, b)) is None


def test_match_exactness():
    rng = random.Random(5)
    for _ in range(300):
        pat = tuple(rng.choice([a, b, x, y]) for _ in range(3))
        sub = tuple(rng.choice([a, b, c, z, u]) for _ in range(3))
        d = match_args(pat, sub)
        if d is not None:
            assert tuple(apply_term(t, d) for t in pat) == sub


def test_ground_instances_counts():
    assert cover(P(x), TOP, 2) == {P(a), P(b)}
    assert cover(P(a), TOP, 2) == {P(a)}
    assert len(cover(Lit(True, "Q", (x, y)), TOP, 2)) == 4


def test_ground_cardinality_is_power():
    rng = random.Random(1)
    for _ in range(100):
        args = tuple(rng.choice([a, b, x, y, z]) for _ in range(rng.randrange(1, 4)))
        l = P(*args)
        assert len(cover(l, TOP, 3)) == 3 ** len(lit_vars(l))


def test_canonical_clause_order_is_stable():
    cl = (Q(x, u), nP(u, w), nP(x, y))
    srt = canonical_clause(cl)
    assert srt == (nP(x, y), nP(u, w), Q(x, u))


def test_ground_clauses_dedupe():
    cl = (nP(x), nP(y))
    gp = ground_problem(Signature({"P": 1}, ("a", "b")), [cl])
    gs = list(map(gp.decode, gp._keys))
    # (a,b) and (b,a) collapse to one clause after canonical sorting
    assert (nP(a), nP(a)) in gs and (nP(a), nP(b)) in gs
    assert len(gs) == 3
