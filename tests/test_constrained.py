import random

from hypothesis import given, settings
from hypothesis import strategies as st

from eprsat.constrained import (
    CLit,
    _diff_same,
    conjunction,
    cover,
    difference,
    elim_free_vars,
    is_empty,
    rename_clit_fresh,
)
from eprsat.constraints import BOT, TOP, conj, conjoin, instantiate, normalize, subset
from eprsat.syntax import Lit, fresh_var, lit_vars, var_code

x, y, z, u = var_code(0), var_code(1), var_code(2), var_code(3)
x1, x2, x3 = var_code(4), var_code(5), var_code(6)
v, w, v2, v3 = var_code(20), var_code(21), var_code(22), var_code(23)
a, b, c = 0, 1, 2


def P(*args):
    return Lit(False, "P", tuple(args))


def nP(*args):
    return Lit(True, "P", tuple(args))


def L3(*args):
    return Lit(False, "L", tuple(args))


def test_cover_grows_with_the_domain():
    # (P(x,y); (x,y)!=(v,v) /\ x!=a /\ y!=b)
    cl = CLit(P(x, y), normalize(conj([((x, y), (v, v)), ((x,), (a,)),
                                       ((y,), (b,))])))
    assert cover(cl.lit, cl.pi, 2) == {P(b, a)}
    assert cover(cl.lit, cl.pi, 3) == {P(b, a), P(c, a), P(b, c)}


def test_renaming_apart_draws_one_fresh_id_per_variable():
    # X is both a literal variable and an lhs variable of the constraint
    before = fresh_var()
    lit, pi, ren = rename_clit_fresh(P(x, y), normalize(conj([((x,), (a,))])))
    assert before - fresh_var() - 1 == 2
    assert ren[x] > ren[y]   # ids count down: X's is the older
    assert (lit, pi) == (P(ren[x], ren[y]), conj([((ren[x],), (a,))]))


def test_cover_bot_empty():
    assert cover(P(x), BOT, 2) == set()


def test_conjunction_simplifies_to_two_disequations():
    cl1 = CLit(P(x, y), normalize(conj([((x, y), (v, v)), ((x,), (a,)),
                                        ((y,), (b,))])))
    cl2 = CLit(P(z, a), normalize(conj([((z,), (b,))])))
    out = conjunction(cl1, cl2)
    # simplifies to (P(z,a); z != a /\ z != b)
    assert out.lit.pred == "P" and out.lit.args[1] == a
    zv = out.lit.args[0]
    assert zv < 0
    assert out.pi == conj([((zv,), (a,)), ((zv,), (b,))])
    assert is_empty(out.lit, out.pi, 2)
    assert cover(out.lit, out.pi, 3) == {P(c, a)}


def test_conjunction_clash_is_bot():
    out = conjunction(CLit(P(a, x), TOP), CLit(P(b, y), TOP))
    assert out.pi.is_bot


def test_conjunction_variants_idempotent():
    out = conjunction(CLit(P(x, y), TOP), CLit(P(z, u), TOP))
    assert out.pi.is_top
    assert len(lit_vars(out.lit)) == 2


def test_difference_staged_three_pieces():
    # (L(x1,x2,x3); TOP) - (L(x1,x2,x3); /\_i xi != a)
    lhs = CLit(L3(x1, x2, x3), TOP)
    rhs = CLit(L3(x1, x2, x3),
               normalize(conj([((x1,), (a,)), ((x2,), (a,)), ((x3,), (a,))])))
    out = difference(lhs, rhs)
    assert len(out) == 3
    lits = [o.lit for o in out]
    assert lits[0].args[0] == a
    assert lits[1].args[1] == a
    assert lits[2].args[2] == a
    assert out[0].pi.is_top
    assert len(out[1].pi.subs) == 1
    assert len(out[2].pi.subs) == 2
    # cover equality and disjointness over both domains
    for n in (2, 3):
        whole = cover(lhs.lit, lhs.pi, n) - cover(rhs.lit, rhs.pi, n)
        covers = [cover(o.lit, o.pi, n) for o in out]
        got = set().union(*covers)
        assert got == whole
        for i in range(len(covers)):
            for j in range(i + 1, len(covers)):
                assert not (covers[i] & covers[j])


def test_difference_subtract_everything():
    cl = CLit(P(x, y), normalize(conj([((x,), (a,))])))
    assert difference(cl, CLit(P(z, u), TOP)) == []


def test_difference_subtract_bot_returns_original():
    cl = CLit(P(x, y), normalize(conj([((x,), (a,))])))
    out = difference(cl, CLit(P(z, u), BOT))
    assert len(out) == 1
    assert cover(out[0].lit, out[0].pi, 3) == cover(cl.lit, cl.pi, 3)


def test_difference_distinct_literals():
    lhs = CLit(P(x, y), TOP)
    rhs = CLit(P(z, a), TOP)
    out = difference(lhs, rhs)
    for n in (2, 3):
        whole = cover(lhs.lit, lhs.pi, n) - cover(rhs.lit, rhs.pi, n)
        covers = [cover(o.lit, o.pi, n) for o in out]
        assert set().union(*covers) if covers else set() == whole
        got = set().union(*covers) if covers else set()
        assert got == whole


def test_difference_polarity_mismatch_returns_lhs():
    lhs = CLit(P(x, y), TOP)
    out = difference(lhs, CLit(nP(z, u), TOP))
    assert out == [lhs]


def test_is_empty_depends_on_domain_size():
    cl = CLit(P(z, a), normalize(conj([((z,), (a,)), ((z,), (b,))])))
    assert is_empty(cl.lit, cl.pi, 2)
    assert not is_empty(cl.lit, cl.pi, 3)
    assert cover(cl.lit, cl.pi, 3) == {P(c, a)}


def test_is_empty_top():
    assert not is_empty(P(x), TOP, 2)


def test_elim_free_vars_two_instantiations():
    # (P(y,z); (x,y)!=(v,v) /\ (x,z)!=(w,w)) over {a,b}
    pi = conj([((x, y), (v, v)), ((x, z), (w, w))])
    out = elim_free_vars(P(y, z), pi, {}, 2)
    assert len(out) == 2
    got = sorted((o[1] for o in out), key=str)
    expect = sorted(
        [conj([((y,), (a,)), ((z,), (a,))]), conj([((y,), (b,)), ((z,), (b,))])],
        key=str,
    )
    assert got == expect
    # union of covers equals the existential projection
    union = set()
    for l, p, _ in out:
        union |= cover(l, p, 2)
    assert union == cover(P(y, z), pi, 2)
    assert union == {P(a, a), P(b, b)}


def test_elim_free_vars_none_free():
    pi = conj([((y,), (a,))])
    out = elim_free_vars(P(y, z), pi, {}, 2)
    assert len(out) == 1 and out[0][0] == P(y, z) and out[0][1] == pi


def test_elim_free_vars_all_bot():
    # free var x constrained to nothing: x != a and x != b over {a,b}
    pi = conj([((x,), (a,)), ((x,), (b,))])
    out = elim_free_vars(P(y), pi, {}, 2)
    assert out == []


def _random_clit(rng, pred, arity, var_base, n=3, max_subs=4):
    args = tuple(
        rng.choice([var_code(var_base + i) for i in range(arity)] + list(range(n)))
        for _ in range(arity)
    )
    lit = Lit(rng.random() < 0.5, pred, args)
    vs = lit_vars(lit)
    subs = []
    for i in range(rng.randrange(0, max_subs + 1)):
        if not vs:
            break
        width = rng.randrange(1, min(3, len(vs)) + 1)
        lhs = tuple(rng.sample(vs, width))
        rhs_vars = [var_code(1000 + var_base + 10 * i + k) for k in range(2)]
        rhs = tuple(rng.choice(rhs_vars + list(range(n))) for _ in range(width))
        subs.append((lhs, rhs))
    return CLit(lit, normalize(conj(subs)))


def test_operation_oracle_equivalence_randomized():
    rng = random.Random(101)
    n = 3
    for round_ in range(300):
        c1 = _random_clit(rng, "P", rng.randrange(1, 4), 0, n)
        c2 = _random_clit(rng, "P", len(c1.lit.args), 50, n)
        if c1.pi.is_bot or c2.pi.is_bot:
            continue
        g1, g2 = cover(c1.lit, c1.pi, n), cover(c2.lit, c2.pi, n)
        if c1.lit.neg == c2.lit.neg:
            cj = conjunction(c1, c2)
            assert cover(cj.lit, cj.pi, n) == g1 & g2
        pieces = difference(c1, c2)
        covers = [cover(p.lit, p.pi, n) for p in pieces]
        got = set().union(*covers) if covers else set()
        assert got == g1 - g2
        for i in range(len(covers)):
            for j in range(i + 1, len(covers)):
                assert not (covers[i] & covers[j])
        assert is_empty(c1.lit, c1.pi, n) == (not g1)


def test_difference_size_bound_same_literal():
    rng = random.Random(31)
    for _ in range(200):
        c1 = _random_clit(rng, "P", 3, 0)
        c2 = _random_clit(rng, "P", 3, 0)
        if c2.pi.kind != "and" or c1.lit.neg != c2.lit.neg:
            continue
        out = difference(c1, c2)
        # same-literal staged construction plus at most one guard piece
        assert len(out) <= len(c2.pi.subs) + 1


# ---------------------------------------------------------------------------
# the public entries on a constraint built with `conj`, not in normal form

def test_is_empty_of_a_ground_false_subconstraint():
    # a != a has no solution: the cover is empty
    assert cover(P(a), conj([((a,), (a,))]), 3) == set()
    assert is_empty(P(a), conj([((a,), (a,))]), 3)


def test_is_empty_with_no_lhs_variable():
    # a != b is TOP and c != V is BOT (V matches c): the cover is empty
    pi = conj([((a,), (b,)), ((c,), (v,))])
    assert cover(P(y, x), pi, 3) == set()
    assert is_empty(P(y, x), pi, 3)


def test_difference_with_a_constant_lhs():
    # b != c is TOP, so P(a,a) :: b != c covers P(a,a) and nothing is left
    assert difference(CLit(P(a, a), TOP), CLit(P(a, a), conj([((b,), (c,))]))) == []


def _raw_clit(rng, arity, base, n):
    """A positive P literal over variables base.. and constants, under up to
    three subconstraints whose lhs mixes its variables and constants, built
    with `conj` and left as built."""
    vs = [var_code(base + i) for i in range(arity)]
    args = tuple(rng.choice(vs + list(range(n))) for _ in range(arity))
    lv = lit_vars(P(*args))
    subs = []
    for i in range(rng.randrange(0, 4)):
        width = rng.randrange(1, 4)
        rv = [var_code(base + 100 + 10 * i + k) for k in range(2)]
        subs.append((tuple(rng.choice(lv + list(range(n))) for _ in range(width)),
                     tuple(rng.choice(rv + list(range(n))) for _ in range(width))))
    return CLit(P(*args), conj(subs))


def _pieces_cover(pieces, n):
    return set().union(*(cover(p.lit, p.pi, n) for p in pieces))


def test_public_entries_on_raw_constraints_match_the_cover():
    """`is_empty`, `difference` and `conjunction` against `cover` on 20,000
    random pairs of constraints not in normal form; a raise counts as a
    mismatch."""
    rng = random.Random(2021)
    n = 3
    bad = dict(is_empty=[], difference=[], conjunction=[])
    for _ in range(20_000):
        arity = rng.randrange(1, 4)
        c1, c2 = _raw_clit(rng, arity, 0, n), _raw_clit(rng, arity, 50, n)
        g1, g2 = cover(c1.lit, c1.pi, n), cover(c2.lit, c2.pi, n)
        checks = dict(
            is_empty=lambda: is_empty(c1.lit, c1.pi, n) == (not g1),
            difference=lambda: _pieces_cover(difference(c1, c2), n) == g1 - g2,
            conjunction=lambda: _pieces_cover([conjunction(c1, c2)], n) == g1 & g2)
        for name, holds in checks.items():
            try:
                ok = holds()
            except Exception:
                ok = False
            if not ok:
                bad[name].append((c1, c2))
    assert {k: len(v) for k, v in bad.items()} == dict.fromkeys(bad, 0), \
        {k: v[:2] for k, v in bad.items()}


# ---------------------------------------------------------------------------
# the same-literal difference against its eager formula

def _eager_diff_same(pi1, pi2):
    """Piece i of pi1 minus pi2, every part instantiated before BOT is
    asked: (tau_i; pi1 and pi2's subconstraints before i, under tau_i)."""
    if pi2.is_top:
        return []
    if pi2.is_bot:
        return [({}, pi1)] if not pi1.is_bot else []
    out = []
    for i, (lhs_i, rhs_i) in enumerate(pi2.subs):
        tau = dict(zip(lhs_i, rhs_i))
        pi = conjoin(instantiate(pi1, tau),
                     *(instantiate(subset(pi2, (sub,)), tau) for sub in pi2.subs[:i]))
        if not pi.is_bot:
            out.append((tau, pi))
    return out


@st.composite
def _normal_constraints(draw, rhs_base):
    """A normalized conjunction over the lhs variables x, y, z, u; each
    subconstraint's rhs mixes constants with variables of its own, all
    numbered from `rhs_base`."""
    subs = []
    for i in range(draw(st.integers(1, 4))):
        width = draw(st.integers(1, 3))
        lhs = draw(st.lists(st.sampled_from([x, y, z, u]), min_size=width,
                            max_size=width, unique=True))
        rvs = [var_code(rhs_base + 10 * i + k) for k in range(2)]
        rhs = draw(st.lists(st.sampled_from(rvs + [a, b]), min_size=width,
                            max_size=width))
        subs.append((tuple(lhs), tuple(rhs)))
    return normalize(conj(subs))


_DIFF_OPERANDS = st.tuples(
    st.one_of(_normal_constraints(100), st.sampled_from([TOP, BOT])),
    st.one_of(_normal_constraints(200), st.sampled_from([TOP, BOT])))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_DIFF_OPERANDS)
def test_diff_same_matches_the_eager_formula(operands):
    pi1, pi2 = operands
    assert _diff_same(pi1, pi2) == _eager_diff_same(pi1, pi2), (pi1, pi2)

