import random

from hypothesis import given, settings
from hypothesis import strategies as st

from eprsat.constraints import (
    BOT,
    _normalize_sub,
    TOP,
    Constraint,
    conj,
    conjoin,
    find_solution_enum,
    instantiate,
    is_normal,
    normalize,
    rename_constraint,
    rename_rhs_fresh,
    solutions,
    subset,
    violates,
)
from eprsat.syntax import apply_args, match_args, mgu_args, renaming_for, var_code

x, y, z = var_code(0), var_code(1), var_code(2)
v, w, v0, w0, t0 = (var_code(i) for i in range(10, 15))
a, b, c = 0, 1, 2


def C(*subs):
    return conj(subs)


def test_normalize_mixed_tuple_to_pair():
    # (x,a,y,x) != (b,v,w,w)  -->  (x,y) != (b,b)
    pi = C(((x, a, y, x), (b, v, w, w)))
    out = normalize(pi)
    assert out == C(((x, y), (b, b)))


def test_normalize_repeated_variable_to_unary():
    # (x,a,y,x) != (w0,w0,v0,t0)  -->  x != a
    pi = C(((x, a, y, x), (w0, w0, v0, t0)))
    out = normalize(pi)
    assert out == C(((x,), (a,)))


def test_normalize_conjunction_of_mixed_tuples():
    pi = C(((x, a, y, x), (b, v, w, w)), ((x, a, y, x), (w0, w0, v0, t0)))
    out = normalize(pi)
    assert out == C(((x, y), (b, b)), ((x,), (a,)))


def test_normalize_empty_tuple_is_bot():
    assert normalize(C(((), ()))) is BOT or normalize(C(((), ()))).is_bot


def test_normalize_distinct_constants_is_top():
    assert normalize(C(((a,), (b,)))).is_top


def test_normalize_full_match_is_bot():
    # rhs (v,v) matches lhs (x,x): rule for outright-matching rhs
    assert normalize(C(((x, x), (v, v)))).is_bot
    # single rhs variable matches any lhs variable
    assert normalize(C(((x,), (v,)))).is_bot


def test_normalize_duplicate_subconstraints_collapse():
    pi = C(((x,), (a,)), ((x,), (a,)))
    assert normalize(pi) == C(((x,), (a,)))
    # alpha-equal rhs collapses too
    pi2 = C(((x, y), (v, v)), ((x, y), (w, w)))
    assert normalize(pi2) == C(((x, y), (v, v)))


def test_normalize_rule8_single_occurrence_rhs_var():
    # (x,y) != (a,v): v matches y unconditionally, so position 2 drops
    assert normalize(C(((x, y), (a, v)))) == C(((x,), (a,)))


def test_violates_diagonal():
    pi = C(((x, y), (v, v)))
    assert violates({x: a, y: a}, pi)
    assert not violates({x: a, y: b}, pi)


def test_violates_pins_single_solution():
    pi = C(((x, y), (v, v)), ((y,), (a,)))
    assert not violates({x: a, y: b}, pi)
    assert violates({x: a, y: a}, pi)
    assert violates({x: b, y: a}, pi)
    assert violates({x: b, y: b}, pi)


def test_violates_top():
    assert not violates({x: a}, TOP)


def test_solutions_diagonal_plus_unary():
    pi = C(((x, y), (v, v)), ((y,), (a,)))
    assert solutions(pi, [x, y], 2) == [{x: a, y: b}]


def test_solutions_top_bot():
    assert len(solutions(TOP, [x], 2)) == 2
    assert solutions(BOT, [x], 2) == []


def test_find_solution_enum_diagonal_plus_unary():
    pi = C(((x, y), (v, v)), ((y,), (a,)))
    assert find_solution_enum(pi, [x, y], 2) == {x: a, y: b}


def test_find_solution_enum_unsat_over_small_domain():
    pi = C(((z,), (a,)), ((z,), (b,)))
    assert find_solution_enum(pi, [z], 2) is None
    assert find_solution_enum(pi, [z], 3) == {z: c}


def test_find_solution_enum_top_all_least():
    assert find_solution_enum(TOP, [x, y], 2) == {x: a, y: a}


def test_find_solution_enum_minimality():
    # returned solution is the lexicographic minimum of the full solution set
    rng = random.Random(23)
    for _ in range(400):
        pi = _random_constraint(rng, [x, y, z], n=3, max_subs=4)
        pin = normalize(pi)
        sols = solutions(pin, [x, y, z], 3)
        got = find_solution_enum(pin, [x, y, z], 3)
        if not sols:
            assert got is None
        else:
            key = lambda d: (d[x], d[y], d[z])
            assert got == min(sols, key=key)


def _random_constraint(rng, vars_pool, n, max_subs, rhs_base=100):
    subs = []
    for i in range(rng.randrange(1, max_subs + 1)):
        width = rng.randrange(1, 4)
        lhs = tuple(rng.choice(vars_pool + list(range(n))) for _ in range(width))
        rhs_vars = [var_code(rhs_base + 10 * i + k) for k in range(3)]
        rhs = tuple(rng.choice(rhs_vars + list(range(n))) for _ in range(width))
        subs.append((lhs, rhs))
    return conj(subs)


def test_normalize_preserves_solutions_randomized():
    rng = random.Random(41)
    pool = [x, y, z]
    for _ in range(500):
        pi = _random_constraint(rng, pool, n=3, max_subs=4)
        out = normalize(pi)
        assert is_normal(out)
        assert solutions(pi, pool, 3) == solutions(out, pool, 3)
        # idempotence
        assert normalize(out) == out


def test_violates_iff_not_solution():
    rng = random.Random(59)
    pool = [x, y]
    for _ in range(200):
        pi = normalize(_random_constraint(rng, pool, n=2, max_subs=3))
        sols = solutions(pi, pool, 2)
        for dx in range(2):
            for dy in range(2):
                d = {x: dx, y: dy}
                assert violates(d, pi) == (d not in sols)


def test_enum_agrees_with_oracle_on_emptiness():
    rng = random.Random(67)
    pool = [x, y, z]
    for _ in range(400):
        pi = normalize(_random_constraint(rng, pool, n=3, max_subs=4))
        assert (find_solution_enum(pi, pool, 3) is None) == (not solutions(pi, pool, 3))


def test_count_solutions_top():
    assert len(solutions(TOP, [x, y], 3)) == 9


def test_normalize_never_widens_subconstraints():
    # rewriting only deletes positions (or whole subconstraints)
    rng = random.Random(71)
    pool = [x, y, z]
    for _ in range(300):
        pi = _random_constraint(rng, pool, n=3, max_subs=4)
        widest_in = max(len(lhs) for lhs, _ in pi.subs)
        out = normalize(pi)
        if out.kind == "and":
            assert max(len(lhs) for lhs, _ in out.subs) <= widest_in
            assert len(out.subs) <= len(pi.subs)


# ---------------------------------------------------------------------------
# the kernel referee: kept normal form against normalizing from scratch

_LHS = [x, y, z, var_code(3)]


@st.composite
def _raw_constraints(draw):
    """A hand-built (unmarked) conjunction: lhs and rhs mix variables and
    constants, lhs variables repeat, each rhs has variables of its own."""
    subs = []
    for i in range(draw(st.integers(1, 5))):
        width = draw(st.integers(1, 3))
        rhs_pool = [var_code(100 + 10 * i + k) for k in range(2)] + [a, b]
        lhs = draw(st.lists(st.sampled_from(_LHS + [a, b]),
                            min_size=width, max_size=width))
        rhs = draw(st.lists(st.sampled_from(rhs_pool),
                            min_size=width, max_size=width))
        subs.append((tuple(lhs), tuple(rhs)))
    return conj(subs)


_CONSTRAINTS = st.one_of(_raw_constraints(), _raw_constraints().map(normalize))
# substitutions on lhs variables: grounding, var-var (onto another lhs
# variable or a new one) and identity bindings
_SUBSTS = st.dictionaries(st.sampled_from(_LHS),
                          st.sampled_from(_LHS + [var_code(4), a, b]), max_size=4)
_PARTS = st.lists(st.one_of(_CONSTRAINTS, st.sampled_from([TOP, BOT])), max_size=4)


def _applied(c, s):
    """c with `s` applied to every lhs, unnormalized: the reference."""
    if c.kind != "and":
        return c
    return Constraint("and", tuple((apply_args(lhs, s), rhs) for lhs, rhs in c.subs))


def _check_marked(c):
    """A marked constraint is what normalizing its subconstraints gives,
    and normalize returns it as it is."""
    assert c.kind != "and" or c.normal, c
    if c.normal:
        assert c == normalize(Constraint(c.kind, c.subs))
        assert normalize(c) is c


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_CONSTRAINTS, _SUBSTS)
def test_instantiate_is_normalize_after_substitution(c, s):
    got = instantiate(c, s)
    assert got == normalize(_applied(c, s)), (c, s)
    _check_marked(got)
    if c.kind == "and" and c.normal and not set(s) & {t for l, _ in c.subs for t in l}:
        assert got is c


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_PARTS)
def test_conjoin_is_normalize_of_the_joined_parts(parts):
    got = conjoin(*parts)
    if any(p.is_bot for p in parts):
        assert got is BOT
    else:
        assert got == normalize(conj([sub for p in parts for sub in p.subs])), parts
    _check_marked(got)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(_raw_constraints(), st.data())
def test_renamings_and_subsets_keep_the_mark(raw, data):
    c = normalize(raw)
    if c.kind != "and":
        return
    _check_marked(c)
    _check_marked(rename_rhs_fresh(c))
    vs = sorted({t for sub in c.subs for side in sub for t in side if t < 0})
    _check_marked(rename_constraint(c, renaming_for(vs)))
    keep = data.draw(st.lists(st.booleans(), min_size=len(c.subs),
                              max_size=len(c.subs)))
    _check_marked(subset(c, tuple(sub for sub, k in zip(c.subs, keep) if k)))
    # an unmarked operand stays unmarked
    assert not subset(raw, raw.subs[:1]).normal


# ---------------------------------------------------------------------------
# the one-pass subconstraint normal form against the rule-by-rule rewriting


class _Bot(Exception):
    pass


def _rule_by_rule(lhs, rhs):
    """The rewriting rules one at a time, restarting after each rewrite:
    the referee.  None means TOP; BOT raises _Bot."""
    lhs, rhs = tuple(lhs), tuple(rhs)
    changed = True
    while changed:
        changed = False
        # rule 1: identical constants at a position
        # rule 2: distinct constants -> TOP
        # rule 3: lhs constant against rhs variable -> drop, instantiate rhs
        for i, (s, t) in enumerate(zip(lhs, rhs)):
            if s >= 0:
                if t >= 0:
                    if s != t:
                        return None
                    lhs, rhs = lhs[:i] + lhs[i + 1:], rhs[:i] + rhs[i + 1:]
                else:
                    lhs = lhs[:i] + lhs[i + 1:]
                    rhs = apply_args(rhs[:i] + rhs[i + 1:], {t: s})
                changed = True
                break
        if changed:
            continue
        # rule 4: () != ()
        if not lhs:
            raise _Bot
        # rules 5/6: repeated lhs variable
        for i in range(len(lhs)):
            dup = next((j for j in range(i + 1, len(lhs)) if lhs[j] == lhs[i]), None)
            if dup is not None:
                u = mgu_args([(rhs[i], rhs[dup])])
                if u is None:
                    return None  # rule 6
                lhs = lhs[:dup] + lhs[dup + 1:]
                rhs = apply_args(rhs[:dup] + rhs[dup + 1:], u)
                changed = True
                break
        if changed:
            continue
        # rule 7: rhs matches lhs entirely
        if match_args(rhs, lhs) is not None:
            raise _Bot
        # rule 8: drop positions whose rhs variable occurs nowhere else
        droppable = [i for i, t in enumerate(rhs) if t < 0 and rhs.count(t) == 1]
        if droppable and len(droppable) < len(lhs):
            lhs = tuple(t for i, t in enumerate(lhs) if i not in droppable)
            rhs = tuple(t for i, t in enumerate(rhs) if i not in droppable)
            changed = True
        elif droppable:
            raise _Bot
    return lhs, rhs


_TERMS = st.sampled_from(_LHS + [var_code(200 + k) for k in range(4)] + [a, b, c])


@settings(derandomize=True, max_examples=1000, deadline=None, database=None)
@given(st.integers(0, 6).flatmap(
    lambda k: st.tuples(st.lists(_TERMS, min_size=k, max_size=k),
                        st.lists(_TERMS, min_size=k, max_size=k))))
def test_one_pass_normal_form_is_the_rule_by_rule_rewriting(pair):
    # lhs and rhs each mix lhs variables, rhs variables and constants
    lhs, rhs = (tuple(side) for side in pair)
    try:
        want = _rule_by_rule(lhs, rhs)
    except _Bot:
        want = ((), ())
    assert _normalize_sub(lhs, rhs) == want, (lhs, rhs)
