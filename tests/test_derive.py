from eprsat.constraints import TOP, conj
from eprsat.derive import find_candidates, is_blocked
from eprsat.syntax import Lit, apply_lit, var_code
from eprsat.trail import Trail, TrailEntry

x, y, z, u = var_code(0), var_code(1), var_code(2), var_code(3)
v = var_code(40)
a, b, c = 0, 1, 2


def L(neg, pred, *args):
    return Lit(neg, pred, tuple(args))


def test_propagation_example_from_three_entry_trail():
    # trail: (P(x,x); TOP), (Q(a,x); TOP), decision (~P(x,y); (x,y) != (v,v))
    tr = Trail(3)
    tr.push(TrailEntry(L(False, "P", x, x), TOP, 0, 0, reason=0))
    tr.push(TrailEntry(L(False, "Q", a, y), TOP, 0, 1, reason=1))
    tr.push(TrailEntry(L(True, "P", x, y), conj([((x, y), (v, v))]), 1, 2))
    # clause: P(y,b) | ~Q(x,y) | R(y)
    cx, cy = var_code(100), var_code(101)
    clause = (L(False, "P", cy, b), L(True, "Q", cx, cy), L(False, "R", cy))
    leaves = find_candidates(clause, tr, keep_limit=1)
    units = [lf for lf in leaves if len(lf.remaining) == 1]
    assert len(units) == 1
    lf = units[0]
    assert lf.remaining == (2,)
    # the propagated closure is (R(y) . {x <- a}; y != b)
    assert lf.sigma.get(cx) == a
    got = apply_lit(clause[2], lf.sigma)
    assert got == L(False, "R", cy)
    assert lf.pi.subs == (((cy,), (b,)),)


def test_keep_leaf_whose_literal_meets_only_an_empty_instance():
    # A(X) | L(X) over {a, b} against ~L(Y) :: Y != b and ~A(Z) :: Z != a:
    # resolving both leaves X != a /\ X != b, which has no instance, so the
    # leaf that resolves A(X) and keeps L(X) is the propagation of L(b)
    tr = Trail(2)
    tr.push(TrailEntry(L(True, "L", y), conj([((y,), (b,))]), 1, 0))
    tr.push(TrailEntry(L(True, "A", z), conj([((z,), (a,))]), 2, 1))
    cx = var_code(100)
    clause = (L(False, "A", cx), L(False, "L", cx))
    leaves = find_candidates(clause, tr, keep_limit=1)
    assert [(lf.remaining, lf.used) for lf in leaves] == [
        ((), ((0, 1), (1, 0))), ((1,), ((0, 1),)), ((0,), ((1, 0),))]
    assert leaves[1].pi.subs == (((cx,), (a,)),)


def test_unit_clause_is_its_own_candidate():
    clause = (L(False, "P", x),)
    leaves = find_candidates(clause, Trail(2), keep_limit=1)
    assert len(leaves) == 1 and leaves[0].remaining == (0,)
    assert leaves[0].pi.is_top and leaves[0].sigma == {}


def test_unrelated_clause_keeps_initial_tuple():
    tr = Trail(2)
    tr.push(TrailEntry(L(False, "Q", x), TOP, 0, 0, reason=0))
    clause = (L(False, "P", y), L(False, "R", y))
    leaves = find_candidates(clause, tr, keep_limit=len(clause))
    assert len(leaves) == 1
    assert leaves[0].remaining == (0, 1)


def test_need_newest_filters_derivations():
    tr = Trail(2)
    tr.push(TrailEntry(L(True, "P", x), TOP, 0, 0, reason=0))
    tr.push(TrailEntry(L(True, "Q", x), TOP, 0, 1, reason=1))
    clause = (L(False, "P", y),)
    # newest entry is the Q one; the P unit derivation never touches it
    leaves = find_candidates(clause, tr, newest_pos=1,
                             keep_limit=0)
    assert leaves == []
    leaves = find_candidates(clause, tr, newest_pos=0,
                             keep_limit=0)
    assert len(leaves) == 1 and leaves[0].used == ((0, 0),)
    # without newest_pos every derivation counts
    leaves = find_candidates(clause, tr, keep_limit=0)
    assert len(leaves) == 1


def test_is_blocked_two_distinct_falsified_instances():
    # D = {a,b,c}, trail (~Q(x,y); TOP)^1, C = ~P(x) | ~P(y) | Q(x,y)
    tr = Trail(3)
    tr.push(TrailEntry(L(True, "Q", x, y), TOP, 1, 0))
    cx, cy = var_code(100), var_code(101)
    clause = (L(True, "P", cx), L(True, "P", cy), L(False, "Q", cx, cy))
    pool = [clause]
    dx = var_code(200)
    wit = is_blocked(tr, len(tr), L(False, "P", dx), TOP, pool, 3)
    assert wit is not None
    ci, inst, l1, l2 = wit
    assert ci == 0
    assert inst == (L(True, "P", a), L(True, "P", b), L(False, "Q", a, b))
    assert {l1, l2} == {L(True, "P", a), L(True, "P", b)}
    # the constrained variant (P(x); x != c) is blocked by the same instance
    wit2 = is_blocked(tr, len(tr), L(False, "P", dx), conj([((dx,), (c,))]), pool, 3)
    assert wit2 is not None and wit2[1] == inst


def test_single_atom_decisions_never_blocked():
    tr = Trail(3)
    tr.push(TrailEntry(L(True, "Q", x, y), TOP, 1, 0))
    cx, cy = var_code(100), var_code(101)
    pool = [(L(True, "P", cx), L(True, "P", cy), L(False, "Q", cx, cy))]
    wit = is_blocked(tr, len(tr), L(False, "P", a), TOP, pool, 3)
    assert wit is None


def test_duplicate_literal_clause_does_not_block():
    # the two falsified literals must be distinct ground literals
    tr = Trail(3)
    tr.push(TrailEntry(L(False, "P", x, x), TOP, 0, 0, reason=0))
    tr.push(TrailEntry(L(False, "Q", x, a), TOP, 0, 1, reason=1))
    cx, cy = var_code(100), var_code(101)
    clause = (L(True, "Q", cx, cy), L(False, "P", cx, cy), L(False, "P", cx, cy))
    dx, dy = var_code(200), var_code(201)
    wit = is_blocked(tr, len(tr), L(True, "P", dx, dy),
                     conj([((dx, dy), (v, v))]), [clause], 3)
    assert wit is None


def test_is_blocked_needs_two_distinct_decision_instances():
    # D = {a,b}, C = ~P(x) | ~P(y) | Q(x,y), decision (P(w); TOP)
    cx, cy = var_code(100), var_code(101)
    pool = [(L(True, "P", cx), L(True, "P", cy), L(False, "Q", cx, cy))]
    dw = var_code(200)
    # under (~Q(z,z); TOP) the only falsifying leaf has x = y: the two
    # decision literals are one instance, so nothing blocks
    tr = Trail(2)
    tr.push(TrailEntry(L(True, "Q", z, z), TOP, 1, 0))
    assert is_blocked(tr, len(tr), L(False, "P", dw), TOP, pool, 2) is None
    # under (~Q(z,u); TOP) the instance with x = a, y = b blocks
    tr = Trail(2)
    tr.push(TrailEntry(L(True, "Q", z, u), TOP, 1, 0))
    wit = is_blocked(tr, len(tr), L(False, "P", dw), TOP, pool, 2)
    assert wit is not None
    assert wit[1] == (L(True, "P", a), L(True, "P", b), L(False, "Q", a, b))
    # over {a,b,c} with (P(a); TOP) on the trail, the leaves resolving one
    # ~P literal against P(a) use the decision (P(w); w != a) once and are
    # passed over; the leaf using it twice blocks
    tr = Trail(3)
    tr.push(TrailEntry(L(False, "P", a), TOP, 0, 0, reason=0))
    tr.push(TrailEntry(L(True, "Q", z, u), TOP, 0, 1, reason=0))
    wit = is_blocked(tr, len(tr), L(False, "P", dw), conj([((dw,), (a,))]),
                     pool, 3)
    assert wit is not None
    assert wit[1] == (L(True, "P", b), L(True, "P", c), L(False, "Q", b, c))
