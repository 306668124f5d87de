import dataclasses
import itertools
import random

import pytest

from eprsat import trail as trail_mod
from eprsat.constrained import cover
from eprsat.constraints import TOP, conj, violates
from eprsat.trail import (
    FALSE,
    TRUE,
    UNDEF,
    InducedOrdering,
    Trail,
    TrailEntry,
    _defining,
    ground_walk,
    is_assertive,
)
from eprsat.syntax import Lit, match_args, var_code

x, y, z, u, w, t = (var_code(i) for i in range(6))
v = var_code(30)
a, b, c = 0, 1, 2


def P3(*args):
    return Lit(False, "P", tuple(args))


def nP3(*args):
    return Lit(True, "P", tuple(args))


def Q(*args):
    return Lit(False, "Q", tuple(args))


def nQ(*args):
    return Lit(True, "Q", tuple(args))


def _trail_ex33() -> Trail:
    # (~P(c,x,x); TOP) as a unit propagation, then the decision (P(x,y,z); x != c)
    tr = Trail(3)
    tr.push(TrailEntry(nP3(c, x, x), TOP, level=0, pos=0, reason=0, reason_lit=0))
    tr.push(TrailEntry(P3(x, y, z), conj([((x,), (c,))]), level=1, pos=1))
    return tr


def test_value_of_worked_trail():
    tr = _trail_ex33()
    assert tr.value_of(P3(a, b, c), None) == TRUE
    assert tr.value_of(P3(c, a, a), None) == FALSE
    assert tr.value_of(P3(c, a, b), None) == UNDEF


def test_level_of_worked_trail():
    tr = _trail_ex33()
    assert tr.defining_entry(P3(a, b, c)).level == 1
    assert tr.defining_entry(P3(c, a, a)).level == 0


def test_level_of_propagation_after_decision():
    tr = _trail_ex33()
    tr.push(TrailEntry(nQ(a, x), conj([((x,), (c,))]), level=1, pos=2,
                       reason=2, reason_lit=1))
    assert tr.defining_entry(Q(a, a)).level == 1
    assert tr.level == 1


def _index_by_scan(entries):
    """The argument index of `entries` by its definition: each (predicate,
    sign), (predicate, sign, j) for a variable at j and (predicate, sign,
    j, c) for the constant c at j, with its entries in trail order."""
    want = {}
    for e in entries:
        pred, neg = e.lit.pred, e.lit.neg
        want.setdefault((pred, neg), []).append(e)
        for j, t in enumerate(e.lit.args):
            want.setdefault((pred, neg, j) if t < 0 else (pred, neg, j, t),
                            []).append(e)
    return want


def test_buckets_follow_push_pop_and_truncate():
    """The per-predicate buckets and every argument index list equal their
    scans of the entries after each push, pop and truncate, over random
    arity-1 to arity-3 literals of both signs with constants and variables."""
    rng = random.Random(7)
    keys = 0
    for _ in range(50):
        tr = Trail(2)
        for _ in range(40):
            op = rng.random()
            if op < 0.6 or not tr.entries:
                pred = rng.choice("PQR")
                args = tuple(rng.choice([a, b, x, y])
                             for _ in range("PQR".index(pred) + 1))
                lit = Lit(rng.random() < 0.5, pred, args)
                tr.push(TrailEntry(lit, TOP, 0, len(tr), reason=0))
            elif op < 0.85:
                tr.pop()
            else:
                tr.truncate(rng.randrange(len(tr) + 1))
            for pred in "PQR":
                assert tr.for_pred(pred) == [e for e in tr.entries
                                             if e.lit.pred == pred]
            want = _index_by_scan(tr.entries)
            got = {key: entries for key, entries in tr._index.items() if entries}
            assert got == want
            keys += len(want)
    assert keys > 10_000, keys


def _may_unify(lit, entry):
    """No argument of `entry` holds a constant other than `lit`'s there."""
    return all(s < 0 or t < 0 or s == t
               for s, t in zip(lit.args, entry.lit.args))


def test_offered_lists_keep_every_entry_that_may_unify():
    """`offered` and `unifiable` return, in trail order, entries of the
    asked predicate (and sign) in the asked position range, including every
    one that agrees with the arguments at each constant.  When no constant
    leaves an entry out, the answer is the list of an argument tuple with no
    constant, not a copy; many answers merge a constant's list with the
    variable list of its position."""
    rng = random.Random(33)
    seen = dict(narrowed=0, whole=0, merged=0)
    for _ in range(60):
        tr = Trail(3)
        for i in range(rng.randrange(1, 14)):
            args = tuple(rng.choice([a, b, c, x, y]) for _ in range(2))
            tr.push(TrailEntry(Lit(rng.random() < 0.5, "P", args), TOP, 0, i,
                               reason=0))
        for _ in range(20):
            arg_tuples = [tuple(rng.choice([a, b, c, z]) for _ in range(2))
                     for _ in range(rng.randrange(3))]
            end = rng.randrange(len(tr) + 1)
            start = rng.randrange(end + 1)
            for args in arg_tuples:
                for neg in (False, True):
                    got = tr.offered("P", neg, args, end)
                    bucket = [e for e in tr.entries[:end] if e.lit.neg == neg]
                    assert [e for e in bucket if e in got] == got
                    assert all(e in got for e in bucket
                               if _may_unify(Lit(neg, "P", args), e))
                    if len(got) == len(bucket) and end == len(tr):
                        # nothing left out: the unnarrowed list, not a copy
                        assert got is tr.offered("P", neg, (z, z), end)
                    seen["merged"] += any(
                        e.lit.args[j] < 0 for e in got for j in range(2)) and (
                        0 < len(got) < len(bucket))
            got = tr.unifiable("P", arg_tuples, start, end)
            span = tr.entries[start:end]
            assert [e for e in span if e in got] == got
            want = [e for e in span
                    if any(_may_unify(Lit(False, "P", args), e) for args in arg_tuples)]
            assert all(e in got for e in want)
            if len(arg_tuples) == 1 and got == span and end == len(tr) and not start:
                assert got is tr.unifiable("P", [(z, z)], 0, end)
            seen["narrowed"] += len(got) < len(span)
            seen["whole"] += bool(arg_tuples) and got == span
    assert min(seen.values()) > 50, seen


def test_ground_walk_conflict_example():
    # clause 2 of the worked derivation is false under the extended trail
    tr = _trail_ex33()
    tr.push(TrailEntry(nQ(a, x), conj([((x,), (c,))]), level=1, pos=2,
                       reason=2, reason_lit=1))
    clause2 = (nP3(x, y, z), nP3(u, w, t), Q(x, u))
    sigma = {x: a}
    pi = conj([((u,), (c,))])
    walk = list(ground_walk(tr, clause2, sigma, pi))
    assert walk and all(false for _, _, false in walk)
    for g, defs, _ in walk:
        assert [tr.value_of(l, None) for l in g] == [FALSE] * len(g)
        assert defs == [tr.defining_entry(l.atom) for l in g]
    # under the first two entries the Q literal is undefined
    assert not any(false for _, _, false in
                   ground_walk(tr, clause2, sigma, pi, upto=2))


def test_ground_walk_undefined_literal_is_not_false():
    tr = _trail_ex33()
    clause = (Q(x, y),)
    walk = list(ground_walk(tr, clause, {}, TOP))
    assert len(walk) == 9
    assert all(defs == [None] and not false for _, defs, false in walk)


def test_ground_walk_grounds_as_it_yields(monkeypatch):
    """The first instance of a 5-variable clause over 6 constants draws one
    assignment, not all 6^5 = 7,776, so a caller that stops early (as
    `is_assertive`'s `any` does) grounds no further."""
    drawn = []
    real = trail_mod.ground_assignments

    def counted(vars_, n):
        for d in real(vars_, n):
            drawn.append(d)
            yield d

    monkeypatch.setattr(trail_mod, "ground_assignments", counted)
    clause = (nP3(x, y, z), Q(u, w))
    next(ground_walk(Trail(6), clause, {}, TOP))
    assert len(drawn) == 1


def test_is_assertive_unit_learned_clause():
    tr = _trail_ex33()
    tr.push(TrailEntry(nQ(a, x), conj([((x,), (c,))]), level=1, pos=2,
                       reason=2, reason_lit=1))
    learned = (nP3(a, y, z),)
    assert is_assertive(tr, learned, {}, TOP)


def test_not_assertive_with_two_top_level_literals():
    tr = _trail_ex33()
    tr.push(TrailEntry(nQ(a, x), conj([((x,), (c,))]), level=1, pos=2,
                       reason=2, reason_lit=1))
    clause2 = (nP3(x, y, z), nP3(u, w, t), Q(x, u))
    assert not is_assertive(tr, clause2, {x: a}, conj([((u,), (c,))]))


def _induced_interpretation(tr):
    """The true ground atoms: the covers of the positive entries."""
    return set().union(*(cover(e.lit, e.pi, tr.n)
                         for e in tr.entries if not e.lit.neg))


def test_induced_interpretation_direct_cover():
    tr = Trail(3)
    tr.push(TrailEntry(P3(x), conj([((x,), (c,))]), level=0, pos=0, reason=0))
    # arity-1 P here
    assert _induced_interpretation(tr) == {P3(a), P3(b)}


def test_induced_interpretation_empty_trail():
    assert _induced_interpretation(Trail(3)) == set()


def test_induced_interpretation_final_worked_trail():
    tr = Trail(3)
    tr.push(TrailEntry(nP3(c, x, x), TOP, 0, 0, reason=0))
    tr.push(TrailEntry(nP3(a, y, z), TOP, 0, 1, reason=4))
    tr.push(TrailEntry(nP3(b, y, z), TOP, 0, 2, reason=5))
    tr.push(TrailEntry(nP3(c, y, z), conj([((y, z), (v, v))]), 1, 3))
    tr.push(TrailEntry(Q(x, y), TOP, 2, 4))
    interp = _induced_interpretation(tr)
    assert interp == {Q(d1, d2) for d1 in range(3) for d2 in range(3)}


# ---------------------------------------------------------------------------
# induced ordering

def _brute_cmp(entries, n, c1, c2):
    """Straight-from-definition comparator used as the independent oracle."""

    def def_of(atom):
        for i, (lit, pi) in enumerate(entries):
            if lit.pred != atom.pred:
                continue
            d = match_args(lit.args, atom.args)
            if d is not None and not violates(d, pi):
                return i
        return None

    def atom_less(p, q):
        dp, dq = def_of(p), def_of(q)
        if dp != dq:
            if dp is None:
                return False
            if dq is None:
                return True
            return dp < dq
        return (p.pred, p.args) < (q.pred, q.args)

    def lit_less(p, q):
        if p.atom != q.atom:
            return atom_less(p.atom, q.atom)
        if def_of(p.atom) != def_of(q.atom):  # pragma: no cover - same atom
            raise AssertionError
        return (not p.neg) and q.neg

    def lit_eq(p, q):
        return p == q

    def mul_less(m1, m2):
        # definition: remove common elements; m1 < m2 iff every leftover of m1
        # is dominated by some leftover of m2, and leftovers differ
        m1, m2 = list(m1), list(m2)
        for e in list(m1):
            if e in m2:
                m1.remove(e)
                m2.remove(e)
        if not m1 and not m2:
            return False
        if not m2:
            return False
        if not m1:
            return True
        return all(any(lit_less(p, q) for q in m2) for p in m1)

    def abstract(cl):
        out = []
        for l in cl:
            out.append((def_of(l.atom), l.neg))
        return out

    def abs_key(pair):
        d, neg = pair
        return (1 << 60 if d is None else d, neg)

    def abs_mul_less(a1, a2):
        a1 = sorted((abs_key(p) for p in a1), reverse=True)
        a2 = sorted((abs_key(p) for p in a2), reverse=True)
        if a1 == a2:
            return None  # equal abstractions
        i = 0
        while i < len(a1) and i < len(a2):
            if a1[i] != a2[i]:
                return a1[i] < a2[i]
            i += 1
        return len(a1) < len(a2)

    r = abs_mul_less(abstract(c1), abstract(c2))
    if r is True:
        return -1
    if r is False:
        return 1
    if sorted(c1) == sorted(c2):
        return 0
    return -1 if mul_less(c1, c2) else 1


def _random_ground_clause(rng, n, max_len=3):
    lits = []
    for _ in range(rng.randrange(0, max_len + 1)):
        pred, ar = rng.choice([("P", 1), ("Q", 2)])
        args = tuple(rng.randrange(n) for _ in range(ar))
        lits.append(Lit(rng.random() < 0.5, pred, args))
    return tuple(lits)


def test_cmp_matches_bruteforce_reimplementation():
    rng = random.Random(77)
    n = 2
    entries = [
        (Lit(False, "P", (x,)), conj([((x,), (a,))])),
        (Lit(True, "Q", (x, y)), conj([((x, y), (v, v))])),
    ]
    tr = Trail(n)
    for i, (lit, pi) in enumerate(entries):
        tr.push(TrailEntry(lit, pi, 0, i, reason=0))
    ordering = InducedOrdering.from_trail(tr)
    for _ in range(400):
        c1 = _random_ground_clause(rng, n)
        c2 = _random_ground_clause(rng, n)
        assert ordering.cmp_clauses(c1, c2) == _brute_cmp(entries, n, c1, c2)


def test_cmp_total_order_properties():
    rng = random.Random(97)
    n = 2
    tr = Trail(n)
    tr.push(TrailEntry(Lit(False, "Q", (x, y)), TOP, 0, 0, reason=0))
    ordering = InducedOrdering.from_trail(tr)
    clauses = [_random_ground_clause(rng, n) for _ in range(30)]
    for c1, c2 in itertools.combinations(clauses, 2):
        r12 = ordering.cmp_clauses(c1, c2)
        r21 = ordering.cmp_clauses(c2, c1)
        assert r12 == -r21
    for c1 in clauses:
        for c2 in clauses:
            for c3 in clauses:
                if ordering.cmp_clauses(c1, c2) < 0 and ordering.cmp_clauses(c2, c3) < 0:
                    assert ordering.cmp_clauses(c1, c3) < 0


def test_empty_clause_is_minimal():
    tr = Trail(2)
    tr.push(TrailEntry(Lit(False, "P", (x,)), TOP, 0, 0, reason=0))
    ordering = InducedOrdering.from_trail(tr)
    rng = random.Random(5)
    for _ in range(100):
        c = _random_ground_clause(rng, 2)
        if c:
            assert ordering.cmp_clauses((), c) == -1


def test_atoms_by_entry_position():
    tr = Trail(2)
    tr.push(TrailEntry(Lit(False, "Q", (a, a)), TOP, 0, 0, reason=0))
    tr.push(TrailEntry(Lit(False, "P", (x,)), TOP, 0, 1, reason=0))
    ordering = InducedOrdering.from_trail(tr)
    # positive atoms compare as their unit clauses
    assert ordering.cmp_clauses((Lit(False, "Q", (a, a)),),
                                (Lit(False, "P", (a,)),)) == -1
    # undefined atoms compare by base order
    assert ordering.cmp_clauses((Lit(False, "Q", (a, b)),),
                                (Lit(False, "Q", (b, a)),)) == -1


def test_subsumption_embeds_in_ordering():
    # ground C subset of D implies C < D for any induced ordering
    rng = random.Random(13)
    for round_ in range(100):
        n = 2
        tr = Trail(n)
        if rng.random() < 0.7:
            tr.push(TrailEntry(Lit(False, "Q", (x, y)),
                               conj([((x, y), (v, v))]) if rng.random() < 0.5 else TOP,
                               0, 0, reason=0))
        ordering = InducedOrdering.from_trail(tr)
        d = _random_ground_clause(rng, n, max_len=4)
        if not d:
            continue
        k = rng.randrange(0, len(d))
        cidx = rng.sample(range(len(d)), k)
        csub = tuple(d[i] for i in sorted(cidx))
        if sorted(csub) == sorted(d):
            continue
        assert ordering.cmp_clauses(csub, d) == -1


def test_clause_key_order_matches_bruteforce():
    rng = random.Random(41)
    n = 2
    entries = [
        (Lit(True, "Q", (x, y)), conj([((x, y), (v, v))])),
        (Lit(False, "P", (x,)), TOP),
    ]
    tr = Trail(n)
    for i, (lit, pi) in enumerate(entries):
        tr.push(TrailEntry(lit, pi, 0, i, reason=0))
    ordering = InducedOrdering.from_trail(tr)
    for _ in range(400):
        c1 = _random_ground_clause(rng, n)
        c2 = _random_ground_clause(rng, n)
        k1, k2 = ordering.clause_key(c1), ordering.clause_key(c2)
        got = -1 if k1 < k2 else (0 if k1 == k2 else 1)
        assert got == _brute_cmp(entries, n, c1, c2)


def test_memoized_clause_keys_stay_those_of_their_snapshot():
    """`clause_key` is memoized per snapshot: a second call returns the
    stored key, which equals a fresh ordering's over the same entries, also
    after the trail the snapshot was taken from has grown."""
    rng = random.Random(15)
    n = 2
    tr = Trail(n)
    tr.push(TrailEntry(Lit(True, "Q", (x, y)), conj([((x, y), (v, v))]), 0, 0,
                       reason=0))
    ordering = InducedOrdering.from_trail(tr)
    clauses = [_random_ground_clause(rng, n) for _ in range(100)]
    keys = [ordering.clause_key(c) for c in clauses]
    tr.push(TrailEntry(Lit(False, "P", (x,)), TOP, 0, 1, reason=0))
    tr.push(TrailEntry(Lit(False, "Q", (a, a)), TOP, 0, 2, reason=0))
    fresh = InducedOrdering.from_trail(ordering.snapshot)
    grown = InducedOrdering.from_trail(tr)
    for c, key in zip(clauses, keys):
        assert ordering.clause_key(c) is key
        assert key == fresh.clause_key(c)
    assert any(grown.clause_key(c) != key for c, key in zip(clauses, keys))


def _multiset_strictly_less(after: list, before: list, cmp) -> bool:
    """Dershowitz-Manna by definition, quadratic: the referee for the
    sorted-key reduction the audit uses."""
    a, b = list(after), list(before)
    for x in list(a):
        for y in list(b):
            if cmp(x, y) == 0:
                a.remove(x)
                b.remove(y)
                break
    if not b:
        return False
    return all(any(cmp(x, y) < 0 for y in b) for x in a)


def _random_trail_entries(rng, n):
    out = []
    for _ in range(rng.randrange(0, 4)):
        if rng.random() < 0.5:
            lit = Lit(rng.random() < 0.5, "P", (rng.choice([x, rng.randrange(n)]),))
            pi = TOP if lit.args[0] >= 0 or rng.random() < 0.5 else conj(
                [((x,), (rng.randrange(n),))])
        else:
            lit = Lit(rng.random() < 0.5, "Q",
                      (rng.choice([x, rng.randrange(n)]), rng.choice([y, x])))
            vs = sorted({t for t in lit.args if t < 0})
            pi = TOP
            if len(vs) == 2 and rng.random() < 0.5:
                pi = conj([((x, y), (v, v))])
        out.append((lit, pi))
    return out


def test_sorted_keys_decide_the_multiset_ordering():
    rng = random.Random(2024)
    n = 2
    outcomes = {True: 0, False: 0}
    for _ in range(60):
        entries = _random_trail_entries(rng, n)
        tr = Trail(n)
        for i, (lit, pi) in enumerate(entries):
            tr.push(TrailEntry(lit, pi, 0, i, reason=0))
        ordering = InducedOrdering.from_trail(tr)

        def brute(c1, c2):
            return _brute_cmp(entries, n, c1, c2)

        pool = [_random_ground_clause(rng, n) for _ in range(5)]
        for _ in range(25):
            before = [rng.choice(pool) for _ in range(rng.randrange(0, 5))]
            shuffled = [tuple(rng.sample(c, len(c))) for c in before]
            candidates = [
                [],
                list(before),                         # equal
                shuffled,                             # equal, literals permuted
                before + [rng.choice(pool)],          # one more (duplicates)
                before[1:],                           # one fewer
                before[:-1] + [rng.choice(pool)],     # one replaced
                [rng.choice(pool) for _ in range(rng.randrange(0, 5))],
            ]
            for after in candidates:
                want = _multiset_strictly_less(after, before, brute)
                got = (sorted(map(ordering.clause_key, after), reverse=True)
                       < sorted(map(ordering.clause_key, before), reverse=True))
                assert got == want, (entries, after, before)
                outcomes[want] += 1
    assert min(outcomes.values()) > 1000, outcomes


def test_ordering_snapshot_survives_trail_changes():
    n = 2
    tr = Trail(n)
    tr.push(TrailEntry(Lit(False, "P", (x,)), conj([((x,), (a,))]), 0, 0, reason=0))
    tr.push(TrailEntry(Lit(True, "Q", (a, y)), TOP, 1, 1))
    warm = InducedOrdering.from_trail(tr)
    cold = InducedOrdering.from_trail(tr)
    atoms = [Lit(False, "P", (d,)) for d in range(n)] + [
        Lit(False, "Q", (d1, d2)) for d1 in range(n) for d2 in range(n)]
    seen = {atom: warm.def_pos(atom) for atom in atoms}
    assert sorted(set(seen.values()))[:2] == [0, 1]
    tr.push(TrailEntry(Lit(False, "Q", (b, y)), TOP, 1, 2, reason=0))
    tr.push(TrailEntry(Lit(False, "P", (a,)), TOP, 1, 3, reason=0))
    assert InducedOrdering.from_trail(tr).def_pos(Lit(False, "Q", (b, a))) == 2
    assert {atom: warm.def_pos(atom) for atom in atoms} == seen
    tr.truncate(0)
    assert {atom: warm.def_pos(atom) for atom in atoms} == seen
    assert {atom: cold.def_pos(atom) for atom in atoms} == seen


def test_entries_are_frozen_and_pushed_at_their_own_position():
    tr = _trail_ex33()
    with pytest.raises(dataclasses.FrozenInstanceError):
        tr.entries[0].pos = 5
    with pytest.raises(ValueError, match="entry at pos 1 pushed onto a trail "
                                         "of 2 entries"):
        tr.push(TrailEntry(Q(a, x), TOP, level=1, pos=1))
    assert len(tr) == 2


def _ground_atoms(n):
    return ([Lit(False, "P", (d,)) for d in range(n)]
            + [Lit(False, "Q", (d1, d2)) for d1 in range(n) for d2 in range(n)])


def _assert_memo_matches_the_scan(tr, rng, atoms):
    """Every (atom, upto) query, in a random order so that answers are
    memoized before others are read, against the unmemoized prefix scan."""
    queries = [(atom, upto) for atom in atoms
               for upto in [None, *range(len(tr) + 1)]]
    rng.shuffle(queries)
    for atom, upto in queries:
        want = _defining([e for e in tr.entries[:upto] if e.lit.pred == atom.pred],
                         atom)
        assert tr.defining_entry(atom, upto) is want, (atom, upto)
        want_value = UNDEF if want is None else (
            TRUE if not want.lit.neg else FALSE)
        assert tr.value_of(atom, upto) == want_value
        assert tr.value_of(atom.negate(), upto) == -want_value


def _scan_level(entries):
    """The level by its definition: the last decision's level, else 0."""
    return next((e.level for e in reversed(entries) if e.is_decision), 0)


def _scan_prefix_len(entries, lvl):
    """The entries before the first decision above `lvl`, by a scan."""
    return next((i for i, e in enumerate(entries)
                 if e.is_decision and e.level > lvl), len(entries))


def test_memoized_defining_entry_matches_the_scan():
    """The memo of `Trail.defining_entry` answers as the unmemoized scan of
    the prefix, for every ground atom and every `upto`, through random
    push, pop and truncate sequences; the random entries often overlap, so
    strong consistency is broken on many of these trails.  A quarter of the
    entries are decisions, each one level above the last, as the solver
    pushes them, and `level` and every `level_prefix_len` read as their
    scans."""
    rng = random.Random(2022)
    kinds = random.Random(2023)
    n = 2
    atoms = _ground_atoms(n)
    decided = 0
    for _ in range(40):
        tr = Trail(n)
        for _ in range(12):
            op = rng.random()
            if op < 0.6 or not tr.entries:
                for lit, pi in _random_trail_entries(rng, n):
                    level = _scan_level(tr.entries)
                    if kinds.random() < 0.25:
                        tr.push(TrailEntry(lit, pi, level + 1, len(tr)))
                        decided += 1
                    else:
                        tr.push(TrailEntry(lit, pi, level, len(tr), reason=0))
            elif op < 0.85:
                tr.pop()
            else:
                tr.truncate(rng.randrange(len(tr) + 1))
            _assert_memo_matches_the_scan(tr, rng, atoms)
            assert tr.level == _scan_level(tr.entries)
            assert [tr.level_prefix_len(j) for j in range(tr.level + 2)] == [
                _scan_prefix_len(tr.entries, j) for j in range(tr.level + 2)]
    assert decided > 50, decided


def test_memo_keeps_the_first_of_two_covering_entries():
    # P(a) is covered at 0 (negatively) and again at 1: strong consistency
    # is broken, and every prefix still reads the first entry
    rng = random.Random(3)
    tr = Trail(2)
    tr.push(TrailEntry(Lit(True, "P", (a,)), TOP, 0, 0, reason=0))
    tr.push(TrailEntry(Lit(False, "P", (x,)), TOP, 0, 1, reason=0))
    atoms = _ground_atoms(2)
    _assert_memo_matches_the_scan(tr, rng, atoms)
    assert tr.defining_entry(P3(a)).pos == 0
    assert tr.defining_entry(P3(b)).pos == 1
    assert tr.defining_entry(P3(b), upto=1) is None
    tr.pop()
    assert tr.defining_entry(P3(b)) is None
    _assert_memo_matches_the_scan(tr, rng, atoms)
    tr.truncate(0)
    assert tr.defining_entry(P3(a)) is None
