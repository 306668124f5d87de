import hashlib
import os
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprsat.constrained import CLit, conjunction, cover, cover_size
from eprsat import render
from eprsat.constraints import TOP, conj, is_normal, normalize, subset
from eprsat.oracle import GenParams, gen_benchmark, gen_random_instance
from eprsat.parser import (
    ParseError,
    _Tok,
    _tokenize,
    parse_clit_line,
    parse_model,
    parse_problem,
    parse_script,
    trace_decisions,
)
from eprsat.render import (
    MERGE_ATOM_CAP,
    Namer,
    merge_cover,
    render_clit,
    render_model,
    render_problem,
    render_trace,
)
from eprsat.solver import RunConfig, Solver
from eprsat.syntax import Lit, Signature, var_code
from population import criterion_1_verdicts

x, y = var_code(0), var_code(1)
v = var_code(9)
a, b, c = 0, 1, 2


def test_parse_minimal_problem():
    sig, clauses = parse_problem("domain a b . clause: P(X) .")
    assert sig.preds == {"P": 1} and sig.domain == ("a", "b")
    assert len(clauses) == 1 and len(clauses[0]) == 1
    lit = clauses[0][0]
    assert lit.pred == "P" and not lit.neg and lit.args[0] < 0


def test_parse_worked_example_shape():
    sig, clauses = parse_problem("""
    domain a b c .
    -P(c,X,X) .
    -P(X,Y,Z) | -P(U,W,T) | Q(X,U) .
    -P(X,Y,Z) | -Q(a,X) .
    -Q(X,b) | -P(X,Y,Z) .
    """)
    assert sig.preds == {"P": 3, "Q": 2}
    assert sig.domain == ("a", "b", "c")
    assert len(clauses) == 4


def test_parse_arity_mismatch_names_both_occurrences():
    with pytest.raises(ParseError) as exc:
        parse_problem("domain a . P(X) | P(X,X) .")
    assert "arity mismatch" in str(exc.value)
    assert "1 at" in str(exc.value) or "2 here" in str(exc.value)


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_problem("domain a .\nP(X) | $ .")
    assert str(exc.value).startswith("2:")


SIG_PQ = Signature({"P": 1, "Q": 2}, ("a", "b"))


@pytest.mark.parametrize("parse, text, message", [
    (parse_problem, "domain a . P(X", "1:14: unexpected end of input"),
    (parse_problem, "domain a . P(a) P(a) .", "1:17: expected '.', found 'P'"),
    (parse_problem, "domain a . P(|) .", "1:14: expected a term, found '|'"),
    (parse_problem, "domain a .\n-( .", "2:2: expected a predicate name"),
    (parse_problem, "domain a B .", "1:10: constants are lowercase identifiers"),
    (parse_problem, "domain a b\n a .", "2:2: duplicate constant 'a'"),
    (parse_problem, "domain .", "1:1: domain must be nonempty"),
    (lambda t: parse_clit_line(t, SIG_PQ, 1), "Q(X,Y) :: (X,Y) != a",
     "1:11: disequation tuples differ in length"),
    (lambda t: parse_clit_line(t, SIG_PQ, 1), "Q(X,Y) :: X != a /\\ (X,Y) != a",
     "1:21: disequation tuples differ in length"),
    (lambda t: parse_script(t, SIG_PQ), "P(a)\nP(X) :: TOP TOP",
     "2:13: trailing input 'TOP'"),
])
def test_each_parse_error_names_its_line_and_column(parse, text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


_SOUP = st.lists(st.sampled_from([
    "domain", "clause", "false", "a", "b", "zz", "X", "Y", "P", "Q", "TOP",
    "BOT", "(", ")", ",", "|", ".", "-", "~", "::", ":", "!=", "/\\", "%",
    "$", " ", "\n", "% model\n", "% compact\n", "% all other atoms false\n",
    "é", "²", "\f",
]), max_size=30).map("".join)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_SOUP)
def test_token_soup_raises_nothing_but_parse_error(text):
    for parse in (parse_problem, lambda t: parse_script(t, SIG_PQ),
                  lambda t: parse_model(t, SIG_PQ)):
        try:
            parse(text)
        except ParseError:
            pass


_PUNCT = ("::", "!=", "/\\", "(", ")", ",", "|", ".", "-", "~", ":")


def _scan_by_hand(text, line):
    """The tokenizer's referee: a character-by-character scanner."""
    toks = []
    col = 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            toks.append(_Tok("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(_Tok("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    return toks


@settings(derandomize=True, max_examples=2000, deadline=None, database=None)
@given(st.text("aXb_Z9' \t\r\n%:!=/\\(),|.-~é²½\f#", max_size=40),
       st.integers(1, 3))
def test_tokenizer_matches_the_hand_scanner(text, line):
    def scan(tokenize):
        try:
            return tokenize(text, line)
        except ParseError as exc:
            return str(exc)

    assert scan(_tokenize) == scan(_scan_by_hand)


@pytest.mark.parametrize("text, want", [
    ("clause(a) .", [(Lit(False, "clause", (0,)),)]),
    ("clause .", [(Lit(False, "clause", ()),)]),
    ("false(a) .", [(Lit(False, "false", (0,)),)]),
    ("false | p .", [(Lit(False, "false", ()), Lit(False, "p", ()))]),
    ("clause: false .", [()]),
])
def test_clause_and_false_are_keywords_only_before_their_punctuation(text, want):
    assert parse_problem("domain a . " + text)[1] == want


def test_parse_undeclared_constant():
    with pytest.raises(ParseError) as exc:
        parse_problem("domain a . P(zz) .")
    assert "undeclared" in str(exc.value)


def test_parse_empty_clause_keyword():
    _, clauses = parse_problem("domain a . false .")
    assert clauses == [()]


def test_parse_comments_and_whitespace():
    sig, clauses = parse_problem("""
    % a comment
    domain a b .   % trailing comment
    P(a) .
    """)
    assert clauses == [(Lit(False, "P", (0,)),)]


def test_problem_roundtrip_fixpoint():
    text = """
    domain a b c .
    -P(c,X,X) .
    -P(X,Y,Z) | -P(U,W,T) | Q(X,U) .
    false .
    """
    sig1, c1 = parse_problem(text)
    r1 = render_problem(sig1, c1)
    sig2, c2 = parse_problem(r1)
    r2 = render_problem(sig2, c2)
    assert r1 == r2


def test_clit_line_roundtrip():
    sig = Signature({"P": 2}, ("a", "b"))
    for line in ["P(X,Y) :: (X,Y) != (Z,Z) /\\ X != a",
                 "~P(a,X) :: TOP",
                 "P(a,b) :: BOT",
                 "P(X,X) :: TOP"]:
        lit, pi = parse_clit_line(line, sig, 1)
        again = render_clit(sig, lit, pi)
        lit2, pi2 = parse_clit_line(again, sig, 1)
        assert render_clit(sig, lit2, pi2) == again


def test_constraint_surface_syntax():
    sig = Signature({"P": 2}, ("a", "b"))
    pi = conj([((x, y), (v, v)), ((y,), (a,))])
    namer = Namer(sig)
    namer.term(x), namer.term(y)
    assert namer.pi_text(pi) == "(X,Y) != (Z,Z) /\\ Y != a"


def test_script_parsing_skips_blank_and_comment_lines():
    sig = Signature({"P": 1}, ("a", "b"))
    script = parse_script("\n% pick P first\nP(X)\n\n~P(a) :: TOP\n", sig)
    assert len(script) == 2
    assert script[0][1].is_top


def test_clit_line_rejects_a_free_lhs_variable():
    # W is constrained but does not occur in the literal; such a line used to
    # parse and then fail an assertion during the solve
    sig = Signature({"P": 3}, ("a", "b", "c"))
    for line, col, name in [("P(X,Y,Z) :: W != c", 13, "W"),
                            ("P(X,Y,Z) :: (X,Y) != (V,V) /\\ V != a", 31, "V")]:
        with pytest.raises(ParseError) as exc:
            parse_clit_line(line, sig, 1)
        assert (exc.value.line, exc.value.col) == (1, col)
        assert f"lhs variable {name!r}" in str(exc.value)
    # rhs-only variables and literal variables stay fine
    lit, pi = parse_clit_line("P(X,Y,Z) :: (X,Y) != (V,V) /\\ Z != a", sig, 1)
    assert pi.kind == "and"


def test_clit_line_rejects_an_rhs_variable_of_the_literal():
    # Y is the literal's own variable, so it cannot range freely on a
    # right-hand side; such a line used to parse into a non-normal constraint
    sig = Signature({"P": 3}, ("a", "b", "c"))
    with pytest.raises(ParseError) as exc:
        parse_clit_line("P(X,Y,Z) :: (X,Y) != (Y,Y)", sig, 1)
    assert str(exc.value) == "1:23: rhs variable 'Y' occurs in the literal"
    # in a script, the error names the script's line
    with pytest.raises(ParseError) as exc:
        parse_script("P(X,Y,Z)\nP(X,Y,Z) :: X != a /\\ (Y,Z) != (V,X)\n", sig)
    assert str(exc.value) == "2:35: rhs variable 'X' occurs in the literal"


def test_rhs_variables_are_local_to_their_disequation():
    # the two Vs are unrelated, as if the second were W; sharing one
    # variable made the constraint non-normal and failed an assertion
    sig = Signature({"P": 3}, ("a", "b", "c"))
    shared = parse_clit_line("P(X,Y,Z) :: (X,Y) != (V,V) /\\ (Y,Z) != (V,V)", sig, 1)
    apart = parse_clit_line("P(X,Y,Z) :: (X,Y) != (V,V) /\\ (Y,Z) != (W,W)", sig, 1)
    assert is_normal(shared[1])
    assert cover(*shared, 3) == cover(*apart, 3)


def test_model_document_rejects_an_rhs_variable_of_the_literal():
    sig = Signature({"P": 2}, ("a", "b"))
    doc = "% model\nP(X,Y) :: TOP\n% compact\nP(X,Y) :: X != Y\n"
    with pytest.raises(ParseError) as exc:
        parse_model(doc, sig)
    assert str(exc.value) == "4:16: rhs variable 'Y' occurs in the literal"


def test_clit_line_rejects_an_undeclared_predicate():
    sig = Signature({"P": 1}, ("a",))
    with pytest.raises(ParseError) as exc:
        parse_clit_line("R(X) :: TOP", sig, 1)
    assert str(exc.value) == "1:1: undeclared predicate 'R'"
    # a script error names the script's own line and column
    with pytest.raises(ParseError) as exc:
        parse_script("P(a)\n% comment\n  ~R(X)\n", sig)
    assert str(exc.value) == "3:4: undeclared predicate 'R'"


def test_clit_line_arity_mismatch_names_the_declared_arity():
    sig = Signature({"P": 3}, ("a",))
    with pytest.raises(ParseError) as exc:
        parse_clit_line("P(X,Y) :: TOP", sig, 1)
    assert str(exc.value) == "1:1: arity mismatch for 'P': 2 here, declared arity 3"


def test_model_document_roundtrip():
    sig = Signature({"P": 3, "Q": 2}, ("a", "b", "c"))
    z = var_code(2)
    entries = [
        CLit(Lit(True, "P", (c, x, x)), TOP),
        CLit(Lit(True, "P", (c, x, y)), conj([((x, y), (v, v))])),
        CLit(Lit(False, "Q", (x, y)), TOP),
    ]
    doc = render_model(sig, entries)
    got_entries, got_compact = parse_model(doc, sig)
    redoc = render_model(sig, [CLit(l, p) for l, p in got_entries])
    assert redoc == doc
    assert doc.endswith("% all other atoms false\n")


def test_merge_cover_fills_holes():
    sig = Signature({"P": 1}, ("a", "b", "c"))
    ground = CLit(Lit(False, "P", (a,)), TOP)
    rest = CLit(Lit(False, "P", (x,)), conj([((x,), (a,))]))
    merged = merge_cover(sig, [ground, rest])
    assert len(merged) == 1
    got = cover(merged[0].lit, merged[0].pi, 3)
    assert got == {Lit(False, "P", (d,)) for d in range(3)}


def test_merge_cover_keeps_unmergeable():
    sig = Signature({"P": 1}, ("a", "b", "c"))
    one = CLit(Lit(False, "P", (a,)), TOP)
    other = CLit(Lit(True, "P", (b,)), TOP)
    assert len(merge_cover(sig, [one, other])) == 2


def _merge_cover_unmemoized(sig, clits):
    """The greedy loop `merge_cover` memoizes: after each merge it rescans
    every pair (i, j) in order and recounts every cover it asks about."""
    n = sig.n

    def size(cl):
        return cover_size(cl.lit, cl.pi, n)

    out = list(clits)
    changed = True
    while changed:
        changed = False
        for i in range(len(out)):
            for j in range(len(out)):
                if i == j:
                    continue
                a, b = out[i], out[j]
                if a.lit.pred != b.lit.pred or a.lit.neg != b.lit.neg:
                    continue
                if n ** len(b.lit.args) > MERGE_ATOM_CAP:
                    continue
                if b.pi.kind != "and":
                    continue
                size_a = size(a)
                union = size_a + size(b) - size(conjunction(a, b))
                merged = None
                for k in range(len(b.pi.subs)):
                    widened = normalize(conj(b.pi.subs[:k] + b.pi.subs[k + 1:]))
                    w = CLit(b.lit, widened)
                    if size(w) == union and size(conjunction(a, w)) == size_a:
                        merged = w
                        break
                if merged is not None:
                    keep_low, drop_high = (i, j) if i < j else (j, i)
                    out[keep_low] = merged
                    del out[drop_high]
                    changed = True
                    break
            if changed:
                break
    return out


def _sat_models():
    """(name, sig, model) of two benchmark rungs, the scripted ex33 and the
    sat criterion-1 population."""
    for nk in [(5, 4), (7, 3)]:
        sig, clauses = gen_benchmark(*nk)
        yield f"rung{nk}", sig, Solver(sig, clauses, RunConfig()).solve().model
    data = os.path.join(os.path.dirname(__file__), "data")
    sig, clauses = parse_problem(open(os.path.join(data, "ex33.p")).read())
    script = parse_script(open(os.path.join(data, "ex33.dec")).read(), sig)
    yield "ex33", sig, Solver(sig, clauses, RunConfig(script=script)).solve().model
    for seed, (sig, _, verdict) in enumerate(criterion_1_verdicts()):
        if verdict.status == "sat":
            yield f"pop-{seed}", sig, verdict.model


def test_merge_cover_matches_the_unmemoized_greedy_loop():
    merged = 0
    for name, sig, model in _sat_models():
        got = merge_cover(sig, model)
        assert got == _merge_cover_unmemoized(sig, model), name
        merged += len(model) - len(got)
    assert merged > 50, merged


def _merge_cover_recounting(sig, clits):
    """`merge_cover` as it was before widenings were sized by their new
    piece: the same memoized scan, but every widened literal is counted
    afresh over its whole constraint, and each intersection renames b (or
    w) apart."""
    n = sig.n
    sizes, widenings = {}, {}

    def size(cl):
        if cl not in sizes:
            sizes[cl] = cover_size(cl.lit, cl.pi, n)
        return sizes[cl]

    def meet_size(a, b):
        c = conjunction(a, b)
        return cover_size(c.lit, c.pi, n)

    def widening(a, b):
        if (a, b) not in widenings:
            size_a = size(a)
            union = size_a + size(b) - meet_size(a, b)
            found = None
            for k in range(len(b.pi.subs)):
                rest = b.pi.subs[:k] + b.pi.subs[k + 1:]
                w = CLit(b.lit, normalize(subset(b.pi, rest)))
                if size(w) == union and meet_size(a, w) == size_a:
                    found = w
                    break
            widenings[a, b] = found
        return widenings[a, b]

    def first_merge(out):
        targets = {}
        for j, b in enumerate(out):
            if b.pi.kind == "and" and n ** len(b.lit.args) <= MERGE_ATOM_CAP:
                targets.setdefault((b.lit.pred, b.lit.neg), []).append(j)
        for i, a in enumerate(out):
            for j in targets.get((a.lit.pred, a.lit.neg), ()):
                if i != j and (w := widening(a, out[j])) is not None:
                    return i, j, w
        return None

    out = list(clits)
    while (found := first_merge(out)) is not None:
        i, j, w = found
        out[min(i, j)] = w
        del out[max(i, j)]
    return out


def _memoized_sizes(sig, clits):
    """`merge_cover(sig, clits)` and the cover sizes it memoized, read off
    its frame as it returns (a profile hook, which leaves any trace hook
    in place)."""
    code = merge_cover.__code__
    sizes = {}

    def hook(frame, event, arg):
        if event == "return" and frame.f_code is code:
            sizes.update(frame.f_locals["sizes"])

    outer = sys.getprofile()
    sys.setprofile(hook)
    try:
        merged = merge_cover(sig, clits)
    finally:
        sys.setprofile(outer)
    return merged, sizes


# SHA-256 of the gen_benchmark(10, 3) model document
_DOC_10_3 = "9448110c7248322fa4828c8ef2c20c1e6ef409ffa3d0f951849019a1458632ef"


def test_widening_sizes_match_a_fresh_count(monkeypatch):
    """Each widening's size is b's size plus its one new piece: every size
    `merge_cover` memoizes equals a fresh `cover_size`, and the document is
    the one the whole-recount scan gives, over the ladder rung (7,3), the
    rungs (8,3) and (10,3) and the sat criterion-1 population."""
    runs = [(f"rung{nk}", *gen_benchmark(*nk)) for nk in [(7, 3), (8, 3), (10, 3)]]
    models = [(name, sig, Solver(sig, clauses, RunConfig()).solve().model)
              for name, sig, clauses in runs]
    models += [(f"pop-{seed}", sig, verdict.model)
               for seed, (sig, _, verdict) in enumerate(criterion_1_verdicts())
               if verdict.status == "sat"]
    widened = 0
    docs = {}
    for name, sig, model in models:
        merged, sizes = _memoized_sizes(sig, model)
        for cl, size in sizes.items():
            assert size == cover_size(cl.lit, cl.pi, sig.n), (name, cl)
        widened += len(set(sizes) - set(model))
        docs[name] = render_model(sig, model)
        assert docs[name].endswith("\n".join(
            render_clit(sig, cl.lit, cl.pi) for cl in merged)
            + "\n% all other atoms false\n"), name
    monkeypatch.setattr(render, "merge_cover", _merge_cover_recounting)
    for name, sig, model in models:
        assert render_model(sig, model) == docs[name], name
    assert hashlib.sha256(docs["rung(10, 3)"].encode()).hexdigest() == _DOC_10_3
    assert widened > 500, widened


def test_trace_replay_reproduces_trace():
    rng = random.Random(0)
    for seed in range(25):
        p = GenParams(n_preds=2, max_arity=2, domain_size=3, n_clauses=10,
                      max_lits=3, seed=seed)
        sig, clauses = gen_random_instance(p)
        v1 = Solver(sig, clauses, RunConfig()).solve()
        t1 = render_trace(v1.trace)
        script = parse_script(trace_decisions(t1), sig)
        v2 = Solver(sig, clauses, RunConfig(script=script)).solve()
        t2 = render_trace(v2.trace)
        assert t1 == t2


def test_render_trace_format():
    sig, clauses = parse_problem("domain a . P(a) .")
    v = Solver(sig, clauses, RunConfig()).solve()
    text = render_trace(v.trace)
    assert text.splitlines()[0] == "RULE Propagate | level 0 | [reason C1] P(a) :: TOP"
    assert text.splitlines()[-1].startswith("RULE Success | level -1 |")
