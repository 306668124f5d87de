"""Problem-file parser and the shared literal/constraint grammar.

Problem files: a `domain a b c .` declaration followed by clause statements
terminated by `.`, e.g. `P(X,a) | -Q(X,Y) .`  Uppercase-initial identifiers
are variables (clause-scoped), lowercase are constants and predicates,
`%` starts a comment, `false .` is the empty clause.  Negation is `-` or
`~`.  Constrained-literal lines (decision scripts, model documents) read
`P(X,Y) :: (X,Y) != (V,V) /\\ X != a`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .constraints import BOT, TOP, Constraint, conj, lvars, normalize
from .render import render_clause
from .syntax import Clause, Lit, Signature, fresh_var


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


@dataclass
class _Tok:
    kind: str   # 'name' | 'punct'
    text: str
    line: int
    col: int


_PUNCT = ("::", "!=", "/\\", "(", ")", ",", "|", ".", "-", "~", ":")


def _tokenize(text: str, line: int = 1) -> list[_Tok]:
    toks: list[_Tok] = []
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


class _Stream:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.i = 0

    def peek(self) -> Optional[_Tok]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> _Tok:
        t = self.peek()
        if t is None:
            last = self.toks[-1] if self.toks else _Tok("punct", "", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.col)
        self.i += 1
        return t

    def accept(self, text: str) -> bool:
        """Take the next token when it reads `text`."""
        t = self.peek()
        if t is None or t.text != text:
            return False
        self.i += 1
        return True

    def expect(self, text: str) -> _Tok:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t


def _is_varname(name: str) -> bool:
    return name[0].isupper()


class _ClauseParser:
    def __init__(self, stream: _Stream, sig_domain: dict[str, int],
                 arities: dict[str, tuple[int, int, int]]):
        self.s = stream
        self.domain = sig_domain
        self.arities = arities  # name -> (arity, line, col of first use)
        self.varmap: dict[str, int] = {}
        self.lhs_at: dict[str, _Tok] = {}  # text -> its first lhs token
        self.rhs_at: dict[str, _Tok] = {}  # text -> its first rhs token

    def term(self) -> int:
        t = self.s.next()
        if t.kind != "name":
            raise ParseError(f"expected a term, found {t.text!r}", t.line, t.col)
        if _is_varname(t.text):
            if t.text not in self.varmap:
                self.varmap[t.text] = fresh_var()
            return self.varmap[t.text]
        if t.text not in self.domain:
            raise ParseError(f"undeclared constant {t.text!r}", t.line, t.col)
        return self.domain[t.text]

    def args(self) -> tuple[int, ...]:
        """`t, ..., t)`: an argument list after its opening parenthesis."""
        out = [self.term()]
        while self.s.accept(","):
            out.append(self.term())
        self.s.expect(")")
        return tuple(out)

    def literal(self) -> Lit:
        neg = self.s.accept("-") or self.s.accept("~")
        t = self.s.next()
        if t.kind != "name":
            raise ParseError("expected a predicate name", t.line, t.col)
        pred = t.text
        args = self.args() if self.s.accept("(") else ()
        if pred in self.arities:
            ar, ln, co = self.arities[pred]
            if ar != len(args):
                seen = f"{ar} at {ln}:{co}" if ln else f"declared arity {ar}"
                raise ParseError(f"arity mismatch for {pred!r}: {len(args)} here, "
                                 f"{seen}", t.line, t.col)
        else:
            self.arities[pred] = (len(args), t.line, t.col)
        return Lit(neg, pred, args)

    def tuple_(self) -> tuple[int, ...]:
        return self.args() if self.s.accept("(") else (self.term(),)

    def constraint(self) -> Constraint:
        if self.s.accept("TOP"):
            return TOP
        if self.s.accept("BOT"):
            return BOT
        subs = []
        while True:
            first = self.s.peek()    # where this disequation starts
            start = self.s.i
            lhs = self.tuple_()
            for tok in self.s.toks[start:self.s.i]:
                self.lhs_at.setdefault(tok.text, tok)
            self.s.expect("!=")
            start = self.s.i
            outer = dict(self.varmap)
            rhs = self.tuple_()
            self.varmap = outer   # a new rhs variable is local to its disequation
            for tok in self.s.toks[start:self.s.i]:
                self.rhs_at.setdefault(tok.text, tok)
            if len(lhs) != len(rhs):
                raise ParseError("disequation tuples differ in length",
                                 first.line, first.col)
            subs.append((lhs, rhs))
            if not self.s.accept("/\\"):
                return conj(subs)


def parse_problem(text: str) -> tuple[Signature, list[Clause]]:
    toks = _tokenize(text)
    s = _Stream(toks)
    domain: dict[str, int] = {}
    names: list[str] = []
    arities: dict[str, tuple[int, int, int]] = {}
    clauses: list[Clause] = []
    t0 = s.next()
    if t0.text != "domain":
        raise ParseError("problem must start with a domain declaration",
                         t0.line, t0.col)
    while not s.accept("."):
        t = s.next()
        if t.kind != "name" or _is_varname(t.text):
            raise ParseError("constants are lowercase identifiers", t.line, t.col)
        if t.text in domain:
            raise ParseError(f"duplicate constant {t.text!r}", t.line, t.col)
        domain[t.text] = len(names)
        names.append(t.text)
    if not names:
        t = toks[0]
        raise ParseError("domain must be nonempty", t.line, t.col)
    while s.peek() is not None:
        t = s.peek()
        if t.text == "domain":
            raise ParseError("duplicate domain declaration", t.line, t.col)
        if s.accept("clause"):
            s.accept(":")
        if s.accept("false"):
            s.expect(".")
            clauses.append(())
            continue
        cp = _ClauseParser(s, domain, arities)
        lits = [cp.literal()]
        while s.accept("|"):
            lits.append(cp.literal())
        s.expect(".")
        clauses.append(tuple(lits))
    sig = Signature({p: a for p, (a, _, _) in arities.items()}, tuple(names))
    return sig, clauses


def parse_clit_line(text: str, sig: Signature,
                    line: int = 1) -> tuple[Lit, Constraint]:
    """One `literal :: constraint` line (number `line`) over `sig`'s
    predicates; bare literals mean TOP.  Lhs variables must be the literal's
    and rhs variables must not be."""
    toks = _tokenize(text, line)
    s = _Stream(toks)
    domain = {name: i for i, name in enumerate(sig.domain)}
    arities = {p: (a, 0, 0) for p, a in sig.preds.items()}
    cp = _ClauseParser(s, domain, arities)
    lit = cp.literal()
    if lit.pred not in sig.preds:
        _, ln, co = arities[lit.pred]
        raise ParseError(f"undeclared predicate {lit.pred!r}", ln, co)
    pi = TOP
    if s.accept("::"):
        pi = cp.constraint()
    if s.peek() is not None:
        t = s.peek()
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    for name, var in cp.varmap.items():
        if var in lvars(pi) and var not in lit.args:
            t = cp.lhs_at[name]
            raise ParseError(f"lhs variable {name!r} is not in the literal",
                             t.line, t.col)
        if var in lit.args and name in cp.rhs_at:
            t = cp.rhs_at[name]
            raise ParseError(f"rhs variable {name!r} occurs in the literal",
                             t.line, t.col)
    return lit, normalize(pi)


def parse_script(text: str, sig: Signature) -> list[tuple[Lit, Constraint]]:
    out = []
    for ln, line in enumerate(text.splitlines(), 1):
        if line.split("%", 1)[0].strip():
            out.append(parse_clit_line(line, sig, ln))
    return out


def parse_model(text: str, sig: Signature) -> tuple[list, list]:
    """Model document -> (entries, compact), each a list of (lit, pi)."""
    entries: list = []
    compact: list = []
    target = entries
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line == "% model":
            target = entries
            continue
        if line == "% compact":
            target = compact
            continue
        if line == "% all other atoms false":
            break
        if line.startswith("%"):
            continue
        target.append(parse_clit_line(raw, sig, ln))
    return entries, compact


def trace_decisions(trace_text: str) -> str:
    """Extract the Decide payloads of a trace as a decision script."""
    out = []
    for line in trace_text.splitlines():
        if line.startswith("RULE Decide |"):
            out.append(line.split("DECIDE] ", 1)[1])
    return "\n".join(out) + ("\n" if out else "")


def render_problem(sig: Signature, clauses: list[Clause]) -> str:
    lines = ["domain " + " ".join(sig.domain) + " ."]
    for c in clauses:
        lines.append(render_clause(sig, c).replace("~", "-") + " .")
    return "\n".join(lines) + "\n"
