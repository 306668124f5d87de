"""Readers for the text forms: problems, decision scripts, model documents.

Problem files: a `domain a b c .` declaration followed by clause statements
terminated by `.`, e.g. `P(X,a) | -Q(X,Y) .`  Uppercase-initial names are
variables (clause-scoped), lowercase are constants and predicates, `%`
starts a comment.  `clause` is an optional prefix only before `:`, and
`false` is the empty clause only before `.`; elsewhere both are predicates.
Negation is `-` or `~`.  Constrained-literal lines (decision scripts, model
documents) read `P(X,Y) :: (X,Y) != (V,V) /\\ X != a`.  The writers are in
`render`.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .constraints import BOT, TOP, Constraint, conj, lvars, normalize
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


# blanks and comments (skipped), a newline, a name, punctuation, anything else
_TOKEN = re.compile(r"[ \t\r]+|%[^\n]*|(\n)|(\w[\w']*)|(::|!=|/\\|[(),|.~:-])|(.)")


def _tokenize(text: str, line: int) -> list[_Tok]:
    toks: list[_Tok] = []
    start = 0   # where the current line starts
    for m in _TOKEN.finditer(text):
        newline, name, punct, other = m.groups()
        col = m.start() - start + 1
        if newline:
            line += 1
            start = m.end()
        # `\w` also matches digits, which may not start a name
        elif name and (name[0].isalpha() or name[0] == "_"):
            toks.append(_Tok("name", name, line, col))
        elif punct:
            toks.append(_Tok("punct", punct, line, col))
        elif name or other:
            raise ParseError(f"unexpected character {(name or other)[0]!r}", line, col)
    return toks


def _is_varname(name: str) -> bool:
    return name[0].isupper()


class _Cursor:
    """A position in one text's tokens, and the variables of the clause or
    constrained literal being read."""

    def __init__(self, text: str, line: int, domain: dict[str, int],
                 arities: dict[str, tuple[int, int, int]]):
        self.toks = _tokenize(text, line)
        self.texts = [t.text for t in self.toks]   # what `accept` compares
        self.i = 0
        self.domain = domain      # constant -> its number
        self.arities = arities    # name -> (arity, line, col of first use)
        self.varmap: dict[str, int] = {}
        self.lhs_at: dict[str, _Tok] = {}  # text -> its first lhs token
        self.rhs_at: dict[str, _Tok] = {}  # text -> its first rhs token

    def peek(self) -> Optional[_Tok]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> _Tok:
        t = self.peek()
        if t is None:
            last = self.toks[-1] if self.toks else _Tok("punct", "", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.col)
        self.i += 1
        return t

    def accept(self, *texts: str) -> bool:
        """Take the next tokens when they read `texts`."""
        j = self.i + len(texts)
        if tuple(self.texts[self.i:j]) != texts:
            return False
        self.i = j
        return True

    def expect(self, text: str) -> _Tok:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def term(self) -> int:
        t = self.next()
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
        while self.accept(","):
            out.append(self.term())
        self.expect(")")
        return tuple(out)

    def literal(self) -> Lit:
        neg = self.accept("-") or self.accept("~")
        t = self.next()
        if t.kind != "name":
            raise ParseError("expected a predicate name", t.line, t.col)
        pred = t.text
        args = self.args() if self.accept("(") else ()
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
        return self.args() if self.accept("(") else (self.term(),)

    def constraint(self) -> Constraint:
        if self.accept("TOP"):
            return TOP
        if self.accept("BOT"):
            return BOT
        subs = []
        while True:
            first = self.peek()    # where this disequation starts
            start = self.i
            lhs = self.tuple_()
            for tok in self.toks[start:self.i]:
                self.lhs_at.setdefault(tok.text, tok)
            self.expect("!=")
            start = self.i
            outer = dict(self.varmap)
            rhs = self.tuple_()
            self.varmap = outer   # a new rhs variable is local to its disequation
            for tok in self.toks[start:self.i]:
                self.rhs_at.setdefault(tok.text, tok)
            if len(lhs) != len(rhs):
                raise ParseError("disequation tuples differ in length",
                                 first.line, first.col)
            subs.append((lhs, rhs))
            if not self.accept("/\\"):
                return conj(subs)


def parse_problem(text: str) -> tuple[Signature, list[Clause]]:
    domain: dict[str, int] = {}
    arities: dict[str, tuple[int, int, int]] = {}
    cur = _Cursor(text, 1, domain, arities)
    clauses: list[Clause] = []
    t0 = cur.next()
    if t0.text != "domain":
        raise ParseError("problem must start with a domain declaration",
                         t0.line, t0.col)
    while not cur.accept("."):
        t = cur.next()
        if t.kind != "name" or _is_varname(t.text):
            raise ParseError("constants are lowercase identifiers", t.line, t.col)
        if t.text in domain:
            raise ParseError(f"duplicate constant {t.text!r}", t.line, t.col)
        domain[t.text] = len(domain)
    if not domain:
        raise ParseError("domain must be nonempty", t0.line, t0.col)
    while (t := cur.peek()) is not None:
        if t.text == "domain":
            raise ParseError("duplicate domain declaration", t.line, t.col)
        cur.accept("clause", ":")
        if cur.accept("false", "."):
            clauses.append(())
            continue
        cur.varmap = {}
        lits = [cur.literal()]
        while cur.accept("|"):
            lits.append(cur.literal())
        cur.expect(".")
        clauses.append(tuple(lits))
    sig = Signature({p: a for p, (a, _, _) in arities.items()}, tuple(domain))
    return sig, clauses


def parse_clit_line(text: str, sig: Signature, line: int) -> tuple[Lit, Constraint]:
    """One `literal :: constraint` line (number `line`) over `sig`'s
    predicates; bare literals mean TOP.  Lhs variables must be the literal's
    and rhs variables must not be."""
    cur = _Cursor(text, line, {name: i for i, name in enumerate(sig.domain)},
                  {p: (a, 0, 0) for p, a in sig.preds.items()})
    lit = cur.literal()
    if lit.pred not in sig.preds:
        _, ln, co = cur.arities[lit.pred]
        raise ParseError(f"undeclared predicate {lit.pred!r}", ln, co)
    pi = cur.constraint() if cur.accept("::") else TOP
    if (t := cur.peek()) is not None:
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    for name, var in cur.varmap.items():
        if var in lvars(pi) and var not in lit.args:
            t = cur.lhs_at[name]
            raise ParseError(f"lhs variable {name!r} is not in the literal",
                             t.line, t.col)
        if var in lit.args and name in cur.rhs_at:
            t = cur.rhs_at[name]
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
