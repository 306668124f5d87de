"""Writers for the text forms: literals, constraints, clauses, problems,
trail entries, conflict sets, traces, and the model document.

Each form is rendered under one `Namer`, which canonicalizes variables per
expression (first occurrence gets X, then Y, Z, U, V, W, S, T, then X1, X2,
...), so output is stable across processes even though internal variable
ids are allocation-dependent.  All rendered forms parse back through the
grammar of `parser`, the readers: variables are uppercase-initial,
constants and predicates lowercase.
"""
from __future__ import annotations

from typing import Optional

from .constrained import CLit, conjunction, cover_size
from .constraints import Constraint, instantiate, normalize, subset
from .syntax import Clause, Lit, Signature, apply_lit, clause_vars

_BASE_NAMES = ("X", "Y", "Z", "U", "V", "W", "S", "T")


class Namer:
    """Text under one naming: constants by their signature names, variables
    by display names in first-use order."""

    def __init__(self, sig: Signature):
        self.sig = sig
        self.names: dict[int, str] = {}

    def term(self, t: int) -> str:
        if t >= 0:
            return self.sig.domain[t]
        if t not in self.names:
            i = len(self.names)
            self.names[t] = (_BASE_NAMES[i] if i < len(_BASE_NAMES)
                             else f"X{i - len(_BASE_NAMES) + 1}")
        return self.names[t]

    def lit_text(self, lit: Lit) -> str:
        args = "(" + ",".join(map(self.term, lit.args)) + ")" if lit.args else ""
        return ("~" if lit.neg else "") + lit.pred + args

    def pi_text(self, pi: Constraint) -> str:
        if pi.is_top:
            return "TOP"
        if pi.is_bot:
            return "BOT"

        def tup(ts):
            inner = ",".join(map(self.term, ts))
            return inner if len(ts) == 1 else f"({inner})"

        return " /\\ ".join(f"{tup(l)} != {tup(r)}" for l, r in pi.subs)

    def clause_text(self, clause: Clause) -> str:
        return " | ".join(map(self.lit_text, clause)) if clause else "false"


def render_clit(sig: Signature, lit: Lit, pi: Constraint) -> str:
    namer = Namer(sig)
    return f"{namer.lit_text(lit)} :: {namer.pi_text(pi)}"


def render_clause(sig: Signature, clause: Clause) -> str:
    return Namer(sig).clause_text(clause)


def render_problem(sig: Signature, clauses: list[Clause]) -> str:
    lines = ["domain " + " ".join(sig.domain) + " ."]
    for c in clauses:
        lines.append(render_clause(sig, c).replace("~", "-") + " .")
    return "\n".join(lines) + "\n"


def render_entry(sig: Signature, entry) -> str:
    body = render_clit(sig, entry.lit, entry.pi)
    if entry.is_decision:
        return f"[lvl {entry.level} DECIDE] {body}"
    return f"[reason C{entry.reason + 1}] {body}"


def render_conflict(sig: Signature, cs) -> str:
    namer = Namer(sig)
    clause_txt = namer.clause_text(cs.clause)
    # sigma binds clause variables only; list them in first-occurrence order
    sub_txt = ", ".join(f"{namer.term(v)}<-{namer.term(cs.sigma[v])}"
                        for v in clause_vars(cs.clause) if v in cs.sigma)
    pi_txt = namer.pi_text(cs.pi)
    head = f"(C{cs.origin + 1}) " if cs.origin is not None else ""
    return f"{head}{clause_txt} ; {{{sub_txt}}} ; {pi_txt}"


def render_trace(events) -> str:
    return "".join(f"RULE {e.rule} | level {e.level} | {e.payload}\n"
                   for e in events)


# ---------------------------------------------------------------------------
# model document

MERGE_ATOM_CAP = 6000


def merge_cover(sig: Signature, clits: list[CLit]) -> list[CLit]:
    """Greedy consolidation: drop a subconstraint of one literal when the
    widened cover equals the union with another literal's cover.

    Checked by counting, not by grounding.  The widened w contains b, so
    w = a | b exactly when a is inside w (|a & w| = |a|) and
    |w| = |a| + |b| - |a & b|.  `MERGE_ATOM_CAP` only skips predicates
    whose universe exceeds that many ground atoms; dropping it would change
    which model documents get consolidated.

    After each merge the scan restarts at the first pair, so the cover size
    of each literal is memoized for the call.  Only the literals a pair can
    widen (an `and` constraint, under the cap) are scanned as b, in order,
    so the first mergeable (i, j) wins.

    A widening is sized from b by its one new piece, not recounted.  Let w
    be b with subconstraint k dropped and tau_k = lhs_k -> rhs_k.  The
    groundings in w but not in b violate subconstraint k and solve the
    rest: exactly the groundings of b.lit * tau_k that solve the rest under
    tau_k.  That needs normal form, as the solver's model has: lhs_k is
    distinct variables of the literal and every rhs variable is apart from
    the others, so tau_k binds no rhs variable and each violating
    grounding has one instance.  Hence |w| = |b| + |(b.lit * tau_k;
    rest * tau_k)|, a count with one subconstraint fewer, over fewer
    variables.  `meet_size` passes a as `meet`'s source: a is often ground
    under TOP, which `meet` matches onto, where it would otherwise rename
    b (or w) apart with all its subconstraints on every call.  The size of
    an intersection does not depend on the order.
    """
    n = sig.n
    sizes: dict[CLit, int] = {}

    def size(cl: CLit) -> int:
        if cl not in sizes:
            sizes[cl] = cover_size(cl.lit, cl.pi, n)
        return sizes[cl]

    def meet_size(a: CLit, b: CLit) -> int:
        # counted, not kept
        c = conjunction(b, a)
        return cover_size(c.lit, c.pi, n)

    def widening(a: CLit, b: CLit) -> Optional[CLit]:
        """b with one subconstraint dropped, covering exactly a | b; None
        when no such subconstraint exists."""
        size_a = size(a)
        union = size_a + size(b) - meet_size(a, b)
        for k, (lhs, rhs) in enumerate(b.pi.subs):
            rest = subset(b.pi, b.pi.subs[:k] + b.pi.subs[k + 1:])
            w = CLit(b.lit, normalize(rest))
            if w not in sizes:
                tau = dict(zip(lhs, rhs))
                sizes[w] = sizes[b] + cover_size(
                    apply_lit(b.lit, tau), instantiate(rest, tau), n)
            if sizes[w] == union and meet_size(a, w) == size_a:
                return w
        return None

    def first_merge(out: list[CLit]) -> Optional[tuple[int, int, CLit]]:
        targets: dict[tuple[str, bool], list[int]] = {}
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


def render_model(sig: Signature, entries: list[CLit]) -> str:
    lines = ["% model"]
    for cl in entries:
        lines.append(render_clit(sig, cl.lit, cl.pi))
    lines.append("% compact")
    for cl in merge_cover(sig, entries):
        lines.append(render_clit(sig, cl.lit, cl.pi))
    lines.append("% all other atoms false")
    return "\n".join(lines) + "\n"
