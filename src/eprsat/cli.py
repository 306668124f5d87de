"""Command-line entry point.

`--check` audits every rule application and compares the verdict, and a
sat model, with the ground oracle; it prints one JSON record.

Exit codes follow the SAT-solver convention: 10 satisfiable, 20
unsatisfiable, 1 error (including usage errors, parse failures, a rejected
script decision, the step cap and a trace or model file that cannot be
written), 2 check-mode disagreement or audit violation.
"""
from __future__ import annotations

import argparse
import json
import sys

from .audit import Auditor
from .oracle import OracleCeiling, brute_sat, gen_benchmark
from .parser import ParseError, parse_problem, parse_script
from .render import render_model, render_trace
from .solver import RuleRejected, RunConfig, Solver


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):
        # exit 2 means a failed check here, so usage errors exit 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_argparser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="eprsat",
        description="Model-building satisfiability for function-free clauses",
    )
    source = ap.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", metavar="FILE", help="problem file")
    source.add_argument("--bench", metavar="N,K",
                        help="solve the built-in benchmark family instead")
    ap.add_argument("--trace", metavar="FILE", help="write the rule trace here")
    ap.add_argument("--model", metavar="FILE", help="write the model document here")
    ap.add_argument("--script", metavar="FILE", help="decision script to replay")
    ap.add_argument("--seed", type=int, default=None, help="decision tie-break seed")
    ap.add_argument("--max-steps", type=int, default=1_000_000)
    ap.add_argument("--check", action="store_true",
                    help="audit every rule application and compare against the "
                         "ground oracle")
    ap.add_argument("--no-simplify", action="store_true",
                    help="skip preprocessing simplifications")
    return ap


def main(argv=None) -> int:
    args = build_argparser().parse_args(argv)
    try:
        if args.bench:
            try:
                n, k = (int(x) for x in args.bench.split(","))
            except ValueError:
                raise ValueError("--bench expects N,K (two integers), "
                                 f"got '{args.bench}'") from None
            sig, clauses = gen_benchmark(n, k)
        else:
            with open(args.input, encoding="utf-8") as f:
                sig, clauses = parse_problem(f.read())
        script = None
        if args.script:
            with open(args.script, encoding="utf-8") as f:
                script = parse_script(f.read(), sig)
        cfg = RunConfig(
            max_steps=args.max_steps,
            seed=args.seed,
            script=script,
            simplify=not args.no_simplify,
        )
    except (OSError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    auditor = Auditor(sig, clauses) if args.check else None
    solver = Solver(sig, clauses, cfg, auditor=auditor)
    try:
        verdict = solver.solve()
    except RuleRejected as exc:
        if script is None:
            raise
        print(f"error: decision script rejected: {exc}", file=sys.stderr)
        return 1

    try:
        if args.trace:
            with open(args.trace, "w", encoding="utf-8") as f:
                f.write(render_trace(verdict.trace))
        if args.model and verdict.status == "sat":
            with open(args.model, "w", encoding="utf-8") as f:
                f.write(render_model(sig, verdict.model))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if verdict.status == "stepcap":
        print("error: step cap exceeded", file=sys.stderr)
        return 1

    if args.check:
        code = _run_checks(verdict, auditor, args.seed)
        if code:
            return code

    return 10 if verdict.status == "sat" else 20


def _run_checks(verdict, auditor, seed) -> int:
    """The solve against its audits and the ground oracle: prints a message
    for every failed check, then the JSON record, and returns 2 if any check
    failed.  The oracle reads the audit's grounding of the input, and
    `verdict_oracle` stays None, with a message, over its ceiling.
    """
    violations = auditor.violations
    record = {
        "seed": seed,
        "verdict_nrcl": verdict.status,
        "verdict_oracle": None,
        "steps": verdict.steps,
        "learned": verdict.learned,
        "audits_passed": not violations,
    }
    notes = [f"audit violation: {v}" for v in violations]
    try:
        model = brute_sat(auditor.input_ground)
    except OracleCeiling as exc:
        notes.append(f"check: oracle skipped ({exc})")
    else:
        oracle = "sat" if model is not None else "unsat"
        record["verdict_oracle"] = oracle
        if oracle != verdict.status:
            notes.append(f"check: verdict {verdict.status} but oracle says {oracle}")
    if verdict.status == "sat":
        # the audit verified this model at Success, for every sat verdict
        ok, witness = auditor.model_check
        record["model_verified"] = ok
        if not ok:
            notes.append(f"check: model fails on {witness}")
    for note in notes:
        print(note, file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    failed = (not record["audits_passed"]
              or record["verdict_oracle"] not in (None, verdict.status)
              or record.get("model_verified") is False)
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
