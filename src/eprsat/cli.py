"""Command-line entry point.

Exit codes follow the SAT-solver convention: 10 satisfiable, 20
unsatisfiable, 1 error (including parse failures and the step cap),
2 check-mode disagreement or audit violation.
"""
from __future__ import annotations

import argparse
import sys

from .audit import Auditor
from .oracle import (
    OracleCeiling,
    brute_sat,
    gen_benchmark,
    ground_problem,
    verify_model,
)
from .parser import ParseError, parse_problem, parse_script
from .render import render_model, render_trace
from .solver import RunConfig, Solver


def build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="eprsat",
        description="Model-building satisfiability for function-free clauses",
    )
    ap.add_argument("--input", metavar="FILE", help="problem file")
    ap.add_argument("--bench", metavar="N,K",
                    help="solve the built-in benchmark family instead")
    ap.add_argument("--trace", metavar="FILE", help="write the rule trace here")
    ap.add_argument("--model", metavar="FILE", help="write the model document here")
    ap.add_argument("--script", metavar="FILE", help="decision script to replay")
    ap.add_argument("--seed", type=int, default=None, help="decision tie-break seed")
    ap.add_argument("--max-steps", type=int, default=1_000_000)
    ap.add_argument("--check", action="store_true",
                    help="audit every rule application and compare against the "
                         "ground oracle")
    ap.add_argument("--no-index", action="store_true",
                    help="disable the optional watched-literal layer")
    ap.add_argument("--index", action="store_true",
                    help="enable the optional watched-literal layer")
    ap.add_argument("--no-simplify", action="store_true",
                    help="skip preprocessing simplifications")
    return ap


def main(argv=None) -> int:
    args = build_argparser().parse_args(argv)
    try:
        if args.bench:
            n, k = (int(x) for x in args.bench.split(","))
            sig, clauses = gen_benchmark(n, k)
        elif args.input:
            with open(args.input, encoding="utf-8") as f:
                sig, clauses = parse_problem(f.read())
        else:
            print("error: need --input or --bench", file=sys.stderr)
            return 1
        script = None
        if args.script:
            with open(args.script, encoding="utf-8") as f:
                script = parse_script(f.read(), sig)
    except (OSError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    cfg = RunConfig(
        max_steps=args.max_steps,
        seed=args.seed,
        script=script,
        use_watch_index=args.index and not args.no_index,
        simplify=not args.no_simplify,
    )
    auditor = Auditor(sig, clauses) if args.check else None
    solver = Solver(sig, clauses, cfg, auditor=auditor)
    verdict = solver.solve()

    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as f:
            f.write(render_trace(verdict.trace))
    if args.model and verdict.status == "sat":
        with open(args.model, "w", encoding="utf-8") as f:
            f.write(render_model(sig, verdict.model))

    if verdict.status == "stepcap":
        print("error: step cap exceeded", file=sys.stderr)
        return 1

    if args.check:
        code = _run_checks(sig, clauses, verdict, auditor, args.seed)
        if code:
            return code

    return 10 if verdict.status == "sat" else 20


def _run_checks(sig, clauses, verdict, auditor, seed) -> int:
    import json

    record = {
        "seed": seed,
        "verdict_nrcl": verdict.status,
        "verdict_oracle": None,
        "steps": verdict.steps,
        "learned": verdict.learned,
        "audits_passed": not auditor.violations,
    }
    code = 0
    if auditor.violations:
        for v in auditor.violations:
            print(f"audit violation: {v}", file=sys.stderr)
        code = 2
    try:
        gp = ground_problem(sig, clauses)
        oracle = "sat" if brute_sat(gp) is not None else "unsat"
        record["verdict_oracle"] = oracle
        if oracle != verdict.status:
            print(f"check: verdict {verdict.status} but oracle says {oracle}",
                  file=sys.stderr)
            code = 2
        if verdict.status == "sat":
            ok, witness = verify_model(verdict.model, sig, clauses)
            record["model_verified"] = ok
            if not ok:
                print(f"check: model fails on {witness}", file=sys.stderr)
                code = 2
    except OracleCeiling as exc:
        print(f"check: oracle skipped ({exc})", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
