"""Benchmark: time to verdict end to end, and self time per layer.

Run from the repository root:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop: a pass solves each of the
workload's instances once, one at a time, and the next pass starts when it
ends, until `--seconds` have gone by (at least one pass).  Every solve is
judged: a wrong verdict, a step cap, an exception, an audit violation or a
model that fails verification fails it.

`--trace 0` runs with no wrapper installed and reports the end-to-end
metrics as medians over passes.  `--trace 1` first runs untraced passes for a
third of the time, then traced passes (see tracing.py), and reports the
per-layer metrics as medians over the traced passes, plus the tracing
overhead (traced minus untraced wall time per pass).

Each instance's verdict, step, learned-clause and backjump counts and trace
and model SHA-256 are compared with the previous passes of this process
(determinism) and with the committed `record.json` (drift); differences are
printed as findings.  `--write-record` stores this run's figures there.

The last line of standard output is the result as one JSON object.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORD = HERE / "record.json"
WORKLOADS = ("ladder", "probe", "coloring", "check")
RULES = ("Propagate", "Decide", "Conflict", "Skip", "Resolve", "Factorize",
         "Backjump", "Success", "Failure")
SHOW = 5            # findings printed per kind


def load_program() -> None:
    """Import eprsat from this checkout's sources, and nothing else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import eprsat
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import eprsat from {src}: {exc}")
    if Path(eprsat.__file__).resolve().parent != src / "eprsat":
        sys.exit(f"perfbench: eprsat was imported from {eprsat.__file__}, "
                 f"not from {src}")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# the referee

def verdict_counts() -> dict[str, int]:
    """Per-pass totals read from the public Verdict, all zero."""
    return dict.fromkeys([f"solver.rules.{r}" for r in RULES]
                         + ["solver.steps", "solver.learned", "solver.backjumps"], 0)


class Referee:
    """Judges every solve, and compares each instance's figures across passes
    and with the committed record."""

    def __init__(self, workload: str, record: dict):
        self.recorded = record.get(workload, {})
        self.seen: dict[str, dict] = {}          # first solve in this process
        self.verified: set[tuple[str, str]] = set()
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.drift: dict[str, dict] = {}
        self.nondeterministic: dict[str, dict] = {}

    def judge(self, outs) -> dict:
        """Judge one pass; returns its verdict counts."""
        from eprsat import oracle

        counts = verdict_counts()
        for out in outs:
            self.attempted += 1
            fig = self._figures(out)
            problem = self._problem(out, fig, oracle)
            if problem:
                self.failed += 1
                self.failures.append(f"{out.inst.name}: {problem}")
                continue
            v = out.verdict
            for ev in v.trace:
                counts[f"solver.rules.{ev.rule}"] += 1
            counts["solver.steps"] += v.steps
            counts["solver.learned"] += v.learned
            counts["solver.backjumps"] += v.backjumps
            name = out.inst.name
            first = self.seen.setdefault(name, fig)
            if fig != first:
                self.nondeterministic.setdefault(name, {"first": first, "now": fig})
            if self.recorded.get(name) != fig:
                self.drift.setdefault(name, {"recorded": self.recorded.get(name),
                                             "now": fig})
        return counts

    @staticmethod
    def _figures(out) -> dict:
        v = out.verdict
        if v is None:
            return {}
        return {"status": v.status, "steps": v.steps, "learned": v.learned,
                "backjumps": v.backjumps, "trace_sha256": sha256(out.trace_text),
                "model_sha256": sha256(out.model_text)}

    def _problem(self, out, fig: dict, oracle):
        if out.error:
            return out.error
        status = out.verdict.status
        if status == "stepcap":
            return "step cap"
        if out.violations:
            return f"audit violation: {out.violations[0]}"
        if out.oracle is not None and out.oracle != status:
            return f"verdict {status}, the oracle says {out.oracle}"
        if out.inst.expect is not None and status != out.inst.expect:
            return f"verdict {status}, expected {out.inst.expect}"
        if status != "sat":
            return None
        ok = out.model_ok
        key = (out.inst.name, fig["model_sha256"])
        if ok is None:
            # outside `check` the model is verified untimed, once per distinct
            # model document of an instance
            ok = key in self.verified or oracle.verify_model(
                out.verdict.model, out.sig, out.clauses)[0]
        if not ok:
            return "the model fails verification"
        self.verified.add(key)
        return None

    def findings(self) -> dict:
        return {"failures": self.failures[:SHOW],
                "nondeterministic": dict(list(self.nondeterministic.items())[:SHOW]),
                "record_drift": dict(list(self.drift.items())[:SHOW]),
                "n_nondeterministic": len(self.nondeterministic),
                "n_record_drift": len(self.drift)}


# ---------------------------------------------------------------------------
# passes

def run_passes(workload, insts, referee, seconds, meter, tracer=None) -> list[dict]:
    """Closed loop of passes for `seconds` (at least one); one sample each,
    its times scaled to the reference speed (see speed.py)."""
    import tracing
    import workloads

    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        if tracer is None:
            left = tracing.installed_wrappers()
            if left:
                raise RuntimeError(f"wrappers installed in an untraced pass: {left}")
        else:
            tracer.reset()
        gc.collect()
        meter.tick()
        times, outs = workloads.run_pass(workload, insts, meter.clock)
        meter.tick()
        speed = meter.take()
        sample = dict(times)
        if tracer is not None:
            sample.update(tracer.metrics())
            sample.update({f"solvespan.{k}": v
                           for k, v in tracer.solve_self_s().items()})
        sample = {k: v * speed if k.endswith("_s") else v
                  for k, v in sample.items()}
        sample.update(raw_wall_s=times["wall_s"], speed=speed)
        sample.update(referee.judge(outs))
        samples.append(sample)
        del outs    # or the next pass's peak RSS includes this pass's outcomes
    return samples


def medians(samples: list[dict]) -> dict[str, float]:
    keys = {k for s in samples for k in s}
    return {k: statistics.median(s.get(k, 0.0) for s in samples) for k in keys}


def spread(samples: list[dict], key: str) -> dict:
    vals = sorted(s[key] for s in samples)
    q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
    return {"n": len(vals), "q1": q[0], "median": q[1], "q3": q[2],
            "min": vals[0], "max": vals[-1]}


def stamp() -> dict:
    src = ROOT / "src" / "eprsat"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted(src.glob("*.py")))
    return {"commit": _commit(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg": os.getloadavg(),
            "src_lines": lines}


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def dump_record(record: dict) -> str:
    """One line per instance, so a diff names the instances that moved."""
    parts = []
    for w in sorted(record):
        rows = ",\n".join(f"  {json.dumps(name)}: {json.dumps(fig, sort_keys=True)}"
                          for name, fig in sorted(record[w].items()))
        parts.append(f" {json.dumps(w)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def per_layer_names() -> list[str]:
    """The `--trace 1` metrics, in the order BENCHMARK.json lists them."""
    import tracing
    return (list(tracing.Tracer().metrics()) + list(verdict_counts())
            + ["render_s", "check_s", "trace.overhead_s"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--write-record", action="store_true",
                    help="store this run's per-instance figures in record.json")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    load_program()
    started = time.perf_counter()
    import speed
    import tracing
    import workloads

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "stamp": stamp()}
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    insts = workloads.instances(args.workload, args.seed)
    referee = Referee(args.workload, record)

    meter = speed.SpeedMeter()
    if args.trace == 0:
        with meter:
            samples = run_passes(args.workload, insts, referee, args.seconds, meter)
        med = medians(samples)
        metrics = {k: med[k] for k in ("wall_s", "setup_s", "solve_s")}
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        tracer = tracing.Tracer(meter.clock)
        with meter:
            samples = run_passes(args.workload, insts, referee, args.seconds / 3,
                                 meter)
            with tracer.install():
                rest = args.seconds - (time.perf_counter() - started)
                traced = run_passes(args.workload, insts, referee, rest, meter,
                                    tracer)
        left = tracing.installed_wrappers()
        if left:
            raise RuntimeError(f"wrappers left installed: {left}")
        med, plain = medians(traced), medians(samples)
        med.update(render_s=plain["render_s"], check_s=plain["check_s"])
        med["trace.overhead_s"] = med["wall_s"] - plain["wall_s"]
        metrics = {k: med[k] for k in per_layer_names()}
        solve_spans = {k.split(".", 1)[1]: v for k, v in med.items()
                       if k.startswith("solvespan.")}
        report.update(
            traced_passes=len(traced),
            solve_self_s_top=sorted(solve_spans.items(), key=lambda kv: -kv[1])[:8],
            wrappers_fired=sorted(tracer.fired),
            wrappers_not_fired=sorted(set(tracing.wrapper_names()) - tracer.fired))

    report["passes"] = {k: spread(samples, k) for k in
                        ("wall_s", "setup_s", "solve_s", "render_s", "check_s",
                         "raw_wall_s", "speed")}
    report.update(referee.findings())
    print(f"perfbench {args.workload}: {len(samples)} untraced passes, "
          f"{referee.attempted} solves, {referee.failed} failed, "
          f"{report['n_nondeterministic']} nondeterministic, "
          f"{report['n_record_drift']} drifted from the record")
    for msg in referee.failures[:SHOW]:
        print(f"FAILED {msg}")
    for name in list(referee.nondeterministic)[:SHOW]:
        print(f"NONDETERMINISTIC {name}: {referee.nondeterministic[name]}")
    for name in list(referee.drift)[:SHOW]:
        print(f"DRIFT {name}: {referee.drift[name]}")
    print(json.dumps({"report": report}, sort_keys=True))

    if args.write_record:
        record[args.workload] = dict(sorted(referee.seen.items()))
        RECORD.write_text(dump_record(record))

    result = {
        "correct": referee.failed == 0,
        "attempted": referee.attempted,
        "failed": referee.failed,
        "metrics": {k: {"value": v, "unit": "MB" if k == "peak_rss_mb" else unit(k)}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
