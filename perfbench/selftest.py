"""The benchmark's own test.  Run from the repository root:

    python3 perfbench/selftest.py

It runs one short traced run of every workload and one untraced run, and
checks that:
- every solve passes the referee and nothing drifts from record.json;
- the metric names printed are exactly those BENCHMARK.json lists;
- every listed wrapper fired on some workload;
- no wrapper is installed after a traced run, and an untraced pass refuses
  to start while one is.
It then prints the profile shape the workloads were chosen for (the largest
solve-phase self time on each, and merge_cover's share of render_s on
ladder).  Those lines are findings, not assertions: optimisations are meant
to change them.  About two minutes on 2 CPUs.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import run

BENCH = json.loads((Path(__file__).resolve().parent.parent
                    / "BENCHMARK.json").read_text())


def invoke(workload: str, trace: int, seconds: float = 1) -> tuple[dict, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "1",
                         "--seconds", str(seconds), "--trace", str(trace)])
    lines = buf.getvalue().splitlines()
    assert code == 0, lines
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def main() -> int:
    run.load_program()
    end_to_end = [m["name"] for m in BENCH["end_to_end"]]
    per_layer = [m["name"] for m in BENCH["per_layer"]]
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert per_layer == run.per_layer_names()

    _, result = invoke("ladder", 0)
    assert result["correct"] and result["failed"] == 0, result
    assert list(result["metrics"]) == end_to_end, list(result["metrics"])

    import tracing
    fired: set[str] = set()
    profile = {}
    for workload in run.WORKLOADS:
        report, result = invoke(workload, 1)
        assert result["correct"] and result["failed"] == 0, report["failures"]
        assert list(result["metrics"]) == per_layer
        assert report["n_nondeterministic"] == 0, report["nondeterministic"]
        assert report["n_record_drift"] == 0, report["record_drift"]
        assert tracing.installed_wrappers() == []
        fired |= set(report["wrappers_fired"])
        profile[workload] = (report, {k: v["value"]
                                      for k, v in result["metrics"].items()})
    missing = set(tracing.wrapper_names()) - fired
    assert not missing, f"wrappers that never fired: {sorted(missing)}"

    # the guard in run_passes: no timed pass with a wrapper installed
    import speed
    import workloads
    with tracing.Tracer().install():
        try:
            run.run_passes("ladder", workloads.instances("ladder", 1),
                           run.Referee("ladder", {}), 1, speed.SpeedMeter())
        except RuntimeError:
            pass
        else:
            raise AssertionError("an untraced pass ran with wrappers installed")
    assert tracing.installed_wrappers() == []
    print("selftest: PASS contract, wrapper coverage and restore checks")

    expect = {"ladder": "derive", "probe": "constrained.cover",
              "coloring": "solver.backjump_level", "check": "audit"}
    for workload, (report, m) in profile.items():
        spans = report["solve_self_s_top"]
        layers = {k.split(".")[1]: v for k, v in m.items()
                  if k.startswith("solve.") and k.endswith(".self_s")}
        top_span, top_layer = spans[0][0], max(layers, key=layers.get)
        want = expect[workload]
        seen = top_layer if "." not in want else top_span
        print(f"profile {workload}: largest solve-phase span {top_span}, "
              f"layer {top_layer} (chosen for {want}: "
              f"{'holds' if seen == want else 'CHANGED'})")
    m = profile["ladder"][1]
    share = m["render.merge_cover.total_s"] / m["render_s"]
    print(f"profile ladder: merge_cover (traced, children included) is "
          f"{share:.0%} of render_s (untraced)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
