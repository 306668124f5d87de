"""The committed `BENCH_*.json` files: each one carries a parent and a
change value for every end-to-end metric on every workload that
`BENCHMARK.json` declares, plus the `src/` line count of both sides."""
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def test_bench_files_cover_every_workload_and_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    missing = []
    for path in files:
        bench = json.loads(path.read_text(encoding="utf-8"))
        for side in ("parent", "change"):
            if not isinstance(bench.get("src_lines", {}).get(side), int):
                missing.append(f"{path.name}: src_lines.{side}")
        for w in spec["workloads"]:
            for m in spec["end_to_end"]:
                got = bench.get("workloads", {}).get(w["name"], {}).get(m["name"], {})
                missing += [f"{path.name}: {w['name']}.{m['name']}.{side}"
                            for side in ("parent", "change")
                            if not _is_number(got.get(side))]
    assert missing == []
