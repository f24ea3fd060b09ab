"""Measure a baseline: ten seeds per workload, and their spread per metric.

    python3 bench/baseline.py --seconds 35 --out bench/baseline-seed.json
    python3 bench/baseline.py --workloads sweep --seeds 1-5 --seconds 35

Run from the repository root.  Each run is `bench/run.py --trace 0`, one
after another; with `--traced`, one `--trace 1` run per workload at the
first seed follows.  Prints, per workload and end-to-end metric, the median
and the spread (first to third quartile, from statistics.quantiles(n=4),
over the median) and, with `--out`, writes every run's report lines and
result line as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REPORT_ONLY = ("tail_ms",)  # printed by run.py, not declared in BENCHMARK.json


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True).stdout
    lines = out.splitlines()
    record: dict = {"seed": seed, "report": [line for line in lines[:-1] if line.startswith(("# ", "tail_ms is"))]}
    for line in lines[:-1]:
        name, *rest = line.split()
        if name in REPORT_ONLY and rest[0] != "is":
            record[name] = float(rest[0])
    record["result"] = json.loads(lines[-1])
    return record


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in declared["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="a seed or a range lo-hi")
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--traced", action="store_true", help="add one --trace 1 run per workload")
    parser.add_argument("--out", type=Path)
    ns = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    doc: dict = {"seconds": ns.seconds, "workloads": {}}
    for workload in ns.workloads.split(","):
        runs = [bench(workload, seed, ns.seconds, 0) for seed in seeds(ns.seeds)]
        summary = {}
        for name in [*bounds, *REPORT_ONLY]:
            values = [r["result"]["metrics"][name]["value"] if name in bounds else r[name] for r in runs]
            summary[name] = spread(values)
            bound = bounds.get(name)
            mark = "" if bound is None else f"  bound {bound:g}" + ("  over a third of it" if summary[name]["spread"] > bound / 3 else "")
            print(f"{workload:<13} {name:<12} median {summary[name]['median']:<12.6g} spread {summary[name]['spread']:.3f}{mark}")
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        correct = all(r["result"]["correct"] for r in runs)
        print(f"{workload:<13} correct={correct} failed={failed} attempted={attempted}")
        doc["workloads"][workload] = {"summary": summary, "runs": runs}
        if ns.traced:
            doc["workloads"][workload]["traced"] = bench(workload, seeds(ns.seeds)[0], ns.seconds, 1)
    if ns.out:
        ns.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
