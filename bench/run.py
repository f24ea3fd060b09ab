"""lagcut benchmark: one closed-loop client, one process, stdlib only.

    python3 bench/run.py --workload query-mix --seed 1 --seconds 15 --trace 0

Run from the repository root.  The benchmark imports lagcut from `src/`,
generates the workload's inputs from the seed, times each operation at the
public entry point (`lagcut.cli.run`, or a check of `lagcut.obstruct`),
checks every output against the independent oracles in `oracles.py`, and
prints a readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the result carries the end-to-end metrics BENCHMARK.json
declares (setup_s, ops_per_s, rows_per_s, p50_ms, peak_rss_mb); the report
also prints tail_ms and fail_ratio.  With `--trace 1` the run
alternates untraced rounds with rounds in which every public function of
the six layers is wrapped (see `tracing.py`), and the metrics are the
per-layer ones that BENCHMARK.json declares; the span records go to
`bench/out/spans-<workload>.tsv`.
"""

from __future__ import annotations

import argparse
import collections
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracles
import workloads
from tracing import LAYERS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 21
IMPORT_SPAWNS = 5
DIGEST_ROUNDS = 50
CRASH = "crash"
SPEED_EVERY = 0.05  # s of loop time between two samples of the machine's speed
SPEED_WINDOW = 20  # samples in the running mean that scales each time
REFERENCE_S = 0.003  # time of reference_work() at the reference speed
BARE_REFERENCE_S = 0.06  # time of a bare `python -c pass` spawn at the reference speed

clock = time.perf_counter


def reference_work() -> None:
    """A fixed piece of pure-Python work of the kinds lagcut does.

    It builds and runs a small argparse tree, sums fractions and loops over
    ints, dicts and strings, with nothing from lagcut, so its time measures
    the speed the machine gives the interpreter at that moment.
    """
    parser = argparse.ArgumentParser(prog="reference")
    sub = parser.add_subparsers(dest="cmd")
    for name in ("one", "two", "three"):
        sp = sub.add_parser(name)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--format", choices=["text", "json"], default="text")
    parser.parse_args(["two", "--n", "7", "--format", "json"])
    total = sum((Fraction(k, k + 1) for k in range(1, 100)), Fraction(0))
    acc, table = 0, {}
    for i in range(3000):
        acc = (acc * 31 + i) % 1000003
        table[i & 63] = f"{acc:x}"
    json.dumps({"total": str(total), "table": table}, sort_keys=True)


class Speedometer:
    """The machine's current speed, from the time of reference_work().

    A shared host runs this interpreter at two speeds up to 1.8 times
    apart, switching within milliseconds, and the share of slow time drifts
    over seconds and minutes.  Each measured time is multiplied by `scale`,
    REFERENCE_S over the mean of the last SPEED_WINDOW reference times (the
    last second or so), which gives the time the same work takes at the
    reference speed.
    """

    def __init__(self) -> None:
        self.samples = collections.deque((self.time() for _ in range(SPEED_WINDOW)), maxlen=SPEED_WINDOW)

    @staticmethod
    def time() -> float:
        t0 = clock()
        reference_work()
        return clock() - t0

    def sample(self) -> float:
        """Time the reference work once more; return the time it took."""
        self.samples.append(self.time())
        return self.samples[-1]

    @property
    def scale(self) -> float:
        return REFERENCE_S * len(self.samples) / sum(self.samples)


class Runner:
    """Executes ops against the imported package and keeps the gate's tally."""

    def __init__(self, round_size: int) -> None:
        import lagcut.cli
        import lagcut.obstruct

        self.cli = lagcut.cli
        self.obstruct = lagcut.obstruct
        self.digest = hashlib.sha256()
        self.digest_ops = DIGEST_ROUNDS * round_size
        self.executed = 0
        self.wrong = 0

    def execute(self, op, digest: bool = True) -> tuple[float, str, int]:
        """Run one op; return (latency in s, outcome, correct rows)."""
        _, entry, args = op
        if entry == "cli.run":
            fn, call_args = self.cli.run, (list(args),)
        else:
            fn, call_args = getattr(self.obstruct, entry), args
        t0 = clock()
        try:
            result = fn(*call_args)
        except Exception as exc:  # an escaping exception is a failed op, not the end of the run
            latency = clock() - t0
            outcome, rows, canonical = CRASH, 0, f"raise {type(exc).__name__}"
        else:
            latency = clock() - t0
            if entry != "cli.run":
                outcome = oracles.check_library(entry, args, result)
                rows = 1
                canonical = json.dumps(result.to_json_dict(), sort_keys=True)
            elif args[0] == "scan":
                outcome, rows = oracles.check_scan(args, *result)
                canonical = f"{result[0]}\n{result[1]}"
            else:
                outcome = oracles.check_cli(args, *result)
                rows = 1
                canonical = f"{result[0]}\n{result[1]}"
        if digest:
            if self.executed < self.digest_ops:
                self.digest.update(canonical.encode())
            self.executed += 1
        self.wrong += outcome == oracles.WRONG
        return latency, outcome, rows if outcome == oracles.OK else 0

    def loop(self, ops, seconds: float, round_size: int, setup_code: str | None, tracer: Tracer | None) -> tuple:
        """Run ops for `seconds` of loop time; return (untraced records, traced records, setup pairs).

        A record is (latency in s, latency scaled to the reference speed,
        outcome, correct rows).  The machine's speed is sampled every
        SPEED_EVERY s of loop time.  Whatever is compared or reported
        alongside the op latencies is sampled across the whole run: with
        `setup_code`, a bare interpreter and then one that runs it are timed
        at the start of each SETUP_SPAWNS-th part of the run, and with a
        tracer, untraced and traced rounds alternate.  Speed samples and
        spawns are not loop time.
        """
        gc.collect()
        speed = Speedometer()
        plain: list[tuple[float, float, str, int]] = []
        traced: list[tuple[float, float, str, int]] = []
        setup: list[tuple[float, float]] = []  # (bare spawn, setup_code spawn) in s
        spawns = SETUP_SPAWNS if setup_code is not None else 0
        start, paused, n, sampled = clock(), 0.0, 0, 0.0
        try:
            while (elapsed := clock() - start - paused) < seconds:
                if elapsed >= sampled + SPEED_EVERY:
                    paused += speed.sample()
                    sampled = elapsed
                if len(setup) < spawns and elapsed >= len(setup) * seconds / spawns:
                    setup.append((time_spawn("pass"), time_spawn(setup_code)))
                    paused += sum(setup[-1])
                    continue
                on = tracer is not None and (n // round_size) % 2 == 1
                if tracer is not None and n % round_size == 0:
                    if on:
                        tracer.install()
                    else:
                        tracer.uninstall()
                if on:
                    tracer.op_id = self.executed
                latency, outcome, rows = self.execute(next(ops))
                (traced if on else plain).append((latency, latency * speed.scale, outcome, rows))
                n += 1
        finally:
            if tracer is not None:
                tracer.uninstall()
        return plain, traced, setup


def summarize(records: list[tuple[float, float, str, int]], tail_p: float) -> dict:
    """Gate tally and timing metrics of a run; times are at the reference speed."""
    latencies = sorted(r[1] for r in records)
    busy = sum(latencies)
    ok = sum(1 for r in records if r[2] == oracles.OK)
    n = len(latencies)
    tail_rank = max(math.ceil(n * tail_p / 100), 1)  # nearest rank
    outcomes: dict[str, int] = {}
    for r in records:
        outcomes[r[2]] = outcomes.get(r[2], 0) + 1
    return {
        "attempted": n,
        "failed": n - ok,
        "outcomes": outcomes,
        "ops_per_s": ok / busy,
        "rows_per_s": sum(r[3] for r in records) / busy,
        "p50_ms": statistics.median(latencies) * 1e3,
        "tail_ms": latencies[tail_rank - 1] * 1e3,
        "tail_p": tail_p,
        "tail_beyond": n - tail_rank,
        "raw_ops_per_s": ok / sum(r[0] for r in records),
        "raw_p50_ms": statistics.median(r[0] for r in records) * 1e3,
    }


def _spawn(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)


def first_op_code(op) -> str:
    _, entry, args = op
    call = (
        f"from lagcut.cli import run; run({list(args)!r})"
        if entry == "cli.run"
        else f"from lagcut.obstruct import {entry}; {entry}(*{tuple(args)!r})"
    )
    return f"import sys; sys.path.insert(0, {str(SRC)!r}); {call}"


def time_spawn(code: str) -> float:
    """Wall time for a fresh interpreter to run code."""
    t0 = clock()
    _spawn([sys.executable, "-c", code])
    return clock() - t0


def measure_imports() -> dict[str, float]:
    """Per-module import self time in ms, median over fresh interpreters."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import lagcut, lagcut.cli"
    samples: dict[str, list[float]] = {}
    for i in range(IMPORT_SPAWNS + 1):
        stderr = _spawn([sys.executable, "-X", "importtime", "-c", code]).stderr
        if i == 0:
            continue  # the first spawn writes the bytecode caches
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, name = (part.strip() for part in line[12:].split("|"))
            if not self_us.isdigit():
                continue
            if name in ("lagcut", "lagcut.cli"):
                samples.setdefault(f"{name}.cumulative", []).append(int(cumulative_us) / 1e3)
            if name.startswith("lagcut."):
                samples.setdefault(name[len("lagcut."):], []).append(int(self_us) / 1e3)
    out = {f"{layer}.import_ms": statistics.median(samples[layer]) for layer in LAYERS}
    out["lagcut.import_ms"] = statistics.median(samples["lagcut.cumulative"]) + statistics.median(
        samples["lagcut.cli.cumulative"]
    )
    return out


def source_lines() -> int:
    return sum(
        1 for path in sorted((SRC / "lagcut").glob("*.py")) for line in path.read_text().splitlines() if line.strip()
    )


def declared_metrics(key: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[key]


def is_function_metric(name: str) -> bool:
    """True for <layer>.<function>.{calls,ms,self_ms}."""
    parts = name.split(".")
    return len(parts) == 3 and parts[0] in LAYERS and parts[2] in ("calls", "ms", "self_ms")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args()

    if not (SRC / "lagcut" / "__init__.py").is_file():
        print(f"error: no lagcut package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lagcut

    if Path(lagcut.__file__).resolve().parent != SRC / "lagcut":
        print(f"error: imported lagcut from {lagcut.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    ops, round_size = workloads.stream(ns.workload, ns.seed)
    first = next(ops)
    load = os.getloadavg()
    print(f"# lagcut benchmark: workload={ns.workload} seed={ns.seed} seconds={ns.seconds:g} trace={ns.trace}")
    print(
        f"# run: python={sys.version.split()[0]} nproc={os.cpu_count()} "
        f"loadavg={load[0]:.2f},{load[1]:.2f},{load[2]:.2f} src_lines={source_lines()}"
    )

    metrics: dict[str, tuple[float, str]] = {}
    setup_code = None
    if ns.trace == 0:
        setup_code = first_op_code(first)
        _spawn([sys.executable, "-c", setup_code])  # writes the bytecode caches
    else:
        metrics.update((name, (ms, "ms")) for name, ms in measure_imports().items())

    runner = Runner(round_size)
    warm = [runner.execute(first)] + [runner.execute(next(ops)) for _ in range(round_size - 1)]
    tracer = Tracer() if ns.trace == 1 else None
    records, traced, setup = runner.loop(ops, ns.seconds, round_size, setup_code, tracer)
    if tracer is not None:
        tracer.write_spans(BENCH / "out" / f"spans-{ns.workload}.tsv")
    crashers = [(op, runner.execute(op, digest=False)[1]) for op in workloads.known_crashers(ns.workload, ns.seed)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tail_p = workloads.TAIL_PERCENTILE[ns.workload]
    stats = summarize(records + traced, tail_p)
    failed_warm = sum(1 for r in warm if r[1] != oracles.OK)
    print(
        f"# gate: attempted={stats['attempted']} failed={stats['failed']} outcomes={json.dumps(stats['outcomes'], sort_keys=True)} "
        f"warm-up failed={failed_warm}/{len(warm)} wrong={runner.wrong}"
    )
    covered = min(runner.executed, runner.digest_ops)
    for op, outcome in crashers:
        print(f"# known crasher, outside the timed stream: {outcome:<9} {' '.join(op[2])}")
    print(
        f"# digest: sha256:{runner.digest.hexdigest()} over the first {covered} ops ({DIGEST_ROUNDS} rounds)"
        + ("" if covered == runner.digest_ops else f" INCOMPLETE: the run ended before op {runner.digest_ops}")
    )

    if ns.trace == 0:
        # A spawn slows down with the machine the way a bare interpreter
        # start does, not the way reference_work() does, so it is scaled by
        # the bare spawn timed just before it.
        metrics["setup_s"] = (statistics.median(BARE_REFERENCE_S * t / bare for bare, t in setup), "s")
        metrics["ops_per_s"] = (stats["ops_per_s"], "1/s")
        metrics["rows_per_s"] = (stats["rows_per_s"], "1/s")
        metrics["p50_ms"] = (stats["p50_ms"], "ms")
        metrics["tail_ms"] = (stats["tail_ms"], "ms")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        print(
            f"# times are scaled to the reference speed; the machine ran at {statistics.median(r[1] / r[0] for r in records):.3f} "
            f"of it, and as measured ops_per_s={stats['raw_ops_per_s']:.6g} 1/s, p50_ms={stats['raw_p50_ms']:.6g} ms"
        )
        declared = declared_metrics("end_to_end")
    else:
        plain, with_trace = summarize(records, tail_p), summarize(traced, tail_p)
        metrics.update(tracer.metrics())
        metrics["trace.overhead_pct"] = (100 * (1 - with_trace["ops_per_s"] / plain["ops_per_s"]), "%")
        print(
            f"# untraced rounds: {plain['attempted']} ops, ops_per_s={plain['ops_per_s']:.6g}  "
            f"traced rounds: {with_trace['attempted']} ops, ops_per_s={with_trace['ops_per_s']:.6g}"
        )
        print(f"# spans: {tracer.span_count} recorded, {len(tracer.spans)} written")
        declared = declared_metrics("per_layer")
        # A declared function that the package no longer has never runs: 0.
        gone = [m for m in declared if m["name"] not in metrics and is_function_metric(m["name"])]
        for m in gone:
            metrics[m["name"]] = (0, m["unit"])
        if gone:
            print(f"# no such function, reported as 0: {sorted({m['name'].rsplit('.', 1)[0] for m in gone})}")

    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:.6g} {unit}")
    print(f"{'fail_ratio':<48} {stats['failed'] / stats['attempted']:.6g} ratio")
    print(f"{'tail_ms is':<48} p{stats['tail_p']:g} of {stats['attempted']} samples, {stats['tail_beyond']} beyond")
    if ns.trace == 0:
        print(
            f"{'setup_s is':<48} median of {len(setup)} spawns, spread over the run, each scaled by a bare spawn; "
            f"as measured {statistics.median(t for _, t in setup):.6g} s, bare {statistics.median(b for b, _ in setup):.6g} s"
        )

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: BENCHMARK.json declares metrics this run did not produce: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": runner.wrong == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
