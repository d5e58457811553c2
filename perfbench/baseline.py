#!/usr/bin/env python3
"""Run the benchmark over several seeds and record medians and spreads.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --out perfbench/baseline/BENCH_baseline.json

For every workload in BENCHMARK.json it runs ten untraced invocations
(seeds 0 to 9) and one traced one (seed 0), one at a time, and writes, per
end-to-end metric, the per-seed values, their median, their quartiles and
the quartile spread as a share of the median, next to the metric's bound.
Per-layer metrics are recorded from the traced invocation.  A spread at or
above a third of the bound is flagged, and the exit code is then 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = 10


def invoke(command, workload: str, seed: int, seconds: int, trace: int) -> tuple:
    argv = list(command) + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="JSON file to write")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    command = [sys.executable if bench["command"][0] == "python3" else bench["command"][0]]
    command += bench["command"][1:]

    record = {"run_seconds": bench["run_seconds"], "seeds": SEEDS, "workloads": {}}
    steady = True
    for name in (w["name"] for w in bench["workloads"]):
        details, results = [], []
        for seed in range(SEEDS):
            detail, result = invoke(command, name, seed, bench["run_seconds"], 0)
            details.append(detail)
            results.append(result)
            record.setdefault("env", detail["env"])
        entry = {"correct": all(r["correct"] for r in results),
                 "oracle_bits_identical": all(d["oracle"]["bits_identical"] for d in details),
                 "end_to_end": {}, "per_layer": {}}
        for m in bench["end_to_end"]:
            stats = spread([r["metrics"][m["name"]]["value"] for r in results])
            stats.update(unit=m["unit"], bound=m["bound"])
            entry["end_to_end"][m["name"]] = stats
            flag = stats["spread"] >= m["bound"] / 3
            steady = steady and not flag
            print(f"{name:12s} {m['name']:18s} median {stats['median']:.6g} {m['unit']:6s} "
                  f"spread {stats['spread']:.4f} (bound {m['bound']}){'  <-- wide' if flag else ''}")
        _, traced = invoke(command, name, 0, bench["run_seconds"], 1)
        entry["correct"] = entry["correct"] and traced["correct"]
        entry["per_layer"] = traced["metrics"]
        record["workloads"][name] = entry
        print(f"{name:12s} correct={entry['correct']}")

    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
