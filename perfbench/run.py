#!/usr/bin/env python3
"""ipiag benchmark: run one workload from a seed, check it, print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload toy_sweep --seed 0 --seconds 30 --trace 0

With ``--trace 0`` rounds of five set-up samples and one whole sweep
repeat while another round still fits in ``--seconds`` (at least one
round), and the end-to-end metrics are reported.  A set-up sample repeats
the set-up until it has lasted ``SETUP_SAMPLE_S`` and takes the mean.
Every time metric is in seconds at a fixed reference host speed: each
timed interval is scaled by a calibration kernel timed next to it (see
``hostclock.py``); the raw median sweep time is in the detail line.
With ``--trace 1`` untraced and traced sweeps alternate, at least two
pairs, and the per-layer split is reported from the traced ones.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (environment stamp, sample counts, failures).  The exit
code is 0 when every check passed, 1 when one failed and 2 when the
checkout holds no ipiag sources.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

# imports from the checkout leave no bytecode caches behind
sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUPS_PER_SWEEP = 5
SETUP_SAMPLE_S = 0.1
MIN_TRACED_PAIRS = 2


def git_sha(root: str):
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: str) -> str:
    """sha256 over the relative paths and contents of the package sources."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "ipiag", "*.py"))):
        digest.update(os.path.relpath(path, src).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def blas_info() -> tuple:
    """(library name and version, thread count or None)."""
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        name = None
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def environment(seed: int) -> dict:
    blas, threads = blas_info()
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "git_sha": git_sha(ROOT),
        "src_sha256": source_digest(SRC),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "seed": seed,
    }


def with_units(values: dict, declared: list) -> dict:
    """The ``declared`` metrics (a BENCHMARK.json section) with their units."""
    out = {}
    for m in declared:
        value = values[m["name"]]
        out[m["name"]] = {"value": int(value) if m["unit"] == "count" else value, "unit": m["unit"]}
    return out


def fits_another(start: float, round_start: float, seconds: float) -> bool:
    """Whether one more round as long as the last one ends within ``seconds``."""
    now = time.perf_counter()
    return now - start + (now - round_start) <= seconds


def time_setup(wl, clock, seed: int) -> tuple:
    """(context, scaled seconds per set-up) over repeats lasting ``SETUP_SAMPLE_S``."""
    reps, t0 = 0, time.perf_counter()
    clock.start()
    while True:
        ctx = None  # free the last set-up first, so peak RSS counts one problem
        ctx = wl.setup(seed, lambda problem: problem)
        reps += 1
        if time.perf_counter() - t0 >= SETUP_SAMPLE_S:
            return ctx, clock.stop()[1] / reps


def measure(wl, workloads, hostclock, seed: int, seconds: float) -> tuple:
    """End-to-end metrics with tracing off."""
    clock = hostclock.Clock(wl.calibration)
    # every set-up is mostly interpreter work (schedule generation, JSON)
    setup_clock = hostclock.Clock(hostclock.small_arrays)
    ctx, setup_times, sweeps = None, [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        # set-up samples are spread over the run, like the sweeps
        for _ in range(SETUPS_PER_SWEEP):
            ctx = None
            ctx, seconds_per_setup = time_setup(wl, setup_clock, seed)
            setup_times.append(seconds_per_setup)
        sw = workloads.Sweep(clock, keep_for_oracle=not sweeps)
        wl.sweep(ctx, sw)
        sweeps.append(sw)
        if not fits_another(start, round_start, seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    expected = wl.expected(ctx)
    wall = statistics.median(sw.wall for sw in sweeps)
    latencies_ms = np.array([t for sw in sweeps for t in sw.latencies]) * 1e3
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "us_per_iter": wall / expected["solver.iters"] * 1e6,
        "grad_evals_per_s": expected["problems.component_grads"] / wall,
        "run_ms_p50": float(np.percentile(latencies_ms, 50)),
        "run_ms_p75": float(np.percentile(latencies_ms, 75)),
        "peak_rss_mb": peak_rss_mb,
    }
    info = {"sweeps": len(sweeps), "run_samples": int(latencies_ms.size),
            "setup_samples": len(setup_times),
            "raw_wall_s": statistics.median(sw.raw_wall for sw in sweeps),
            "kernel_ms_p50": statistics.median(clock.kernels) * 1e3}
    return ctx, sweeps, values, info


def measure_traced(wl, workloads, tracing, hostclock, seed: int, seconds: float) -> tuple:
    """Per-layer metrics from traced sweeps alternating with untraced ones."""
    clock = hostclock.Clock(wl.calibration)
    tracer = tracing.Tracer()
    ctx = wl.setup(seed, lambda problem: problem)
    sweeps, pairs = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        untraced = workloads.Sweep(clock, keep_for_oracle=not sweeps)
        traced = workloads.Sweep(clock, keep_for_oracle=False)
        lo, before = tracer.mark(), dict(tracer.counts)
        for mode in ("untraced", "traced") if len(pairs) % 2 == 0 else ("traced", "untraced"):
            if mode == "untraced":
                wl.sweep(ctx, untraced)
                continue
            tracer.install(workloads)
            try:
                wl.sweep(wl.setup(seed, tracer.wrap_problem), traced)
            finally:
                tracer.uninstall()
        sweeps += [untraced, traced]
        counts = {k: tracer.counts[k] - before.get(k, 0) for k in tracer.counts}
        pairs.append((untraced.wall, traced.wall, tracer.summarize(lo, tracer.mark()), counts))
        if len(pairs) >= MIN_TRACED_PAIRS and not fits_another(start, round_start, seconds):
            break

    tracer.write_csv(os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}.csv"))
    expected = wl.expected(ctx)
    layers = [layer_values(tracing, summary, counts) for _, _, summary, counts in pairs]
    failures = cross_check(workloads.COUNT_KEYS, layers, expected)
    values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    values["trace.overhead_frac"] = (
        statistics.median(p[1] for p in pairs) / statistics.median(p[0] for p in pairs) - 1
    )
    info = {"traced_pairs": len(pairs), "expected_counts": expected,
            "count_check": failures or "pass"}
    return ctx, sweeps, values, info, failures


def layer_values(tracing, summary: dict, counts: dict) -> dict:
    """Per-layer values of one traced set-up plus sweep."""
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def span(name):
        return summary.get(name, empty)

    iters = counts.get("solver.iters", 0)
    solver_self = span(tracing.RUN)["self_s"]
    return {
        "solver.self_s": solver_self,
        "solver.self_us_per_iter": solver_self / iters * 1e6 if iters else 0.0,
        "solver.runs": span(tracing.RUN)["calls"],
        "solver.iters": iters,
        "core.objective_calls": span(tracing.SMOOTH)["calls"],
        "core.regularizer_calls": span(tracing.REGULARIZER)["calls"],
        "core.objective_s": span(tracing.SMOOTH)["s"] + span(tracing.REGULARIZER)["s"],
        "problems.block_grad_calls": span(tracing.BLOCK_GRAD)["calls"],
        "problems.block_grad_s": span(tracing.BLOCK_GRAD)["s"],
        "problems.component_grads": counts.get("problems.component_grads", 0),
        "prox.calls": span(tracing.PROX)["calls"],
        "prox.s": span(tracing.PROX)["s"],
        "schedules.gen_s": span(tracing.SCHEDULE)["s"],
        "schedules.refreshes": counts.get("schedules.refreshes", 0),
        "rng.instance_s": span(tracing.INSTANCE)["s"],
        "problems.reference_s": span(tracing.REFERENCE)["s"],
        "rates.certify_s": span(tracing.CERTIFY)["s"],
        "rates.verify_s": span(tracing.VERIFY)["s"],
        "solver.to_csv_s": span(tracing.TO_CSV)["s"],
        "plotting.svg_s": span(tracing.SVG)["s"],
        "cli.self_s": span(tracing.CLI)["self_s"],
    }


def cross_check(keys, layers: list, expected: dict) -> list:
    """Traced counts must equal the schedule-derived ones and repeat exactly."""
    failures = []
    for key in keys:
        seen = [layer[key] for layer in layers]
        if any(v != expected[key] for v in seen):
            failures.append(f"count {key}: traced {seen}, derived {expected[key]}")
    regularizer = [layer["core.regularizer_calls"] for layer in layers]
    if regularizer != [layer["core.objective_calls"] for layer in layers]:
        failures.append(f"count core.regularizer_calls {regularizer} != objective calls")
    return failures


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    parser = argparse.ArgumentParser(description="ipiag benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    if not os.path.isfile(os.path.join(SRC, "ipiag", "__init__.py")):
        print(f"error: no ipiag sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # outputs must not depend on the caller's float-format setting
    os.environ.pop("IPIAG_FLOAT_DIGITS", None)
    import hostclock
    import ipiag
    import tracing
    import workloads

    if os.path.dirname(os.path.abspath(ipiag.__file__)) != os.path.join(SRC, "ipiag"):
        print(f"error: imported ipiag from {ipiag.__file__}, not {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]()

    check_failures = []
    if args.trace:
        ctx, sweeps, values, info, check_failures = measure_traced(
            wl, workloads, tracing, hostclock, args.seed, args.seconds
        )
    else:
        ctx, sweeps, values, info = measure(wl, workloads, hostclock, args.seed, args.seconds)
    metrics = with_units(values, config["per_layer" if args.trace else "end_to_end"])

    replayed, oracle_failed, oracle_failures, identical = wl.oracle(ctx, sweeps[0].kept)
    failures = [f for sw in sweeps for f in sw.failures] + oracle_failures + check_failures
    attempted = sum(sw.attempted for sw in sweeps) + replayed + args.trace
    failed = sum(sw.failed for sw in sweeps) + oracle_failed + bool(check_failures)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": environment(args.seed),
        **info,
        "oracle": {"runs": replayed, "bits_identical": identical,
                   "rtol": workloads.oracle.RTOL, "atol_share": workloads.oracle.ATOL_SHARE},
        "fail_frac": failed / attempted,
        "failures": failures[:20],
        "metrics": metrics,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
