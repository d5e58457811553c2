#!/usr/bin/env python3
"""Convergence figure on the chain-coupled quadratic.

Runs the four method variants at their certified parameters on one shared
delay schedule and writes per-variant trace CSVs plus a combined SVG with
the certified envelope overlaid.  On the same schedule, a step-size sweep
of the no-inertia method shows how far past the threshold the iteration
stays stable.  Flags: --iters (default 10000) and --out.  Fixed: 100
components, and 4 workers under tau = 4 drawn from schedule seed 0.

Example:
    python scripts/toy_figure.py --out figures/toy
"""

import argparse
import csv
import os

from ipiag import (
    SolverParams,
    ToySpec,
    inputs,
    make_toy,
    resolve_parameters,
    schedule_uniform_single,
    sweep,
    verify_linear_bound,
)
from ipiag.plotting import log_line_plot

# the chain problem's size, and the schedule's workers, staleness bound and seed
COMPONENTS, WORKERS, TAU, SEED = 100, 4, 4, 0
# figure label of each run tag, at momentum fraction C1 = 0.25
LABELS = {
    "piag": "plain",
    "piag-m": "pre-inertia",
    "piag-nel": "post-inertia",
    "ipiag": "double-inertia",
}
C1 = 0.25
# step sizes of the no-inertia sweep, as multiples of its certified step
MULTIPLIERS = (1.0, 4.0, 16.0)


def write_trace_csv(path, trace):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "dist2", "phi_gap"])
        for k in range(trace.records):
            writer.writerow([k, trace.dist2[k], trace.phi[k] - trace.phi_star])


def variant_comparison(out_dir, resolved, traces):
    curves = []
    for label, (alpha, eta1, eta2, _, _), trace in zip(LABELS.values(), resolved, traces):
        write_trace_csv(os.path.join(out_dir, f"toy_{label.replace('-', '_')}.csv"), trace)
        curves.append({"label": label, "x": trace.k, "y": trace.dist2})
        print(
            f"{label:15s} alpha={alpha:.4e} eta1={eta1:.4e} "
            f"eta2={eta2:.4e} final dist2={trace.dist2[-1]:.3e}"
        )
    # the envelope of the plain method's certificate, on its own run
    envelope = verify_linear_bound(traces[0], resolved[0][3]).dist_envelope
    curves.append({"label": "certified envelope", "x": traces[0].k, "y": envelope, "dashed": True})
    log_line_plot(
        os.path.join(out_dir, "toy_variants.svg"),
        curves,
        title=f"chain problem, n={COMPONENTS}, tau={TAU}",
        ylabel="squared distance",
    )


def step_size_sweep(out_dir, traces):
    curves = []
    for mult, trace in zip(MULTIPLIERS, traces):
        curves.append({"label": f"{mult:g}x certified step", "x": trace.k, "y": trace.dist2})
        print(f"alpha multiplier {mult:4g}: final dist2={trace.dist2[-1]:.3e}")
    log_line_plot(
        os.path.join(out_dir, "toy_step_sweep.svg"),
        curves,
        title="no-inertia method past the certified step size",
        ylabel="squared distance",
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--iters", type=int, default=10000)
    parser.add_argument("--out", default="figures/toy")
    args = parser.parse_args()
    if args.iters < 1:
        parser.error(f"--iters must be at least 1, got {args.iters}")

    os.makedirs(args.out, exist_ok=True)
    prob = make_toy(ToySpec(num_components=COMPONENTS))
    resolved = [
        resolve_parameters(prob, inputs.read({"variant": tag, "c1": C1}, inputs.CONFIG), TAU)
        for tag in LABELS
    ]
    # the step sweep scales the plain method's certified step, which C1 does not enter
    configs = [
        SolverParams(alpha=alpha, eta1=eta1, eta2=eta2, max_iters=args.iters)
        for alpha, eta1, eta2, _, _ in resolved
    ] + [SolverParams(alpha=resolved[0][0] * m, max_iters=args.iters) for m in MULTIPLIERS]
    schedule = schedule_uniform_single(WORKERS, TAU, args.iters, SEED)
    (traces,) = sweep(prob, configs, [schedule])
    variant_comparison(args.out, resolved, traces[: len(LABELS)])
    step_size_sweep(args.out, traces[len(LABELS):])
    print(f"artifacts in {args.out}")


if __name__ == "__main__":
    main()
