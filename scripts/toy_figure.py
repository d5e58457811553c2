#!/usr/bin/env python3
"""Convergence figure on the chain-coupled quadratic.

Runs the four method variants at their certified parameters on one shared
delay schedule and writes per-variant trace CSVs plus a combined SVG with
the certified envelope overlaid.  A second sweep varies the step size for
the no-inertia method to show how far past the threshold the iteration
stays stable.

Example:
    python scripts/toy_figure.py --out figures/toy
"""

import argparse
import csv
import os

import numpy as np

from ipiag import (
    SolverParams,
    ToySpec,
    inputs,
    make_toy,
    run,
    schedule_uniform_single,
    verify_linear_bound,
)
from ipiag.cli import resolve_parameters
from ipiag.plotting import log_line_plot

# figure label of each run tag, at momentum fraction C1 = 0.25
LABELS = {
    "piag": "plain",
    "piag-m": "pre-inertia",
    "piag-nel": "post-inertia",
    "ipiag": "double-inertia",
}
C1 = 0.25


def write_trace_csv(path, trace):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "dist2", "phi_gap"])
        for k in range(trace.records):
            writer.writerow([k, trace.dist2[k], trace.phi[k] - trace.phi_star])


def variant_comparison(args, out_dir):
    prob = make_toy(ToySpec(num_components=args.components))
    schedule = schedule_uniform_single(args.workers, args.tau, args.iters, args.seed)
    curves = []
    envelope = None
    for tag, label in LABELS.items():
        config = inputs.read({"variant": tag, "c1": C1}, inputs.CONFIG)
        alpha, eta1, eta2, cert, _ = resolve_parameters(prob, config, args.tau)
        params = SolverParams(alpha=alpha, eta1=eta1, eta2=eta2, max_iters=args.iters)
        trace = run(prob, params, schedule, np.zeros(args.components), store_iterates=False)
        write_trace_csv(os.path.join(out_dir, f"toy_{label.replace('-', '_')}.csv"), trace)
        curves.append({"label": label, "x": trace.k, "y": trace.dist2})
        if label == "plain":
            envelope = {
                "label": "certified envelope",
                "x": trace.k,
                "y": verify_linear_bound(trace, cert).dist_envelope,
                "dashed": True,
            }
        print(
            f"{label:15s} alpha={alpha:.4e} eta1={eta1:.4e} "
            f"eta2={eta2:.4e} final dist2={trace.dist2[-1]:.3e}"
        )
    if envelope is not None:
        curves.append(envelope)
    log_line_plot(
        os.path.join(out_dir, "toy_variants.svg"),
        curves,
        title=f"chain problem, n={args.components}, tau={args.tau}",
        ylabel="squared distance",
    )


def step_size_sweep(args, out_dir):
    prob = make_toy(ToySpec(num_components=args.components))
    base = resolve_parameters(prob, inputs.read({"variant": "piag"}, inputs.CONFIG), args.tau)[0]
    schedule = schedule_uniform_single(args.workers, args.tau, args.iters, args.seed)
    curves = []
    for mult in (1.0, 4.0, 16.0):
        params = SolverParams(alpha=base * mult, max_iters=args.iters)
        trace = run(prob, params, schedule, np.zeros(args.components), store_iterates=False)
        curves.append({"label": f"{mult:g}x certified step", "x": trace.k, "y": trace.dist2})
        print(f"alpha multiplier {mult:4g}: final dist2={trace.dist2[-1]:.3e}")
    log_line_plot(
        os.path.join(out_dir, "toy_step_sweep.svg"),
        curves,
        title="no-inertia method past the certified step size",
        ylabel="squared distance",
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--components", type=int, default=100)
    parser.add_argument("--tau", type=int, default=4)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--iters", type=int, default=10000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="figures/toy")
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    variant_comparison(args, args.out)
    step_size_sweep(args, args.out)
    print(f"artifacts in {args.out}")


if __name__ == "__main__":
    main()
