#!/usr/bin/env python3
"""Inertia comparison on the planted sparse regression problem.

Solves one l1-regularized least-squares instance to high accuracy with the
synchronous method, then runs the no-inertia and double-inertia variants
under randomized delay schedules and plots the averaged relative error
curves.  The default instance is small enough for a laptop; --full switches
to the 300 x 1000 instance with a planted support of 100, a default
--iters of 60000 (35000 otherwise) and a default --alpha of 2e-4, since
5e-4 and 8e-4 pass the 2/||A||^2 check there yet diverge under stale
gradients.  A given --iters or --alpha is used as given.

Example:
    python scripts/lasso_figure.py --out figures/lasso
    python scripts/lasso_figure.py --full --out figures/lasso
"""

import argparse
import csv
import os
import time

import numpy as np

from ipiag import (
    LassoSpec,
    SolverParams,
    lasso_arrays,
    make_lasso,
    reference_solution,
    schedule_uniform_single,
    spectral_norm_sq,
    sweep,
)
from ipiag.plotting import log_line_plot


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=60)
    parser.add_argument("--cols", type=int, default=200)
    parser.add_argument("--sparsity", type=float, default=0.1)
    parser.add_argument("--weight", type=float, default=0.2)
    parser.add_argument("--instance-seed", type=int, default=7)
    parser.add_argument("--alpha", type=float, default=None, help="default 1e-3, 2e-4 with --full")
    parser.add_argument("--eta", type=float, default=0.25)
    parser.add_argument("--tau", type=int, default=4)
    parser.add_argument("--workers", type=int, default=3)
    parser.add_argument("--iters", type=int, default=None, help="default 35000, 60000 with --full")
    parser.add_argument("--seeds", type=int, default=10, help="schedule seeds to average over")
    parser.add_argument("--out", default="figures/lasso")
    parser.add_argument(
        "--full", action="store_true",
        help="run the large 300 x 1000 instance instead; an --alpha at or above 2/||A||^2 of "
        "the instance, which the refusal prints, is refused before the reference solve",
    )
    args = parser.parse_args(argv)

    if args.full:
        args.rows, args.cols = 300, 1000
    if args.alpha is None:
        args.alpha = 2e-4 if args.full else 1e-3
    if args.iters is None:
        args.iters = 60000 if args.full else 35000

    spec = LassoSpec(
        rows=args.rows,
        cols=args.cols,
        sparsity=args.sparsity,
        l1_weight=args.weight,
        seed=args.instance_seed,
    )
    problem = make_lasso(spec)
    a, _, x_true = lasso_arrays(spec)
    norm2 = spectral_norm_sq(a)
    # at alpha ||A||^2 >= 2 even the fresh gradient step on the smooth part does not contract;
    # stale gradients need a smaller alpha still, so passing this check does not promise a run
    if args.alpha * norm2 >= 2.0:
        parser.error(
            f"--alpha {args.alpha:g} is at or above 2/||A||^2 = {2.0 / norm2:.2e} "
            f"for this {args.rows} x {args.cols} instance; the runs would diverge"
        )
    print(
        f"instance: {args.rows} x {args.cols}, planted support "
        f"{int(np.count_nonzero(x_true))}, L = {problem.total_lipschitz:.1f}"
    )

    t0 = time.time()
    x_ref, phi_ref = reference_solution(problem, 1.0 / norm2, max_iters=400000, tol=1e-12)
    print(
        f"reference: phi = {phi_ref:.10f}, {int(np.count_nonzero(x_ref))} nonzeros "
        f"({time.time() - t0:.1f}s)"
    )

    runs = {
        "plain": SolverParams(alpha=args.alpha, max_iters=args.iters),
        "double-inertia": SolverParams(
            alpha=args.alpha, eta1=args.eta, eta2=args.eta, max_iters=args.iters
        ),
    }
    os.makedirs(args.out, exist_ok=True)
    t0 = time.time()
    nrm = float(np.linalg.norm(x_ref))
    totals = [np.zeros(args.iters + 1) for _ in runs]
    schedules = (
        schedule_uniform_single(args.workers, args.tau, args.iters, seed)
        for seed in range(args.seeds)
    )
    for traces in sweep(problem, list(runs.values()), schedules, x_ref, phi_ref):
        for total, trace in zip(totals, traces):
            total += np.sqrt(trace.dist2) / nrm
    means = {label: total / args.seeds for label, total in zip(runs, totals)}
    curves = []
    for label, mean in means.items():
        print(f"{label:15s} final mean rel err = {mean[-1]:.3e}")
        curves.append({"label": label, "x": np.arange(args.iters + 1), "y": mean})
    print(f"runs: {time.time() - t0:.1f}s")

    with open(os.path.join(args.out, "lasso_mean_error.csv"), "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k"] + list(runs))
        step = max(1, args.iters // 2000)
        for k in range(0, args.iters + 1, step):
            writer.writerow([k] + [means[label][k] for label in runs])

    log_line_plot(
        os.path.join(args.out, "lasso_mean_error.svg"),
        curves,
        title=f"planted regression {args.rows} x {args.cols}, tau={args.tau}",
        ylabel="mean relative error",
    )
    print(f"artifacts in {args.out}")


if __name__ == "__main__":
    main()
