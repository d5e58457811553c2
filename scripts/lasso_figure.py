#!/usr/bin/env python3
"""Inertia comparison on the planted sparse regression problem.

Solves one l1-regularized least-squares instance to high accuracy with the
synchronous method, then runs the no-inertia and double-inertia variants
under randomized delay schedules and plots the averaged relative error
curves.  Flags: --alpha, --iters, --seeds (default 10), --out and --full.

--full alone picks the instance and its defaults: 60 x 200 at alpha 1e-3
for 35000 iterations, or 300 x 1000 at alpha 2e-4 for 60000, since 5e-4
and 8e-4 pass the 2/||A||^2 check there yet diverge under stale
gradients.  A given --alpha or --iters is used as given.  Fixed: sparsity
0.1 (a planted support of 100 on the full instance), l1 weight 0.2,
instance seed 7, inertial weights 0.25, and 3 workers under tau = 4.

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

# (rows, cols, default alpha, default iters) without and with --full
INSTANCES = {False: (60, 200, 1e-3, 35000), True: (300, 1000, 2e-4, 60000)}
SPARSITY, L1_WEIGHT, INSTANCE_SEED = 0.1, 0.2, 7
# the doubly inertial run's eta1 = eta2, and the schedules' workers and staleness bound
ETA, WORKERS, TAU = 0.25, 3, 4


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--alpha", type=float, default=None, help="default 1e-3, 2e-4 with --full")
    parser.add_argument("--iters", type=int, default=None, help="default 35000, 60000 with --full")
    parser.add_argument("--seeds", type=int, default=10, help="schedule seeds to average over")
    parser.add_argument("--out", default="figures/lasso")
    parser.add_argument(
        "--full", action="store_true",
        help="run the large 300 x 1000 instance instead; an --alpha at or above 2/||A||^2 of "
        "the instance, which the refusal prints, is refused before the reference solve",
    )
    args = parser.parse_args(argv)
    for flag, value in (("--iters", args.iters), ("--seeds", args.seeds)):
        if value is not None and value < 1:
            parser.error(f"{flag} must be at least 1, got {value}")

    rows, cols, alpha, iters = INSTANCES[args.full]
    alpha = alpha if args.alpha is None else args.alpha
    iters = iters if args.iters is None else args.iters

    spec = LassoSpec(rows, cols, sparsity=SPARSITY, l1_weight=L1_WEIGHT, seed=INSTANCE_SEED)
    problem = make_lasso(spec)
    a, _, x_true = lasso_arrays(spec)
    norm2 = spectral_norm_sq(a)
    # at alpha ||A||^2 >= 2 even the fresh gradient step on the smooth part does not contract;
    # stale gradients need a smaller alpha still, so passing this check does not promise a run
    if alpha * norm2 >= 2.0:
        parser.error(
            f"--alpha {alpha:g} is at or above 2/||A||^2 = {2.0 / norm2:.2e} "
            f"for this {rows} x {cols} instance; the runs would diverge"
        )
    print(
        f"instance: {rows} x {cols}, planted support {int(np.count_nonzero(x_true))}, "
        f"L = {problem.total_lipschitz:.1f}"
    )

    t0 = time.time()
    x_ref, phi_ref = reference_solution(problem, 1.0 / norm2, max_iters=400000, tol=1e-12)
    print(
        f"reference: phi = {phi_ref:.10f}, {int(np.count_nonzero(x_ref))} nonzeros "
        f"({time.time() - t0:.1f}s)"
    )

    runs = {
        "plain": SolverParams(alpha=alpha, max_iters=iters),
        "double-inertia": SolverParams(alpha=alpha, eta1=ETA, eta2=ETA, max_iters=iters),
    }
    os.makedirs(args.out, exist_ok=True)
    t0 = time.time()
    nrm = float(np.linalg.norm(x_ref))
    totals = [np.zeros(iters + 1) for _ in runs]
    schedules = (schedule_uniform_single(WORKERS, TAU, iters, seed) for seed in range(args.seeds))
    for traces in sweep(problem, list(runs.values()), schedules, x_ref, phi_ref):
        for total, trace in zip(totals, traces):
            total += np.sqrt(trace.dist2) / nrm
    means = {label: total / args.seeds for label, total in zip(runs, totals)}
    curves = []
    for label, mean in means.items():
        print(f"{label:15s} final mean rel err = {mean[-1]:.3e}")
        curves.append({"label": label, "x": np.arange(iters + 1), "y": mean})
    print(f"runs: {time.time() - t0:.1f}s")

    with open(os.path.join(args.out, "lasso_mean_error.csv"), "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k"] + list(runs))
        step = max(1, iters // 2000)
        for k in range(0, iters + 1, step):
            writer.writerow([k] + [means[label][k] for label in runs])

    log_line_plot(
        os.path.join(args.out, "lasso_mean_error.svg"),
        curves,
        title=f"planted regression {rows} x {cols}, tau={TAU}",
        ylabel="mean relative error",
    )
    print(f"artifacts in {args.out}")


if __name__ == "__main__":
    main()
