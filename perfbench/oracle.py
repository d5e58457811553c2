"""Plain-numpy replay of the three-map update, the benchmark's correctness oracle.

It shares no code with ``ipiag.solver``: it rebuilds the contiguous block
partition, the gradient table and the update from the docstring of the
method, calling only the problem's public callables (``block_gradient`` and
``prox``) and reading the same delay schedule.

    y_{k+1} = x_k + eta1 (x_k - x_{k-1})
    z_{k+1} = prox(y_{k+1} - alpha g_k, alpha)
    x_{k+1} = z_{k+1} + eta2 (z_{k+1} - z_k)

A run matches the oracle when every dist2 record and every entry of
z_final lies within ``RTOL`` relative plus ``ATOL_SHARE`` of the first
record (dist2) or of the largest entry (z_final).  The tolerance admits a
reordered floating-point sum (a batched or GEMM-based engine) and rejects
a wrong update, table refresh or schedule replay.  Whether the bits are
identical is reported separately.
"""

from __future__ import annotations

import numpy as np

RTOL = 1e-8
ATOL_SHARE = 1e-12


def replay(problem, alpha, eta1, eta2, schedule, iters, x_ref):
    """dist2 for records 0..iters and z after ``iters`` steps, from x0 = 0."""
    blocks = np.array_split(np.arange(problem.num_components), schedule.num_workers)
    x = np.zeros(problem.dimension)
    table = np.array([problem.block_gradient(b, x) for b in blocks])
    x_prev = x
    z = x
    history = [x]
    dist2 = np.empty(iters + 1)
    dist2[0] = float((z - x_ref) @ (z - x_ref))
    for k in range(iters):
        for w, s in zip(schedule.refreshed[k], schedule.source_iter[k]):
            table[w] = problem.block_gradient(blocks[w], history[s])
        g = table.sum(axis=0)
        y = x + eta1 * (x - x_prev)
        z_next = problem.prox(y - alpha * g, alpha)
        x_prev, x = x, z_next + eta2 * (z_next - z)
        z = z_next
        history.append(x)
        dist2[k + 1] = float((z - x_ref) @ (z - x_ref))
    return dist2, z


def compare(label, dist2, z_final, want_dist2, want_z) -> tuple:
    """(failures, bits_identical) of a run against its oracle replay.

    ``z_final`` may be None when the run does not output it.
    """
    failures = []
    dist2 = np.asarray(dist2, dtype=float)
    if dist2.shape != want_dist2.shape:
        return [f"{label}: oracle dist2 has {want_dist2.size} records, run has {dist2.size}"], False
    atol = ATOL_SHARE * abs(want_dist2[0])
    bad = np.nonzero(~(np.abs(dist2 - want_dist2) <= RTOL * np.abs(want_dist2) + atol))[0]
    if bad.size:
        j = int(bad[0])
        failures.append(f"{label}: dist2[{j}] = {float(dist2[j])!r}, oracle {float(want_dist2[j])!r}")
    identical = bool(np.array_equal(dist2, want_dist2))
    if z_final is not None:
        atol = ATOL_SHARE * float(np.max(np.abs(want_z), initial=1.0))
        if not np.allclose(z_final, want_z, rtol=RTOL, atol=atol):
            failures.append(f"{label}: z_final differs from the oracle")
        identical = identical and bool(np.array_equal(z_final, want_z))
    return failures, identical
