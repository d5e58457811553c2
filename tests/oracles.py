"""Independent reference implementations used only by the tests.

Nothing here imports solver internals beyond problem closures, the
counter-based generator and the schedule error type; values are recomputed
from first principles so that agreement is meaningful.
"""

import dataclasses
import math

import numpy as np

from ipiag.rng import SplitMix64
from ipiag.schedules import ScheduleError


def brute_prox_1d(h, v, alpha, span=None, coarse=1e-2, refine_tol=1e-10):
    """Minimize h(z) + (z - v)^2 / (2 alpha) for scalar z by search.

    Coarse grid scan followed by ternary refinement on the bracketing
    interval; h must be convex so the objective is unimodal.  ``span``
    widens the default search interval [min(v,0)-1, max(v,0)+1].
    """
    lo = min(v, 0.0) - 1.0
    hi = max(v, 0.0) + 1.0
    if span is not None:
        lo, hi = lo - span, hi + span

    def obj(z):
        return h(z) + (z - v) ** 2 / (2.0 * alpha)

    grid = np.arange(lo, hi + coarse, coarse)
    vals = np.array([obj(z) for z in grid])
    i = int(np.argmin(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]
    while b - a > refine_tol:
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if obj(m1) <= obj(m2):
            b = m2
        else:
            a = m1
    return (a + b) / 2.0


def l1_scalar(weight):
    return lambda z: weight * abs(z)


def nonneg_l1_scalar(weight):
    return lambda z: weight * z if z >= 0 else float("inf")


def toy_aggregated_gradient(x, c):
    """Closed-form summed gradient of the chain-coupled quadratic.

    Worked out by adding the per-component stencils: the cross terms
    telescope, leaving a diagonal map 3 x_0 - c, 3 x_j + c inside, and
    2 x_last at the end.
    """
    x = np.asarray(x, dtype=float)
    g = 3.0 * x + c
    g[0] = 3.0 * x[0] - c
    g[-1] = 2.0 * x[-1]
    return g


def toy_component_gradient(j, x, c):
    """Gradient of the toy's component j alone, from its stencil.

    f_0 = (x_0 - c)^2 + (x_1 + c)^2 / 2, f_{N-1} = ((x_{N-2} + c)^2 + (x_{N-1} - c)^2) / 2,
    and each inner f_j = ((x_{j-1} + c)^2 + (x_j - c)^2 + (x_{j+1} + c)^2) / 2.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    g = np.zeros(n)
    if j == 0:
        g[0] = 2.0 * (x[0] - c)
        g[1] = x[1] + c
    elif j == n - 1:
        g[n - 2] = x[n - 2] + c
        g[n - 1] = x[n - 1] - c
    else:
        g[j - 1] = x[j - 1] + c
        g[j] = x[j] - c
        g[j + 1] = x[j + 1] + c
    return g


def toy_prox_grad_reference(x0, c, l1_weight, alpha, iters):
    """Plain proximal-gradient iterates on the toy objective.

    Uses the closed-form aggregated gradient above and the closed-form
    prox of l1-plus-nonnegativity, nothing from the package.
    """
    x = np.asarray(x0, dtype=float).copy()
    out = [x.copy()]
    for _ in range(iters):
        v = x - alpha * toy_aggregated_gradient(x, c)
        x = np.maximum(v - alpha * l1_weight, 0.0)
        out.append(x.copy())
    return np.array(out)


def inertial_replay(problem, alpha, eta1, eta2, schedule, x0, iters, x_ref, phi_star=None):
    """Plain replay of the three-map update over a delay schedule.

        y_{k+1} = x_k + eta1 (x_k - x_{k-1})
        z_{k+1} = prox(y_{k+1} - alpha g_k, alpha)
        x_{k+1} = z_{k+1} + eta2 (z_{k+1} - z_k)

    g_k sums a table of worker block gradients (contiguous component
    blocks, all read at x_0 first); each refresh rereads its block at the x
    iterate the schedule names.  Every x iterate is kept, so stale reads
    need no ring buffer.  Returns per-record phi, dist2 and psi (NaN
    without ``phi_star``), the z rows, the final x and z, and the staleness
    of every table entry after each step's refreshes (a zero row first).
    """
    blocks = np.array_split(np.arange(problem.num_components), schedule.num_workers)
    x = np.asarray(x0, dtype=float).copy()
    table = np.array([problem.block_gradient(b, x) for b in blocks])
    sources = np.zeros(schedule.num_workers, dtype=np.int64)
    stale = [np.zeros(schedule.num_workers, dtype=np.int64)]
    x_prev, z = x, x
    xs, zs = [x], [z]
    for k in range(iters):
        for w, s in refreshes(schedule, k):
            table[w] = problem.block_gradient(blocks[w], xs[s])
            sources[w] = s
        stale.append(k - sources)
        g = table.sum(axis=0)
        y = x + eta1 * (x - x_prev)
        z_next = problem.prox(y - alpha * g, alpha)
        x_prev, x = x, z_next + eta2 * (z_next - z)
        z = z_next
        xs.append(x)
        zs.append(z)
    zs = np.array(zs)
    phi = np.array([float(problem.smooth_value(v)) + float(problem.regularizer_value(v))
                    for v in zs])
    dist2 = np.array([(v - x_ref) @ (v - x_ref) for v in zs])
    psi = np.full(len(zs), np.nan)
    if phi_star is not None:
        psi = (phi - phi_star) + (1.0 - eta1) / (2.0 * alpha) * dist2
    return {"phi": phi, "dist2": dist2, "psi": psi, "z": zs, "x_final": x, "z_final": z,
            "staleness": np.array(stale)}


def recording_prox(problem, x0):
    """``problem`` with a prox that keeps a copy of each output, and the list of the copies.

    Step k's prox output is z_{k+1} and z_0 is x0, so the list starts with x0: after a
    run from x0 it holds that run's z iterates in order.
    """
    iterates = [np.array(x0, dtype=float)]

    def prox(v, alpha, inner=problem.prox):
        z = inner(v, alpha)
        iterates.append(np.array(z, copy=True))
        return z

    return dataclasses.replace(problem, prox=prox), iterates


def central_difference_gradient(f, x, step=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2.0 * step)
    return g


# ---------------------------------------------------------------------------
# Straightforward numpy forms of hot-path functions.  The package computes
# the same sums in the same order with fewer interpreter calls; the tests
# require its results to equal these bit for bit.


def same_bits(a, b):
    """Equal as IEEE doubles down to the sign of zero and NaN payloads."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def toy_smooth_value(x, c):
    """Smooth part of the chain-coupled quadratic, one np.sum per term."""
    x = np.asarray(x, dtype=float)
    self_sq = (x[0] - c) ** 2 + 0.5 * np.sum((x[1:] - c) ** 2)
    left_sq = 0.5 * np.sum((x[:-1] + c) ** 2)
    right_sq = 0.5 * np.sum((x[1:] + c) ** 2)
    return float(self_sq + left_sq + right_sq)


def toy_block_gradient(lo, hi, x, c):
    """Toy gradient of the components lo..hi-1, one slice per stencil term."""
    n = len(x)
    g = np.zeros(n)
    g[lo:hi] = x[lo:hi] - c
    if lo == 0:
        g[0] += x[0] - c
    a = max(lo, 1) - 1
    g[a : hi - 1] += x[a : hi - 1] + c  # left neighbours; empty for the block [0, 1)
    g[lo + 1 : hi + 1] += x[lo + 1 : hi + 1] + c  # right neighbours, clipped at n
    return g


def regularizer_value(kind, weight, x):
    """h(x) for the ProxSpec kinds, +inf off the nonnegative orthant."""
    x = np.asarray(x, dtype=float)
    if kind == "zero":
        return 0.0
    if kind == "l1":
        return weight * float(np.sum(np.abs(x)))
    if np.any(x < 0):
        return float("inf")
    if kind == "indicator_nonneg":
        return 0.0
    return weight * float(np.sum(x))


def uniform_single_lists(num_workers, tau, iters, seed):
    """(refreshed, source_iter) of the uniform single-refresh schedule.

    One draw per iteration from SplitMix64(seed); every block whose
    staleness would exceed tau is refreshed instead of the drawn one.
    """
    rng = SplitMix64(seed)
    picks = (rng.u64_array(iters) % np.uint64(num_workers)).astype(int) if iters else []
    sources = np.zeros(num_workers, dtype=int)
    refreshed, source_iter = [], []
    for k in range(iters):
        forced = np.nonzero(k - sources > tau)[0]
        chosen = forced.tolist() if forced.size else [int(picks[k])]
        for w in chosen:
            sources[w] = k
        refreshed.append(chosen)
        source_iter.append([k] * len(chosen))
    return refreshed, source_iter


def flat(refreshed, source_iter):
    """(offsets, workers, sources) as lists: the flat form of per-iteration lists."""
    offsets = np.cumsum([0] + [len(ws) for ws in refreshed]).tolist()
    return offsets, [w for ws in refreshed for w in ws], [v for ss in source_iter for v in ss]


def refreshes(schedule, k):
    """(worker, source) pairs of iteration k, read from the schedule's flat arrays."""
    lo, hi = schedule.offsets[k], schedule.offsets[k + 1]
    return zip(schedule.workers[lo:hi].tolist(), schedule.sources[lo:hi].tolist())


def worst_staleness(num_workers, steps):
    """Largest table-entry staleness over a replay of per-iteration (worker, source) pairs."""
    sources = np.zeros(num_workers, dtype=int)
    worst = 0
    for k, pairs in enumerate(steps):
        for w, s in pairs:
            sources[w] = s
        worst = max(worst, int(np.max(k - sources)))
    return worst


def max_staleness(schedule):
    """Largest table-entry staleness over a replay of the schedule's flat arrays."""
    return worst_staleness(schedule.num_workers,
                           (refreshes(schedule, k) for k in range(schedule.iterations)))


def validate_schedule_lists(num_workers, tau, refreshed, source_iter):
    """Check hand-built schedule lists one rule at a time, in the constructor's order.

    Raises the ScheduleError that ``DelaySchedule.from_jsonl`` must raise for
    a file whose record k holds ``refreshed[k]`` and ``source_iter[k]``;
    returns None for well-formed lists.  The records ahead of the first one
    whose two lists differ in length are checked first, as a schedule: the
    first entry out of range, then the first iteration that refreshes a
    worker twice (naming the worker whose second refresh comes first), then
    the largest staleness against ``tau``.  The outer lists have the same
    length, as a file's records hold both lists.
    """
    if num_workers < 1:
        raise ScheduleError("need at least one worker")
    if tau < 0:
        raise ScheduleError("tau must be nonnegative")
    pairs = [list(zip(ws, ss)) for ws, ss in zip(refreshed, source_iter)]
    aligned = [len(ws) == len(ss) for ws, ss in zip(refreshed, source_iter)]
    prefix = pairs[: aligned.index(False)] if False in aligned else pairs
    for k, step in enumerate(prefix):
        for w, s in step:
            if not 0 <= w < num_workers:
                raise ScheduleError(f"iteration {k}: worker id {w} out of range")
            if not 0 <= s <= k:
                raise ScheduleError(f"iteration {k}: source {s} out of range")
    for k, step in enumerate(prefix):
        ws = [w for w, _ in step]
        for i, w in enumerate(ws):
            if w in ws[:i]:
                raise ScheduleError(f"iteration {k}: worker {w} refreshes twice")
    worst = worst_staleness(num_workers, prefix)
    if worst > tau:
        raise ScheduleError(f"observed staleness {worst} exceeds declared tau {tau}")
    if len(prefix) < len(pairs):
        raise ScheduleError(f"iteration {len(prefix)}: refresh lists must align")


def trace_csv(trace, fmt):
    """``Trace.to_csv`` text, one field at a time with ``fmt`` for the floats."""
    lines = ["k,phi,dist2,psi,step_norm2,max_staleness\n"]
    stale = trace.max_staleness
    for j in range(trace.records):
        row = ",".join(
            [
                str(int(trace.k[j])),
                fmt % trace.phi[j],
                fmt % trace.dist2[j],
                fmt % trace.psi[j],
                fmt % trace.step_norm2[j],
                str(int(stale[j])),
            ]
        )
        lines.append(row + "\n")
    return "".join(lines)


def svg_polyline_points(curves):
    """``points`` attribute of each polyline ``log_line_plot`` draws, point by point.

    Same cleaning, frame and margins as the plot; each coordinate is mapped
    as a scalar and printed with two decimals.
    """
    cleaned = []
    for cv in curves:
        x = np.asarray(cv["x"], dtype=float)
        y = np.asarray(cv["y"], dtype=float)
        keep = np.isfinite(x) & np.isfinite(y) & (y > 0)
        if keep.any():
            cleaned.append((x[keep], np.log10(y[keep])))
    x_lo = min(float(x.min()) for x, _ in cleaned)
    x_hi = max(float(x.max()) for x, _ in cleaned)
    y_lo = math.floor(min(float(y.min()) for _, y in cleaned))
    y_hi = math.ceil(max(float(y.max()) for _, y in cleaned))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1
    ml, mr, mt, mb = 64, 16, 34, 46
    pw, ph = 640 - ml - mr, 420 - mt - mb
    return [
        " ".join(
            f"{ml + (a - x_lo) / (x_hi - x_lo) * pw:.2f},{mt + (y_hi - b) / (y_hi - y_lo) * ph:.2f}"
            for a, b in zip(x, y)
        )
        for x, y in cleaned
    ]


def splitmix_u64(seed, counter, n):
    """Draws counter+1 .. counter+n of SplitMix64(seed), one whole-array expression per step."""
    idx = np.arange(counter + 1, counter + n + 1, dtype=np.uint64)
    z = np.uint64(int(seed) & (2**64 - 1)) + idx * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def splitmix_uniforms(seed, counter, n):
    """Doubles (u >> 11) * 2**-53 over the same draws."""
    return (splitmix_u64(seed, counter, n) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def splitmix_normals(seed, counter, n):
    """Box-Muller on uniform blocks: r*cos values, then r*sin values, cut to n."""
    m = (n + 1) // 2
    u = splitmix_uniforms(seed, counter, 2 * m)
    u1 = np.maximum(u[:m], 2.0**-53)
    u2 = u[m:]
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
    return z[:n]
