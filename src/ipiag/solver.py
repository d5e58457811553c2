"""Deterministic solver engine for the inertial aggregated-gradient method.

One iteration does three things given the aggregated (possibly stale)
gradient g_k:

    y_{k+1} = x_k + eta1 * (x_k - x_{k-1})          pre-prox extrapolation
    z_{k+1} = prox(y_{k+1} - alpha * g_k, alpha)    proximal step
    x_{k+1} = z_{k+1} + eta2 * (z_{k+1} - z_k)      post-prox extrapolation

eta1 = eta2 = 0 recovers the plain aggregated proximal-gradient method; the
reported solution is always z.  Worker block gradients live in a table that
a DelaySchedule refreshes; the aggregate is the sum over blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import (
    Array,
    CompositeProblem,
    DivergenceError,
    NumericError,
    evaluate_objective,
    record_objective,
)
from .inputs import DELAY_SCHEDULE, DOCUMENT, SOLVER_PARAMS, check, read
from .schedules import DelaySchedule

DIVERGENCE_FACTOR = 1e12
# printf format of every float written to a CSV: 17 significant digits read back to the same double
FLOAT_FORMAT = "%.17g"


@dataclass
class SolverParams:
    """Step size, the two inertial weights, and the iteration budget."""

    alpha: float
    eta1: float = 0.0
    eta2: float = 0.0
    max_iters: int = 1000
    stop_tolerance: Optional[float] = None  # on ||z_{k+1} - z_k||

    def __post_init__(self):
        read(vars(self), SOLVER_PARAMS)


def contiguous_partition(num_components: int, num_workers: int) -> list:
    """Split component indices into contiguous near-equal blocks."""
    check(DOCUMENT.row("num_components"), num_components, "num_components")
    check(DELAY_SCHEDULE.row("num_workers"), num_workers, "num_workers")
    if num_workers > num_components:
        raise ValueError("more workers than components")
    return [np.asarray(b) for b in np.array_split(np.arange(num_components), num_workers)]


def lyapunov_value(
    phi: Array,
    dist2: Array,
    phi_star: float,
    alpha: float,
    eta1: float,
) -> Array:
    """Psi = Phi - Phi* + (1 - eta1) / (2 alpha) * dist^2, elementwise."""
    return (np.asarray(phi) - phi_star) + (1.0 - eta1) / (2.0 * alpha) * np.asarray(dist2)


@dataclass
class Trace:
    """Per-iteration record of a run.

    Record j describes iterate j: objective, squared distance to the
    reference point, the Lyapunov value psi (``lyapunov_value``),
    the squared step ||z_j - z_{j-1}||^2 (0 at j=0), and the staleness of
    the gradient table entries used to produce z_j (zeros at j=0).  dist2
    and psi are NaN when no reference point / optimal value is available.
    """

    k: Array
    phi: Array
    dist2: Array
    psi: Array
    step_norm2: Array
    staleness: Array  # (records, num_workers): a read-only view of the schedule's table
    alpha: float
    eta1: float
    eta2: float
    x_final: Array
    z_final: Array
    phi_star: Optional[float] = None
    x_ref: Optional[Array] = None

    @property
    def records(self) -> int:
        return len(self.k)

    @property
    def max_staleness(self) -> Array:
        return self.staleness.max(axis=1)

    def to_csv(self, path: str) -> None:
        row = f"%d,{FLOAT_FORMAT},{FLOAT_FORMAT},{FLOAT_FORMAT},{FLOAT_FORMAT},%d\n"
        columns = (self.k, self.phi, self.dist2, self.psi, self.step_norm2, self.max_staleness)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("k,phi,dist2,psi,step_norm2,max_staleness\n")
            fh.writelines(row % values for values in zip(*(c.tolist() for c in columns)))


def iterations_to_threshold(values: Array, threshold: float) -> Optional[int]:
    """First record index at which ``values`` drops to ``threshold`` or below."""
    hit = np.nonzero(values <= threshold)[0]
    return int(hit[0]) if hit.size else None


# every non-finite value is turned into a NumericError, so numpy's own warnings are noise
@np.errstate(over="ignore", invalid="ignore")
def run(
    problem: CompositeProblem,
    params: SolverParams,
    schedule: DelaySchedule,
    x0: Array,
    x_ref: Optional[Array] = None,
    phi_star: Optional[float] = None,
    store_iterates: bool = False,
) -> Trace:
    """Replay a delay schedule deterministically and trace the run.

    The gradient table is initialized with every block evaluated at x0.
    Refreshes for iteration k are applied before aggregation, reading the
    stored iterate named by the schedule (current iterate for generated
    schedules).  The schedule checked its staleness against tau when it was
    built, and ``Trace.staleness`` is a view of its rows.  Aborts with
    DivergenceError if the objective exceeds its initial value by more than
    DIVERGENCE_FACTOR (relative guard).

    When the problem has a known optimum it is used as the reference point
    for dist2/psi unless ``x_ref`` overrides it.  If ``x_ref`` is given
    without ``phi_star``, the objective at ``x_ref`` is used.

    A trace keeps no iterates; to record them, wrap ``problem.prox``, whose
    output at step k is z_{k+1}.  ``store_iterates`` refuses True and stays
    only for ``perfbench/``'s call, until ROADMAP item 1 deletes it.
    """
    if store_iterates:
        raise ValueError("run() stores no iterates; wrap problem.prox to record them")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (problem.dimension,):
        raise ValueError("x0 has the wrong dimension")
    K = params.max_iters
    if schedule.iterations < K:
        raise ValueError("schedule is shorter than max_iters")
    W = schedule.num_workers
    stale = schedule.staleness[: K + 1]
    if x_ref is None and problem.known_optimum is not None:
        x_ref, phi_star = problem.known_optimum
    if x_ref is not None:
        x_ref = np.asarray(x_ref, dtype=float)
        if x_ref.shape != x0.shape:
            raise ValueError(f"x_ref has shape {x_ref.shape}, expected {x0.shape}")
        if phi_star is None:
            phi_star = evaluate_objective(problem, x_ref)

    partition = contiguous_partition(problem.num_components, W)
    # gradient table: one block gradient per worker
    blocks = np.zeros((W, problem.dimension))
    for w in range(W):
        blocks[w] = problem.block_gradient(partition[w], x0)

    # ring of recent x iterates, sized by the checked table's staleness, not the declared tau
    ring = int(stale.max(initial=0)) + 2
    x_hist = np.zeros((ring, problem.dimension))
    x_hist[0] = x0
    slots = list(x_hist)  # row views: a list index is cheaper than an array index

    n_rec = K + 1
    phi = np.full(n_rec, np.nan)
    dist2 = np.full(n_rec, np.nan)
    step2 = np.zeros(n_rec)
    # a step writes only into its own rows; prox inputs alternate, so z outlives a prox returning v
    ones, g, dz, diff, *vs = np.ones((6, problem.dimension))
    # every z has x0's shape (checked once above and per prox output below), so the
    # records skip evaluate_objective's per-point check
    objective = record_objective(problem)
    block_gradient, prox = problem.block_gradient, problem.prox
    add, subtract, multiply = np.add, np.subtract, np.multiply

    def observe(j: int, z: Array) -> float:
        phi[j] = value = objective(z)
        if x_ref is not None:
            subtract(z, x_ref, diff)
            dist2[j] = diff.dot(diff)  # ndarray.dot: the @ kernel, with less call overhead
        return value

    # nothing below writes into these arrays, so they may all alias x0
    x = x_prev = z = x0
    phi0 = observe(0, z)
    guard = DIVERGENCE_FACTOR * max(1.0, abs(phi0))

    alpha, eta1, eta2 = params.alpha, params.eta1, params.eta2
    alpha0, eta10, eta20 = np.array(alpha), np.array(eta1), np.array(eta2)  # see prox._ZERO
    stop_tolerance = params.stop_tolerance
    # the validated arrays, not the lists, drive the replay; step k takes counts[k] refreshes
    n = schedule.offsets[K]
    counts = np.diff(schedule.offsets[: K + 1]).tolist()
    refreshes = zip(schedule.workers[:n].tolist(), (schedule.sources[:n] % ring).tolist())
    j = 0  # the last record written
    for k in range(K):
        if counts[k] == 1:  # the common step, without an islice
            w, slot = next(refreshes)
            blocks[w] = block_gradient(partition[w], slots[slot])
        else:
            for w, slot in islice(refreshes, counts[k]):
                blocks[w] = block_gradient(partition[w], slots[slot])
        add.reduce(blocks, 0, None, g)
        # a finite sum implies finite entries.  A dot with ones sums with less call overhead
        # than np.add.reduce, in another order, which can only change whether a sum of finite
        # entries near the float maximum overflows
        if not math.isfinite(g.dot(ones)):
            raise NumericError("aggregated gradient is not finite", iteration=k)
        # v = y - alpha g with y = x + eta1 (x - x_prev), which at eta1 = 0 is x and costs nothing
        v = vs[k & 1]
        y = add(x, multiply(subtract(x, x_prev, v), eta10, v), v) if eta1 else x
        z_next = prox(subtract(y, multiply(g, alpha0, g), v), alpha)
        if z_next.shape != x0.shape:
            raise ValueError(f"prox returned shape {z_next.shape}, expected {x0.shape}")
        j = k + 1
        subtract(z_next, z, dz)
        step2[j] = s2 = dz.dot(dz)
        # ring >= 2, so slot j % ring is not the slot of x, which becomes x_prev.  At
        # eta2 = 0 neither a copy of z_next nor z_next + 0.0 has the bits of
        # z_next + 0 * dz: a -0.0 of z_next stays -0.0 exactly where dz is -0.0 or negative
        x_prev, x = x, add(z_next, multiply(dz, eta20, dz), slots[j % ring])
        # a non-finite entry of z_next makes the same entry of x non-finite
        if not math.isfinite(x.dot(ones)):
            raise NumericError("iterate became non-finite", iteration=k)
        z = z_next
        phi_j = observe(j, z)
        if phi_j > guard:
            raise DivergenceError(
                f"objective {phi_j:.3e} exceeds the divergence guard "
                f"({DIVERGENCE_FACTOR:.0e} relative to the start)",
                iteration=j,
            )
        if stop_tolerance is not None and math.sqrt(s2) < stop_tolerance:
            break

    n = j + 1
    psi = (np.full(n, np.nan) if x_ref is None
           else lyapunov_value(phi[:n], dist2[:n], phi_star, alpha, eta1))
    return Trace(
        k=np.arange(n),
        phi=phi[:n],
        dist2=dist2[:n],
        psi=psi,
        step_norm2=step2[:n],
        staleness=stale[:n],
        alpha=alpha,
        eta1=eta1,
        eta2=eta2,
        x_final=x.copy(),
        z_final=z.copy(),
        phi_star=None if phi_star is None else float(phi_star),
        x_ref=None if x_ref is None else x_ref.copy(),
    )


def sweep(problem: CompositeProblem, configs: Sequence[SolverParams],
          schedules: Iterable[DelaySchedule], x_ref: Optional[Array] = None,
          phi_star: Optional[float] = None) -> Iterator[list]:
    """Run every config on each schedule in turn and yield that schedule's traces.

    ``schedules`` is read lazily, one schedule at a time, and each list of
    traces follows ``configs`` order.  Every run starts from x0 = 0; ``x_ref``
    and ``phi_star`` are passed to ``run``.  A ``NumericError`` of config i is
    re-raised with ``config = i`` set on it, so the first divergence in
    (schedule, config) order is the one reported.
    """
    for schedule in schedules:
        traces = []
        for i, params in enumerate(configs):
            try:
                traces.append(run(problem, params, schedule, np.zeros(problem.dimension),
                                  x_ref=x_ref, phi_star=phi_star))
            except NumericError as exc:
                exc.config = i
                raise
        yield traces
