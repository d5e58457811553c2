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
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    Array,
    CompositeProblem,
    DivergenceError,
    IterateState,
    NumericError,
    evaluate_objective,
)
from .schedules import DelaySchedule, ScheduleError

DIVERGENCE_FACTOR = 1e12
FLOAT_DIGITS_ENV = "IPIAG_FLOAT_DIGITS"


def float_format() -> str:
    """Printf format for CSV floats: ``IPIAG_FLOAT_DIGITS`` significant digits (default 17)."""
    text = os.environ.get(FLOAT_DIGITS_ENV, "17")
    try:
        digits = int(text)
    except ValueError:
        digits = 0
    if digits < 1:
        raise ValueError(f"{FLOAT_DIGITS_ENV} must be a positive integer, got {text!r}")
    return f"%.{digits}g"


class StateError(RuntimeError):
    """Gradient table used before it was fully populated."""


@dataclass
class SolverParams:
    """Step size, the two inertial weights, and the iteration budget."""

    alpha: float
    eta1: float = 0.0
    eta2: float = 0.0
    max_iters: int = 1000
    stop_tolerance: Optional[float] = None  # on ||z_{k+1} - z_k||

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not 0.0 <= self.eta1 <= 1.0:
            raise ValueError("eta1 must lie in [0, 1]")
        if not 0.0 <= self.eta2 <= 1.0:
            raise ValueError("eta2 must lie in [0, 1]")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.stop_tolerance is not None and self.stop_tolerance < 0:
            raise ValueError("stop_tolerance must be nonnegative")


def contiguous_partition(num_components: int, num_workers: int) -> list:
    """Split component indices into contiguous near-equal blocks."""
    if num_workers < 1:
        raise ValueError("need at least one worker")
    if num_workers > num_components:
        raise ValueError("more workers than components")
    return [np.asarray(b) for b in np.array_split(np.arange(num_components), num_workers)]


@dataclass
class GradientTable:
    """Per-worker block gradients with the iterate index each was read at."""

    blocks: Array  # (num_workers, dimension)
    sources: Array  # (num_workers,) int
    ready: Array  # (num_workers,) bool
    partition: list = field(default_factory=list)

    @classmethod
    def empty(cls, num_workers: int, dimension: int, partition: list) -> "GradientTable":
        return cls(
            blocks=np.zeros((num_workers, dimension)),
            sources=np.zeros(num_workers, dtype=int),
            ready=np.zeros(num_workers, dtype=bool),
            partition=partition,
        )

    def refresh(self, worker: int, gradient: Array, source: int) -> None:
        self.blocks[worker] = gradient
        self.sources[worker] = source
        self.ready[worker] = True


def aggregate(table: GradientTable) -> Array:
    """Sum of all block gradients; every block must have been populated."""
    if not table.ready.all():
        missing = np.nonzero(~table.ready)[0].tolist()
        raise StateError(f"gradient table has unpopulated blocks: {missing}")
    return table.blocks.sum(axis=0)


def ipiag_step(
    state: IterateState,
    params: SolverParams,
    g: Array,
    prox_fn,
) -> IterateState:
    """Advance the three-map update by one iteration."""
    # a finite sum implies finite entries; one reduction beats isfinite(arr).all()
    if not math.isfinite(float(g.sum())):
        raise NumericError("aggregated gradient is not finite", iteration=state.k)
    y_next = state.x_curr + params.eta1 * (state.x_curr - state.x_prev)
    z_next = prox_fn(y_next - params.alpha * g, params.alpha)
    x_next = z_next + params.eta2 * (z_next - state.z_curr)
    if not math.isfinite(float(z_next.sum()) + float(x_next.sum())):
        raise NumericError("iterate became non-finite", iteration=state.k)
    return IterateState(
        k=state.k + 1,
        x_curr=x_next,
        x_prev=state.x_curr,
        z_curr=z_next,
        z_prev=state.z_curr,
        y_curr=y_next,
    )


@dataclass
class Trace:
    """Per-iteration record of a run.

    Record j describes iterate j: objective, squared distance to the
    reference point, the Lyapunov value phi gap + (1-eta1)/(2 alpha) * dist2,
    the squared step ||z_j - z_{j-1}||^2 (0 at j=0), and the staleness of
    the gradient table entries used to produce z_j (zeros at j=0).  dist2
    and psi are NaN when no reference point / optimal value is available.
    """

    k: Array
    phi: Array
    dist2: Array
    psi: Array
    step_norm2: Array
    staleness: Array  # (records, num_workers)
    alpha: float
    eta1: float
    eta2: float
    x_final: Array
    y_final: Array
    z_final: Array
    phi_star: Optional[float] = None
    x_ref: Optional[Array] = None
    z: Optional[Array] = None  # (records, d) when stored

    @property
    def records(self) -> int:
        return len(self.k)

    @property
    def max_staleness(self) -> Array:
        return self.staleness.max(axis=1)

    def to_csv(self, path: str) -> None:
        fmt = float_format()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("k,phi,dist2,psi,step_norm2,max_staleness\n")
            stale = self.max_staleness
            for j in range(self.records):
                row = ",".join(
                    [
                        str(int(self.k[j])),
                        fmt % self.phi[j],
                        fmt % self.dist2[j],
                        fmt % self.psi[j],
                        fmt % self.step_norm2[j],
                        str(int(stale[j])),
                    ]
                )
                fh.write(row + "\n")


def iterations_to_threshold(values: Array, threshold: float) -> Optional[int]:
    """First record index at which ``values`` drops to ``threshold`` or below."""
    hit = np.nonzero(values <= threshold)[0]
    return int(hit[0]) if hit.size else None


def run(
    problem: CompositeProblem,
    params: SolverParams,
    schedule: DelaySchedule,
    x0: Array,
    x_ref: Optional[Array] = None,
    phi_star: Optional[float] = None,
    store_iterates: bool = True,
) -> Trace:
    """Replay a delay schedule deterministically and trace the run.

    The gradient table is initialized with every block evaluated at x0.
    Refreshes for iteration k are applied before aggregation, reading the
    stored iterate named by the schedule (current iterate for generated
    schedules).  Aborts with DivergenceError if the objective exceeds its
    initial value by more than DIVERGENCE_FACTOR (relative guard).

    When the problem has a known optimum it is used as the reference point
    for dist2/psi unless ``x_ref`` overrides it.  If ``x_ref`` is given
    without ``phi_star``, the objective at ``x_ref`` is used.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (problem.dimension,):
        raise ValueError("x0 has the wrong dimension")
    K = params.max_iters
    if schedule.iterations < K:
        raise ValueError("schedule is shorter than max_iters")
    if x_ref is None and problem.known_optimum is not None:
        x_ref, phi_star = problem.known_optimum
    if x_ref is not None:
        x_ref = np.asarray(x_ref, dtype=float)
        if phi_star is None:
            phi_star = evaluate_objective(problem, x_ref)

    W = schedule.num_workers
    tau = schedule.tau
    partition = contiguous_partition(problem.num_components, W)
    table = GradientTable.empty(W, problem.dimension, partition)
    for w in range(W):
        table.refresh(w, problem.sum_block_gradient(partition[w], x0), 0)

    # ring buffer of recent x iterates for stale reads
    ring = max(tau + 2, 2)
    x_hist = np.zeros((ring, problem.dimension))
    x_hist[0] = x0

    n_rec = K + 1
    phi = np.full(n_rec, np.nan)
    dist2 = np.full(n_rec, np.nan)
    psi = np.full(n_rec, np.nan)
    step2 = np.zeros(n_rec)
    stale = np.zeros((n_rec, W), dtype=int)
    zs = np.zeros((n_rec, problem.dimension)) if store_iterates else None

    lyap_coef = (1.0 - params.eta1) / (2.0 * params.alpha)

    def observe(j: int, z: Array) -> float:
        phi[j] = value = evaluate_objective(problem, z)
        if x_ref is not None:
            diff = z - x_ref
            dist2[j] = d2 = float(diff @ diff)
            if phi_star is not None:
                psi[j] = (value - phi_star) + lyap_coef * d2
        return value

    state = IterateState.initial(x0)
    phi0 = observe(0, state.z_curr)
    guard = DIVERGENCE_FACTOR * max(1.0, abs(phi0))
    if store_iterates:
        zs[0] = state.z_curr

    executed = 0
    for k in range(K):
        for w, s in zip(schedule.refreshed[k], schedule.source_iter[k]):
            if s < k - tau or s < 0 or s > k:
                raise ScheduleError(
                    f"iteration {k}: source {s} outside the allowed window"
                )
            table.refresh(w, problem.sum_block_gradient(partition[w], x_hist[s % ring]), s)
        g = aggregate(table)
        new_state = ipiag_step(state, params, g, problem.prox)
        j = k + 1
        stale[j] = k - table.sources
        dz = new_state.z_curr - state.z_curr
        step2[j] = dz @ dz
        x_hist[j % ring] = new_state.x_curr
        if store_iterates:
            zs[j] = new_state.z_curr
        phi_j = observe(j, new_state.z_curr)
        state = new_state
        executed = j
        if phi_j > guard:
            raise DivergenceError(
                f"objective {phi_j:.3e} exceeds the divergence guard "
                f"({DIVERGENCE_FACTOR:.0e} relative to the start)",
                iteration=j,
            )
        if params.stop_tolerance is not None and np.sqrt(step2[j]) < params.stop_tolerance:
            break

    n = executed + 1
    return Trace(
        k=np.arange(n),
        phi=phi[:n],
        dist2=dist2[:n],
        psi=psi[:n],
        step_norm2=step2[:n],
        staleness=stale[:n],
        alpha=params.alpha,
        eta1=params.eta1,
        eta2=params.eta2,
        x_final=state.x_curr.copy(),
        y_final=state.y_curr.copy(),
        z_final=state.z_curr.copy(),
        phi_star=None if phi_star is None else float(phi_star),
        x_ref=None if x_ref is None else np.asarray(x_ref, dtype=float).copy(),
        z=None if zs is None else zs[:n],
    )
