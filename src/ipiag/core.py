"""Composite problem container and objective/gradient utilities.

A problem is the sum of ``num_components`` smooth convex pieces plus one
(possibly nonsmooth) regularizer accessed only through its proximal map.
Everything downstream (solver, certificates, verifiers) works against this
container, so generators for concrete instances only have to fill in the
callables and the metadata (per-component gradient Lipschitz constants and,
when known, the quadratic-growth modulus and the optimum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .inputs import COMPOSITE_PROBLEM, read

Array = np.ndarray
# step of the central differences in ``gradient_consistency_check``
FD_STEP = 1e-6


class NumericError(RuntimeError):
    """A non-finite quantity appeared; carries the iteration index."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


class DivergenceError(NumericError):
    """Objective blew past the divergence guard."""


@dataclass
class CompositeProblem:
    """Finite-sum objective F(x) = sum_n f_n(x) plus regularizer h(x).

    Parameters
    ----------
    dimension : ambient dimension d.
    num_components : number N of smooth pieces.
    block_gradient : callable (indices, x) -> sum of the gradients of f_n at x
        over the contiguous block ``indices`` (see ``block_range``), length d.
    smooth_value : callable x -> F(x).
    regularizer_value : callable x -> h(x), may return inf outside the domain.
    prox : callable (v, alpha) -> argmin_z h(z) + ||z - v||^2 / (2 alpha).
    component_lipschitz : length-N array of gradient Lipschitz constants L_n.
    growth_constant : quadratic-growth modulus beta, or None when unknown.
    known_optimum : optional (x_star, phi_star) pair.

    ``total_lipschitz``, L = sum of component_lipschitz, is derived, not passed.
    """

    dimension: int
    num_components: int
    block_gradient: Callable[[Array, Array], Array]
    smooth_value: Callable[[Array], float]
    regularizer_value: Callable[[Array], float]
    prox: Callable[[Array, float], Array]
    component_lipschitz: Array
    growth_constant: Optional[float] = None
    known_optimum: Optional[tuple[Array, float]] = None
    total_lipschitz: float = field(init=False)

    def __post_init__(self):
        read({"dimension": self.dimension, "num_components": self.num_components,
              "growth_constant": self.growth_constant}, COMPOSITE_PROBLEM)
        self.component_lipschitz = np.asarray(self.component_lipschitz, dtype=float)
        if self.component_lipschitz.shape != (self.num_components,):
            raise ValueError("component_lipschitz must have one entry per component")
        if not np.all((self.component_lipschitz > 0) & (self.component_lipschitz < math.inf)):
            raise ValueError("component Lipschitz constants must be positive and finite")
        self.total_lipschitz = float(np.sum(self.component_lipschitz))
        if self.known_optimum is not None:
            x_star, phi_star = self.known_optimum
            x_star = np.asarray(x_star, dtype=float)
            if x_star.shape != (self.dimension,):
                raise ValueError("known optimum has the wrong dimension")
            self.known_optimum = (x_star, float(phi_star))


def block_range(indices: Array, n: int) -> tuple[int, int]:
    """(lo, hi) of ``indices`` = lo, ..., hi-1 in [0, n), else ValueError.

    Only the ends and the length are read; entries between them are trusted.
    """
    ns = np.asarray(indices)
    if ns.ndim != 1 or ns.size == 0:
        raise ValueError("a block is a nonempty 1-D index range")
    lo, hi = int(ns[0]), int(ns[-1]) + 1
    if hi - lo != ns.size or lo < 0 or hi > n:
        raise ValueError(f"{ns.size} indices from {lo} to {hi - 1} are not a range in 0..{n - 1}")
    return lo, hi


def _check_point(problem: CompositeProblem, x: Array) -> Array:
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.dimension,):
        raise ValueError(
            f"point has shape {x.shape}, expected ({problem.dimension},)"
        )
    return x


def record_objective(problem: CompositeProblem) -> Callable[[Array], float]:
    """x -> F(x) + h(x) for float arrays of shape (d,), the problem's callables bound once.

    The regularizer is evaluated first; when it is infinite the smooth value
    is never asked for and the objective is +inf.
    """
    regularizer_value, smooth_value = problem.regularizer_value, problem.smooth_value

    def objective(x: Array) -> float:
        h = float(regularizer_value(x))
        if math.isinf(h):
            return math.inf
        return float(smooth_value(x)) + h

    return objective


def evaluate_objective(problem: CompositeProblem, x: Array) -> float:
    """Full objective F(x) + h(x) at a checked point (``record_objective``)."""
    return record_objective(problem)(_check_point(problem, x))


def full_gradient(problem: CompositeProblem, x: Array) -> Array:
    """Sum of all component gradients, one single-component block at a time, in order."""
    x = _check_point(problem, x)
    g = np.zeros(problem.dimension)
    for n in range(problem.num_components):
        g += problem.block_gradient(np.arange(n, n + 1), x)
    return g


def gradient_consistency_check(problem: CompositeProblem, x: Array) -> float:
    """Max abs deviation of central differences of F, with step FD_STEP, from the
    summed gradient.

    Normalized by (1 + max abs gradient entry) so the return value is
    comparable across problem scales.
    """
    x = _check_point(problem, x)
    g = full_gradient(problem, x)
    fd = np.empty(problem.dimension)
    for i in range(problem.dimension):
        e = np.zeros(problem.dimension)
        e[i] = FD_STEP
        fd[i] = (problem.smooth_value(x + e) - problem.smooth_value(x - e)) / (2 * FD_STEP)
    denom = 1.0 + float(np.max(np.abs(g))) if g.size else 1.0
    return float(np.max(np.abs(fd - g))) / denom
