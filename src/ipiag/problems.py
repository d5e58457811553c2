"""Built-in problem generators and the JSON documents that rebuild them.

Two families:

``toy``    a chain-coupled quadratic over the nonnegative orthant with an
           l1 penalty.  Everything about it is closed form: the summed
           gradient is diagonal, the growth modulus is 2, and the unique
           minimizer sits on the first coordinate axis.

``lasso``  least squares rows plus an l1 penalty, with data drawn
           deterministically from the counter-based generator so the same
           seed yields the same instance everywhere.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import Array, CompositeProblem, block_range
from .prox import ProxSpec
from .rng import SplitMix64
from .schedules import schedule_synchronous
from .solver import SolverParams, run


@dataclass(frozen=True)
class ToySpec:
    """Chain-coupled quadratic: N components over N coordinates."""

    num_components: int
    offset: float = 3.0
    l1_weight: float = 1.0

    def __post_init__(self):
        if self.num_components < 2:
            raise ValueError("need at least two components")
        if not 0.0 < self.offset < math.inf:
            raise ValueError("offset must be positive and finite")
        if not 0.0 <= self.l1_weight < math.inf:
            raise ValueError("l1_weight must be nonnegative and finite")
        if math.isinf(1.5 * self.num_components * self.offset * self.offset):
            raise ValueError("offset is so large that the objective overflows")

    @property
    def regularizer(self) -> ProxSpec:
        """h = l1_weight ||x||_1 plus the nonnegativity indicator."""
        return ProxSpec("nonneg_l1", self.l1_weight)


def make_toy(spec: ToySpec) -> CompositeProblem:
    """Build the chain-coupled quadratic test problem.

    Component n (0-based) touches coordinates n-1, n, n+1:

        f_0 = (x_0 - c)^2 + (x_1 + c)^2 / 2
        f_n = ((x_{n-1} + c)^2 + (x_n - c)^2 + (x_{n+1} + c)^2) / 2
        f_{N-1} = ((x_{N-2} + c)^2 + (x_{N-1} - c)^2) / 2

    with h(x) = l1_weight * ||x||_1 plus the nonnegativity indicator.  The
    summed gradient is diagonal: 3 x_0 - c on the first coordinate,
    3 x_j + c inside, 2 x_{N-1} at the end, so the minimizer is
    max(0, c - l1_weight) / 3 on coordinate 0 and zero elsewhere.
    """
    n = spec.num_components
    c = spec.offset
    prox_spec = spec.regularizer

    def smooth_value(x: Array) -> float:
        x = np.asarray(x, dtype=float)
        # the scalar head keeps numpy's pow, which differs from d * d in the last bit
        head = float((x[0] - c) ** 2)
        minus = x[1:] - c
        plus = x + c
        plus_sq = plus * plus
        self_sq = head + 0.5 * float(np.add.reduce(minus * minus))
        left_sq = 0.5 * float(np.add.reduce(plus_sq[:-1]))
        right_sq = 0.5 * float(np.add.reduce(plus_sq[1:]))
        return self_sq + left_sq + right_sq

    def block_gradient(indices: Array, x: Array) -> Array:
        lo, hi = block_range(indices, n)
        g = np.zeros(n)
        g[lo:hi] = x[lo:hi] - c
        if lo == 0:
            g[0] += x[0] - c
        a = max(lo, 1) - 1
        g[a : hi - 1] += x[a : hi - 1] + c  # left neighbours; empty for the block [0, 1)
        g[lo + 1 : hi + 1] += x[lo + 1 : hi + 1] + c  # right neighbours, clipped at n
        return g

    lipschitz = np.ones(n)
    lipschitz[0] = 2.0

    x_star = np.zeros(n)
    x_star[0] = max(0.0, c - spec.l1_weight) / 3.0
    phi_star = smooth_value(x_star) + prox_spec.value(x_star)

    return CompositeProblem(
        dimension=n,
        num_components=n,
        block_gradient=block_gradient,
        smooth_value=smooth_value,
        regularizer_value=prox_spec.value,
        prox=prox_spec.prox,
        component_lipschitz=lipschitz,
        growth_constant=2.0,
        known_optimum=(x_star, phi_star),
    )


def toy_document(spec: ToySpec) -> dict:
    problem = make_toy(spec)
    generator = {
        "name": "toy",
        "params": {
            "num_components": spec.num_components,
            "offset": spec.offset,
            "l1_weight": spec.l1_weight,
        },
        "seed": None,
    }
    return problem_to_document(problem, generator, spec.regularizer.to_json())


@dataclass(frozen=True)
class LassoSpec:
    """Row-separable least squares with an l1 penalty."""

    rows: int = 60
    cols: int = 200
    sparsity: float = 0.1
    l1_weight: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be positive")
        if not 0.0 < self.sparsity <= 1.0:
            raise ValueError("sparsity must lie in (0, 1]")
        if not 0.0 <= self.l1_weight < math.inf:
            raise ValueError("l1_weight must be nonnegative and finite")
        if not isinstance(self.seed, numbers.Integral):  # int() truncates 1.5 and overflows on inf
            raise ValueError(f"seed must be an integer, got {self.seed!r}")

    @property
    def regularizer(self) -> ProxSpec:
        """h = l1_weight ||x||_1."""
        return ProxSpec("l1", self.l1_weight)


def lasso_arrays(spec: LassoSpec) -> tuple:
    """Deterministic (A, b, x_true) for a spec.

    Draw order from one stream seeded with ``spec.seed``: the rows*cols
    matrix entries, then the support via a partial shuffle, then the
    nonzero values.  b = A @ x_true with no noise, so the planted vector
    attains zero residual.
    """
    rng = SplitMix64(spec.seed)
    a = rng.normals(spec.rows * spec.cols).reshape(spec.rows, spec.cols)
    k = max(1, int(round(spec.sparsity * spec.cols)))
    support = rng.shuffle_prefix(spec.cols, k)
    x_true = np.zeros(spec.cols)
    x_true[support] = rng.normals(k)
    b = a @ x_true
    return a, b, x_true


def make_lasso(spec: LassoSpec) -> CompositeProblem:
    """Least-squares components f_i = (a_i . x - b_i)^2 / 2, h = l1.

    The growth modulus is not computed from the data, so the problem has
    none; a document's ``beta`` supplies one (``problem_from_document``).
    """
    a, b, _ = lasso_arrays(spec)
    prox_spec = spec.regularizer
    lipschitz = np.sum(a * a, axis=1)

    def smooth_value(x: Array) -> float:
        r = a @ x - b
        return 0.5 * float(r @ r)

    def block_gradient(indices: Array, x: Array) -> Array:
        lo, hi = block_range(indices, spec.rows)
        rows = a[lo:hi]
        return rows.T @ (rows @ x - b[lo:hi])

    return CompositeProblem(
        dimension=spec.cols,
        num_components=spec.rows,
        block_gradient=block_gradient,
        smooth_value=smooth_value,
        regularizer_value=prox_spec.value,
        prox=prox_spec.prox,
        component_lipschitz=lipschitz,
    )


def lasso_document(spec: LassoSpec) -> dict:
    problem = make_lasso(spec)
    generator = {
        "name": "lasso",
        "params": {
            "rows": spec.rows,
            "cols": spec.cols,
            "sparsity": spec.sparsity,
            "l1_weight": spec.l1_weight,
        },
        "seed": spec.seed,
    }
    return problem_to_document(problem, generator, spec.regularizer.to_json())


def spectral_norm_sq(a: Array) -> float:
    """Largest eigenvalue of A^T A (squared spectral norm of A)."""
    a = np.asarray(a, dtype=float)
    gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    return float(np.linalg.eigvalsh(gram)[-1])


def reference_solution(
    problem: CompositeProblem,
    alpha: float,
    max_iters: int = 200000,
    tol: float = 1e-10,
) -> tuple:
    """High-accuracy solution via the synchronous method without inertia.

    Runs with a single always-fresh worker until the step norm drops below
    ``tol``.  Returns (x_ref, phi_ref).
    """
    params = SolverParams(alpha=alpha, max_iters=max_iters, stop_tolerance=tol)
    schedule = schedule_synchronous(1, max_iters)
    trace = run(
        problem,
        params,
        schedule,
        np.zeros(problem.dimension),
        store_iterates=False,
    )
    return trace.z_final, float(trace.phi[-1])


def _generate(name: str, params: dict, seed) -> tuple:
    """(spec, problem) for the generator name and parameters of a document."""
    if name == "toy":
        spec = ToySpec(**params)
        return spec, make_toy(spec)
    if name == "lasso":
        merged = dict(params)
        if seed is not None:
            merged.setdefault("seed", seed)
        spec = LassoSpec(**merged)
        return spec, make_lasso(spec)
    raise ValueError(f"unknown problem generator {name!r}")


# ---------------------------------------------------------------------------
# JSON problem documents
#
# Schema (all floats plain JSON numbers):
#   {
#     "dimension": int,
#     "num_components": int,
#     "generator": {"name": str, "params": {...}, "seed": int | null},
#     "L_n": [float, ...],
#     "beta": float | null,
#     "prox": {"kind": str, "lambda": float},
#     "known_optimum": {"x": [...], "phi": float} | null
#   }
# ---------------------------------------------------------------------------

def problem_to_document(
    problem: CompositeProblem,
    generator: dict,
    prox_spec: dict,
) -> dict:
    """Serializable metadata document for a generated problem."""
    opt = None
    if problem.known_optimum is not None:
        x_star, phi_star = problem.known_optimum
        opt = {"x": [float(v) for v in x_star], "phi": float(phi_star)}
    return {
        "dimension": problem.dimension,
        "num_components": problem.num_components,
        "generator": generator,
        "L_n": [float(v) for v in problem.component_lipschitz],
        "beta": None if problem.growth_constant is None else float(problem.growth_constant),
        "prox": dict(prox_spec),
        "known_optimum": opt,
    }


def _close(stored, value) -> bool:
    """Stored numbers match value to a relative 1e-12, shape included."""
    stored = np.asarray(stored, dtype=float)
    return stored.shape == np.shape(value) and np.allclose(stored, value, rtol=1e-12, atol=0.0)


def _document_beta(value) -> float:
    """A document's beta as a float: a number, not a bool or a string, positive and finite."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            beta = float(value)
        except OverflowError:  # a JSON integer beyond the float range
            beta = math.inf
        if 0.0 < beta < math.inf:
            return beta
    raise ValueError(
        f"document beta must be a positive finite number, got {json.dumps(value, default=repr)}"
    )


def problem_from_document(doc: dict) -> CompositeProblem:
    """Rebuild a problem from its document via the generator registry.

    The generator is re-run once from its recorded params/seed; every stored
    field (dimension, num_components, L_n, beta, prox, known_optimum) is
    checked against the rebuilt instance.  L_n, beta, prox and
    known_optimum may be absent or null.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a problem document is a JSON object, not {type(doc).__name__}")
    gen = doc.get("generator")
    if not isinstance(gen, dict) or "name" not in gen:
        raise ValueError("document lacks a generator block")
    spec, problem = _generate(gen["name"], gen.get("params", {}), gen.get("seed"))
    if "dimension" in doc and doc["dimension"] != problem.dimension:
        raise ValueError("document dimension does not match the generator output")
    if "num_components" in doc and doc["num_components"] != problem.num_components:
        raise ValueError("document num_components does not match the generator output")
    if doc.get("L_n") is not None and not _close(doc["L_n"], problem.component_lipschitz):
        raise ValueError("document L_n does not match the generator output")
    if doc.get("beta") is not None:
        beta = _document_beta(doc["beta"])
        if problem.growth_constant is None:
            problem.growth_constant = beta
        elif not math.isclose(beta, problem.growth_constant, rel_tol=1e-12):
            raise ValueError("document beta does not match the generator output")
    if doc.get("prox") is not None and doc["prox"] != spec.regularizer.to_json():
        raise ValueError("document prox does not match the generator output")
    stored = doc.get("known_optimum")
    if stored is not None:
        opt = problem.known_optimum
        if not (
            isinstance(stored, dict)
            and opt is not None
            and _close(stored.get("x"), opt[0])
            and _close(stored.get("phi"), opt[1])
        ):
            raise ValueError("document known_optimum does not match the generator output")
    return problem


def load_problem(path: str) -> CompositeProblem:
    """Read a problem document from a JSON file and rebuild it."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return problem_from_document(doc)
