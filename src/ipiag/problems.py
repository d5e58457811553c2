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
from dataclasses import dataclass

import numpy as np

from .core import Array, CompositeProblem, block_range
from .inputs import DOCUMENT, GENERATOR, LASSO_PARAMS, OPTIMUM, TOY_PARAMS, read, sized
from .prox import ProxSpec
from .rng import SplitMix64
from .schedules import schedule_synchronous
from .solver import SolverParams, run


@dataclass(frozen=True)
class ToySpec:
    """Chain-coupled quadratic: N components over N coordinates (fields: ``TOY_PARAMS``)."""

    num_components: int
    offset: float = 3.0
    l1_weight: float = 1.0

    def __post_init__(self):
        read(vars(self), TOY_PARAMS, "generator.params")
        # a num_components beyond the float range (an OverflowError) sizes no array either
        n = sized({"generator.params.num_components": self.num_components}, float,
                  self.num_components)
        if math.isinf(1.5 * n * self.offset * self.offset):
            message = f"offset is so large that the objective overflows, got {self.offset!r}"
            raise ValueError("generator.params." + message)

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

    shifts = np.array([[c], [-c]])  # x - c is x + (-c) bit for bit

    def smooth_value(x: Array) -> float:
        x = np.asarray(x, dtype=float)
        # the scalar head keeps numpy's pow, which differs from d * d in the last bit
        head = float((x[0] - c) ** 2)
        # rows x[1:] + c, x[1:] - c, x[:-1] + c, squared in place; a reduce along
        # the contiguous last axis sums each row pairwise, as a 1-D reduce would
        table = np.empty((3, n - 1))
        np.add(x[1:], shifts, table[:2])
        np.add(x[:-1], c, table[2])
        np.multiply(table, table, table)
        right_sq, minus_sq, left_sq = np.add.reduce(table, 1).tolist()
        return (head + 0.5 * minus_sq) + 0.5 * left_sq + 0.5 * right_sq

    def block_gradient(indices: Array, x: Array) -> Array:
        lo, hi = block_range(indices, n)
        g = np.zeros(n)
        np.subtract(x[lo:hi], c, g[lo:hi])
        if lo == 0:
            g[0] += x[0] - c
        a = max(lo, 1) - 1
        plus = x[a : hi + 1] + c  # x + c over [a, hi + 1), clipped at n
        left = g[a : hi - 1]  # left neighbours; empty for the block [0, 1)
        np.add(left, plus[: hi - 1 - a], left)
        right = g[lo + 1 : hi + 1]  # right neighbours
        np.add(right, plus[lo + 1 - a :], right)
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
    generator = {"name": "toy", "params": dict(vars(spec)), "seed": None}
    return problem_to_document(make_toy(spec), generator, spec.regularizer.to_json())


@dataclass(frozen=True)
class LassoSpec:
    """Row-separable least squares with an l1 penalty (fields: ``LASSO_PARAMS``)."""

    rows: int = 60
    cols: int = 200
    sparsity: float = 0.1
    l1_weight: float = 0.2
    seed: int = 0

    def __post_init__(self):
        read(vars(self), LASSO_PARAMS, "generator.params")

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
    params = {name: value for name, value in vars(spec).items() if name != "seed"}
    generator = {"name": "lasso", "params": params, "seed": spec.seed}
    return problem_to_document(make_lasso(spec), generator, spec.regularizer.to_json())


def spectral_norm_sq(a: Array) -> float:
    """Largest eigenvalue of A^T A (squared spectral norm of A)."""
    a = np.asarray(a, dtype=float)
    gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    return float(np.linalg.eigvalsh(gram)[-1])


def reference_solution(problem: CompositeProblem, alpha: float, max_iters: int, tol: float):
    """High-accuracy solution via the synchronous method without inertia.

    Runs with a single always-fresh worker until the step norm drops below
    ``tol``.  Returns (x_ref, phi_ref).
    """
    params = SolverParams(alpha=alpha, max_iters=max_iters, stop_tolerance=tol)
    schedule = schedule_synchronous(1, max_iters)
    trace = run(problem, params, schedule, np.zeros(problem.dimension))
    return trace.z_final, float(trace.phi[-1])


def _generate(name: str, params: dict, seed) -> tuple:
    """(spec, problem) for the generator name, params and seed of a document."""
    if name == "toy":
        spec_type, table, make, sizes = ToySpec, TOY_PARAMS, make_toy, ("num_components",)
    else:
        params = params if seed is None else {"seed": seed, **params}
        spec_type, table, make, sizes = LassoSpec, LASSO_PARAMS, make_lasso, ("rows", "cols")
    params = read(params, table, "generator.params")
    spec = spec_type(**params)
    return spec, sized({f"generator.params.{size}": params[size] for size in sizes}, make, spec)


# JSON problem documents: ``inputs.DOCUMENT`` and ``inputs.GENERATOR`` declare the fields.

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


def problem_from_document(doc: dict) -> CompositeProblem:
    """Rebuild a problem from its document via the generator registry.

    The generator is re-run once from its recorded params/seed; every stored
    field (dimension, num_components, L_n, beta, prox, known_optimum) is
    checked against the rebuilt instance.  Every stored field may be absent,
    and all but dimension and num_components may be null.
    """
    fields = read(doc, DOCUMENT)
    gen = read(fields["generator"], GENERATOR, "generator")
    spec, problem = _generate(gen["name"], gen["params"], gen["seed"])
    if fields["dimension"] is not None and fields["dimension"] != problem.dimension:
        raise ValueError("document dimension does not match the generator output")
    if fields["num_components"] is not None and fields["num_components"] != problem.num_components:
        raise ValueError("document num_components does not match the generator output")
    if fields["L_n"] is not None and not _close(fields["L_n"], problem.component_lipschitz):
        raise ValueError("document L_n does not match the generator output")
    beta = fields["beta"]
    if beta is not None:
        if problem.growth_constant is None:
            problem.growth_constant = beta
        elif not math.isclose(beta, problem.growth_constant, rel_tol=1e-12):
            raise ValueError("document beta does not match the generator output")
    if fields["prox"] is not None and fields["prox"] != spec.regularizer.to_json():
        raise ValueError("document prox does not match the generator output")
    if fields["known_optimum"] is not None:
        stored = read(fields["known_optimum"], OPTIMUM, "known_optimum")
        opt = problem.known_optimum
        if not (opt is not None and _close(stored["x"], opt[0]) and _close(stored["phi"], opt[1])):
            raise ValueError("document known_optimum does not match the generator output")
    return problem


def load_problem(path: str) -> CompositeProblem:
    """Read a problem document from a JSON file and rebuild it."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return problem_from_document(doc)
