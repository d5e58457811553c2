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
from .rng import BLOCK, SplitMix64
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
    c0 = np.array(c)  # a ufunc converts a Python float operand on every call, a 0-d array not

    def smooth_value(x: Array) -> float:
        x = np.asarray(x, dtype=float)
        # rows x[1:] + c, x[1:] - c, x[:-1] + c, squared in place; a reduce along
        # the contiguous last axis sums each row pairwise, as a 1-D reduce would
        np.add(x[1:], shifts, table[:2])
        np.add(x[:-1], c0, table[2])
        np.multiply(table, table, table)
        right_sq, minus_sq, left_sq = np.add.reduce(table, 1).tolist()
        try:
            head = math.pow(x.item(0) - c, 2.0)  # numpy's scalar pow; d * d differs in the last bit
        except OverflowError:
            head = math.inf
        return (head + 0.5 * minus_sq) + 0.5 * left_sq + 0.5 * right_sq

    def block_gradient(indices: Array, x: Array) -> Array:
        lo, hi = block_range(indices, n)
        g = np.zeros(n)
        np.subtract(x[lo:hi], c0, g[lo:hi])
        if lo == 0:
            g[0] += g[0]  # f_0's own term is (x_0 - c) twice, and doubling is exact
        a = max(lo, 1) - 1
        plus = np.add(x[a : hi + 1], c0)  # x + c over [a, hi + 1), clipped at n
        left = g[a : hi - 1]  # left neighbours; empty for the block [0, 1)
        np.add(left, plus[: hi - 1 - a], left)
        right = g[lo + 1 : hi + 1]  # right neighbours
        np.add(right, plus[lo + 1 - a :], right)
        return g

    lipschitz = np.ones(n)
    lipschitz[0] = 2.0
    table = np.empty((3, n - 1))  # smooth_value's rows, after the arrays numpy refuses first

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
    return _document("toy", spec, make_toy)


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


def _row_norms_sq(a: Array) -> Array:
    """Row sums of squares, pairwise as ``np.sum(a * a, axis=1)``, a block of rows at a time."""
    step = max(1, BLOCK // a.shape[1])
    out = np.empty(a.shape[0])
    squares = np.empty((min(step, a.shape[0]), a.shape[1]))
    for lo in range(0, a.shape[0], step):
        rows = a[lo : lo + step]
        block = squares[: len(rows)]
        np.multiply(rows, rows, out=block)
        np.add.reduce(block, axis=1, out=out[lo : lo + step])
    return out


def _row_blocks(rows: int, cols: int) -> list:
    """(lo, hi) row blocks of about ``BLOCK`` entries whose GEMVs give ``a.dot(x)``'s bits.

    OpenBLAS's ``dgemv_t`` takes rows four at a time and the rest one at a time, so a row's
    sum keeps its bits only where it sits at the same offset mod 4: every block starts on a
    multiple of 4 rows, and a tail of fewer than 4 rows joins the last block.
    """
    step = max(4, BLOCK // cols // 4 * 4)
    starts = list(range(0, max(rows - 3, 1), step))
    return list(zip(starts, starts[1:] + [rows]))


def _keeps_row_sums(lo: int, hi: int, rows: int) -> bool:
    """Whether ``a[lo:hi].dot(x)`` gives rows lo..hi-1 the bits ``_row_blocks``' GEMVs give them.

    The rows must sit at the same offsets mod 4, and a lone row is numpy's dot product,
    not a GEMV, unless the matrix itself has one row.  This holds while OpenBLAS runs each
    GEMV on one thread, which it does below some 4.6e5 entries or at one BLAS thread.
    """
    return lo % 4 == 0 and ((hi - lo) % 4 == 0 or hi == rows) and (hi - lo > 1 or rows == 1)


def make_lasso(spec: LassoSpec) -> CompositeProblem:
    """Least-squares components f_i = (a_i . x - b_i)^2 / 2, h = l1.

    The growth modulus is not computed from the data, so the problem has
    none; a document's ``beta`` supplies one (``problem_from_document``).
    """
    a, b, _ = lasso_arrays(spec)
    prox_spec = spec.regularizer
    lipschitz = _row_norms_sq(a)
    res = np.empty(spec.rows)
    point = np.empty(spec.cols)  # while fresh, res holds A point - b
    blocks = [(a[lo:hi], res[lo:hi]) for lo, hi in _row_blocks(spec.rows, spec.cols)]
    passes = (blocks[::-1], blocks)  # bottom up, top down
    turn = 0  # the pass smooth_value takes next
    fresh = False

    def smooth_value(x: Array) -> float:
        nonlocal fresh, turn
        fresh = False  # until res is complete, so a call that raises leaves no stale pair
        # A x one cache-sized row block at a time, each pass in the opposite order to the
        # last, so it starts on the rows still in L2; ndarray.dot: the BLAS kernels of @,
        # with less call overhead
        for rows, out in passes[turn]:
            rows.dot(x, out=out)
        turn ^= 1
        np.subtract(res, b, res)
        point[...] = x
        fresh = True
        return 0.5 * float(res.dot(res))

    def block_gradient(indices: Array, x: Array) -> Array:
        nonlocal turn
        lo, hi = block_range(indices, spec.rows)
        rows = a[lo:hi]
        if hi - lo == spec.rows:
            turn = 0  # its GEMVs read A top down, so the next objective starts at the bottom
        # at the last objective's point, by value (dgemv_t's row sums ignore the sign of a
        # zero entry of x), res already holds A_w x - b_w; one entry first, so a miss is cheap
        if (fresh and _keeps_row_sums(lo, hi, spec.rows) and x.shape == point.shape
                and x.item(0) == point.item(0) and (x == point).all()):
            return rows.T.dot(res[lo:hi])
        return rows.T.dot(rows.dot(x) - b[lo:hi])

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
    return _document("lasso", spec, make_lasso)


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


def _generate(name: str, params: dict) -> tuple:
    """(spec, problem) for the generator name and params of a document."""
    if name == "toy":
        spec_type, table, make, sizes = ToySpec, TOY_PARAMS, make_toy, ("num_components",)
    else:
        spec_type, table, make, sizes = LassoSpec, LASSO_PARAMS, make_lasso, ("rows", "cols")
    params = read(params, table, "generator.params")
    spec = spec_type(**params)
    return spec, sized({f"generator.params.{size}": params[size] for size in sizes}, make, spec)


# JSON problem documents: ``inputs.DOCUMENT`` and ``inputs.GENERATOR`` declare the fields.

def _document(name: str, spec, make) -> dict:
    """The document of the problem ``make(spec)``, whose generator is ``name`` and the spec."""
    generator = {"name": name, "params": dict(vars(spec))}
    return problem_to_document(make(spec), generator, spec.regularizer.to_json())


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

    The generator is re-run once from its recorded params; every stored
    field (dimension, num_components, L_n, beta, prox, known_optimum) is
    checked against the rebuilt instance.  Every stored field may be absent,
    and all but dimension and num_components may be null.
    """
    fields = read(doc, DOCUMENT)
    gen = read(fields["generator"], GENERATOR, "generator")
    spec, problem = _generate(gen["name"], gen["params"])
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
