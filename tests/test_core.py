import dataclasses
import json

import numpy as np
import pytest

from ipiag import (
    CompositeProblem,
    SolverParams,
    ToySpec,
    evaluate_objective,
    full_gradient,
    gradient_consistency_check,
    load_problem,
    make_toy,
    problem_from_document,
    run,
    schedule_synchronous,
)
from ipiag.core import block_range
from ipiag.problems import toy_document


def tiny_problem(growth=None, optimum=None):
    def block_gradient(indices, x):
        # component 0 is x_0^2, component 1 is 2 x_1^2
        lo, hi = block_range(indices, 2)
        return np.array([2.0 * x[0] if lo == 0 else 0.0, 4.0 * x[1] if hi == 2 else 0.0])

    return CompositeProblem(
        dimension=2,
        num_components=2,
        block_gradient=block_gradient,
        smooth_value=lambda x: float(x[0] ** 2 + 2.0 * x[1] ** 2),
        regularizer_value=lambda x: 0.0,
        prox=lambda v, a: np.asarray(v, dtype=float).copy(),
        component_lipschitz=np.array([2.0, 4.0]),
        growth_constant=growth,
        known_optimum=optimum,
    )


class TestProblemValidation:
    def test_accepts_a_well_formed_instance(self):
        p = tiny_problem()
        assert p.total_lipschitz == 6.0

    def test_rejects_wrong_lipschitz_length(self):
        with pytest.raises(ValueError):
            CompositeProblem(
                dimension=2,
                num_components=2,
                block_gradient=lambda indices, x: x,
                smooth_value=lambda x: 0.0,
                regularizer_value=lambda x: 0.0,
                prox=lambda v, a: v,
                component_lipschitz=np.array([1.0]),
            )

    def test_rejects_nonpositive_lipschitz(self):
        # an infinite entry would make total_lipschitz infinite
        for lipschitz in ([1.0, 0.0], [1.0, np.inf]):
            with pytest.raises(ValueError, match="positive and finite"):
                CompositeProblem(
                    dimension=2,
                    num_components=2,
                    block_gradient=lambda indices, x: x,
                    smooth_value=lambda x: 0.0,
                    regularizer_value=lambda x: 0.0,
                    prox=lambda v, a: v,
                    component_lipschitz=np.array(lipschitz),
                )

    def test_rejects_total_mismatch(self):
        # the total is derived from the components, so no total, matching or not, is taken
        with pytest.raises(TypeError, match="total_lipschitz"):
            CompositeProblem(
                dimension=2,
                num_components=2,
                block_gradient=lambda indices, x: x,
                smooth_value=lambda x: 0.0,
                regularizer_value=lambda x: 0.0,
                prox=lambda v, a: v,
                component_lipschitz=np.array([1.0, 1.0]),
                total_lipschitz=3.0,
            )

    def test_replace_rederives_the_total(self):
        # the benchmark tracer copies problems with dataclasses.replace
        p = tiny_problem()
        traced = dataclasses.replace(p, block_gradient=lambda indices, x: x)
        assert traced.total_lipschitz == 6.0
        doubled = dataclasses.replace(p, component_lipschitz=np.array([4.0, 8.0]))
        assert doubled.total_lipschitz == 12.0

    def test_rejects_bad_growth_constant(self):
        for growth in (0.0, np.inf):
            with pytest.raises(ValueError, match="growth_constant"):
                tiny_problem(growth=growth)

    def test_rejects_optimum_with_wrong_dimension(self):
        with pytest.raises(ValueError):
            tiny_problem(optimum=(np.zeros(3), 0.0))
        with pytest.raises(ValueError, match="dimension must be an integer, got 2.5"):
            dataclasses.replace(tiny_problem(), dimension=2.5)


def test_objective_is_smooth_plus_regularizer():
    p = tiny_problem()
    x = np.array([1.0, -1.0])
    assert evaluate_objective(p, x) == pytest.approx(3.0)


def test_objective_propagates_infinite_regularizer():
    p = tiny_problem()
    p.regularizer_value = lambda x: float("inf")
    assert evaluate_objective(p, np.zeros(2)) == float("inf")


def test_full_gradient_sums_components():
    p = tiny_problem()
    x = np.array([3.0, -2.0])
    assert np.allclose(full_gradient(p, x), [6.0, -8.0])


def test_gradient_consistency_on_generated_problem():
    p = make_toy(ToySpec(num_components=8))
    assert gradient_consistency_check(p, np.linspace(-1.0, 1.0, 8)) < 1e-8


def test_sum_block_gradient_matches_component_loop():
    p = make_toy(ToySpec(num_components=12))
    x = np.linspace(-2.0, 2.0, 12)
    idx = np.arange(3, 12)
    manual = sum(p.block_gradient(np.arange(n, n + 1), x) for n in idx)
    assert np.allclose(p.block_gradient(idx, x), manual, atol=1e-12)
    for bad in (np.array([0, 3, 4, 5, 11]), np.arange(0), np.arange(11, 13), np.arange(-1, 2),
                np.arange(4).reshape(2, 2)):
        with pytest.raises(ValueError):
            p.block_gradient(bad, x)


def test_iterate_state_initial_copies_the_start_point():
    x0 = np.ones(2)
    trace = run(tiny_problem(), SolverParams(alpha=0.1, max_iters=0), schedule_synchronous(2, 0), x0)
    x0[0] = 99.0
    assert trace.x_final[0] == 1.0
    assert trace.z_final[0] == 1.0
    assert trace.records == 1


class TestDocuments:
    def test_roundtrip_restores_metadata(self):
        doc = toy_document(ToySpec(num_components=10))
        p = problem_from_document(doc)
        assert p.dimension == 10
        assert p.growth_constant == 2.0
        assert p.component_lipschitz[0] == 2.0
        x_star, phi_star = p.known_optimum
        assert evaluate_objective(p, x_star) == pytest.approx(phi_star)

    def test_tampered_lipschitz_is_rejected(self):
        for field, value in [
            ("L_n", [7.0] + [1.0] * 9),  # L_0 is 2
            ("prox", {"kind": "zero"}),
            ("known_optimum", {"x": [1.0] * 10, "phi": -5.0}),
        ]:
            doc = toy_document(ToySpec(num_components=10))
            doc[field] = value
            with pytest.raises(ValueError, match=f"document {field} does not match"):
                problem_from_document(doc)

    def test_missing_generator_is_rejected(self):
        with pytest.raises(ValueError):
            problem_from_document({"dimension": 3})

    def test_load_problem_reads_a_file(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(toy_document(ToySpec(num_components=6))))
        p = load_problem(str(path))
        assert p.num_components == 6

    def test_document_beta_fills_a_missing_growth_constant(self):
        from ipiag.problems import LassoSpec, lasso_document

        doc = lasso_document(LassoSpec(rows=6, cols=10, seed=3))
        assert doc["beta"] is None
        doc["beta"] = 0.5
        p = problem_from_document(doc)
        assert p.growth_constant == 0.5
