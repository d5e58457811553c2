import numpy as np
import pytest

from ipiag import (
    CompositeProblem,
    DivergenceError,
    IterateState,
    NumericError,
    ProxSpec,
    SolverParams,
    StateError,
    ToySpec,
    aggregate,
    contiguous_partition,
    full_gradient,
    ipiag_step,
    iterations_to_threshold,
    make_toy,
    run,
    schedule_synchronous,
    schedule_uniform_single,
)
from ipiag.solver import GradientTable

from .oracles import toy_prox_grad_reference


def quadratic_1d(l=4.0):
    return CompositeProblem(
        dimension=1,
        num_components=1,
        component_gradient=lambda n, x: l * x,
        smooth_value=lambda x: 0.5 * l * float(x[0] ** 2),
        regularizer_value=lambda x: 0.0,
        prox=lambda v, a: np.asarray(v, dtype=float).copy(),
        component_lipschitz=np.array([l]),
        growth_constant=l,
        known_optimum=(np.zeros(1), 0.0),
    )


class TestParams:
    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            SolverParams(alpha=0.0)

    def test_rejects_out_of_range_inertia(self):
        with pytest.raises(ValueError):
            SolverParams(alpha=0.1, eta1=1.5)
        with pytest.raises(ValueError):
            SolverParams(alpha=0.1, eta2=-0.1)

    def test_rejects_negative_budget_and_tolerance(self):
        with pytest.raises(ValueError):
            SolverParams(alpha=0.1, max_iters=-1)
        with pytest.raises(ValueError):
            SolverParams(alpha=0.1, stop_tolerance=-1e-3)


def test_contiguous_partition_covers_everything_in_order():
    parts = contiguous_partition(10, 3)
    flat = np.concatenate(parts)
    assert np.array_equal(flat, np.arange(10))
    assert [len(p) for p in parts] == [4, 3, 3]


def test_partition_worker_count_bounds():
    with pytest.raises(ValueError):
        contiguous_partition(3, 0)
    with pytest.raises(ValueError):
        contiguous_partition(3, 4)


def test_aggregate_requires_a_fully_populated_table():
    table = GradientTable.empty(2, 3, [np.array([0]), np.array([1])])
    table.refresh(0, np.ones(3), 0)
    with pytest.raises(StateError):
        aggregate(table)
    table.refresh(1, 2.0 * np.ones(3), 0)
    assert np.allclose(aggregate(table), 3.0 * np.ones(3))


class TestStep:
    def setup_method(self):
        self.state = IterateState(
            k=0,
            x_curr=np.array([1.0, -2.0]),
            x_prev=np.array([0.5, -1.0]),
            z_curr=np.array([0.8, -1.5]),
            z_prev=np.array([0.8, -1.5]),
            y_curr=np.array([1.0, -2.0]),
        )
        self.g = np.array([0.3, 0.6])
        self.prox = ProxSpec("l1", 2.0).prox

    def test_hand_computed_update_without_post_inertia(self):
        params = SolverParams(alpha=0.1, eta1=0.5, eta2=0.0)
        out = ipiag_step(self.state, params, self.g, self.prox)
        assert np.allclose(out.y_curr, [1.25, -2.5])
        assert np.allclose(out.z_curr, [1.02, -2.36])
        assert np.allclose(out.x_curr, [1.02, -2.36])
        assert np.array_equal(out.x_prev, self.state.x_curr)
        assert np.array_equal(out.z_prev, self.state.z_curr)
        assert out.k == 1

    def test_hand_computed_update_with_post_inertia(self):
        params = SolverParams(alpha=0.1, eta1=0.5, eta2=0.25)
        out = ipiag_step(self.state, params, self.g, self.prox)
        assert np.allclose(out.z_curr, [1.02, -2.36])
        assert np.allclose(out.x_curr, [1.075, -2.575])

    def test_nonfinite_gradient_raises_with_the_iteration(self):
        params = SolverParams(alpha=0.1)
        with pytest.raises(NumericError) as info:
            ipiag_step(self.state, params, np.array([np.inf, 0.0]), self.prox)
        assert info.value.iteration == 0


def test_sync_run_matches_the_reference_iteration():
    prob = make_toy(ToySpec(num_components=30))
    alpha, K = 1e-3, 250
    trace = run(
        prob,
        SolverParams(alpha=alpha, max_iters=K),
        schedule_synchronous(4, K),
        np.zeros(30),
    )
    ref = toy_prox_grad_reference(np.zeros(30), 3.0, 1.0, alpha, K)
    assert np.max(np.abs(trace.z - ref)) <= 1e-12


def test_trace_bookkeeping_invariants():
    prob = make_toy(ToySpec(num_components=20))
    K = 150
    trace = run(
        prob,
        SolverParams(alpha=5e-4, max_iters=K),
        schedule_uniform_single(4, 3, K, seed=2),
        np.zeros(20),
    )
    assert trace.records == K + 1
    assert np.array_equal(trace.k, np.arange(K + 1))
    assert trace.step_norm2[0] == 0.0
    assert np.all(trace.staleness[0] == 0)
    assert trace.staleness.shape == (K + 1, 4)
    assert int(trace.max_staleness.max()) <= 3
    assert np.all(np.isfinite(trace.phi))
    # reference data filled from the known optimum
    assert np.all(np.isfinite(trace.dist2))
    assert np.all(trace.psi >= -1e-12)
    assert np.allclose(trace.z[-1], trace.z_final)


def test_early_stop_on_small_steps():
    prob = quadratic_1d()
    K = 1000
    trace = run(
        prob,
        SolverParams(alpha=0.2, max_iters=K, stop_tolerance=1e-9),
        schedule_synchronous(1, K),
        np.ones(1),
    )
    assert trace.records < K + 1
    assert np.sqrt(trace.step_norm2[-1]) < 1e-9


def test_divergence_guard_raises_with_iteration():
    prob = quadratic_1d(l=4.0)
    with pytest.raises(DivergenceError) as info:
        run(
            prob,
            SolverParams(alpha=10.0, max_iters=100),
            schedule_synchronous(1, 100),
            np.ones(1),
        )
    assert info.value.iteration > 0


def test_zero_iteration_budget_gives_a_single_record():
    prob = quadratic_1d()
    trace = run(
        prob,
        SolverParams(alpha=0.1, max_iters=0),
        schedule_synchronous(1, 0),
        np.ones(1),
    )
    assert trace.records == 1
    assert trace.phi[0] == pytest.approx(2.0)


def test_schedule_shorter_than_budget_is_rejected():
    prob = quadratic_1d()
    with pytest.raises(ValueError):
        run(
            prob,
            SolverParams(alpha=0.1, max_iters=10),
            schedule_synchronous(1, 5),
            np.ones(1),
        )


def test_wrong_start_dimension_is_rejected():
    prob = quadratic_1d()
    with pytest.raises(ValueError):
        run(prob, SolverParams(alpha=0.1, max_iters=1), schedule_synchronous(1, 1), np.ones(2))


def test_explicit_reference_overrides_the_known_optimum():
    prob = quadratic_1d()
    trace = run(
        prob,
        SolverParams(alpha=0.1, max_iters=5),
        schedule_synchronous(1, 5),
        np.ones(1),
        x_ref=np.ones(1),
    )
    assert trace.dist2[0] == 0.0
    assert trace.phi_star == pytest.approx(2.0)  # objective at the reference


def test_iterate_storage_toggles():
    prob = quadratic_1d()
    lean = run(
        prob,
        SolverParams(alpha=0.1, max_iters=5),
        schedule_synchronous(1, 5),
        np.ones(1),
        store_iterates=False,
    )
    assert lean.z is None


def test_stale_reads_use_the_recorded_source_iterate():
    prob = make_toy(ToySpec(num_components=8))
    K = 40
    tr_sync = run(
        prob,
        SolverParams(alpha=1e-2, max_iters=K),
        schedule_synchronous(2, K),
        np.zeros(8),
    )
    tr_stale = run(
        prob,
        SolverParams(alpha=1e-2, max_iters=K),
        schedule_uniform_single(2, 3, K, seed=4),
        np.zeros(8),
    )
    # same method, different schedules: trajectories must differ once
    # staleness kicks in, and the stale one must still make progress
    assert np.max(np.abs(tr_sync.z[-1] - tr_stale.z[-1])) > 0.0
    assert tr_stale.phi[-1] - tr_stale.phi_star < tr_stale.phi[0] - tr_stale.phi_star


def test_csv_export_and_float_precision(tmp_path, monkeypatch):
    prob = quadratic_1d()
    trace = run(
        prob,
        SolverParams(alpha=0.1, max_iters=4),
        schedule_synchronous(1, 4),
        np.ones(1),
    )
    path = tmp_path / "trace.csv"
    trace.to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,phi,dist2,psi,step_norm2,max_staleness"
    assert len(lines) == trace.records + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(2.0)
    assert first[5] == "0"

    monkeypatch.setenv("IPIAG_FLOAT_DIGITS", "4")
    short = tmp_path / "short.csv"
    trace.to_csv(str(short))
    row = short.read_text().strip().splitlines()[2].split(",")
    # four significant digits at most in the printed objective
    mantissa = row[1].replace(".", "").replace("-", "").lstrip("0").rstrip("0")
    assert len(mantissa) <= 4


def test_iterations_to_threshold_basics():
    values = np.array([1.0, 0.5, 0.2, 0.05])
    assert iterations_to_threshold(values, 0.2) == 2
    assert iterations_to_threshold(values, 1e-9) is None
