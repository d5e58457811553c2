import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from ipiag import (
    CompositeProblem,
    DelaySchedule,
    DivergenceError,
    LassoSpec,
    NumericError,
    ScheduleError,
    SolverParams,
    ToySpec,
    Trace,
    contiguous_partition,
    iterations_to_threshold,
    make_lasso,
    make_toy,
    run,
    schedule_synchronous,
    schedule_uniform_single,
    sweep,
)

from .oracles import (
    flat,
    inertial_replay,
    recording_prox,
    same_bits,
    toy_prox_grad_reference,
    trace_csv,
)


def quadratic_1d(l=4.0):
    return CompositeProblem(
        dimension=1,
        num_components=1,
        block_gradient=lambda indices, x: l * x,
        smooth_value=lambda x: 0.5 * l * float(x[0] ** 2),
        regularizer_value=lambda x: 0.0,
        prox=lambda v, a: np.asarray(v, dtype=float).copy(),
        component_lipschitz=np.array([l]),
        growth_constant=l,
        known_optimum=(np.zeros(1), 0.0),
    )


class TestParams:
    def test_rejects_nonpositive_alpha(self):
        # inf is no step and True no number
        for alpha in (0.0, math.inf, True):
            with pytest.raises(ValueError, match="alpha"):
                SolverParams(alpha=alpha)

    def test_rejects_out_of_range_inertia(self):
        with pytest.raises(ValueError):
            SolverParams(alpha=0.1, eta1=1.5)
        with pytest.raises(ValueError):
            SolverParams(alpha=0.1, eta2=-0.1)

    def test_rejects_negative_budget_and_tolerance(self):
        # a NaN tolerance would never stop a run, and a fractional budget fails inside it
        for name, value in (("max_iters", -1), ("max_iters", 2.5), ("max_iters", True),
                            ("stop_tolerance", -1e-3), ("stop_tolerance", math.nan)):
            with pytest.raises(ValueError, match=name):
                SolverParams(alpha=0.1, **{name: value})


def test_contiguous_partition_covers_everything_in_order():
    parts = contiguous_partition(10, 3)
    flat = np.concatenate(parts)
    assert np.array_equal(flat, np.arange(10))
    assert [len(p) for p in parts] == [4, 3, 3]


@pytest.mark.parametrize("components, workers, message", [
    (3, 0, "num_workers must lie in [1, inf), got 0"),
    (3, 4, "more workers than components"),
    # 2.5 workers made 2 blocks and True one
    (5, 2.5, "num_workers must be an integer, got 2.5"),
    (5, True, "num_workers must be an integer, got true"),
    # 5.0 components made float index blocks, and True one block
    (5.0, 2, "num_components must be an integer, got 5.0"),
    (True, 1, "num_components must be an integer, got true"),
    (0, 1, "num_components must lie in [1, inf), got 0"),
], ids=["workers-0", "workers-4", "workers-2.5", "workers-bool", "components-5.0",
        "components-bool", "components-0"])
def test_partition_sizes_are_read_through_their_rows(components, workers, message):
    with pytest.raises(ValueError) as got:
        contiguous_partition(components, workers)
    assert str(got.value) == message


REPLAY_PROBLEMS = {
    "toy20": lambda: make_toy(ToySpec(num_components=20)),
    "lasso8x12": lambda: make_lasso(
        LassoSpec(rows=8, cols=12, sparsity=0.25, l1_weight=0.2, seed=1)
    ),
    # the heavier weight leaves -0.0 entries in z, where x = z + eta2 * dz keeps or flips
    # the sign of zero; the byte check on x_final sees a copy of z or z + 0.0 there
    "lasso8x12_l1": lambda: make_lasso(
        LassoSpec(rows=8, cols=12, sparsity=0.25, l1_weight=1.0, seed=1)
    ),
}


def transit_schedule(workers, tau, iters):
    """Every worker refreshes every step, reading an iterate 1..tau steps old."""
    return DelaySchedule(workers, tau, *flat(
        [list(range(workers)) for _ in range(iters)],
        [[max(0, k - 1 - (k + w) % tau) for w in range(workers)] for k in range(iters)],
    ))


REPLAY_SCHEDULES = {
    "sync": lambda W, K: schedule_synchronous(W, K),
    "uniform1": lambda W, K: schedule_uniform_single(W, 3, K, seed=5),
    "transit": lambda W, K: transit_schedule(W, 3, K),
}


def replay_case(name, eta1, eta2, schedule_kind):
    """(run's trace, its z iterates, the plain replay) of one problem, weight pair and
    schedule."""
    prob = REPLAY_PROBLEMS[name]()
    K, W = 60, 4
    alpha = 0.5 / prob.total_lipschitz
    schedule = REPLAY_SCHEDULES[schedule_kind](W, K)
    rng = np.random.default_rng(11)
    x0 = rng.standard_normal(prob.dimension)  # mixed signs: the first prox moves every entry
    x_ref = rng.standard_normal(prob.dimension)
    phi_star = -1.5
    recorded, zs = recording_prox(prob, x0)
    trace = run(
        recorded,
        SolverParams(alpha=alpha, eta1=eta1, eta2=eta2, max_iters=K),
        schedule,
        x0,
        x_ref=x_ref,
        phi_star=phi_star,
    )
    want = inertial_replay(prob, alpha, eta1, eta2, schedule, x0, K, x_ref, phi_star)
    return trace, np.array(zs), want


@pytest.mark.parametrize("schedule_kind", sorted(REPLAY_SCHEDULES))
@pytest.mark.parametrize("eta1, eta2", [(0.0, 0.0), (0.3, 0.0), (0.0, 0.2), (0.3, 0.2)])
@pytest.mark.parametrize("name", sorted(REPLAY_PROBLEMS))
def test_run_equals_the_plain_replay_bit_for_bit(name, eta1, eta2, schedule_kind):
    trace, z, want = replay_case(name, eta1, eta2, schedule_kind)
    assert trace.records == 61
    assert same_bits(z, want["z"])
    for field in ("phi", "dist2", "psi", "x_final", "z_final"):
        assert same_bits(getattr(trace, field), want[field]), field
    assert trace.staleness.dtype == want["staleness"].dtype
    assert np.array_equal(trace.staleness, want["staleness"])


def test_the_heavy_l1_replay_ends_with_negative_zeros():
    # without them the byte check on x_final above could not tell z + 0 * dz from a copy
    trace, _, _ = replay_case("lasso8x12_l1", 0.3, 0.0, "uniform1")
    z = trace.z_final
    assert np.count_nonzero((z == 0) & np.signbit(z)) >= 1


@pytest.mark.parametrize("steps, negative", [(2, True), (3, False)])
def test_zero_eta2_keeps_the_zero_signs_of_z_plus_zero_dz(steps, negative):
    # z steps 1 -> +0.0 -> -0.0 -> -0.0, so x = z + 0 * dz is -0.0 after step 2 (dz = -0.0)
    # and +0.0 after step 3 (dz = +0.0): a copy of z fails step 3, z + 0.0 fails step 2
    outputs = iter([0.0, -0.0, -0.0])
    prob = dataclasses.replace(quadratic_1d(), prox=lambda v, alpha: np.array([next(outputs)]))
    params = SolverParams(alpha=0.1, max_iters=steps)
    trace = run(prob, params, schedule_synchronous(1, steps), np.ones(1))
    assert trace.x_final[0] == 0.0 and bool(np.signbit(trace.x_final[0])) is negative


def test_zero_eta1_steps_from_x_itself():
    # with eta1 = 0 the prox reads x - alpha g, not x + 0 (x - x_prev) - alpha g; the two
    # differ only in the sign of a zero, where an entry of x is -0.0, x_prev's entry is
    # negative or -0.0 and alpha g's entry is +0.0, and a prox that keeps that sign shows it
    prob = CompositeProblem(
        dimension=2,
        num_components=1,
        block_gradient=lambda indices, x: np.array([4.0 * x[0], 0.0]),
        smooth_value=lambda x: 2.0 * float(x[0] ** 2),
        regularizer_value=lambda x: 0.0,
        prox=lambda v, alpha: np.array(v, dtype=float),
        component_lipschitz=np.array([4.0]),
    )
    x0 = np.array([1.0, -0.0])
    recorded, zs = recording_prox(prob, x0)
    trace = run(recorded, SolverParams(alpha=0.1, max_iters=3), schedule_synchronous(1, 3), x0)
    want = inertial_replay(prob, 0.1, 0.0, 0.0, schedule_synchronous(1, 3), x0, 3, np.zeros(2))
    z = np.array(zs)
    # step 1 reads x_0 = x_prev = x0: the replay's y has +0.0 where x0 has -0.0
    assert same_bits(z[1, 1], -0.0) and same_bits(want["z"][1, 1], 0.0)
    assert np.array_equal(z, want["z"])  # everything else has the replay's bits
    assert same_bits(np.delete(z.ravel(), 3), np.delete(want["z"].ravel(), 3))
    for field in ("phi", "x_final", "z_final"):
        assert same_bits(getattr(trace, field), want[field]), field


def test_aging_past_tau_is_rejected_before_the_first_block_gradient():
    # worker 3 is never refreshed, so its entry is 49 steps old at k = 49 while tau says 2;
    # the schedule refuses to be built, so no run can reach a block gradient
    K = 50
    prob = make_toy(ToySpec(num_components=8))
    calls = []

    def block_gradient(indices, x, inner=prob.block_gradient):
        calls.append(len(indices))
        return inner(indices, x)

    prob = dataclasses.replace(prob, block_gradient=block_gradient)
    with pytest.raises(ScheduleError, match="observed staleness 49 exceeds declared tau 2"):
        DelaySchedule(4, 2, *flat([[k % 3] for k in range(K)], [[k] for k in range(K)]))
    assert calls == []


PROTOCOL_RUNS = {
    # eta2 = 0 makes every x iterate equal, by value, to the z of the same record
    "toy10": (lambda: make_toy(ToySpec(num_components=10)), SolverParams(alpha=1e-2, eta1=0.3)),
    # a lasso block gradient at the last objective's point reuses that objective's residual:
    # of the blocks [0, 8), [8, 16), [16, 23) and [23, 30) the first two keep the 4-row rule
    "lasso/plain": (lambda: make_lasso(LassoSpec(rows=30, cols=40)), SolverParams(alpha=1e-3)),
    "lasso/double": (lambda: make_lasso(LassoSpec(rows=30, cols=40)),
                     SolverParams(alpha=1e-3, eta1=0.25, eta2=0.25)),
}


@pytest.mark.parametrize("case", PROTOCOL_RUNS)
def test_run_keeps_its_call_protocol(case):
    # one block gradient per worker at x0, then one per scheduled refresh, each on exactly a
    # contiguous_partition block at the scheduled x iterate; one prox per step; one
    # regularizer and one smooth value per record, each at that record's z
    make, params = PROTOCOL_RUNS[case]
    prob = make()
    d, N, W, K = prob.dimension, prob.num_components, 4, 60
    params = dataclasses.replace(params, max_iters=K)
    schedule = schedule_uniform_single(W, 3, K, seed=5)
    x0 = np.full(d, 0.5)
    grads, points = [], {"smooth_value": [], "regularizer_value": []}
    prox_calls = []

    def block_gradient(indices, x, inner=prob.block_gradient):
        grads.append((np.array(indices), x.copy()))
        return inner(indices, x)

    def recorded(name):
        inner = getattr(prob, name)

        def call(x):
            points[name].append(x.copy())
            return inner(x)

        return call

    def prox(v, alpha, inner=prob.prox):
        prox_calls.append(alpha)
        return inner(v, alpha)

    traced, zs = recording_prox(dataclasses.replace(
        prob, block_gradient=block_gradient, prox=prox,
        **{name: recorded(name) for name in points}
    ), x0)
    run(traced, params, schedule, x0)
    xs = [x0] + [z + (z - z_prev) * params.eta2 for z_prev, z in zip(zs, zs[1:])]
    partition = contiguous_partition(N, W)
    n = schedule.offsets[K]
    want = [(w, 0) for w in range(W)]
    want += list(zip(schedule.workers[:n].tolist(), schedule.sources[:n].tolist()))
    assert len(grads) == len(want) == W + n
    for (indices, x), (w, source) in zip(grads, want):
        assert indices.dtype == partition[w].dtype and np.array_equal(indices, partition[w])
        assert np.array_equal(x, xs[source])
    assert prox_calls == [params.alpha] * K
    for name, got in points.items():
        assert len(got) == K + 1 and all(map(np.array_equal, got, zs)), name


def test_a_prox_that_returns_its_input_steers_the_run_as_a_copy_would():
    # run() writes each prox input into a buffer of its own; the two buffers alternate, so a
    # z that is the prox's input itself is still intact when the next step reads it
    prob = dataclasses.replace(REPLAY_PROBLEMS["lasso8x12"](), regularizer_value=lambda x: 0.0)
    params = SolverParams(alpha=0.5 / prob.total_lipschitz, eta1=0.3, eta2=0.2, max_iters=30)
    schedule = schedule_uniform_single(4, 3, 30, seed=5)
    traces = [run(dataclasses.replace(prob, prox=prox), params, schedule, np.ones(12))
              for prox in (lambda v, alpha: v, lambda v, alpha: v.copy())]
    for field in ("phi", "step_norm2", "x_final", "z_final"):
        assert getattr(traces[0], field).tobytes() == getattr(traces[1], field).tobytes(), field


def test_list_edits_after_construction_do_not_steer_the_run():
    prob = make_toy(ToySpec(num_components=8))
    params = SolverParams(alpha=1e-2, max_iters=20)
    recorded, want_z = recording_prox(prob, np.zeros(8))
    want = run(recorded, params, schedule_uniform_single(4, 2, 20, seed=0), np.zeros(8))
    schedule = schedule_uniform_single(4, 2, 20, seed=0)
    # iterate 7 is not written until step 6; neither the views nor the arrays take it
    with pytest.raises(TypeError):
        schedule.source_iter[3] = [7]
    with pytest.raises(ValueError):
        schedule.sources[3] = 7
    recorded, got_z = recording_prox(prob, np.zeros(8))
    got = run(recorded, params, schedule, np.zeros(8))
    for name in ("k", "phi", "dist2", "psi", "step_norm2", "staleness", "x_final", "z_final"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert np.array(got_z).tobytes() == np.array(want_z).tobytes()


def test_an_iterate_off_the_domain_diverges_without_a_smooth_value():
    # h(z_3) = +inf, so phi_3 = +inf trips the guard; the smooth part of z_3 is never asked for
    prob = make_toy(ToySpec(num_components=8))
    steps, smooth_points = [], []

    def prox(v, alpha, inner=prob.prox):
        z = inner(v, alpha)
        steps.append(z)
        if len(steps) == 3:  # the step that produces z_3
            z[5] = -1.0
        return z

    def smooth_value(x, inner=prob.smooth_value):
        smooth_points.append(x.copy())
        return inner(x)

    prob = dataclasses.replace(prob, prox=prox, smooth_value=smooth_value)
    schedule = schedule_uniform_single(4, 2, 10, seed=0)
    with pytest.raises(DivergenceError) as info:
        run(prob, SolverParams(alpha=1e-2, max_iters=10), schedule, np.full(8, 0.5))
    assert info.value.iteration == 3
    assert len(steps) == 3
    assert len(smooth_points) == 3  # records 0, 1 and 2
    assert all(p.min() >= 0 for p in smooth_points)


def prox_that_turns(bad_at, value, inner):
    """``inner``, except that step ``bad_at`` (the one making z_{bad_at + 1}) sets z[0] = value."""
    calls = []

    def prox(v, alpha):
        z = inner(v, alpha)
        calls.append(None)
        if len(calls) == bad_at + 1:
            z[0] = value
        return z

    return prox


@pytest.mark.parametrize("eta2", [0.0, 0.2])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_a_non_finite_prox_output_stops_the_run_at_its_step(value, eta2):
    prob = make_toy(ToySpec(num_components=8))
    smooth_points = []

    def smooth_value(x, inner=prob.smooth_value):
        smooth_points.append(x.copy())
        return inner(x)

    prob = dataclasses.replace(
        prob, prox=prox_that_turns(4, value, prob.prox), smooth_value=smooth_value
    )
    params = SolverParams(alpha=1e-2, eta1=0.3, eta2=eta2, max_iters=10)
    with pytest.raises(NumericError, match="^iterate became non-finite$") as info:
        run(prob, params, schedule_uniform_single(4, 2, 10, seed=0), np.full(8, 0.5))
    assert type(info.value) is NumericError and info.value.iteration == 4
    assert len(smooth_points) == 5  # records 0..4; z_5 is never observed


@pytest.mark.parametrize("eta2", [0.0, 0.2])
def test_the_divergence_guard_fires_before_a_later_non_finite_iterate(eta2):
    # z_4 is finite but far past the guard, and the next step's prox returns inf
    prob = quadratic_1d()
    prox = prox_that_turns(3, 1e150, prob.prox)
    prob = dataclasses.replace(prob, prox=prox_that_turns(4, np.inf, prox))
    params = SolverParams(alpha=0.1, eta2=eta2, max_iters=10)
    with pytest.raises(DivergenceError) as info:
        run(prob, params, schedule_synchronous(1, 10), np.ones(1))
    assert info.value.iteration == 4


def test_finite_entries_whose_sum_overflows_are_left_to_the_guard():
    # one reduction over x checks finiteness; x = [1e308] is finite, so the divergence
    # guard, not a non-finite error, ends the run (a sum of z and x would overflow)
    prob = quadratic_1d()
    prob = dataclasses.replace(prob, prox=prox_that_turns(2, 1e308, prob.prox))
    with pytest.raises(DivergenceError) as info:
        run(prob, SolverParams(alpha=0.1, max_iters=10), schedule_synchronous(1, 10), np.ones(1))
    assert info.value.iteration == 3


def test_psi_is_nan_exactly_without_a_reference_point():
    prob = REPLAY_PROBLEMS["lasso8x12"]()  # no known optimum
    params = SolverParams(alpha=0.5 / prob.total_lipschitz, eta1=0.3, max_iters=20)
    schedule = schedule_synchronous(4, 20)
    bare = run(prob, params, schedule, np.zeros(12), phi_star=-1.5)
    assert np.isfinite(bare.phi).all()
    assert np.isnan(bare.dist2).all() and np.isnan(bare.psi).all()
    # a reference point without phi_star takes the objective there as phi_star
    ref = run(prob, params, schedule, np.zeros(12), x_ref=np.ones(12))
    assert np.isfinite(ref.psi).all()
    coef = (1.0 - 0.3) / (2.0 * params.alpha)
    assert ref.psi[-1] == (ref.phi[-1] - ref.phi_star) + coef * ref.dist2[-1]


def test_nonfinite_gradient_raises_with_the_iteration():
    k_bad = 7
    calls = []

    def block_gradient(indices, x):
        # call 1 fills the table at x0; call k + 2 is the refresh of iteration k
        calls.append(indices)
        return np.full(1, np.inf) if len(calls) == k_bad + 2 else 4.0 * x

    prob = dataclasses.replace(quadratic_1d(), block_gradient=block_gradient)
    with pytest.raises(NumericError, match="aggregated gradient is not finite") as info:
        run(prob, SolverParams(alpha=0.1, max_iters=20), schedule_synchronous(1, 20), np.ones(1))
    assert info.value.iteration == k_bad


def test_sync_run_matches_the_reference_iteration():
    prob = make_toy(ToySpec(num_components=30))
    alpha, K = 1e-3, 250
    recorded, zs = recording_prox(prob, np.zeros(30))
    run(
        recorded,
        SolverParams(alpha=alpha, max_iters=K),
        schedule_synchronous(4, K),
        np.zeros(30),
    )
    ref = toy_prox_grad_reference(np.zeros(30), 3.0, 1.0, alpha, K)
    assert np.max(np.abs(np.array(zs) - ref)) <= 1e-12


def test_trace_bookkeeping_invariants():
    prob = make_toy(ToySpec(num_components=20))
    K = 150
    recorded, zs = recording_prox(prob, np.zeros(20))
    trace = run(
        recorded,
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
    assert np.allclose(zs[-1], trace.z_final)


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
    x0 = np.ones(1)
    trace = run(
        prob,
        SolverParams(alpha=0.1, max_iters=0),
        schedule_synchronous(1, 0),
        x0,
    )
    assert trace.records == 1
    assert trace.phi[0] == pytest.approx(2.0)
    assert not np.shares_memory(trace.x_final, x0)
    assert not np.shares_memory(trace.z_final, x0)


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


@pytest.mark.parametrize("phi_star", [None, 1.0])
def test_a_reference_point_of_the_wrong_shape_is_rejected(phi_star):
    # with phi_star given, a (1,) x_ref used to broadcast against every z
    prob = make_toy(ToySpec(num_components=10))
    with pytest.raises(ValueError, match=r"^x_ref has shape \(1,\), expected \(10,\)$"):
        run(prob, SolverParams(alpha=1e-3, max_iters=5), schedule_synchronous(2, 5),
            np.full(10, 0.5), x_ref=np.array([0.5]), phi_star=phi_star)


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


def test_a_run_stores_no_iterates():
    # wrapping prox records them; the keyword is kept for callers that pass False
    prob, args = quadratic_1d(), (SolverParams(alpha=0.1, max_iters=5), schedule_synchronous(1, 5))
    trace = run(prob, *args, np.ones(1))
    assert not hasattr(trace, "z")
    with pytest.raises(ValueError, match="stores no iterates; wrap problem.prox"):
        run(prob, *args, np.ones(1), store_iterates=True)
    lean = run(prob, *args, np.ones(1), store_iterates=False)
    assert lean.z_final.tobytes() == trace.z_final.tobytes()


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
    assert np.max(np.abs(tr_sync.z_final - tr_stale.z_final)) > 0.0
    assert tr_stale.phi[-1] - tr_stale.phi_star < tr_stale.phi[0] - tr_stale.phi_star


@pytest.mark.parametrize("schedule_kind", sorted(REPLAY_SCHEDULES))
def test_the_iterate_ring_is_sized_by_the_staleness_the_run_sees(schedule_kind):
    # the ring held tau + 2 iterates, so a declared tau of 10**14 asked numpy for petabytes;
    # no read is older than the staleness table shows, and the run keeps the replay's bits
    prob = make_toy(ToySpec(num_components=8))
    K, W = 60, 4
    tight = REPLAY_SCHEDULES[schedule_kind](W, K)
    loose = DelaySchedule(W, 10**14, tight.offsets, tight.workers, tight.sources)
    alpha, eta1, eta2 = 0.5 / prob.total_lipschitz, 0.3, 0.2
    x0 = np.random.default_rng(11).standard_normal(prob.dimension)
    recorded, zs = recording_prox(prob, x0)
    trace = run(recorded, SolverParams(alpha=alpha, eta1=eta1, eta2=eta2, max_iters=K), loose, x0)
    x_ref, phi_star = prob.known_optimum
    want = inertial_replay(prob, alpha, eta1, eta2, tight, x0, K, x_ref, phi_star)
    assert same_bits(np.array(zs), want["z"])
    for field in ("phi", "dist2", "psi", "x_final", "z_final"):
        assert same_bits(getattr(trace, field), want[field]), field
    assert np.array_equal(trace.staleness, want["staleness"])


def test_csv_export_and_float_precision(tmp_path):
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
    # every float reads back to the same double
    table = np.array([line.split(",") for line in lines[1:]], dtype=float)
    for column, values in zip(table.T[1:5], (trace.phi, trace.dist2, trace.psi, trace.step_norm2)):
        assert same_bits(column, values)


def test_csv_equals_the_field_by_field_form(tmp_path):
    special = np.array([0.1, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1.0 / 3.0, 1e300])
    n = len(special)
    handmade = Trace(
        k=np.arange(n),
        phi=special,
        dist2=special[::-1].copy(),
        psi=np.full(n, np.nan),
        step_norm2=np.abs(special),
        staleness=np.arange(2 * n, dtype=np.int64).reshape(n, 2) % 5,
        alpha=0.1,
        eta1=0.0,
        eta2=0.0,
        x_final=np.zeros(1),
        z_final=np.zeros(1),
    )
    prob = REPLAY_PROBLEMS["lasso8x12"]()  # no known optimum: psi is NaN throughout
    lasso = run(prob, SolverParams(alpha=0.5 / prob.total_lipschitz, max_iters=30),
                schedule_uniform_single(3, 2, 30, seed=1), np.zeros(12))
    for i, trace in enumerate((handmade, lasso)):
        path = tmp_path / f"trace{i}.csv"
        trace.to_csv(str(path))
        assert path.read_bytes() == trace_csv(trace, "%.17g").encode()


def test_iterations_to_threshold_basics():
    values = np.array([1.0, 0.5, 0.2, 0.05])
    assert iterations_to_threshold(values, 0.2) == 2
    assert iterations_to_threshold(values, 1e-9) is None


def _sweep_configs(prob, K):
    alpha = 0.5 / prob.total_lipschitz
    return [SolverParams(alpha=alpha, max_iters=K),
            SolverParams(alpha=alpha, eta1=0.3, eta2=0.2, max_iters=K)]


@pytest.mark.parametrize("name", sorted(REPLAY_PROBLEMS))
def test_sweep_equals_a_loop_of_runs_bit_for_bit(name):
    prob = REPLAY_PROBLEMS[name]()
    K, W = 60, 4
    configs = _sweep_configs(prob, K)
    schedules = [schedule_uniform_single(W, 3, K, seed=5), transit_schedule(W, 3, K)]
    rng = np.random.default_rng(11)
    x_ref, phi_star = rng.standard_normal(prob.dimension), -1.5
    rows = list(sweep(prob, configs, schedules, x_ref, phi_star))
    assert [len(traces) for traces in rows] == [len(configs)] * len(schedules)
    for schedule, traces in zip(schedules, rows):
        for params, got in zip(configs, traces):
            want = run(prob, params, schedule, np.zeros(prob.dimension), x_ref=x_ref,
                       phi_star=phi_star)
            for field in dataclasses.fields(Trace):
                a, b = getattr(got, field.name), getattr(want, field.name)
                if isinstance(b, np.ndarray):
                    assert a.dtype == b.dtype and a.shape == b.shape, field.name
                    assert a.tobytes() == b.tobytes(), field.name
                else:
                    assert a == b, field.name


def test_the_traces_of_a_sweep_share_the_schedule_staleness_read_only():
    prob = make_toy(ToySpec(num_components=20))
    K = 30
    schedule = schedule_uniform_single(4, 3, K, seed=5)
    (traces,) = sweep(prob, _sweep_configs(prob, K), [schedule])
    for trace in traces:
        assert np.shares_memory(trace.staleness, schedule.staleness)
        assert np.array_equal(trace.staleness, schedule.staleness)
        with pytest.raises(ValueError):
            trace.staleness[1, 0] = 0


def test_a_run_holds_little_more_than_its_trace():
    # per step, a run's peak above its inputs grows by the five per-record Trace arrays (k,
    # phi, dist2, psi, step_norm2) and at most 40 bytes for the replay's own lists and buffers,
    # at any dimension: a default run keeps no d-vector per step; the difference of two
    # lengths cancels what a run holds at any length
    schedule = schedule_uniform_single(4, 4, 1500, seed=0)
    for d in (10, 1000):
        prob, x0 = make_toy(ToySpec(num_components=d)), np.zeros(d)
        peaks = []
        for K in (500, 1500):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                run(prob, SolverParams(alpha=1e-3, max_iters=K), schedule, x0)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= (5 * 8 + 40) * 1000, (d, peaks)


def test_sweep_reads_a_generator_of_schedules_one_at_a_time():
    prob = make_toy(ToySpec(num_components=20))
    K = 30
    drawn = []

    def schedules():
        for seed in range(3):
            drawn.append(seed)
            yield schedule_uniform_single(4, 3, K, seed)

    rows = sweep(prob, _sweep_configs(prob, K), schedules())
    assert drawn == []
    assert len(next(rows)) == 2 and drawn == [0]
    assert len(list(rows)) == 2 and drawn == [0, 1, 2]


def test_a_diverging_config_raises_with_its_index():
    # steps far past 2/L diverge; the first diverging config in order is the one reported
    prob = REPLAY_PROBLEMS["lasso8x12"]()
    K, L = 100, prob.total_lipschitz
    configs = [SolverParams(alpha=c / L, max_iters=K) for c in (0.5, 50.0, 100.0)]
    rows = sweep(prob, configs, (schedule_synchronous(4, K) for _ in range(2)))
    with pytest.raises(DivergenceError) as info:
        next(rows)
    assert info.value.config == 1
    assert info.value.iteration is not None
