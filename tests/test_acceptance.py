"""End-to-end checks, one test per shipped guarantee.

Each test exercises one promised behavior at its stated tolerance, so the
-v listing reads as a pass/fail scorecard.  The tests are numbered; the
shared fixtures at the top keep the expensive runs to one execution each.
"""

import time

import numpy as np
import pytest

from ipiag import (
    LassoSpec,
    ProxSpec,
    RateInputs,
    SolverParams,
    SplitMix64,
    ToySpec,
    TwoTermRecurrence,
    certificate_for,
    gradient_consistency_check,
    iterations_to_threshold,
    lasso_arrays,
    make_lasso,
    make_toy,
    max_observed_staleness,
    one_term_condition,
    reference_solution,
    run,
    schedule_uniform_single,
    spectral_norm_sq,
    sweep,
    verify_descent,
    verify_linear_bound,
    verify_one_term,
    verify_two_term,
)

from .oracles import (
    brute_prox_1d,
    l1_scalar,
    nonneg_l1_scalar,
    recording_prox,
    toy_prox_grad_reference,
)


@pytest.fixture(scope="module")
def toy100():
    return make_toy(ToySpec(num_components=100))


BASELINE_ITERS = 20000


@pytest.fixture(scope="module")
def baseline_run(toy100):
    """The pinned no-inertia run shared by the envelope and descent checks.

    Chain problem with 100 components, four workers, staleness bound 4,
    step size at the certified threshold, ``BASELINE_ITERS`` iterations,
    seed 0.  The budget is 20000 because the closed-form first hit of
    ``dist2 <= 1e-6`` at the certified step is about 18400 iterations.
    """
    cert = certificate_for(
        "t1",
        RateInputs(toy100.total_lipschitz, toy100.growth_constant, 4, 0.0),
        eta2=0.0,
    )
    schedule = schedule_uniform_single(4, 4, BASELINE_ITERS, seed=0)
    params = SolverParams(
        alpha=cert.alpha, eta1=0.0, eta2=0.0, max_iters=BASELINE_ITERS
    )
    t0 = time.perf_counter()
    trace = run(toy100, params, schedule, np.zeros(100))
    elapsed = time.perf_counter() - t0
    return {"cert": cert, "trace": trace, "elapsed": elapsed}


@pytest.fixture(scope="module")
def lasso_desk():
    spec = LassoSpec(rows=60, cols=200, sparsity=0.1, l1_weight=0.2, seed=7)
    a, b, _ = lasso_arrays(spec)
    prob = make_lasso(spec)
    x_ref, phi_ref = reference_solution(
        prob, 1.0 / spectral_norm_sq(a), max_iters=300000, tol=1e-12
    )
    return {"problem": prob, "x_ref": x_ref, "phi_ref": phi_ref}


def test_criterion_01_pinned_run_converges_under_its_envelope(toy100, baseline_run):
    cert = baseline_run["cert"]
    trace = baseline_run["trace"]
    assert baseline_run["elapsed"] < 30.0, f"run took {baseline_run['elapsed']:.1f}s"
    assert cert.alpha == pytest.approx(1.1778565629561033e-4, rel=1e-12)

    report = verify_linear_bound(trace, cert)
    assert report.ok, (
        f"envelope violated: psi@{report.psi.first_violation} "
        f"phi@{report.phi.first_violation} dist@{report.dist.first_violation}"
    )
    assert report.constant == pytest.approx(3772.887881359486, rel=1e-9)

    # From x0 = 0 only coordinate 0 moves (the prox clamps the others at 0),
    # along x <- x - alpha (3 x - 2), so dist2_k ~ ||x*||^2 (1 - 3 alpha)^(2k).
    x_star, _ = toy100.known_optimum
    predicted = np.log(1e-6 / np.sum(x_star**2)) / (2 * np.log1p(-3 * cert.alpha))
    hit = iterations_to_threshold(trace.dist2, 1e-6)
    assert hit is not None and abs(hit - predicted) <= 0.01 * predicted, (
        f"dist2 first reached 1e-6 at {hit} of {BASELINE_ITERS} iterations; "
        f"the closed form predicts {predicted:.0f}"
    )

    final = float(trace.dist2[-1])
    assert final <= 1e-6, (
        f"final squared distance {final:.6e} is above 1e-6 after "
        f"{BASELINE_ITERS} iterations at the certified step size"
    )


def test_criterion_02_inertia_never_slows_the_baseline_down(toy100):
    L, beta, tau = toy100.total_lipschitz, toy100.growth_constant, 4
    c1 = 0.49
    shared = certificate_for("t1", RateInputs(L, beta, tau, c1))
    alpha = shared.alpha
    assert alpha == pytest.approx(1.1628234000948812e-4, rel=1e-12)

    cm = certificate_for("cor1", RateInputs(L, beta, tau, c1), alpha=alpha)
    cn = certificate_for("cor2", RateInputs(L, beta, tau, 0.0), alpha=alpha)
    ci = certificate_for("t1", RateInputs(L, beta, tau, c1), alpha=alpha)
    settings = {
        "plain": (0.0, 0.0),
        "pre": (cm.eta1, 0.0),
        "post": (0.0, cn.eta2),
        "both": (ci.eta1, ci.eta2),
    }

    K = 20000
    hits = {name: [] for name in settings}
    configs = [SolverParams(alpha=alpha, eta1=e1, eta2=e2, max_iters=K)
               for e1, e2 in settings.values()]
    schedules = (schedule_uniform_single(4, tau, K, seed) for seed in range(10))
    for seed, traces in enumerate(sweep(toy100, configs, schedules)):
        for name, trace in zip(settings, traces):
            hit = iterations_to_threshold(trace.dist2, 1e-6)
            assert hit is not None, f"{name} missed the threshold on seed {seed}"
            hits[name].append(hit)

    means = {name: float(np.mean(vals)) for name, vals in hits.items()}
    assert means["both"] <= means["pre"] <= means["plain"], means
    assert means["post"] <= means["plain"], means
    assert means["both"] < means["plain"], means


def test_criterion_03_random_admissible_certificates_hold_on_runs():
    prob = make_toy(ToySpec(num_components=10))
    rng = SplitMix64(2024)
    failures = []
    for i in range(200):
        L = 11.0 + 29.0 * rng.uniforms(1)[0]       # overestimates the true 11
        beta = 0.2 + 1.8 * rng.uniforms(1)[0]      # underestimates the true 2
        tau = rng.below(7)
        c1 = 0.5 * rng.uniforms(1)[0]
        cert = certificate_for("t1", RateInputs(L, beta, tau, c1))
        if not (cert.admissible and cert.rho < 1.0 and cert.eta2_max >= 0.0):
            failures.append((i, "certificate", L, beta, tau, c1))
            continue
        schedule = schedule_uniform_single(4, tau, 500, 1000 + i)
        trace = run(
            prob,
            SolverParams(alpha=cert.alpha, eta1=cert.eta1, eta2=cert.eta2, max_iters=500),
            schedule,
            np.zeros(10),
        )
        report = verify_linear_bound(trace, cert)
        if not report.ok:
            failures.append((i, "bound", L, beta, tau, c1))
    assert not failures, failures[:10]


def test_criterion_04_recurrence_verifier_fuzz():
    rng = SplitMix64(99)
    failures = []
    worst_split = 0.0
    for i in range(1000):
        u = rng.uniforms(8)
        A = 0.98 * u[0]
        one_term_draw = i % 5 == 0
        B = 0.0 if one_term_draw else (0.98 - A) * u[1]
        if A == 0.0 and B == 0.0:
            A = 0.5
        b1 = 0.1 + 2.0 * u[2]
        k0 = rng.below(6)
        root = (A + np.sqrt(A * A + 4.0 * B)) / 2.0
        b2 = 0.0 if one_term_draw else 0.5 * b1 * root * u[3]
        margin = b1 - b2 / root
        c = u[4] * margin / sum(root ** (-j) for j in range(k0 + 1))
        rec = TwoTermRecurrence(A=A, B=B, b1=b1, b2=b2, c=c, k0=k0)

        wa, wb = rec.split_weights()
        worst_split = max(
            worst_split,
            abs(wa + wb - 1.0),
            abs(rec.root ** 2 - (A * rec.root + B)),
        )

        n = 40
        V = np.zeros(n)
        w = np.zeros(n - 1)
        V[0] = 0.1 + 10.0 * u[5]
        V[1] = A * V[0] if one_term_draw else 0.1 + 10.0 * u[6]
        uu = rng.uniforms(n)
        for k in range(1, n - 1):
            w[k] = uu[k] * (A * V[k] + B * V[k - 1]) / (2.0 * b1)
            S = w[max(0, k - k0) : k + 1].sum()
            V[k + 1] = A * V[k] + B * V[k - 1] - b1 * w[k] + b2 * w[k - 1] + c * S
        report = verify_two_term(V, w, rec)
        if not report.ok or report.data.worst > 1e-9:
            failures.append((i, "two-term", report.data.worst))

        if one_term_draw:
            _, _, cond_one = one_term_condition(A, b1, c, k0)
            if cond_one != report.condition_ok:
                failures.append((i, "condition-disagreement"))
            single = verify_one_term(V, w, A, b1, c, k0)
            if not single.ok:
                failures.append((i, "one-term"))
    assert worst_split <= 1e-12
    assert not failures, failures[:10]


def test_criterion_05_descent_inequality_on_the_pinned_run(toy100, baseline_run):
    report = verify_descent(toy100, baseline_run["trace"], 4)
    assert report.ok, (
        f"min residual {report.descent.worst:.3e} below -{report.tolerance:.3e} "
        f"first at record {report.descent.first_violation}"
    )


def test_criterion_06_prox_agrees_with_the_brute_force_oracle():
    rng = SplitMix64(606)
    kinds = {
        "zero": lambda lam: (lambda x: 0.0),
        "l1": l1_scalar,
        "nonneg_l1": nonneg_l1_scalar,
        "indicator_nonneg": lambda lam: (lambda x: 0.0 if x >= 0 else float("inf")),
    }
    for kind, make_h in kinds.items():
        for _ in range(100):
            u = rng.uniforms(3)
            v = -5.0 + 10.0 * u[0]
            alpha = 0.05 + 1.95 * u[1]
            weight = 3.0 * u[2]
            spec = ProxSpec(kind, weight if kind in ("l1", "nonneg_l1") else 0.0)
            got = float(spec.prox(np.array([v]), alpha)[0])
            want = brute_prox_1d(make_h(weight), v, alpha)
            assert abs(got - want) <= 1e-6, (kind, v, alpha, weight, got, want)

    for kind in kinds:
        spec = ProxSpec(kind, 0.7 if kind in ("l1", "nonneg_l1") else 0.0)
        for _ in range(100):
            u = rng.uniforms(11)
            v1 = -5.0 + 10.0 * u[:5]
            v2 = -5.0 + 10.0 * u[5:10]
            alpha = 0.05 + 1.95 * u[10]
            p1, p2 = spec.prox(v1, alpha), spec.prox(v2, alpha)
            assert np.linalg.norm(p1 - p2) <= np.linalg.norm(v1 - v2) + 1e-12


def test_criterion_07_generator_gradients_pass_finite_differences(toy100, lasso_desk):
    for prob in (toy100, lasso_desk["problem"]):
        rng = SplitMix64(1717)
        for _ in range(20):
            x = 0.5 * rng.normals(prob.dimension)
            assert gradient_consistency_check(prob, x) <= 1e-5


def test_criterion_08_staleness_bound_and_zero_delay_equivalence(toy100):
    for seed in range(50):
        schedule = schedule_uniform_single(4, 4, 10000, seed)
        assert max_observed_staleness(schedule) <= 4

    K = 300
    recorded, zs = recording_prox(toy100, np.zeros(100))
    run(
        recorded,
        SolverParams(alpha=1e-3, max_iters=K),
        schedule_uniform_single(4, 0, K, seed=3),
        np.zeros(100),
    )
    ref = toy_prox_grad_reference(np.zeros(100), 3.0, 1.0, 1e-3, K)
    assert np.max(np.abs(np.array(zs) - ref)) <= 1e-12


def test_criterion_09_inertia_helps_on_the_planted_regression(lasso_desk):
    prob = lasso_desk["problem"]
    x_ref, phi_ref = lasso_desk["x_ref"], lasso_desk["phi_ref"]
    nrm = float(np.linalg.norm(x_ref))
    tau, K = 4, 35000
    alpha, eta = 1e-3, 0.25

    rel_both = np.zeros(K + 1)
    rel_plain = np.zeros(K + 1)
    configs = [SolverParams(alpha=alpha, eta1=eta, eta2=eta, max_iters=K),
               SolverParams(alpha=alpha, max_iters=K)]
    schedules = (schedule_uniform_single(3, tau, K, seed) for seed in range(10))
    for seed, (tr_both, tr_plain) in enumerate(sweep(prob, configs, schedules, x_ref, phi_ref)):
        seed_rel = np.sqrt(tr_both.dist2) / nrm
        assert seed_rel[-1] < 1e-3, f"seed {seed} ended at {seed_rel[-1]:.3e}"
        rel_both += seed_rel
        rel_plain += np.sqrt(tr_plain.dist2) / nrm
    rel_both /= 10.0
    rel_plain /= 10.0

    checkpoints = [K * d // 10 for d in range(1, 11)]
    for k in checkpoints:
        assert rel_both[k] <= rel_plain[k], (
            f"averaged error at iteration {k}: {rel_both[k]:.3e} vs {rel_plain[k]:.3e}"
        )


def test_criterion_10_simplified_factor_upper_bounds_the_exact_one():
    violations = []
    for L in (1.0, 2.0, 10.0, 101.0, 1000.0):
        for beta in (0.1, 0.5, 1.0, 2.0, 5.0):
            for tau in range(0, 7):
                for c1 in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
                    cert = certificate_for("cor1", RateInputs(L, beta, tau, c1))
                    exact = 1.0 / (1.0 + (1.0 - c1) * cert.alpha_max * beta)
                    if cert.simplified_factor - exact < -1e-12:
                        violations.append((L, beta, tau, c1))
    assert not violations, violations[:10]
