import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from ipiag import (
    ProxSpec,
    RateInputs,
    SolverParams,
    ToySpec,
    TwoTermRecurrence,
    certificate_for,
    lyapunov_value,
    make_toy,
    one_term_condition,
    run,
    schedule_synchronous,
    schedule_uniform_single,
    verify_descent,
    verify_linear_bound,
    verify_one_term,
    verify_two_term,
)


UNIT = RateInputs(total_lipschitz=1.0, growth_constant=1.0, delay=0)


class TestInputs:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(total_lipschitz=0.0, growth_constant=1.0, delay=0),
            dict(total_lipschitz=1.0, growth_constant=-1.0, delay=0),
            dict(total_lipschitz=1.0, growth_constant=1.0, delay=-1),
            # a delay that is not an integer would give a fractional threshold exponent
            dict(total_lipschitz=101.0, growth_constant=2.0, delay=1.5),
            dict(total_lipschitz=101.0, growth_constant=2.0, delay=4.0),
            dict(total_lipschitz=101.0, growth_constant=2.0, delay=True),
            dict(total_lipschitz=1.0, growth_constant=1.0, delay=0, momentum_fraction=1.0),
            dict(total_lipschitz=math.inf, growth_constant=2.0, delay=4),
            dict(total_lipschitz=1.0, growth_constant=math.inf, delay=0),
            # a bool is not a number, and no delay reaches 2**63 (10**400 overflowed a float)
            dict(total_lipschitz=True, growth_constant=2.0, delay=4),
            dict(total_lipschitz=101.0, growth_constant=2.0, delay=2**63),
            dict(total_lipschitz=101.0, growth_constant=2.0, delay=10**400),
            dict(total_lipschitz=1.0, growth_constant=1.0, delay=0, momentum_fraction=False),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            RateInputs(**kwargs)


class TestStepSizeThresholds:
    def test_double_inertia_threshold_unit_case(self):
        cert = certificate_for("t1", UNIT)
        # W = 1/4, threshold (5/4)^(1/3) - 1
        assert cert.alpha_max == pytest.approx(0.07721734501594178, rel=1e-12)
        assert cert.eta1 == 0.0
        assert cert.eta2_max == pytest.approx(0.0, abs=1e-15)
        assert cert.rho == pytest.approx(1.0 / (1.0 + cert.alpha), rel=1e-12)
        assert cert.rho < 1.0
        assert cert.admissible

    def test_tight_exponent_agrees_at_zero_delay(self):
        stated = certificate_for("t1", UNIT)
        tight = certificate_for("t1tight", UNIT)
        assert tight.alpha_max == stated.alpha_max

    def test_tight_exponent_is_larger_with_delay(self):
        inputs = RateInputs(total_lipschitz=3.0, growth_constant=1.0, delay=3)
        stated = certificate_for("t1", inputs)
        tight = certificate_for("t1tight", inputs)
        assert tight.alpha_max > stated.alpha_max

    def test_post_inertia_threshold_unit_case(self):
        cert = certificate_for("cor2", UNIT)
        # W = 1/4, threshold sqrt(5/4) - 1
        assert cert.alpha_max == pytest.approx(0.11803398874989485, rel=1e-12)
        assert cert.alpha < cert.alpha_max  # strict by default
        assert cert.alpha == cert.alpha_max * 0.999
        assert cert.admissible

    def test_pre_inertia_threshold_unit_case(self):
        cert = certificate_for("cor1", UNIT)
        assert cert.alpha_max == pytest.approx(1.0, rel=1e-12)
        assert cert.rho == pytest.approx(0.5, rel=1e-12)
        assert cert.simplified_factor == pytest.approx(0.5, rel=1e-12)
        assert cert.eta2 == 0.0

    def test_double_inertia_rejects_large_momentum(self):
        with pytest.raises(ValueError):
            certificate_for(
                "t1",
                RateInputs(total_lipschitz=1.0, growth_constant=1.0, delay=0, momentum_fraction=0.5),
            )

    def test_pre_inertia_accepts_large_momentum(self):
        inputs = RateInputs(total_lipschitz=1.0, growth_constant=1.0, delay=0, momentum_fraction=0.9)
        cert = certificate_for("cor1", inputs)
        assert cert.admissible
        assert cert.rho < 1.0


@st.composite
def explicit_certificate_args(draw):
    """(variant, inputs, alpha, eta1, eta2) around the default certificate.

    alpha is a fraction of the default step and the weights mostly fractions
    of alpha beta, so draws land on both sides of every admissibility bound;
    eta1 is sometimes above 1 + alpha beta, where rho turns negative.
    """
    variant = draw(st.sampled_from(["t1", "t1tight", "cor1", "cor2"]))
    inputs = RateInputs(
        draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-3, 1e3)), draw(st.integers(0, 8)),
        draw(st.floats(0.0, 0.49)),
    )
    alpha = certificate_for(variant, inputs).alpha * draw(st.floats(1e-3, 1.5))
    ab = alpha * inputs.growth_constant
    eta1 = draw(st.one_of(st.floats(0.0, 1.5).map(lambda f: f * ab), st.floats(0.0, 3.0)))
    eta2 = ab * draw(st.floats(0.0, 1.0))
    return (
        variant,
        inputs,
        alpha,
        0.0 if variant == "cor2" else eta1,
        0.0 if variant == "cor1" else eta2,
    )


class TestAdmissibility:
    def test_oversized_step_is_flagged(self):
        cert = certificate_for("t1", UNIT, alpha=2.0 * certificate_for("t1", UNIT).alpha_max)
        assert not cert.admissible

    def test_oversized_post_inertia_is_flagged(self):
        base = certificate_for("t1", UNIT)
        cert = certificate_for("t1", UNIT, alpha=base.alpha_max / 2.0, eta2=0.9)
        assert not cert.admissible

    def test_threshold_step_is_inadmissible_for_post_inertia_variant(self):
        base = certificate_for("cor2", UNIT)
        at_edge = certificate_for("cor2", UNIT, alpha=base.alpha_max)
        assert not at_edge.admissible

    @given(
        l=st.floats(0.5, 50.0),
        beta=st.floats(0.1, 5.0),
        tau=st.integers(0, 6),
        c1=st.floats(0.0, 0.49),
    )
    def test_default_certificates_contract(self, l, beta, tau, c1):
        inputs = RateInputs(total_lipschitz=l, growth_constant=beta, delay=tau, momentum_fraction=c1)
        for variant in ("t1", "t1tight", "cor1", "cor2"):
            cert = certificate_for(variant, inputs)
            assert cert.admissible, variant
            assert cert.rho < 1.0
            assert cert.eta1 + cert.eta2 < cert.alpha * beta + 1e-15

    @pytest.mark.parametrize("tau", [0, 4])
    @pytest.mark.parametrize("variant", ["t1", "t1tight", "cor2"])
    @pytest.mark.parametrize("alpha", [1e200, 1e308, float("inf")])
    def test_overflowing_power_leaves_no_room_for_eta2(self, variant, tau, alpha):
        # (alpha beta + 1) ** (tau + 2) overflows (1e200) or the bracket is
        # inf / inf (alpha beta = inf); both must give eta2_max = 0
        cert = certificate_for(variant, RateInputs(11.0, 2.0, tau, 0.0), alpha=alpha)
        assert cert.eta2_max == 0.0
        assert not cert.admissible

    def test_dispatch_rejects_unknown_tag(self):
        with pytest.raises(ValueError):
            certificate_for("sgd", UNIT)

    @pytest.mark.parametrize("variant", ["t1", "t1tight", "cor1"])
    def test_explicit_eta1_is_recorded_as_given(self, variant):
        # C1 alpha beta with C1 = eta1 / (alpha beta) rounds to 0.00037000000000000005
        alpha, beta, eta1 = 0.0011, 2.0, 0.00037
        inputs = RateInputs(3.0, beta, 2, eta1 / (alpha * beta))
        assert inputs.momentum_fraction * alpha * beta != eta1
        cert = certificate_for(variant, inputs, alpha=alpha, eta1=eta1)
        assert cert.eta1 == eta1
        assert cert.rho == (1.0 + cert.eta2) / (1.0 + alpha * beta - eta1)

    @pytest.mark.parametrize("variant, weight, message", [
        ("cor1", "eta2", "cor1 has no post-prox inertia; eta2 must be 0"),
        ("cor2", "eta1", "cor2 has no pre-prox inertia; eta1 must be 0"),
    ], ids=["cor1-eta2", "cor2-eta1"])
    def test_single_inertia_variant_rejects_the_other_weight(self, variant, weight, message):
        # refused, not silently dropped: cor1 used to return eta2 = 0 for eta2 = 0.3
        inputs = RateInputs(11.0, 2.0, 4, 0.25)
        with pytest.raises(ValueError) as exc:
            certificate_for(variant, inputs, **{weight: 0.3})
        assert str(exc.value) == message
        assert certificate_for(variant, inputs, **{weight: 0.0}).admissible

    @given(explicit_certificate_args())
    # admissible with rho = -2 if cor1 skips eta1 + eta2 < alpha beta
    @example(("cor1", RateInputs(1, 1, 0, 0), 0.5, 2.0, 0.0))
    # the threshold overflows to alpha = inf, which gave rho = 0
    @example(("t1", RateInputs(5e-324, 5e-324, 0, 0.25), None, None, None))
    def test_an_admissible_certificate_meets_every_condition(self, args):
        variant, inputs, alpha, eta1, eta2 = args
        cert = certificate_for(variant, inputs, alpha=alpha, eta1=eta1, eta2=eta2)
        if cert.admissible:
            assert 0.0 < cert.rho < 1.0
            assert cert.eta1 + cert.eta2 < cert.alpha * inputs.growth_constant
            assert cert.eta2 <= cert.eta2_max * (1.0 + 1e-15)


def test_json_document_fields():
    cert = certificate_for("cor1", RateInputs(2.0, 1.0, 1, 0.3))
    doc = cert.to_json_dict()
    assert doc["variant"] == "cor1"
    assert doc["L"] == 2.0 and doc["beta"] == 1.0
    assert doc["tau"] == 1 and doc["C1"] == 0.3
    assert set(doc) >= {"alpha0", "alpha", "eta1", "eta2_max", "eta2", "rho"}
    assert "simplified_factor" in doc
    plain = certificate_for("t1", UNIT).to_json_dict()
    assert "simplified_factor" not in plain
    assert doc["admissible"] is True and plain["admissible"] is True
    oversized = certificate_for("t1", UNIT, alpha=2.0 * certificate_for("t1", UNIT).alpha_max)
    assert oversized.to_json_dict()["admissible"] is False


class TestRecurrenceAlgebra:
    def test_root_and_split_weights(self):
        rec = TwoTermRecurrence(A=0.3, B=0.4, b1=1.0, b2=0.2, c=0.01, k0=2)
        assert rec.root == pytest.approx(0.8, rel=1e-15)
        wa, wb = rec.split_weights()
        assert wa == pytest.approx(0.375, rel=1e-15)
        assert wb == pytest.approx(0.625, rel=1e-15)
        assert wa + wb == pytest.approx(1.0, rel=1e-15)

    def test_window_condition_values(self):
        rec = TwoTermRecurrence(A=0.3, B=0.4, b1=1.0, b2=0.2, c=0.01, k0=2)
        lhs, rhs, ok = rec.condition()
        assert lhs == pytest.approx(0.01 * (1 + 1.25 + 1.5625), rel=1e-14)
        assert rhs == pytest.approx(0.75, rel=1e-15)
        assert ok

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(A=0.0, B=0.0, b1=1.0, b2=0.0, c=0.0, k0=0),
            dict(A=0.6, B=0.4, b1=1.0, b2=0.0, c=0.0, k0=0),
            dict(A=-0.1, B=0.2, b1=1.0, b2=0.0, c=0.0, k0=0),
            dict(A=0.2, B=0.2, b1=0.0, b2=0.0, c=0.0, k0=0),
            dict(A=0.2, B=0.2, b1=1.0, b2=0.0, c=0.0, k0=-1),
            # a NaN coefficient was built, and its condition read (nan, nan, False)
            dict(A=math.nan, B=0.1, b1=1.0, b2=0.0, c=0.1, k0=1),
            dict(A=0.2, B=0.2, b1=1.0, b2=0.0, c=0.0, k0=1.5),
        ],
    )
    def test_rejects_bad_coefficients(self, kwargs):
        with pytest.raises(ValueError):
            TwoTermRecurrence(**kwargs)

    def test_one_term_condition_values(self):
        lhs, rhs, ok = one_term_condition(a=0.5, b=0.8, c=0.1, k0=1)
        assert lhs == pytest.approx(0.3, rel=1e-15)
        assert rhs == 0.8
        assert ok

    def test_a_window_sum_past_the_float_range_is_inf(self):
        # the term-by-term sum raised a bare OverflowError at 2**10000
        assert one_term_condition(0.5, 1.0, 0.1, 10**4) == (math.inf, 1.0, False)
        assert one_term_condition(0.5, 1.0, 0.1, 10**400) == (math.inf, 1.0, False)
        assert one_term_condition(0.5, 1.0, 0.0, 10**4) == (0.0, 1.0, True)

    def test_the_closed_form_window_sum_equals_the_term_sum(self):
        for a in (1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999999, 1.0 - 2.0**-40):
            for k0 in range(51):
                want = sum(a ** (-j) for j in range(k0 + 1))
                lhs, _, _ = one_term_condition(a, 1.0, 1.0, k0)
                assert lhs == pytest.approx(want, rel=1e-14), (a, k0)

    def test_one_term_condition_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            one_term_condition(a=1.0, b=1.0, c=0.0, k0=0)
        # the window rule of TwoTermRecurrence: k0 = -1 reported ok, and 1.5 a bare TypeError
        for k0 in (-1, 1.5):
            with pytest.raises(ValueError, match="k0 must be an integer >= 0"):
                one_term_condition(a=0.5, b=1.0, c=0.0, k0=k0)
            with pytest.raises(ValueError, match="k0 must be an integer >= 0"):
                verify_one_term(0.5 ** np.arange(5), np.zeros(4), a=0.5, b=1.0, c=0.0, k0=k0)


class TestVerifiers:
    def test_one_term_accepts_a_clean_geometric_sequence(self):
        V = 0.9 ** np.arange(30)
        w = np.zeros(29)
        rep = verify_one_term(V, w, a=0.9, b=0.5, c=0.0, k0=0)
        assert rep.ok
        assert rep.condition_ok and rep.data.ok and rep.bound.ok
        assert rep.bound.first_violation is None
        # a NaN is a violation of the envelope, not a pass
        V[3] = np.nan
        rep = verify_one_term(V, w, a=0.9, b=0.5, c=0.0, k0=0)
        assert not rep.bound.ok
        assert rep.bound.first_violation == 3

    def test_one_term_flags_a_broken_recurrence(self):
        V = np.array([1.0, 2.0, 4.0])
        w = np.zeros(2)
        rep = verify_one_term(V, w, a=0.5, b=0.5, c=0.0, k0=0)
        assert not rep.data.ok
        assert not rep.bound.ok
        assert rep.bound.first_violation == 1
        assert rep.data.worst > 1.0

    def test_two_term_accepts_saturated_data(self):
        rec = TwoTermRecurrence(A=0.4, B=0.2, b1=1.0, b2=0.1, c=0.005, k0=3)
        n = 40
        V = np.empty(n)
        w = np.full(n, 0.01)
        w[0] = 0.0
        V[0], V[1] = 2.0, 1.5
        for k in range(1, n - 1):
            lo = max(0, k - rec.k0)
            window = w[lo : k + 1].sum()
            V[k + 1] = (
                rec.A * V[k]
                + rec.B * V[k - 1]
                - rec.b1 * w[k]
                + rec.b2 * w[k - 1]
                + rec.c * window
            )
        rep = verify_two_term(V, w, rec)
        assert rep.ok
        assert rep.data.worst <= 1e-12
        V[5] = np.nan
        rep = verify_two_term(V, w, rec)
        assert not rep.bound.ok
        assert rep.bound.first_violation == 5

    def test_two_term_flags_inflated_data(self):
        rec = TwoTermRecurrence(A=0.4, B=0.2, b1=1.0, b2=0.0, c=0.0, k0=0)
        V = np.array([1.0, 1.0, 1.0, 1.0])
        w = np.zeros(3)
        rep = verify_two_term(V, w, rec)
        assert not rep.data.ok
        assert not rep.bound.ok
        assert rep.bound.first_violation is not None

    def test_two_term_needs_enough_data(self):
        rec = TwoTermRecurrence(A=0.4, B=0.2, b1=1.0, b2=0.0, c=0.0, k0=0)
        with pytest.raises(ValueError):
            verify_two_term(np.array([1.0, 0.5]), np.array([0.0]), rec)

    def test_degenerate_second_coefficient_matches_one_term(self):
        rec = TwoTermRecurrence(A=0.7, B=0.0, b1=0.4, b2=0.0, c=0.01, k0=2)
        n = 25
        V = np.empty(n)
        w = np.full(n, 0.002)
        w[0] = 0.0
        V[0], V[1] = 1.0, 0.7
        for k in range(1, n - 1):
            lo = max(0, k - rec.k0)
            V[k + 1] = rec.A * V[k] - rec.b1 * w[k] + rec.c * w[lo : k + 1].sum()
        two = verify_two_term(V, w, rec)
        one = verify_one_term(V, w, a=rec.A, b=rec.b1, c=rec.c, k0=rec.k0)
        assert two.condition_ok == one.condition_ok
        assert two.data.ok and one.data.ok


def test_lyapunov_value_formula():
    psi = lyapunov_value(np.array([3.0]), np.array([4.0]), phi_star=1.0, alpha=0.5, eta1=0.2)
    assert psi[0] == pytest.approx(2.0 + 0.8 * 4.0, rel=1e-15)


class TestLinearBound:
    def _toy_trace(self, K=400):
        prob = make_toy(ToySpec(num_components=12))
        inputs = RateInputs(
            total_lipschitz=prob.total_lipschitz,
            growth_constant=prob.growth_constant,
            delay=2,
        )
        cert = certificate_for("t1", inputs)
        params = SolverParams(alpha=cert.alpha, eta1=cert.eta1, eta2=cert.eta2, max_iters=K)
        trace = run(prob, params, schedule_uniform_single(3, 2, K, seed=9), np.zeros(12))
        return trace, cert

    def test_certified_run_stays_under_the_envelope(self):
        trace, cert = self._toy_trace()
        rep = verify_linear_bound(trace, cert)
        assert rep.ok
        assert rep.psi.first_violation is None
        assert rep.phi.first_violation is None
        assert rep.dist.first_violation is None
        assert 0.0 < rep.psi.worst <= 1.0 + 1e-8

    def test_understated_rate_is_caught(self):
        trace, cert = self._toy_trace()
        lying = dataclasses.replace(cert, rho=cert.rho * 0.2)
        rep = verify_linear_bound(trace, lying)
        assert not rep.ok
        assert rep.psi.first_violation is not None

    def test_certificate_of_another_run_is_refused(self):
        # the trace's psi is only the certificate's Lyapunov value at the same weights
        trace, cert = self._toy_trace()
        other = certificate_for("t1", cert.inputs, alpha=cert.alpha / 2.0)
        with pytest.raises(ValueError, match="differs from the run's"):
            verify_linear_bound(trace, other)

    def test_certificate_for_a_smaller_delay_is_refused(self):
        # a certificate computed for fresher gradients than the run read promises nothing
        trace, cert = self._toy_trace()
        assert int(trace.staleness.max()) == 2
        for delay in (0, 1, 2, 3):
            other = certificate_for("t1", dataclasses.replace(cert.inputs, delay=delay),
                                    alpha=cert.alpha, eta1=cert.eta1, eta2=cert.eta2)
            if delay < 2:
                message = f"^certificate tau {delay} is below the run's staleness 2$"
                with pytest.raises(ValueError, match=message):
                    verify_linear_bound(trace, other)
            else:
                assert verify_linear_bound(trace, other).ok

    def test_dist2_envelope_is_the_scaled_psi_envelope(self):
        trace, cert = self._toy_trace()
        rep = verify_linear_bound(trace, cert)
        k = np.arange(trace.records)
        scale = 2.0 * cert.alpha / (1.0 - cert.eta1)
        assert np.array_equal(rep.dist_envelope, scale * (rep.constant * cert.rho ** k))

    def test_full_pre_prox_inertia_bounds_no_distance(self):
        # ipiag's auto eta1 is min(C1 alpha beta, 1): at alpha = 1e200 it is 1, psi loses
        # its distance term and 2 alpha / (1 - eta1) used to raise ZeroDivisionError
        prob = make_toy(ToySpec(num_components=2, offset=1.0, l1_weight=1.0))  # x0 is optimal
        cert = certificate_for("t1", RateInputs(prob.total_lipschitz, 2.0, 0, 0.25), alpha=1e200)
        assert cert.eta1 == 1.0
        params = SolverParams(alpha=cert.alpha, eta1=cert.eta1, eta2=cert.eta2, max_iters=1)
        trace = run(prob, params, schedule_synchronous(1, 1), np.zeros(2))
        rep = verify_linear_bound(trace, cert)
        assert np.all(rep.dist_envelope == np.inf)
        assert rep.dist.ok and rep.dist.worst == 0.0

    def test_needs_a_reference_point(self):
        prob = make_toy(ToySpec(num_components=6))
        bare = dataclasses.replace(prob, known_optimum=None)
        K = 20
        trace = run(
            bare,
            SolverParams(alpha=1e-3, max_iters=K),
            schedule_synchronous(2, K),
            np.zeros(6),
        )
        cert = certificate_for("t1", RateInputs(bare.total_lipschitz, 2.0, 0))
        with pytest.raises(ValueError):
            verify_linear_bound(trace, cert)


class TestDescent:
    def test_residuals_stay_nonnegative_at_the_optimum(self):
        prob = make_toy(ToySpec(num_components=12))
        K = 200
        tau = 2
        cert = certificate_for("t1", RateInputs(prob.total_lipschitz, prob.growth_constant, tau))
        params = SolverParams(alpha=cert.alpha, eta1=cert.eta1, eta2=cert.eta2, max_iters=K)
        trace = run(prob, params, schedule_uniform_single(3, tau, K, seed=11), np.zeros(12))
        rep = verify_descent(prob, trace, tau)
        assert rep.ok
        assert rep.descent.worst >= -rep.tolerance
        assert len(rep.residuals) == K

    def test_requires_a_reference_point(self):
        prob = make_toy(ToySpec(num_components=6))
        bare = dataclasses.replace(prob, known_optimum=None)
        trace = run(
            bare,
            SolverParams(alpha=1e-3, max_iters=10),
            schedule_synchronous(2, 10),
            np.zeros(6),
        )
        with pytest.raises(ValueError):
            verify_descent(bare, trace, 0)

    def test_phi_star_without_a_reference_point_is_refused(self):
        prob = make_toy(ToySpec(num_components=6))
        bare = dataclasses.replace(prob, known_optimum=None)
        params = SolverParams(alpha=1e-3, max_iters=10)
        trace = run(bare, params, schedule_synchronous(2, 10), np.zeros(6), phi_star=-1.5)
        assert trace.phi_star == -1.5 and np.isnan(trace.dist2).all()
        with pytest.raises(ValueError):
            verify_descent(bare, trace, 0)

    @pytest.mark.parametrize("tau, message", [
        (1.5, "tau must be an integer, got 1.5"),
        (-1, r"tau must lie in \[0, 2\*\*63\), got -1"),
        (True, "tau must be an integer, got true"),
        (0, "tau 0 is below the run's staleness 3"),
    ], ids=["fraction", "negative", "bool", "below-staleness"])
    def test_refuses_a_tau_it_cannot_speak_for(self, tau, message):
        # 1.5 ended in an IndexError; -1 and True reported ok, and 0 checked a window
        # shorter than the delays the run saw.  The largest tau the row takes overflowed int64
        prob = make_toy(ToySpec(num_components=10))
        schedule = schedule_uniform_single(4, 3, 50, seed=0)
        trace = run(prob, SolverParams(alpha=1e-3, max_iters=50), schedule, np.zeros(10))
        assert int(trace.staleness.max()) == 3
        with pytest.raises(ValueError, match=message):
            verify_descent(prob, trace, tau)
        assert verify_descent(prob, trace, 3).ok and verify_descent(prob, trace, 2**63 - 1).ok

    def test_phi_is_taken_at_the_reference_point_not_from_phi_star(self):
        prob = make_toy(ToySpec(num_components=12))
        x_star, _ = prob.known_optimum
        K, tau = 50, 1
        cert = certificate_for("t1", RateInputs(prob.total_lipschitz, prob.growth_constant, tau))
        params = SolverParams(alpha=cert.alpha, eta1=cert.eta1, eta2=cert.eta2, max_iters=K)
        schedule = schedule_uniform_single(3, tau, K, seed=5)
        own = run(prob, params, schedule, np.zeros(12))
        other = run(prob, params, schedule, np.zeros(12), x_ref=x_star, phi_star=-1e6)
        assert np.array_equal(
            verify_descent(prob, own, tau).residuals,
            verify_descent(prob, other, tau).residuals,
        )


NAN_AT = 10


def _nan_at(values):
    planted = np.array(values, dtype=float)
    planted[NAN_AT] = np.nan
    return planted


def _trace_verdict(field, verdict):
    """The verdict of ``verify_linear_bound`` (or ``verify_descent``) on a certified toy run
    with a NaN planted in one of its trace sequences."""
    prob = make_toy(ToySpec(num_components=12))
    tau, K = 2, 60
    cert = certificate_for("t1", RateInputs(prob.total_lipschitz, prob.growth_constant, tau))
    params = SolverParams(alpha=cert.alpha, eta1=cert.eta1, eta2=cert.eta2, max_iters=K)
    trace = run(prob, params, schedule_uniform_single(3, tau, K, seed=9), np.zeros(12))

    def check(trace):
        if verdict == "descent":
            return verify_descent(prob, trace, tau)
        return verify_linear_bound(trace, cert)

    assert check(trace).ok
    planted = dataclasses.replace(trace, **{field: _nan_at(getattr(trace, field))})
    return getattr(check(planted), verdict)


def _recurrence_verdict(terms, verdict):
    """The data or bound verdict of a recurrence replay on exact geometric data with a NaN
    planted in V."""
    rec = TwoTermRecurrence(A=0.4, B=0.2, b1=1.0, b2=0.0, c=0.0, k0=0)
    V, w = rec.root ** np.arange(30), np.zeros(29)

    def replay(V):
        if terms == 1:
            return verify_one_term(V, w, a=rec.root, b=rec.b1, c=rec.c, k0=rec.k0)
        return verify_two_term(V, w, rec)

    assert replay(V).ok
    return getattr(replay(_nan_at(V)), verdict)


@pytest.mark.parametrize("case", [
    ("psi", "psi"), ("phi", "phi"), ("dist2", "dist"), ("phi", "descent"),
    (1, "data"), (1, "bound"), (2, "data"), (2, "bound"),
], ids=["bound-psi", "bound-phi-gap", "bound-dist2", "descent-phi", "one-term-data",
        "one-term-bound", "two-term-data", "two-term-bound"])
def test_a_nan_fails_every_check_at_its_index(case):
    # one rule for every verdict: a NaN is a violation, reported at its index in the checked
    # sequence (verify_descent used to pass a NaN residual)
    source, verdict = case
    if isinstance(source, int):
        got = _recurrence_verdict(source, verdict)
    else:
        got = _trace_verdict(source, verdict)
    assert got.ok is False
    assert got.first_violation == NAN_AT
