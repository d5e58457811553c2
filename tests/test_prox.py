import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ipiag import ProxSpec

from .oracles import brute_prox_1d, l1_scalar, nonneg_l1_scalar, regularizer_value, same_bits

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
alphas = st.floats(min_value=0.05, max_value=2.0)
weights = st.floats(min_value=0.0, max_value=3.0)


def test_soft_threshold_hand_values():
    out = ProxSpec("l1", 1.0).prox(np.array([2.0, -0.5]), 1.0)
    assert np.allclose(out, [1.0, 0.0])


def test_shifted_clamp_hand_values():
    out = ProxSpec("nonneg_l1", 1.0).prox(np.array([3.0, -2.0]), 1.0)
    assert np.allclose(out, [2.0, 0.0])


def test_zero_prox_returns_an_independent_copy():
    v = np.array([1.0, 2.0])
    out = ProxSpec("zero").prox(v, 0.5)
    assert np.array_equal(out, v)
    out[0] = 50.0
    assert v[0] == 1.0


def test_zero_weight_soft_threshold_is_identity():
    v = np.array([0.3, -0.7, 0.0])
    assert np.array_equal(ProxSpec("l1", 0.0).prox(v, 1.0), v)


def test_indicator_prox_is_projection_onto_the_orthant():
    spec = ProxSpec("indicator_nonneg")
    assert np.allclose(spec.prox(np.array([-1.0, 2.0]), 0.7), [0.0, 2.0])


@pytest.mark.parametrize("kind", ["zero", "l1", "nonneg_l1", "indicator_nonneg"])
def test_alpha_must_be_positive(kind):
    with pytest.raises(ValueError, match="alpha must be positive"):
        ProxSpec(kind).prox(np.zeros(2), 0.0)


def test_negative_weight_is_rejected():
    for kind in ("l1", "nonneg_l1"):
        for weight in (-0.1, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="weight"):
                ProxSpec(kind, weight)


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError):
        ProxSpec("huber", 1.0)


def test_values_on_and_off_the_domain():
    assert ProxSpec("l1", 2.0).value(np.array([1.0, -3.0])) == pytest.approx(8.0)
    assert ProxSpec("nonneg_l1", 2.0).value(np.array([1.0, 3.0])) == pytest.approx(8.0)
    assert ProxSpec("nonneg_l1", 2.0).value(np.array([1.0, -3.0])) == float("inf")
    assert ProxSpec("indicator_nonneg").value(np.array([-0.1])) == float("inf")
    assert ProxSpec("zero").value(np.array([-9.0])) == 0.0


def test_json_roundtrip():
    spec = ProxSpec("nonneg_l1", 1.25)
    doc = spec.to_json()
    assert doc == {"kind": "nonneg_l1", "lambda": 1.25}
    assert ProxSpec(doc["kind"], doc["lambda"]) == spec


@given(finite, alphas, weights)
def test_soft_threshold_agrees_with_search(v, alpha, weight):
    got = ProxSpec("l1", weight).prox(np.array([v]), alpha)[0]
    want = brute_prox_1d(l1_scalar(weight), v, alpha)
    assert got == pytest.approx(want, abs=1e-7)


@given(finite, alphas, weights)
def test_shifted_clamp_agrees_with_search(v, alpha, weight):
    got = ProxSpec("nonneg_l1", weight).prox(np.array([v]), alpha)[0]
    want = brute_prox_1d(nonneg_l1_scalar(weight), v, alpha)
    assert got == pytest.approx(want, abs=1e-7)


@given(
    st.lists(finite, min_size=1, max_size=6),
    st.lists(finite, min_size=1, max_size=6),
    alphas,
    weights,
    st.sampled_from(["zero", "l1", "nonneg_l1", "indicator_nonneg"]),
)
def test_nonexpansiveness(us, vs, alpha, weight, kind):
    m = min(len(us), len(vs))
    u, v = np.array(us[:m]), np.array(vs[:m])
    spec = ProxSpec(kind, weight)
    lhs = np.linalg.norm(spec.prox(u, alpha) - spec.prox(v, alpha))
    assert lhs <= np.linalg.norm(u - v) + 1e-12


@given(
    st.lists(finite, min_size=1, max_size=6),
    st.lists(finite, min_size=1, max_size=6),
    alphas,
    weights,
    st.sampled_from(["l1", "nonneg_l1"]),
)
def test_prox_point_beats_random_competitors(vs, ws, alpha, weight, kind):
    m = min(len(vs), len(ws))
    v, w = np.array(vs[:m]), np.array(ws[:m])
    spec = ProxSpec(kind, weight)
    z = spec.prox(v, alpha)

    def objective(p):
        return spec.value(p) + float(np.sum((p - v) ** 2)) / (2.0 * alpha)

    assert objective(z) <= objective(w) + 1e-9


@given(
    st.lists(
        st.one_of(
            st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
        ),
        min_size=0,
        max_size=300,
    ),
    weights,
    st.sampled_from(["zero", "l1", "nonneg_l1", "indicator_nonneg"]),
)
def test_value_equals_the_numpy_form_bit_for_bit(xs, weight, kind):
    x = np.array(xs, dtype=float)
    value = ProxSpec(kind, weight).value(x)
    assert isinstance(value, float)
    assert same_bits(value, regularizer_value(kind, weight, x))


@given(
    st.lists(st.one_of(finite, st.sampled_from([np.nan, np.inf, -np.inf, -0.0])), max_size=8),
    weights,
    st.sampled_from(["zero", "l1", "nonneg_l1", "indicator_nonneg"]),
)
@example([], 2.0, "nonneg_l1")
@example([], 0.0, "indicator_nonneg")
@example([np.nan], 2.0, "nonneg_l1")
@example([np.nan, -1.0], 2.0, "nonneg_l1")
@example([-1.0, np.nan], 0.0, "indicator_nonneg")
@example([np.inf, -np.inf], 0.5, "nonneg_l1")
@example([-np.inf], 0.0, "indicator_nonneg")
@example([np.inf], 0.0, "l1")
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_value_on_non_finite_and_empty_input_equals_the_numpy_form(xs, weight, kind):
    # a NaN is neither in nor off the orthant, so a negative entry next to it still gives +inf
    x = np.array(xs, dtype=float)
    assert same_bits(ProxSpec(kind, weight).value(x), regularizer_value(kind, weight, x))


@given(
    st.lists(st.one_of(finite, st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0])),
             max_size=8),
    alphas,
    weights,
)
@example([0.0, -0.0, 1e-300, -1e-300], 0.5, 0.0)
def test_each_prox_equals_its_expression_form_bit_for_bit(vs, alpha, weight):
    # each ProxSpec map equals the expression form it replaced
    v = np.array(vs, dtype=float)
    shift = np.maximum(v - alpha * weight, 0.0)
    soft = np.sign(v) * np.maximum(np.abs(v) - alpha * weight, 0.0)
    for got, want in ((ProxSpec("l1", weight).prox(v, alpha), soft),
                      (ProxSpec("nonneg_l1", weight).prox(v, alpha), shift),
                      (ProxSpec("indicator_nonneg").prox(v, alpha), np.maximum(v - 0.0, 0.0))):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_value_treats_negative_zero_as_inside_the_orthant():
    x = np.array([-0.0, 1.5, -0.0])
    assert ProxSpec("nonneg_l1", 2.0).value(x) == 3.0
    assert ProxSpec("indicator_nonneg").value(x) == 0.0
    assert ProxSpec("nonneg_l1", 2.0).value(np.array([1.0, -1e-300])) == float("inf")
