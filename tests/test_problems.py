import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ipiag import (
    CompositeProblem,
    LassoSpec,
    ProxSpec,
    SolverParams,
    ToySpec,
    contiguous_partition,
    evaluate_objective,
    full_gradient,
    gradient_consistency_check,
    lasso_arrays,
    lasso_document,
    make_lasso,
    make_toy,
    problem_from_document,
    reference_solution,
    run,
    schedule_synchronous,
    spectral_norm_sq,
    toy_document,
)
import ipiag.problems

from .oracles import (
    same_bits,
    toy_aggregated_gradient,
    toy_block_gradient,
    toy_component_gradient,
    toy_smooth_value,
)

# wide finite entries (squares stay finite), signed zeros and subnormals included
entries = st.one_of(
    st.floats(min_value=-1e150, max_value=1e150, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 3.0, -3.0]),
)
offsets = st.floats(min_value=0.01, max_value=100.0)


class TestToy:
    def test_lipschitz_pattern(self):
        prob = make_toy(ToySpec(num_components=100))
        assert prob.component_lipschitz[0] == 2.0
        assert np.all(prob.component_lipschitz[1:] == 1.0)
        assert prob.total_lipschitz == 101.0
        assert prob.growth_constant == 2.0

    @given(st.lists(entries, min_size=2, max_size=40), offsets)
    def test_smooth_value_equals_the_numpy_form_bit_for_bit(self, xs, c):
        prob = make_toy(ToySpec(num_components=len(xs), offset=c))
        value = prob.smooth_value(np.array(xs))
        assert type(value) is float
        assert same_bits(value, toy_smooth_value(xs, c))

    @given(st.integers(min_value=2, max_value=1500), st.integers(0, 2**32 - 1), offsets)
    @example(n=8193, seed=1, c=3.0)
    @example(n=20000, seed=2, c=0.37)
    def test_smooth_value_bits_on_long_vectors(self, n, seed, c):
        # lengths past numpy's 128-element pairwise block, mixed signs and -0.0;
        # 8193 and 20000 lie past its 8192-element reduction buffer as well
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
        x[rng.random(n) < 0.1] = -0.0
        prob = make_toy(ToySpec(num_components=n, offset=c))
        assert same_bits(prob.smooth_value(x), toy_smooth_value(x, c))

    def test_smooth_value_bits_on_many_points(self):
        # pow(d, 2) and d * d differ in the last bit about once in a thousand
        # draws, so the squared head term needs many points to be pinned
        prob = make_toy(ToySpec(num_components=3))
        rng = np.random.default_rng(11)
        for x in rng.standard_normal((5000, 3)) * 100.0:
            assert same_bits(prob.smooth_value(x), toy_smooth_value(x, 3.0))

    @pytest.mark.parametrize("n", [2, 3])
    def test_the_smallest_chains_build_and_reach_their_closed_form_optimum(self, n):
        # ToySpec once refused fewer components than its unused default of four workers
        prob = make_toy(ToySpec(num_components=n))
        expected = np.zeros(n)
        expected[0] = 2.0 / 3.0  # (offset - l1_weight) / 3
        x_star, phi_star = prob.known_optimum
        assert np.array_equal(x_star, expected)
        x_ref, phi_ref = reference_solution(prob, alpha=0.1, max_iters=5000, tol=1e-14)
        assert np.allclose(x_ref, x_star, atol=1e-12)
        assert phi_ref == pytest.approx(phi_star, rel=1e-12)
        x = np.random.default_rng(n).normal(size=n)
        assert np.allclose(full_gradient(prob, x), toy_aggregated_gradient(x, 3.0), atol=1e-12)
        assert gradient_consistency_check(prob, x) <= 1e-6

    def test_objective_at_zero(self):
        prob = make_toy(ToySpec(num_components=100))
        assert evaluate_objective(prob, np.zeros(100)) == pytest.approx(1345.5, rel=1e-14)

    def test_known_optimum_values(self):
        prob = make_toy(ToySpec(num_components=100))
        x_star, phi_star = prob.known_optimum
        expected = np.zeros(100)
        expected[0] = 2.0 / 3.0
        assert np.allclose(x_star, expected, atol=1e-15)
        assert phi_star == pytest.approx(8069.0 / 6.0, rel=1e-12)

    def test_optimum_is_a_prox_fixed_point(self):
        prob = make_toy(ToySpec(num_components=50))
        x_star, _ = prob.known_optimum
        alpha = 0.01
        moved = prob.prox(x_star - alpha * full_gradient(prob, x_star), alpha)
        assert np.max(np.abs(moved - x_star)) <= 1e-14

    def test_full_gradient_matches_the_closed_form(self):
        prob = make_toy(ToySpec(num_components=16))
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.normal(size=16)
            assert np.allclose(full_gradient(prob, x), toy_aggregated_gradient(x, 3.0), atol=1e-12)

    def test_gradient_at_zero(self):
        prob = make_toy(ToySpec(num_components=10))
        g = full_gradient(prob, np.zeros(10))
        assert g[0] == -3.0
        assert np.all(g[1:-1] == 3.0)
        assert g[-1] == 0.0

    def test_curvature_stays_between_growth_and_lipschitz(self):
        prob = make_toy(ToySpec(num_components=16))
        rng = np.random.default_rng(9)
        for _ in range(10):
            x, y = rng.normal(size=16), rng.normal(size=16)
            inner = float(np.dot(full_gradient(prob, x) - full_gradient(prob, y), x - y))
            norm2 = float(np.dot(x - y, x - y))
            assert 2.0 * norm2 - 1e-10 <= inner <= 3.0 * norm2 + 1e-10

    def test_block_gradient_agrees_with_the_component_sum(self):
        prob = make_toy(ToySpec(num_components=13))
        rng = np.random.default_rng(3)
        x = rng.normal(size=13)
        for j in range(13):
            single = prob.block_gradient(np.arange(j, j + 1), x)
            assert np.allclose(single, toy_component_gradient(j, x, 3.0), atol=1e-12), j
        cases = [
            np.arange(0, 5),        # contiguous, touches the left edge
            np.arange(8, 13),       # contiguous, touches the right edge
            np.arange(4, 9),        # interior block
            np.array([7]),
        ]
        for idx in cases:
            loop = sum(prob.block_gradient(np.arange(j, j + 1), x) for j in idx)
            assert np.allclose(prob.block_gradient(idx, x), loop, atol=1e-12), idx
        for idx in (np.array([0, 2, 5, 12]), np.array([], dtype=int)):  # scattered, empty
            with pytest.raises(ValueError):
                prob.block_gradient(idx, x)

    @given(st.lists(entries, min_size=2, max_size=40), offsets)
    @example(xs=[0.0, -0.0, 5e-324, -5e-324, 1e150, -1e150, 3.0, -3.0, 0.1, 0.7, -0.3, 1e150],
             c=3.0)
    def test_block_gradient_equals_the_slice_form_bit_for_bit(self, xs, c):
        x = np.array(xs)
        prob = make_toy(ToySpec(num_components=len(xs), offset=c))
        for lo in range(len(xs)):
            for hi in range(lo + 1, len(xs) + 1):
                got = prob.block_gradient(np.arange(lo, hi), x)
                assert same_bits(got, toy_block_gradient(lo, hi, x, c)), (lo, hi)

    def test_block_gradient_bits_on_the_partition_of_a_long_chain(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal(1000) * 10.0 ** rng.integers(-3, 4, size=1000)
        x[rng.random(1000) < 0.1] = -0.0
        prob = make_toy(ToySpec(num_components=1000, offset=0.37))
        for part in contiguous_partition(1000, 4):
            lo, hi = int(part[0]), int(part[-1]) + 1
            assert same_bits(prob.block_gradient(part, x), toy_block_gradient(lo, hi, x, 0.37))

    def test_partition_blocks_sum_to_the_full_gradient(self):
        prob = make_toy(ToySpec(num_components=21))
        x = np.linspace(-1, 1, 21)
        total = np.zeros(21)
        for part in contiguous_partition(21, 4):
            total += prob.block_gradient(part, x)
        assert np.allclose(total, full_gradient(prob, x), atol=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_components=1),
            dict(num_components=5, offset=0.0),
            dict(num_components=5, l1_weight=-1.0),
            dict(num_components=5, offset=-1.0),
            dict(num_components=5, offset=float("nan")),
        ],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            ToySpec(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        pytest.param(dict(offset=math.inf),
                     "generator.params.offset must lie in (0, inf), got Infinity", id="offset-inf"),
        pytest.param(dict(l1_weight=math.nan),
                     "generator.params.l1_weight must lie in [0, inf), got NaN", id="l1_weight-nan"),
        pytest.param(dict(l1_weight=math.inf),
                     "generator.params.l1_weight must lie in [0, inf), got Infinity",
                     id="l1_weight-inf"),
        # 1.5 N c^2 bounds the objective at the origin
        (dict(offset=1e154), "offset is so large that the objective overflows"),
    ])
    def test_spec_refuses_values_without_a_finite_objective(self, kwargs, message):
        # these used to build problems whose optimal value is inf or NaN, and loading
        # their documents printed numpy overflow warnings
        with pytest.raises(ValueError, match=re.escape(message)):
            ToySpec(num_components=5, **kwargs)
        assert np.isfinite(make_toy(ToySpec(num_components=5, offset=1e153)).known_optimum[1])


class TestLasso:
    SPEC = LassoSpec(rows=12, cols=30, sparsity=0.1, l1_weight=0.3, seed=3)

    def test_arrays_are_deterministic(self):
        a1, b1, x1 = lasso_arrays(self.SPEC)
        a2, b2, x2 = lasso_arrays(self.SPEC)
        assert np.array_equal(a1, a2)
        assert np.array_equal(b1, b2)
        assert np.array_equal(x1, x2)

    def test_planted_signal_shape(self):
        a, b, x_true = lasso_arrays(self.SPEC)
        assert a.shape == (12, 30)
        assert b.shape == (12,)
        assert np.array_equal(b, a @ x_true)
        support = np.nonzero(x_true)[0]
        assert len(support) == 3  # round(0.1 * 30)

    def test_row_lipschitz_constants(self):
        prob = make_lasso(self.SPEC)
        a, _, _ = lasso_arrays(self.SPEC)
        assert np.allclose(prob.component_lipschitz, np.sum(a * a, axis=1), atol=1e-12)
        assert prob.growth_constant is None

    def test_smooth_value_is_half_squared_residual(self):
        prob = make_lasso(self.SPEC)
        a, b, _ = lasso_arrays(self.SPEC)
        rng = np.random.default_rng(8)
        x = rng.normal(size=30)
        r = a @ x - b
        assert prob.smooth_value(x) == pytest.approx(0.5 * float(r @ r), rel=1e-12)

    # row counts 1, 3, 4 and 5 make one block; 301 x 999 is nine 32-row blocks and a 13-row
    # last one; at 1500 columns BLOCK // cols is 21 rows, so a step not rounded down to 20 would
    # start a block at row 21 and move rows out of dgemv_t's four-row groups
    @pytest.mark.parametrize("rows, cols", [(1, 30), (3, 30), (4, 30), (5, 30), (301, 999), (45, 1500)])
    def test_smooth_value_keeps_the_bits_of_one_gemv(self, rows, cols):
        spec = LassoSpec(rows=rows, cols=cols, sparsity=0.1, l1_weight=0.2, seed=rows + cols)
        prob, (a, b, _) = make_lasso(spec), lasso_arrays(spec)
        rng = np.random.default_rng(rows)
        signed_zeros = rng.normal(size=cols)
        signed_zeros[::3], signed_zeros[1::3] = 0.0, -0.0
        vectors = [rng.normal(size=cols), signed_zeros, np.full(cols, -0.0)]
        for special in (math.inf, -math.inf, math.nan):
            x = rng.normal(size=cols)
            x[cols // 2] = special
            vectors.append(x)
        for x in vectors:
            r = a.dot(x) - b
            want = 0.5 * float(r.dot(r))
            for _ in range(2):  # the second call reads the blocks in the other direction
                assert same_bits(prob.smooth_value(x), want)

    @pytest.mark.parametrize("rows, cols", [(1, 30), (3, 30), (5, 30), (60, 200), (300, 1000),
                                            (301, 999), (43, 1500), (45, 1500), (9, 10**9)])
    def test_row_blocks_start_on_multiples_of_four_rows(self, rows, cols):
        blocks = ipiag.problems._row_blocks(rows, cols)
        assert blocks[0][0] == 0 and blocks[-1][1] == rows
        assert all(hi == lo for (_, hi), (lo, _) in zip(blocks, blocks[1:]))
        assert all(lo % 4 == 0 for lo, _ in blocks)
        assert all(hi - lo >= 4 for lo, hi in blocks) or blocks == [(0, rows)]
        if rows * cols <= ipiag.problems.BLOCK:  # 60 x 200 is one GEMV, as before
            assert blocks == [(0, rows)]
        if (rows, cols) == (300, 1000):
            assert [hi - lo for lo, hi in blocks] == [32] * 9 + [12]

    def test_a_block_off_a_multiple_of_four_rows_moves_bits(self):
        # the shapes above would catch such a block: cutting 301 x 999 at row 150 moves the
        # bits of a full GEMV, and cutting it at row 152 keeps them
        a, _, _ = lasso_arrays(LassoSpec(rows=301, cols=999, seed=1300))
        x = np.random.default_rng(0).normal(size=999)
        full = a.dot(x).tobytes()
        for cut, same in ((150, False), (152, True)):
            assert (np.concatenate([a[:cut].dot(x), a[cut:].dot(x)]).tobytes() == full) is same

    # after smooth_value(z), a block gradient at a point equal to z by value takes its rows of
    # A x - b from the objective's residual when the block keeps the 4-row rule; each case
    # names the shape, the worker count, blocks whose bits a reuse there would move (checked
    # first, so that the case can fail) and the point of the block gradients
    REUSE_CASES = {
        # -0.0 for each 0.0: a byte key would miss, a value key reuses every block
        "signed zeros": (300, 1000, 3, [], lambda z: np.where(z == 0.0, -z, z)),
        # one ulp off in one entry is another point
        "one ulp": (300, 1000, 3, [0, 1, 2],
                    lambda z: np.where(np.arange(1000) == 7, np.nextafter(z, 9.0), z)),
        # NaN equals nothing, itself included
        "a NaN": (300, 1000, 3, [0, 1, 2],
                  lambda z: np.where(np.arange(1000) == 7, math.nan, z)),
        # blocks [0, 101), [101, 201), [201, 301) and [0, 23), [23, 45): rows 100 and 300 and
        # rows 20 to 22 and 40 to 44 leave dgemv_t's groups of four rows or join them
        "off the 4-row rule, 301 rows": (301, 999, 3, [0, 2], lambda z: z),
        "off the 4-row rule, 45 rows": (45, 1500, 2, [0, 1], lambda z: z),
        # [36, 45) ends the matrix on a lone row, as the objective's last block [40, 45) does
        "a tail block": (45, 1500, 5, [], lambda z: z),
        # a block of one row is numpy's dot product, not a GEMV, the tail [8, 9) included
        "a lone tail row of 9": (9, 563, 9, [8], lambda z: z),
        "a lone tail row of 5": (5, 1300, 5, [4], lambda z: z),
    }

    @staticmethod
    def reuse_case(rows, cols, workers):
        spec = LassoSpec(rows=rows, cols=cols, sparsity=0.1, l1_weight=0.2, seed=rows + cols)
        z = np.random.default_rng(rows).normal(size=cols)
        z[::3] = 0.0
        return spec, z, contiguous_partition(rows, workers)

    @staticmethod
    def from_objective_residual(spec, z, blocks):
        """The block gradients at z from the residual as smooth_value computes it."""
        a, b, _ = lasso_arrays(spec)
        row_blocks = ipiag.problems._row_blocks(*a.shape)
        res = np.concatenate([a[lo:hi].dot(z) for lo, hi in row_blocks]) - b
        return [a[p[0] : p[-1] + 1].T.dot(res[p[0] : p[-1] + 1]).tobytes() for p in blocks]

    @pytest.mark.parametrize("case", REUSE_CASES)
    def test_a_block_gradient_after_the_objective_keeps_a_fresh_calls_bits(self, case):
        rows, cols, workers, moved, point = self.REUSE_CASES[case]
        spec, z, blocks = self.reuse_case(rows, cols, workers)
        prob, fresh = make_lasso(spec), make_lasso(spec)
        prob.smooth_value(z)
        x = point(z)
        want = [fresh.block_gradient(p, x).tobytes() for p in blocks]
        stale = self.from_objective_residual(spec, z, blocks)
        assert all(stale[w] != want[w] for w in moved)
        for _ in range(2):  # a reuse leaves the residual as it was
            assert [prob.block_gradient(p, x).tobytes() for p in blocks] == want

    def test_a_block_gradient_after_a_raising_objective_keeps_a_fresh_calls_bits(self):
        spec, z, blocks = self.reuse_case(300, 1000, 3)
        prob, fresh = make_lasso(spec), make_lasso(spec)
        prob.smooth_value(z)
        with pytest.raises(ValueError):
            prob.smooth_value(np.array([1.5]))  # broadcasts to a d-vector, but no GEMV takes it
        for x in (np.full(1000, 1.5), z):
            want = [fresh.block_gradient(p, x).tobytes() for p in blocks]
            assert [prob.block_gradient(p, x).tobytes() for p in blocks] == want

    def test_a_point_written_after_the_objective_keeps_a_fresh_calls_bits(self):
        # run() writes its iterates into buffers it reuses, so the problem keeps a copy
        spec, z, blocks = self.reuse_case(300, 1000, 3)
        prob, fresh = make_lasso(spec), make_lasso(spec)
        prob.smooth_value(z)
        z += 1.0
        want = [fresh.block_gradient(p, z).tobytes() for p in blocks]
        assert [prob.block_gradient(p, z).tobytes() for p in blocks] == want

    def test_a_block_gradient_at_the_objectives_point_reads_its_residual(self, monkeypatch):
        # shifting b after the objective moves only the gradients computed afresh
        drawn = []

        def recording(spec):
            arrays = lasso_arrays(spec)
            drawn.append(arrays[1])
            return arrays

        monkeypatch.setattr(ipiag.problems, "lasso_arrays", recording)
        spec, z, blocks = self.reuse_case(45, 1500, 9)
        prob = make_lasso(spec)
        prob.smooth_value(z)
        points = (z, np.where(z == 0.0, -z, z))  # the sign of a zero does not count
        before = [[prob.block_gradient(p, x).tobytes() for p in blocks] for x in points]
        drawn[0][:] += 1.0
        after = [[prob.block_gradient(p, x).tobytes() for p in blocks] for x in points]
        # blocks of 5 rows: [0, 5), [5, 10), ..., [40, 45); only [40, 45) keeps the rule
        for got, want in zip(after, before):
            assert [got[w] == want[w] for w in range(9)] == [False] * 8 + [True]

    def test_gradient_passes_finite_differences(self):
        prob = make_lasso(self.SPEC)
        rng = np.random.default_rng(2)
        x = rng.normal(size=30) * 0.1
        assert gradient_consistency_check(prob, x) <= 1e-5

    def test_block_gradient_contiguous_and_scattered(self):
        prob = make_lasso(self.SPEC)
        rng = np.random.default_rng(4)
        x = rng.normal(size=30) * 0.2
        a, b, _ = lasso_arrays(self.SPEC)
        for i in range(12):
            single = prob.block_gradient(np.arange(i, i + 1), x)
            assert np.allclose(single, (a[i] @ x - b[i]) * a[i], atol=1e-10), i
        idx = np.arange(3, 9)
        loop = sum(prob.block_gradient(np.arange(i, i + 1), x) for i in idx)
        assert np.allclose(prob.block_gradient(idx, x), loop, atol=1e-10)
        for idx in (np.array([0, 4, 11]), np.array([], dtype=int)):  # scattered, empty
            with pytest.raises(ValueError):
                prob.block_gradient(idx, x)

    def test_regularizer_is_weighted_l1(self):
        prob = make_lasso(self.SPEC)
        x = np.zeros(30)
        x[:2] = [2.0, -1.0]
        assert prob.regularizer_value(x) == pytest.approx(0.3 * 3.0, rel=1e-14)

    @pytest.mark.parametrize(
        "spec, digest",
        [
            (LassoSpec(), "7acc22f9f7c7707484db5963379dea55b952e06a6693a67b55d8199ae465c311"),
            (
                LassoSpec(rows=300, cols=1000, sparsity=0.1, l1_weight=0.2, seed=7),
                "3a15ef13daece4dbcbd0df0b33f8916409856794f8fe163caf944e21f92fe165",
            ),
        ],
    )
    def test_arrays_keep_their_bytes(self, spec, digest):
        h = hashlib.sha256()
        for arr in lasso_arrays(spec):
            h.update(arr.tobytes())
        assert h.hexdigest() == digest

    def test_matrix_is_cache_line_aligned_and_kept_without_a_copy(self, monkeypatch):
        spec = LassoSpec(rows=300, cols=1000, sparsity=0.1, l1_weight=0.2, seed=7)
        a, _, _ = lasso_arrays(spec)
        assert a.ctypes.data % 64 == 0 and a.strides == (8000, 8)  # every row aligned too
        drawn = []

        def recording(spec):
            arrays = lasso_arrays(spec)
            drawn.append(arrays[0])
            return arrays

        # make_lasso draws through the module-level name, which the benchmark tracer wraps
        monkeypatch.setattr(ipiag.problems, "lasso_arrays", recording)
        prob = make_lasso(self.SPEC)
        assert len(drawn) == 1 and drawn[0].ctypes.data % 64 == 0
        x = np.ones(30)
        assert np.any(prob.block_gradient(np.arange(12), x) != 0.0)
        drawn[0][:] = 0.0  # the problem reads this very buffer
        assert not np.any(prob.block_gradient(np.arange(12), x))

    @pytest.mark.parametrize("rows, cols", [(1, 1), (33, 1000), (300, 1000), (3, 40000), (40000, 1)])
    def test_row_norms_equal_the_whole_matrix_sum_bit_for_bit(self, rows, cols):
        # blocks of BLOCK // cols rows, one row at a time past BLOCK columns
        spec = LassoSpec(rows=rows, cols=cols, sparsity=0.1, l1_weight=0.2, seed=rows + cols)
        a, _, _ = lasso_arrays(spec)
        want = np.sum(a * a, axis=1)
        assert make_lasso(spec).component_lipschitz.tobytes() == want.tobytes()

    def test_make_lasso_holds_its_matrix_plus_one_block(self):
        spec = LassoSpec(rows=300, cols=1000, sparsity=0.1, l1_weight=0.2, seed=7)
        tracemalloc.start()
        try:
            make_lasso(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * spec.rows * spec.cols * 8  # no full a * a for the row norms

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rows=0, cols=5),
            dict(rows=5, cols=5, sparsity=0.0),
            dict(rows=5, cols=5, sparsity=1.5),
            dict(rows=5, cols=5, l1_weight=-0.1),
            # accepted before: a NaN weight, a seed int() truncated and one it overflowed on
            dict(rows=5, cols=5, l1_weight=math.nan),
            dict(rows=5, cols=5, seed=1.5),
            dict(rows=5, cols=5, seed=math.inf),
        ],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            LassoSpec(**kwargs)


def test_spectral_norm_matches_numpy_both_shapes():
    rng = np.random.default_rng(12)
    wide = rng.normal(size=(6, 15))
    tall = rng.normal(size=(15, 6))
    for a in (wide, tall):
        expected = float(np.linalg.norm(a, 2) ** 2)
        assert spectral_norm_sq(a) == pytest.approx(expected, rel=1e-10)


def test_reference_solution_is_a_prox_fixed_point():
    spec = LassoSpec(rows=10, cols=16, sparsity=0.2, l1_weight=0.4, seed=6)
    prob = make_lasso(spec)
    a, _, _ = lasso_arrays(spec)
    alpha = 1.0 / spectral_norm_sq(a)
    x_ref, phi_ref = reference_solution(prob, alpha, max_iters=50000, tol=1e-12)
    moved = prob.prox(x_ref - alpha * full_gradient(prob, x_ref), alpha)
    assert np.max(np.abs(moved - x_ref)) <= 1e-8
    assert phi_ref == pytest.approx(evaluate_objective(prob, x_ref), rel=1e-12)


def test_one_dimensional_least_squares_closed_form():
    # A = [[2]], b = [2], weight 1: the minimizer is 3/4
    prob = CompositeProblem(
        dimension=1,
        num_components=1,
        block_gradient=lambda indices, x: 2.0 * (2.0 * x - 2.0),
        smooth_value=lambda x: 0.5 * float((2.0 * x[0] - 2.0) ** 2),
        regularizer_value=lambda x: float(abs(x[0])),
        prox=ProxSpec("l1", 1.0).prox,
        component_lipschitz=np.array([4.0]),
    )
    K = 300
    trace = run(
        prob,
        SolverParams(alpha=0.2, max_iters=K),
        schedule_synchronous(1, K),
        np.zeros(1),
    )
    assert trace.z_final[0] == pytest.approx(0.75, abs=1e-9)


class TestDocuments:
    def test_toy_document_roundtrip(self):
        spec = ToySpec(num_components=14, offset=2.0, l1_weight=0.5)
        doc = toy_document(spec)
        prob = problem_from_document(doc)
        assert prob.dimension == 14
        assert prob.total_lipschitz == 15.0
        x = np.linspace(-0.5, 0.5, 14)
        direct = make_toy(spec)
        assert evaluate_objective(prob, x) == pytest.approx(
            evaluate_objective(direct, x), rel=1e-14
        )

    def test_lasso_document_roundtrip(self):
        spec = LassoSpec(rows=8, cols=12, sparsity=0.25, l1_weight=0.2, seed=1)
        doc = lasso_document(spec)
        assert doc["beta"] is None
        prob = problem_from_document(doc)
        direct = make_lasso(spec)
        x = np.full(12, 0.1)
        assert np.allclose(full_gradient(prob, x), full_gradient(direct, x), atol=1e-12)

    def test_generator_dispatch(self):
        toy = {"generator": {"name": "toy", "params": {"num_components": 9}}}
        prob = problem_from_document(toy)
        assert prob.dimension == 9
        message = 'generator.name must be one of "toy", "lasso", got "mystery"'
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            problem_from_document({"generator": {"name": "mystery", "params": {}, "seed": 0}})

    def test_toy_params_are_the_spec_fields(self):
        doc = toy_document(ToySpec(num_components=6, offset=2.0, l1_weight=0.5))
        assert doc["generator"]["params"] == {"num_components": 6, "offset": 2.0, "l1_weight": 0.5}
        doc["generator"]["params"]["num_workers"] = 4  # a param ToySpec no longer takes
        with pytest.raises(ValueError, match='^generator.params has no field "num_workers"$'):
            problem_from_document(doc)

    def test_the_lasso_seed_is_a_param(self):
        spec = LassoSpec(rows=8, cols=12, sparsity=0.25, l1_weight=0.2, seed=5)
        generator = lasso_document(spec)["generator"]
        assert set(generator) == {"name", "params"} and generator["params"]["seed"] == 5
        rebuilt = problem_from_document(json.loads(json.dumps(lasso_document(spec))))
        lipschitz = rebuilt.component_lipschitz.tobytes()
        assert lipschitz == make_lasso(spec).component_lipschitz.tobytes()
        seed0 = LassoSpec(rows=8, cols=12, sparsity=0.25, l1_weight=0.2)
        assert lipschitz != make_lasso(seed0).component_lipschitz.tobytes()

    @pytest.mark.parametrize(
        "beta, message",
        [(True, "beta must be a number or null, got true"),
         (-1, "beta must lie in (0, inf), got -1"),
         ("2", 'beta must be a number or null, got "2"'),
         (float("nan"), "beta must lie in (0, inf), got NaN"),
         (float("inf"), "beta must lie in (0, inf), got Infinity"),
         (10**400, f"beta is too large for a float, got {10**400}")],
        ids=["true", "-1", "string", "nan", "inf", "beyond-float"],
    )
    def test_a_lasso_beta_must_be_a_positive_finite_number(self, beta, message):
        # these used to load as a float, or (beyond-float) raise OverflowError
        doc = lasso_document(LassoSpec(rows=8, cols=12, sparsity=0.25, l1_weight=0.2, seed=1))
        doc["beta"] = beta
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            problem_from_document(doc)

    @pytest.mark.parametrize("beta", [0.5, 3])
    def test_a_valid_lasso_beta_fills_in_the_growth_constant(self, beta):
        doc = lasso_document(LassoSpec(rows=8, cols=12, sparsity=0.25, l1_weight=0.2, seed=1))
        doc["beta"] = beta
        prob = problem_from_document(json.loads(json.dumps(doc)))
        assert type(prob.growth_constant) is float and prob.growth_constant == beta
