import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ipiag.rng import SplitMix64

from .oracles import splitmix_normals, splitmix_u64, splitmix_uniforms

BULK_ORACLES = {"u64_array": splitmix_u64, "uniforms": splitmix_uniforms, "normals": splitmix_normals}


def test_scalar_and_array_paths_agree():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    seq = [a.next_u64() for _ in range(64)]
    arr = b.u64_array(64)
    assert seq == [int(v) for v in arr]


def test_streams_are_reproducible_across_instances():
    assert SplitMix64(7).u64_array(10).tolist() == SplitMix64(7).u64_array(10).tolist()
    assert SplitMix64(7).u64_array(10).tolist() != SplitMix64(8).u64_array(10).tolist()


def test_known_outputs_match_the_reference_stream():
    # first outputs of the widely used 64-bit mix for seed 0; any change
    # to the constants or the counter handling shows up here immediately
    r = SplitMix64(0)
    assert r.next_u64() == 0xE220A8397B1DCDAF
    assert r.next_u64() == 0x6E789E6AA1B965F4
    assert r.next_u64() == 0x06C45D188009454F


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=10**6))
def test_below_stays_in_range(seed, n):
    r = SplitMix64(seed)
    for _ in range(8):
        assert 0 <= r.below(n) < n


@pytest.mark.parametrize("make, message", [
    (lambda: SplitMix64(1).below(0), "n must be a positive integer, got 0"),
    # a seed is refused, not wrapped or truncated onto another seed's stream
    (lambda: SplitMix64(-1), "seed must be an integer in [0, 2**64), got -1"),
    (lambda: SplitMix64(np.int64(-1)),
     f"seed must be an integer in [0, 2**64), got {np.int64(-1)!r}"),
    (lambda: SplitMix64(2**64), "seed must be an integer in [0, 2**64), got 18446744073709551616"),
    (lambda: SplitMix64(1.7), "seed must be an integer in [0, 2**64), got 1.7"),
    (lambda: SplitMix64(1.0), "seed must be an integer in [0, 2**64), got 1.0"),
    (lambda: SplitMix64(True), "seed must be an integer in [0, 2**64), got True"),
    (lambda: SplitMix64("3"), "seed must be an integer in [0, 2**64), got '3'"),
    # a bound or count follows the seed's integer rule: 2.5 drew a float, True one value
    (lambda: SplitMix64(1).below(2.5), "n must be a positive integer, got 2.5"),
    (lambda: SplitMix64(1).u64_array(True), "draw count must be a nonnegative integer, got True"),
    (lambda: SplitMix64(1).shuffle_prefix(5, True), "need integers 0 <= k <= n, got n=5, k=True"),
], ids=["below-0", "seed-neg", "seed-np-neg", "seed-2**64", "seed-1.7", "seed-1.0", "seed-bool",
        "seed-str", "below-2.5", "u64-bool", "shuffle-bool"])
def test_a_bad_bound_or_seed_is_refused(make, message):
    with pytest.raises(ValueError) as got:
        make()
    assert str(got.value) == message


def test_uniforms_lie_in_unit_interval():
    u = SplitMix64(3).uniforms(5000)
    assert u.shape == (5000,)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    # crude but effective: the mean of U[0,1) has sd ~ 0.004 at this size
    assert abs(u.mean() - 0.5) < 0.02


def test_normals_have_plausible_moments():
    z = SplitMix64(41).normals(20001)  # odd length exercises the trim
    assert z.shape == (20001,)
    assert np.all(np.isfinite(z))
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=40))
def test_shuffle_prefix_is_a_valid_subset(seed, n):
    r = SplitMix64(seed)
    k = 1 + seed % n
    picks = r.shuffle_prefix(n, k)
    assert len(picks) == k
    assert len(set(int(p) for p in picks)) == k
    assert all(0 <= int(p) < n for p in picks)
    assert list(picks) == sorted(picks)


def test_consuming_draws_advances_the_counter():
    r = SplitMix64(5)
    r.uniforms(10)
    after = r.next_u64()
    fresh = SplitMix64(5)
    fresh_seq = [fresh.next_u64() for _ in range(11)]
    assert after == fresh_seq[10]


@pytest.mark.parametrize("method", sorted(BULK_ORACLES))
@pytest.mark.parametrize("seed", [0, 1, 7, 2**63 + 5, 2**64 - 1])
def test_bulk_draws_match_the_whole_array_formulas_byte_for_byte(method, seed):
    # a scalar draw first, so the bulk draws start mid-stream
    for n in (0, 1, 2, 3, 7, 100, 101, 300000, 300001):
        r = SplitMix64(seed)
        r.next_u64()
        got = getattr(r, method)(n)
        want = BULK_ORACLES[method](seed, 1, n)
        assert got.dtype == want.dtype and got.shape == want.shape, (method, n)
        assert got.tobytes() == want.tobytes(), (method, seed, n)
        used = 2 * ((n + 1) // 2) if method == "normals" else n
        assert r.counter == 1 + used


@pytest.mark.parametrize("method", sorted(BULK_ORACLES))
def test_a_negative_draw_count_leaves_the_stream_alone(method):
    r = SplitMix64(5)
    r.next_u64()
    with pytest.raises(ValueError):
        getattr(r, method)(-3)
    assert r.counter == 1
    assert r.next_u64() == SplitMix64(5).u64_array(2)[1]


@pytest.mark.parametrize("n", [1, 7, 1000, 300001])
def test_normals_start_on_a_cache_line(n):
    assert SplitMix64(n).normals(n).ctypes.data % 64 == 0


def test_normals_hold_at_most_twice_their_output_bytes():
    n = 300000
    tracemalloc.start()
    try:
        z = SplitMix64(9).normals(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.05 * z.nbytes
