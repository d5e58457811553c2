import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ipiag import (
    DelaySchedule,
    ScheduleError,
    SplitMix64,
    max_observed_staleness,
    schedule_synchronous,
    schedule_uniform_single,
)

from .oracles import flat, max_staleness, uniform_single_lists, validate_schedule_lists


def arrays(schedule):
    return schedule.offsets.tolist(), schedule.workers.tolist(), schedule.sources.tolist()


def write_jsonl(path, refreshed, source_iter):
    """Write the JSONL schedule whose record k holds ``refreshed[k]`` and ``source_iter[k]``;
    numpy integers are written as the JSON integers they hold."""
    records = (
        {"k": k, "refreshed": ws, "source_iter": ss}
        for k, (ws, ss) in enumerate(zip(refreshed, source_iter))
    )
    path.write_text("".join(json.dumps(rec, default=int) + "\n" for rec in records))
    return str(path)


def test_synchronous_refreshes_everyone_at_the_current_iterate():
    s = schedule_synchronous(3, 5)
    assert s.iterations == 5
    assert s.tau == 0
    assert s.offsets.tolist() == [0, 3, 6, 9, 12, 15]
    assert s.workers.tolist() == [0, 1, 2] * 5
    assert s.sources[12:].tolist() == [4, 4, 4]
    assert max_observed_staleness(s) == 0


@pytest.mark.parametrize("workers", [1, 2, 5])
@pytest.mark.parametrize("iters", [0, 1, 7])
def test_synchronous_arrays_equal_their_list_form(workers, iters):
    s = schedule_synchronous(workers, iters)
    refreshed = [list(range(workers)) for _ in range(iters)]
    source_iter = [[k] * workers for k in range(iters)]
    assert arrays(s) == flat(refreshed, source_iter)
    assert all(a.dtype == np.int64 for a in (s.offsets, s.workers, s.sources))


def test_uniform_single_is_deterministic_in_the_seed():
    a = schedule_uniform_single(4, 3, 200, seed=11)
    b = schedule_uniform_single(4, 3, 200, seed=11)
    c = schedule_uniform_single(4, 3, 200, seed=12)
    assert arrays(a) == arrays(b)
    assert arrays(a) != arrays(c)


def test_uniform_single_with_zero_tau_refreshes_all_workers():
    s = schedule_uniform_single(4, 0, 10, seed=0)
    # after iteration 0 every block would age beyond tau=0, so every
    # iteration from k=1 on must force a full refresh
    for k in range(1, 10):
        assert sorted(s.workers[s.offsets[k]:s.offsets[k + 1]].tolist()) == [0, 1, 2, 3]
    assert max_observed_staleness(s) == 0


def test_single_worker_degenerates_to_synchronous():
    s = schedule_uniform_single(1, 5, 20, seed=9)
    assert arrays(s) == arrays(schedule_synchronous(1, 20))
    assert max_observed_staleness(s) == 0


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=2**32),
)
def test_uniform_single_never_exceeds_the_bound(workers, tau, seed):
    s = schedule_uniform_single(workers, tau, 300, seed)
    assert max_observed_staleness(s) <= tau


def test_hand_built_schedule_staleness_is_the_oldest_entry():
    # four workers, five iterations; worker 3 is never refreshed after the
    # initial table fill, so its entry ages to 4 by the last iteration
    s = DelaySchedule(4, 4, *flat([[0], [1], [0, 2], [1], [2]], [[0], [1], [2, 2], [3], [4]]))
    assert max_observed_staleness(s) == 4


def test_declared_bound_is_enforced_not_clamped():
    # worker 1 ages to 2 by k=2 while tau says 1
    with pytest.raises(ScheduleError):
        DelaySchedule(2, 1, *flat([[0], [0], [0]], [[0], [1], [2]]))


def test_a_worker_refreshed_twice_in_one_step_is_refused():
    # the first refresh of step 5 reads x_0, five steps stale under tau = 0; a table that kept
    # only the last refresh never checked it, and the run spent a block gradient on it
    with pytest.raises(ScheduleError, match="^iteration 5: worker 0 refreshes twice$"):
        DelaySchedule(1, 0, [0, 1, 2, 3, 4, 5, 7], [0] * 7, [0, 1, 2, 3, 4, 0, 5])


def test_the_staleness_table_is_held_read_only_in_trace_layout():
    s = DelaySchedule(3, 3, *flat([[0], [1, 2], [], [0]], [[0], [0, 1], [], [3]]))
    assert s.staleness.dtype == np.int64
    assert s.staleness.tolist() == [[0, 0, 0], [0, 0, 0], [1, 1, 0], [2, 2, 1], [0, 3, 2]]
    with pytest.raises(ValueError):
        s.staleness[1, 0] = 9
    # worker 1 is 3 steps stale only in the last row, which a run of 3 steps never reads, and
    # tau = 2 is refused all the same
    with pytest.raises(ScheduleError, match="^observed staleness 3 exceeds declared tau 2$"):
        DelaySchedule(3, 2, s.offsets, s.workers, s.sources)


def test_stale_sources_count_at_refresh_time():
    # the refresh at k=3 reads the x_0 iterate
    s = DelaySchedule(1, 3, *flat([[], [], [], [0]], [[], [], [], [0]]))
    assert max_observed_staleness(s) == 3


class TestValidation:
    def test_misaligned_outer_lists(self):
        # one iteration of worker ids and none of sources
        with pytest.raises(ScheduleError):
            DelaySchedule(2, 1, *flat([[0]], []))

    def test_misaligned_inner_lists(self, tmp_path):
        path = write_jsonl(tmp_path / "schedule.jsonl", [[0, 1]], [[0]])
        with pytest.raises(ScheduleError):
            DelaySchedule.from_jsonl(path, 2, 1)

    def test_worker_out_of_range(self):
        with pytest.raises(ScheduleError):
            DelaySchedule(2, 1, *flat([[2]], [[0]]))

    def test_source_from_the_future(self):
        with pytest.raises(ScheduleError):
            DelaySchedule(2, 1, *flat([[0]], [[1]]))

    def test_negative_tau(self):
        with pytest.raises(ScheduleError):
            DelaySchedule(2, -1, *flat([], []))

    @pytest.mark.parametrize("make, message", [
        (lambda: schedule_synchronous(0, 5), "need at least one worker"),
        (lambda: schedule_synchronous(2, -1), "iters must be nonnegative"),
        (lambda: schedule_uniform_single(0, 1, 5, seed=0), "need at least one worker"),
        (lambda: schedule_uniform_single(2, -1, 5, seed=0), "tau must be nonnegative"),
        (lambda: schedule_uniform_single(2, 1, -1, seed=0), "iters must be nonnegative"),
        (lambda: schedule_synchronous(2.0, 5), "num_workers must be an integer, got 2.0"),
        (lambda: schedule_synchronous(2, True), "iters must be an integer, got True"),
        (lambda: schedule_uniform_single(4, 1.5, 20, seed=0), "tau must be an integer, got 1.5"),
        (lambda: schedule_uniform_single(4, True, 20, seed=0), "tau must be an integer, got True"),
        (lambda: schedule_uniform_single(True, 1, 20, seed=0),
         "num_workers must be an integer, got True"),
        (lambda: schedule_uniform_single(4, 1, 20.0, seed=0), "iters must be an integer, got 20.0"),
        (lambda: DelaySchedule(2, 1.5, [0], [], []), "tau must be an integer, got 1.5"),
        (lambda: DelaySchedule(2.0, 1, [0], [], []), "num_workers must be an integer, got 2.0"),
    ], ids=["sync-workers", "sync-iters", "uniform1-workers", "uniform1-tau", "uniform1-iters",
            "sync-workers-float", "sync-iters-bool", "uniform1-tau-float", "uniform1-tau-bool",
            "uniform1-workers-bool", "uniform1-iters-float", "ctor-tau-float",
            "ctor-workers-float"])
    def test_generators_reject_bad_sizes(self, make, message):
        with pytest.raises(ScheduleError, match=f"^{message}$"):
            make()

    @pytest.mark.parametrize("offsets, workers, sources, message", [
        ([], [], [], "offsets must rise"),
        ([1], [], [], "offsets must rise"),
        ([0, 2], [0], [0], "offsets must rise"),
        ([0, 1], [0], [0, 0], "offsets must rise"),
        ([0, 2, 1], [0, 1], [0, 1], "offsets must rise"),
        ([[0, 1]], [0], [0], "offsets must rise"),
        ([0, 1], [[0]], [0], "offsets must rise"),
        ([0, 1], [0.0], [0], "must be 64-bit integers"),
        ([0, 1], [True], [0], "must be 64-bit integers"),
        ([0, 1], np.array([1], dtype=np.uint64), [0], "must be 64-bit integers"),
        ([0, 1, 3], [0, 1, 2], [0, 1, 0], "iteration 1: worker id 2 out of range"),
        ([0, 1, 3], [0, 1, 0], [0, 2, 1], "iteration 1: source 2 out of range"),
        ([0, 0, 1], [0], [-1], "iteration 1: source -1 out of range"),
    ])
    def test_the_array_constructor_checks_its_arrays(self, offsets, workers, sources, message):
        with pytest.raises(ScheduleError, match=message):
            DelaySchedule(2, 1, offsets, workers, sources)


@st.composite
def schedule_lists(draw):
    """(num_workers, tau, refreshed, source_iter): lists in range with up to three defects.

    The lists in range may already refresh a worker twice in a step or age past ``tau``.

    The two outer lists always have the same length: a JSONL file cannot hold
    one without the other, since each record carries both lists of its iteration.
    """
    workers = draw(st.integers(1, 4))
    # sampled_from draws evenly; st.integers leans to small values
    iters = draw(st.sampled_from(range(11)))
    refreshed, source_iter = [], []
    for k in range(iters):
        n = draw(st.integers(0, 3))
        refreshed.append(draw(st.lists(st.integers(0, workers - 1), min_size=n, max_size=n)))
        source_iter.append(draw(st.lists(st.integers(0, k), min_size=n, max_size=n)))
    for _ in range(draw(st.sampled_from(range(4))) if iters else 0):
        k = draw(st.sampled_from(range(iters)))
        defect = draw(st.sampled_from(["worker", "source", "inner", "twice"]))
        if defect == "twice":
            if refreshed[k]:
                refreshed[k].append(draw(st.sampled_from(refreshed[k])))
                source_iter[k].append(k)
        elif defect == "inner":
            if source_iter[k] and draw(st.booleans()):
                source_iter[k].pop()
            else:
                source_iter[k].append(k)
        else:
            entries = (refreshed if defect == "worker" else source_iter)[k]
            bad = [-2, -1, workers, workers + 1] if defect == "worker" else [-1, k + 1, k + 5]
            if entries:
                entries[draw(st.sampled_from(range(len(entries))))] = draw(st.sampled_from(bad))
    workers = draw(st.sampled_from([workers] * 6 + [0, -1]))
    # tau = 10 is never exceeded by 10 steps, so the lists that pass the other checks build
    tau = draw(st.sampled_from([0, 1, 2, 3, 3, 3, 10, 10, -1]))
    return workers, tau, refreshed, source_iter


@settings(max_examples=500)
@given(schedule_lists())
# a bad worker id at iteration 0 comes before the misaligned lists of iteration 1
@example((2, 1, [[5], [0, 1]], [[0], [1]]))
@example((2, 1, [[0, 1], [5]], [[0], [1]]))
@example((3, 2, [[0, 1], [2, 7]], [[0, 0], [4, 1]]))
@example((2, 3, [[0]] * 6, [[0]] * 5 + [[6]]))
# numpy integers are integers too
@example((2, 1, [[np.int32(0)], [np.uint8(1)]], [[0], [np.int64(1)]]))
# a bad entry anywhere comes before a worker refreshed twice, which comes before tau, and each
# comes before the misaligned lists of a later iteration
@example((2, 3, [[0, 0], [0, 5]], [[0, 0], [1, 1]]))
@example((2, 0, [[0], [0, 0]], [[0], [1, 1]]))
@example((2, 3, [[0, 0], [0]], [[0, 0], []]))
@example((1, 0, [[0], [], [0]], [[0], [], []]))
# the worker whose second refresh comes first is named
@example((2, 3, [[1, 0, 1, 0]], [[0, 0, 0, 0]]))
@example((1, 0, [[0]] * 5 + [[0, 0]], [[0], [1], [2], [3], [4], [0, 5]]))
def test_validation_raises_what_the_entry_by_entry_check_raises(tmp_path_factory, case):
    workers, tau, refreshed, source_iter = case
    path = write_jsonl(tmp_path_factory.getbasetemp() / "cases.jsonl", refreshed, source_iter)
    try:
        validate_schedule_lists(*case)
    except ScheduleError as exc:
        with pytest.raises(ScheduleError) as got:
            DelaySchedule.from_jsonl(path, workers, tau)
        assert str(got.value) == str(exc)
        # where the lists align, their flat arrays are refused with the same message
        if list(map(len, refreshed)) == list(map(len, source_iter)):
            with pytest.raises(ScheduleError) as got:
                DelaySchedule(workers, tau, *flat(refreshed, source_iter))
            assert str(got.value) == str(exc)
    else:
        s = DelaySchedule.from_jsonl(path, workers, tau)
        assert arrays(s) == flat(refreshed, source_iter)
        # the array constructor takes the same schedule as its flat arrays
        assert arrays(DelaySchedule(s.num_workers, s.tau, *arrays(s))) == arrays(s)


@pytest.mark.parametrize("entry", [1.5, "1", 2**63, 2.0, True])
def test_entries_must_be_64_bit_integers(tmp_path, entry):
    for case, where in [
        ((2, 1, [[0], [entry]], [[0], [1]]), "records[1].refreshed"),
        ((2, 1, [[0], [1]], [[0], [entry]]), "records[1].source_iter"),
        # every entry is checked to be an integer before any is checked to be in range,
        # so a truncated 1.5 never reaches a range message and an earlier bad id never wins
        ((1, 0, [[entry]], [[0]]), "records[0].refreshed"),
        ((2, 1, [[5], [entry]], [[0], [1]]), "records[1].refreshed"),
    ]:
        num_workers, tau, refreshed, source_iter = case
        path = write_jsonl(tmp_path / "schedule.jsonl", refreshed, source_iter)
        with pytest.raises(ValueError) as got:
            DelaySchedule.from_jsonl(path, num_workers, tau)
        # the row refuses what is not a JSON integer; the arrays refuse what int64 cannot hold
        if type(entry) is int:
            assert type(got.value) is ScheduleError
            assert str(got.value) == "worker ids and sources must be 64-bit integers"
        else:
            assert type(got.value) is ValueError
            assert str(got.value) == (
                f"{where} must be a JSON list of integers, got {json.dumps([entry])}"
            )


def test_a_schedule_is_frozen_and_its_arrays_read_only():
    s = schedule_uniform_single(3, 2, 10, seed=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.tau = 9
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.sources = np.zeros(10, dtype=np.int64)
    for array in (s.offsets, s.workers, s.sources):
        with pytest.raises(ValueError):
            array[0] = 1


def test_edits_to_the_lists_after_construction_are_not_seen(tmp_path):
    s = schedule_uniform_single(4, 2, 20, seed=0)
    table = s.staleness
    # the per-iteration views are tuples
    with pytest.raises(TypeError):
        s.source_iter[3] = [7]
    with pytest.raises(TypeError):
        s.refreshed[5][0] = 9
    assert np.array_equal(s.staleness, table)
    # the constructor keeps its own copies, so edits to the arrays passed in are not seen
    passed = [a.copy() for a in (s.offsets, s.workers, s.sources)]
    s = DelaySchedule(4, 2, *passed)
    passed[2][3] = 7
    passed[1][5] = 9
    assert np.array_equal(s.staleness, table)
    path = tmp_path / "schedule.jsonl"
    s.to_jsonl(str(path))
    back = DelaySchedule.from_jsonl(str(path), num_workers=4, tau=2)
    assert arrays(back) == flat(*uniform_single_lists(4, 2, 20, seed=0))


def test_jsonl_roundtrip(tmp_path):
    s = schedule_uniform_single(3, 2, 50, seed=5)
    path = tmp_path / "schedule.jsonl"
    s.to_jsonl(str(path))
    # the wire format is pinned byte for byte
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "ec1c4b9819c97987218fe3b49c285c05c139c931690a8308d2a4b5911f676f24"
    )
    back = DelaySchedule.from_jsonl(str(path), num_workers=3, tau=2)
    assert arrays(back) == arrays(s)
    assert back.tau == 2


def test_jsonl_rejects_out_of_order_records(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"k": 0, "refreshed": [0], "source_iter": [0]}\n'
        '{"k": 2, "refreshed": [0], "source_iter": [1]}\n'
    )
    with pytest.raises(ScheduleError):
        DelaySchedule.from_jsonl(str(path), num_workers=1, tau=5)


@pytest.mark.parametrize("line, reason", [
    ('{"k": 1, "refreshed": [0], "source_iter": [1]', "Expecting ',' delimiter: line 1"),
    ("[" * 100000, "maximum recursion depth exceeded"),
], ids=["not-json", "nested-too-deep"])
def test_a_line_that_does_not_decode_names_its_record(tmp_path, line, reason):
    # json.loads raised a bare JSONDecodeError or RecursionError that named no record
    path = tmp_path / "schedule.jsonl"
    path.write_text('{"k": 0, "refreshed": [0], "source_iter": [0]}\n\n' + line + "\n")
    with pytest.raises(ValueError) as got:
        DelaySchedule.from_jsonl(str(path), num_workers=1, tau=5)
    assert type(got.value) is ValueError
    assert str(got.value).startswith(f"records[1] is not JSON: {reason}"), str(got.value)


@pytest.mark.parametrize("refreshed, source_iter", [
    ("[1.5]", "[0.9]"),
    ("[1.5]", "[0]"),
    ("[1]", "[0.9]"),
    ("[2.0]", "[0]"),
    ("[true]", "[0]"),
    ("[1]", "[0.0]"),
])
def test_jsonl_entries_that_are_not_integers_are_rejected_not_truncated(
    tmp_path, refreshed, source_iter
):
    # truncated, [1.5] / [0.9] would read as worker 1 and source 0; 2.0 and true are
    # value-equal to 2 and 1 but are not JSON integers.  The first row that refuses is named
    path = tmp_path / "schedule.jsonl"
    path.write_text(f'{{"k": 0, "refreshed": {refreshed}, "source_iter": {source_iter}}}\n')
    field, value = ("source_iter", source_iter) if refreshed == "[1]" else ("refreshed", refreshed)
    with pytest.raises(ValueError) as got:
        DelaySchedule.from_jsonl(str(path), num_workers=2, tau=0)
    assert type(got.value) is ValueError
    assert str(got.value) == f"records[0].{field} must be a JSON list of integers, got {value}"


# W = 16 and 64 under a small tau make forced groups recur: every block starts at x_0, and a
# group forced together stays together until draws split it
@pytest.mark.parametrize("workers", [1, 2, 4, 7, 16, 64])
@pytest.mark.parametrize("tau", [0, 1, 2, 4, 9, 16, 64])
@pytest.mark.parametrize("iters", [0, 1, 13, 400])
def test_uniform_single_equals_the_numpy_form(workers, tau, iters):
    for seed in (0, 1, 2**63 + 5):
        s = schedule_uniform_single(workers, tau, iters, seed)
        refreshed, source_iter = uniform_single_lists(workers, tau, iters, seed)
        assert arrays(s) == flat(refreshed, source_iter)
        assert all(a.dtype == np.int64 for a in (s.offsets, s.workers, s.sources))
        # the read-only views are the same lists, as tuples of Python ints
        assert s.refreshed == tuple(map(tuple, refreshed))
        assert s.source_iter == tuple(map(tuple, source_iter))
        assert all(type(v) is int for ws in s.refreshed + s.source_iter for v in ws)
        worst = max_observed_staleness(s)
        assert type(worst) is int
        assert worst == max_staleness(s)


@given(st.integers(1, 12), st.integers(0, 12), st.integers(0, 300), st.integers(0, 2**64 - 1))
def test_uniform_single_equals_the_oracle_on_any_shape(workers, tau, iters, seed):
    s = schedule_uniform_single(workers, tau, iters, seed)
    assert arrays(s) == flat(*uniform_single_lists(workers, tau, iters, seed))


@pytest.mark.parametrize("workers", [1, 4])
def test_uniform_single_with_the_largest_tau_is_the_plain_draws(workers):
    # no step can be forced, and nothing is sized by tau: the schedule is the draws themselves
    s = schedule_uniform_single(workers, 2**63 - 1, 10, seed=3)
    draws = SplitMix64(3).u64_array(10) % np.uint64(workers)
    assert arrays(s) == (list(range(11)), draws.tolist(), list(range(10)))
    assert s.tau == 2**63 - 1


def test_uniform_single_peaks_near_the_bytes_it_keeps():
    # the generator's peak is its arrays plus the checks' temporaries; a per-step array the
    # checks no longer need, held while the staleness table is built, lifts it to ~2.47x
    tracemalloc.start()
    try:
        s = schedule_uniform_single(4, 4, 10**5, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for a in (s.offsets, s.workers, s.sources, s.staleness))
    assert peak <= 2.4 * kept, peak / kept


@given(st.integers(1, 5), st.integers(0, 4), st.integers(0, 60), st.integers(0, 2**32))
def test_max_staleness_of_hand_built_schedules_equals_the_numpy_form(workers, tau, iters, seed):
    # random workers reading random past iterates: transit delay and tau violations; workers
    # are drawn with replacement, so one may refresh twice in a step, which is refused
    rng = np.random.default_rng(seed)
    refreshed, sources = [], []
    for k in range(iters):
        ws = rng.choice(workers, size=rng.integers(0, workers + 1), replace=True).tolist()
        refreshed.append(ws)
        sources.append([int(rng.integers(max(0, k - tau - 1), k + 1)) for _ in ws])
    try:
        validate_schedule_lists(workers, tau, refreshed, sources)
    except ScheduleError as exc:
        with pytest.raises(ScheduleError, match=str(exc)):
            DelaySchedule(workers, tau, *flat(refreshed, sources))
    else:
        s = DelaySchedule(workers, tau, *flat(refreshed, sources))
        assert max_observed_staleness(s) == max_staleness(s)
