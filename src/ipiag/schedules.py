"""Delay schedules modeling a master/worker parameter server.

A schedule lists, for each master iteration k, which workers hand in a fresh
block gradient and which stored iterate each refresh was evaluated at.  The
solver replays the schedule deterministically, which makes asynchronous runs
exactly reproducible; a schedule checks when it is built that the staleness
of every table entry stays within the declared bound ``tau``, and keeps it.

Conventions
-----------
* Worker ids are 0-based.
* The gradient table starts with every block evaluated at x_0 (source 0),
  so initial staleness is 0.
* Generators emit refreshes that read the master's current iterate
  (sources == k); hand-built schedules may use older sources to model
  transit delay, as long as staleness stays within ``tau``.

Wire format: one JSON object per line, ``{"k": k, "refreshed": [...],
"source_iter": [...]}``; ``inputs.RECORD`` declares its fields.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .inputs import RECORD, is_integer, read
from .rng import SplitMix64


class ScheduleError(ValueError):
    """Malformed schedule or violated staleness bound."""


@dataclass(frozen=True, eq=False)
class DelaySchedule:
    """Per-iteration refresh sets with declared staleness bound.

    The schedule is three int64 arrays: the refreshes of iteration k are
    entries ``offsets[k]:offsets[k + 1]`` of ``workers`` (the worker ids) and
    ``sources`` (the iterate each refresh reads).  Construction checks them
    once, refusing the first entry out of range, then the first iteration
    that refreshes a worker twice, then a staleness above ``tau``, and keeps
    read-only copies; the schedule is frozen.  The generators and
    ``from_jsonl`` build the arrays and call this, the only constructor.
    ``staleness`` is the int64 table in ``Trace`` layout: row k + 1 holds k
    minus each entry's source (0 until its first refresh) after step k.
    """

    num_workers: int
    tau: int
    offsets: np.ndarray = field(repr=False)
    workers: np.ndarray = field(repr=False)
    sources: np.ndarray = field(repr=False)
    staleness: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_sizes(self.num_workers, self.tau)
        offsets, workers, sources = map(_int64_copy, (self.offsets, self.workers, self.sources))
        if not (
            offsets.ndim == workers.ndim == sources.ndim == 1
            and len(offsets)
            and offsets[0] == 0
            and offsets[-1] == len(workers) == len(sources)
            and (offsets[1:] >= offsets[:-1]).all()
        ):
            raise ScheduleError("offsets must rise from 0 to the length of workers and sources")
        steps = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
        bad_worker = (workers < 0) | (workers >= self.num_workers)
        bad = np.flatnonzero(bad_worker | (sources < 0) | (sources > steps))
        # the first offending entry in iteration order decides the message
        if bad.size:
            i = bad[0]
            if bad_worker[i]:
                raise ScheduleError(f"iteration {steps[i]}: worker id {workers[i]} out of range")
            raise ScheduleError(f"iteration {steps[i]}: source {sources[i]} out of range")
        # the flat position of each entry's latest refresh, filled down the table in place
        table = np.full((len(offsets), self.num_workers), -1, dtype=np.int64)
        position = np.arange(len(steps))
        table[steps + 1, workers] = position
        lost = np.flatnonzero(table[steps + 1, workers] != position)  # a repeated (step, worker)
        if lost.size:
            k, seen = steps[lost[0]], set()
            ws = workers[offsets[k]:offsets[k + 1]].tolist()
            w = next(w for w in ws if w in seen or seen.add(w))  # the first one seen again
            raise ScheduleError(f"iteration {k}: worker {w} refreshes twice")
        np.maximum.accumulate(table, axis=0, out=table)
        # position -1 (never refreshed, and all of row 0) wraps to the appended source 0; a
        # "wrap" take is unbuffered, and each cell's position is read before its source is written
        np.take(np.append(sources, 0), table, out=table, mode="wrap")
        np.subtract(np.arange(len(offsets) - 1)[:, None], table[1:], out=table[1:])
        worst = int(table.max(initial=0))
        if worst > self.tau:
            raise ScheduleError(f"observed staleness {worst} exceeds declared tau {self.tau}")
        table.flags.writeable = False
        for name, array in (("offsets", offsets), ("workers", workers), ("sources", sources),
                            ("staleness", table)):
            object.__setattr__(self, name, array)

    @cached_property
    def refreshed(self) -> tuple:
        """Read-only per-iteration worker ids from the arrays, kept for ``perfbench/``."""
        return _per_step(self.offsets, self.workers)

    @cached_property
    def source_iter(self) -> tuple:
        """Read-only per-iteration sources from the arrays, kept for ``perfbench/``."""
        return _per_step(self.offsets, self.sources)

    @property
    def iterations(self) -> int:
        return len(self.offsets) - 1

    def to_jsonl(self, path: str) -> None:
        steps = zip(_per_step(self.offsets, self.workers), _per_step(self.offsets, self.sources))
        with open(path, "w", encoding="utf-8") as fh:
            for k, (ws, ss) in enumerate(steps):
                fh.write(json.dumps({"k": k, "refreshed": ws, "source_iter": ss}) + "\n")

    @classmethod
    def from_jsonl(cls, path: str, num_workers: int, tau: int) -> "DelaySchedule":
        """The schedule of a JSONL file; ``inputs.RECORD`` declares a line's fields.

        Every line is read and typed before any entry is checked to be in range, and a bad
        entry ahead of the first record whose two lists differ in length is reported first.
        """
        counts, workers, sources = [], [], []
        misaligned = None
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                k = len(counts)
                section = f"records[{k}]"
                try:
                    value = json.loads(line)
                except (ValueError, RecursionError) as exc:  # also JSON nested too deep
                    raise ValueError(f"{section} is not JSON: {exc}") from None
                rec = read(value, RECORD, section)
                if rec["k"] != k:
                    raise ScheduleError(f"{section}.k must be {k}, got {rec['k']}")
                if misaligned is None and len(rec["refreshed"]) != len(rec["source_iter"]):
                    misaligned = k
                counts.append(len(rec["refreshed"]))
                workers += rec["refreshed"]
                sources += rec["source_iter"]
        offsets = np.cumsum([0] + counts)
        if misaligned is not None:
            # the records ahead of it are checked first, so their bad entries win
            n = offsets[misaligned]
            cls(num_workers, tau, offsets[: misaligned + 1], workers[:n], sources[:n])
            raise ScheduleError(f"iteration {misaligned}: refresh lists must align")
        return cls(num_workers, tau, offsets, workers, sources)


def _check_sizes(num_workers: int, tau: int, iters: int = 0) -> None:
    for name, value in (("iters", iters), ("num_workers", num_workers), ("tau", tau)):
        if not is_integer(value):
            raise ScheduleError(f"{name} must be an integer, got {value!r}")
    if iters < 0:
        raise ScheduleError("iters must be nonnegative")
    if num_workers < 1:
        raise ScheduleError("need at least one worker")
    if tau < 0:
        raise ScheduleError("tau must be nonnegative")


def _int64_copy(values) -> np.ndarray:
    """Read-only int64 copy of an integer array; a later edit to ``values`` is not seen."""
    array = np.asarray(values)
    if array.size and not (array.dtype.kind in "iu" and np.can_cast(array.dtype, np.int64)):
        raise ScheduleError("worker ids and sources must be 64-bit integers")
    array = array.astype(np.int64)
    array.flags.writeable = False
    return array


def _per_step(offsets: np.ndarray, flat: np.ndarray) -> tuple:
    """Per-iteration tuples of ``flat``, for the views ``refreshed`` and ``source_iter``."""
    bounds, values = offsets.tolist(), flat.tolist()
    return tuple(tuple(values[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))


def schedule_synchronous(num_workers: int, iters: int) -> DelaySchedule:
    """Every worker refreshes at every iteration; staleness is always 0."""
    _check_sizes(num_workers, 0, iters)
    return DelaySchedule(
        num_workers,
        0,
        offsets=np.arange(0, num_workers * (iters + 1), num_workers),
        workers=np.tile(np.arange(num_workers), iters),
        sources=np.repeat(np.arange(iters), num_workers),
    )


def schedule_uniform_single(
    num_workers: int, tau: int, iters: int, seed: int
) -> DelaySchedule:
    """One uniformly chosen worker refreshes per iteration, delays capped.

    One PRNG draw is consumed per iteration.  Step k refreshes the drawn
    worker unless a block would pass ``tau`` stale.  After step k - 1 every
    source is at least k - 1 - tau, so such blocks are exactly the ones
    refreshed at step k - tau - 1 and not since; step k refreshes them
    instead, in ascending worker order.  Several are forced at once only
    when they share a source: every block starts at x_0, and a group forced
    together is forced together again unless draws split it.  Only the
    groups of the last tau + 1 steps are kept.  With a single worker this
    degenerates to the synchronous schedule.
    """
    _check_sizes(num_workers, tau, iters)
    rng = SplitMix64(seed)
    picks = (rng.u64_array(iters) % np.uint64(num_workers)).astype(int).tolist() if iters else []
    workers, crowded = picks, []  # crowded: (k, n) for the steps that refresh n > 1 blocks
    if tau + 1 < iters:  # otherwise no step can be forced
        workers = picks[: tau + 1]
        sources = [0] * num_workers
        for k, w in enumerate(workers):
            sources[w] = k
        # groups[0] is the group of step j = k - tau - 1: a worker id, or a tuple of them when
        # a step refreshes several; step 0's group is every block, as all start at source 0
        groups = deque(workers, maxlen=len(workers))  # tau + 1 steps
        groups[0] = tuple(range(num_workers))
        for j, k in enumerate(range(tau + 1, iters)):
            g = groups[0]
            if type(g) is int:
                w = g if sources[g] == j else picks[k]
            else:
                due = [w for w in g if sources[w] == j]
                if len(due) > 1:
                    crowded.append((k, len(due)))
                    for w in due:
                        sources[w] = k
                    workers += due
                    groups.append(tuple(due))
                    continue
                w = due[0] if due else picks[k]
            sources[w] = k
            workers.append(w)
            groups.append(w)
        del picks  # spent: the arrays below are built without the draws
    counts = np.ones(iters, dtype=np.int64)
    for k, n in crowded:
        counts[k] = n
    offsets = np.zeros(iters + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return DelaySchedule(
        num_workers,
        tau,
        offsets=offsets,
        workers=np.array(workers, dtype=np.int64),
        sources=np.repeat(np.arange(iters), counts),
    )


def max_observed_staleness(schedule: DelaySchedule) -> int:
    """Largest entry of the schedule's ``staleness`` table."""
    return int(schedule.staleness.max(initial=0))
