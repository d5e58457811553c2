"""Delay schedules modeling a master/worker parameter server.

A schedule lists, for each master iteration k, which workers hand in a fresh
block gradient and which stored iterate each refresh was evaluated at.  The
solver replays the schedule deterministically, which makes asynchronous runs
exactly reproducible; ``staleness_table`` checks that the staleness of every
table entry stays within the declared bound ``tau``.

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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .inputs import RECORD, read
from .rng import SplitMix64


class ScheduleError(ValueError):
    """Malformed schedule or violated staleness bound."""


@dataclass(frozen=True, eq=False)
class DelaySchedule:
    """Per-iteration refresh sets with declared staleness bound.

    The schedule is three int64 arrays: the refreshes of iteration k are
    entries ``offsets[k]:offsets[k + 1]`` of ``workers`` (the worker ids) and
    ``sources`` (the iterate each refresh reads).  Construction checks them
    once and keeps read-only copies; the schedule is frozen.  This is the
    only constructor: the generators and ``from_jsonl`` build the arrays and
    call it.
    """

    num_workers: int
    tau: int
    offsets: np.ndarray = field(repr=False)
    workers: np.ndarray = field(repr=False)
    sources: np.ndarray = field(repr=False)

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
        for name, array in (("offsets", offsets), ("workers", workers), ("sources", sources)):
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
        bounds = self.offsets.tolist()
        workers, sources = self.workers.tolist(), self.sources.tolist()
        with open(path, "w", encoding="utf-8") as fh:
            for k in range(self.iterations):
                lo, hi = bounds[k], bounds[k + 1]
                record = {"k": k, "refreshed": workers[lo:hi], "source_iter": sources[lo:hi]}
                fh.write(json.dumps(record) + "\n")

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

    One PRNG draw is consumed per iteration.  Whenever a block's staleness
    would exceed ``tau`` this iteration, that block is refreshed instead of
    the drawn one (every such block; several can hit the cap at once after
    an unlucky streak of draws).  With a single worker this degenerates to
    the synchronous schedule.
    """
    _check_sizes(num_workers, tau, iters)
    rng = SplitMix64(seed)
    picks = (rng.u64_array(iters) % np.uint64(num_workers)).astype(int).tolist() if iters else []
    sources = [0] * num_workers
    oldest = 0  # min(sources), kept exact
    workers, crowded = [], []  # crowded: (k, n) for the steps that refresh n > 1 blocks
    for k in range(iters):
        if k - oldest <= tau:
            w = picks[k]
            workers.append(w)
            last = sources[w]
            sources[w] = k
            if last == oldest:
                oldest = min(sources)
            continue
        # every block is at most tau + 1 old here, so the blocks at the cap are exactly those
        # last refreshed at oldest == k - tau - 1; mostly there is one, and count/index find
        # it without a Python-level scan of the W sources
        n = sources.count(oldest)
        if n == 1:
            w = sources.index(oldest)
            workers.append(w)
            sources[w] = k
        else:
            crowded.append((k, n))
            for w, s in enumerate(sources):
                if s == oldest:
                    workers.append(w)
                    sources[w] = k
        oldest = min(sources)
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


def staleness_table(schedule: DelaySchedule, iters: int) -> np.ndarray:
    """``(iters, num_workers)`` int64 staleness of every gradient-table entry.

    Row k holds k minus each entry's source iterate after the refreshes of
    step k (source 0 until the first refresh; of two refreshes of a worker
    in one step the last wins), so aging between refreshes counts too.
    Raises ScheduleError if the declared ``tau`` is ever exceeded; bounds
    are enforced, never clamped.
    """
    n = schedule.offsets[iters]
    steps = np.repeat(np.arange(iters), np.diff(schedule.offsets[: iters + 1]))
    workers = schedule.workers[:n]
    # a trailing 0 is the source of entries never refreshed (position -1 below)
    sources = np.append(schedule.sources[:n], 0)
    # flat position of each entry's latest refresh; later positions win within a step
    last = np.full((iters, schedule.num_workers), -1, dtype=np.int64)
    np.maximum.at(last, (steps, workers), np.arange(len(steps)))
    np.maximum.accumulate(last, axis=0, out=last)
    table = np.arange(iters)[:, None] - sources[last]
    worst = int(table.max(initial=0))
    if worst > schedule.tau:
        raise ScheduleError(f"observed staleness {worst} exceeds declared tau {schedule.tau}")
    return table


def max_observed_staleness(schedule: DelaySchedule) -> int:
    """Largest entry of the schedule's whole ``staleness_table``."""
    return int(staleness_table(schedule, schedule.iterations).max(initial=0))
