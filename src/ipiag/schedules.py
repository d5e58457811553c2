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
  (source_iter == k); hand-built schedules may use older sources to model
  transit delay, as long as staleness stays within ``tau``.

Wire format: one JSON object per line, ``{"k": k, "refreshed": [...],
"source_iter": [...]}``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .rng import SplitMix64


class ScheduleError(ValueError):
    """Malformed schedule or violated staleness bound."""


@dataclass(frozen=True)
class DelaySchedule:
    """Per-iteration refresh sets with declared staleness bound.

    Construction validates the lists once and keeps them flattened as
    read-only int64 arrays: the refreshes of iteration k are entries
    ``offsets[k]:offsets[k + 1]`` of ``workers`` and ``sources``.  The
    schedule is frozen; ``run``, ``staleness_table`` and ``to_jsonl`` read
    only those arrays, so an edit to ``refreshed`` or ``source_iter`` after
    construction is never seen.
    """

    num_workers: int
    tau: int
    refreshed: list
    source_iter: list
    offsets: np.ndarray = field(init=False, repr=False, compare=False)
    workers: np.ndarray = field(init=False, repr=False, compare=False)
    sources: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.num_workers < 1:
            raise ScheduleError("need at least one worker")
        if self.tau < 0:
            raise ScheduleError("tau must be nonnegative")
        K = len(self.refreshed)
        if len(self.source_iter) != K:
            raise ScheduleError("refreshed and source_iter must align")
        counts = np.fromiter(map(len, self.refreshed), np.int64, K)
        offsets = np.zeros(K + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        # every entry must be an integer before any is checked to be in range
        workers = _flatten(self.refreshed)
        sources = _flatten(self.source_iter)
        # up to the first iteration whose two lists differ in length, entries pair up
        misaligned = np.flatnonzero(counts != np.fromiter(map(len, self.source_iter), np.int64, K))
        end = offsets[misaligned[0]] if misaligned.size else len(workers)
        steps = np.repeat(np.arange(K), counts)[:end]
        bad_worker = (workers[:end] < 0) | (workers[:end] >= self.num_workers)
        bad = np.flatnonzero(bad_worker | (sources[:end] < 0) | (sources[:end] > steps))
        # the first offending entry in iteration order decides the message
        if bad.size:
            i = bad[0]
            if bad_worker[i]:
                raise ScheduleError(f"iteration {steps[i]}: worker id {workers[i]} out of range")
            raise ScheduleError(f"iteration {steps[i]}: source {sources[i]} out of range")
        if misaligned.size:
            raise ScheduleError(f"iteration {misaligned[0]}: refresh lists must align")
        for name, array in (("offsets", offsets), ("workers", workers), ("sources", sources)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

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
        refreshed, sources = [], []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                if rec["k"] != len(refreshed):
                    raise ScheduleError("iteration records out of order")
                # as parsed: the constructor rejects 1.5 rather than truncating it to 1
                refreshed.append(rec["refreshed"])
                sources.append(rec["source_iter"])
        return cls(num_workers=num_workers, tau=tau, refreshed=refreshed, source_iter=sources)


def _flatten(lists: list) -> np.ndarray:
    """int64 array of the concatenated per-iteration lists.

    Raises ScheduleError unless every entry is a Python or numpy integer that
    fits in int64; ``np.fromiter`` alone would truncate ``1.9`` to 1, and the
    round trip alone would pass ``2.0`` and ``True``.
    """
    flat = list(chain.from_iterable(lists))
    integral = all(
        issubclass(kind, (int, np.integer)) and kind is not bool for kind in set(map(type, flat))
    )
    try:
        array = np.fromiter(flat, np.int64, len(flat))
    except (OverflowError, TypeError, ValueError):
        array = None
    if not integral or array is None or array.tolist() != flat:
        raise ScheduleError("worker ids and sources must be 64-bit integers")
    return array


def schedule_synchronous(num_workers: int, iters: int) -> DelaySchedule:
    """Every worker refreshes at every iteration; staleness is always 0."""
    if iters < 0:
        raise ScheduleError("iters must be nonnegative")
    all_workers = list(range(num_workers))
    return DelaySchedule(
        num_workers=num_workers,
        tau=0,
        refreshed=[list(all_workers) for _ in range(iters)],
        source_iter=[[k] * num_workers for k in range(iters)],
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
    if iters < 0:
        raise ScheduleError("iters must be nonnegative")
    if num_workers < 1:
        raise ScheduleError("need at least one worker")
    if tau < 0:
        raise ScheduleError("tau must be nonnegative")
    rng = SplitMix64(seed)
    picks = (rng.u64_array(iters) % np.uint64(num_workers)).astype(int).tolist() if iters else []
    sources = [0] * num_workers
    oldest = 0  # min(sources), kept exact
    refreshed = []
    for k in range(iters):
        if k - oldest > tau:
            # every block is at most tau + 1 old here, so the blocks at the cap are exactly
            # those last refreshed at oldest == k - tau - 1; mostly there is one, and
            # count/index find it without a Python-level scan of the W sources
            if sources.count(oldest) == 1:
                chosen = [sources.index(oldest)]
            else:
                chosen = [w for w, s in enumerate(sources) if s == oldest]
            for w in chosen:
                sources[w] = k
            oldest = min(sources)
        else:
            w = picks[k]
            chosen = [w]
            last = sources[w]
            sources[w] = k
            if last == oldest:
                oldest = min(sources)
        refreshed.append(chosen)
    return DelaySchedule(
        num_workers=num_workers,
        tau=tau,
        refreshed=refreshed,
        source_iter=[[k] * len(ws) for k, ws in enumerate(refreshed)],
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
