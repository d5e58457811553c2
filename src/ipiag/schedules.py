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
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .rng import SplitMix64


class ScheduleError(ValueError):
    """Malformed schedule or violated staleness bound."""


@dataclass
class DelaySchedule:
    """Per-iteration refresh sets with declared staleness bound."""

    num_workers: int
    tau: int
    refreshed: list
    source_iter: list

    def __post_init__(self):
        if self.num_workers < 1:
            raise ScheduleError("need at least one worker")
        if self.tau < 0:
            raise ScheduleError("tau must be nonnegative")
        if len(self.refreshed) != len(self.source_iter):
            raise ScheduleError("refreshed and source_iter must align")
        for k, (ws, ss) in enumerate(zip(self.refreshed, self.source_iter)):
            if len(ws) != len(ss):
                raise ScheduleError(f"iteration {k}: refresh lists must align")
            for w, s in zip(ws, ss):
                if not 0 <= w < self.num_workers:
                    raise ScheduleError(f"iteration {k}: worker id {w} out of range")
                if not 0 <= s <= k:
                    raise ScheduleError(f"iteration {k}: source {s} out of range")

    @property
    def iterations(self) -> int:
        return len(self.refreshed)

    def to_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for k in range(self.iterations):
                fh.write(
                    json.dumps(
                        {
                            "k": k,
                            "refreshed": list(map(int, self.refreshed[k])),
                            "source_iter": list(map(int, self.source_iter[k])),
                        }
                    )
                    + "\n"
                )

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
                refreshed.append([int(w) for w in rec["refreshed"]])
                sources.append([int(s) for s in rec["source_iter"]])
        return cls(num_workers=num_workers, tau=tau, refreshed=refreshed, source_iter=sources)


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
    refreshed, source_iter = [], []
    for k in range(iters):
        chosen = [w for w, s in enumerate(sources) if k - s > tau] or [picks[k]]
        for w in chosen:
            sources[w] = k
        refreshed.append(chosen)
        source_iter.append([k] * len(chosen))
    return DelaySchedule(
        num_workers=num_workers, tau=tau, refreshed=refreshed, source_iter=source_iter
    )


def staleness_table(schedule: DelaySchedule, iters: int) -> np.ndarray:
    """``(iters, num_workers)`` int64 staleness of every gradient-table entry.

    Row k holds k minus each entry's source iterate after the refreshes of
    step k (source 0 until the first refresh; of two refreshes of a worker
    in one step the last wins), so aging between refreshes counts too.
    Raises ScheduleError if the declared ``tau`` is ever exceeded; bounds
    are enforced, never clamped.
    """
    steps = np.repeat(np.arange(iters), [len(ws) for ws in schedule.refreshed[:iters]])
    workers, sources = (
        np.fromiter(chain.from_iterable(lists[:iters]), np.int64, len(steps))
        for lists in (schedule.refreshed, schedule.source_iter)
    )
    # a trailing 0 is the source of entries never refreshed (position -1 below)
    sources = np.append(sources, 0)
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
