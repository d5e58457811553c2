"""In-memory span tracer that wraps ipiag callables from outside the package.

Nothing under ``src/`` is instrumented.  Spans are recorded at layer
boundaries by replacing callables where their callers look them up:

* the problem's ``block_gradient``, ``prox``, ``smooth_value`` and
  ``regularizer_value`` through ``dataclasses.replace``;
* module-level functions in the modules that call them (``ipiag.cli.run``,
  ``ipiag.problems.run``, ``ipiag.problems.lasso_arrays``, ...), the
  ``Trace.to_csv`` method and ``ipiag.plotting.log_line_plot``;
* the aliases the benchmark's own workload module calls through.

Each span keeps its name, start, end and the span that caused it.  Spans
stay in memory until ``write_csv``.
"""

from __future__ import annotations

import dataclasses
import time
from array import array
from collections import Counter

import numpy as np

import ipiag.cli
import ipiag.plotting
import ipiag.problems
import ipiag.solver

# Span names, grouped by the layer (ipiag module) they time.
RUN = "solver.run"
BLOCK_GRAD = "problems.block_grad"
PROX = "prox"
SMOOTH = "core.smooth_value"
REGULARIZER = "core.regularizer_value"
SCHEDULE = "schedules.gen"
INSTANCE = "rng.instance"
REFERENCE = "problems.reference"
CERTIFY = "rates.certify"
VERIFY = "rates.verify"
TO_CSV = "solver.to_csv"
SVG = "plotting.svg"
CLI = "cli.main"


def _iterations(args, trace) -> int:
    return trace.records - 1


class Tracer:
    """Records spans and counters while its patches are installed."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts = Counter()
        self._stack: list = []
        self._saved: list = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, count_key=None, count_fn=None):
        """Wrap ``fn`` so each call records one span and, optionally, a count."""
        nid = self._intern(name)
        stack = self._stack
        counts = self.counts

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0)
            self.end.append(0)
            stack.append(i)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if count_key is not None:
                counts[count_key] += count_fn(args, result)
            return result

        return traced

    def wrap_problem(self, problem):
        """Copy of ``problem`` whose solver-facing callables are traced."""
        return dataclasses.replace(
            problem,
            block_gradient=self.span(
                BLOCK_GRAD,
                problem.block_gradient,
                "problems.component_grads",
                lambda args, result: len(args[0]),
            ),
            prox=self.span(PROX, problem.prox),
            smooth_value=self.span(SMOOTH, problem.smooth_value),
            regularizer_value=self.span(REGULARIZER, problem.regularizer_value),
        )

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_span(self, owner, attr: str, name: str, count_key=None, count_fn=None):
        self._patch(owner, attr, self.span(name, getattr(owner, attr), count_key, count_fn))

    def install(self, workloads) -> None:
        """Patch every layer boundary; ``workloads`` is the benchmark's module."""
        for owner in (workloads, ipiag.cli, ipiag.problems):
            self._patch_span(owner, "run", RUN, "solver.iters", _iterations)
        for owner, attr in (
            (workloads, "schedule_uniform_single"),
            (ipiag.cli, "schedule_uniform_single"),
            (ipiag.problems, "schedule_synchronous"),
        ):
            self._patch_span(
                owner, attr, SCHEDULE, "schedules.refreshes",
                lambda args, schedule: workloads._refresh_entries(schedule),
            )
        self._patch_span(workloads, "max_observed_staleness", SCHEDULE)
        for owner in (workloads, ipiag.problems):
            self._patch_span(owner, "lasso_arrays", INSTANCE)
        for owner in (workloads, ipiag.cli):
            self._patch_span(owner, "certificate_for", CERTIFY)
            self._patch_span(owner, "verify_linear_bound", VERIFY)
        self._patch_span(workloads, "reference_solution", REFERENCE)
        self._patch_span(workloads, "cli_main", CLI)
        self._patch_span(ipiag.solver.Trace, "to_csv", TO_CSV)
        self._patch_span(ipiag.plotting, "log_line_plot", SVG)
        load = ipiag.cli.load_problem
        self._patch(ipiag.cli, "load_problem", lambda path: self.wrap_problem(load(path)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def mark(self) -> int:
        """Index of the next span, to delimit a window for ``summarize``."""
        return len(self.start)

    def summarize(self, lo: int, hi: int) -> dict:
        """Per span name over spans [lo, hi): calls, total and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; children run inside their parent and never overlap.
        """
        ids = np.frombuffer(self.name_id, dtype=np.int64)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi]
        dur = (
            np.frombuffer(self.end, dtype=np.int64)[lo:hi]
            - np.frombuffer(self.start, dtype=np.int64)[lo:hi]
        ).astype(float) * 1e-9
        has_parent = parent >= lo
        child = np.bincount(parent[has_parent] - lo, weights=dur[has_parent], minlength=hi - lo)
        self_time = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = ids == nid
            out[name] = {
                "calls": int(sel.sum()),
                "s": float(dur[sel].sum()),
                "self_s": float(self_time[sel].sum()),
            }
        return out

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.parent[i]},{self.names[self.name_id[i]]},"
                    f"{self.start[i]},{self.end[i]}\n"
                )
