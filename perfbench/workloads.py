"""The benchmark's workloads, driven only through ipiag's public entry points.

Each workload has a ``setup`` (inputs made from the workload seed: problem,
certificates, schedules), a ``sweep`` (the user-visible unit of work: 40
runs, each timed on its own, plus the capped reference solve on
lasso_large), an ``expected`` table of exact counts derived from the
schedules, and an ``oracle`` check that replays a subset of runs through
``oracle.replay``.

Library functions are called through this module's globals so that the
tracer can wrap them here, where the benchmark calls them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import xml.etree.ElementTree as ET

import numpy as np

import hostclock
import oracle
from ipiag import (
    LassoSpec,
    RateInputs,
    SolverParams,
    ToySpec,
    certificate_for,
    lasso_arrays,
    load_problem,
    make_lasso,
    make_toy,
    max_observed_staleness,
    reference_solution,
    run,
    schedule_synchronous,
    schedule_uniform_single,
    spectral_norm_sq,
    toy_document,
    verify_linear_bound,
)
from ipiag.cli import main as cli_main

# Scratch space inside the checkout; git ignores it.
WORK_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        ".perfbench", "work")

# Counts cross-checked between the tracer and the schedules.
COUNT_KEYS = (
    "solver.runs",
    "solver.iters",
    "prox.calls",
    "core.objective_calls",
    "problems.block_grad_calls",
    "problems.component_grads",
    "schedules.refreshes",
)


class Sweep:
    """Timed jobs of one sweep and the checks made on their outputs.

    ``wall`` and ``latencies`` are in seconds at the reference host speed
    (see ``hostclock``); ``raw_wall`` is the plain wall time.  Only the
    timed intervals count, so the benchmark's own checks never count as
    program time.
    """

    def __init__(self, clock, keep_for_oracle: bool):
        self.clock = clock
        self.keep_for_oracle = keep_for_oracle
        self.kept: dict = {}
        self.wall = 0.0
        self.raw_wall = 0.0
        self.latencies: list = []
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def time(self, label: str, fn, is_run: bool = True):
        """Call ``fn`` inside the timed interval; an exception fails the job."""
        self.attempted += 1
        self.clock.start()
        try:
            out = fn()
        except Exception as exc:  # a failed run is counted, not fatal
            self._add(*self.clock.stop(), is_run=False)
            self.failed += 1
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        self._add(*self.clock.stop(), is_run=is_run)
        return out

    def _add(self, raw: float, scaled: float, is_run: bool) -> None:
        self.raw_wall += raw
        self.wall += scaled
        if is_run:
            self.latencies.append(scaled)

    def check(self, label: str, problems: list) -> None:
        self.failed += bool(problems)
        self.failures.extend(f"{label}: {p}" for p in problems)


def _validated_schedule(workers: int, tau: int, iters: int, seed: int):
    schedule = schedule_uniform_single(workers, tau, iters, seed)
    max_observed_staleness(schedule)
    return schedule


def _replay_counts(schedule, iters: int, num_components: int) -> dict:
    """Exact work of one run() replaying ``schedule`` for ``iters`` steps."""
    sizes = [len(b) for b in np.array_split(np.arange(num_components), schedule.num_workers)]
    refreshed = [w for k in range(iters) for w in schedule.refreshed[k]]
    return {
        "solver.runs": 1,
        "solver.iters": iters,
        "prox.calls": iters,
        "core.objective_calls": iters + 1,
        "problems.block_grad_calls": schedule.num_workers + len(refreshed),
        "problems.component_grads": num_components + sum(sizes[w] for w in refreshed),
    }


def _add(total: dict, part: dict) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def _refresh_entries(schedule) -> int:
    return sum(len(ws) for ws in schedule.refreshed)


def _check_trace(trace, iters: int) -> list:
    problems = []
    if trace.records != iters + 1:
        problems.append(f"{trace.records} records, expected {iters + 1}")
    if not (np.isfinite(trace.phi).all() and np.isfinite(trace.dist2).all()):
        problems.append("non-finite objective or dist2")
    return problems


class ToySweep:
    """Criterion-2 shape: four inertia variants x 10 schedule seeds on toy100."""

    name = "toy_sweep"
    calibration = staticmethod(hostclock.small_arrays)
    N, WORKERS, TAU, C1, ITERS, SEEDS = 100, 4, 4, 0.49, 1000, 10

    def setup(self, seed: int, wrap) -> dict:
        problem = wrap(make_toy(ToySpec(num_components=self.N)))
        L, beta = problem.total_lipschitz, problem.growth_constant
        alpha = certificate_for("t1", RateInputs(L, beta, self.TAU, self.C1)).alpha
        certs = {
            "plain": certificate_for("t1", RateInputs(L, beta, self.TAU, 0.0), alpha=alpha, eta2=0.0),
            "pre": certificate_for("cor1", RateInputs(L, beta, self.TAU, self.C1), alpha=alpha),
            "post": certificate_for("cor2", RateInputs(L, beta, self.TAU, 0.0), alpha=alpha),
            "both": certificate_for("t1", RateInputs(L, beta, self.TAU, self.C1), alpha=alpha),
        }
        schedules = [
            (s, _validated_schedule(self.WORKERS, self.TAU, self.ITERS, s))
            for s in range(100 * seed, 100 * seed + self.SEEDS)
        ]
        return {"problem": problem, "certs": certs, "schedules": schedules}

    def sweep(self, ctx: dict, sw: Sweep) -> None:
        problem, x0 = ctx["problem"], np.zeros(self.N)
        for s, schedule in ctx["schedules"]:
            for variant, cert in ctx["certs"].items():
                params = SolverParams(
                    alpha=cert.alpha, eta1=cert.eta1, eta2=cert.eta2, max_iters=self.ITERS
                )

                def job():
                    trace = run(problem, params, schedule, x0, store_iterates=False)
                    return trace, verify_linear_bound(trace, cert)

                label = f"{variant}/seed{s}"
                out = sw.time(label, job)
                if out is None:
                    continue
                trace, report = out
                problems = _check_trace(trace, self.ITERS)
                if not (cert.admissible and report.ok):
                    problems.append(f"certificate envelope failed (admissible={cert.admissible})")
                sw.check(label, problems)
                if sw.keep_for_oracle and s == ctx["schedules"][0][0]:
                    x_ref = problem.known_optimum[0]
                    sw.kept[label] = (params, schedule, x_ref, trace.dist2, trace.z_final)

    def expected(self, ctx: dict) -> dict:
        total = {"schedules.refreshes": 0}
        for _, schedule in ctx["schedules"]:
            total["schedules.refreshes"] += _refresh_entries(schedule)
            for _ in ctx["certs"]:
                _add(total, _replay_counts(schedule, self.ITERS, self.N))
        return total

    def oracle(self, ctx: dict, kept: dict) -> tuple:
        return _oracle_runs(ctx["problem"], kept, self.ITERS)


def _oracle_runs(problem, kept: dict, iters: int) -> tuple:
    """(runs replayed, runs failed, failure messages, all bits identical)."""
    failed, failures, identical = 0, [], True
    for label, (params, schedule, x_ref, dist2, z_final) in kept.items():
        want_dist2, want_z = oracle.replay(
            problem, params.alpha, params.eta1, params.eta2, schedule, iters, x_ref
        )
        bad, same = oracle.compare(label, dist2, z_final, want_dist2, want_z)
        failed += bool(bad)
        failures += bad
        identical = identical and same
    return len(kept), failed, failures, identical


class LassoLarge:
    """Planted lasso 300 x 1000 (seed 7): capped reference, then 2 variants x 20 seeds.

    The instance is fixed so that the step size below is known to stay under
    the divergence guard; the workload seed picks the delay schedules.
    """

    name = "lasso_large"
    # dense products drift apart from interpreter work on this host
    calibration = staticmethod(hostclock.dense_gemv)
    SPEC = LassoSpec(rows=300, cols=1000, sparsity=0.1, l1_weight=0.2, seed=7)
    WORKERS, TAU, ETA, ITERS, SEEDS = 3, 4, 0.25, 400, 20
    # alpha = STEP / ||A||^2.  The lasso figure script's alpha = 1e-3 raises
    # DivergenceError on this instance; 0.3 / ||A||^2 decreases the objective.
    STEP = 0.3
    REF_ITERS = 1000  # tol = 0, so the reference always runs exactly this many

    def setup(self, seed: int, wrap) -> dict:
        problem = wrap(make_lasso(self.SPEC))
        a, _, _ = lasso_arrays(self.SPEC)
        norm2 = spectral_norm_sq(a)
        schedules = [
            (s, _validated_schedule(self.WORKERS, self.TAU, self.ITERS, s))
            for s in range(100 * seed, 100 * seed + self.SEEDS)
        ]
        return {"problem": problem, "norm2": norm2, "schedules": schedules}

    def sweep(self, ctx: dict, sw: Sweep) -> None:
        problem, norm2 = ctx["problem"], ctx["norm2"]
        ref = sw.time(
            "reference",
            lambda: reference_solution(problem, 1.0 / norm2, max_iters=self.REF_ITERS, tol=0.0),
            is_run=False,
        )
        if ref is None:
            return
        x_ref, phi_ref = ref
        if not (np.isfinite(x_ref).all() and math.isfinite(phi_ref)):
            sw.check("reference", ["non-finite reference solution"])
            return
        variants = {
            "plain": SolverParams(alpha=self.STEP / norm2, max_iters=self.ITERS),
            "double": SolverParams(
                alpha=self.STEP / norm2, eta1=self.ETA, eta2=self.ETA, max_iters=self.ITERS
            ),
        }
        x0 = np.zeros(problem.dimension)
        for s, schedule in ctx["schedules"]:
            for variant, params in variants.items():
                label = f"{variant}/seed{s}"
                trace = sw.time(
                    label,
                    lambda: run(
                        problem, params, schedule, x0,
                        x_ref=x_ref, phi_star=phi_ref, store_iterates=False,
                    ),
                )
                if trace is None:
                    continue
                problems = _check_trace(trace, self.ITERS)
                if not trace.phi[-1] < trace.phi[0]:
                    problems.append("objective did not decrease")
                sw.check(label, problems)
                if sw.keep_for_oracle and s == ctx["schedules"][0][0]:
                    sw.kept[label] = (params, schedule, x_ref, trace.dist2, trace.z_final)

    def expected(self, ctx: dict) -> dict:
        n = self.SPEC.rows
        reference = schedule_synchronous(1, self.REF_ITERS)
        total = _replay_counts(reference, self.REF_ITERS, n)
        total["schedules.refreshes"] = _refresh_entries(reference)
        for _, schedule in ctx["schedules"]:
            total["schedules.refreshes"] += _refresh_entries(schedule)
            for _ in range(2):
                _add(total, _replay_counts(schedule, self.ITERS, n))
        return total

    def oracle(self, ctx: dict, kept: dict) -> tuple:
        return _oracle_runs(ctx["problem"], kept, self.ITERS)


class CliRun:
    """``ipiag run --plot`` on a toy1000 document: 4 variants x 10 seeds."""

    name = "cli_run"
    calibration = staticmethod(hostclock.small_arrays)
    N, WORKERS, TAU, ITERS, SEEDS = 1000, 4, 4, 1000, 10
    VARIANTS = ("piag", "piag-m", "piag-nel", "ipiag")

    workdir = os.path.join(WORK_DIR, name)

    def setup(self, seed: int, wrap) -> dict:
        """Write the problem document and load it back, as the CLI will."""
        os.makedirs(self.workdir, exist_ok=True)
        path = os.path.join(self.workdir, "toy1000.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(toy_document(ToySpec(num_components=self.N)), fh)
        return {"document": path, "problem": load_problem(path),
                "seeds": list(range(100 * seed, 100 * seed + self.SEEDS))}

    def sweep(self, ctx: dict, sw: Sweep) -> None:
        outs = []
        for s in ctx["seeds"]:
            for variant in self.VARIANTS:
                label = f"{variant}/seed{s}"
                out = os.path.join(self.workdir, f"{variant}-{s}")
                argv = [
                    "run", "--problem", ctx["document"], "--variant", variant,
                    "--tau", str(self.TAU), "--workers", str(self.WORKERS),
                    "--seed", str(s), "--iters", str(self.ITERS), "--out", out, "--plot",
                ]

                def job():
                    with contextlib.redirect_stdout(io.StringIO()):
                        return cli_main(argv)

                code = sw.time(label, job)
                if code is not None:
                    outs.append((label, s, code, out))
        for label, s, code, out in outs:
            sw.check(label, self._check_outputs(code, out))
            if sw.keep_for_oracle and s == ctx["seeds"][0]:
                sw.kept[label] = self._oracle_inputs(ctx["document"], s, out)
            shutil.rmtree(out, ignore_errors=True)

    def _check_outputs(self, code: int, out: str) -> list:
        if code != 0:
            return [f"exit code {code}"]
        problems = []
        try:
            with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
                summary = json.load(fh)
            with open(os.path.join(out, "trace.csv"), encoding="utf-8") as fh:
                rows = sum(1 for _ in fh) - 1
            svg = ET.parse(os.path.join(out, "plot.svg")).getroot()
        except (OSError, ValueError, ET.ParseError) as exc:
            return [f"unreadable output: {exc}"]
        if summary.get("status") != "ok" or summary.get("iters_executed") != self.ITERS:
            problems.append(f"summary status {summary.get('status')}, iters {summary.get('iters_executed')}")
        if set(summary.get("bound_checks", {}).values()) != {"pass"}:
            problems.append(f"bound checks {summary.get('bound_checks')}")
        if rows != self.ITERS + 1:
            problems.append(f"trace.csv has {rows} records")
        if len(svg.findall("{http://www.w3.org/2000/svg}polyline")) != 2:
            problems.append("plot.svg lacks the run and envelope curves")
        return problems

    def _oracle_inputs(self, document: str, seed: int, out: str):
        with open(document, encoding="utf-8") as fh:
            x_ref = np.asarray(json.load(fh)["known_optimum"]["x"], dtype=float)
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        dist2 = np.loadtxt(os.path.join(out, "trace.csv"), delimiter=",", skiprows=1, usecols=2)
        params = SolverParams(
            alpha=summary["alpha"], eta1=summary["eta1"], eta2=summary["eta2"], max_iters=self.ITERS
        )
        schedule = schedule_uniform_single(self.WORKERS, self.TAU, self.ITERS, seed)
        return params, schedule, x_ref, dist2, None

    def expected(self, ctx: dict) -> dict:
        total = {"schedules.refreshes": 0}
        for s in ctx["seeds"]:
            schedule = schedule_uniform_single(self.WORKERS, self.TAU, self.ITERS, s)
            for _ in self.VARIANTS:
                total["schedules.refreshes"] += _refresh_entries(schedule)
                _add(total, _replay_counts(schedule, self.ITERS, self.N))
        return total

    def oracle(self, ctx: dict, kept: dict) -> tuple:
        return _oracle_runs(ctx["problem"], kept, self.ITERS)


WORKLOADS = {w.name: w for w in (ToySweep, LassoLarge, CliRun)}
