"""Command-line harness.

Three subcommands:

``run``      execute one configuration on a problem document, writing
             ``trace.csv``, ``summary.json``, and optionally ``plot.svg``
             (squared distance vs iteration, log scale, with the
             certificate envelope dash-dotted; else the objective; else
             no file and a warning).
``compare``  execute several configurations sharing one problem and emit a
             table with iterations-to-threshold columns, averaged over
             seeded repetitions when the schedule is randomized.
``certify``  print the step-size certificate for given (L, beta, tau, C1)
             without running anything.

``run`` and ``certify`` read each flag through a row (``RUN_FLAGS``,
``ipiag.inputs.CERTIFY``); argparse only splits the text.

Exit codes: 0 success, 2 a refused input or output write (``main`` alone
maps a ValueError or OSError to it), 3 the run diverged (the divergence guard
fired or an iterate became non-finite), 4 a certificate bound check ran and
failed.  Codes 2 and 3 come with one ``error:`` line on stderr.  Floats in
``trace.csv`` and ``compare.csv`` are written with ``%.17g``, which reads back
to the same double.

The ``compare`` spec file is a JSON object that ``ipiag.inputs.SPEC`` and its
block tables declare, shown in README.md.  ``reference`` is solved once with the
synchronous method when the problem carries no known optimum, and shared by all
rows.  Each repetition's schedule is drawn once and every config runs on it
(``sweep``); repetitions collapse to 1 for the deterministic sync schedule.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
import time

import numpy as np

from . import inputs, problems
from .core import CompositeProblem, NumericError
from .problems import load_problem, problem_from_document
from .rates import RateInputs, certificate_for, resolve_parameters, verify_linear_bound
# perfbench/tracing.py patches run and schedule_uniform_single in this module, so cmd_run
# and build_schedule call them through these names
from .schedules import DelaySchedule, schedule_synchronous, schedule_uniform_single
from .solver import FLOAT_FORMAT, SolverParams, iterations_to_threshold, run, sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_BOUND = 4


def _error(message: str) -> None:
    """Print the one ``error:`` line of a failed call; line breaks in quoted input are escaped."""
    print("error: " + "\\n".join(message.splitlines()), file=sys.stderr)


def build_schedule(kind: str, workers: int, tau: int, iters: int, seed: int) -> DelaySchedule:
    if kind == "sync":
        if tau != 0:
            raise ValueError(f"the sync schedule has no staleness; tau must be 0, got {tau}")
        return inputs.sized({"iters": iters}, schedule_synchronous, workers, iters)
    return inputs.sized({"iters": iters}, schedule_uniform_single, workers, tau, iters, seed)


def _load_problem_arg(source, workers: int, field: str) -> CompositeProblem:
    """The problem of a path or inline document, which has at least ``workers`` components."""
    try:
        if isinstance(source, dict):
            problem = problem_from_document(source)
        else:
            problem = load_problem(source)
    except (OSError, ValueError, TypeError, RecursionError) as exc:  # also JSON nested too deep
        raise ValueError(f"cannot load problem: {exc}") from None
    if workers > problem.num_components:
        limit = f"the problem's {problem.num_components} components"
        raise ValueError(f"{field} must not exceed {limit}, got {workers}")
    return problem


def _make_output_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)  # raises OSError, e.g. for a path under a regular file
    if not os.access(path, os.W_OK | os.X_OK):
        raise ValueError(f"cannot write to the output directory {path!r}")


def _flag_value(text: str):
    """A flag's text as the JSON value it spells: an integer, a number, else the text itself."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


# the rows ``run`` reads its flags through, each named by its flag: every CONFIG row but
# label, the SCHEDULE rows (``--schedule`` is ``type``), ITERS and SEED
RUN_FLAGS = inputs.Table("ipiag run", tuple(
    row._replace(name="schedule") if row.name == "type" else row
    for row in inputs.CONFIG.fields[1:] + inputs.SCHEDULE.fields + (inputs.ITERS, inputs.SEED)
))


def _flag_help(row) -> str:
    """A flag's ``--help`` text: its row's types, allowed values or interval, and default."""
    allowed = row.allowed if isinstance(row.allowed, str) else json.dumps(row.allowed)
    default = "required" if row.default is inputs.REQUIRED else f"default {json.dumps(row.default)}"
    return f"{row.types} in {allowed}; {default}"


def _read_flags(args, table: inputs.Table) -> dict:
    """The flags of ``table``'s rows by name, read by ``inputs.read`` as a JSON object is."""
    given = vars(args)
    return inputs.read({row.name: given[row.name] for row in table.fields if row.name in given},
                       table)


def cmd_run(args) -> int:
    t0 = time.perf_counter()
    flags = _read_flags(args, RUN_FLAGS)
    variant, tau, workers = flags["variant"], flags["tau"], flags["workers"]
    problem = _load_problem_arg(args.problem, workers, "workers")
    alpha, eta1, eta2, cert, cert_error = resolve_parameters(problem, flags, tau)
    schedule = build_schedule(flags["schedule"], workers, tau, flags["iters"], flags["seed"])
    params = SolverParams(alpha=alpha, eta1=eta1, eta2=eta2, max_iters=flags["iters"])
    _make_output_dir(args.out)

    if cert_error is not None:
        print(f"warning: uncertified run: {cert_error}", file=sys.stderr)
    trace = divergence = None
    try:
        trace = run(problem, params, schedule, np.zeros(problem.dimension))
    except NumericError as exc:
        divergence = f"diverged: {exc}"  # printed after the writes, which may refuse instead
    status = "ok" if divergence is None else "diverged"
    exit_code = EXIT_OK if divergence is None else EXIT_DIVERGED

    unchecked = "skipped" if cert_error is None else "uncertified"
    verdicts = {"psi": unchecked, "phi_gap": unchecked, "dist2": unchecked}
    report = None
    if trace is not None:
        if cert is not None and trace.phi_star is not None and trace.records >= 2:
            report = verify_linear_bound(trace, cert)
            checked = (("psi", report.psi), ("phi_gap", report.phi), ("dist2", report.dist))
            verdicts = {name: "pass" if verdict.ok else "fail" for name, verdict in checked}
            if not report.ok:
                exit_code = EXIT_BOUND
        trace.to_csv(os.path.join(args.out, "trace.csv"))

    summary = {
        "status": status,
        "variant": variant,
        "alpha": alpha,
        "eta1": eta1,
        "eta2": eta2,
        "schedule": {
            "type": flags["schedule"],
            "tau": tau,
            "workers": workers,
            "seed": flags["seed"],
        },
        "iters_executed": None if trace is None else trace.records - 1,
        "final_phi": None if trace is None else float(trace.phi[-1]),
        "final_phi_gap": None,
        "final_dist2": None,
        "iterations_to_1e-6": None,
        "certificate": None if cert is None else cert.to_json_dict(),
        "certificate_error": cert_error,
        "bound_checks": verdicts,
        "wall_clock_sec": time.perf_counter() - t0,
    }
    if report is not None:
        summary["certificate"]["C"] = report.constant
    if trace is not None:
        if trace.phi_star is not None:
            summary["final_phi_gap"] = float(trace.phi[-1] - trace.phi_star)
        if np.isfinite(trace.dist2[-1]):
            summary["final_dist2"] = float(trace.dist2[-1])
            hit = iterations_to_threshold(trace.dist2, 1e-6)
            summary["iterations_to_1e-6"] = hit
    with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")

    if args.plot and trace is not None:
        _plot_run(args, variant, trace, report)
    if divergence is not None:
        _error(divergence)

    checks = ",".join(f"{k}={v}" for k, v in verdicts.items())
    admits = "none" if cert is None else "admissible" if cert.admissible else "inadmissible"
    print(
        f"{variant}: status={status} iters={summary['iters_executed']} "
        f"final_phi={summary['final_phi']} checks[{checks}] cert={admits} -> {args.out}"
    )
    return exit_code


def _positive(values) -> bool:
    """Whether a log axis can show any of ``values``."""
    return bool(np.any(np.isfinite(values) & (values > 0)))


def _plot_run(args, variant, trace, report) -> None:
    """plot.svg of a run: dist2 and its envelope, else the objective, else a warning."""
    if _positive(trace.dist2):
        curves = [{"label": "dist^2", "x": trace.k, "y": trace.dist2}]
        ylabel = "squared distance"
        if report is not None:
            curves.append(
                {"label": "certificate bound", "x": trace.k, "y": report.dist_envelope,
                 "dashed": True}
            )
    elif _positive(trace.phi):
        curves = [{"label": "objective", "x": trace.k, "y": trace.phi}]
        ylabel = "objective"
    else:
        print("warning: no plot.svg: no squared distance or objective is positive", file=sys.stderr)
        return
    from .plotting import log_line_plot

    log_line_plot(
        os.path.join(args.out, "plot.svg"),
        curves,
        title=f"{variant} on {os.path.basename(str(args.problem))}",
        ylabel=ylabel,
    )


def cmd_compare(args) -> int:
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # also JSON nested too deep
        raise ValueError(f"cannot read spec: {exc}") from None

    spec = inputs.read(spec, inputs.SPEC)
    sched = inputs.read(spec["schedule"], inputs.SCHEDULE, "schedule")
    ref = inputs.read(spec["reference"], inputs.REFERENCE, "reference")
    configs = [
        inputs.read(cfg, inputs.CONFIG, f"configs[{i}]") for i, cfg in enumerate(spec["configs"])
    ]
    if len(configs) < 2:
        raise ValueError(f"configs must list at least two configs, got {len(configs)}")
    kind, tau, workers, iters = sched["type"], sched["tau"], sched["workers"], spec["iters"]
    reps = 1 if kind == "sync" else spec["repetitions"]
    base_seed = spec["base_seed"]
    inputs.check(inputs.SEED, base_seed + reps - 1, "base_seed + repetitions - 1")
    problem = _load_problem_arg(spec["problem"], workers, "schedule.workers")
    # the first is built at once, so a spec whose schedule cannot be built (iters too large
    # for an array) fails before any solve; the other repetitions differ only in the seed
    schedules = itertools.chain(
        [build_schedule(kind, workers, tau, iters, base_seed)],
        (build_schedule(kind, workers, tau, iters, base_seed + r) for r in range(1, reps)),
    )

    resolved = []
    for cfg in configs:
        variant = cfg["variant"]
        alpha, eta1, eta2, cert, cert_error = resolve_parameters(problem, cfg, tau)
        label = variant if cfg["label"] is None else cfg["label"]
        if cert_error is not None:
            print(f"warning: config {label!r} is uncertified: {cert_error}", file=sys.stderr)
        params = SolverParams(alpha=alpha, eta1=eta1, eta2=eta2, max_iters=iters)
        resolved.append((label, variant, params, cert))
    if args.out:
        _make_output_dir(args.out)

    if problem.known_optimum is not None:
        x_ref, phi_star = problem.known_optimum
    else:
        if ref["alpha"] is None:
            raise ValueError("reference.alpha is required: the problem has no known optimum")
        try:
            x_ref, phi_star = inputs.sized(
                {"reference.iters": ref["iters"]}, problems.reference_solution,
                problem, ref["alpha"], max_iters=ref["iters"], tol=ref["tol"],
            )
        except NumericError as exc:
            _error(f"reference solve diverged: {exc}")
            return EXIT_DIVERGED

    # per config, one (first hit of 1e-4, first hit of 1e-6, final gap) per repetition
    results = [[] for _ in resolved]
    try:
        for traces in sweep(problem, [params for _, _, params, _ in resolved], schedules,
                            x_ref, phi_star):
            for per_config, trace in zip(results, traces):
                per_config.append((
                    iterations_to_threshold(trace.dist2, 1e-4),
                    iterations_to_threshold(trace.dist2, 1e-6),
                    float(trace.phi[-1] - phi_star),
                ))
    except NumericError as exc:
        _error(f"config {resolved[exc.config][0]!r} diverged: {exc}")
        return EXIT_DIVERGED

    buffer = io.StringIO()
    table = csv.writer(buffer, lineterminator="\n")  # quotes only the cells that need it
    table.writerow(["label", "variant", "alpha", "eta1", "eta2", "rho", "iters_to_1e-4",
                    "iters_to_1e-6", "final_gap"])
    for (label, variant, params, cert), per_config in zip(resolved, results):
        hits4, hits6, gaps = zip(*per_config)
        row = [
            params.alpha,
            params.eta1,
            params.eta2,
            None if cert is None else cert.rho,
            # a mean hit only when every repetition reached the threshold
            None if None in hits4 else float(np.mean(hits4)),
            None if None in hits6 else float(np.mean(hits6)),
            float(np.mean(gaps)),
        ]
        table.writerow([label, variant] + [None if v is None else FLOAT_FORMAT % v for v in row])
    if args.out:
        with open(os.path.join(args.out, "compare.csv"), "w", encoding="utf-8") as fh:
            fh.write(buffer.getvalue())
    sys.stdout.write(buffer.getvalue())
    return EXIT_OK


def cmd_certify(args) -> int:
    flags = _read_flags(args, inputs.CERTIFY)
    variant = flags["variant"]
    constants = RateInputs(flags["L"], flags["beta"], flags["tau"], flags["c1"])
    doc = certificate_for(variant, constants).to_json_dict()
    # the doubly inertial certificate has two thresholds, the others one
    stated, tight = ("t1", "t1tight") if variant in ("t1", "t1tight") else (variant, variant)
    doc["alpha0_stated"] = certificate_for(stated, constants).alpha_max
    doc["alpha0_tight"] = certificate_for(tight, constants).alpha_max
    for field, value in doc.items():
        if isinstance(value, float) and not np.isfinite(value):
            raise ValueError(f"certificate field {field} is not finite, got {value}")
    sys.stdout.write(json.dumps(doc, indent=2, allow_nan=False) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipiag",
        description="Inertial aggregated proximal-gradient runs, comparisons, and certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # no defaults here: _read_flags gives an absent flag the default of its row
    p_run = sub.add_parser(
        "run", help="run one configuration and write artifacts", argument_default=argparse.SUPPRESS
    )
    p_run.add_argument("--problem", required=True, help="problem document (JSON file)")
    _add_flags(p_run, RUN_FLAGS)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--plot", action="store_true", default=False, help="also write plot.svg")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run several configs and tabulate")
    p_cmp.add_argument("--spec", required=True, help="comparison spec (JSON file)")
    p_cmp.add_argument("--out", default=None, help="directory for compare.csv")
    p_cmp.set_defaults(func=cmd_compare)

    p_cert = sub.add_parser(
        "certify", help="print a step-size certificate", argument_default=argparse.SUPPRESS
    )
    _add_flags(p_cert, inputs.CERTIFY)
    p_cert.set_defaults(func=cmd_certify)
    return parser


def _add_flags(parser, table: inputs.Table) -> None:
    """One flag per row of ``table``; argparse only splits the text, the row reads it."""
    for row in table.fields:
        parser.add_argument(f"--{row.name}", type=_flag_value, help=_flag_help(row))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # every refusal: a flag, an input or an output write
        _error(str(exc))
        return EXIT_CONFIG


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
