"""Inertial proximal incremental aggregated gradient methods.

A deterministic simulator for asynchronous aggregated-gradient descent on
composite objectives, with step-size certificates that guarantee linear
convergence under bounded staleness and quadratic growth, plus verifiers
that replay those guarantees against recorded runs.
"""

from .core import (
    CompositeProblem,
    DivergenceError,
    NumericError,
    evaluate_objective,
    full_gradient,
    gradient_consistency_check,
)
from .prox import ProxSpec, prox_l1, prox_nonneg_l1, prox_zero
from .rates import (
    BoundReport,
    DescentReport,
    RateCertificate,
    RateInputs,
    RecurrenceReport,
    TwoTermRecurrence,
    certificate_for,
    one_term_condition,
    verify_descent,
    verify_linear_bound,
    verify_one_term,
    verify_two_term,
)
from .rng import SplitMix64
from .schedules import (
    DelaySchedule,
    ScheduleError,
    max_observed_staleness,
    schedule_synchronous,
    schedule_uniform_single,
)
from .solver import (
    SolverParams,
    Trace,
    contiguous_partition,
    iterations_to_threshold,
    lyapunov_value,
    run,
)
from .problems import (
    LassoSpec,
    ToySpec,
    lasso_arrays,
    lasso_document,
    load_problem,
    make_lasso,
    make_toy,
    problem_from_document,
    problem_to_document,
    reference_solution,
    spectral_norm_sq,
    toy_document,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CompositeProblem",
    "DelaySchedule",
    "DescentReport",
    "DivergenceError",
    "LassoSpec",
    "NumericError",
    "ProxSpec",
    "RateCertificate",
    "RateInputs",
    "RecurrenceReport",
    "ScheduleError",
    "SolverParams",
    "SplitMix64",
    "ToySpec",
    "Trace",
    "TwoTermRecurrence",
    "certificate_for",
    "contiguous_partition",
    "evaluate_objective",
    "full_gradient",
    "gradient_consistency_check",
    "iterations_to_threshold",
    "lasso_arrays",
    "lasso_document",
    "load_problem",
    "lyapunov_value",
    "make_lasso",
    "make_toy",
    "max_observed_staleness",
    "one_term_condition",
    "problem_from_document",
    "problem_to_document",
    "prox_l1",
    "prox_nonneg_l1",
    "prox_zero",
    "reference_solution",
    "run",
    "schedule_synchronous",
    "schedule_uniform_single",
    "spectral_norm_sq",
    "toy_document",
    "verify_descent",
    "verify_linear_bound",
    "verify_one_term",
    "verify_two_term",
]
