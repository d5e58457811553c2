"""Step-size certificates and linear-rate verification.

A certificate packages, for one solver variant, the largest admissible step
size, the inertial weights derived from it, and the contraction factor rho
of the Lyapunov value

    Psi(z) = Phi(z) - Phi* + (1 - eta1) / (2 alpha) * dist(z, X*)^2.

Variants are named by short tags:

    ``t1``       both inertial terms, stated step-size threshold
    ``t1tight``  same, with the sharper threshold exponent
    ``cor1``     pre-prox inertia only (eta2 = 0)
    ``cor2``     post-prox inertia only (eta1 = 0)

The underlying contraction argument reduces to scalar recurrences on the
Lyapunov sequence; the one-term and two-term recurrence verifiers below
check those arguments directly on data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .core import Array, CompositeProblem, evaluate_objective
from .inputs import CERTIFY, RATE, RATE_INPUTS, RUN_VARIANTS, TWO_TERM_RECURRENCE, check, read
from .solver import Trace

# relative tolerances of the checks below: a recurrence's data residual and envelope, the
# envelopes of ``verify_linear_bound`` and the residuals of ``verify_descent``
RECURRENCE_SLACK = 1e-12
RECURRENCE_BOUND_SLACK = 1e-9
BOUND_SLACK = 1e-8
DESCENT_SLACK = 1e-9


@dataclass(frozen=True)
class RateInputs:
    """Problem constants a certificate is computed from."""

    total_lipschitz: float
    growth_constant: float
    delay: int
    momentum_fraction: float = 0.0  # C1, weight of the pre-prox inertia

    def __post_init__(self):
        read(vars(self), RATE_INPUTS)


@dataclass
class RateCertificate:
    """Admissible step size, inertial weights, and contraction factor."""

    variant: str
    inputs: RateInputs
    alpha_max: float
    alpha: float
    eta1: float
    eta2_max: float
    eta2: float
    rho: float
    admissible: bool
    simplified_factor: Optional[float] = None

    def to_json_dict(self) -> dict:
        doc = {
            "variant": self.variant,
            "L": self.inputs.total_lipschitz,
            "beta": self.inputs.growth_constant,
            "tau": self.inputs.delay,
            "C1": self.inputs.momentum_fraction,
            "alpha0": self.alpha_max,
            "alpha": self.alpha,
            "eta1": self.eta1,
            "eta2_max": self.eta2_max,
            "eta2": self.eta2,
            "rho": self.rho,
            "admissible": self.admissible,
            "C": None,  # the envelope constant; only a checked run has one
        }
        if self.simplified_factor is not None:
            doc["simplified_factor"] = self.simplified_factor
        return doc


def _threshold(L: float, beta: float, tau: int, c1: float, exponent: int) -> float:
    """((W + 1)^(1/exponent) - 1) / beta with W = beta / (16 C1 beta + 2 L (tau + 2))."""
    W = beta / (16.0 * c1 * beta + 2.0 * L * (tau + 2))
    return ((W + 1.0) ** (1.0 / exponent) - 1.0) / beta


def _eta2_max(alpha: float, beta: float, eta1: float, weight: float, power: int) -> float:
    """Largest post-prox weight the contraction argument supports at alpha.

    Comes from feeding the per-step descent inequality into the two-term
    recurrence condition and bounding the inverse-power sum by
    weight ((1 + alpha beta)^power - 1), clamped to [0, alpha beta / 2].
    """
    ab = alpha * beta
    try:
        grown = (ab + 1.0) ** power - 1.0
    except OverflowError:
        grown = math.inf
    bracket = (0.25 - weight * grown) / (1.0 + ab - eta1)
    return max(0.0, min(bracket, ab / 2.0))  # bracket first: a NaN bracket gives 0


def certificate_for(
    variant: str,
    inputs: RateInputs,
    alpha: Optional[float] = None,
    eta1: Optional[float] = None,
    eta2: Optional[float] = None,
) -> RateCertificate:
    """Certificate of the variant tag at (alpha, eta1, eta2), by default alpha_max
    (``cor2``: 0.999 alpha_max), C1 alpha beta and the largest admissible eta2.

    ``t1`` and ``t1tight`` (both inertial weights) need C1 below 0.5.  ``t1`` uses the
    stated threshold exponent 1/(tau+3); ``t1tight`` drops it to 1/(tau+2) for tau >= 1
    (the two agree at tau = 0).

    ``cor1`` (pre-prox inertia alone, eta2 = 0, a nonzero eta2 refused) allows the full
    weight range C1 in [0, 1) and uses the dedicated threshold, which is larger than the
    doubly inertial one, and reports the closed-form simplified factor valid at alpha_max.

    ``cor2`` (post-prox inertia alone, eta1 = 0, a nonzero eta1 refused) has an open
    threshold: alpha must stay strictly below alpha_max so that the eta2 bracket keeps
    room.  It is built at C1 = 0, and its certificate reports that C1.  ``variant`` is read
    through the ``variant`` row of ``ipiag certify``.

    One admissibility rule covers every variant: 0 < alpha <= alpha_max (alpha < alpha_max
    for cor2) with alpha finite (alpha_max overflows to inf for subnormal L and beta),
    0 <= eta2 <= eta2_max, eta1 + eta2 < alpha beta and rho < 1.  The closed upper bounds
    allow a relative 1e-15 for rounding.
    """
    check(CERTIFY.row("variant"), variant, "variant")
    L = inputs.total_lipschitz
    beta = inputs.growth_constant
    tau = inputs.delay
    c1 = inputs.momentum_fraction
    bracket = simplified = None  # bracket: the (weight, power) of eta2_max, none for cor1
    if variant in ("t1", "t1tight"):
        if not c1 < 0.5:
            raise ValueError(f"momentum_fraction (c1) must be below 0.5 for {variant}, got {c1!r}")
        exponent = tau + 2 if variant == "t1tight" and tau >= 1 else tau + 3
        alpha_max = _threshold(L, beta, tau, c1, exponent)
        if tau >= 1:
            bracket = (L * (tau + 2) + 8.0 * c1 * beta) / (2.0 * beta), tau + 2
        else:  # not 2 L (tau + 2) / (2 beta): 2 L overflows for L >= 2**1023
            bracket = (L + 4.0 * c1 * beta) / beta, 3
    elif variant == "cor1":
        if eta2:
            raise ValueError("cor1 has no post-prox inertia; eta2 must be 0")
        base = 1.0 + (1.0 - c1) * beta / (L * (tau + 1) + c1 * beta)
        alpha_max = (base ** (1.0 / (tau + 1)) - 1.0) / ((1.0 - c1) * beta)
        simplified = 1.0 - (1.0 - c1) / ((1.0 + L / beta * (tau + 1)) * (tau + 1))
        eta2 = 0.0
    else:
        if eta1:
            raise ValueError("cor2 has no pre-prox inertia; eta1 must be 0")
        alpha_max = _threshold(L, beta, tau, 0.0, tau + 2)
        bracket = L * (tau + 2) / (2.0 * beta), tau + 2
        inputs = replace(inputs, momentum_fraction=0.0)
        eta1 = 0.0

    if alpha is None:
        alpha = alpha_max * 0.999 if variant == "cor2" else alpha_max
    if eta1 is None:
        eta1 = c1 * alpha * beta
    eta2_max = 0.0 if bracket is None else _eta2_max(alpha, beta, eta1, *bracket)
    if eta2 is None:
        eta2 = eta2_max
    ab = alpha * beta
    rho = (1.0 + eta2) / (1.0 + ab - eta1)
    if variant == "cor2":
        admissible = 0.0 < alpha < alpha_max
    else:
        admissible = 0.0 < alpha <= alpha_max * (1.0 + 1e-15)
    admissible = admissible and alpha < math.inf and 0.0 <= eta2 <= eta2_max * (1.0 + 1e-15)
    admissible = bool(admissible and eta1 + eta2 < ab and rho < 1.0)
    return RateCertificate(variant, inputs, alpha_max, alpha, eta1, eta2_max, eta2, rho,
                           admissible, simplified)


def resolve_parameters(problem: CompositeProblem, config: dict, tau: int):
    """Turn a config, as ``ipiag.inputs.read`` gives it for ``ipiag.inputs.CONFIG``, into
    concrete (alpha, eta1, eta2, certificate, error).

    One certificate is built, at the C1 the run uses: 0 for a variant without pre-prox
    inertia, ``c1`` when eta1 is automatic (the only time ``c1`` is read), else
    eta1/(alpha beta), which needs an explicit alpha.  Automatic values are its defaults, so
    it describes the run that will execute, and an automatic value it does not cover is
    refused.  It is None when the problem has no growth modulus (bound checks are skipped,
    error is None) or when no certificate covers the fully explicit values (error says why,
    and the run is uncertified).
    """
    variant = config["variant"]
    alpha, eta1, eta2 = config["alpha"], config["eta1"], config["eta2"]
    cert_variant, uses_eta1, uses_eta2 = RUN_VARIANTS[variant]
    if not uses_eta1:
        if eta1 not in ("auto", 0.0):
            raise ValueError(f"variant {variant} has no pre-prox inertia; leave eta1 at 0")
        eta1 = 0.0
    if not uses_eta2:
        if eta2 not in ("auto", 0.0):
            raise ValueError(f"variant {variant} has no post-prox inertia; leave eta2 at 0")
        eta2 = 0.0
    beta = problem.growth_constant
    auto = "auto" in (alpha, eta1, eta2)
    if beta is None:
        if auto:
            raise ValueError(
                "auto parameters need the growth modulus; the problem metadata has none"
            )
        return alpha, eta1, eta2, None, None

    if not uses_eta1:
        c1 = 0.0
    elif eta1 == "auto":
        c1 = config["c1"]
    elif alpha == "auto":
        raise ValueError(
            f"eta1 = {eta1!r} needs an explicit --alpha, as C1 = eta1/(alpha beta); "
            "or leave eta1 automatic and set --c1"
        )
    else:
        c1 = eta1 / (alpha * beta) if alpha * beta > 0 else 0.0
    try:
        cert = certificate_for(
            cert_variant, RateInputs(problem.total_lipschitz, beta, tau, c1),
            *(None if value == "auto" else value for value in (alpha, eta1, eta2)),
        )
    except ValueError as exc:
        if eta1 == "auto":
            raise  # C1 is the config's c1, and the certificate's message names it
        error = (
            f"no {cert_variant} certificate covers alpha={alpha!r}, eta1={eta1!r}, "
            f"eta2={eta2!r} (C1 = eta1/(alpha beta) = {c1!r}): {exc}"
        )
        if auto:
            raise ValueError(error) from None
        return alpha, eta1, eta2, None, error
    # the rows check a given weight, and an auto eta2 is at most 0.25 (the bracket's
    # numerator), so only an auto eta1 can leave [0, 1]
    if eta1 == "auto" and not 0.0 <= cert.eta1 <= 1.0:
        raise ValueError(
            f"auto eta1 = C1*alpha*beta = {cert.eta1!r} leaves [0, 1]; lower --c1 or --alpha"
        )
    return cert.alpha, cert.eta1, cert.eta2, cert, None


# ---------------------------------------------------------------------------
# verdicts: the one record and the one rule of every check below


class Verdict(NamedTuple):
    """Outcome of one check over a sequence: whether every entry passed, the index into the
    checked sequence of the first entry that failed (None if none did) and the check's own
    worst value."""

    ok: bool
    first_violation: Optional[int]
    worst: float


def _verdict(values: Array, limit, worst, offset: int = 0) -> Verdict:
    """The one rule of every check: entry k passes when values[k] <= limit[k], so a NaN fails;
    the first failing k, plus ``offset`` when values starts there in its sequence, is
    reported."""
    bad = np.nonzero(~(values <= limit))[0]
    return Verdict(not bad.size, int(bad[0]) + offset if bad.size else None, float(worst))


def _envelope_verdict(values: Array, envelope: Array, slack: float, offset: int = 0) -> Verdict:
    """values <= envelope (1 + slack) + 1e-300; worst is the largest ratio values / envelope
    (NaN skipped, inf where the envelope is not positive)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(envelope > 0, values / envelope, np.inf)
    # fmax.reduce is nanmax without its all-NaN warning
    return _verdict(values, envelope * (1.0 + slack) + 1e-300, np.fmax.reduce(ratio), offset)


# ---------------------------------------------------------------------------
# scalar recurrence verifiers


@dataclass(frozen=True)
class TwoTermRecurrence:
    """Coefficients of V_{k+1} <= A V_k + B V_{k-1} - b1 w_k + b2 w_{k-1} + c S_k.

    S_k sums w_j over the trailing window j in [k - k0, k]; terms with
    negative index are dropped.  A two-term linear recurrence with
    nonnegative A, B contracts when A + B < 1; the effective single rate is
    the positive root a of a^2 = A a + B.
    """

    A: float
    B: float
    b1: float
    b2: float
    c: float
    k0: int

    def __post_init__(self):
        for field in TWO_TERM_RECURRENCE.fields:
            check(field, getattr(self, field.name), field.name)
        if self.A == 0 and self.B == 0:
            raise ValueError("degenerate recurrence: A and B are both zero")
        if self.A + self.B >= 1:
            raise ValueError("no contraction: A + B must be below 1")

    @property
    def root(self) -> float:
        return (self.A + math.sqrt(self.A * self.A + 4.0 * self.B)) / 2.0

    def split_weights(self) -> tuple:
        """(A/a, B/a^2): nonnegative weights that sum to one."""
        a = self.root
        return self.A / a, self.B / (a * a)

    def condition(self) -> tuple:
        """(lhs, rhs, ok) of the window-sum admissibility condition."""
        a = self.root
        return _window_condition(a, self.c, self.k0, self.b1 - self.b2 / a)


def _window_condition(a: float, c: float, k0: int, rhs: float) -> tuple:
    """(lhs, rhs, ok) of c * sum_{j <= k0} a^{-j} <= rhs; the sum is a^{-k0} (1 - a^{k0+1}) /
    (1 - a), expm1 keeping its digits for a near 1, inf past the float range (lhs 0 at c = 0)."""
    try:
        total = k0 + 1.0 if a == 1 else a**-k0 * -math.expm1((k0 + 1) * math.log(a)) / (1 - a)
    except OverflowError:
        total = math.inf
    lhs = c * total if c else 0.0
    return lhs, rhs, lhs <= rhs


def one_term_condition(a: float, b: float, c: float, k0: int) -> tuple:
    """(lhs, rhs, ok) for V_{k+1} <= a V_k - b w_k + c S_k; ``a`` is read through the
    ``inputs.RATE`` row and ``k0`` through the window row of ``TwoTermRecurrence``."""
    check(RATE, a, "a")
    check(TWO_TERM_RECURRENCE.row("k0"), k0, "k0")
    return _window_condition(a, c, k0, b)


@dataclass
class RecurrenceReport:
    """Outcome of replaying a recurrence argument on data; ``data`` and ``bound`` index V."""

    condition_lhs: float
    condition_rhs: float
    condition_ok: bool
    data: Verdict
    bound: Verdict
    envelope: Array

    @property
    def ok(self) -> bool:
        return self.condition_ok and self.data.ok and self.bound.ok


def _window_sums(w: Array, k0: int) -> Array:
    """S_k = sum of w_j for j in [k - k0, k], negative indices dropped."""
    cs = np.concatenate(([0.0], np.cumsum(w)))
    n = len(w)
    hi = np.arange(n) + 1
    # a window longer than w sums all of it; min keeps a k0 near 2**63 inside int64
    lo = np.maximum(np.arange(n) - min(k0, n), 0)
    return cs[hi] - cs[lo]


def _replay(condition, V_next, rhs, V, envelope, start) -> RecurrenceReport:
    """Residual (V_next - rhs) / (1 + |rhs|) <= RECURRENCE_SLACK, with V_next from
    V[start + 1] on; V under the envelope from ``start`` on, with RECURRENCE_BOUND_SLACK."""
    lhs, cond_rhs, cond_ok = condition
    residual = (V_next - rhs) / (1.0 + np.abs(rhs))
    return RecurrenceReport(
        condition_lhs=lhs,
        condition_rhs=cond_rhs,
        condition_ok=bool(cond_ok),
        data=_verdict(residual, RECURRENCE_SLACK, residual.max(), start + 1),
        bound=_envelope_verdict(V[start:], envelope[start:], RECURRENCE_BOUND_SLACK, start),
        envelope=envelope,
    )


def verify_one_term(V: Array, w: Array, a: float, b: float, c: float, k0: int) -> RecurrenceReport:
    """Check data against V_{k+1} <= a V_k - b w_k + c S_k and the decay bound.

    Requires len(w) >= len(V) - 1.  When the admissibility condition holds
    the verified bound is V_k <= a^k V_0.
    """
    V = np.asarray(V, dtype=float)
    w = np.asarray(w, dtype=float)
    n = len(V)
    if n < 2:
        raise ValueError("need at least two sequence values")
    if len(w) < n - 1:
        raise ValueError("w is shorter than the recurrence needs")
    condition = one_term_condition(a, b, c, k0)
    S = _window_sums(w, k0)
    rhs = a * V[:-1] - b * w[: n - 1] + c * S[: n - 1]
    return _replay(condition, V[1:], rhs, V, V[0] * a ** np.arange(n), 0)


def verify_two_term(V: Array, w: Array, rec: TwoTermRecurrence) -> RecurrenceReport:
    """Check data against the two-term recurrence and the decay bound.

    The recurrence needs V_{k-1}, so data consistency is checked from
    k = 1 onward.  When the condition holds the verified bound is

        V_k <= a^{k-1} (V_1 + a V_0 + b1 w_0)   for k >= 1,

    with a the effective rate from ``rec.root``.
    """
    V = np.asarray(V, dtype=float)
    w = np.asarray(w, dtype=float)
    n = len(V)
    if n < 3:
        raise ValueError("need at least three sequence values")
    if len(w) < n - 1:
        raise ValueError("w is shorter than the recurrence needs")
    a = rec.root
    S = _window_sums(w, rec.k0)
    ks = np.arange(1, n - 1)
    rhs = (
        rec.A * V[ks]
        + rec.B * V[ks - 1]
        - rec.b1 * w[ks]
        + rec.b2 * w[ks - 1]
        + rec.c * S[ks]
    )
    head = V[1] + a * V[0] + rec.b1 * w[0]
    envelope = np.empty(n)
    envelope[0] = max(V[0], head)  # bound speaks from k = 1 on
    envelope[1:] = head * a ** np.arange(n - 1)
    return _replay(rec.condition(), V[ks + 1], rhs, V, envelope, 1)


# ---------------------------------------------------------------------------
# trace-level checks


@dataclass
class BoundReport:
    """Envelope checks of a traced run against a certificate, with the dist2 envelope it
    checked; each verdict's worst is the largest ratio of the sequence to its envelope."""

    rho: float
    constant: float
    dist_envelope: Array
    psi: Verdict
    phi: Verdict
    dist: Verdict

    @property
    def ok(self) -> bool:
        return self.psi.ok and self.phi.ok and self.dist.ok


def verify_linear_bound(trace: Trace, cert: RateCertificate) -> BoundReport:
    """Check the geometric envelopes rho^k * C on a traced run.

    C is assembled from the first two records: Psi(z_1) + rho Psi(z_0)
    plus ||z_1 - z_0||^2 / (4 alpha).  Three envelopes are checked with
    relative slack BOUND_SLACK: the Lyapunov value, the objective gap, and
    the squared distance (scaled by 2 alpha / (1 - eta1), +inf at
    eta1 = 1).  The certificate must be the run's own: its alpha, eta1 and
    eta2 equal the trace's, so the trace's psi is the Lyapunov value the
    certificate speaks of, and its tau is at least the run's staleness.
    """
    if trace.phi_star is None or trace.x_ref is None:
        raise ValueError("trace lacks a reference point / optimal value")
    if trace.records < 2:
        raise ValueError("need at least two records")
    if (cert.alpha, cert.eta1, cert.eta2) != (trace.alpha, trace.eta1, trace.eta2):
        raise ValueError("certificate alpha, eta1 or eta2 differs from the run's")
    tau, staleness = cert.inputs.delay, int(trace.staleness.max(initial=0))
    if tau < staleness:
        raise ValueError(f"certificate tau {tau} is below the run's staleness {staleness}")
    alpha, eta1, rho = cert.alpha, cert.eta1, cert.rho
    psi = trace.psi
    constant = float(psi[1] + rho * psi[0] + trace.step_norm2[1] / (4.0 * alpha))

    env = constant * rho ** np.arange(trace.records)
    # at eta1 = 1 psi has no distance term, so the certificate bounds dist2 nowhere
    dist_env = np.full(trace.records, np.inf) if eta1 == 1.0 else 2.0 * alpha / (1.0 - eta1) * env
    return BoundReport(
        rho=rho,
        constant=constant,
        dist_envelope=dist_env,
        psi=_envelope_verdict(psi, env, BOUND_SLACK),
        phi=_envelope_verdict(trace.phi - trace.phi_star, env, BOUND_SLACK),
        dist=_envelope_verdict(trace.dist2, dist_env, BOUND_SLACK),
    )


@dataclass
class DescentReport:
    """Residuals of the per-step descent inequality along a trace; the verdict's worst is the
    smallest residual and its first violation the record whose phi broke the inequality."""

    residuals: Array
    tolerance: float
    descent: Verdict

    @property
    def ok(self) -> bool:
        return self.descent.ok


def verify_descent(problem: CompositeProblem, trace: Trace, tau: int) -> DescentReport:
    """Check the one-step descent inequality at the run's reference point x*.

    For every executed step k the inequality bounds Phi(z_{k+1}) by
    Phi(x*) plus weighted squared distances to x*, minus the fresh squared
    step, plus trailing-window correction terms scaled by the total
    Lipschitz constant and the inertial weights.  x* is the trace's x_ref:
    Phi(x*) is evaluated there, whatever phi_star the run was given, and
    the squared distances are the trace's dist2.  Residual = rhs - lhs
    must stay above -DESCENT_SLACK * (1 + |Phi(x*)|).  ``tau`` is read
    through the ``delay`` row and must be at least the run's staleness.
    """
    tau = check(RATE_INPUTS.row("delay"), tau, "tau")
    staleness = int(trace.staleness.max(initial=0))
    if tau < staleness:
        raise ValueError(f"tau {tau} is below the run's staleness {staleness}")
    if trace.x_ref is None:
        raise ValueError("trace lacks a reference point")
    phi_x = evaluate_objective(problem, trace.x_ref)
    L = problem.total_lipschitz
    alpha, eta1, eta2 = trace.alpha, trace.eta1, trace.eta2
    n = trace.records
    if n < 2:
        raise ValueError("need at least one executed step")

    d2 = trace.dist2
    s = trace.step_norm2  # s[j] = ||z_j - z_{j-1}||^2, s[0] = 0
    ks = np.arange(n - 1)
    # sum_{j = k - tau - 1}^{k} ||z_{j+1} - z_j||^2  ->  s[m], m in [k - tau, k + 1]
    window1 = _window_sums(s, tau + 1)[1:]
    # sum_{j = k - 2}^{k - 1}  ->  s[m], m in [k - 1, k]
    window2 = _window_sums(s, 1)[:-1]

    # ||z_k - z_{k-1}||^2 is s[k]; s[0] = 0 covers the z_{-1} := z_0 case.
    zstep_prev = s[ks]

    rhs = (
        phi_x
        + (1.0 + eta2) / (2.0 * alpha) * d2[ks]
        - (1.0 - eta1) / (2.0 * alpha) * d2[ks + 1]
        - s[ks + 1] / (4.0 * alpha)
        + (eta2 + 2.0 * eta2 * eta2) / (2.0 * alpha) * zstep_prev
        + L * (tau + 2) / 2.0 * window1
        + eta1 * (1.0 + eta2) ** 2 / alpha * window2
    )
    residuals = rhs - trace.phi[1:]
    tol = DESCENT_SLACK * (1.0 + abs(phi_x))
    # residuals[k] checks phi[k + 1]
    return DescentReport(residuals, tol, _verdict(-residuals, tol, residuals.min(), 1))
