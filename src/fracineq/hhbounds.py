"""Closed-form bound evaluators for the fractional trapezoid defect.

The common left-hand side of every inequality handled here is the
trapezoid defect

    D(f, [a,b], alpha) = (f(a) + f(b))/2
        - Gamma(alpha+1) / (2 (b-a)^alpha) * [J_{a+}^alpha f(b) + J_{b-}^alpha f(a)]

Substituting u = (t-a)/(b-a) and using Gamma(alpha+1)/Gamma(alpha) = alpha
turns it into one expectation under U ~ Beta(alpha, 1), density
alpha u^(alpha-1) on [0, 1]:

    D = -(1/2) E[f(a + (b-a)U) + f(b - (b-a)U) - f(a) - f(b)]

which is how :func:`trapezoid_defect` computes it, free of Gamma(alpha+1)
and (b-a)^alpha and so for every alpha > 0.  For twice differentiable f, D
equals the exact weighted curvature integral

    (b-a)^2 / (2 (alpha+1)) *
        int_0^1 t (1 - t^alpha) [f''(ta + (1-t)b) + f''((1-t)a + tb)] dt,

computed by :func:`defect_identity_rhs`.  Both sides are integrals over
[0, 1] with algebraic behaviour at the ends: the density u^(alpha-1), and
for f = t^(s+2) on [0, b] terms in u^(s+2), (1-u)^(s+2) and t^s.  Each is
first computed on the tanh-sinh ladder
:data:`~fracineq.quadrature.TANH_SINH` (see
:class:`~fracineq.quadrature.TanhSinhLadder`), with f or f'' evaluated
once on all its nodes as an array.  The defect is the expectation
:func:`~fracineq.quadrature.beta_expectation` of g, which weights g by
the density alpha exp((alpha-1) ln u); the rhs weight is
t (-expm1(alpha ln t)), which keeps 1 - t^alpha accurate at tiny alpha.
When no level meets the tolerance, or a node value is not finite, either
integral goes to the adaptive engine.

Upper bounds for |D| follow from s-convexity or s-concavity of |f''| or
|f''|^q; each evaluator hands its hypothesis to one gate that certifies
it on the interval (:class:`PreconditionError` on a violation) unless
``certify=False``.  The Hoelder-route and midpoint-concavity bounds rely
on a kernel comparison valid for alpha <= 1 only; the evaluators still
compute outside that range and the sweep reports such rows as
out-of-validated-range instead of asserting them.

All inequality verification uses an absolute slack of 1e-8 by default
(:data:`DEFAULT_CHECK_SLACK`), with quadrature run two orders tighter so
numerical error cannot masquerade as a genuine violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .funclib import (
    CERT_GRID_N,
    CERT_SLACK,
    TestFunction,
    _check_s,
    _eval_grid,
    _point_value,
    abs_d2,
    certify_s_concave,
    certify_s_convex,
    value_fn,
)
from .quadrature import (
    _NODE_POWER_CAP,
    _UNIT,
    MAX_ABS_TOL,
    TANH_SINH,
    Interval,
    _engine_tol,
    beta_expectation,
    integrate,
)
from .specfun import beta, check_alpha, log_beta, log_gamma

__all__ = [
    "BoundParams",
    "DefectResult",
    "SandwichResult",
    "WeightIntegralEntry",
    "WeightIntegralReport",
    "trapezoid_defect",
    "defect_identity_rhs",
    "s_convex_sandwich",
    "defect_bound_s_convex",
    "defect_bound_holder",
    "defect_bound_power_mean",
    "defect_bound_s_concave",
    "classical_convex_bound",
    "classical_holder_bound",
    "classical_power_mean_bound",
    "classical_concave_bound",
    "weight_integral_report",
    "weight_int_power",
    "weight_int_beta",
    "weight_int_plain",
    "holder_kernel_bound",
    "HOLDER_VALID_ALPHA_MAX",
    "BOUND_ALPHA_MAX",
]

DEFAULT_QUAD_TOL = 1e-10
# the absolute slack a sweep row, or a check-identity comparison, is judged
# with unless the sweep config sets its own
DEFAULT_CHECK_SLACK = 1e-8
# The kernel comparison 1 - t^alpha <= (1 - t)^alpha holds iff alpha <= 1;
# the Hoelder/concave bounds are only claimed on that range.
HOLDER_VALID_ALPHA_MAX = 1.0
# The closed forms square the order: the power-mean lead divides by
# 4 (alpha+1)(alpha+2), which overflows past about 6.7e153 and would turn
# the bound into 0 or NaN.  Bounds and weight integrals are computed up to
# this order and rejected above it; the identity's two sides take any alpha.
BOUND_ALPHA_MAX = 1e150


def _check_bound_alpha(alpha: float) -> float:
    """:func:`~fracineq.specfun.check_alpha`, and alpha <= BOUND_ALPHA_MAX."""
    alpha = check_alpha(alpha)
    if alpha > BOUND_ALPHA_MAX:
        raise DomainError(f"the closed-form bounds take alpha <= "
                          f"{BOUND_ALPHA_MAX:g}, got {alpha}")
    return alpha


def _check_p(p: float) -> float:
    p = float(p)
    if not (math.isfinite(p) and p > 1.0):
        raise DomainError(f"p must be finite and > 1, got {p}")
    return p


def _check_q(q: float) -> float:
    q = float(q)
    if not (math.isfinite(q) and q >= 1.0):
        raise DomainError(f"exponent q must be finite and >= 1, got {q}")
    return q


@dataclass(frozen=True)
class BoundParams:
    """Parameter tuple (alpha, s, p, q).

    When p is given it must exceed 1 and q must be its Hoelder conjugate
    p/(p-1) (q is derived when omitted).  Without p, q >= 1 is the
    power-mean exponent.
    """

    alpha: float
    s: float
    p: float | None = None
    q: float | None = None

    def __post_init__(self):
        _check_bound_alpha(self.alpha)
        _check_s(self.s)
        if self.p is not None:
            p = _check_p(self.p)
            conj = p / (p - 1.0)
            if self.q is None:
                object.__setattr__(self, "q", conj)
            elif abs(1.0 / p + 1.0 / float(self.q) - 1.0) > 1e-14:
                raise DomainError(
                    f"q={self.q} is not the Hoelder conjugate of p={p}")
        elif self.q is not None:
            _check_q(self.q)


@dataclass(frozen=True)
class DefectResult:
    """Trapezoid defect plus the endpoint values it was computed from."""

    lhs: float
    quad_tol_used: float
    fa: float
    fb: float
    alpha: float
    interval: Interval

    @property
    def abs_lhs(self) -> float:
        return abs(self.lhs)


@dataclass(frozen=True)
class SandwichResult:
    """Three-part sandwich for a nonnegative s-convex function.

    ``upper`` uses the 1/(s+1) endpoint coefficient; ``upper_classical``
    records the alternative (f(a)+f(b))/2 reading so both are observable.
    """

    lower: float
    mean: float
    upper: float
    upper_classical: float


def _width_squared(interval: Interval) -> float:
    """(b-a)^2, the scale of the identity rhs and of every bound; raises
    :class:`DomainError` where it overflows."""
    try:
        return (interval.b - interval.a) ** 2
    except OverflowError:
        raise DomainError(
            f"interval [{interval.a}, {interval.b}] is too wide: "
            "(b-a)^2 overflows") from None


def _hypothesis(channel, interval: Interval, s: float, concave: bool,
                what: str) -> None:
    """Raise :class:`PreconditionError` unless ``channel`` (called ``what``)
    certifies s-convex on ``interval``, or s-concave when ``concave``."""
    # looked up when called, so patching the certifiers here sees each call
    certify = certify_s_concave if concave else certify_s_convex
    result = certify(channel, interval, s)
    if not result.passed:
        kind = "s-concave" if concave else "s-convex"
        raise PreconditionError(
            f"certification failed: {what} is not {kind} at s={s} on "
            f"[{interval.a}, {interval.b}] (witness {result.witness})",
            witness=result.witness)


def _curvature(f: TestFunction, t: float, q: float = 1.0) -> float:
    """|f''(t)|^q, read from the analytic channel (x ** 1.0 is x)."""
    return abs(float(f.d2(t))) ** q


def trapezoid_defect(f, interval: Interval, alpha: float,
                     quad_tol: float = DEFAULT_QUAD_TOL) -> DefectResult:
    """Compute the trapezoid defect as the Beta(alpha, 1) expectation of the
    module docstring; |total error| <= quad_tol."""
    alpha = check_alpha(alpha)
    a, b = interval.a, interval.b
    h = b - a
    fv = value_fn(f)
    endpoint = f"an endpoint of [{a}, {b}], t={{}}"
    fa = _point_value(fv, a, endpoint)
    fb = _point_value(fv, b, endpoint)
    ends = fa + fb

    def g(u: float) -> float:
        # an error of f names its point t, not u
        t, mirror = a + h * u, b - h * u
        return _point_value(fv, t) + _point_value(fv, mirror) - ends

    # f(b - h u) at node u is f(a + h (1-u)), its value at the mirrored node
    fx = _eval_grid(fv, a + h * TANH_SINH.nodes)
    # D is half the integral, so the integral needs twice the tolerance
    value = beta_expectation(fx + fx[::-1] - ends, g, alpha,
                             _engine_tol(2.0 * quad_tol))
    return DefectResult(lhs=-0.5 * value, quad_tol_used=quad_tol,
                        fa=fa, fb=fb, alpha=alpha, interval=interval)


def defect_identity_rhs(f: TestFunction, interval: Interval, alpha: float,
                        quad_tol: float = DEFAULT_QUAD_TOL) -> float:
    """Weighted curvature integral equal to the trapezoid defect."""
    alpha = check_alpha(alpha)
    a, b = interval.a, interval.b
    d2 = f.d2
    coeff = 0.5 * _width_squared(interval) / (alpha + 1.0)
    # coeff underflows to 0 only where the rhs lies below the smallest double
    tol = _engine_tol(quad_tol / coeff) if coeff > 0.0 else MAX_ABS_TOL

    def weight_integrand(t: float) -> float:
        # 1 - t^alpha, without the cancellation of forming t^alpha near 1
        return t * -math.expm1(alpha * math.log(t)) * (
            d2(t * a + (1.0 - t) * b) + d2((1.0 - t) * a + t * b))

    t, one_minus_t = TANH_SINH.nodes, TANH_SINH.complements
    # the second point (1-t) a + t b at node t is the first at the mirrored
    # node 1-t
    d2v = _eval_grid(d2, t * a + one_minus_t * b)
    weight = t * -np.expm1(min(alpha, _NODE_POWER_CAP) * TANH_SINH.log_nodes)
    value = TANH_SINH.estimate(weight * (d2v + d2v[::-1]), tol)
    if value is None:
        value = integrate(weight_integrand, _UNIT, abs_tol=tol).value
    return coeff * value


def s_convex_sandwich(f, interval: Interval, s: float,
                      quad_tol: float = DEFAULT_QUAD_TOL) -> SandwichResult:
    """Sandwich 2^(s-1) f(mid) <= mean(f) <= (f(a)+f(b))/(s+1).

    Requires f >= 0 and s-convex (certified on the interval); the interval
    must start at a >= 0.
    """
    s = _check_s(s)
    fv = value_fn(f)
    _hypothesis(fv, interval, s, False, "f")
    grid = np.linspace(interval.a, interval.b, CERT_GRID_N)
    vals = np.asarray([fv(float(t)) for t in grid], dtype=float)
    if vals.min() < -CERT_SLACK:
        raise PreconditionError(
            f"f must be nonnegative on the interval; min sampled value {vals.min()}")

    fa, fb = float(fv(interval.a)), float(fv(interval.b))
    mean_res = integrate(fv, interval,
                         abs_tol=_engine_tol(quad_tol * interval.length))
    mean = mean_res.value / interval.length
    return SandwichResult(
        lower=2.0 ** (s - 1.0) * float(fv(interval.midpoint)),
        mean=mean,
        upper=(fa + fb) / (s + 1.0),
        upper_classical=0.5 * (fa + fb),
    )


def _weight_bracket(alpha: float, s: float) -> float:
    """int_0^1 t^(s+1)(1-t^alpha) dt + int_0^1 t(1-t^alpha)(1-t)^s dt,
    in closed form."""
    return (alpha / ((s + 2.0) * (alpha + s + 2.0))
            + beta(2.0, s + 1.0) - beta(alpha + 2.0, s + 1.0))


def defect_bound_s_convex(f: TestFunction, interval: Interval, alpha: float,
                          s: float, certify: bool = True) -> float:
    """Bound on |defect| when |f''| is s-convex (valid for every alpha > 0)."""
    alpha = _check_bound_alpha(alpha)
    s = _check_s(s)
    if certify:
        _hypothesis(abs_d2(f), interval, s, False, "|f''|")
    second = _curvature(f, interval.a) + _curvature(f, interval.b)
    return (_width_squared(interval) / (2.0 * (alpha + 1.0))
            * _weight_bracket(alpha, s) * second)


def _log_holder_beta(p: float, alpha: float) -> float:
    """log beta(p+1, alpha p + 1), the Hoelder kernel's bound."""
    y = alpha * p + 1.0
    if math.isinf(y):
        # past the doubles, log Gamma(y) - log Gamma(y+p+1) is -(p+1) ln y
        # up to O(p^2 / y), and ln y is ln alpha + ln p up to 1/(alpha p)
        return log_gamma(p + 1.0) - (p + 1.0) * (math.log(alpha) + math.log(p))
    return log_beta(p + 1.0, y)


def _beta_root(p: float, alpha: float) -> float:
    # beta(p+1, alpha p + 1)^(1/p) via log-beta, stable for large p
    return math.exp(_log_holder_beta(p, alpha) / p)


def _holder_lead(interval: Interval, alpha: float, p: float) -> float:
    """(b-a)^2 / (alpha+1) * beta(p+1, alpha p + 1)^(1/p)."""
    return _width_squared(interval) / (alpha + 1.0) * _beta_root(p, alpha)


def defect_bound_holder(f: TestFunction, interval: Interval,
                        params: BoundParams, certify: bool = True) -> float:
    """Hoelder-route bound when |f''|^q is s-convex (q conjugate to p).

    The kernel comparison behind it holds for alpha <= 1; callers decide
    how to treat larger orders.
    """
    if params.p is None:
        raise DomainError("Hoelder bound requires p > 1 in params")
    alpha, s, p, q = params.alpha, params.s, params.p, params.q
    if certify:
        _hypothesis(abs_d2(f, q), interval, s, False, f"|f''|^{q:g}")
    av = _curvature(f, interval.a, q)
    bv = _curvature(f, interval.b, q)
    return (_holder_lead(interval, alpha, p)
            * ((av + bv) / (s + 1.0)) ** (1.0 / q))


def _power_mean_lead(interval: Interval, alpha: float) -> float:
    """alpha (b-a)^2 / (4 (alpha+1) (alpha+2)), the power-mean scale."""
    width2 = _width_squared(interval)
    lead = alpha * width2 / (4.0 * (alpha + 1.0) * (alpha + 2.0))
    if not math.isfinite(lead):
        # alpha (b-a)^2 overflowed although the quotient does not
        lead = width2 * (alpha / (4.0 * (alpha + 1.0) * (alpha + 2.0)))
    return lead


def defect_bound_power_mean(f: TestFunction, interval: Interval, alpha: float,
                            s: float, q: float, certify: bool = True) -> float:
    """Power-mean-route bound when |f''|^q is s-convex, q >= 1 (any alpha)."""
    alpha = _check_bound_alpha(alpha)
    s = _check_s(s)
    q = _check_q(q)
    if certify:
        _hypothesis(abs_d2(f, q), interval, s, False, f"|f''|^{q:g}")
    av = _curvature(f, interval.a, q)
    bv = _curvature(f, interval.b, q)
    w1 = (2.0 * alpha + 4.0) / ((s + 2.0) * (alpha + s + 2.0))
    w2 = ((beta(2.0, s + 1.0) - beta(alpha + 2.0, s + 1.0))
          * (2.0 * alpha + 4.0) / alpha)
    lead = _power_mean_lead(interval, alpha)
    return lead * ((av * w1 + bv * w2) ** (1.0 / q)
                   + (av * w2 + bv * w1) ** (1.0 / q))


def defect_bound_s_concave(f: TestFunction, interval: Interval,
                           params: BoundParams, certify: bool = True) -> float:
    """Midpoint bound when |f''|^q is s-concave (q conjugate to p).

    Shares the alpha <= 1 kernel-comparison caveat with the Hoelder bound.
    """
    if params.p is None:
        raise DomainError("s-concave bound requires p > 1 in params")
    alpha, s, p, q = params.alpha, params.s, params.p, params.q
    if certify:
        _hypothesis(abs_d2(f, q), interval, s, True, f"|f''|^{q:g}")
    mid = _curvature(f, interval.midpoint)
    return _holder_lead(interval, alpha, p) * 2.0 ** ((s - 1.0) / q) * mid


# ---------------------------------------------------------------------------
# classical convex/concave (s = 1) baseline formulas, kept for comparison


def classical_convex_bound(f: TestFunction, interval: Interval,
                           alpha: float) -> float:
    """Baseline bound for convex |f''|:
    (b-a)^2/(alpha+1) * beta(2, alpha+1) * (|f''(a)| + |f''(b)|)/2.

    Note: its weight coefficient beta(2, alpha+1) agrees with the s = 1
    weight bracket alpha/(2(alpha+2)) only at alpha = 1.
    """
    alpha = _check_bound_alpha(alpha)
    second = 0.5 * (_curvature(f, interval.a) + _curvature(f, interval.b))
    return (_width_squared(interval) / (alpha + 1.0) * beta(2.0, alpha + 1.0)
            * second)


def classical_holder_bound(f: TestFunction, interval: Interval, alpha: float,
                           p: float) -> float:
    """Baseline Hoelder bound for convex |f''|^q, q = p/(p-1)."""
    alpha = _check_bound_alpha(alpha)
    p = _check_p(p)
    q = p / (p - 1.0)
    av = _curvature(f, interval.a, q)
    bv = _curvature(f, interval.b, q)
    return (_holder_lead(interval, alpha, p)
            * (0.5 * (av + bv)) ** (1.0 / q))


def classical_power_mean_bound(f: TestFunction, interval: Interval,
                               alpha: float, q: float) -> float:
    """Baseline power-mean bound for convex |f''|^q, q >= 1."""
    alpha = _check_bound_alpha(alpha)
    q = _check_q(q)
    av = _curvature(f, interval.a, q)
    bv = _curvature(f, interval.b, q)
    w1 = (2.0 * alpha + 4.0) / (3.0 * alpha + 9.0)
    w2 = (alpha + 5.0) / (3.0 * alpha + 9.0)
    lead = _power_mean_lead(interval, alpha)
    return lead * ((w1 * av + w2 * bv) ** (1.0 / q)
                   + (w2 * av + w1 * bv) ** (1.0 / q))


def classical_concave_bound(f: TestFunction, interval: Interval, alpha: float,
                            p: float) -> float:
    """Baseline midpoint bound for concave |f''|^q, q = p/(p-1)."""
    alpha = _check_bound_alpha(alpha)
    p = _check_p(p)
    mid = _curvature(f, interval.midpoint)
    return _holder_lead(interval, alpha, p) * mid


# ---------------------------------------------------------------------------
# quadrature-vs-closed-form checks for the weight integrals


@dataclass(frozen=True)
class WeightIntegralEntry:
    check_id: str
    lhs: float          # quadrature value
    rhs: float          # closed form / upper bound
    margin: float       # rhs - lhs (inequality) or -|lhs - rhs| (identity)
    holds: bool
    in_validated_range: bool


@dataclass(frozen=True)
class WeightIntegralReport:
    alpha: float
    s: float
    p: float
    entries: tuple[WeightIntegralEntry, ...]

    @property
    def all_hold(self) -> bool:
        return all(e.holds for e in self.entries if e.in_validated_range)


def _weight_identity(check_id: str, integrand, closed: float, tol: float,
                     quad_tol: float) -> WeightIntegralEntry:
    quad_val = integrate(integrand, _UNIT, abs_tol=quad_tol).value
    diff = abs(quad_val - closed)
    return WeightIntegralEntry(
        check_id=check_id, lhs=quad_val, rhs=closed, margin=-diff,
        holds=diff <= tol, in_validated_range=True)


def weight_int_power(alpha: float, s: float, tol: float = 1e-9,
                     quad_tol: float = DEFAULT_QUAD_TOL) -> WeightIntegralEntry:
    """int_0^1 t^(s+1) (1 - t^alpha) dt = alpha / ((s+2)(alpha+s+2))."""
    alpha = _check_bound_alpha(alpha)
    s = _check_s(s)
    return _weight_identity(
        "weight_int_power", lambda t: t ** (s + 1.0) * (1.0 - t ** alpha),
        alpha / ((s + 2.0) * (alpha + s + 2.0)), tol, quad_tol)


def weight_int_beta(alpha: float, s: float, tol: float = 1e-9,
                    quad_tol: float = DEFAULT_QUAD_TOL) -> WeightIntegralEntry:
    """int_0^1 t (1 - t^alpha) (1-t)^s dt = beta(2, s+1) - beta(alpha+2, s+1)."""
    alpha = _check_bound_alpha(alpha)
    s = _check_s(s)
    return _weight_identity(
        "weight_int_beta", lambda t: t * (1.0 - t ** alpha) * (1.0 - t) ** s,
        beta(2.0, s + 1.0) - beta(alpha + 2.0, s + 1.0), tol, quad_tol)


def weight_int_plain(s: float, tol: float = 1e-9,
                     quad_tol: float = DEFAULT_QUAD_TOL) -> WeightIntegralEntry:
    """int_0^1 t^s dt = 1/(s+1)."""
    s = _check_s(s)
    return _weight_identity("weight_int_plain", lambda t: t ** s,
                            1.0 / (s + 1.0), tol, quad_tol)


def holder_kernel_bound(alpha: float, p: float, tol: float = 1e-9,
                        quad_tol: float = DEFAULT_QUAD_TOL) -> WeightIntegralEntry:
    """int_0^1 t^p (1 - t^alpha)^p dt <= beta(p+1, alpha p + 1), validated
    for alpha <= 1 and measured elsewhere."""
    alpha = _check_bound_alpha(alpha)
    p = _check_p(p)
    lhs = integrate(lambda t: t ** p * (1.0 - t ** alpha) ** p, _UNIT,
                    abs_tol=quad_tol).value
    bound = math.exp(_log_holder_beta(p, alpha))
    margin = bound - lhs
    return WeightIntegralEntry(
        check_id="holder_kernel_bound", lhs=lhs, rhs=bound, margin=margin,
        holds=margin >= -tol,
        in_validated_range=alpha <= HOLDER_VALID_ALPHA_MAX)


def weight_integral_report(alpha: float, s: float, p: float,
                           tol: float = 1e-9,
                           quad_tol: float = DEFAULT_QUAD_TOL) -> WeightIntegralReport:
    """Verify the closed forms of all four bound-weight integrals by
    quadrature: the identities :func:`weight_int_power`,
    :func:`weight_int_beta` and :func:`weight_int_plain` (any alpha > 0)
    and the inequality :func:`holder_kernel_bound`."""
    entries = (weight_int_power(alpha, s, tol, quad_tol),
               weight_int_beta(alpha, s, tol, quad_tol),
               weight_int_plain(s, tol, quad_tol),
               holder_kernel_bound(alpha, p, tol, quad_tol))
    return WeightIntegralReport(alpha=float(alpha), s=float(s), p=float(p),
                                entries=entries)
