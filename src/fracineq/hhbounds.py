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

computed by :func:`defect_identity_rhs`.  Each side is computed for a
sequence of orders at once (``_defects`` and ``_identity_rhs``; the sweep
passes all its orders) in one pass of the tanh-sinh ladder
:data:`~fracineq.quadrature.TANH_SINH`: f or f'' is read once on its
nodes, each order weights the values in its own row (the density
alpha exp((alpha-1) ln u) of :func:`~fracineq.quadrature.beta_expectation`,
or the rhs weight t (-expm1(alpha ln t)), accurate at tiny alpha), and an
order the ladder refuses goes alone to the adaptive engine.  The weight
integrals the bounds rest on are checked against their closed forms the
same way (``_weight_integrals``): over [0, 1], w t^s, w (1-t)^s and t^s in
one pass per s, and w^p in one pass per p, w being the rhs weight.

Upper bounds for |D| follow from s-convexity or s-concavity of |f''| or
|f''|^q, each declared once in :data:`BOUND_CHECKS`.  An entry's closed
form is split in two: ``factors(params)``, the Beta/Gamma numbers of
(alpha, s, p, q) alone, and ``combine``, the bound on one interval from
them, its (b-a)^2 and |f''|^q at a, b or the midpoint, each read when
first asked for; ``formula`` composes the two.  The four evaluators pass
their entry to one gate that certifies its hypothesis on the interval
(:class:`PreconditionError` on a violation) unless ``certify=False``.  The
Hoelder-route and midpoint-concavity bounds rely on a kernel comparison
valid for alpha <= 1 only; outside it they still compute, and the sweep
records such rows as out-of-validated-range.

All inequality verification uses an absolute slack of 1e-8 by default
(:data:`DEFAULT_CHECK_SLACK`), with quadrature run two orders tighter so
numerical error cannot masquerade as a genuine violation.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, FracineqError, PreconditionError
from .funclib import (
    CERT_GRID_N,
    Interval,
    TestFunction,
    _check_s,
    _eval_grid,
    _grid_tables,
    _holds,
    _nests,
    _point_value,
    abs_d2,
    certify_s_concave,
    certify_s_convex,
    value_fn,
)
from .quadrature import (
    DEFAULT_QUAD_TOL,
    MAX_ABS_TOL,
    TANH_SINH,
    _check_abs_tol,
    _engine_tol,
    _ladder_rows,
    _order_rows,
    _outcome_value,
    beta_expectation,
    integrate,
)
from .specfun import beta, check_alpha, log_beta, log_gamma

__all__ = [
    "BoundCheck", "BOUND_CHECKS", "BoundParams", "DefectResult",
    "SandwichResult", "WeightIntegralEntry", "WeightIntegralReport",
    "trapezoid_defect", "defect_identity_rhs", "s_convex_sandwich",
    "defect_bound_s_convex", "defect_bound_holder", "defect_bound_power_mean",
    "defect_bound_s_concave", "classical_convex_bound",
    "classical_holder_bound", "classical_power_mean_bound",
    "classical_concave_bound", "weight_integral_report",
    "HOLDER_VALID_ALPHA_MAX", "BOUND_ALPHA_MAX",
]

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


def _check_slack(slack: float, name: str = "tol") -> float:
    """The one validator of a comparison's absolute slack, named ``name``
    in its error: finite and >= 0."""
    slack = float(slack)
    if not (math.isfinite(slack) and slack >= 0.0):
        raise DomainError(f"{name} must be finite and >= 0, got {slack}")
    return slack


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


class _BoundFields(NamedTuple):
    alpha: float
    s: float
    p: float | None = None
    q: float | None = None


class BoundParams(_BoundFields):
    """Parameter tuple (alpha, s, p, q), kept as the validated floats.

    When p is given it must exceed 1 and q must be its Hoelder conjugate
    p/(p-1) (q is derived when omitted).  Without p, q >= 1 is the
    power-mean exponent.
    """

    __slots__ = ()
    _replace = Interval._replace    # through __new__, so its checks run

    def __new__(cls, alpha: float, s: float, p: float | None = None,
                q: float | None = None):
        alpha, s = _check_bound_alpha(alpha), _check_s(s)
        p = None if p is None else _check_p(p)
        q = None if q is None else _check_q(q)
        if p is not None:
            if q is None:
                q = p / (p - 1.0)
            elif abs(1.0 / p + 1.0 / q - 1.0) > 1e-14:
                raise DomainError(
                    f"q={q} is not the Hoelder conjugate of p={p}")
        return super().__new__(cls, alpha, s, p, q)


class DefectResult(NamedTuple):
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


class SandwichResult(NamedTuple):
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


class _Curvatures(dict):
    """{(point, q): |f''|^q at ``point``} on one interval, the point "a",
    "b" or "midpoint": f'' is read at a point, and raised to a q, when
    first asked for, so nowhere that no closed form asks."""

    def __init__(self, f: TestFunction, interval: Interval):
        self.d2, self.interval = f.d2, interval

    def __missing__(self, key: tuple[str, float]) -> float:
        point, q = key
        # f'' is read from the analytic channel at q = 1, as x ** 1.0 is x
        value = self[key] = (abs(_point_value(self.d2, getattr(self.interval, point)))
                             if q == 1.0 else self[point, 1.0] ** q)
        return value


def _defects(f, interval: Interval, alphas, quad_tol: float
             ) -> tuple[float, float, list[float | FracineqError]]:
    """f(a), f(b) and the trapezoid defect at every order of ``alphas``,
    each the Beta(alpha, 1) expectation of the module docstring with
    |total error| <= quad_tol, or the error that stopped that order alone;
    f is read once for all orders."""
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
    tol = _engine_tol(2.0 * quad_tol)
    values = beta_expectation(fx + fx[::-1] - ends, g, alphas,
                              [tol] * len(alphas))
    return fa, fb, [v if isinstance(v, FracineqError) else -0.5 * v
                    for v in values]


def trapezoid_defect(f, interval: Interval, alpha: float,
                     quad_tol: float = DEFAULT_QUAD_TOL) -> DefectResult:
    """Compute the trapezoid defect as the Beta(alpha, 1) expectation of the
    module docstring; |total error| <= quad_tol."""
    alpha = check_alpha(alpha)
    quad_tol = _check_abs_tol(quad_tol, "quad_tol")
    fa, fb, (lhs,) = _defects(f, interval, (alpha,), quad_tol)
    return DefectResult(lhs=_outcome_value(lhs), quad_tol_used=quad_tol,
                        fa=fa, fb=fb, alpha=alpha, interval=interval)


def _rhs_weight(t: float, alpha: float) -> float:
    """t (1 - t^alpha) at one point, in the form of the ladder's rows."""
    return t * -math.expm1(alpha * math.log(t))


def _identity_rhs(f: TestFunction, interval: Interval, alphas,
                  quad_tol: float) -> list[float | FracineqError]:
    """The weighted curvature integral equal to the trapezoid defect at
    every order of ``alphas``, or the error that stopped that order alone;
    f'' is read once for all orders."""
    a, b = interval.a, interval.b
    d2 = f.d2
    width2 = _width_squared(interval)
    coeffs = [0.5 * width2 / (alpha + 1.0) for alpha in alphas]
    # coeff underflows to 0 only where the rhs lies below the smallest double
    tols = [_engine_tol(quad_tol / coeff) if coeff > 0.0 else MAX_ABS_TOL
            for coeff in coeffs]
    # the second point (1-t) a + t b at node t is the first at the mirrored
    # node 1-t
    d2v = _eval_grid(d2, TANH_SINH.nodes * a + TANH_SINH.complements * b)

    def weighted(r: int) -> Callable[[float], float]:
        alpha = alphas[r]
        # an error of f'' names its point, not t
        return lambda t: _rhs_weight(t, alpha) * (
            _point_value(d2, t * a + (1.0 - t) * b)
            + _point_value(d2, (1.0 - t) * a + t * b))

    weights = _order_rows(tuple(alphas))[1]
    values = _ladder_rows(weights * (d2v + d2v[::-1]), tols, weighted)
    return [v if isinstance(v, FracineqError) else coeff * v
            for v, coeff in zip(values, coeffs)]


def defect_identity_rhs(f: TestFunction, interval: Interval, alpha: float,
                        quad_tol: float = DEFAULT_QUAD_TOL) -> float:
    """Weighted curvature integral equal to the trapezoid defect."""
    alpha = check_alpha(alpha)
    quad_tol = _check_abs_tol(quad_tol, "quad_tol")
    return _outcome_value(_identity_rhs(f, interval, (alpha,), quad_tol)[0])


def _sandwiches(fv, interval: Interval, s_values, quad_tol: float
                ) -> list[SandwichResult | FracineqError]:
    """The sandwich of f (values ``fv``) on ``interval`` at each s of
    ``s_values``, in their order, or the error that stopped it.

    f's s-convexity gate is judged at each distinct s from the largest
    down (Hudzik and Maligranda 1994): where it passes at s, every smaller
    s inherits the pass with no further call when f's values on the
    certification grid's nodes are finite and >= 0 and the grid's weights
    lam^s, as the certifier computes them, rise element by element as s
    falls; then each combination, and each verdict, is the one a call at
    the smaller s computes (see :func:`~fracineq.funclib.channel_verdicts`).
    Where the gate fails, or a condition does not hold, the next s is
    judged by its own call.  At the first pass f is read on the nodes,
    ``np.linspace(a, b, n)``, the grid's nodes bit for bit, which the gate
    has read finite; that read serves the inheritance check and the
    sandwich's f >= 0 check, and the terms that depend on no s (f(a),
    f(b), the mean, one ``integrate`` call, and f(mid)) are computed once
    from there.  An error there stops every s whose gate passes."""
    outcomes, terms = {}, None
    # floats, as the certifier raises lam to them
    order = sorted(dict.fromkeys(map(float, s_values)), reverse=True)
    for i, s in enumerate(order):
        try:
            _hypothesis(fv, interval, s, False, "f")
        except FracineqError as exc:
            outcomes[s] = exc
            continue
        if terms is None:
            nodes = _eval_grid(fv, np.linspace(interval.a, interval.b,
                                               CERT_GRID_N))
            try:
                if not _holds(nodes, 0.0, True).all():
                    raise PreconditionError(
                        f"f must be nonnegative on the interval; min sampled value {nodes.min()}")
                fa = _point_value(fv, interval.a)
                fb = _point_value(fv, interval.b)
                mean = integrate(fv, interval, abs_tol=_engine_tol(
                    quad_tol * interval.length)).value / interval.length
                terms = fa, fb, _point_value(fv, interval.midpoint), mean
            except FracineqError as exc:
                terms = exc
        outcomes[s] = terms
        below = order[i:]
        if len(below) > 1 and _nests(nodes, _grid_tables(tuple(below))[1]):
            outcomes.update(dict.fromkeys(below[1:], terms))
            break
    results = []
    for s in s_values:
        outcome = outcomes[s]
        if isinstance(outcome, FracineqError):
            results.append(outcome)
            continue
        fa, fb, f_mid, mean = outcome
        results.append(SandwichResult(lower=2.0 ** (s - 1.0) * f_mid,
                                      mean=mean, upper=(fa + fb) / (s + 1.0),
                                      upper_classical=0.5 * (fa + fb)))
    return results


def s_convex_sandwich(f, interval: Interval, s: float,
                      quad_tol: float = DEFAULT_QUAD_TOL) -> SandwichResult:
    """Sandwich 2^(s-1) f(mid) <= mean(f) <= (f(a)+f(b))/(s+1).

    Requires f >= 0 and s-convex (certified on the interval); the interval
    must start at a >= 0.
    """
    s = _check_s(s)
    quad_tol = _check_abs_tol(quad_tol, "quad_tol")
    return _outcome_value(_sandwiches(value_fn(f), interval, (s,), quad_tol)[0])


def _s_convex_factors(params: BoundParams) -> tuple[float, ...]:
    """2 (alpha+1), and the closed form of the weight bracket
    int_0^1 t^(s+1)(1-t^alpha) dt + int_0^1 t(1-t^alpha)(1-t)^s dt."""
    alpha, s = params.alpha, params.s
    return 2.0 * (alpha + 1.0), (alpha / ((s + 2.0) * (alpha + s + 2.0))
                                 + beta(2.0, s + 1.0)
                                 - beta(alpha + 2.0, s + 1.0))


def _s_convex_combine(width2: float, curvature: _Curvatures,
                      factors: tuple[float, ...]) -> float:
    scale, bracket = factors
    second = curvature["a", 1.0] + curvature["b", 1.0]
    return width2 / scale * bracket * second


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


def _holder_factors(params: BoundParams) -> tuple[float, ...]:
    alpha, q = params.alpha, params.q
    return (q, alpha + 1.0, _beta_root(params.p, alpha), params.s + 1.0,
            1.0 / q)


def _holder_combine(width2: float, curvature: _Curvatures,
                    factors: tuple[float, ...]) -> float:
    """(b-a)^2 / (alpha+1) * beta(p+1, alpha p + 1)^(1/p) times the q-mean
    of |f''| at a and b over ``scale`` (s+1)."""
    q, alpha1, root, scale, inv_q = factors
    mean = (curvature["a", q] + curvature["b", q]) / scale
    return width2 / alpha1 * root * mean ** inv_q


def _power_mean_factors(params: BoundParams) -> tuple[float, ...]:
    alpha, s, q = params.alpha, params.s, params.q
    w1 = (2.0 * alpha + 4.0) / ((s + 2.0) * (alpha + s + 2.0))
    w2 = ((beta(2.0, s + 1.0) - beta(alpha + 2.0, s + 1.0))
          * (2.0 * alpha + 4.0) / alpha)
    return q, alpha, 4.0 * (alpha + 1.0) * (alpha + 2.0), w1, w2, 1.0 / q


def _power_mean_combine(width2: float, curvature: _Curvatures,
                        factors: tuple[float, ...]) -> float:
    """alpha (b-a)^2 / (4 (alpha+1) (alpha+2)), the power-mean scale, times
    the two weighted q-means of |f''| at a and b."""
    q, alpha, scale, w1, w2, inv_q = factors
    lead = alpha * width2 / scale
    if not math.isfinite(lead):
        # alpha (b-a)^2 overflowed although the quotient does not
        lead = width2 * (alpha / scale)
    av, bv = curvature["a", q], curvature["b", q]
    return lead * ((av * w1 + bv * w2) ** inv_q + (av * w2 + bv * w1) ** inv_q)


def _s_concave_factors(params: BoundParams) -> tuple[float, ...]:
    return (params.alpha + 1.0, _beta_root(params.p, params.alpha),
            2.0 ** ((params.s - 1.0) / params.q))


def _s_concave_combine(width2: float, curvature: _Curvatures,
                       factors: tuple[float, ...]) -> float:
    alpha1, root, scale = factors
    return width2 / alpha1 * root * scale * curvature["midpoint", 1.0]


class BoundCheck(NamedTuple):
    """One bound row of the README check table: it holds where |f''| (q
    None) or |f''|^q is s-concave if ``concave``, else s-convex.  q is
    p/(p-1) for each p (``q_from="conjugate"``), each of ``q_values``, or
    None.  ``factors(params)`` makes the closed form's numbers that depend
    on the parameters alone, and ``combine(width2, curvature, factors)``
    the bound on one interval from its (b-a)^2 and :class:`_Curvatures`,
    in the closed form's order of float operations.  Above ``alpha_max``
    the bound is computed but not claimed."""

    check_id: str
    q_from: str | None
    concave: bool
    factors: Callable[[BoundParams], tuple[float, ...]]
    combine: Callable[[float, _Curvatures, tuple[float, ...]], float]
    alpha_max: float = math.inf

    def formula(self, f: TestFunction, interval: Interval,
                params: BoundParams) -> float:
        """The closed form on ``interval``, ungated."""
        return self.combine(_width_squared(interval), _Curvatures(f, interval),
                            self.factors(params))


BOUND_CHECKS = (
    BoundCheck("bound_s_convex", None, False, _s_convex_factors,
               _s_convex_combine),
    BoundCheck("bound_holder", "conjugate", False, _holder_factors,
               _holder_combine, alpha_max=HOLDER_VALID_ALPHA_MAX),
    BoundCheck("bound_power_mean", "q_values", False, _power_mean_factors,
               _power_mean_combine),
    BoundCheck("bound_s_concave", "conjugate", True, _s_concave_factors,
               _s_concave_combine, alpha_max=HOLDER_VALID_ALPHA_MAX),
)
_S_CONVEX, _HOLDER, _POWER_MEAN, _S_CONCAVE = BOUND_CHECKS


def _bound(check: BoundCheck, f: TestFunction, interval: Interval,
           params: BoundParams, certify: bool) -> float:
    """``check.formula``, after certifying its hypothesis if ``certify``."""
    if check.q_from == "conjugate" and params.p is None:
        raise DomainError(f"{check.check_id} requires p > 1 in params")
    if check.q_from == "q_values" and params.q is None:
        raise DomainError(f"{check.check_id} requires q >= 1 in params")
    if certify:
        q = params.q
        what = "|f''|" if q is None else f"|f''|^{q:g}"
        _hypothesis(abs_d2(f, q), interval, params.s, check.concave, what)
    return check.formula(f, interval, params)


def defect_bound_s_convex(f: TestFunction, interval: Interval, alpha: float,
                          s: float, certify: bool = True) -> float:
    """Bound on |defect| when |f''| is s-convex (valid for every alpha > 0)."""
    return _bound(_S_CONVEX, f, interval, BoundParams(alpha, s), certify)


def defect_bound_holder(f: TestFunction, interval: Interval,
                        params: BoundParams, certify: bool = True) -> float:
    """Hoelder-route bound when |f''|^q is s-convex (q conjugate to p).

    The kernel comparison behind it holds for alpha <= 1; callers decide
    how to treat larger orders.
    """
    return _bound(_HOLDER, f, interval, params, certify)


def defect_bound_power_mean(f: TestFunction, interval: Interval, alpha: float,
                            s: float, q: float, certify: bool = True) -> float:
    """Power-mean-route bound when |f''|^q is s-convex, q >= 1 (any alpha)."""
    return _bound(_POWER_MEAN, f, interval, BoundParams(alpha, s, q=q),
                  certify)


def defect_bound_s_concave(f: TestFunction, interval: Interval,
                           params: BoundParams, certify: bool = True) -> float:
    """Midpoint bound when |f''|^q is s-concave (q conjugate to p).

    Shares the alpha <= 1 kernel-comparison caveat with the Hoelder bound.
    """
    return _bound(_S_CONCAVE, f, interval, params, certify)


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
    curvature = _Curvatures(f, interval)
    second = 0.5 * (curvature["a", 1.0] + curvature["b", 1.0])
    return (_width_squared(interval) / (alpha + 1.0) * beta(2.0, alpha + 1.0)
            * second)


def classical_holder_bound(f: TestFunction, interval: Interval, alpha: float,
                           p: float) -> float:
    """Baseline Hoelder bound for convex |f''|^q, q = p/(p-1): the q-mean
    of |f''| at a and b over 2."""
    alpha, p = _check_bound_alpha(alpha), _check_p(p)
    q = p / (p - 1.0)
    return _holder_combine(_width_squared(interval), _Curvatures(f, interval),
                           (q, alpha + 1.0, _beta_root(p, alpha), 2.0, 1.0 / q))


def classical_power_mean_bound(f: TestFunction, interval: Interval,
                               alpha: float, q: float) -> float:
    """Baseline power-mean bound for convex |f''|^q, q >= 1, with the
    weights (2 alpha + 4) / (3 alpha + 9) and (alpha + 5) / (3 alpha + 9)."""
    alpha, q = _check_bound_alpha(alpha), _check_q(q)
    w1 = (2.0 * alpha + 4.0) / (3.0 * alpha + 9.0)
    w2 = (alpha + 5.0) / (3.0 * alpha + 9.0)
    return _power_mean_combine(
        _width_squared(interval), _Curvatures(f, interval),
        (q, alpha, 4.0 * (alpha + 1.0) * (alpha + 2.0), w1, w2, 1.0 / q))


def classical_concave_bound(f: TestFunction, interval: Interval, alpha: float,
                            p: float) -> float:
    """Baseline midpoint bound for concave |f''|^q, q = p/(p-1): |f''| at
    the midpoint, unscaled."""
    alpha, p = _check_bound_alpha(alpha), _check_p(p)
    return _s_concave_combine(_width_squared(interval),
                              _Curvatures(f, interval),
                              (alpha + 1.0, _beta_root(p, alpha), 1.0))


# ---------------------------------------------------------------------------
# quadrature-vs-closed-form checks for the weight integrals


class WeightIntegralEntry(NamedTuple):
    check_id: str
    lhs: float          # quadrature value
    rhs: float          # closed form / upper bound
    margin: float       # rhs - lhs (inequality) or -|lhs - rhs| (identity)
    holds: bool
    in_validated_range: bool


class WeightIntegralReport(NamedTuple):
    alpha: float
    s: float
    p: float
    entries: tuple[WeightIntegralEntry, ...]

    @property
    def all_hold(self) -> bool:
        return all(e.holds for e in self.entries if e.in_validated_range)


def _weight_form(check_id: str, alpha: float | None, s: float | None,
                 p: float | None) -> tuple[Callable[[float], float], float,
                                           bool, bool]:
    """The engine integrand of one weight integral, in the form of its
    ladder row, and the last three fields of its row of
    :func:`_weight_integrals`."""
    if check_id == "weight_int_power":
        return (lambda t: t ** s * _rhs_weight(t, alpha),
                alpha / ((s + 2.0) * (alpha + s + 2.0)), True, True)
    if check_id == "weight_int_beta":
        return (lambda t: (1.0 - t) ** s * _rhs_weight(t, alpha),
                beta(2.0, s + 1.0) - beta(alpha + 2.0, s + 1.0), True, True)
    if check_id == "weight_int_plain":
        return lambda t: t ** s, 1.0 / (s + 1.0), True, True
    return (lambda t: _rhs_weight(t, alpha) ** p,
            math.exp(_log_holder_beta(p, alpha)),
            alpha <= HOLDER_VALID_ALPHA_MAX, False)


def _weight_integrals(alphas, s_values, p_values, quad_tol: float
                      ) -> list[tuple]:
    """Every weight integral at every order of ``alphas``, by quadrature to
    the absolute tolerance ``quad_tol``, one row each: (check id, alpha, s,
    p, the integral or the error that stopped it alone, the closed form,
    whether that is claimed at this order, whether the check is an
    identity), None for a parameter the check does not take; the Hoelder
    kernel's closed form is its bound, lhs <= rhs.  The rows come in batch
    order, repeated values repeated: per s, the power row of every order,
    the beta row of every order, then the plain row; per p, the kernel row
    of every order."""
    quad_tol = _check_abs_tol(quad_tol, "quad_tol")
    # Python floats, for the engine integrands and the rows' parameters
    alphas = tuple(np.asarray(alphas, dtype=float).tolist())
    weights = _order_rows(alphas)[1]
    rows = []

    def ladder(keys: list[tuple], values: np.ndarray) -> None:
        forms = [_weight_form(*key) for key in keys]
        lhs = _ladder_rows(values, [quad_tol] * len(keys),
                           lambda r: forms[r][0])
        rows.extend((*key, v, *form[1:])
                    for key, v, form in zip(keys, lhs, forms))

    for s in s_values:
        powers = TANH_SINH.nodes ** s
        ladder([("weight_int_power", alpha, s, None) for alpha in alphas]
               + [("weight_int_beta", alpha, s, None) for alpha in alphas]
               + [("weight_int_plain", None, s, None)],
               np.vstack((powers * weights,
                          TANH_SINH.complements ** s * weights, powers)))
    for p in p_values:
        ladder([("holder_kernel_bound", alpha, None, p) for alpha in alphas],
               weights ** p)
    return rows


def weight_integral_report(alpha: float, s: float, p: float,
                           tol: float = 1e-9,
                           quad_tol: float = DEFAULT_QUAD_TOL) -> WeightIntegralReport:
    """Verify the closed forms of all four bound-weight integrals by
    quadrature (:func:`_weight_form`), each judged with the slack ``tol``:
    the identities ``weight_int_power``, ``weight_int_beta`` and
    ``weight_int_plain`` (any alpha > 0) and the inequality
    ``holder_kernel_bound``.  ``entries`` holds one entry per check id, in
    that order; it is the one call for any of them.  An error that stopped
    an integral is raised."""
    alpha, s, p = _check_bound_alpha(alpha), _check_s(s), _check_p(p)
    tol = _check_slack(tol)
    entries = []
    for check_id, _, _, _, outcome, rhs, in_range, identity in \
            _weight_integrals((alpha,), (s,), (p,), quad_tol):
        lhs = _outcome_value(outcome)
        margin = -abs(lhs - rhs) if identity else rhs - lhs
        entries.append(WeightIntegralEntry(check_id, lhs, rhs, margin,
                                           margin >= -tol, in_range))
    return WeightIntegralReport(alpha=alpha, s=s, p=p, entries=tuple(entries))
