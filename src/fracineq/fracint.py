"""Left and right Riemann-Liouville fractional integral operators.

For order alpha > 0,

    left  J_{a+}^alpha f(x) = (1/Gamma(alpha)) int_a^x (x-t)^(alpha-1) f(t) dt
    right J_{b-}^alpha f(x) = (1/Gamma(alpha)) int_x^b (t-x)^(alpha-1) f(t) dt

At alpha = 1 both reduce to the ordinary integral.  With d the length of
the range and t = x -+ d u, each is one expectation under U ~ Beta(alpha, 1):

    J f(x) = d^alpha / Gamma(alpha+1) * [f(x) + E[f(x -+ d U) - f(x)]]

The first term is the kernel's integral in closed form; the expectation's
integrand vanishes at u = 0, where the kernel is singular for alpha < 1,
and :func:`~fracineq.quadrature.beta_expectation` computes it for every
order, tiny orders such as 1e-5 included.  f is evaluated at
x -+ d * ``TANH_SINH.nodes``, so the points nearest the singular end x
are exact.

Orders alpha = 0 are rejected: the identity-operator convention
J^0 f = f is documented but not implemented as an order value.
:func:`~fracineq.specfun.check_alpha` validates the order.
"""

from __future__ import annotations

from .errors import DomainError
from .funclib import Interval, _eval_grid, _point_value, value_fn
from .quadrature import (
    DEFAULT_QUAD_TOL,
    MAX_ABS_TOL,
    TANH_SINH,
    _check_abs_tol,
    _engine_tol,
    _outcome_value,
    beta_expectation,
)
from .specfun import check_alpha, gamma

__all__ = ["left_rl", "right_rl", "check_alpha", "Interval"]


def _rl(f, alpha: float, lo: float, hi: float, sign: float,
        abs_tol: float) -> float:
    """(1/Gamma(alpha)) int_lo^hi |x - t|^(alpha-1) f(t) dt, where x is
    ``lo`` for ``sign`` = 1 (the right operator) and ``hi`` for
    ``sign`` = -1 (the left one)."""
    alpha = check_alpha(alpha)
    abs_tol = _check_abs_tol(abs_tol)
    fv = value_fn(f)
    d = Interval(lo, hi).length
    try:
        g = gamma(alpha)
        # the kernel at the far end of [lo, hi], its largest value for
        # alpha > 1
        kernel = d ** (alpha - 1.0)
    except OverflowError as exc:
        raise DomainError(f"fractional order alpha={alpha} on [{lo}, {hi}] is "
                          "beyond the range where Gamma(alpha) and the kernel "
                          "|x - t|^(alpha-1) are finite doubles") from exc
    x = lo if sign > 0.0 else hi
    step = sign * d
    # d^alpha / Gamma(alpha+1), without forming Gamma(alpha+1), which
    # overflows for orders where Gamma(alpha) does not
    scale = kernel / g * (d / alpha)
    tol = _engine_tol(abs_tol / scale) if scale > 0.0 else MAX_ABS_TOL
    fx = _point_value(fv, x, "x={}")

    def shifted(u: float) -> float:
        # an error of f names its point t, not u
        t = min(max(x + step * u, lo), hi)
        return _point_value(fv, t) - fx

    points = (x + step * TANH_SINH.nodes).clip(lo, hi)
    (rest,) = beta_expectation(_eval_grid(fv, points) - fx, shifted,
                               (alpha,), (tol,))
    return scale * (fx + _outcome_value(rest))


def left_rl(f, alpha: float, a: float, x: float,
            abs_tol: float = DEFAULT_QUAD_TOL) -> float:
    """J_{a+}^alpha f(x) for x > a, to absolute tolerance ``abs_tol``."""
    if not x > a:
        raise DomainError(f"left operator requires x > a, got a={a}, x={x}")
    return _rl(f, alpha, a, x, -1.0, abs_tol)


def right_rl(f, alpha: float, b: float, x: float,
             abs_tol: float = DEFAULT_QUAD_TOL) -> float:
    """J_{b-}^alpha f(x) for x < b, to absolute tolerance ``abs_tol``."""
    if not x < b:
        raise DomainError(f"right operator requires x < b, got b={b}, x={x}")
    return _rl(f, alpha, x, b, 1.0, abs_tol)
