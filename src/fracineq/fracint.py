"""Left and right Riemann-Liouville fractional integral operators.

For order alpha > 0,

    left  J_{a+}^alpha f(x) = (1/Gamma(alpha)) int_a^x (x-t)^(alpha-1) f(t) dt
    right J_{b-}^alpha f(x) = (1/Gamma(alpha)) int_x^b (t-x)^(alpha-1) f(t) dt

At alpha = 1 both reduce to the ordinary integral.  For alpha < 1 the
kernel is an algebraic endpoint singularity at x.  The operator is then
split as

    f(x) d^alpha / Gamma(alpha+1)
        + (1/Gamma(alpha)) int |x-t|^(alpha-1) (f(t) - f(x)) dt

with d the length of the range: the first term is the kernel's integral
in closed form, and the second integrand vanishes at x.  It is declared
to the quadrature engine with its regular part supplied directly, so the
kernel power is never reconstructed from a cancelling subtraction, and
with the substitution power held at
:data:`~fracineq.quadrature.MIN_SUBSTITUTION_POWER` or more, so that
tiny orders such as 1e-5 are resolved.  For alpha > 1 the kernel is
bounded and no tag is needed.

Orders alpha = 0 are rejected: the identity-operator convention
J^0 f = f is documented but not implemented as an order value.
:func:`~fracineq.specfun.check_alpha` validates the order.
"""

from __future__ import annotations

from typing import Callable

from .errors import DomainError
from .quadrature import (
    MIN_SUBSTITUTION_POWER,
    EndpointSingularity,
    Integrand,
    Interval,
    _engine_tol,
    integrate,
)
from .specfun import check_alpha, gamma

__all__ = ["left_rl", "right_rl", "check_alpha", "Interval"]

DEFAULT_ABS_TOL = 1e-10


def _value_fn(f) -> Callable[[float], float]:
    """Accept either a plain callable or a catalog TestFunction."""
    fn = getattr(f, "fn", None)
    if fn is not None and callable(fn):
        return fn
    if callable(f):
        return f
    raise DomainError(f"f must be callable or carry a .fn channel, got {type(f)!r}")


def _rl(f, alpha: float, lo: float, hi: float, side: str,
        abs_tol: float) -> float:
    """(1/Gamma(alpha)) int_lo^hi |x - t|^(alpha-1) f(t) dt, where x is the
    ``side`` end of [lo, hi]: ``hi`` for the left operator, ``lo`` for the
    right one."""
    alpha = check_alpha(alpha)
    fv = _value_fn(f)
    try:
        g = gamma(alpha)
        # the kernel's largest value, reached towards the far end of [lo, hi]
        (hi - lo) ** (alpha - 1.0)
    except OverflowError as exc:
        raise DomainError(f"fractional order alpha={alpha} on [{lo}, {hi}] is "
                          "beyond the range where Gamma(alpha) and the kernel "
                          "|x - t|^(alpha-1) are finite doubles") from exc
    x, sign = (hi, 1.0) if side == "right" else (lo, -1.0)
    span = Interval(lo, hi)
    tol = _engine_tol(abs_tol * g)
    if alpha == 1.0:
        return integrate(fv, span, abs_tol=tol).value
    if alpha > 1.0:
        # sign * (x - t) is the distance |x - t|, exactly
        return integrate(lambda t: (sign * (x - t)) ** (alpha - 1.0) * fv(t),
                         span, abs_tol=tol).value / g

    # the split of the module docstring
    fx = float(fv(x))
    power = max(alpha, MIN_SUBSTITUTION_POWER)

    def regular(t: float, d: float) -> float:
        # d^(alpha-1) (f(t) - f(x)) = d^(power-1) * regular(t, d)
        return (fv(t) - fx) * d ** (alpha - power) if d > 0.0 else 0.0

    rest = integrate(
        Integrand(fn=lambda t: (sign * (x - t)) ** (alpha - 1.0) * (fv(t) - fx),
                  singularity=EndpointSingularity(side, power - 1.0, regular)),
        span, abs_tol=tol)
    return fx * (hi - lo) ** alpha / gamma(alpha + 1.0) + rest.value / g


def left_rl(f, alpha: float, a: float, x: float,
            abs_tol: float = DEFAULT_ABS_TOL) -> float:
    """J_{a+}^alpha f(x) for x > a, to absolute tolerance ``abs_tol``."""
    if not x > a:
        raise DomainError(f"left operator requires x > a, got a={a}, x={x}")
    return _rl(f, alpha, a, x, "right", abs_tol)


def right_rl(f, alpha: float, b: float, x: float,
             abs_tol: float = DEFAULT_ABS_TOL) -> float:
    """J_{b-}^alpha f(x) for x < b, to absolute tolerance ``abs_tol``."""
    if not x < b:
        raise DomainError(f"right operator requires x < b, got b={b}, x={x}")
    return _rl(f, alpha, x, b, "left", abs_tol)
