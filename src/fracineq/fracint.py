"""Left and right Riemann-Liouville fractional integral operators.

For order alpha > 0,

    left  J_{a+}^alpha f(x) = (1/Gamma(alpha)) int_a^x (x-t)^(alpha-1) f(t) dt
    right J_{b-}^alpha f(x) = (1/Gamma(alpha)) int_x^b (t-x)^(alpha-1) f(t) dt

At alpha = 1 both reduce to the ordinary integral.  For alpha < 1 the
kernel is an algebraic endpoint singularity and is declared to the
quadrature engine (with its regular part f supplied directly, so the
kernel power is never reconstructed from a cancelling subtraction); for
alpha >= 1 the kernel is bounded and no tag is needed.

Orders alpha = 0 are rejected: the identity-operator convention
J^0 f = f is documented but not implemented as an order value.
:func:`check_alpha` is the one validator of the order for the package.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import DomainError
from .quadrature import (
    EndpointSingularity,
    Integrand,
    Interval,
    _engine_tol,
    integrate,
)
from .specfun import gamma

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


def check_alpha(alpha: float) -> float:
    """Return alpha as a float if it is finite and > 0, else raise
    :class:`DomainError`."""
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise DomainError(f"fractional order alpha must be finite and > 0, got {alpha}")
    return alpha


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

    def kernel_f(t: float) -> float:
        # sign * (x - t) is the distance |x - t|, exactly
        return (sign * (x - t)) ** (alpha - 1.0) * fv(t)

    if alpha == 1.0:
        integrand = Integrand(fn=fv)
    elif alpha < 1.0:
        integrand = Integrand(
            fn=kernel_f,
            singularity=EndpointSingularity(
                side=side, exponent=alpha - 1.0,
                regular_part=lambda t, d: fv(t)),
        )
    else:
        integrand = Integrand(fn=kernel_f)

    res = integrate(integrand, Interval(lo, hi), abs_tol=_engine_tol(abs_tol * g))
    return res.value / g


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
