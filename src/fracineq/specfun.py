"""Gamma and Beta special functions on positive real arguments.

Everything downstream (fractional-integral normalisation, the closed-form
bound coefficients) funnels through these functions, and every fractional
order through :func:`check_alpha`.  ``gamma`` and ``beta`` are evaluated
from a Lanczos approximation of log-Gamma; ``beta`` always goes through
logs so that large arguments such as ``beta(p + 1, alpha*p + 1)`` at
p = 20 do not overflow.  Once the larger argument x reaches
:data:`_STIRLING_MIN`, ``log_beta`` takes log Gamma(x) - log Gamma(x+y)
from Stirling's series as one small quantity instead of the difference of
two large logs, which at x = 1e17 would have cancelled every digit.

Accuracy: relative error <= ~2e-13 for ``gamma`` on (0, 170], verified
against 40-digit references; the package contract is 1e-12.
"""

from __future__ import annotations

import functools
import math

from .errors import DomainError

__all__ = ["gamma", "log_gamma", "beta", "log_beta", "check_alpha"]

# Lanczos coefficients, g = 607/128, 15 terms (Godfrey's set).  Chosen over
# the shorter g = 7 set because the recurrence/symmetry suites demand 1e-12
# relative accuracy across (0, 170].
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEF = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    3.3994649984811888699e-5,
    4.6523628927048575665e-5,
    -9.8374475304879564677e-5,
    1.5808870322491248884e-4,
    -2.1026444172410488319e-4,
    2.1743961811521264320e-4,
    -1.6431810653676389022e-4,
    8.4418223983852743293e-5,
    -2.6190838401581408670e-5,
    3.6899182659531622704e-6,
)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _require_positive(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"{name} must be a finite positive real, got {x!r}")
    return x


def check_alpha(alpha: float) -> float:
    """Return the fractional order alpha as a float if it is finite and
    > 0, else raise :class:`DomainError`; the one validator of the order
    for the package."""
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise DomainError(f"fractional order alpha must be finite and > 0, got {alpha}")
    return alpha


def _log_gamma_core(x: float) -> float:
    # Lanczos series; accurate for x >= 0.5.
    acc = _LANCZOS_COEF[0]
    for k in range(1, len(_LANCZOS_COEF)):
        acc += _LANCZOS_COEF[k] / (x + k - 1.0)
    t = x + _LANCZOS_G - 0.5
    return _LOG_SQRT_2PI + (x - 0.5) * math.log(t) - t + math.log(acc)


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    return _log_gamma(_require_positive("x", x))


# log_gamma and log_beta keep their results by validated argument: a sweep
# asks for a few dozen distinct arguments thousands of times, and the bound
# keeps a long run of distinct ones from growing the cache without limit
@functools.lru_cache(maxsize=4096)
def _log_gamma(x: float) -> float:
    if x < 0.5:
        # shift into the accurate range:
        # log Gamma(x) = log Gamma(x+1) - log x
        return _log_gamma_core(x + 1.0) - math.log(x)
    return _log_gamma_core(x)


def gamma(x: float) -> float:
    """Gamma(x) for x > 0; overflows to inf above x ~ 171.6."""
    return math.exp(log_gamma(x))


# log_beta switches to Stirling's series for log Gamma(x) - log Gamma(x+y)
# when the larger argument x reaches this.  The series' first omitted term
# is below 1e-17 there, while the Lanczos difference loses about
# eps * log Gamma(x), already 1e-14 at x = 100.
_STIRLING_MIN = 20.0


def _stirling_remainder(z: float) -> float:
    # log Gamma(z) - [(z - 1/2) ln z - z + ln sqrt(2 pi)] for z at least
    # _STIRLING_MIN: the series sum B_2k / (2k (2k-1) z^(2k-1)) to k = 5
    r = 1.0 / z
    r2 = r * r
    return r * (1.0 / 12.0 + r2 * (-1.0 / 360.0 + r2 * (
        1.0 / 1260.0 + r2 * (-1.0 / 1680.0 + r2 / 1188.0))))


def _log_gamma_ratio(x: float, y: float) -> float:
    """log Gamma(x) - log Gamma(x + y) for x >= _STIRLING_MIN and y > 0.

    From Stirling's series with L = log1p(y/x):
    -y ln x - (x + y - 1/2) L + y plus the difference of the remainders.
    For x >> y the terms (x + y - 1/2) L and y nearly cancel, but both are
    only about y, so the absolute error stays near eps * y ln x.
    """
    return (y - y * math.log(x) - (x + y - 0.5) * math.log1p(y / x)
            + _stirling_remainder(x) - _stirling_remainder(x + y))


def log_beta(x: float, y: float) -> float:
    """log of Beta(x, y) = Gamma(x)Gamma(y)/Gamma(x+y), x, y > 0."""
    return _log_beta(_require_positive("x", x), _require_positive("y", y))


@functools.lru_cache(maxsize=4096)
def _log_beta(x: float, y: float) -> float:
    if max(x, y) < _STIRLING_MIN:
        return _log_gamma(x) + _log_gamma(y) - _log_gamma(x + y)
    small, large = sorted((x, y))
    return _log_gamma(small) + _log_gamma_ratio(large, small)


def beta(x: float, y: float) -> float:
    """Euler Beta function Beta(x, y) = int_0^1 t^(x-1) (1-t)^(y-1) dt."""
    return math.exp(log_beta(x, y))
