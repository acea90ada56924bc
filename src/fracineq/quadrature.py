"""Adaptive Gauss-Legendre quadrature on finite intervals.

The engine is a fixed 21-point Gauss-Legendre panel rule with globally
adaptive bisection: the panel with the worst two-level error estimate is
split until the summed estimate meets the requested absolute tolerance or
the roundoff floor ``50 * eps * integral of |f|`` (QUADPACK's roundoff
scale, Piessens et al. 1983), whichever is larger.  Below that floor the
two-level estimate measures only rounding, so the engine stops there and
reports the floor as its error estimate; the reported estimate is never
below the floor.  Values and error estimates are exact ``math.fsum``
totals over the panels.  Integrands are plain callables.

Integrals over [0, 1] of integrands that can be evaluated on a whole
array at once have a faster path: :data:`TANH_SINH`, nested tanh-sinh
rules (Takahasi & Mori, Publ. RIMS 9, 1974) of 13, 25, 51, 101 and 201
nodes, built once at import.  The double-exponential substitution handles
algebraic behaviour at both ends of [0, 1], and no node depends on the
integrand.  :meth:`TanhSinhLadder.estimate` sums a batch of integrands,
one row each, in one pass, and accepts a row's level sum only when
``|Q_j - Q_(j-1)| + n_j * eps * sum |w_i g_i|`` meets that row's
tolerance: the difference from the previous level estimates the
truncation error, the second term the rounding of the sum.  A level
refused by that worst-case rounding term alone is summed again exactly
(``math.fsum``) and charged ``eps * sum |w_i g_i|`` plus one ulp.  A row
where no level passes, or a node value is not finite, gets None.  Each
row is the same elementwise arithmetic and the same sum as alone, so its
result does not depend on the other rows.

A batch of orders takes one path, ``_ladder_rows``: one ladder pass, then
:func:`integrate` for each row the ladder refuses, and one outcome per
row, its value or the error that stopped it.  It serves the identity rhs,
the weight integrals of the bounds, and :func:`beta_expectation`, the one
Beta(alpha, 1) expectation behind the trapezoid defect and the
Riemann-Liouville operators, which bounds the density's singularity at
u = 0 by a substitution before the engine.  The density and rhs weight
rows are built once per tuple of orders.
"""

from __future__ import annotations

import functools
import math
from heapq import heappush, heapreplace
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    SCALAR_ERRORS,
    AccuracyError,
    DomainError,
    FracineqError,
    IntegrandError,
)

__all__ = [
    "Interval",
    "QuadResult",
    "integrate",
    "TANH_SINH",
    "TanhSinhLadder",
    "beta_expectation",
]

PANEL_ORDER = 21
# (node, weight) pairs of the 21-point Gauss-Legendre rule on [-1, 1], the
# bits of numpy.polynomial.legendre.leggauss(21): written out so that no
# process pays for importing numpy.polynomial
_GAUSS_LEGENDRE_21 = (
    (-0.9937521706203895, 0.01601722825777436),
    (-0.9672268385663063, 0.03695378977085188),
    (-0.9200993341504008, 0.05713442542685717),
    (-0.8533633645833173, 0.07610011362837911),
    (-0.7684399634756779, 0.09344442345603395),
    (-0.6671388041974123, 0.1087972991671484),
    (-0.5516188358872198, 0.12183141605372864),
    (-0.4243421202074388, 0.13226893863333763),
    (-0.2880213168024011, 0.1398873947910734),
    (-0.1455618541608951, 0.14452440398997027),
    (0.0, 0.1460811336496907),
    (0.1455618541608951, 0.14452440398997027),
    (0.2880213168024011, 0.1398873947910734),
    (0.4243421202074388, 0.13226893863333763),
    (0.5516188358872198, 0.12183141605372864),
    (0.6671388041974123, 0.1087972991671484),
    (0.7684399634756779, 0.09344442345603395),
    (0.8533633645833173, 0.07610011362837911),
    (0.9200993341504008, 0.05713442542685717),
    (0.9672268385663063, 0.03695378977085188),
    (0.9937521706203895, 0.01601722825777436),
)
_NODES = tuple(x for x, _ in _GAUSS_LEGENDRE_21)
_WEIGHTS = tuple(w for _, w in _GAUSS_LEGENDRE_21)

DEFAULT_MAX_EVALS = 1_000_000
MIN_ABS_TOL = 1e-14
MAX_ABS_TOL = 1e-2
# The smallest substitution power v = u^power worth using on an integrand
# that vanishes at its singular endpoint u = 0.  The substitution squeezes
# the top half of the range of u into the top power * ln 2 of the range of
# v; at this power that strip is ten times the gap between the first
# panels' top nodes (about 0.003 of the range).  With power = 1e-5 it is far
# narrower, no node samples where the integrand varies, and the integral
# would come out as 0.  For alpha below it, beta_expectation keeps the factor
# u^(alpha-power), which g(0) = 0 keeps bounded.
MIN_SUBSTITUTION_POWER = 0.05
# Every tanh-sinh node has |ln u| >= 3.2e-16, so u^alpha is 0 on all of
# them once the power passes 1e300; capping it there keeps alpha * ln u
# from overflowing (and warning) without changing a value.
_NODE_POWER_CAP = 1e300
# QUADPACK's roundoff scale: no error estimate can be trusted below
# 50 * eps * integral of |f| (Piessens et al., 1983)
_ROUNDOFF = 50.0 * math.ulp(1.0)


def _engine_tol(tol: float) -> float:
    # derived tolerances (scaled by an RL operator's d^alpha/Gamma(alpha+1)
    # or the identity's curvature coefficient) are clamped into the engine's contract range; accuracy
    # degrades gracefully at the ends
    return min(MAX_ABS_TOL, max(MIN_ABS_TOL, tol))


class _IntervalFields(NamedTuple):
    a: float
    b: float


class Interval(_IntervalFields):
    """Closed interval [a, b] with a < b, both finite."""

    __slots__ = ()

    def __new__(cls, a: float, b: float):
        if not (math.isfinite(a) and math.isfinite(b)):
            raise DomainError(f"interval endpoints must be finite, got [{a}, {b}]")
        if not a < b:
            raise DomainError(f"interval requires a < b, got [{a}, {b}]")
        return super().__new__(cls, a, b)

    def _replace(self, **changes):  # through __new__; NamedTuple's skips it
        return type(self)(**{**self._asdict(), **changes})

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)

    @classmethod
    def parse(cls, text: str) -> "Interval":
        """Parse 'a,b' (as used by the CLI and sweep configs)."""
        parts = text.split(",")
        if len(parts) != 2:
            raise DomainError(f"interval must be 'a,b', got {text!r}")
        try:
            a, b = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise DomainError(f"interval must be numeric 'a,b', got {text!r}") from exc
        return cls(a, b)


class QuadResult(NamedTuple):
    value: float
    error_estimate: float
    evaluations: int


def _panel(fn, a: float, b: float) -> tuple[float, float]:
    """The 21-point Gauss-Legendre sums of ``fn`` and ``|fn|`` over [a, b]."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    acc = 0.0
    acc_abs = 0.0
    try:
        for xi, wi in zip(_NODES, _WEIGHTS):
            raw = fn(c + h * xi)
            try:
                wv = wi * float(raw)
            except TypeError:
                # a complex value, such as a negative float to a fractional
                # power; a TypeError of fn itself is not caught
                raise IntegrandError(f"integrand returned non-real value "
                                     f"{raw!r} at t={c + h * xi!r}") from None
            acc += wv
            acc_abs += abs(wv)
    except SCALAR_ERRORS as exc:
        raise IntegrandError(f"integrand raised {type(exc).__name__} "
                             f"({exc}) at t={c + h * xi!r}") from None
    if not math.isfinite(acc_abs):
        # any non-finite node value makes the |f| sum non-finite; name it
        for xi in _NODES:
            t = c + h * xi
            v = float(fn(t))
            if not math.isfinite(v):
                raise IntegrandError(f"integrand returned non-finite value {v!r} at t={t!r}")
        raise IntegrandError(f"integrand sum overflowed on [{a!r}, {b!r}]")
    return h * acc, h * acc_abs


def _adaptive(fn, a: float, b: float, abs_tol: float, max_evals: int) -> QuadResult:
    # Segment = (neg_err, seq, lo, hi, mid, left_half, right_half, refined,
    # err, resabs): refined is the sum of the two half panels, err the
    # estimate |refined - coarse| and resabs their integral of |f|.  The
    # running err/resabs totals only steer the loop; every stop, result and
    # AccuracyError uses exact fsum totals over the heap.  The minimum
    # splittable width guards against stalling on roundoff.
    min_width = 64.0 * math.ulp(max(abs(a), abs(b), 1.0))
    heap: list = []
    seq = 0
    evaluations = PANEL_ORDER

    def make_segment(lo: float, hi: float, coarse: float) -> tuple:
        nonlocal seq, evaluations
        m = 0.5 * (lo + hi)
        left, left_abs = _panel(fn, lo, m)
        right, right_abs = _panel(fn, m, hi)
        evaluations += 2 * PANEL_ORDER
        seq += 1
        refined = left + right
        err = abs(refined - coarse)
        return (-err, seq, lo, hi, m, left, right, refined, err, left_abs + right_abs)

    coarse0, _ = _panel(fn, a, b)
    heap.append(make_segment(a, b, coarse0))
    total_err, total_abs = heap[0][8], heap[0][9]

    while True:
        worst = heap[0]
        # everything else on the heap has an error at most the worst one's,
        # so once it cannot be split the tolerance is out of reach
        narrow = worst[3] - worst[2] <= min_width
        spent = evaluations + 4 * PANEL_ORDER > max_evals
        if total_err <= max(abs_tol, _ROUNDOFF * total_abs) or narrow or spent:
            value = math.fsum(seg[7] for seg in heap)
            total_err = math.fsum(seg[8] for seg in heap)
            total_abs = math.fsum(seg[9] for seg in heap)
            floor = _ROUNDOFF * total_abs
            error = max(total_err, floor)
            if total_err <= max(abs_tol, floor):
                return QuadResult(value=value, error_estimate=error,
                                  evaluations=evaluations)
            if narrow or spent:
                reason = ("minimum panel width hit" if narrow else
                          f"evaluation budget {max_evals} exhausted")
                raise AccuracyError(
                    f"tolerance {abs_tol} unreachable ({reason})",
                    best_estimate=value, error_estimate=error,
                    evaluations=evaluations)
        # the parent stays on the heap until both children exist
        _, _, lo, hi, m, left, right, _, err, resabs = worst
        left_seg = make_segment(lo, m, left)
        right_seg = make_segment(m, hi, right)
        heapreplace(heap, left_seg)
        heappush(heap, right_seg)
        total_err += left_seg[8] + right_seg[8] - err
        total_abs += left_seg[9] + right_seg[9] - resabs


def _check_abs_tol(tol: float, name: str = "abs_tol") -> float:
    """The one validator of a public quadrature tolerance, named ``name``
    in its error; derived tolerances are clamped by _engine_tol instead."""
    tol = float(tol)
    if not (MIN_ABS_TOL <= tol <= MAX_ABS_TOL):
        raise DomainError(
            f"{name} must lie in [{MIN_ABS_TOL}, {MAX_ABS_TOL}], got {tol}")
    return tol


def integrate(f: Callable[[float], float],
              interval: Interval,
              abs_tol: float = 1e-10,
              max_evals: int = DEFAULT_MAX_EVALS) -> QuadResult:
    """Integrate ``f`` over ``interval`` to absolute tolerance ``abs_tol``.

    The engine stops once its error estimate meets ``abs_tol`` or the
    roundoff floor ``50 * eps * integral of |f|``, whichever is larger, and
    ``error_estimate`` is never below that floor: a result whose
    ``error_estimate`` exceeds ``abs_tol`` means the tolerance asked for
    lies below what floating point can resolve for this integral.

    Raises :class:`IntegrandError` on non-finite interior values and
    :class:`AccuracyError` (carrying the best estimate over the whole
    interval) when the tolerance, though above the floor, is not met: the
    ``max_evals`` budget cannot pay for another split, or the worst panel
    has reached the minimum splittable width.
    """
    if not isinstance(interval, Interval):
        interval = Interval(*interval)
    abs_tol = _check_abs_tol(abs_tol)
    if max_evals < PANEL_ORDER * 3:
        raise DomainError(f"max_evals too small to evaluate anything: {max_evals}")
    return _adaptive(f, interval.a, interval.b, abs_tol, max_evals)


# ---------------------------------------------------------------------------
# Tanh-sinh rules on [0, 1]


class TanhSinhLadder:
    """Nested tanh-sinh rules on [0, 1] (Takahasi & Mori, 1974).

    The substitution x = 1 / (1 + e^(-pi sinh t)) maps the real line onto
    (0, 1) and makes an integrand with algebraic behaviour at either end,
    such as u^(alpha-1) or (1-u)^s, decay doubly exponentially in t, where
    the trapezoid rule then converges fast.  Level j takes the step
    2^-(j+1) on |t| <= T_MAX; each level's nodes are every other node of
    the next, so one evaluation at :attr:`nodes` (the finest level)
    serves every level.  No node or weight depends on the integrand.

    ``complements`` is 1 - nodes in closed form, 1 / (1 + e^(pi sinh t)),
    and equals ``nodes`` reversed; ``log_nodes`` is ln(nodes), taken as
    log1p(-complements) above 1/2.  Both keep full precision where a node
    rounds towards 1.
    """

    LEVELS = 5
    T_MAX = 3.15

    def __init__(self):
        # built with math on lists: the first call of a numpy ufunc pages
        # in its loops, which every process importing the package would pay
        step = 0.5 ** self.LEVELS
        n = int(self.T_MAX / step)
        ks = range(-n, n + 1)
        nodes = [1.0 / (1.0 + math.exp(-math.pi * math.sinh(step * k)))
                 for k in ks]
        complements = nodes[::-1]
        self.nodes = np.array(nodes)
        self.complements = np.array(complements)
        self.log_nodes = np.array([math.log(x) if x < 0.5 else math.log1p(-c)
                                   for x, c in zip(nodes, complements)])
        dx_dt = [math.pi * math.cosh(step * k) * x * c
                 for k, x, c in zip(ks, nodes, complements)]
        strides = [2 ** (self.LEVELS - 1 - j) for j in range(self.LEVELS)]
        # row j: level j's weights on its own nodes, 0 elsewhere
        self.weights = np.array([
            [stride * step * w if k % stride == 0 else 0.0
             for k, w in zip(ks, dx_dt)]
            for stride in strides])
        self.sizes = [2 * (n // stride) + 1 for stride in strides]

    def estimate(self, values: np.ndarray, tols) -> list[float | None]:
        """Per row of ``values``, the first level sum whose error estimate
        meets that row's entry of ``tols``, or None.

        Each row of the (k, N) array ``values`` holds one integrand at
        :attr:`nodes`; all k rows are weighted and summed in one (k, 5, N)
        product.  Level j's estimate is its distance from level j-1 plus
        the rounding bound ``size * eps * sum |w_i g_i|`` of its own sum.
        Where that bound alone refuses a level, both levels are summed
        again with ``math.fsum``, whose only rounding left is that of the
        products and of the result: ``eps * sum |w_i g_i|`` plus one ulp.
        A row gets None when no level passes or one of its values is not
        finite; the other rows are summed as if alone.
        """
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            # zeros keep the refused rows' inf and nan out of the sums
            values = np.where(finite[:, None], values, 0.0)
        products = values[:, None, :] * self.weights
        sums = products.sum(axis=-1).tolist()
        # |w_i g_i| is w_i |g_i| bit for bit: no weight is negative
        abs_sums = np.abs(products).sum(axis=-1).tolist()
        eps = math.ulp(1.0)
        out: list[float | None] = []
        for r, (ok, tol) in enumerate(zip(finite.tolist(), tols)):
            out.append(None)
            if not ok:
                continue
            row, abs_row = sums[r], abs_sums[r]
            for j in range(1, self.LEVELS):
                diff = abs(row[j] - row[j - 1])
                if diff + self.sizes[j] * eps * abs_row[j] <= tol:
                    out[r] = row[j]
                    break
                if diff <= tol:
                    exact = math.fsum(products[r, j].tolist())
                    previous = math.fsum(products[r, j - 1].tolist())
                    if (abs(exact - previous) + eps * abs_row[j]
                            + math.ulp(exact) <= tol):
                        out[r] = exact
                        break
        return out


# the ladder every defect, identity rhs and RL operator tries first: 13,
# 25, 51, 101 and 201 nodes
TANH_SINH = TanhSinhLadder()
_UNIT = Interval(0.0, 1.0)


@functools.lru_cache(maxsize=32)
def _order_rows(alphas: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (k, N) rows of ``alphas`` at the nodes: the densities
    alpha u^(alpha-1) and the identity rhs weights t (1 - t^alpha)."""
    orders = np.array(alphas, dtype=float)
    log_nodes = TANH_SINH.log_nodes
    # the density is formed first: a huge alpha times a large g could
    # overflow where alpha * u^(alpha-1) underflows to 0
    density = orders[:, None] * np.exp(
        np.minimum(orders - 1.0, _NODE_POWER_CAP)[:, None] * log_nodes)
    # 1 - t^alpha, without the cancellation of forming t^alpha near 1
    weights = TANH_SINH.nodes * -np.expm1(
        np.minimum(orders, _NODE_POWER_CAP)[:, None] * log_nodes)
    density.flags.writeable = weights.flags.writeable = False
    return density, weights


def _ladder_rows(values: np.ndarray, tols, integrand: Callable[[int], Callable]
                 ) -> list[float | FracineqError]:
    """One outcome per row of ``values``, integrands on [0, 1] at the
    nodes: the ladder's sum to that row's tolerance, else ``integrate`` of
    ``integrand(row)``, or the :class:`AccuracyError` or
    :class:`IntegrandError` that stopped it."""
    out: list = TANH_SINH.estimate(values, tols)
    for r, tol in enumerate(tols):
        if out[r] is None:
            try:
                out[r] = integrate(integrand(r), _UNIT, abs_tol=tol).value
            except (AccuracyError, IntegrandError) as exc:
                out[r] = exc
    return out


def beta_expectation(values: np.ndarray, g: Callable[[float], float],
                     alphas, tols) -> list[float | FracineqError]:
    """E[g(U)] for U ~ Beta(alpha, 1), density alpha u^(alpha-1) on
    [0, 1], for each alpha of ``alphas`` to the absolute tolerance at the
    same place in ``tols``; g must vanish at 0.

    ``values`` holds g at ``TANH_SINH.nodes``; one ladder pass weights
    them by every order's density and sums them.  Each order the ladder
    refuses goes once to :func:`integrate`, with ``g`` called node by
    node, after the substitution v = u^power with
    power = min(max(alpha, MIN_SUBSTITUTION_POWER), 1): the integrand
    (alpha/power) u^(alpha-power) g(u) is then bounded.  One outcome per
    alpha: the expectation, or the :class:`AccuracyError` or
    :class:`IntegrandError` that stopped that order's fallback.
    """
    # Python floats: u ** (alpha - power) of a numpy float takes other bits
    alphas = tuple(np.asarray(alphas, dtype=float).tolist())
    return _ladder_rows(_order_rows(alphas)[0] * values, tols,
                        lambda r: _bounded_integrand(g, alphas[r]))


def _bounded_integrand(g: Callable[[float], float],
                       alpha: float) -> Callable[[float], float]:
    """The integrand of E[g(U)] on [0, 1] after the substitution of
    :func:`beta_expectation`."""
    power = min(max(alpha, MIN_SUBSTITUTION_POWER), 1.0)
    inv_power = 1.0 / power
    scale = alpha * inv_power

    def bounded(v: float) -> float:
        u = v ** inv_power
        if u == 0.0:
            # v^(1/power) underflowed: the node lies closer to 0 than a
            # double resolves, where the bounded integrand tends to 0
            return 0.0
        return (scale * u ** (alpha - power)) * g(u)

    return bounded


def _outcome_value(outcome: float | FracineqError) -> float:
    """The value of one outcome of a batched computation such as
    :func:`beta_expectation`; an error outcome is raised."""
    if isinstance(outcome, FracineqError):
        raise outcome
    return outcome
