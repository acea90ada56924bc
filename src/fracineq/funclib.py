"""Test-function catalog and grid certifier of s-convexity in the second sense.

A function f on a domain inside [0, inf) is s-convex in the second sense
(s in (0, 1]) when

    f(lam*x + (1-lam)*y) <= lam^s f(x) + (1-lam)^s f(y)

for all x, y in the domain and lam in [0, 1]; s-concavity reverses the
inequality.  s = 1 recovers ordinary convexity/concavity.  Certification
here is a dense grid check (default 33 points per axis, 33^3 = 35,937
triples), not a proof: it is the gatekeeper the bound evaluators and the
sweep use for their hypotheses.  It runs in two steps: :func:`cert_grid`
evaluates a channel once on the grid, and :func:`grid_verdict` compares
that grid against the s-weighted endpoint values (:func:`s_combination`)
for one s and direction.  The grid's combinations
lam[k] x[i] + (1-lam[k]) x[j] of n nodes and n weights are, in real
arithmetic, the points a + (b-a) m/(n-1)^2 with m = k i + (n-1-k) j, so
a grid has only (n-1)^2 + 1 distinct points (1025 for n = 33):
:func:`cert_grid` evaluates the channel there and gathers the n^3 values
by m.  The sweep evaluates one grid per channel and reuses it across all
its s values, and :func:`grid_verdicts` judges both directions from one
combination per s; the verdicts on a grid share three work arrays, so no
s allocates a grid-size temporary.

Catalog functions carry an analytic second-derivative channel ``d2``; the
bound evaluators read |f''| at interval endpoints from it and never use
finite differences.  ``declared_class`` is a coarse label for f itself
(checked at construction); the bound evaluators certify their own
hypotheses on derived channels such as |f''|^q per call.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, IntegrandError
from .quadrature import Interval

__all__ = [
    "ConvexityClass",
    "TestFunction",
    "Witness",
    "CertificationResult",
    "CertGrid",
    "cert_grid",
    "grid_verdict",
    "grid_verdicts",
    "s_combination",
    "certify_s_convex",
    "certify_s_concave",
    "builtin_catalog",
    "catalog_names",
    "get_function",
    "s_power",
    "root_power",
    "shifted_square",
    "abs_d2",
    "value_fn",
]

DEFAULT_GRID_N = 33
DEFAULT_SLACK = 1e-12


@dataclass(frozen=True)
class ConvexityClass:
    """Label: kind in {'convex', 'concave', 's_convex', 's_concave', 'none'};
    the s_* kinds carry the exponent s in (0, 1]."""

    kind: str
    s: float | None = None

    def __post_init__(self):
        if self.kind not in ("convex", "concave", "s_convex", "s_concave", "none"):
            raise DomainError(f"unknown convexity class kind {self.kind!r}")
        if self.kind in ("s_convex", "s_concave"):
            if self.s is None or not (0.0 < self.s <= 1.0):
                raise DomainError(f"{self.kind} requires s in (0, 1], got {self.s}")

    def __str__(self) -> str:
        if self.s is not None:
            return f"{self.kind}({self.s:g})"
        return self.kind


@dataclass(frozen=True)
class TestFunction:
    __test__ = False    # not a pytest collection target

    name: str
    fn: Callable[[float], float]
    d2: Callable[[float], float]
    declared_class: ConvexityClass
    natural_domain: Interval

    def __call__(self, t):
        return self.fn(t)


@dataclass(frozen=True)
class Witness:
    """A violating triple: the convexity inequality fails at (x, y, lam)."""

    x: float
    y: float
    lam: float
    lhs: float
    rhs: float


@dataclass(frozen=True)
class CertificationResult:
    passed: bool
    witness: Witness | None
    checked: int

    def __bool__(self) -> bool:
        return self.passed


def value_fn(f) -> Callable[[float], float]:
    """The value channel of a :class:`TestFunction`, or ``f`` itself when
    it is a plain callable; :class:`DomainError` otherwise."""
    if isinstance(f, TestFunction):
        return f.fn
    if callable(f):
        return f
    raise DomainError(
        f"f must be a TestFunction or a callable, got {type(f).__name__}")


def _check_s(s: float) -> float:
    s = float(s)
    if not (0.0 < s <= 1.0):
        raise DomainError(f"s must lie in (0, 1], got {s}")
    return s


def _eval_grid(fn, arr: np.ndarray) -> np.ndarray:
    """Evaluate fn over an array, falling back to scalar calls.

    Non-finite results are reported by the caller as IntegrandError, so
    numpy's division/overflow warnings are suppressed here.
    """
    with np.errstate(all="ignore"):
        try:
            out = np.asarray(fn(arr), dtype=float)
            if out.shape == arr.shape:
                return out
        except (TypeError, ValueError, ZeroDivisionError):
            pass
        return np.asarray([fn(float(v)) for v in arr.ravel()],
                          dtype=float).reshape(arr.shape)


@lru_cache(maxsize=4)
def _mix_index(n: int) -> np.ndarray:
    """m[i, j, k] = k i + (n-1-k) j: the grid's combination
    lam[k] xs[i] + (1-lam[k]) xs[j] is point m of the (n-1)^2 + 1 distinct
    points.  It depends on n alone, so it is built once per n and the
    last four are kept."""
    k = np.arange(n)
    index = k * k[:, None, None] + (n - 1 - k) * k[None, :, None]
    index.flags.writeable = False    # every grid of this n shares it
    return index


@dataclass(frozen=True)
class CertGrid:
    """One channel evaluated on the certification grid.

    ``fx[i]`` is fn(xs[i]) and ``f_mix[i, j, k]`` is fn at
    lam[k]*xs[i] + (1-lam[k])*xs[j], taken as the point
    a + (b-a) m/(n-1)^2 (m = k i + (n-1-k) j) that the combination is in
    real arithmetic; neither depends on s or on the direction, so one grid
    serves every :func:`grid_verdict` on it.  The verdicts write into work
    arrays of the grid's shape that the first one allocates, so one grid
    must not be judged from two threads at once.
    """

    xs: np.ndarray
    lam: np.ndarray
    fx: np.ndarray
    f_mix: np.ndarray

    @cached_property
    def _work(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # the s-weighted combination, the slack-shifted threshold and the
        # violation flags of the latest verdict
        shape = self.f_mix.shape
        return np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool)


def cert_grid(fn, domain: Interval, grid_n: int = DEFAULT_GRID_N) -> CertGrid:
    """Evaluate ``fn`` on the grid_n^3 certification grid over ``domain``,
    from its (grid_n-1)^2 + 1 distinct points."""
    if domain.a < 0.0:
        raise DomainError(
            f"s-convexity is defined on [0, inf); domain starts at {domain.a}")
    grid_n = int(grid_n)
    if grid_n < 3:
        raise DomainError(f"grid_n must be >= 3, got {grid_n}")

    step = grid_n - 1
    xs = np.linspace(domain.a, domain.b, grid_n)
    lam = np.linspace(0.0, 1.0, grid_n)
    points = np.linspace(domain.a, domain.b, step * step + 1)
    # the nodes themselves (m = step i) are xs bit for bit, so fx is
    # fn(xs) and the lam = 0 and lam = 1 faces compare f(x) with itself
    points[::step] = xs
    values = _eval_grid(fn, points)
    fx = values[::step].copy()
    if not np.all(np.isfinite(fx)):
        bad = xs[~np.isfinite(fx)][0]
        raise IntegrandError(f"function non-finite at grid node t={bad!r}")
    if not np.all(np.isfinite(values)):
        raise IntegrandError("function non-finite at an interior grid combination")
    return CertGrid(xs=xs, lam=lam, fx=fx, f_mix=values[_mix_index(grid_n)])


def _check_verdict_args(s: float, slack: float) -> float:
    s = _check_s(s)
    if slack < 0.0:
        raise DomainError(f"slack must be >= 0, got {slack}")
    return s


def s_combination(lam, s: float, fx, fy):
    """lam^s f(x) + (1-lam)^s f(y), the right side of s-convexity in the
    second sense; the arguments broadcast."""
    return lam ** s * fx + (1.0 - lam) ** s * fy


def _grid_combination(grid: CertGrid, s: float) -> np.ndarray:
    # combination[i, j, k] = lam[k]^s fx[i] + (1-lam[k])^s fx[j], formed in
    # the work array from two n^2 product tables: the first is copied in
    # along j, the second added along i.  Broadcasting both inside one add
    # runs n^2 inner loops of n elements and takes about half again as long.
    combo = grid._work[0]
    np.copyto(combo, (grid.lam ** s * grid.fx[:, None])[:, None, :])
    np.add(combo, ((1.0 - grid.lam) ** s * grid.fx[:, None])[None, :, :],
           out=combo)
    return combo


def _verdict(grid: CertGrid, combo: np.ndarray, slack: float,
             concave: bool) -> CertificationResult:
    f_mix = grid.f_mix
    _, threshold, violation = grid._work
    if concave:
        np.less(f_mix, np.subtract(combo, slack, out=threshold), out=violation)
    else:
        np.greater(f_mix, np.add(combo, slack, out=threshold), out=violation)

    checked = violation.size
    # first violating triple in row-major (x, y, lam) order; argmax stops
    # at the first True and returns 0 when there is none
    first = int(violation.argmax())
    if not violation.flat[first]:
        return CertificationResult(passed=True, witness=None, checked=checked)
    i, j, k = np.unravel_index(first, violation.shape)
    return CertificationResult(
        passed=False,
        witness=Witness(x=float(grid.xs[i]), y=float(grid.xs[j]),
                        lam=float(grid.lam[k]), lhs=float(f_mix[i, j, k]),
                        rhs=float(combo[i, j, k])),
        checked=checked,
    )


def grid_verdict(grid: CertGrid, s: float, slack: float = DEFAULT_SLACK,
                 concave: bool = False) -> CertificationResult:
    """Check s-convexity (or s-concavity) in the second sense on ``grid``."""
    s = _check_verdict_args(s, slack)
    return _verdict(grid, _grid_combination(grid, s), slack, concave)


def grid_verdicts(grid: CertGrid, s: float, slack: float = DEFAULT_SLACK
                  ) -> tuple[CertificationResult, CertificationResult]:
    """The s-convex and s-concave verdicts of :func:`grid_verdict` on
    ``grid``, from one s-weighted combination."""
    s = _check_verdict_args(s, slack)
    combo = _grid_combination(grid, s)
    return (_verdict(grid, combo, slack, concave=False),
            _verdict(grid, combo, slack, concave=True))


def _certify(fn, domain: Interval, s: float, grid_n: int, slack: float,
             concave: bool) -> CertificationResult:
    # reject bad s/slack before paying for the grid
    _check_verdict_args(s, slack)
    return grid_verdict(cert_grid(fn, domain, grid_n), s, slack, concave)


def certify_s_convex(fn, domain: Interval, s: float,
                     grid_n: int = DEFAULT_GRID_N,
                     slack: float = DEFAULT_SLACK) -> CertificationResult:
    """Grid-check s-convexity in the second sense on ``domain`` (a >= 0)."""
    return _certify(fn, domain, s, grid_n, slack, concave=False)


def certify_s_concave(fn, domain: Interval, s: float,
                      grid_n: int = DEFAULT_GRID_N,
                      slack: float = DEFAULT_SLACK) -> CertificationResult:
    """Grid-check s-concavity in the second sense (reversed inequality)."""
    return _certify(fn, domain, s, grid_n, slack, concave=True)


def certify_declared(f: TestFunction, s: float | None = None,
                     grid_n: int = DEFAULT_GRID_N,
                     slack: float = DEFAULT_SLACK) -> CertificationResult:
    """Certify ``f``'s declared class, optionally at an overriding s."""
    cls = f.declared_class
    if cls.kind == "none":
        raise DomainError(f"{f.name} declares no convexity class to certify")
    if s is None:
        s = cls.s if cls.s is not None else 1.0
    if cls.kind in ("convex", "s_convex"):
        return certify_s_convex(f.fn, f.natural_domain, s, grid_n, slack)
    return certify_s_concave(f.fn, f.natural_domain, s, grid_n, slack)


def abs_d2(f: TestFunction, q: float | None = None):
    """The hypothesis channel |f''| of ``f``, or |f''|^q when q is given."""
    d2 = f.d2
    if q is None:
        return lambda t: np.abs(d2(t))
    return lambda t: np.abs(d2(t)) ** q


# ---------------------------------------------------------------------------
# catalog

_DOMAIN = Interval(0.0, 4.0)


def _certified(tf: TestFunction) -> TestFunction:
    res = certify_declared(tf)
    if not res.passed:
        raise DomainError(
            f"catalog entry {tf.name} fails its declared class "
            f"{tf.declared_class} at witness {res.witness}")
    return tf


def s_power(s: float, name: str | None = None) -> TestFunction:
    """f(t) = t^(s+2) / ((s+1)(s+2)); second derivative is exactly t^s."""
    s = _check_s(s)
    c = 1.0 / ((s + 1.0) * (s + 2.0))
    return _certified(TestFunction(
        name=name or f"s_power_{s:g}",
        fn=lambda t, s=s, c=c: c * t ** (s + 2.0),
        d2=lambda t, s=s: t ** s,
        declared_class=ConvexityClass("s_convex", s),
        natural_domain=_DOMAIN,
    ))


def root_power(s: float, name: str | None = None) -> TestFunction:
    """f(t) = t^s on [0, 1]; the canonical s-convex power function.

    Its second derivative s(s-1) t^(s-2) blows up at 0 for s < 1, so this
    family is kept out of the finite-difference-checked builtin catalog
    and is meant for the first-order sandwich checks.
    """
    s = _check_s(s)
    return _certified(TestFunction(
        name=name or f"root_power_{s:g}",
        fn=lambda t, s=s: t ** s,
        d2=lambda t, s=s: s * (s - 1.0) * t ** (s - 2.0) if s != 1.0 else 0.0 * t,
        declared_class=ConvexityClass("s_convex", s),
        natural_domain=Interval(0.0, 1.0),
    ))


def shifted_square(a: float, name: str | None = None) -> TestFunction:
    """f(t) = (t - a)^2, the equality witness for intervals starting at a."""
    a = float(a)
    if a < 0.0:
        raise DomainError(f"shift must be >= 0, got {a}")
    return _certified(TestFunction(
        name=name or f"shifted_square_{a:g}",
        fn=lambda t, a=a: (t - a) ** 2,
        d2=lambda t: 2.0 + 0.0 * t,
        declared_class=ConvexityClass("convex"),
        natural_domain=Interval(a, a + 2.0),
    ))


# the convex builtin entries on _DOMAIN: name -> (f, f'')
_CONVEX_BUILTINS = {
    "const_one": (lambda t: 1.0 + 0.0 * t, lambda t: 0.0 * t),
    "linear": (lambda t: 1.0 * t, lambda t: 0.0 * t),
    "square": (lambda t: t ** 2, lambda t: 2.0 + 0.0 * t),
    "cube": (lambda t: t ** 3, lambda t: 6.0 * t),
    "quartic": (lambda t: t ** 4, lambda t: 12.0 * t ** 2),
}
# the builtin catalog, in order; the last four are parameterised names
_BUILTIN_NAMES = (*_CONVEX_BUILTINS, "s_power_0.25", "s_power_0.5",
                  "s_power_0.75", "shifted_square_1")
_PARAM_NAME = re.compile(
    r"^(s_power|root_power|shifted_square)_([0-9]+(?:\.[0-9]*)?|\.[0-9]+)$")
_FAMILIES = {"s_power": s_power, "root_power": root_power,
             "shifted_square": shifted_square}
# every entry get_function has built and certified, by name
_RESOLVED: dict[str, TestFunction] = {}
_CATALOG: tuple[TestFunction, ...] | None = None


def _build(name: str) -> TestFunction:
    """Build and certify the catalog entry called ``name``."""
    if name in _CONVEX_BUILTINS:
        fn, d2 = _CONVEX_BUILTINS[name]
        return _certified(TestFunction(name, fn, d2, ConvexityClass("convex"),
                                       _DOMAIN))
    m = _PARAM_NAME.match(name)
    if m:
        return _FAMILIES[m.group(1)](float(m.group(2)), name=name)
    raise DomainError(
        f"unknown function {name!r}; builtin names: {', '.join(catalog_names())}; "
        "parameterised: s_power_<s>, root_power_<s>, shifted_square_<a>")


def get_function(name: str) -> TestFunction:
    """Resolve a catalog entry by name.

    Besides the fixed builtin entries, parameterised names of the forms
    ``s_power_<s>``, ``root_power_<s>`` and ``shifted_square_<a>`` are
    constructed on demand.  Each entry is built and certified the first
    time its name is asked for, and kept; an entry that fails its
    declared class raises :class:`DomainError` and is not kept.
    """
    tf = _RESOLVED.get(name)
    if tf is None:
        tf = _RESOLVED[name] = _build(name)
    return tf


def builtin_catalog() -> tuple[TestFunction, ...]:
    """The built-in certified catalog (immutable, built once).

    Contains the monomials t^k (k = 2, 3, 4) whose |f''| is convex, the
    s_power family with |f''| = t^s for s in {0.25, 0.5, 0.75} (the s = 0.5
    member has f'' = sqrt(t), so |f''|^q is concave for q <= 2), constants
    and a linear function, and the shifted equality witness (t-1)^2.
    """
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = tuple(get_function(name) for name in _BUILTIN_NAMES)
    return _CATALOG


def catalog_names() -> list[str]:
    """The builtin entries' names; builds and certifies nothing."""
    return list(_BUILTIN_NAMES)
