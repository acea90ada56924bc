"""Test-function catalog and grid certifier of s-convexity in the second sense.

A function f on a domain inside [0, inf) is s-convex in the second sense
(s in (0, 1]) when

    f(lam*x + (1-lam)*y) <= lam^s f(x) + (1-lam)^s f(y)

for all x, y in the domain and lam in [0, 1]; s-concavity reverses the
inequality.  s = 1 recovers ordinary convexity/concavity.  Certification
here is a dense grid check (:data:`CERT_GRID_N` = 33 points per axis,
33^3 = 35,937 triples, with the absolute slack :data:`CERT_SLACK`), not a
proof: it is the gatekeeper the bound evaluators and the sweep use for
their hypotheses.  It runs in two steps: :func:`cert_grid`
evaluates a channel once on the grid, and :func:`grid_verdict` compares
that grid against the s-weighted endpoint values (:func:`s_combination`)
for one s and direction.  The grid's combinations
lam[k] x[i] + (1-lam[k]) x[j] of n nodes and n weights are, in real
arithmetic, the points a + (b-a) m/(n-1)^2 with m = k i + (n-1-k) j, so
a grid has only (n-1)^2 + 1 distinct points (1025 for n = 33):
:func:`cert_grid` evaluates the channel there and gathers the values by
m.  The triples (i, j, k) and (j, i, n-1-k) share m, and where
1 - lam[k] is lam[n-1-k] bit for bit (n-1 a power of two, n = 33 among
them) their s-combinations are the same two terms in swapped order, so
the same double: the grid keeps and judges the half k <= n//2 alone
(17 x 33 x 33 = 18,513 triples), and other n keep the whole grid.  The
witness of a failed verdict is still the first violating triple of the
whole n^3 grid in row-major order, and ``checked`` still counts n^3:
the half is the grid by symmetry, not a sample.  The sweep evaluates one
grid per channel and reuses it across all its s values, and
:func:`grid_verdicts` judges both directions from one combination per s.
Each thread forms its verdicts in three work arrays that it allocates
once per grid size and reuses for every grid, so no verdict allocates a
grid-size array.

Catalog functions carry an analytic second-derivative channel ``d2``; the
bound evaluators read |f''| at interval endpoints from it and never use
finite differences.  ``declared_class`` is a coarse label for f itself
(checked at construction); the bound evaluators certify their own
hypotheses on derived channels such as |f''|^q per call.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import SCALAR_ERRORS, DomainError, IntegrandError
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

# the one grid size and slack of every verdict (and of the sweep's probes)
CERT_GRID_N = 33
CERT_SLACK = 1e-12


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


class Witness(NamedTuple):
    """A violating triple: the convexity inequality fails at (x, y, lam)."""

    x: float
    y: float
    lam: float
    lhs: float
    rhs: float


class CertificationResult(NamedTuple):
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

    Non-finite results (inf where a scalar call overflows, nan where it
    raises ValueError or ZeroDivisionError, as numpy's twins of math's
    functions would give) are reported by the caller as IntegrandError, so
    numpy's warnings are suppressed here.
    """
    with np.errstate(all="ignore"):
        try:
            out = np.asarray(fn(arr), dtype=float)
            if out.shape == arr.shape:
                return out
        except (TypeError, ValueError, ZeroDivisionError):
            pass
        out = np.empty(arr.size)
        for i, v in enumerate(arr.ravel()):
            try:
                out[i] = fn(float(v))
            except OverflowError:
                out[i] = math.inf
            except SCALAR_ERRORS:
                out[i] = math.nan
        return out.reshape(arr.shape)


def _point_value(fn, t: float, place: str) -> float:
    """float(fn(t)); an error of a scalar-only fn (see
    :data:`~fracineq.errors.SCALAR_ERRORS`) is an IntegrandError naming
    ``place``."""
    try:
        return float(fn(t))
    except OverflowError:
        what = "overflows"
    except SCALAR_ERRORS as exc:
        what = f"raised {type(exc).__name__} ({exc})"
    raise IntegrandError(f"function {what} at {place}")


def _mirror_exact(lam: np.ndarray) -> bool:
    """Whether 1 - lam[k] is lam[n-1-k] bit for bit, for every k."""
    return (1.0 - lam).tobytes() == lam[::-1].tobytes()


@lru_cache(maxsize=4)
def _half_index(n: int) -> np.ndarray:
    """index[k, i, j] = k i + (n-1-k) j over the half k < h: the grid's
    combination lam[k] xs[i] + (1-lam[k]) xs[j] is point m = index[k, i, j]
    of the (n-1)^2 + 1 distinct points.  h is n//2 + 1 where linspace's
    lam is mirror-exact (n-1 a power of two) and n elsewhere.  It depends
    on n alone, so it is built once per n and the last four are kept."""
    h = n // 2 + 1 if _mirror_exact(np.linspace(0.0, 1.0, n)) else n
    k = np.arange(n)
    kh = k[:h, None, None]
    index = kh * k[:, None] + (n - 1 - kh) * k
    index.flags.writeable = False    # every grid of this n shares it
    return index


class CertGrid:
    """One channel evaluated on the certification grid.

    ``fx[i]`` is fn(xs[i]) and ``f_mix[i, j, k]`` is fn at
    lam[k]*xs[i] + (1-lam[k])*xs[j], taken as the point
    a + (b-a) m/(n-1)^2 (m = k i + (n-1-k) j) that the combination is in
    real arithmetic; neither depends on s or on the direction, so one grid
    serves every :func:`grid_verdict` on it.

    The triples (i, j, k) and (j, i, n-1-k) share m and so their value.
    Where ``1 - lam`` is ``lam[::-1]`` bit for bit (n-1 a power of two,
    as at n = 33) they also share the s-combination, whose two terms only
    swap places.  The grid then keeps and judges the half k <= n//2 alone,
    k-major: ``f_half[k, i, j]`` is ``f_mix[i, j, k]`` for the first
    h = n//2 + 1 values of k; elsewhere h is n.  ``f_mix`` is rebuilt from
    the half when read.  ``CertGrid(xs, lam, fx, f_mix)`` builds a grid
    from the full array and keeps only the half when ``lam`` and ``f_mix``
    are both mirror-exact.
    """

    __slots__ = ("xs", "lam", "fx", "f_half")

    def __init__(self, xs, lam, fx, f_mix):
        lam = np.asarray(lam, dtype=float)
        f_mix = np.asarray(f_mix, dtype=float)
        h = lam.size
        if (_mirror_exact(lam) and f_mix.tobytes()
                == f_mix.transpose(1, 0, 2)[:, :, ::-1].tobytes()):
            h = h // 2 + 1
        self.xs = np.asarray(xs, dtype=float)
        self.lam = lam
        self.fx = np.asarray(fx, dtype=float)
        self.f_half = f_mix[:, :, :h].transpose(2, 0, 1).copy()

    @classmethod
    def _from_half(cls, xs, lam, fx, f_half) -> CertGrid:
        grid = cls.__new__(cls)
        grid.xs, grid.lam, grid.fx, grid.f_half = xs, lam, fx, f_half
        return grid

    @property
    def f_mix(self) -> np.ndarray:
        """The full n^3 array, rebuilt from the half."""
        n, h = self.xs.size, self.f_half.shape[0]
        full = np.empty((n, n, n))
        full[:, :, :h] = self.f_half.transpose(1, 2, 0)
        # f_mix[i, j, k] for k >= h is f_half[n-1-k, j, i]
        full[:, :, h:] = self.f_half[:n - h][::-1].transpose(2, 1, 0)
        return full


def cert_grid(fn, domain: Interval, grid_n: int = CERT_GRID_N) -> CertGrid:
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
        bad = float(xs[~np.isfinite(fx)][0])
        raise IntegrandError(f"function non-finite at grid node t={bad!r}")
    if not np.all(np.isfinite(values)):
        bad = float(points[~np.isfinite(values)][0])
        raise IntegrandError(
            f"function non-finite at interior grid combination t={bad!r}")
    return CertGrid._from_half(xs, lam, fx, values[_half_index(grid_n)])


# this thread's work arrays for the latest half shape: the s-weighted
# combination, the slack-shifted threshold and the violation flags; each
# verdict overwrites them, so no grid allocates its own
_WORK = threading.local()


def _work(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    work = getattr(_WORK, "arrays", None)
    if work is None or work[0].shape != shape:
        work = _WORK.arrays = (np.empty(shape), np.empty(shape),
                               np.empty(shape, dtype=bool))
    return work


def s_combination(lam, s: float, fx, fy):
    """lam^s f(x) + (1-lam)^s f(y), the right side of s-convexity in the
    second sense; the arguments broadcast."""
    return lam ** s * fx + (1.0 - lam) ** s * fy


def _grid_combination(grid: CertGrid, s: float) -> np.ndarray:
    # combination[k, i, j] = lam[k]^s fx[i] + (1-lam[k])^s fx[j] on the
    # half, formed in the work array from two h x n product tables: the
    # first is copied in along j, the second added along i (one add that
    # broadcasts both takes about a quarter longer).  The powers are taken
    # of the whole lam, so a k of the half and its mirror n-1-k read the
    # same bits.
    h = grid.f_half.shape[0]
    combo = _work(grid.f_half.shape)[0]
    np.copyto(combo, ((grid.lam ** s)[:h, None] * grid.fx)[:, :, None])
    np.add(combo, (((1.0 - grid.lam) ** s)[:h, None] * grid.fx)[:, None, :],
           out=combo)
    return combo


def _verdict(grid: CertGrid, combo: np.ndarray,
             concave: bool) -> CertificationResult:
    half = grid.f_half
    _, threshold, violation = _work(half.shape)
    if concave:
        np.less(half, np.subtract(combo, CERT_SLACK, out=threshold),
                out=violation)
    else:
        np.greater(half, np.add(combo, CERT_SLACK, out=threshold),
                   out=violation)

    h, n = half.shape[0], grid.xs.size
    checked = n ** 3
    # the witness is the first violating triple of the whole grid in
    # row-major (x, y, lam) order.  hit[i, j] says that some k of the half
    # violates at (i, j); argmax stops at the first True and returns 0
    # when there is none
    hit = violation.any(axis=0)
    first = int(hit.argmax())
    if not hit.flat[first]:
        return CertificationResult(passed=True, witness=None, checked=checked)
    i, j = divmod(first, n)
    k = int(violation[:, i, j].argmax())
    triple, at = (i, j, k), (k, i, j)
    if h < n:
        # each half triple (i, j, k) also stands for (j, i, n-1-k); the
        # first of those in row-major order is at the first (j, i) of
        # hit.T, with the last k
        j, i = divmod(int(hit.T.argmax()), n)
        k = h - 1 - int(violation[::-1, i, j].argmax())
        if (j, i, n - 1 - k) < triple:
            triple, at = (j, i, n - 1 - k), (k, i, j)
    i, j, k = triple
    return CertificationResult(
        passed=False,
        witness=Witness(x=float(grid.xs[i]), y=float(grid.xs[j]),
                        lam=float(grid.lam[k]), lhs=float(half[at]),
                        rhs=float(combo[at])),
        checked=checked,
    )


def grid_verdict(grid: CertGrid, s: float,
                 concave: bool = False) -> CertificationResult:
    """Check s-convexity (or s-concavity) in the second sense on ``grid``."""
    s = _check_s(s)
    return _verdict(grid, _grid_combination(grid, s), concave)


def grid_verdicts(grid: CertGrid, s: float
                  ) -> tuple[CertificationResult, CertificationResult]:
    """The s-convex and s-concave verdicts of :func:`grid_verdict` on
    ``grid``, from one s-weighted combination."""
    combo = _grid_combination(grid, _check_s(s))
    return (_verdict(grid, combo, concave=False),
            _verdict(grid, combo, concave=True))


def certify_s_convex(fn, domain: Interval, s: float) -> CertificationResult:
    """Grid-check s-convexity in the second sense on ``domain`` (a >= 0)."""
    return grid_verdict(cert_grid(fn, domain), s)


def certify_s_concave(fn, domain: Interval, s: float) -> CertificationResult:
    """Grid-check s-concavity in the second sense (reversed inequality)."""
    return grid_verdict(cert_grid(fn, domain), s, concave=True)


def certify_declared(f: TestFunction,
                     s: float | None = None) -> CertificationResult:
    """Certify ``f``'s declared class, optionally at an overriding s."""
    cls = f.declared_class
    if cls.kind == "none":
        raise DomainError(f"{f.name} declares no convexity class to certify")
    if s is None:
        s = cls.s if cls.s is not None else 1.0
    if cls.kind in ("convex", "s_convex"):
        return certify_s_convex(f.fn, f.natural_domain, s)
    return certify_s_concave(f.fn, f.natural_domain, s)


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
