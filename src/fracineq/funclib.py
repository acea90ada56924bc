"""Test-function catalog and grid certifier of s-convexity in the second sense.

A function f on a domain inside [0, inf) is s-convex in the second sense
(s in (0, 1]) when

    f(lam*x + (1-lam)*y) <= lam^s f(x) + (1-lam)^s f(y)

for all x, y in the domain and lam in [0, 1]; s-concavity reverses the
inequality.  s = 1 recovers ordinary convexity/concavity.  Certification
here is a dense grid check (:data:`CERT_GRID_N` = 33 points per axis,
33^3 = 35,937 triples, with the absolute slack :data:`CERT_SLACK`), not a
proof: it is the gatekeeper the bound evaluators and the sweep use for
their hypotheses.  The grid's combinations lam[k] x[i] + (1-lam[k]) x[j]
of n nodes and n weights are, in real arithmetic, the points
a + (b-a) m/(n-1)^2 with m = k i + (n-1-k) j, so a grid has only
(n-1)^2 + 1 distinct points (1025), one read-only array per domain that
every channel on it shares: :func:`cert_grid` evaluates a channel there
once and gathers the values by m.  The triples (i, j, k)
and (j, i, n-1-k) share m, and since 1 - lam[k] is lam[n-1-k] bit for bit
at n = 33 their s-combinations (:func:`s_combination`) are the same two
terms in swapped order, so the same double: the grid keeps the half
k <= n//2 alone (17 x 33 x 33 = 18,513 triples), which is the grid by
symmetry, not a sample.  :func:`grid_verdicts` judges one s in both
directions from one combination, in three work arrays per thread that
every grid reuses.  :func:`channel_verdicts` decides a channel for the
sweep at every s it needs, from one grid and one batch of probe triples,
judging several s from the largest down where the classes nest.
:func:`certify_s_convex` and :func:`certify_s_concave` judge a fresh grid
in one direction and name a witness where it fails; ``checked`` counts
n^3.

Catalog functions carry an analytic second-derivative channel ``d2``; the
bound evaluators read |f''| at interval endpoints from it and never use
finite differences.  ``declared_class`` is a coarse label for f itself
(checked at construction); the bound evaluators certify their own
hypotheses on derived channels such as |f''|^q per call.
"""

from __future__ import annotations

import functools
import math
import re
import threading
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
    "grid_verdicts",
    "channel_verdicts",
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


class _ConvexityFields(NamedTuple):
    kind: str
    s: float | None = None


class ConvexityClass(_ConvexityFields):
    """Label: kind in {'convex', 'concave', 's_convex', 's_concave', 'none'};
    only the s_* kinds take an exponent s in (0, 1], kept as a float."""

    __slots__ = ()
    _replace = Interval._replace    # through __new__, so its checks run

    def __new__(cls, kind: str, s: float | None = None):
        if kind not in ("convex", "concave", "s_convex", "s_concave", "none"):
            raise DomainError(f"unknown convexity class kind {kind!r}")
        if kind in ("s_convex", "s_concave"):
            if s is None:
                raise DomainError(f"{kind} requires s in (0, 1]")
            s = _check_s(s)
        elif s is not None:
            raise DomainError(f"{kind} takes no s, got {s!r}")
        return super().__new__(cls, kind, s)

    def __str__(self) -> str:
        return self.kind if self.s is None else f"{self.kind}({self.s:g})"


class TestFunction(NamedTuple):
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
    functions would give, or returns a non-real value) are reported by the
    caller as IntegrandError, so numpy's warnings are suppressed here.
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
                raw = fn(float(v))
                try:
                    out[i] = float(raw)
                except TypeError:
                    # a complex value, non-finite to the caller; a
                    # TypeError of fn itself is not caught
                    out[i] = math.nan
            except OverflowError:
                out[i] = math.inf
            except SCALAR_ERRORS:
                out[i] = math.nan
        return out.reshape(arr.shape)


def _point_value(fn, t: float, place: str = "t={!r}") -> float:
    """float(fn(t)); a non-finite or non-real value, or an error of a
    scalar-only fn (see :data:`~fracineq.errors.SCALAR_ERRORS`), is an
    IntegrandError naming ``place.format(t)``, which is formatted only
    then."""
    try:
        raw = fn(t)
        try:
            value = float(raw)
        except TypeError:
            # a complex value, such as a negative float to a fractional
            # power; a TypeError of fn itself is not caught
            value = None
    except OverflowError:
        what = "overflows"
    except SCALAR_ERRORS as exc:
        what = f"raised {type(exc).__name__} ({exc})"
    else:
        if value is None:
            what = f"returned non-real value {raw!r}"
        elif math.isfinite(value):
            return value
        else:
            what = f"returned non-finite value {value!r}"
    raise IntegrandError(f"function {what} at {place.format(t)}")


# the grid's nodes per axis less one, its weights lam, shared by every
# grid, and the half k <= n//2 of them that every verdict is judged on
_STEP = CERT_GRID_N - 1
_LAM = np.linspace(0.0, 1.0, CERT_GRID_N)
_LAM.flags.writeable = False
_HALF = CERT_GRID_N // 2 + 1
# _HALF_INDEX[k, i, j] = k i + (n-1-k) j over the half: the grid's
# combination lam[k] xs[i] + (1-lam[k]) xs[j] is point m = _HALF_INDEX[k, i, j]
# of the (n-1)^2 + 1 distinct points; every grid shares it
_K = np.arange(CERT_GRID_N)
_HALF_INDEX = (_K[:_HALF, None, None] * _K[:, None]
               + (_STEP - _K[:_HALF, None, None]) * _K)
_HALF_INDEX.flags.writeable = False


class CertGrid(NamedTuple):
    """One channel evaluated on the certification grid, kept as its half.

    ``fx[i]`` is fn(xs[i]) and ``f_half[k, i, j]`` (k <= n//2) is fn at
    lam[k]*xs[i] + (1-lam[k])*xs[j] (lam = linspace(0, 1, n)), taken as
    the point a + (b-a) m/(n-1)^2 (m = k i + (n-1-k) j) that it is in
    real arithmetic.  Neither array depends on s or on the direction, so
    one grid serves every :func:`grid_verdicts` on it.
    """

    xs: np.ndarray
    fx: np.ndarray
    f_half: np.ndarray


@functools.lru_cache(maxsize=32)
def _grid_points(a: str, b: str) -> np.ndarray:
    """The grid's (n-1)^2 + 1 distinct points over [a, b], read-only; the
    ends come as ``float.hex`` texts, so that -0.0 and 0.0 are two keys."""
    a, b = float.fromhex(a), float.fromhex(b)
    points = np.linspace(a, b, _STEP * _STEP + 1)
    # the nodes themselves (m = step i) are linspace(a, b, n) bit for bit,
    # so the lam = 0 and lam = 1 faces compare f(x) with itself
    points[::_STEP] = np.linspace(a, b, CERT_GRID_N)
    points.flags.writeable = False
    return points


def _grid_values(fn, domain: Interval) -> tuple[np.ndarray, np.ndarray]:
    """The certification grid's (n-1)^2 + 1 distinct points over any real
    ``domain``, and ``fn`` there; an IntegrandError names the first
    non-finite value, at a node before an interior point."""
    points = _grid_points(float(domain.a).hex(), float(domain.b).hex())
    values = _eval_grid(fn, points)
    for where, at in (("grid node", slice(None, None, _STEP)),
                      ("interior grid combination", slice(None))):
        bad = ~np.isfinite(values[at])
        if bad.any():
            raise IntegrandError(f"function non-finite at {where} "
                                 f"t={float(points[at][bad][0])!r}")
    return points, values


def cert_grid(fn, domain: Interval) -> CertGrid:
    """Evaluate ``fn`` on the certification grid over ``domain`` (a >= 0),
    from its (n-1)^2 + 1 distinct points (:func:`_grid_values`)."""
    if domain.a < 0.0:
        raise DomainError(
            f"s-convexity is defined on [0, inf); domain starts at {domain.a}")
    points, values = _grid_values(fn, domain)
    return CertGrid(points[::_STEP].copy(), values[::_STEP].copy(),
                    values[_HALF_INDEX])


# this thread's work arrays, shared by every grid: the s-weighted
# combination, the slack-shifted threshold and the verdict flags; each
# verdict overwrites them, so no grid allocates its own
_WORK = threading.local()


def _work() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    work = getattr(_WORK, "arrays", None)
    if work is None:
        shape = (_HALF, CERT_GRID_N, CERT_GRID_N)
        work = _WORK.arrays = (np.empty(shape), np.empty(shape),
                               np.empty(shape, dtype=bool))
    return work


def s_combination(lam, s: float, fx, fy):
    """lam^s f(x) + (1-lam)^s f(y), the right side of s-convexity in the
    second sense; the arguments broadcast."""
    return lam ** s * fx + (1.0 - lam) ** s * fy


def _holds(values, combo, concave: bool, threshold=None, out=None):
    """Where ``values`` keep to s-convexity, values <= combo + CERT_SLACK,
    or to s-concavity when ``concave``, values >= combo - CERT_SLACK; a NaN
    never does.  The one violation rule of the grid and of the probes;
    ``threshold`` and ``out`` are optional work arrays."""
    if concave:
        return np.greater_equal(
            values, np.subtract(combo, CERT_SLACK, out=threshold), out=out)
    return np.less_equal(
        values, np.add(combo, CERT_SLACK, out=threshold), out=out)


def _grid_combination(grid: CertGrid, weights: np.ndarray) -> np.ndarray:
    # combination[k, i, j] = lam[k]^s fx[i] + (1-lam[k])^s fx[j] on the
    # half from the weights lam^s, formed in the work array from two half x
    # n product tables: the first is copied in along j, the second added
    # along i (one add that broadcasts both takes about a quarter longer);
    # 1 - lam is lam reversed
    combo = _work()[0]
    np.copyto(combo, (weights[:_HALF, None] * grid.fx)[:, :, None])
    np.add(combo, (weights[::-1][:_HALF, None] * grid.fx)[:, None, :],
           out=combo)
    return combo


def _grid_holds(grid: CertGrid, combo: np.ndarray, concave: bool) -> bool:
    _, threshold, flags = _work()
    return bool(_holds(grid.f_half, combo, concave, threshold, flags).all())


def grid_verdicts(grid: CertGrid, s: float) -> tuple[bool, bool]:
    """Whether ``grid`` passes s-convexity and s-concavity in the second
    sense, from one s-weighted combination."""
    combo = _grid_combination(grid, _LAM ** _check_s(s))
    return _grid_holds(grid, combo, False), _grid_holds(grid, combo, True)


def channel_verdicts(fn, domain: Interval, s_values, x, y,
                     lam) -> dict[tuple[float, bool], bool]:
    """The verdicts {(s, concave): bool} of one channel at every s of
    ``s_values`` in both directions, from the certification grid and the
    probe triples (x[i], y[i], lam[i]): a verdict holds where both pass.
    ``{}`` when the channel is non-finite on the grid (for example a
    second derivative diverging at an endpoint): nothing is certified.

    Several distinct s are judged from the largest down, and a direction
    is judged no further once the nesting of the classes decides it
    (Hudzik and Maligranda 1994): for lam in [0, 1] and s1 < s2,
    lam^s1 >= lam^s2, so where the values are >= 0 an s2-convex channel
    is s1-convex and an s1-concave one is s2-concave.  A convex pass thus
    holds at every smaller s, and a concave fail fails there.  The
    computed verdicts nest the same way, bit for bit, when the grid's node
    values and the probes' end values are finite and >= 0 and the weight
    tables (the grid's lam^s, the probes' lam^s and (1-lam)^s, each as
    :func:`grid_verdicts` and :func:`s_combination` compute it) rise
    element by element as s falls: IEEE multiply and add are monotone, so
    each combination, each threshold combo +- CERT_SLACK and the one rule
    :func:`_holds` are monotone in s.  numpy's power is not guaranteed to
    be correctly rounded, so the order of the tables is checked, not
    assumed.  Where any of this fails, every distinct s is judged; a
    single s is judged by :func:`grid_verdicts` and :func:`s_combination`
    alone.
    """
    try:
        grid = cert_grid(fn, domain)
    except IntegrandError:
        return {}
    mix = lam * x + (1.0 - lam) * y
    fx, fy, f_mix = _eval_grid(fn, np.stack([x, y, mix]))
    distinct = list(dict.fromkeys(s_values))
    if len(distinct) < 2:
        verdicts = {}
        for s in s_values:
            on_grid = grid_verdicts(grid, s)
            combo = s_combination(lam, s, fx, fy)
            for concave in (False, True):
                verdicts[(s, concave)] = on_grid[concave] and bool(
                    _holds(f_mix, combo, concave).all())
        return verdicts
    # the keys in the order of s_values; the values from the largest s down,
    # with one row of weights per s: the grid's, then the probes' two
    verdicts = dict.fromkeys(
        (s, concave) for s in distinct for concave in (False, True))
    order = sorted(distinct, key=_check_s, reverse=True)
    rest = 1.0 - lam
    tables = np.stack([np.concatenate([_LAM ** _check_s(s), lam ** s,
                                       rest ** s]) for s in order])
    ends = np.concatenate([grid.fx, fx, fy])
    nested = (bool(np.all((0.0 <= ends) & (ends < np.inf)))
              and bool(np.all(tables[1:] >= tables[:-1])))
    probe_at = CERT_GRID_N + lam.size
    known = {}      # direction -> its verdict at this s and every smaller s
    for s, row in zip(order, tables):
        if len(known) < 2:
            combo = _grid_combination(grid, row[:CERT_GRID_N])
            probes = row[CERT_GRID_N:probe_at] * fx + row[probe_at:] * fy
        for concave in (False, True):
            holds = known.get(concave)
            if holds is None:
                holds = _grid_holds(grid, combo, concave) and bool(
                    _holds(f_mix, probes, concave).all())
                # a convex pass, or a concave fail, holds at every smaller s
                if nested and holds != concave:
                    known[concave] = holds
            verdicts[(s, concave)] = holds
    return verdicts


def _whole(half: np.ndarray) -> np.ndarray:
    """The n^3 array [i, j, k] of a k-major half: half[k, i, j] for
    k <= n//2, and beyond it the mirror half[n-1-k, j, i]."""
    whole = np.empty((CERT_GRID_N,) * 3, dtype=half.dtype)
    whole[:, :, :_HALF] = half.transpose(1, 2, 0)
    whole[:, :, _HALF:] = half[:CERT_GRID_N - _HALF][::-1].transpose(2, 1, 0)
    return whole


def _certify(fn, domain: Interval, s: float,
             concave: bool) -> CertificationResult:
    grid = cert_grid(fn, domain)
    combo = _grid_combination(grid, _LAM ** _check_s(s))
    checked = CERT_GRID_N ** 3
    if _grid_holds(grid, combo, concave):
        return CertificationResult(passed=True, witness=None, checked=checked)
    # the witness is the first violating triple of the whole grid in
    # row-major (x, y, lam) order
    values, combo = _whole(grid.f_half), _whole(combo)
    i, j, k = np.argwhere(~_holds(values, combo, concave))[0]
    return CertificationResult(
        passed=False,
        witness=Witness(x=float(grid.xs[i]), y=float(grid.xs[j]),
                        lam=float(_LAM[k]), lhs=float(values[i, j, k]),
                        rhs=float(combo[i, j, k])),
        checked=checked,
    )


def certify_s_convex(fn, domain: Interval, s: float) -> CertificationResult:
    """Grid-check s-convexity in the second sense on ``domain`` (a >= 0)."""
    return _certify(fn, domain, s, concave=False)


def certify_s_concave(fn, domain: Interval, s: float) -> CertificationResult:
    """Grid-check s-concavity in the second sense (reversed inequality)."""
    return _certify(fn, domain, s, concave=True)


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

    Its second derivative s(s-1) t^(s-2) blows up at 0 for s < 1, so no
    bound built on |f''| applies to it: the family is kept out of the
    builtin catalog and is meant for the first-order sandwich checks.
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
        try:
            return _FAMILIES[m.group(1)](float(m.group(2)), name=name)
        except DomainError as exc:
            raise DomainError(f"{name}: {exc}") from exc
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
