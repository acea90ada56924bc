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
every channel on it shares: :func:`cert_grid` reads a channel there once,
by :func:`_eval_grid` (a failed read is inf or nan, and an
IntegrandError here), and gathers the values by m.  The triples (i, j, k)
and (j, i, n-1-k) share m, and since 1 - lam[k] is lam[n-1-k] bit for bit
at n = 33 their s-combinations (:func:`s_combination`) are the same two
terms in swapped order, so the same double: the grid keeps the half
k <= n//2 alone, which is the grid by symmetry, not a sample.  Of that
half it keeps the faces 1 <= k <= n//2 (16 x 33 x 33 = 17,424 triples):
on the lam = 0 face the value is f(x[j]) and its combination
0 f(x[i]) + 1 f(x[j]) is f(x[j]) exactly (0^s is 0 and 1^s is 1), so a
channel finite on the grid passes there in both directions, and a
channel that is not is refused before any verdict.
The weights lam^s of each s order are one read-only table, built when
first read and kept (``_grid_tables``).  :func:`channel_verdicts` decides
a channel for the sweep at every s it needs, in the directions asked
for, from one grid and one batch of probe triples (with none, the
grid's verdicts alone): the probes are compared first and the grid only
where they pass, and several s are judged from the largest down where
the classes nest; :func:`probes_hold` judges probe triples alone in the
convex direction, for a channel whose grid a certifier judges.
:func:`certify_s_convex` and :func:`certify_s_concave` judge a fresh
grid in one direction and name a witness where it fails; ``checked``
counts n^3.

A function is read at a point under one rule, :func:`_read`: an overflow,
an error of a scalar-only function, a complex or a non-finite value is a
failed read.  :func:`_point_value` raises it as an IntegrandError naming
the point, :func:`_eval_grid` puts inf or nan in its place for the caller
to report, and the quadrature engine names its first failing node.  The
rule and :class:`Interval` live here, so that the catalog and the
certifier load without the quadrature engine.

Catalog functions carry an analytic second-derivative channel ``d2``; the
bound evaluators read |f''| at interval endpoints from it, by
:func:`_point_value`, never by finite differences.  ``declared_class`` is a
coarse label for f on its natural domain, judged by :func:`certify_declared`
alone (the ``certify`` command and the tests call it): a lookup builds its
entry and judges no grid.  The bound evaluators certify their own
hypotheses on derived channels such as |f''|^q per call and interval.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from typing import Callable, NamedTuple

import numpy as np

from .errors import SCALAR_ERRORS, DomainError, IntegrandError

__all__ = [
    "Interval",
    "ConvexityClass",
    "TestFunction",
    "Witness",
    "CertificationResult",
    "CertGrid",
    "cert_grid",
    "channel_verdicts",
    "probes_hold",
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


class _IntervalFields(NamedTuple):
    a: float
    b: float


class Interval(_IntervalFields):
    """Closed interval [a, b] with a < b, both finite, of finite length."""

    __slots__ = ()

    def __new__(cls, a: float, b: float):
        if not (math.isfinite(a) and math.isfinite(b)):
            raise DomainError(f"interval endpoints must be finite, got [{a}, {b}]")
        if not a < b:
            raise DomainError(f"interval requires a < b, got [{a}, {b}]")
        if b - a == math.inf:
            raise DomainError(f"interval [{a}, {b}] is too wide: its length overflows")
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


# the grid's nodes per axis less one, its weights lam, shared by every
# grid, and the half k <= n//2 of them; every verdict is judged on its
# faces k = 1 .. n//2, the lam = 0 face holding for any finite channel
_STEP = CERT_GRID_N - 1
_LAM = np.linspace(0.0, 1.0, CERT_GRID_N)
_LAM.flags.writeable = False
_HALF = CERT_GRID_N // 2 + 1
# _HALF_INDEX[k-1, i, j] = k i + (n-1-k) j for k = 1 .. n//2: the grid's
# combination lam[k] xs[i] + (1-lam[k]) xs[j] is point m = _HALF_INDEX[k-1, i, j]
# of the (n-1)^2 + 1 distinct points; every grid shares it
_K = np.arange(CERT_GRID_N)
_HALF_INDEX = (_K[1:_HALF, None, None] * _K[:, None]
               + (_STEP - _K[1:_HALF, None, None]) * _K)
_HALF_INDEX.flags.writeable = False


class CertGrid(NamedTuple):
    """One channel evaluated on the certification grid, kept as its half.

    ``fx[i]`` is fn(xs[i]) and ``f_half[k-1, i, j]`` (1 <= k <= n//2) is
    fn at lam[k]*xs[i] + (1-lam[k])*xs[j] (lam = linspace(0, 1, n)),
    taken as the point a + (b-a) m/(n-1)^2 (m = k i + (n-1-k) j) that it
    is in real arithmetic.  The lam = 0 face, fx[j] at every (i, j), is
    not kept: a finite channel passes there in both directions.  Neither
    array depends on s or on the direction, so one grid serves every
    verdict on it.
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
    # as the sandwich gate reads them, and the lam = 0 and lam = 1 faces
    # compare f(x) with itself
    points[::_STEP] = np.linspace(a, b, CERT_GRID_N)
    points.flags.writeable = False
    return points


def _read(fn, t: float) -> tuple[float, str | None]:
    """float(fn(t)), and why it is not a finite real, or None: an overflow
    gives inf, an error of a scalar-only fn (SCALAR_ERRORS) or a non-real
    value nan, as numpy would, and a non-finite value is kept."""
    try:
        raw = fn(t)
        try:
            value = float(raw)
        except TypeError:
            # a complex value, such as a negative float to a fractional
            # power; a TypeError of fn itself is not caught
            return math.nan, f"returned non-real value {raw!r}"
    except OverflowError:
        return math.inf, "overflows"
    except SCALAR_ERRORS as exc:
        return math.nan, f"raised {type(exc).__name__} ({exc})"
    return value, (None if math.isfinite(value)
                   else f"returned non-finite value {value!r}")


def _point_value(fn, t: float, place: str = "t={!r}") -> float:
    """float(fn(t)); a value that fails :func:`_read` is an IntegrandError
    naming ``place.format(t)``, which is formatted only then."""
    value, failure = _read(fn, t)
    if failure is not None:
        raise IntegrandError(f"function {failure} at {place.format(t)}")
    return value


def _eval_grid(fn, arr: np.ndarray) -> np.ndarray:
    """fn over an array, else by :func:`_read` at each point; the caller
    reports what is not finite, so numpy's warnings are suppressed."""
    with np.errstate(all="ignore"):
        try:
            out = np.asarray(fn(arr), dtype=float)
            if out.shape == arr.shape:
                return out
        except (TypeError, ValueError, ZeroDivisionError):
            pass
        return np.array([_read(fn, v)[0] for v in arr.ravel().tolist()],
                        dtype=float).reshape(arr.shape)


def _check_resolvable(iv: Interval) -> None:
    """Refuse an interval doubles cannot resolve for s-convexity work: a
    :class:`DomainError` names it where its (n-1)^2 + 1 certification grid
    points are not distinct doubles, or where (b-a)^2, the scale of the
    identity and of every bound, is below the normal doubles.  A (b-a)^2
    that overflows is left to its callers' own refusal."""
    width2 = (iv.b - iv.a) * (iv.b - iv.a)
    if width2 == math.inf:
        return
    points = _grid_points(float(iv.a).hex(), float(iv.b).hex())
    # points that rise as doubles are distinct; only others are counted
    if not (points[1:] > points[:-1]).all():
        distinct = np.unique(points).size
        if distinct < points.size:
            raise DomainError(
                f"interval [{iv.a}, {iv.b}] is too narrow: its {points.size} "
                f"certification grid points are only {distinct} distinct "
                "doubles")
    if width2 < sys.float_info.min:
        raise DomainError(f"interval [{iv.a}, {iv.b}] is too narrow: (b-a)^2 "
                          f"= {width2!r} is below the normal doubles")


def _grid_values(fn, domain: Interval) -> tuple[np.ndarray, np.ndarray]:
    """The certification grid's (n-1)^2 + 1 distinct points over any real
    ``domain``, and ``fn`` there; an IntegrandError names the first
    non-finite value, at a node before an interior point."""
    points = _grid_points(float(domain.a).hex(), float(domain.b).hex())
    values = _eval_grid(fn, points)
    if not np.isfinite(values).all():
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
                    values.take(_HALF_INDEX))


def s_combination(lam, s: float, fx, fy):
    """lam^s f(x) + (1-lam)^s f(y), the right side of s-convexity in the
    second sense; the arguments broadcast."""
    return lam ** s * fx + (1.0 - lam) ** s * fy


def _holds(values, combo, concave: bool):
    """Where ``values`` keep to s-convexity, values <= combo + CERT_SLACK,
    or to s-concavity when ``concave``, values >= combo - CERT_SLACK; a NaN
    never does.  The one violation rule of the grid and of the probes."""
    if concave:
        return values >= combo - CERT_SLACK
    return values <= combo + CERT_SLACK


def _grid_combination(grid: CertGrid, weights: np.ndarray) -> np.ndarray:
    # combination[k-1, i, j] = lam[k]^s fx[i] + (1-lam[k])^s fx[j] on the
    # faces k = 1 .. n//2 of the half, from the weights lam^s and two
    # faces x n product tables: the first is copied in along j, the second
    # added along i (one add that broadcasts both takes about a quarter
    # longer); 1 - lam is lam reversed
    combo = np.empty(_HALF_INDEX.shape)
    combo[...] = (weights[1:_HALF, None] * grid.fx)[:, :, None]
    combo += (weights[::-1][1:_HALF, None] * grid.fx)[:, None, :]
    return combo


def _grid_holds(grid: CertGrid, combo: np.ndarray, concave: bool) -> bool:
    return bool(_holds(grid.f_half, combo, concave).all())


def _rises(table: np.ndarray) -> bool:
    """Whether the rows of a weight ``table``, one per s from the largest
    down, rise element by element."""
    return bool(np.all(table[1:] >= table[:-1]))


@functools.lru_cache(maxsize=32)
def _grid_tables(order: tuple[float, ...]) -> tuple[np.ndarray, bool]:
    """The grid's weights lam^s, one read-only row per s of ``order`` (as
    floats), and whether the rows rise (:func:`_rises`): the one place
    the grid's weights are computed, shared by every grid judged at the
    same s, from the largest down where there are several."""
    table = np.stack([_LAM ** s for s in order])
    table.flags.writeable = False
    return table, _rises(table)


def _probe_values(fn, x, y, lam) -> np.ndarray:
    """fn at the probe triples (x[i], y[i], lam[i]): the rows f(x), f(y)
    and f(lam x + (1-lam) y); a failed read is inf or nan."""
    return _eval_grid(fn, np.stack([x, y, lam * x + (1.0 - lam) * y]))


def probes_hold(fn, s_values, x, y, lam) -> dict[float, bool]:
    """{s: whether the probe triples (x[i], y[i], lam[i]) keep to
    s-convexity} for each s of ``s_values``: the probe half of a convex
    verdict, by :func:`s_combination` and the rule :func:`_holds`."""
    fx, fy, f_mix = _probe_values(fn, x, y, lam)
    return {s: bool(_holds(f_mix, s_combination(lam, s, fx, fy), False).all())
            for s in s_values}


def _nests(ends, rises: bool) -> bool:
    """Whether verdicts judged from the largest s down nest bit for bit
    (see :func:`channel_verdicts`): the weight tables rise (``rises``,
    from :func:`_rises`) and the values ``ends`` that the combinations
    weight are finite and >= 0."""
    return rises and bool(np.all((0.0 <= ends) & (ends < np.inf)))


def channel_verdicts(fn, domain: Interval, s_values, x, y, lam,
                     directions=(False, True)
                     ) -> dict[tuple[float, bool], bool]:
    """The verdicts {(s, concave): bool} of one channel at every s of
    ``s_values`` in each direction of ``directions`` (``concave`` False,
    True or both), from the certification grid and the probe triples
    (x[i], y[i], lam[i]): a verdict holds where both pass.  The keys come
    in the order of ``s_values``, the convex one first at each s.  ``{}``
    when the channel is non-finite on the grid (for example a second
    derivative diverging at an endpoint): nothing is certified.

    Each (s, direction) judged compares the probe triples first and the
    grid only where they pass, so an s's grid combination is formed only
    where some direction still judged passes its probes.

    Several distinct s are judged from the largest down, and a direction
    is judged no further once the nesting of the classes decides it
    (Hudzik and Maligranda 1994): for lam in [0, 1] and s1 < s2,
    lam^s1 >= lam^s2, so where the values are >= 0 an s2-convex channel
    is s1-convex and an s1-concave one is s2-concave.  A convex pass thus
    holds at every smaller s, and a concave fail fails there.  The
    computed verdicts nest the same way, bit for bit, when the grid's node
    values and the probes' end values are finite and >= 0 and the weight
    tables (the grid's lam^s from ``_grid_tables``, the probes' lam^s and
    (1-lam)^s as :func:`s_combination` computes them) rise
    element by element as s falls: IEEE multiply and add are monotone, so
    each combination, each threshold combo +- CERT_SLACK and the one rule
    :func:`_holds` are monotone in s.  numpy's power is not guaranteed to
    be correctly rounded, so the order of the tables is checked, not
    assumed.  Where any of this fails, or there is one distinct s, every
    distinct s is judged.
    """
    try:
        grid = cert_grid(fn, domain)
    except IntegrandError:
        return {}
    fx, fy, f_mix = _probe_values(fn, x, y, lam)
    wanted = [concave for concave in (False, True) if concave in directions]
    distinct = list(dict.fromkeys(s_values))
    # the keys in the order of s_values; the values from the largest s down,
    # each s with its row of the grid's weights (_grid_tables) and of the
    # probes' two, lam^s then (1-lam)^s as s_combination computes them
    verdicts = dict.fromkeys(
        (s, concave) for s in distinct for concave in wanted)
    order = sorted(distinct, key=_check_s, reverse=True)
    table, rises = _grid_tables(tuple(map(float, order)))
    rest = 1.0 - lam
    weights = np.stack([np.concatenate([lam ** s, rest ** s]) for s in order])
    nested = len(order) > 1 and _nests(np.concatenate([grid.fx, fx, fy]),
                                       rises and _rises(weights))
    known = {}      # direction -> its verdict at this s and every smaller s
    split = lam.size
    for s, row, probe_row in zip(order, table, weights):
        probes = combo = None
        for concave in wanted:
            holds = known.get(concave)
            if holds is None:
                if probes is None:
                    probes = probe_row[:split] * fx + probe_row[split:] * fy
                holds = bool(_holds(f_mix, probes, concave).all())
                if holds:
                    if combo is None:
                        combo = _grid_combination(grid, row)
                    holds = _grid_holds(grid, combo, concave)
                # a convex pass, or a concave fail, holds at every smaller s
                if nested and holds != concave:
                    known[concave] = holds
            verdicts[(s, concave)] = holds
    return verdicts


def _whole(half: np.ndarray) -> np.ndarray:
    """The n^3 array [i, j, k] of a k-major half, its lam = 0 face
    included: half[k, i, j] for k <= n//2, and beyond it the mirror
    half[n-1-k, j, i]."""
    whole = np.empty((CERT_GRID_N,) * 3, dtype=half.dtype)
    whole[:, :, :_HALF] = half.transpose(1, 2, 0)
    whole[:, :, _HALF:] = half[:CERT_GRID_N - _HALF][::-1].transpose(2, 1, 0)
    return whole


def _certify(fn, domain: Interval, s: float,
             concave: bool) -> CertificationResult:
    grid = cert_grid(fn, domain)
    combo = _grid_combination(grid, _grid_tables((_check_s(s),))[0][0])
    checked = CERT_GRID_N ** 3
    if _grid_holds(grid, combo, concave):
        return CertificationResult(passed=True, witness=None, checked=checked)
    # the witness is the first violating triple of the whole grid in
    # row-major (x, y, lam) order; the lam = 0 face, fx[j] and its
    # combination alike, never violates, and is put back for the layout
    face = np.broadcast_to(grid.fx, (1, CERT_GRID_N, CERT_GRID_N))
    values = _whole(np.concatenate([face, grid.f_half]))
    combo = _whole(np.concatenate([face, combo]))
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


def s_power(s: float, name: str | None = None) -> TestFunction:
    """f(t) = t^(s+2) / ((s+1)(s+2)); second derivative is exactly t^s."""
    s = _check_s(s)
    c = 1.0 / ((s + 1.0) * (s + 2.0))
    return TestFunction(
        name=name or f"s_power_{s:g}",
        fn=lambda t, s=s, c=c: c * t ** (s + 2.0),
        d2=lambda t, s=s: t ** s,
        declared_class=ConvexityClass("s_convex", s),
        natural_domain=_DOMAIN,
    )


def root_power(s: float, name: str | None = None) -> TestFunction:
    """f(t) = t^s on [0, 1]; the canonical s-convex power function.

    Its second derivative s(s-1) t^(s-2) blows up at 0 for s < 1, so no
    bound built on |f''| applies to it: the family is kept out of the
    builtin catalog and is meant for the first-order sandwich checks.
    """
    s = _check_s(s)
    return TestFunction(
        name=name or f"root_power_{s:g}",
        fn=lambda t, s=s: t ** s,
        d2=lambda t, s=s: s * (s - 1.0) * t ** (s - 2.0) if s != 1.0 else 0.0 * t,
        declared_class=ConvexityClass("s_convex", s),
        natural_domain=Interval(0.0, 1.0),
    )


def shifted_square(a: float, name: str | None = None) -> TestFunction:
    """f(t) = (t - a)^2, the equality witness for intervals starting at a;
    a shift whose natural domain [a, a+2] doubles cannot resolve
    (:func:`_check_resolvable`, a >= 2e13) is a :class:`DomainError`."""
    a = float(a)
    if a < 0.0:
        raise DomainError(f"shift must be >= 0, got {a}")
    domain = Interval(a, a + 2.0)
    _check_resolvable(domain)
    return TestFunction(
        name=name or f"shifted_square_{a:g}",
        fn=lambda t, a=a: (t - a) ** 2,
        d2=lambda t: 2.0 + 0.0 * t,
        declared_class=ConvexityClass("convex"),
        natural_domain=domain,
    )


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
# every entry get_function has built, by name
_RESOLVED: dict[str, TestFunction] = {}


def _build(name: str) -> TestFunction:
    """Build the catalog entry called ``name``."""
    if name in _CONVEX_BUILTINS:
        fn, d2 = _CONVEX_BUILTINS[name]
        return TestFunction(name, fn, d2, ConvexityClass("convex"), _DOMAIN)
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
    constructed on demand.  Each entry is built the first time its name is
    asked for, and kept; no grid is judged (:func:`certify_declared`
    judges the declared class).  An unknown name, or a family parameter
    out of range, raises :class:`DomainError` naming it, and nothing is
    kept.
    """
    tf = _RESOLVED.get(name)
    if tf is None:
        tf = _RESOLVED[name] = _build(name)
    return tf


@functools.cache
def builtin_catalog() -> tuple[TestFunction, ...]:
    """The built-in catalog (immutable, built once, no grid judged).

    Contains the monomials t^k (k = 2, 3, 4) whose |f''| is convex, the
    s_power family with |f''| = t^s for s in {0.25, 0.5, 0.75} (the s = 0.5
    member has f'' = sqrt(t), so |f''|^q is concave for q <= 2), constants
    and a linear function, and the shifted equality witness (t-1)^2.
    """
    return tuple(get_function(name) for name in _BUILTIN_NAMES)


def catalog_names() -> list[str]:
    """The builtin entries' names; builds nothing."""
    return list(_BUILTIN_NAMES)
