"""Parameter-sweep harness: certification, identity and bound checks in bulk.

A sweep takes a :class:`SweepConfig` (normally parsed from a flat
``key = value ...`` text file, see :func:`parse_config_text`) and emits one
row per configured tuple and applicable check, in the order a stable sort
of the rows, made in config order, by ``(check_id, function, a, b, alpha,
s, p, q)`` gives.  Every (function, interval) cell makes the same
(check_id, alpha, s, p, q) sequence, so that is sorted once per sweep, the
layout, and the cells once by (function, a, b): each check id takes each
cell's rows in layout order.  Only cells tied on (function, a, b), a
repeated entry or ``0,1`` beside ``-0,1``, have their rows of a check
merged by the full key, in config order, as are the weight-integral rows.
One table, ``_LISTS``, reads, types and checks every list entry, of a
config file, a CLI flag or a config built in code alike.

Row semantics
-------------
Every row is a single comparison between ``lhs`` and ``rhs``:

* identity checks (``identity``, ``weight_int_*``): ``slack_measured`` is
  ``|lhs - rhs|`` and the row passes when it is at most the configured
  slack;
* inequality checks (``sandwich_*``, ``bound_*``, ``holder_kernel_bound``):
  ``slack_measured`` is ``rhs - lhs`` and the row passes when the margin
  is at least ``-slack``.

Statuses: ``pass`` / ``fail`` as above; ``precondition_skipped`` when the
convexity hypothesis of the check does not certify for that tuple;
``out_of_validated_range`` for rows computed and recorded but not asserted:
the Hoelder-route and concave bounds at alpha > 1 (their kernel-comparison
step is only valid on (0, 1]), and the classical /2 upper-sandwich reading,
kept beside the asserted 1/(s+1) one, where it does not hold.

The per-cell pass
-----------------
:func:`run_sweep` is one loop over the (function, interval) cells.  Each
cell certifies every channel it needs once: f's seeded batch of random
probe triples (config ``seed`` and the channel's key) is judged at every
s in the convex direction the sandwich reads, and f's grid by the
sandwich's own gate, once per cell, from the largest s where the probes
pass down: a pass holds at every smaller s with no further call where
f's grid nodes are finite and >= 0 and the grid's weights lam^s rise as
s falls (checked, :func:`~fracineq.hhbounds._sandwiches`), and a fail,
or a condition that does not hold, sends the next s to its own call;
|f''|, and |f''|^q for each distinct q (|f''|^1 is the |f''| channel),
each get one :func:`~fracineq.funclib.channel_verdicts` call that judges the
channel's probes, and its grid where they pass, at every s value in the
directions the channel's rows read (the set :func:`run_sweep` derives
from the hypothesis groups; |f''| at least in the convex one, whose
verdicts also tell the identity row that f'' is finite on the grid), so
reported hypothesis checks do not depend silently on grid alignment.
The sandwich's terms that depend on no s (f >= 0 on the grid's nodes,
read once with the gate's inheritance check, f(a), f(b), f(mid) and the
mean, one ``integrate`` call) are computed once per cell, where some
gate passes.  Where the |f''| channel has verdicts, the cell computes
its trapezoid defects and identity right-hand sides for every configured
alpha, one ladder pass per side; each alpha's defect is shared by its
identity row and all its bound rows.  Where it has none, |f''| being
non-finite on the grid, neither side is computed, and the identity row
and every bound row are skipped.  The cell then returns its sandwich,
identity and bound rows; the bound rows come from
:data:`~fracineq.hhbounds.BOUND_CHECKS`, one entry per bound row of the
README check table, whose hypothesis the cell judges itself.  Each bound
row's entry is built once per sweep, grouped by the hypothesis (q, s,
direction) it rests on: its check id, parameters, ``combine``,
``factors`` and the rule its computed row is judged by.  A cell looks up
each group's verdict once and skips a refused group's rows in one pass;
a computed row's ``combine`` takes the cell's (b-a)^2 and |f''|^q at a,
b or the midpoint, each f'' value read and raised to each q once, when a
row first asks for it.  The weight-integral rows depend on no cell: one
ladder pass per s and one per p, each holding every alpha.

An outcome is a value or the error that stopped it, a sandwich's included,
and the row builder alone turns an error, in lhs before rhs, into a
status: AccuracyError ``fail``, any other ``precondition_skipped``, with no
lhs, rhs or margin.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import zlib
from functools import partial
from itertools import groupby, product
from operator import itemgetter
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    AccuracyError,
    ConfigError,
    DomainError,
    FracineqError,
    IntegrandError,
    PreconditionError,
)
# certify_s_convex is not called here; bench/test_bench.py checks that the
# layer tracer patches it in this module's namespace
from .funclib import (  # noqa: F401
    Interval,
    TestFunction,
    _check_resolvable,
    _check_s,
    abs_d2,
    certify_s_convex,
    channel_verdicts,
    get_function,
    probes_hold,
)
from .hhbounds import (
    BOUND_CHECKS,
    DEFAULT_CHECK_SLACK,
    DEFAULT_QUAD_TOL,
    BoundParams,
    _check_bound_alpha,
    _check_p,
    _check_q,
    _check_slack,
    _Curvatures,
    _defects,
    _identity_rhs,
    _sandwiches,
    _weight_integrals,
    _width_squared,
)
from .quadrature import _check_abs_tol

__all__ = [
    "SweepConfig",
    "SweepRow",
    "SweepReport",
    "parse_config_text",
    "load_config",
    "run_sweep",
    "render_report",
    "CSV_HEADER",
    "BOUND_CHECKS",
]

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_OUT_OF_RANGE = "out_of_validated_range"
STATUS_SKIPPED = "precondition_skipped"

_PROBE_COUNT = 64


class SweepConfig(NamedTuple):
    functions: tuple[str, ...]
    intervals: tuple[Interval, ...]
    alphas: tuple[float, ...]
    s_values: tuple[float, ...]
    p_values: tuple[float, ...]
    q_values: tuple[float, ...]
    slack: float = DEFAULT_CHECK_SLACK
    quad_tol: float = DEFAULT_QUAD_TOL
    output_format: str = "csv"
    seed: int = 0


class SweepRow(NamedTuple):
    """One report row; the fields are the report columns, in order."""

    check_id: str
    function: str | None
    a: float | None
    b: float | None
    alpha: float | None
    s: float | None
    p: float | None
    q: float | None
    lhs: float | None
    rhs: float | None
    slack_measured: float | None
    status: str


CSV_HEADER = list(SweepRow._fields)


class SweepReport(NamedTuple):
    rows: tuple[SweepRow, ...]

    @property
    def any_fail(self) -> bool:
        return any(r.status == STATUS_FAIL for r in self.rows)


# ---------------------------------------------------------------------------
# configuration parsing / validation

# each optional scalar key, the SweepConfig field it sets, and its type; a
# key left out keeps SweepConfig's default
_SCALARS = {"slack": ("slack", float), "quad_tol": ("quad_tol", float),
            "format": ("output_format", str), "seed": ("seed", int)}


def _sweep_interval(iv: Interval) -> None:
    """An interval of s-convexity work: a >= 0, (b-a)^2 finite, and
    resolved by doubles (:func:`funclib._check_resolvable`)."""
    if iv.a < 0.0:
        raise DomainError(f"s-convexity work requires a >= 0, got a={iv.a}")
    _width_squared(iv)
    _check_resolvable(iv)


# each list key: how a config or CLI token is read, the type an entry must
# have, and the check (raising DomainError) that an entry must pass
_LISTS = {
    "functions": (str, str, get_function),
    "intervals": (Interval.parse, Interval, _sweep_interval),
    "alphas": (float, numbers.Real, _check_bound_alpha),
    "s_values": (float, numbers.Real, _check_s),
    "p_values": (float, numbers.Real, _check_p),
    "q_values": (float, numbers.Real, _check_q),
}


def _convert(field_name: str, tokens: list[str], convert) -> tuple:
    """Read tokens; an unreadable one names the key, a bad value its entry."""
    out = []
    for i, tok in enumerate(tokens):
        try:
            out.append(convert(tok))
        except DomainError as exc:
            raise ConfigError(f"{field_name}[{i}]", str(exc)) from exc
        except ValueError as exc:
            raise ConfigError(field_name, f"cannot read {tok!r} as "
                              f"{convert.__name__}") from exc
    return tuple(out)


def _parse(text: str, flags: dict[str, list[str]]) -> SweepConfig:
    """:func:`parse_config_text`; each key's ``flags`` tokens replace the file's."""
    raw: dict[str, list[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _LISTS and key not in _SCALARS:
            raise ConfigError(key or f"line {lineno}", "unknown configuration key")
        if key in raw:
            raise ConfigError(key, "duplicate key")
        raw[key] = value.split()
    raw.update(flags)

    def scalar(key: str, convert):
        if len(raw[key]) != 1:
            raise ConfigError(key, "expected a single value")
        return _convert(key, raw[key], convert)[0]

    config = SweepConfig(
        **{key: _convert(key, raw.get(key, ()), read)
           for key, (read, _, _) in _LISTS.items()},
        **{field_name: scalar(key, convert)
           for key, (field_name, convert) in _SCALARS.items() if key in raw},
    )
    validate_config(config)
    return config


def parse_config_text(text: str) -> SweepConfig:
    """Parse the flat config syntax.

    One ``key = value ...`` per line; ``#`` starts a comment.  List values
    are whitespace-separated tokens; intervals are ``a,b`` tokens.  The six
    list keys are required and must be non-empty; ``slack``, ``quad_tol``,
    ``format`` and ``seed`` are optional scalars.  The syntax is read
    here and the values are then checked by :func:`validate_config`; a
    :class:`ConfigError` from either names the offending field.
    """
    return _parse(text, {})


def _load(path: str | Path, flags: dict[str, list[str]]) -> SweepConfig:
    """:func:`load_config` with ``flags``, as :func:`_parse` takes them."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {str(path)!r}: {exc}") from exc
    return _parse(text, flags)


def load_config(path: str | Path) -> SweepConfig:
    """Read and parse the config file at ``path``, less a leading UTF-8
    byte-order mark; a file that cannot be read as UTF-8 text is a
    :class:`ConfigError` naming the path."""
    return _load(path, {})


def _check_value(name: str, value, check, kind=numbers.Real) -> None:
    """Run ``check`` on ``value``, of type ``kind``, never a bool, never
    converted; a wrong type or a DomainError is a ConfigError naming it."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(name, f"must be of type {kind.__name__}, got {value!r}")
    try:
        check(value)
    except DomainError as exc:
        raise ConfigError(name, str(exc)) from exc


def validate_config(config: SweepConfig) -> None:
    """Raise :class:`ConfigError` naming the offending field if invalid."""
    for key in _LISTS:
        values = getattr(config, key)
        if not isinstance(values, (tuple, list)):
            raise ConfigError(key, f"must be a tuple or list, got {values!r}")
        if not values:
            raise ConfigError(key, "must be non-empty")
    for key, (_, kind, check) in _LISTS.items():
        for i, value in enumerate(getattr(config, key)):
            _check_value(f"{key}[{i}]", value, check, kind)
    for key, check in (("slack", _check_slack), ("quad_tol", _check_abs_tol)):
        _check_value(key, getattr(config, key), partial(check, name=key))
    if config.output_format not in ("csv", "json"):
        raise ConfigError("format", f"must be csv or json, got {config.output_format}")
    _check_value("seed", config.seed, int, int)


# ---------------------------------------------------------------------------
# sweep execution


class _Rule(NamedTuple):
    """How a computed row is judged: identity rows compare |lhs - rhs| with
    the slack, the others the margin rhs - lhs with -slack."""

    identity: bool
    if_holds: str
    if_not: str


_IDENTITY = _Rule(True, STATUS_PASS, STATUS_FAIL)
_ASSERTED = _Rule(False, STATUS_PASS, STATUS_FAIL)
# an alternative reading, recorded but never failed
_OBSERVED = _Rule(False, STATUS_PASS, STATUS_OUT_OF_RANGE)
# outside the validated range: recorded whether or not it holds
_RECORDED = _Rule(False, STATUS_OUT_OF_RANGE, STATUS_OUT_OF_RANGE)

# sandwich rows: check id, lhs and rhs fields of the SandwichResult, rule
_SANDWICH_ROWS = (
    ("sandwich_lower", "lower", "mean", _ASSERTED),
    ("sandwich_upper", "mean", "upper", _ASSERTED),
    ("sandwich_upper_classical", "mean", "upper_classical", _OBSERVED),
)


def _range_rule(in_range: bool) -> _Rule:
    return _ASSERTED if in_range else _RECORDED


def _row(slack: float, check_id: str, key: tuple, lhs=None, rhs=None,
         rule: _Rule = _ASSERTED) -> SweepRow:
    """Build a row; ``key`` is (function, a, b, alpha, s, p, q).

    An error outcome (lhs first) sets the status, and no lhs, rhs or
    margin is recorded; otherwise ``rule`` judges lhs and rhs against
    ``slack``.
    """
    measured = None
    error = (lhs if isinstance(lhs, FracineqError)
             else rhs if isinstance(rhs, FracineqError) else None)
    if error is not None:
        lhs = rhs = None
        status = (STATUS_FAIL if isinstance(error, AccuracyError)
                  else STATUS_SKIPPED)
    else:
        if rule.identity:
            measured = abs(lhs - rhs)
            holds = measured <= slack
        else:
            measured = rhs - lhs
            holds = measured >= -slack
        status = rule.if_holds if holds else rule.if_not
    # tuple.__new__ skips the Python-level __new__ of the NamedTuple
    return tuple.__new__(SweepRow, (check_id, *key, lhs, rhs, measured, status))


def _probes(config: SweepConfig, f: TestFunction, channel: str,
            iv: Interval, q: float | None = None) -> tuple[np.ndarray, ...]:
    """The probe triples (x, y, lam) of ``channel`` of ``f`` on ``iv``:
    ``f`` itself, or ``abs_d2``: |f''|^q (keyed ``abs_d2_pow``), |f''| for
    q None; drawn from the config seed and the channel's key.

    The draw is three ``Generator.uniform`` calls (x and y on ``iv``, then
    lam on [0, 1]) bit for bit, made as one: the generator's doubles u,
    then ``uniform``'s own formula a + (b - a) u (lam is u itself)."""
    key = (f.name, channel if q is None else "abs_d2_pow", iv.a, iv.b, q)
    # the same seed words as the list [seed mod 2^32, crc], without the
    # list's coercion
    rng = np.random.default_rng(np.array(
        [config.seed & 0xFFFFFFFF, zlib.crc32(repr(key).encode())],
        dtype=np.uint32))
    u = rng.random(3 * _PROBE_COUNT)
    # the ends as doubles, as uniform reads them
    a, b = float(iv.a), float(iv.b)
    xy = a + (b - a) * u[:2 * _PROBE_COUNT]
    return xy[:_PROBE_COUNT], xy[_PROBE_COUNT:], u[2 * _PROBE_COUNT:]


def _verdicts(config: SweepConfig, f: TestFunction, iv: Interval,
              q: float | None = None, directions=(False, True)
              ) -> dict[tuple[float, bool], bool]:
    """The verdicts {(s, concave): bool} of |f''|^q (|f''| for q None) on
    ``iv`` in ``directions``, from the grid and the channel's probes;
    ``{}`` where the channel is non-finite on the certification grid."""
    return channel_verdicts(abs_d2(f, q), iv, config.s_values,
                            *_probes(config, f, "abs_d2", iv, q),
                            directions=directions)


def _sandwich_rows(config: SweepConfig, f: TestFunction, iv: Interval
                   ) -> list[SweepRow]:
    """The sandwich rows of ``f`` on ``iv`` at each s: skipped where f's
    probes break s-convexity, else the sandwich of
    :func:`~fracineq.hhbounds._sandwiches`, whose gate is f's only grid
    judge, or the error that stopped it."""
    probes = probes_hold(f.fn, config.s_values, *_probes(config, f, "f", iv))
    gated = iter(_sandwiches(f.fn, iv, [s for s in config.s_values
                                        if probes[s]], config.quad_tol))
    rows = []
    for s in config.s_values:
        key = (f.name, iv.a, iv.b, None, s, None, None)
        # each row reads an error as its lhs and rhs
        sw = (next(gated) if probes[s]
              else PreconditionError(f"f is not certified {s}-convex"))
        rows += [_row(config.slack, cid, key, getattr(sw, lhs, sw),
                      getattr(sw, rhs, sw), rule)
                 for cid, lhs, rhs, rule in _SANDWICH_ROWS]
    return rows


def _cell_rows(config: SweepConfig, alphas: tuple[float, ...],
               groups: dict[tuple, list[tuple]],
               channels: dict[float | None, tuple[bool, ...]],
               f: TestFunction, iv: Interval) -> list[SweepRow]:
    """The sandwich, identity and bound rows of ``f`` on ``iv``.

    The |f''| channel and |f''|^q for each distinct q of ``groups`` (see
    :func:`run_sweep`) are certified once each, in the directions
    ``channels`` gives them, those their groups read.  Where |f''| has
    verdicts, the defects and identity right-hand sides are computed for
    every order of ``alphas``, one ladder pass per side, else every row
    that needs them is skipped.  Each hypothesis group's verdict is looked
    up once: a refused group's rows are skipped together, and a computed
    bound row combines its factors with the cell's (b-a)^2 and |f''|^q,
    read when first asked for.
    """
    rows = _sandwich_rows(config, f, iv)
    slack = config.slack
    head = (f.name, iv.a, iv.b)     # read once, not per row
    curvature = {q: _verdicts(config, f, iv, q, directions)
                 for q, directions in channels.items()}
    try:
        # the identity needs f'' integrable: where |f''| is non-finite on
        # the certification grid its channel has no verdicts, and neither
        # side is computed
        if not curvature[None]:
            raise IntegrandError("f'' is not finite on the certification grid")
        lhs = _defects(f, iv, alphas, config.quad_tol)[2]
        rhs = _identity_rhs(f, iv, alphas, config.quad_tol)
    except IntegrandError as exc:
        # no alpha has a defect (as where f is non-finite at an endpoint),
        # and every row that needs one is skipped
        lhs = rhs = [exc] * len(alphas)
    # {alpha: (signed defect, identity rhs)}, each a float or the error
    # that stopped it
    sides = dict(zip(alphas, zip(lhs, rhs)))
    rows += [_row(slack, "identity", (*head, alpha, None, None, None),
                  *sides[alpha], _IDENTITY) for alpha in config.alphas]
    # each order's |D|, or the error that stopped it, read once
    defects = {alpha: d if isinstance(d, FracineqError) else abs(d)
               for alpha, d in zip(alphas, lhs)}
    width2, curvature_at = _width_squared(iv), _Curvatures(f, iv)
    for (q, s, concave), entries in groups.items():
        if not curvature[q].get((s, concave), False):
            # a refused hypothesis: every row of the group is skipped, with
            # no lhs, rhs or margin (as _row builds it, without the call)
            rows += [tuple.__new__(SweepRow, (check_id, *head, *params, None,
                                              None, None, STATUS_SKIPPED))
                     for check_id, _, params, _, _, _ in entries]
            continue
        for check_id, alpha, params, combine, factors, rule in entries:
            defect = defects[alpha]
            if isinstance(defect, FracineqError):
                rows.append(_row(slack, check_id, head + params, defect))
            else:
                rows.append(_row(slack, check_id, head + params, defect,
                                 combine(width2, curvature_at, factors),
                                 rule))
    return rows


def _weight_rows(config: SweepConfig) -> list[SweepRow]:
    """The weight-integral rows, which depend on no function or interval:
    one ladder pass per s and one per p for every alpha."""
    return [_row(config.slack, check_id, (None, None, None, alpha, s, p, None),
                 lhs, rhs, _IDENTITY if identity else _range_rule(in_range))
            for check_id, alpha, s, p, lhs, rhs, in_range, identity
            in _weight_integrals(config.alphas, config.s_values,
                                 config.p_values, config.quad_tol)]


# (check_id, function, a, b, alpha, s, p, q), the report's order; all rows
# of one check id leave the same of these columns None, so no None meets a
# value here or in the layout's sort
_sort_key = itemgetter(slice(0, 8))


def _report(cells: list[list[SweepRow]], weights: list[SweepRow]
            ) -> list[SweepRow]:
    """The rows of ``cells`` (each one cell's, in config order) and
    ``weights``, as a stable sort by :data:`_sort_key` orders them, placed
    by the layout (see the module docstring)."""
    first = cells[0]
    layout = sorted(range(len(first)), key=list(
        map(itemgetter(0, 4, 5, 6, 7), first)).__getitem__)
    place = itemgetter(*layout)     # a cell has 3+ rows: this picks a tuple
    spans, stop = {}, 0
    for check_id, run in groupby(first[i][0] for i in layout):
        start, stop = stop, stop + sum(1 for _ in run)
        spans[check_id] = slice(start, stop)
    # the cells by (function, a, b), placed, those tied on it together
    heads = [cell[0][1:4] for cell in cells]
    ties = [[place(cells[i]) for i in tied] for _, tied in groupby(
        sorted(range(len(cells)), key=heads.__getitem__), heads.__getitem__)]
    parts = {check_id: list(run) for check_id, run in groupby(
        sorted(weights, key=_sort_key), itemgetter(0))}
    for check_id, span in spans.items():
        part = parts[check_id] = []
        for tied in ties:
            part += (tied[0][span] if len(tied) == 1 else sorted(
                [row for cell in tied for row in cell[span]], key=_sort_key))
    rows = []
    for check_id in sorted(parts):
        rows += parts[check_id]
    return rows


def run_sweep(config: SweepConfig) -> SweepReport:
    """Evaluate all checks over the configured grid; deterministic."""
    validate_config(config)
    # the configured orders, each once: one batch per (function, interval)
    alphas = tuple(dict.fromkeys(config.alphas))
    # every bound row of a cell, built once and grouped by the hypothesis
    # it rests on, keyed (q, s, concave): q that of its |f''|^q channel
    # (None for |f''|^1: x ** 1.0 is x).  Each entry is a plain tuple that
    # cells unpack (cheaper than reading a record's fields): its check id,
    # alpha, parameters (alpha, s, p, q), combine and factors, and the rule
    # its computed row is judged by
    groups: dict[tuple, list[tuple]] = {}
    for alpha, s in product(config.alphas, config.s_values):
        params = {
            None: (BoundParams(alpha, s),),
            "conjugate": tuple(BoundParams(alpha, s, p=p)
                               for p in config.p_values),
            "q_values": tuple(BoundParams(alpha, s, q=q)
                              for q in config.q_values),
        }
        for check in BOUND_CHECKS:
            for bp in params[check.q_from]:
                key = (None if bp.q == 1.0 else bp.q, bp.s, check.concave)
                groups.setdefault(key, []).append((
                    check.check_id, bp.alpha, tuple(bp), check.combine,
                    check.factors(bp),
                    _range_rule(bp.alpha <= check.alpha_max)))
    # each channel's directions, those its groups read, |f''| first: the
    # identity row reads |f''|'s verdicts too, {} where it is non-finite on
    # the grid, so it is judged at least in the convex direction, which its
    # bound_s_convex rows read
    read = {None: {False}}
    for q, _, concave in groups:
        read.setdefault(q, set()).add(concave)
    channels = {q: tuple(sorted(held)) for q, held in read.items()}
    # the cells computed in config order, as the certifier and quadrature
    # calls are made; _report places their rows in the report's
    cells = [_cell_rows(config, alphas, groups, channels,
                        get_function(name), iv)
             for name in config.functions for iv in config.intervals]
    return SweepReport(rows=tuple(_report(cells, _weight_rows(config))))


# ---------------------------------------------------------------------------
# rendering


class _Texts(dict):
    """One render's memo: the report text of each distinct cell value, made
    by ``text`` when the value is first met.  ±0 are one key with two texts
    (0 and -0), so no zero is stored: the two are made once, up front."""

    def __init__(self, text):
        self.text = text
        self.zeros = text(0.0), text(-0.0)

    def __missing__(self, value):
        if value == 0:
            return self.zeros[math.copysign(1.0, value) < 0.0]
        made = self[value] = self.text(value)
        return made


def _csv_text(value) -> str:
    """A CSV cell: None empty, any other non-string ``'%.17g' % v``, and a
    string as ``csv.writer`` writes it (the row ``value, ""`` less ",\\n")."""
    if not isinstance(value, str):
        return "" if value is None else "%.17g" % value
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((value, ""))
    return buf.getvalue()[:-2]


def _json_text(value) -> str:
    """An exact float, a string or None as ``json.dumps`` writes it."""
    if value is None:
        return "null"
    if type(value) is str:
        return encode_basestring_ascii(value)
    if math.isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


# the cell types of a JSON column whose texts come from the render's memo:
# no two values of these types compare equal, the memo keeping ±0 apart;
# a column holding any other type (1, True, np.float64) is handed to
# json.dumps cell by cell
_JSON_MEMO_TYPES = frozenset({float, str, type(None)})
# the text of one row of json.dumps(rows as dicts, indent=2)
_JSON_ROW = "  {\n" + ",\n".join(
    f"    {encode_basestring_ascii(name)}: %s" for name in SweepRow._fields
) + "\n  }"


def render_report(report: SweepReport, output_format: str = "csv") -> bytes:
    """Serialise a report, byte for byte as ``csv.writer`` writes it or as
    ``json.dumps(rows as dicts, indent=2) + "\\n"``.

    A CSV row is its cells' memo texts joined by commas; the JSON is
    rendered by column (the rows transposed once), and each row then
    fills one template."""
    if output_format == "csv":
        cell = _Texts(_csv_text).__getitem__
        return "".join([",".join(map(cell, r)) + "\n"
                        for r in (CSV_HEADER, *report.rows)]).encode("utf-8")
    if output_format == "json":
        if not report.rows:
            return b"[]\n"
        memo = _Texts(_json_text).__getitem__
        columns = [map(memo if _JSON_MEMO_TYPES.issuperset(map(type, column))
                       else json.dumps, column)
                   for column in zip(*report.rows)]
        text = ("[\n" + ",\n".join(map(_JSON_ROW.__mod__, zip(*columns)))
                + "\n]\n")
        return text.encode("utf-8")
    raise ConfigError("format", f"must be csv or json, got {output_format}")
