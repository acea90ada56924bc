"""Parameter-sweep harness: certification, identity and bound checks in bulk.

A sweep takes a :class:`SweepConfig` (normally parsed from a flat
``key = value ...`` text file, see :func:`parse_config_text`) and emits one
row per configured tuple and applicable check, sorted by
``(check_id, function, a, b, alpha, s, p, q)``.

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
cell certifies every channel it needs once (f, |f''|, and |f''|^q for each
distinct q; |f''|^1 is the |f''| channel): one
:func:`~fracineq.funclib.channel_verdicts` call judges the grid and a
seeded batch of random probe triples (config ``seed`` and the channel's
key) at every s value in both directions, so reported hypothesis checks do
not depend silently on grid alignment.  Where the |f''| channel has
verdicts, the cell computes its trapezoid defects and identity right-hand
sides for every configured alpha, one ladder pass per side; each alpha's
defect is shared by its identity row and all its bound rows.  Where it has
none, |f''| being non-finite on the grid, neither side is computed, and
the identity row and every bound row are skipped.  The cell then returns
its sandwich, identity and bound rows; the bound rows come from
:data:`~fracineq.hhbounds.BOUND_CHECKS`, one entry per bound row of the
README check table, whose hypothesis the cell judges itself.  An entry's
``factors`` are made once per parameter tuple and sweep; its ``combine``
takes the cell's (b-a)^2 and |f''|^q at a, b or the midpoint, each f''
value read and raised to each q once, when a row first asks for it.  The
weight-integral rows depend on no cell: one ladder pass per s and one per
p, each holding every alpha.

An outcome is a value or the error that stopped it, and the row builder
alone turns an error, in lhs before rhs, into a status: AccuracyError
``fail``, IntegrandError ``precondition_skipped``, with no lhs, rhs or
margin.
"""

from __future__ import annotations

import csv
import io
import json
import math
import zlib
from functools import partial
from itertools import product
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
    TestFunction,
    _check_s,
    abs_d2,
    certify_s_convex,
    channel_verdicts,
    get_function,
)
from .hhbounds import (
    BOUND_CHECKS,
    DEFAULT_CHECK_SLACK,
    DEFAULT_QUAD_TOL,
    BoundCheck,
    BoundParams,
    _check_bound_alpha,
    _check_p,
    _check_q,
    _Curvatures,
    _defects,
    _identity_rhs,
    _weight_integrals,
    _width_squared,
    s_convex_sandwich,
)
from .quadrature import Interval, _check_abs_tol

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

CSV_HEADER = ["check_id", "function", "a", "b", "alpha", "s", "p", "q",
              "lhs", "rhs", "slack_measured", "status"]

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


class SweepReport(NamedTuple):
    rows: tuple[SweepRow, ...]

    @property
    def any_fail(self) -> bool:
        return any(r.status == STATUS_FAIL for r in self.rows)


# ---------------------------------------------------------------------------
# configuration parsing / validation

_LIST_KEYS = ("functions", "intervals", "alphas", "s_values", "p_values",
              "q_values")
# each optional scalar key, the SweepConfig field it sets, and its type; a
# key left out keeps SweepConfig's default
_SCALARS = {"slack": ("slack", float), "quad_tol": ("quad_tol", float),
            "format": ("output_format", str), "seed": ("seed", int)}


def _convert(field_name: str, tokens: list[str], convert) -> tuple:
    out = []
    for tok in tokens:
        try:
            out.append(convert(tok))
        except ValueError as exc:
            raise ConfigError(field_name, f"cannot read {tok!r} as "
                              f"{convert.__name__}") from exc
    return tuple(out)


def parse_config_text(text: str) -> SweepConfig:
    """Parse the flat config syntax.

    One ``key = value ...`` per line; ``#`` starts a comment.  List values
    are whitespace-separated tokens; intervals are ``a,b`` tokens.  The six
    list keys are required and must be non-empty; ``slack``, ``quad_tol``,
    ``format`` and ``seed`` are optional scalars.  The syntax is read
    here and the values are then checked by :func:`validate_config`; a
    :class:`ConfigError` from either names the offending field.
    """
    raw: dict[str, list[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _LIST_KEYS and key not in _SCALARS:
            raise ConfigError(key or f"line {lineno}", "unknown configuration key")
        if key in raw:
            raise ConfigError(key, "duplicate key")
        raw[key] = value.split()

    intervals = []
    for i, tok in enumerate(raw.get("intervals", ())):
        try:
            intervals.append(Interval.parse(tok))
        except DomainError as exc:
            raise ConfigError(f"intervals[{i}]", str(exc)) from exc

    def scalar(key: str, convert):
        if len(raw[key]) != 1:
            raise ConfigError(key, "expected a single value")
        return _convert(key, raw[key], convert)[0]

    config = SweepConfig(
        functions=tuple(raw.get("functions", ())),
        intervals=tuple(intervals),
        # alphas, s_values, p_values, q_values
        **{key: _convert(key, raw.get(key, []), float)
           for key in _LIST_KEYS[2:]},
        **{field_name: scalar(key, convert)
           for key, (field_name, convert) in _SCALARS.items() if key in raw},
    )
    validate_config(config)
    return config


def load_config(path: str | Path) -> SweepConfig:
    """Read and parse the config file at ``path``, less a leading UTF-8
    byte-order mark; a file that cannot be read as UTF-8 text is a
    :class:`ConfigError` naming the path."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {str(path)!r}: {exc}") from exc
    return parse_config_text(text)


def _check_each(field_name: str, values, check) -> None:
    """Run ``check`` on every value; its DomainError becomes a ConfigError
    naming ``field_name[i]``."""
    for i, value in enumerate(values):
        try:
            check(value)
        except DomainError as exc:
            raise ConfigError(f"{field_name}[{i}]", str(exc)) from exc


def validate_config(config: SweepConfig) -> None:
    """Raise :class:`ConfigError` naming the offending field if invalid."""
    for key in _LIST_KEYS:
        if not getattr(config, key):
            raise ConfigError(key, "must be non-empty")
    _check_each("functions", config.functions, get_function)
    for i, iv in enumerate(config.intervals):
        if iv.a < 0.0:
            raise ConfigError(f"intervals[{i}]",
                              f"s-convexity work requires a >= 0, got a={iv.a}")
    _check_each("intervals", config.intervals, _width_squared)
    _check_each("alphas", config.alphas, _check_bound_alpha)
    _check_each("s_values", config.s_values, _check_s)
    _check_each("p_values", config.p_values, _check_p)
    _check_each("q_values", config.q_values, _check_q)
    if not (math.isfinite(config.slack) and config.slack >= 0.0):
        raise ConfigError("slack", f"must be finite and >= 0, got {config.slack}")
    try:
        _check_abs_tol(config.quad_tol, "quad_tol")
    except DomainError as exc:
        raise ConfigError("quad_tol", str(exc)) from exc
    if config.output_format not in ("csv", "json"):
        raise ConfigError("format", f"must be csv or json, got {config.output_format}")
    if not isinstance(config.seed, int):
        raise ConfigError("seed", "must be an integer")


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
         rule: _Rule = _ASSERTED, status: str | None = None) -> SweepRow:
    """Build a row; ``key`` is (function, a, b, alpha, s, p, q).

    An error outcome (lhs first) or a given ``status`` sets the status, and
    no lhs, rhs or margin is recorded; otherwise ``rule`` judges lhs and
    rhs against ``slack``.
    """
    measured = None
    error = (lhs if isinstance(lhs, FracineqError)
             else rhs if isinstance(rhs, FracineqError) else None)
    if error is not None:
        lhs = rhs = None
        status = (STATUS_FAIL if isinstance(error, AccuracyError)
                  else STATUS_SKIPPED)
    elif status is None:
        if rule.identity:
            measured = abs(lhs - rhs)
            holds = measured <= slack
        else:
            measured = rhs - lhs
            holds = measured >= -slack
        status = rule.if_holds if holds else rule.if_not
    return SweepRow(check_id, *key, lhs, rhs, measured, status)


def _verdicts(config: SweepConfig, f: TestFunction, channel: str,
              iv: Interval, q: float | None = None
              ) -> dict[tuple[float, bool], bool]:
    """The verdicts {(s, concave): bool} of ``channel`` of ``f`` on ``iv``:
    ``f`` itself, or ``abs_d2``: |f''|^q (keyed ``abs_d2_pow``), |f''| for
    q None; ``{}`` where the channel is non-finite on the certification
    grid.  The channel's probes are drawn from the seed and its key."""
    key = (f.name, channel if q is None else "abs_d2_pow", iv.a, iv.b, q)
    rng = np.random.default_rng([config.seed & 0xFFFFFFFF,
                                 zlib.crc32(repr(key).encode())])
    x = rng.uniform(iv.a, iv.b, _PROBE_COUNT)
    y = rng.uniform(iv.a, iv.b, _PROBE_COUNT)
    lam = rng.uniform(0.0, 1.0, _PROBE_COUNT)
    fn = f.fn if channel == "f" else abs_d2(f, q)
    return channel_verdicts(fn, iv, config.s_values, x, y, lam)


def _cell_rows(config: SweepConfig, alphas: tuple[float, ...],
               bounds: list[tuple[BoundCheck, tuple, float | None,
                                  tuple[float, ...]]],
               f: TestFunction, iv: Interval) -> list[SweepRow]:
    """The sandwich, identity and bound rows of ``f`` on ``iv``.

    Each channel is certified once: f, |f''|, and |f''|^q for each
    distinct q of ``bounds``, which holds (check, (alpha, s, p, q), channel
    q, the check's factors at those parameters) per bound row.  Where |f''|
    has verdicts, the defects and identity right-hand sides are computed
    for every order of ``alphas``, one ladder pass per side, else every
    row that needs them is skipped.  A computed bound row combines its
    factors with the cell's (b-a)^2 and |f''|^q, read when first asked for.
    """
    row = partial(_row, config.slack)
    name, a, b = f.name, iv.a, iv.b     # read once, not per row
    rows = []
    convex = _verdicts(config, f, "f", iv)
    for s in config.s_values:
        key = (name, a, b, None, s, None, None)
        sw = None
        if convex.get((s, False), False):
            try:
                sw = s_convex_sandwich(f, iv, s, quad_tol=config.quad_tol)
            except (PreconditionError, AccuracyError):
                pass
        if sw is None:
            rows += [row(cid, key, status=STATUS_SKIPPED)
                     for cid, *_ in _SANDWICH_ROWS]
        else:
            rows += [row(cid, key, getattr(sw, lhs), getattr(sw, rhs), rule)
                     for cid, lhs, rhs, rule in _SANDWICH_ROWS]

    curvature = {q: _verdicts(config, f, "abs_d2", iv, q)
                 for q in dict.fromkeys([None] + [q for _, _, q, _ in bounds])}
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
    rows += [row("identity", (name, a, b, alpha, None, None, None),
                 *sides[alpha], _IDENTITY) for alpha in config.alphas]
    width2, curvature_at = _width_squared(iv), _Curvatures(f, iv)
    for check, (alpha, s, p, params_q), q, factors in bounds:
        key = (name, a, b, alpha, s, p, params_q)
        defect = sides[alpha][0]
        if not curvature[q].get((s, check.concave), False):
            rows.append(row(check.check_id, key, status=STATUS_SKIPPED))
        elif isinstance(defect, FracineqError):
            rows.append(row(check.check_id, key, defect))
        else:
            rows.append(row(check.check_id, key, abs(defect),
                            check.combine(width2, curvature_at, factors),
                            _range_rule(alpha <= check.alpha_max)))
    return rows


def _weight_rows(config: SweepConfig) -> list[SweepRow]:
    """The weight-integral rows, which depend on no function or interval:
    one ladder pass per s and one per p for every alpha."""
    found = _weight_integrals(tuple(dict.fromkeys(config.alphas)),
                              config.s_values, config.p_values,
                              config.quad_tol)
    keys = [(check_id, alpha, s, None)
            for alpha in config.alphas for s in config.s_values
            for check_id in ("weight_int_power", "weight_int_beta")]
    keys += [("weight_int_plain", None, s, None) for s in config.s_values]
    keys += [("holder_kernel_bound", alpha, None, p)
             for alpha in config.alphas for p in config.p_values]
    rows = []
    for check_id, *params in keys:
        lhs, rhs, in_range = found[(check_id, *params)]
        rule = (_range_rule(in_range) if check_id == "holder_kernel_bound"
                else _IDENTITY)
        rows.append(_row(config.slack, check_id,
                         (None, None, None, *params, None), lhs, rhs, rule))
    return rows


# (check_id, function, a, b, alpha, s, p, q); all rows of one check id
# leave the same of these columns None, so no None meets a value
_sort_key = itemgetter(slice(0, 8))


def run_sweep(config: SweepConfig) -> SweepReport:
    """Evaluate all checks over the configured grid; deterministic."""
    validate_config(config)
    # the configured orders, each once: one batch per (function, interval)
    alphas = tuple(dict.fromkeys(config.alphas))
    # every bound row of a cell: its parameters, built once, as a plain tuple
    # that cells unpack (cheaper than reading a record's fields), the q of its
    # |f''|^q channel (None for |f''|^1: x ** 1.0 is x) and its factors
    bounds = []
    for alpha, s in product(config.alphas, config.s_values):
        params = {
            None: (BoundParams(alpha, s),),
            "conjugate": tuple(BoundParams(alpha, s, p=p)
                               for p in config.p_values),
            "q_values": tuple(BoundParams(alpha, s, q=q)
                              for q in config.q_values),
        }
        bounds += [(check, tuple(bp), None if bp.q == 1.0 else bp.q,
                    check.factors(bp))
                   for check in BOUND_CHECKS for bp in params[check.q_from]]
    rows = [row for name in config.functions for iv in config.intervals
            for row in _cell_rows(config, alphas, bounds, get_function(name),
                                  iv)]
    rows += _weight_rows(config)
    rows.sort(key=_sort_key)
    return SweepReport(rows=tuple(rows))


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


def _json_float(value: float) -> str:
    """A float as ``json.dumps`` writes it."""
    if math.isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


# what json.dumps writes for a string or None; an exact float's text comes
# from the render's memo, and any other type (1, True, np.float64) is handed
# to json.dumps itself
_JSON_VALUE = {str: encode_basestring_ascii,
               type(None): {None: "null"}.__getitem__}
# the text of one row of json.dumps(rows as dicts, indent=2)
_JSON_ROW = "  {\n" + ",\n".join(
    f"    {encode_basestring_ascii(name)}: %s" for name in SweepRow._fields
) + "\n  }"


def render_report(report: SweepReport, output_format: str = "csv") -> bytes:
    """Serialise a report, byte for byte as ``csv.writer`` writes it or as
    ``json.dumps(rows as dicts, indent=2) + "\\n"``."""
    if output_format == "csv":
        cell = _Texts(_csv_text).__getitem__
        return "".join([",".join(map(cell, r)) + "\n"
                        for r in (CSV_HEADER, *report.rows)]).encode("utf-8")
    if output_format == "json":
        if not report.rows:
            return b"[]\n"
        text_of = {**_JSON_VALUE, float: _Texts(_json_float).__getitem__}
        text = "[\n" + ",\n".join([
            _JSON_ROW % tuple([(text_of.get(type(v)) or json.dumps)(v)
                               for v in r])
            for r in report.rows]) + "\n]\n"
        return text.encode("utf-8")
    raise ConfigError("format", f"must be csv or json, got {output_format}")
