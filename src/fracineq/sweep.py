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
``out_of_validated_range`` for rows that are computed and recorded but not
asserted -- the Hoelder-route and concave bounds at alpha > 1 (their
kernel-comparison step is only valid on (0, 1]) and the classical /2
upper-sandwich reading where it does not hold; that reading is recorded
alongside the asserted 1/(s+1) reading so both remain observable in data.

The check table
---------------
:data:`BOUND_CHECKS` holds one entry per bound row of the README check
table: the check id, the hypothesis channel the certifier checks (|f''| or
|f''|^q, s-convex or s-concave), where q comes from (the Hoelder conjugate
of each p, or ``q_values``), the evaluator, and the largest alpha at which
the bound is asserted.  :func:`run_sweep` loops over that table for every
(function, interval, alpha, s); the identity, sandwich and weight-integral
rows are built beside it, and every row gets its status from one row
builder.

Certification combines the deterministic grid certifier with a seeded
batch of random probe triples (config ``seed``), so reported hypothesis
checks do not depend silently on grid alignment.  Each channel (f, |f''|
or |f''|^q on one interval; |f''|^1 is the |f''| channel) is evaluated
once on the grid and once at one probe batch, drawn from the seed and the
channel, and the two decide every s value and both directions.  Likewise
the trapezoid defect of each (function, interval, alpha) is computed once
and shared by its identity row and all its bound rows.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import zlib
from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, NamedTuple

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
    _probe_batch,
    _probe_verdicts,
    abs_d2,
    cert_grid,
    certify_s_convex,
    get_function,
    grid_verdicts,
)
from .hhbounds import (
    DEFAULT_CHECK_SLACK,
    DEFAULT_QUAD_TOL,
    HOLDER_VALID_ALPHA_MAX,
    BoundParams,
    _check_bound_alpha,
    _check_p,
    _check_q,
    _width_squared,
    defect_bound_holder,
    defect_bound_power_mean,
    defect_bound_s_concave,
    defect_bound_s_convex,
    defect_identity_rhs,
    holder_kernel_bound,
    s_convex_sandwich,
    trapezoid_defect,
    weight_int_beta,
    weight_int_plain,
    weight_int_power,
)
from .quadrature import MAX_ABS_TOL, MIN_ABS_TOL, Interval

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


@dataclass(frozen=True)
class SweepConfig:
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


@dataclass(frozen=True)
class SweepReport:
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
    ``format`` and ``seed`` are optional scalars.  Only the syntax is read
    here; :func:`validate_config` checks the values.
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
    return parse_config_text(Path(path).read_text())


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
    for name in config.functions:
        try:
            get_function(name)
        except DomainError as exc:
            raise ConfigError("functions", str(exc)) from exc
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
    if not (MIN_ABS_TOL <= config.quad_tol <= MAX_ABS_TOL):
        raise ConfigError("quad_tol", f"must lie in [{MIN_ABS_TOL}, "
                          f"{MAX_ABS_TOL}], got {config.quad_tol}")
    if config.output_format not in ("csv", "json"):
        raise ConfigError("format", f"must be csv or json, got {config.output_format}")
    if not isinstance(config.seed, int):
        raise ConfigError("seed", "must be an integer")


# ---------------------------------------------------------------------------
# sweep execution


class _Certifier:
    """Grid certification plus seeded random probes, once per channel.

    A channel is one function on one interval: f itself, |f''| or |f''|^q.
    |f''|^1 is the |f''| channel, since x ** 1.0 is x bit for bit.  The
    first time any check asks for a channel, it is evaluated on the
    certification grid and at one batch of random probe triples, drawn
    from the seed and the channel's key; both are judged at every
    configured s in both directions, a verdict holds where both pass, and
    only the verdicts are kept.
    """

    def __init__(self, seed: int, s_values: tuple[float, ...]):
        self.seed = seed
        self.s_values = s_values
        self.verdicts: dict[tuple, dict[tuple[float, bool], bool]] = {}

    def _channel_verdicts(self, fn, domain: Interval,
                          key: str) -> dict[tuple[float, bool], bool]:
        try:
            grid = cert_grid(fn, domain)
        except IntegrandError:
            # channel cannot even be evaluated on the grid (for example a
            # second derivative diverging at an endpoint): not certified
            return {}
        rng = np.random.default_rng([self.seed & 0xFFFFFFFF,
                                     zlib.crc32(key.encode())])
        x = rng.uniform(domain.a, domain.b, _PROBE_COUNT)
        y = rng.uniform(domain.a, domain.b, _PROBE_COUNT)
        lam = rng.uniform(0.0, 1.0, _PROBE_COUNT)
        probes = _probe_batch(fn, x, y, lam)
        verdicts = {}
        for s in self.s_values:
            on_grid = grid_verdicts(grid, s)
            probed = _probe_verdicts(probes, s)
            for concave in (False, True):
                verdicts[(s, concave)] = on_grid[concave] and probed[concave]
        return verdicts

    def check(self, f: TestFunction, channel: str, domain: Interval, s: float,
              q: float | None, concave: bool) -> bool:
        """Certify ``channel`` of ``f`` on ``domain``: ``f`` itself, ``abs_d2``
        (|f''|) or ``abs_d2_pow`` (|f''|^q)."""
        if channel == "abs_d2_pow" and q == 1.0:
            channel, q = "abs_d2", None
        key = (f.name, channel, domain.a, domain.b, q)
        verdicts = self.verdicts.get(key)
        if verdicts is None:
            fn = f.fn if channel == "f" else abs_d2(f, q)
            verdicts = self.verdicts[key] = self._channel_verdicts(
                fn, domain, repr(key))
        return verdicts.get((s, concave), False)


class BoundCheck(NamedTuple):
    """One bound row of the README check table.

    ``channel`` is the hypothesis the certifier checks, ``abs_d2`` (|f''|)
    or ``abs_d2_pow`` (|f''|^q), s-concave when ``concave`` and s-convex
    otherwise.  ``q_from`` says where q comes from: ``"conjugate"`` (q =
    p/(p-1) for each configured p), ``"q_values"``, or None (no q).
    ``evaluate(f, interval, params)`` computes the bound; rows with alpha
    above ``alpha_max`` are computed but never asserted.
    """

    check_id: str
    channel: str
    q_from: str | None
    concave: bool
    evaluate: Callable[[TestFunction, Interval, BoundParams], float]
    alpha_max: float = math.inf


# The evaluators are looked up when a row is computed, not bound here, so
# code that patches them in this module sees every call.
BOUND_CHECKS = (
    BoundCheck("bound_s_convex", "abs_d2", None, False,
               lambda f, iv, bp: defect_bound_s_convex(f, iv, bp.alpha, bp.s,
                                                       certify=False)),
    BoundCheck("bound_holder", "abs_d2_pow", "conjugate", False,
               lambda f, iv, bp: defect_bound_holder(f, iv, bp, certify=False),
               alpha_max=HOLDER_VALID_ALPHA_MAX),
    BoundCheck("bound_power_mean", "abs_d2_pow", "q_values", False,
               lambda f, iv, bp: defect_bound_power_mean(
                   f, iv, bp.alpha, bp.s, bp.q, certify=False)),
    BoundCheck("bound_s_concave", "abs_d2_pow", "conjugate", True,
               lambda f, iv, bp: defect_bound_s_concave(f, iv, bp,
                                                        certify=False),
               alpha_max=HOLDER_VALID_ALPHA_MAX),
)


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


def _range_rule(alpha: float, alpha_max: float) -> _Rule:
    return _ASSERTED if alpha <= alpha_max else _RECORDED


def _d2_evaluatable(f: TestFunction, iv: Interval) -> bool:
    # the identity requires an integrable second derivative; an endpoint
    # where d2 blows up fails that hypothesis
    try:
        return all(math.isfinite(float(f.d2(t)))
                   for t in (iv.a, iv.midpoint, iv.b))
    except (ArithmeticError, ValueError, TypeError):
        return False


class _Sweep:
    """What one sweep shares across its rows: the slack and quadrature
    tolerance, the certifier and the trapezoid defects."""

    def __init__(self, config: SweepConfig):
        self.slack = config.slack
        self.quad_tol = config.quad_tol
        self.certifier = _Certifier(config.seed, config.s_values)
        # signed defect per (function, interval, alpha), or the error that
        # stopped its computation; filled by whichever row asks first
        self.defects: dict[tuple, float | FracineqError] = {}

    def row(self, check_id: str, key: tuple, lhs=None, rhs=None,
            rule: _Rule = _ASSERTED, status: str | None = None) -> SweepRow:
        """Build a row; ``key`` is (function, a, b, alpha, s, p, q).

        With ``status`` given (a skipped row, or one that failed before its
        comparison) no margin is recorded; otherwise ``rule`` judges lhs
        and rhs against the slack.
        """
        measured = None
        if status is None:
            if rule.identity:
                measured = abs(lhs - rhs)
                holds = measured <= self.slack
            else:
                measured = rhs - lhs
                holds = measured >= -self.slack
            status = rule.if_holds if holds else rule.if_not
        return SweepRow(check_id, *key, lhs, rhs, measured, status)

    def defect(self, f: TestFunction, iv: Interval, alpha: float) -> float:
        key = (f.name, iv.a, iv.b, alpha)
        if key not in self.defects:
            try:
                self.defects[key] = trapezoid_defect(
                    f, iv, alpha, quad_tol=self.quad_tol).lhs
            except (AccuracyError, IntegrandError) as exc:
                self.defects[key] = exc
        outcome = self.defects[key]
        if isinstance(outcome, FracineqError):
            # a fresh traceback each time, so re-raising does not chain them
            raise outcome.with_traceback(None)
        return outcome

    def identity_row(self, f: TestFunction, iv: Interval,
                     alpha: float) -> SweepRow:
        key = (f.name, iv.a, iv.b, alpha, None, None, None)
        if not _d2_evaluatable(f, iv):
            return self.row("identity", key, status=STATUS_SKIPPED)
        try:
            lhs = self.defect(f, iv, alpha)
            rhs = defect_identity_rhs(f, iv, alpha, quad_tol=self.quad_tol)
        except AccuracyError:
            return self.row("identity", key, status=STATUS_FAIL)
        except IntegrandError:
            # f'' not evaluatable/integrable on the interval: the identity's
            # own hypothesis fails for this tuple
            return self.row("identity", key, status=STATUS_SKIPPED)
        return self.row("identity", key, lhs, rhs, _IDENTITY)

    def bound_row(self, check: BoundCheck, f: TestFunction, iv: Interval,
                  bp: BoundParams) -> SweepRow:
        key = (f.name, iv.a, iv.b, bp.alpha, bp.s, bp.p, bp.q)
        if not self.certifier.check(f, check.channel, iv, bp.s, bp.q,
                                    check.concave):
            return self.row(check.check_id, key, status=STATUS_SKIPPED)
        try:
            lhs = abs(self.defect(f, iv, bp.alpha))
            rhs = check.evaluate(f, iv, bp)
        except AccuracyError:
            return self.row(check.check_id, key, status=STATUS_FAIL)
        except (PreconditionError, IntegrandError):
            return self.row(check.check_id, key, status=STATUS_SKIPPED)
        return self.row(check.check_id, key, lhs, rhs,
                        _range_rule(bp.alpha, check.alpha_max))

    def sandwich_rows(self, f: TestFunction, iv: Interval,
                      s: float) -> list[SweepRow]:
        key = (f.name, iv.a, iv.b, None, s, None, None)
        sw = None
        if self.certifier.check(f, "f", iv, s, None, concave=False):
            try:
                sw = s_convex_sandwich(f, iv, s, quad_tol=self.quad_tol)
            except (PreconditionError, AccuracyError):
                pass
        if sw is None:
            return [self.row(cid, key, status=STATUS_SKIPPED)
                    for cid, *_ in _SANDWICH_ROWS]
        return [self.row(cid, key, getattr(sw, lhs), getattr(sw, rhs), rule)
                for cid, lhs, rhs, rule in _SANDWICH_ROWS]

    def weight_rows(self, config: SweepConfig) -> list[SweepRow]:
        """The weight-integral rows, which depend on no function or
        interval."""
        tols = dict(tol=self.slack, quad_tol=self.quad_tol)
        found = [((alpha, s, None), _IDENTITY, build(alpha, s, **tols))
                 for alpha in config.alphas for s in config.s_values
                 for build in (weight_int_power, weight_int_beta)]
        found += [((None, s, None), _IDENTITY, weight_int_plain(s, **tols))
                  for s in config.s_values]
        found += [((alpha, None, p),
                   _range_rule(alpha, HOLDER_VALID_ALPHA_MAX),
                   holder_kernel_bound(alpha, p, **tols))
                  for alpha in config.alphas for p in config.p_values]
        return [self.row(e.check_id, (None, None, None, *params, None),
                         e.lhs, e.rhs, rule)
                for params, rule, e in found]


# (check_id, function, a, b, alpha, s, p, q); all rows of one check id
# leave the same of these columns None, so no None meets a value
_sort_key = itemgetter(slice(0, 8))


def run_sweep(config: SweepConfig) -> SweepReport:
    """Evaluate all checks over the configured grid; deterministic."""
    validate_config(config)
    funcs = [get_function(name) for name in config.functions]
    cells = list(product(funcs, config.intervals))
    sweep = _Sweep(config)
    rows = [row for f, iv in cells for s in config.s_values
            for row in sweep.sandwich_rows(f, iv, s)]
    for alpha in config.alphas:
        rows += (sweep.identity_row(f, iv, alpha) for f, iv in cells)
        for s in config.s_values:
            params = {
                None: (BoundParams(alpha, s),),
                "conjugate": tuple(BoundParams(alpha, s, p=p)
                                   for p in config.p_values),
                "q_values": tuple(BoundParams(alpha, s, q=q)
                                  for q in config.q_values),
            }
            rows += (sweep.bound_row(check, f, iv, bp)
                     for f, iv in cells for check in BOUND_CHECKS
                     for bp in params[check.q_from])
    rows += sweep.weight_rows(config)
    rows.sort(key=_sort_key)
    return SweepReport(rows=tuple(rows))


# ---------------------------------------------------------------------------
# rendering


# what json.dumps writes for each value type of a row, but for non-finite
# floats; any other type is handed to json.dumps itself
_JSON_VALUE = {float: float.__repr__, str: encode_basestring_ascii,
               type(None): {None: "null"}.__getitem__}
# float.__repr__ writes nan and ±inf as json does not; such a value stands
# between '": ' and a raw newline, which no encoded string holds
_JSON_NON_FINITE = re.compile(r'(?<=": )(nan|-?inf)(?=,?\n)')
_JSON_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# the text of one row of json.dumps(rows as dicts, indent=2)
_JSON_ROW = "  {\n" + ",\n".join(
    f"    {encode_basestring_ascii(name)}: %s" for name in SweepRow._fields
) + "\n  }"


def _csv_cells(r: SweepRow) -> list[str]:
    # '%.17g' % v is format(float(v), '.17g')
    return [r.check_id, r.function or "",
            *["" if v is None else "%.17g" % v for v in r[2:11]], r.status]


def render_report(report: SweepReport, output_format: str = "csv") -> bytes:
    """Serialise a report, byte for byte as ``csv.writer`` writes it or as
    ``json.dumps(rows as dicts, indent=2) + "\\n"``."""
    if output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(map(_csv_cells, report.rows))
        return buf.getvalue().encode("utf-8")
    if output_format == "json":
        if not report.rows:
            return b"[]\n"
        text = "[\n" + ",\n".join([
            _JSON_ROW % tuple([(_JSON_VALUE.get(type(v)) or json.dumps)(v)
                               for v in r])
            for r in report.rows]) + "\n]\n"
        if "nan" in text or "inf" in text:
            text = _JSON_NON_FINITE.sub(lambda m: _JSON_NAMES[m[0]], text)
        return text.encode("utf-8")
    raise ConfigError("format", f"must be csv or json, got {output_format}")
