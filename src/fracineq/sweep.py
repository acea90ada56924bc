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
upper-sandwich reading, which is recorded alongside the asserted 1/(s+1)
reading so both remain observable in data.

Certification per row combines the deterministic grid certifier with a
seeded batch of random probe triples (config ``seed``), so reported
hypothesis checks do not depend silently on grid alignment.  Each channel
(function, |f''| or |f''|^q on one interval) is evaluated on the grid once,
and that grid decides every s value and both directions.  Likewise the
trapezoid defect of each (function, interval, alpha) is computed once and
shared by its identity row and all its bound rows.
"""

from __future__ import annotations

import csv
import io
import json
import math
import zlib
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path

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
    _eval_grid,
    builtin_catalog,
    cert_grid,
    certify_s_convex,
    get_function,
    grid_verdict,
)
from .hhbounds import (
    HOLDER_VALID_ALPHA_MAX,
    BoundParams,
    defect_bound_holder,
    defect_bound_power_mean,
    defect_bound_s_concave,
    defect_bound_s_convex,
    defect_coefficient,
    defect_identity_rhs,
    holder_kernel_bound,
    s_convex_sandwich,
    trapezoid_defect,
    weight_int_beta,
    weight_int_plain,
    weight_int_power,
)
from .quadrature import Interval

__all__ = [
    "SweepConfig",
    "SweepRow",
    "SweepReport",
    "parse_config_text",
    "load_config",
    "run_sweep",
    "render_report",
    "CSV_HEADER",
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
    slack: float = 1e-8
    quad_tol: float = 1e-10
    output_format: str = "csv"
    seed: int = 0


@dataclass(frozen=True)
class SweepRow:
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
_SCALAR_KEYS = ("slack", "quad_tol", "format", "seed")


def _parse_floats(field_name: str, tokens: list[str]) -> tuple[float, ...]:
    out = []
    for tok in tokens:
        try:
            out.append(float(tok))
        except ValueError as exc:
            raise ConfigError(field_name, f"not a number: {tok!r}") from exc
    return tuple(out)


def parse_config_text(text: str) -> SweepConfig:
    """Parse the flat config syntax.

    One ``key = value ...`` per line; ``#`` starts a comment.  List values
    are whitespace-separated tokens; intervals are ``a,b`` tokens.  The six
    list keys are required and must be non-empty; ``slack``, ``quad_tol``,
    ``format`` and ``seed`` are optional scalars.
    """
    raw: dict[str, list[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _LIST_KEYS + _SCALAR_KEYS:
            raise ConfigError(key, "unknown configuration key")
        if key in raw:
            raise ConfigError(key, "duplicate key")
        raw[key] = value.split()

    for key in _LIST_KEYS:
        if key not in raw or not raw[key]:
            raise ConfigError(key, "required non-empty list is missing or empty")

    intervals = []
    for i, tok in enumerate(raw["intervals"]):
        try:
            intervals.append(Interval.parse(tok))
        except DomainError as exc:
            raise ConfigError(f"intervals[{i}]", str(exc)) from exc

    def scalar(key: str, default: str) -> str:
        vals = raw.get(key, [default])
        if len(vals) != 1:
            raise ConfigError(key, "expected a single value")
        return vals[0]

    try:
        seed = int(scalar("seed", "0"))
    except ValueError as exc:
        raise ConfigError("seed", "must be an integer") from exc
    try:
        slack = float(scalar("slack", "1e-8"))
        quad_tol = float(scalar("quad_tol", "1e-10"))
    except ValueError as exc:
        raise ConfigError("slack/quad_tol", "must be numbers") from exc

    config = SweepConfig(
        functions=tuple(raw["functions"]),
        intervals=tuple(intervals),
        alphas=_parse_floats("alphas", raw["alphas"]),
        s_values=_parse_floats("s_values", raw["s_values"]),
        p_values=_parse_floats("p_values", raw["p_values"]),
        q_values=_parse_floats("q_values", raw["q_values"]),
        slack=slack,
        quad_tol=quad_tol,
        output_format=scalar("format", "csv"),
        seed=seed,
    )
    validate_config(config)
    return config


def load_config(path: str | Path) -> SweepConfig:
    return parse_config_text(Path(path).read_text())


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
    for i, a in enumerate(config.alphas):
        try:
            # each defect's normalisation must be a finite double
            for iv in config.intervals:
                defect_coefficient(iv, a)
        except DomainError as exc:
            raise ConfigError(f"alphas[{i}]", str(exc)) from exc
    for i, s in enumerate(config.s_values):
        if not (0.0 < s <= 1.0):
            raise ConfigError(f"s_values[{i}]", f"must lie in (0, 1], got {s}")
    for i, p in enumerate(config.p_values):
        if not (math.isfinite(p) and p > 1.0):
            raise ConfigError(f"p_values[{i}]", f"must be > 1, got {p}")
    for i, q in enumerate(config.q_values):
        if not (math.isfinite(q) and q >= 1.0):
            raise ConfigError(f"q_values[{i}]", f"must be >= 1, got {q}")
    if not (math.isfinite(config.slack) and config.slack >= 0.0):
        raise ConfigError("slack", f"must be finite and >= 0, got {config.slack}")
    if not (1e-14 <= config.quad_tol <= 1e-2):
        raise ConfigError("quad_tol",
                          f"must lie in [1e-14, 1e-2], got {config.quad_tol}")
    if config.output_format not in ("csv", "json"):
        raise ConfigError("format", f"must be csv or json, got {config.output_format}")
    if not isinstance(config.seed, int):
        raise ConfigError("seed", "must be an integer")


# ---------------------------------------------------------------------------
# sweep execution


class _Certifier:
    """Grid certification plus seeded random probes, cached per channel.

    A channel is evaluated on the grid once, the first time any check asks
    for it; the verdicts for every configured s and both directions are
    kept and the grid itself is dropped.  Probes run per requested check.
    """

    def __init__(self, seed: int, s_values: tuple[float, ...]):
        self.seed = seed
        self.s_values = s_values
        self.grid_ok: dict[tuple, dict[tuple[float, bool], bool]] = {}
        self.cache: dict[tuple, bool] = {}

    def _grid_verdicts(self, fn, domain: Interval) -> dict[tuple[float, bool], bool]:
        try:
            grid = cert_grid(fn, domain)
        except IntegrandError:
            # channel cannot even be evaluated on the grid (for example a
            # second derivative diverging at an endpoint): not certified
            return {}
        return {(s, concave): grid_verdict(grid, s, concave=concave).passed
                for s in self.s_values for concave in (False, True)}

    def _probes_ok(self, fn, domain: Interval, s: float, concave: bool,
                   key: str) -> bool:
        rng = np.random.default_rng([self.seed & 0xFFFFFFFF,
                                     zlib.crc32(key.encode())])
        x = rng.uniform(domain.a, domain.b, _PROBE_COUNT)
        y = rng.uniform(domain.a, domain.b, _PROBE_COUNT)
        lam = rng.uniform(0.0, 1.0, _PROBE_COUNT)
        mix = lam * x + (1.0 - lam) * y
        fx, fy, fm = _eval_grid(fn, np.stack([x, y, mix]))
        combo = lam ** s * fx + (1.0 - lam) ** s * fy
        if concave:
            return bool(np.all(fm >= combo - 1e-12))
        return bool(np.all(fm <= combo + 1e-12))

    def check(self, name: str, channel: str, fn, domain: Interval, s: float,
              q: float | None, concave: bool) -> bool:
        key = (name, channel, domain.a, domain.b, s, q, concave)
        if key not in self.cache:
            chan = (name, channel, domain.a, domain.b, q)
            if chan not in self.grid_ok:
                self.grid_ok[chan] = self._grid_verdicts(fn, domain)
            ok = self.grid_ok[chan].get((s, concave), False)
            if ok:
                ok = self._probes_ok(fn, domain, s, concave, key=repr(key))
            self.cache[key] = ok
        return self.cache[key]


def _fmt_tuple(row: SweepRow) -> tuple:
    def num(v):
        return float("-inf") if v is None else float(v)

    return (row.check_id, row.function or "", num(row.a), num(row.b),
            num(row.alpha), num(row.s), num(row.p), num(row.q))


def run_sweep(config: SweepConfig) -> SweepReport:
    """Evaluate all checks over the configured grid; deterministic."""
    validate_config(config)
    funcs: list[TestFunction] = [get_function(name) for name in config.functions]
    certifier = _Certifier(config.seed, config.s_values)
    slack = config.slack
    quad_tol = config.quad_tol
    rows: list[SweepRow] = []

    # signed defect per (function, interval, alpha), or the error that
    # stopped its computation; filled by whichever row asks first
    defects: dict[tuple, float | FracineqError] = {}

    def defect(f: TestFunction, iv: Interval, alpha: float) -> float:
        key = (f.name, iv.a, iv.b, alpha)
        if key not in defects:
            try:
                defects[key] = trapezoid_defect(f, iv, alpha,
                                                quad_tol=quad_tol).lhs
            except (AccuracyError, IntegrandError) as exc:
                defects[key] = exc
        outcome = defects[key]
        if isinstance(outcome, FracineqError):
            # a fresh traceback each time, so re-raising does not chain them
            raise outcome.with_traceback(None)
        return outcome

    def d2_evaluatable(f: TestFunction, iv: Interval) -> bool:
        # the identity requires an integrable second derivative; an endpoint
        # where d2 blows up fails that hypothesis
        try:
            return all(math.isfinite(float(f.d2(t)))
                       for t in (iv.a, iv.midpoint, iv.b))
        except (ArithmeticError, ValueError, TypeError):
            return False

    def identity_row(f: TestFunction, iv: Interval, alpha: float) -> SweepRow:
        base = dict(check_id="identity", function=f.name, a=iv.a, b=iv.b,
                    alpha=alpha, s=None, p=None, q=None)
        if not d2_evaluatable(f, iv):
            return SweepRow(**base, lhs=None, rhs=None, slack_measured=None,
                            status=STATUS_SKIPPED)
        try:
            lhs = defect(f, iv, alpha)
            rhs = defect_identity_rhs(f, iv, alpha, quad_tol=quad_tol)
        except AccuracyError:
            return SweepRow(**base, lhs=None, rhs=None, slack_measured=None,
                            status=STATUS_FAIL)
        except IntegrandError:
            # f'' not evaluatable/integrable on the interval: the identity's
            # own hypothesis fails for this tuple
            return SweepRow(**base, lhs=None, rhs=None, slack_measured=None,
                            status=STATUS_SKIPPED)
        diff = abs(lhs - rhs)
        return SweepRow(**base, lhs=lhs, rhs=rhs, slack_measured=diff,
                        status=STATUS_PASS if diff <= slack else STATUS_FAIL)

    def bound_row(check_id: str, f: TestFunction, iv: Interval, alpha: float,
                  s: float, p: float | None, q: float | None,
                  certified: bool, compute, in_range: bool) -> SweepRow:
        base = dict(check_id=check_id, function=f.name, a=iv.a, b=iv.b,
                    alpha=alpha, s=s, p=p, q=q)
        if not certified:
            return SweepRow(**base, lhs=None, rhs=None, slack_measured=None,
                            status=STATUS_SKIPPED)
        lhs = None
        try:
            lhs = abs(defect(f, iv, alpha))
            rhs = compute()
        except AccuracyError:
            return SweepRow(**base, lhs=lhs, rhs=None, slack_measured=None,
                            status=STATUS_FAIL)
        except (PreconditionError, IntegrandError):
            return SweepRow(**base, lhs=None, rhs=None, slack_measured=None,
                            status=STATUS_SKIPPED)
        margin = rhs - lhs
        if not in_range:
            status = STATUS_OUT_OF_RANGE
        else:
            status = STATUS_PASS if margin >= -slack else STATUS_FAIL
        return SweepRow(**base, lhs=lhs, rhs=rhs, slack_measured=margin,
                        status=status)

    def abs_d2(f: TestFunction):
        return lambda t: np.abs(f.d2(t))

    def abs_d2_pow(f: TestFunction, q: float):
        return lambda t: np.abs(f.d2(t)) ** q

    for f in funcs:
        for iv in config.intervals:
            # defect-identity rows
            for alpha in config.alphas:
                rows.append(identity_row(f, iv, alpha))

            # first-order sandwich rows
            for s in config.s_values:
                base = dict(function=f.name, a=iv.a, b=iv.b, alpha=None,
                            s=s, p=None, q=None)
                certified = certifier.check(f.name, "f", f.fn, iv, s, None,
                                            concave=False)
                sw = None
                if certified:
                    try:
                        sw = s_convex_sandwich(f, iv, s, quad_tol=quad_tol)
                    except (PreconditionError, AccuracyError):
                        sw = None
                if sw is None:
                    for cid in ("sandwich_lower", "sandwich_upper",
                                "sandwich_upper_classical"):
                        rows.append(SweepRow(check_id=cid, **base, lhs=None,
                                             rhs=None, slack_measured=None,
                                             status=STATUS_SKIPPED))
                    continue
                m_low = sw.mean - sw.lower
                rows.append(SweepRow(
                    check_id="sandwich_lower", **base, lhs=sw.lower,
                    rhs=sw.mean, slack_measured=m_low,
                    status=STATUS_PASS if m_low >= -slack else STATUS_FAIL))
                m_up = sw.upper - sw.mean
                rows.append(SweepRow(
                    check_id="sandwich_upper", **base, lhs=sw.mean,
                    rhs=sw.upper, slack_measured=m_up,
                    status=STATUS_PASS if m_up >= -slack else STATUS_FAIL))
                # observed reading, never asserted
                m_cl = sw.upper_classical - sw.mean
                rows.append(SweepRow(
                    check_id="sandwich_upper_classical", **base, lhs=sw.mean,
                    rhs=sw.upper_classical, slack_measured=m_cl,
                    status=STATUS_PASS if m_cl >= -slack else STATUS_OUT_OF_RANGE))

            for alpha in config.alphas:
                in_range = alpha <= HOLDER_VALID_ALPHA_MAX
                for s in config.s_values:
                    cert_abs = certifier.check(f.name, "abs_d2", abs_d2(f),
                                               iv, s, None, concave=False)
                    rows.append(bound_row(
                        "bound_s_convex", f, iv, alpha, s, None, None,
                        cert_abs,
                        lambda f=f, iv=iv, alpha=alpha, s=s:
                            defect_bound_s_convex(f, iv, alpha, s,
                                                  certify=False),
                        in_range=True))

                    for p in config.p_values:
                        params = BoundParams(alpha=alpha, s=s, p=p)
                        q = params.q
                        cert_q = certifier.check(f.name, "abs_d2_pow",
                                                 abs_d2_pow(f, q), iv, s, q,
                                                 concave=False)
                        rows.append(bound_row(
                            "bound_holder", f, iv, alpha, s, p, q, cert_q,
                            lambda f=f, iv=iv, params=params:
                                defect_bound_holder(f, iv, params,
                                                    certify=False),
                            in_range=in_range))

                        cert_qc = certifier.check(f.name, "abs_d2_pow",
                                                  abs_d2_pow(f, q), iv, s, q,
                                                  concave=True)
                        rows.append(bound_row(
                            "bound_s_concave", f, iv, alpha, s, p, q, cert_qc,
                            lambda f=f, iv=iv, params=params:
                                defect_bound_s_concave(f, iv, params,
                                                       certify=False),
                            in_range=in_range))

                    for q in config.q_values:
                        cert_q = certifier.check(f.name, "abs_d2_pow",
                                                 abs_d2_pow(f, q), iv, s, q,
                                                 concave=False)
                        rows.append(bound_row(
                            "bound_power_mean", f, iv, alpha, s, None, q,
                            cert_q,
                            lambda f=f, iv=iv, alpha=alpha, s=s, q=q:
                                defect_bound_power_mean(f, iv, alpha, s, q,
                                                        certify=False),
                            in_range=True))

    # weight-integral rows (function and interval independent)
    def weight_row(check_id: str, alpha, s, p, lhs, rhs, identity: bool,
                   in_range: bool = True) -> SweepRow:
        if identity:
            measured = abs(lhs - rhs)
            status = STATUS_PASS if measured <= slack else STATUS_FAIL
        else:
            measured = rhs - lhs
            if not in_range:
                status = STATUS_OUT_OF_RANGE
            else:
                status = STATUS_PASS if measured >= -slack else STATUS_FAIL
        return SweepRow(check_id=check_id, function=None, a=None, b=None,
                        alpha=alpha, s=s, p=p, q=None, lhs=lhs, rhs=rhs,
                        slack_measured=measured, status=status)

    for alpha in config.alphas:
        for s in config.s_values:
            for build in (weight_int_power, weight_int_beta):
                e = build(alpha, s, tol=slack, quad_tol=quad_tol)
                rows.append(weight_row(e.check_id, alpha, s, None,
                                       e.lhs, e.rhs, identity=True))
    for s in config.s_values:
        e = weight_int_plain(s, tol=slack, quad_tol=quad_tol)
        rows.append(weight_row("weight_int_plain", None, s, None,
                               e.lhs, e.rhs, identity=True))
    for alpha in config.alphas:
        for p in config.p_values:
            e = holder_kernel_bound(alpha, p, tol=slack, quad_tol=quad_tol)
            rows.append(weight_row("holder_kernel_bound", alpha, None, p,
                                   e.lhs, e.rhs, identity=False,
                                   in_range=alpha <= HOLDER_VALID_ALPHA_MAX))

    rows.sort(key=_fmt_tuple)
    return SweepReport(rows=tuple(rows))


# ---------------------------------------------------------------------------
# rendering


def _fmt_float(v: float | None) -> str:
    return "" if v is None else format(float(v), ".17g")


def render_report(report: SweepReport, output_format: str = "csv") -> bytes:
    """Serialise a report; identical reports render byte-identically."""
    if output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in report.rows:
            writer.writerow([
                r.check_id, r.function or "", _fmt_float(r.a), _fmt_float(r.b),
                _fmt_float(r.alpha), _fmt_float(r.s), _fmt_float(r.p),
                _fmt_float(r.q), _fmt_float(r.lhs), _fmt_float(r.rhs),
                _fmt_float(r.slack_measured), r.status,
            ])
        return buf.getvalue().encode("utf-8")
    if output_format == "json":
        payload = []
        for r in report.rows:
            payload.append({name: getattr(r, name) for name in
                            (f.name for f in dc_fields(SweepRow))})
        return (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    raise ConfigError("format", f"must be csv or json, got {output_format}")
