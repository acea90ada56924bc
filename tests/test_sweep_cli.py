"""Sweep configuration, report semantics, rendering, and the CLI contract."""

import csv
import hashlib
import io
import json
import math
import operator
import re
import subprocess
import sys
import zlib
from collections import Counter
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from fracineq import (
    AccuracyError,
    ConfigError,
    DomainError,
    FracineqError,
    IntegrandError,
    PreconditionError,
    certify_s_concave,
    certify_s_convex,
    get_function,
    parse_config_text,
    render_report,
    run_sweep,
)
from fracineq import hhbounds, sweep
from fracineq.sweep import (
    _PROBE_COUNT,
    CSV_HEADER,
    SweepConfig,
    SweepReport,
    SweepRow,
    _probes,
    _verdicts,
    _weight_rows,
)
from fracineq.funclib import (
    ConvexityClass,
    TestFunction,
    _check_resolvable,
    _grid_points,
    abs_d2,
    catalog_names,
    cert_grid,
    channel_verdicts,
    probes_hold,
)
from fracineq.hhbounds import (
    BOUND_CHECKS,
    BoundParams,
    defect_bound_holder,
    defect_bound_power_mean,
    defect_bound_s_concave,
    defect_bound_s_convex,
    defect_identity_rhs,
    s_convex_sandwich,
    trapezoid_defect,
)
from fracineq.quadrature import _NODES, Interval

GOOD_CONFIG = """\
# minimal smoke configuration
functions = square linear
intervals = 0,1
alphas = 0.5 1
s_values = 1
p_values = 2
q_values = 1
slack = 1e-8
quad_tol = 1e-10
format = csv
seed = 7
"""


def small_config(**overrides) -> SweepConfig:
    cfg = parse_config_text(GOOD_CONFIG)
    if overrides:
        cfg = cfg._replace(**overrides)
    return cfg


def test_parse_good_config():
    cfg = parse_config_text(GOOD_CONFIG)
    assert cfg.functions == ("square", "linear")
    assert cfg.intervals == (Interval(0.0, 1.0),)
    assert cfg.alphas == (0.5, 1.0)
    assert cfg.seed == 7
    assert cfg.output_format == "csv"


@pytest.mark.parametrize("mutation, field", [
    ("alphas = 0.5 1", None),                       # control, no error
    ("alphas =", "alphas"),
    ("", "alphas"),
    ("alphas = -1", "alphas[0]"),
    ("alphas = abc", "alphas"),
    ("alphas = 0.5 1e308", "alphas[1]"),            # the bounds overflow
])
def test_config_error_names_alphas(mutation, field):
    text = GOOD_CONFIG.replace("alphas = 0.5 1", mutation)
    if field is None:
        parse_config_text(text)
        return
    with pytest.raises(ConfigError) as exc_info:
        parse_config_text(text)
    assert exc_info.value.field == field


@pytest.mark.parametrize("mutation, field", [
    ("intervals = 1,0", "intervals[0]"),
    ("intervals = -1,1", "intervals[0]"),
    ("intervals = 0,1e300", "intervals[0]"),        # (b-a)^2 overflows
    ("s_values = 2", "s_values[0]"),
    ("p_values = 1", "p_values[0]"),
    ("q_values = 0.5", "q_values[0]"),
    ("slack = -1", "slack"),
    ("slack = abc", "slack"),
    ("quad_tol = 1", "quad_tol"),
    ("quad_tol = abc", "quad_tol"),
    ("format = xml", "format"),
    ("functions = nosuch", "functions[0]"),
])
def test_config_validation_errors(mutation, field):
    key = mutation.split(" =")[0]
    text = "\n".join(
        mutation if line.startswith(key + " ") else line
        for line in GOOD_CONFIG.splitlines())
    with pytest.raises(ConfigError) as exc_info:
        parse_config_text(text)
    assert exc_info.value.field == field


@pytest.mark.parametrize("change, field", [
    ({"alphas": ("x",)}, "alphas[0]"),
    ({"alphas": (None,)}, "alphas[0]"),
    ({"alphas": (0.5, "0.5")}, "alphas[1]"),
    ({"s_values": ("0.5",)}, "s_values[0]"),
    ({"p_values": ("2",)}, "p_values[0]"),
    ({"q_values": ("1",)}, "q_values[0]"),
    ({"slack": "abc"}, "slack"),
    ({"slack": "1e-8"}, "slack"),
    ({"quad_tol": None}, "quad_tol"),
    ({"intervals": ((0.0, 1.0),)}, "intervals[0]"),
    ({"functions": (3,)}, "functions[0]"),
    # a bool is a number to isinstance, never to a sweep
    ({"alphas": (True,)}, "alphas[0]"),
    ({"s_values": (True,)}, "s_values[0]"),
    ({"p_values": (2.0, True)}, "p_values[1]"),
    ({"slack": False}, "slack"),
    ({"quad_tol": True}, "quad_tol"),
    ({"seed": True}, "seed"),
    ({"seed": 1.5}, "seed"),
])
def test_a_library_config_entry_of_the_wrong_type_is_named(change, field):
    # a config built in code skips the parser's conversions; an entry of
    # the wrong type is refused, never converted, and the error names it
    config = parse_config_text(GOOD_CONFIG)._replace(**change)
    with pytest.raises(ConfigError) as exc_info:
        run_sweep(config)
    assert exc_info.value.field == field
    assert "must be of type" in str(exc_info.value)


@pytest.mark.parametrize("change", [
    {"alphas": 0.5},
    {"functions": "square"},        # not read character by character
    {"intervals": None},
    {"q_values": {1.0}},
])
def test_a_library_config_list_that_is_not_a_sequence_is_named(change):
    (key, value), = change.items()
    config = parse_config_text(GOOD_CONFIG)._replace(**change)
    with pytest.raises(ConfigError) as exc_info:
        run_sweep(config)
    assert exc_info.value.field == key
    assert str(exc_info.value) == f"{key}: must be a tuple or list, got {value!r}"


def test_reversed_interval_error_says_a_before_b():
    with pytest.raises(ConfigError) as exc_info:
        parse_config_text(GOOD_CONFIG.replace("intervals = 0,1",
                                              "intervals = 1,0"))
    assert exc_info.value.field == "intervals[0]"
    assert "a < b" in str(exc_info.value)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_slack_rejected(value):
    with pytest.raises(ConfigError) as exc_info:
        parse_config_text(GOOD_CONFIG.replace("slack = 1e-8", f"slack = {value}"))
    assert exc_info.value.field == "slack"


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text(GOOD_CONFIG + "\nbogus = 1\n")


def test_empty_key_names_its_line():
    with pytest.raises(ConfigError) as exc_info:
        parse_config_text(GOOD_CONFIG + "= 1\n")
    assert exc_info.value.field == "line 12"


def expected_row_count(cfg: SweepConfig) -> int:
    nf, ni = len(cfg.functions), len(cfg.intervals)
    na, ns = len(cfg.alphas), len(cfg.s_values)
    np_, nq = len(cfg.p_values), len(cfg.q_values)
    return (nf * ni * na                    # identity
            + 3 * nf * ni * ns              # sandwich rows
            + nf * ni * na * ns             # s-convex bound
            + 2 * nf * ni * na * ns * np_   # hoelder + s-concave bounds
            + nf * ni * na * ns * nq        # power-mean bound
            + 2 * na * ns                   # weight identities
            + ns                            # plain power integral
            + na * np_)                     # kernel bound


def test_row_completeness_and_sorting():
    cfg = small_config()
    report = run_sweep(cfg)
    assert len(report.rows) == expected_row_count(cfg)
    keys = [(r.check_id, r.function or "",
             *(v if v is not None else -math.inf
               for v in (r.a, r.b, r.alpha, r.s, r.p, r.q)))
            for r in report.rows]
    assert keys == sorted(keys)
    # each configured tuple appears exactly once per applicable check
    assert len(set(keys)) == len(keys)


def test_repeated_config_entries_repeat_their_rows():
    # a repeated function, interval, order, s or p gives its rows once per
    # entry, each as computed for the deduplicated config
    text = ("functions = square square\nintervals = 0,1 0,1 1,3\n"
            "alphas = 0.5 2 0.5\ns_values = 1 0.5 1\np_values = 2 3 2\n"
            "q_values = 2\n")
    repeated = parse_config_text(text)
    report = run_sweep(repeated)
    unique = run_sweep(repeated._replace(
        functions=("square",),
        intervals=(Interval(0.0, 1.0), Interval(1.0, 3.0)),
        alphas=(0.5, 2.0), s_values=(1.0, 0.5), p_values=(2.0, 3.0)))

    def multiplicity(r: SweepRow) -> int:
        n = 1
        for value, values in ((r.alpha, repeated.alphas),
                              (r.s, repeated.s_values),
                              (r.p, repeated.p_values)):
            if value is not None:
                n *= values.count(value)
        if r.function is not None:
            n *= (repeated.functions.count(r.function)
                  * repeated.intervals.count(Interval(r.a, r.b)))
        return n

    assert len(report.rows) == expected_row_count(repeated)
    assert Counter(report.rows) == Counter(
        {r: multiplicity(r) for r in unique.rows})
    assert render_report(report) == render_report(run_sweep(repeated))
    assert render_report(report, "json") == render_report(
        run_sweep(repeated), "json")


def test_each_check_id_leaves_the_same_key_columns_empty():
    # run_sweep orders rows by the raw key columns, in its layout's sort
    # and in the merge of tied cells, which needs this
    empty = {}
    for r in run_sweep(small_config()).rows:
        empty.setdefault(r.check_id, set()).add(
            tuple(v is None for v in r[:8]))
    assert len(empty) == 12
    assert all(len(masks) == 1 for masks in empty.values())


def test_equality_row_values():
    report = run_sweep(small_config())
    rows = [r for r in report.rows
            if r.check_id == "bound_s_convex" and r.function == "square"
            and r.alpha == 1.0]
    assert len(rows) == 1
    row = rows[0]
    assert row.lhs == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert row.rhs == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert row.status == "pass"


def test_all_pass_on_good_config():
    report = run_sweep(small_config())
    assert not report.any_fail
    statuses = {r.status for r in report.rows}
    assert statuses <= {"pass", "precondition_skipped", "out_of_validated_range"}


def test_constant_curvature_passes_half_convexity():
    # |f''| of square is the constant 2, which the certifier accepts at
    # s = 0.5, so the row evaluates rather than being skipped
    report = run_sweep(small_config(s_values=(0.5,)))
    rows = [r for r in report.rows
            if r.check_id == "bound_s_convex" and r.function == "square"]
    assert rows and all(r.status == "pass" for r in rows)


def test_out_of_range_rows_at_large_alpha():
    report = run_sweep(small_config(alphas=(2.0,)))
    holder = [r for r in report.rows if r.check_id == "bound_holder"
              and r.function == "square"]
    assert holder and all(r.status == "out_of_validated_range" for r in holder)
    kernel = [r for r in report.rows if r.check_id == "holder_kernel_bound"]
    assert kernel and all(r.status == "out_of_validated_range" for r in kernel)
    # the power-mean route stays asserted at alpha > 1
    pm = [r for r in report.rows if r.check_id == "bound_power_mean"
          and r.function == "square"]
    assert pm and all(r.status == "pass" for r in pm)


def test_classical_upper_reading_recorded_not_failed():
    # for f = t^s with s < 1 the /2 upper reading is violated; the row is
    # recorded as out_of_validated_range so the exit contract is unaffected
    cfg = small_config(functions=("root_power_0.5",), s_values=(0.5,))
    report = run_sweep(cfg)
    rows = [r for r in report.rows if r.check_id == "sandwich_upper_classical"]
    assert rows and rows[0].status == "out_of_validated_range"
    assert not report.any_fail
    asserted = [r for r in report.rows if r.check_id == "sandwich_upper"]
    assert asserted[0].status == "pass"


def test_zero_slack_induces_failing_rows():
    report = run_sweep(small_config(slack=0.0))
    assert report.any_fail


def test_sweep_determinism():
    cfg = small_config()
    b1 = render_report(run_sweep(cfg), "csv")
    b2 = render_report(run_sweep(cfg), "csv")
    assert b1 == b2


def test_render_csv_shape():
    row = SweepRow("identity", "square", 0.0, 1.0, 1.0, None, None, None,
                   1.0 / 6.0, 1.0 / 6.0, 0.0, "pass")
    data = render_report(SweepReport(rows=(row,)), "csv")
    lines = data.decode().splitlines()
    assert len(lines) == 2
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[1].startswith("identity,square,0,1,1,,,,0.1666666666666666")
    with pytest.raises(ConfigError) as exc_info:
        render_report(SweepReport(rows=(row,)), "xml")
    assert exc_info.value.field == "format"


def test_render_json_round_trip():
    report = run_sweep(small_config())
    payload = json.loads(render_report(report, "json"))
    assert len(payload) == len(report.rows)
    for obj, row in zip(payload, report.rows):
        for key in CSV_HEADER:
            got = obj[key]
            want = getattr(row, key)
            assert got == want or (got is None and want is None)


def json_reference(rows) -> bytes:
    payload = [{key: getattr(r, key) for key in CSV_HEADER} for r in rows]
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def csv_reference(rows) -> bytes:
    def number(v) -> str:
        return "" if v is None else format(float(v), ".17g")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow([r.check_id, r.function or "",
                         *(number(getattr(r, k)) for k in CSV_HEADER[2:11]),
                         r.status])
    return buf.getvalue().encode("utf-8")


def text_rows(text: str) -> tuple:
    """A plain row, then ``text`` as the check id, function and status."""
    return (SweepRow("identity", "square", 0.0, 1.0, 1.0, None, None, None,
                     0.5, 0.5, 0.0, "pass"),
            SweepRow(text, "cube", 0.0, 2.0, 0.5, None, None, None,
                     1.0, 1.0, 0.0, "pass"),
            SweepRow("identity", text, 1.0, 3.0, 2.0, None, None, None,
                     None, None, None, "precondition_skipped"),
            SweepRow("bound_s_convex", "linear", 0.0, 1.0, 3.0, 1.0, None,
                     None, 0.25, 0.5, 0.25, text))


def column_rows(*values) -> tuple:
    """One row per value, holding it in the a, lhs, rhs and margin columns,
    so a value meets its equals (1 and True, -0.0 and 0.0) in one column."""
    return tuple(SweepRow("identity", "square", v, 1.0, 1.0, None, None, None,
                          v, v, v, "pass") for v in values)


RENDER_CASES = {
    "empty": (),
    "none_nan_inf": (
        SweepRow("identity", "square", 0.0, 1.0, 1.0, None, None, None,
                 1.0 / 6.0, 1.0 / 6.0, 0.0, "pass"),
        SweepRow("bound_holder", None, -0.0, 1e300, 5e-324, 0.25, 1.5, 3.0,
                 math.nan, math.inf, -math.inf, "fail"),
        SweepRow("weight_int_power", "s_power_0.5", 2.0, 3.0, 170.0, 1.0,
                 None, 1.0, -1.5e-17, 12345678.9, None,
                 "na\u00efve \"q\"\n")),
    "numpy_floats": (
        SweepRow("sandwich_lower", "cube", np.float64(-0.0), np.float64(2.0),
                 None, np.float64(0.25), None, None, np.float64(5e-324),
                 np.float64(1.0 / 3.0), np.float64(-math.inf), "pass"),
        SweepRow("sandwich_upper", "cube", 0.0, 2.0, None, 0.25, None, None,
                 np.float64(math.nan), np.float64(1e300), np.float64(-0.0),
                 "fail")),
    **{f"text_{name}": text_rows(text) for name, text in [
        ("comma", "a,b"), ("quote", 'say "hi"'), ("cr", "a\rb"),
        ("lf", "a\nb"), ("crlf", "a\r\nb"),
        ("non_ascii", "na\u00efve \u03b1"), ("all", 'x,"y"\r\n\u00e9'),
        ("nan", "nan"), ("json_tokens", 'x": -inf')]},
    # equal values whose texts differ: a memo keyed by value alone mixes
    # them up
    "int_float_bool": column_rows(1, 1.0, True, 1.0, 1, True),
    "bool_float_int": column_rows(True, 1.0, 1),
    "negative_zero_first": column_rows(-0.0, 0.0, -0.0, 0.0),
    "zero_first": column_rows(0.0, -0.0, 0.0, -0.0),
    "nan_repeated": column_rows(math.nan, math.nan, float("nan"), math.nan),
    "numpy_next_to_float": column_rows(np.float64(0.5), 0.5, np.float64(0.5),
                                       0.5),
    "float_next_to_numpy": column_rows(0.5, np.float64(0.5)),
}


@pytest.mark.parametrize("rows", RENDER_CASES.values(), ids=RENDER_CASES)
def test_render_json_matches_json_dumps(rows):
    report = SweepReport(rows=rows)
    assert render_report(report, "json") == json_reference(rows)


def test_render_json_shares_its_memo_across_types_in_a_column():
    # floats, strings and None in one column are all memoised: no two of
    # them compare equal, and ±0 keep their own texts
    rows = column_rows(0.5, "0.5", None, -0.0, "0", 0.0, "", math.inf,
                       "Infinity", None, "-0", -0.0)
    assert render_report(SweepReport(rows=rows), "json") == json_reference(
        rows)


@pytest.mark.parametrize("rows", RENDER_CASES.values(), ids=RENDER_CASES)
def test_render_csv_matches_csv_writer(rows):
    report = SweepReport(rows=rows)
    assert render_report(report, "csv") == csv_reference(rows)


def test_renderers_match_the_stdlib_on_the_readme_sweep():
    report = run_sweep(parse_config_text(README_CONFIG))
    assert render_report(report, "csv") == csv_reference(report.rows)
    assert render_report(report, "json") == json_reference(report.rows)


@pytest.mark.parametrize("fmt, formatter, rendered",
                         [("csv", "_csv_text", lambda rows: (CSV_HEADER, *rows)),
                          ("json", "_json_text", lambda rows: rows)])
def test_renderers_format_each_distinct_value_once(monkeypatch, fmt,
                                                    formatter, rendered):
    # ±0 are one dict key with two texts, made once per render; every
    # other distinct value is formatted once per report (JSON: every
    # column of the README report holds floats, strings and None alone)
    report = run_sweep(parse_config_text(README_CONFIG))
    cells = [v for r in rendered(report.rows) for v in r]
    distinct = len({v for v in cells if v != 0})
    zeros = sum(1 for v in cells if v == 0)
    calls = []

    def counting(value, real=getattr(sweep, formatter)):
        calls.append(value)
        return real(value)

    monkeypatch.setattr(sweep, formatter, counting)
    reference = {"csv": csv_reference, "json": json_reference}[fmt]
    assert render_report(report, fmt) == reference(report.rows)
    # an unmemoised renderer would format every cell
    assert zeros > 2 and distinct + zeros < len(cells)
    assert len(calls) == distinct + 2
    assert [v for v in calls if v == 0] == [0.0, -0.0]


def test_renderers_write_each_signed_zero_as_its_own_text():
    rows = (SweepRow("identity", "square", 0.0, 1.0, 1.0, None, None, None,
                     0.0, -0.0, 0.0, "pass"),
            SweepRow("identity", "square", 0.0, 1.0, 2.0, None, None, None,
                     -0.0, 0.0, -0.0, "pass"))
    report = SweepReport(rows=rows)
    lines = render_report(report, "csv").decode().splitlines()
    assert lines[1:] == ["identity,square,0,1,1,,,,0,-0,0,pass",
                         "identity,square,0,1,2,,,,-0,0,-0,pass"]
    payload = render_report(report, "json").decode()
    assert [re.findall(r'"(lhs|rhs|slack_measured)": (\S+),', obj)
            for obj in payload.split("}")[:2]] == [
        [("lhs", "0.0"), ("rhs", "-0.0"), ("slack_measured", "0.0")],
        [("lhs", "-0.0"), ("rhs", "0.0"), ("slack_measured", "-0.0")]]


def test_sweep_row_builds_by_position_and_keyword():
    values = ("bound_power_mean", "square", 0.0, 1.0, 0.5, 1.0, None, 2.0,
              0.25, 0.5, 0.25, "pass")
    row = SweepRow(*values)
    assert row == SweepRow(**dict(zip(CSV_HEADER, values))) == values
    assert list(row._asdict()) == CSV_HEADER
    assert tuple(row._asdict().values()) == values
    assert (row.check_id, row.q, row.status) == ("bound_power_mean", 2.0,
                                                  "pass")


def test_render_json_matches_json_dumps_on_a_sweep():
    report = run_sweep(small_config())
    payload = [{key: getattr(r, key) for key in CSV_HEADER}
               for r in report.rows]
    assert render_report(report, "json") == (
        json.dumps(payload, indent=2) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# CLI (exercised through real subprocesses)


def run_cli(*args, env_extra=None):
    import os

    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "fracineq", *args],
                          capture_output=True, text=True, env=env)


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(GOOD_CONFIG)
    return path


def test_cli_sweep_writes_csv_and_exits_zero(config_file, tmp_path):
    out = tmp_path / "report.csv"
    proc = run_cli("sweep", "--config", str(config_file), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes().startswith(b"check_id,")


def test_cli_sweep_flag_overrides(config_file, tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli("sweep", "--config", str(config_file),
                   "--function", "square", "--alpha", "1",
                   "--interval", "0,2", "--format", "json",
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert {r["function"] for r in payload if r["function"]} == {"square"}
    assert {r["b"] for r in payload if r["b"] is not None} == {2.0}


def test_cli_exit_one_on_failing_row(config_file, tmp_path):
    failing = tmp_path / "failing.cfg"
    failing.write_text(GOOD_CONFIG.replace("slack = 1e-8", "slack = 0"))
    proc = run_cli("sweep", "--config", str(failing), "--out",
                   str(tmp_path / "f.csv"))
    assert proc.returncode == 1


def test_cli_exit_two_on_config_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(GOOD_CONFIG.replace("alphas = 0.5 1", "alphas ="))
    proc = run_cli("sweep", "--config", str(bad))
    assert proc.returncode == 2
    assert "alphas" in proc.stderr


def test_cli_exit_two_on_non_finite_slack(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(GOOD_CONFIG.replace("slack = 1e-8", "slack = nan"))
    proc = run_cli("sweep", "--config", str(bad))
    assert proc.returncode == 2
    assert "slack" in proc.stderr


def test_cli_exit_two_on_malformed_parameterised_name(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(GOOD_CONFIG.replace("functions = square linear",
                                       "functions = s_power_1.2.3"))
    proc = run_cli("sweep", "--config", str(bad))
    assert proc.returncode == 2
    assert "functions" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args, where", [
    # the family's own parameter is not a CLI option of check-identity,
    # and certify's --s is valid: the message names the function
    (("check-identity", "--function", "root_power_1.5", "--interval", "0,1",
      "--alpha", "1"), "root_power_1.5: s must lie in (0, 1]"),
    (("certify", "--function", "s_power_2", "--s", "1"),
     "s_power_2: s must lie in (0, 1]"),
])
def test_cli_names_the_function_whose_parameter_is_out_of_range(args, where):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert where in proc.stderr
    assert "Traceback" not in proc.stderr


def test_config_names_the_function_entry_whose_parameter_is_out_of_range():
    with pytest.raises(ConfigError) as exc_info:
        parse_config_text(GOOD_CONFIG.replace(
            "functions = square linear", "functions = square root_power_0"))
    assert exc_info.value.field == "functions[1]"
    assert "root_power_0: s must lie in (0, 1]" in str(exc_info.value)


def test_a_shift_whose_domain_resolves_builds_and_certifies(capsys):
    # [1e13, 1e13+2]: its 1025 grid points, 2^-9 apart, are distinct doubles
    from fracineq import cli

    name = "shifted_square_10000000000000"
    assert get_function(name).natural_domain == Interval(1e13, 1e13 + 2.0)
    assert cli.main(["certify", "--function", name, "--s", "1"]) == 0
    assert capsys.readouterr().out == (
        f"PASS {name} as convex at s=1 (35937 triples checked)\n")


def test_a_shift_whose_domain_cannot_resolve_is_refused_on_every_path(
        tmp_path, capsys):
    # [2e13, 2e13+2]: one ulp is 2^-8, twice the grid's step, so its 1025
    # grid points are 513 doubles; every path names the function
    from fracineq import cli

    name = "shifted_square_20000000000000"
    refusal = (f"{name}: interval [20000000000000.0, 20000000000002.0] is "
               "too narrow: its 1025 certification grid points are only 513 "
               "distinct doubles")
    with pytest.raises(DomainError) as exc_info:
        get_function(name)
    assert str(exc_info.value) == refusal
    config = tmp_path / "far.cfg"
    config.write_text(GOOD_CONFIG.replace("functions = square linear",
                                          f"functions = {name}"))
    for args, where in (
            (["certify", "--function", name, "--s", "1"], "--function"),
            (["check-identity", "--function", name, "--interval", "0,1",
              "--alpha", "1"], "--function"),
            (["sweep", "--config", str(config)], "functions[0]")):
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {where}: {refusal}\n"
        assert captured.out == ""


def test_cli_env_quad_tol_override(config_file, tmp_path):
    # an out-of-contract override proves the env var is read and validated
    proc = run_cli("sweep", "--config", str(config_file),
                   env_extra={"FRACINEQ_QUAD_TOL": "1"})
    assert proc.returncode == 2
    assert "quad_tol" in proc.stderr
    ok = run_cli("sweep", "--config", str(config_file), "--out",
                 str(tmp_path / "e.csv"),
                 env_extra={"FRACINEQ_QUAD_TOL": "1e-9"})
    assert ok.returncode == 0


def test_cli_sweep_reversed_interval_override(config_file):
    proc = run_cli("sweep", "--config", str(config_file),
                   "--interval", "1,0")
    assert proc.returncode == 2
    assert "a < b" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("override, message", [
    (("--interval", "1,0"),
     "intervals[0]: interval requires a < b, got [1.0, 0.0]"),
    (("--interval", "0,1", "--interval", "x,1"),
     "intervals[1]: interval must be numeric 'a,b', got 'x,1'"),
    (("--alpha", "abc"), "alphas: cannot read 'abc' as float"),
    (("--alpha", "1", "--alpha", "-1"), "alphas[1]: fractional order alpha"),
    (("--function", "nosuch"), "functions[0]: unknown function 'nosuch'"),
])
def test_cli_override_errors_name_their_entry(config_file, capsys, override,
                                              message):
    # an override token is read as a config file's token is, so its error
    # names the key or the entry as the file's would
    from fracineq import cli

    assert cli.main(["sweep", "--config", str(config_file), *override]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {message}")
    assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize("args, message", [
    (("check-identity", "--function", "square", "--interval", "1,0",
      "--alpha", "1"), "--interval: interval requires a < b, got [1.0, 0.0]"),
    (("check-identity", "--function", "square", "--interval", "0,1",
      "--alpha", "-1"), "--alpha: fractional order alpha"),
    (("check-identity", "--function", "nosuch", "--interval", "0,1",
      "--alpha", "1"), "--function: unknown function 'nosuch'"),
    (("certify", "--function", "cube", "--s", "2"),
     "--s: s must lie in (0, 1], got 2.0"),
    (("certify", "--function", "root_power_1.5", "--s", "1"),
     "--function: root_power_1.5: s must lie in (0, 1], got 1.5"),
    (("check-identity", "--function", "square", "--interval", "0,1",
      "--alpha", "abc"), "--alpha: cannot read 'abc' as float"),
    (("certify", "--function", "cube", "--s", "abc"),
     "--s: cannot read 'abc' as float"),
], ids=["check-identity--interval", "check-identity--alpha",
        "check-identity--function", "certify--s", "certify--function",
        "check-identity--alpha-unreadable", "certify--s-unreadable"])
def test_one_shot_argument_errors_name_their_flag(capsys, args, message):
    # a value out of its domain, or a token that is no number, is a
    # configuration error that names the flag it came from, as a sweep
    # override's names its entry or key
    from fracineq import cli

    assert cli.main(list(args)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {message}")
    assert captured.out == "" and "Traceback" not in captured.err


def test_cli_check_identity():
    proc = run_cli("check-identity", "--function", "square",
                   "--interval", "0,1", "--alpha", "0.5")
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_check_identity_header_names_the_tuple_computed(capsys):
    from fracineq import cli

    assert cli.main(["check-identity", "--function", "square", "--interval",
                     "0,1.0000001", "--alpha", "0.3333333333"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == ("function=square interval=[0.0,1.0000001] "
                      "alpha=0.3333333333")


@pytest.mark.parametrize("value", ["abc", "1", "nan"])
def test_check_identity_refuses_a_bad_env_quad_tol(monkeypatch, capsys,
                                                   value):
    from fracineq import cli

    monkeypatch.setenv("FRACINEQ_QUAD_TOL", value)
    assert cli.main(["check-identity", "--function", "square", "--interval",
                     "0,1", "--alpha", "0.5"]) == 2
    assert "quad_tol" in capsys.readouterr().err


def test_check_identity_takes_the_env_quad_tol_on_both_sides(monkeypatch,
                                                             capsys):
    from fracineq import cli

    seen = []
    for name in ("trapezoid_defect", "defect_identity_rhs"):
        def recording(*args, real=getattr(hhbounds, name)):
            seen.append(args[3])
            return real(*args)
        monkeypatch.setattr(hhbounds, name, recording)
    monkeypatch.setenv("FRACINEQ_QUAD_TOL", "1e-6")
    assert cli.main(["check-identity", "--function", "square", "--interval",
                     "0,1", "--alpha", "0.5"]) == 0
    assert seen == [1e-6, 1e-6]
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("content", [None, "directory", b"functions = sq\xff\n"],
                         ids=["missing", "directory", "not_utf8"])
def test_cli_unreadable_config_is_a_config_error(tmp_path, capsys, content):
    from fracineq import cli

    path = tmp_path / "sweep.cfg"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    assert cli.main(["sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config: ") and str(path) in err


def test_cli_unwritable_out_is_a_config_error(config_file, tmp_path, capsys):
    from fracineq import cli

    out = tmp_path / "no" / "such" / "dir" / "r.csv"
    assert cli.main(["sweep", "--config", str(config_file),
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: --out: ")
    assert str(out) in captured.err and captured.out == ""


@pytest.mark.parametrize("text", [
    GOOD_CONFIG, GOOD_CONFIG.split("\n", 1)[1]], ids=["comment", "key"])
def test_cli_reads_a_config_with_a_byte_order_mark(tmp_path, capsys, text):
    # a config saved with a UTF-8 byte-order mark, before a comment or a
    # key, gives the bytes and exit code of the same config without it
    from fracineq import cli

    runs = []
    for mark in (b"", b"\xef\xbb\xbf"):
        path = tmp_path / f"sweep{len(mark)}.cfg"
        path.write_bytes(mark + text.encode("utf-8"))
        out = tmp_path / f"report{len(mark)}.csv"
        code = cli.main(["sweep", "--config", str(path), "--out", str(out)])
        runs.append((code, capsys.readouterr().err, out.read_bytes()))
    assert runs[1] == runs[0]
    assert runs[0][:2] == (0, "")


def test_cli_unwritable_out_fails_before_the_sweep_runs(config_file, tmp_path,
                                                        monkeypatch, capsys):
    # --out names a directory: the run stops before any sweep, naming
    # --out; a bad config, or a bad override, is still the error named
    from fracineq import cli

    ran = []
    monkeypatch.setattr(sweep, "run_sweep", ran.append)
    assert cli.main(["sweep", "--config", str(config_file),
                     "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: --out: ")
    bad = tmp_path / "bad.cfg"
    bad.write_text(GOOD_CONFIG.replace("alphas = 0.5 1", "alphas ="))
    for argv in (["--config", str(bad)],
                 ["--config", str(config_file), "--alpha=-1"]):
        assert cli.main(["sweep", *argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: alphas") and "--out" not in err
    assert ran == []


def test_cli_certify_pass_and_fail():
    ok = run_cli("certify", "--function", "square", "--s", "1")
    assert ok.returncode == 0 and ok.stdout.startswith("PASS")
    # the 33^3 grid is still the count reported, though only its 1025
    # distinct points are evaluated
    assert "(35937 triples checked)" in ok.stdout
    # sqrt is not convex in the ordinary (s = 1) sense
    bad = run_cli("certify", "--function", "root_power_0.5", "--s", "1")
    assert bad.returncode == 1 and bad.stdout.startswith("FAIL")
    unknown = run_cli("certify", "--function", "nope", "--s", "1")
    assert unknown.returncode == 2


def test_cli_certify_prints_the_first_witness_bit_for_bit(capsys):
    # the golden lines: the witness is the first violation of the whole
    # 33^3 grid in row-major order, every field printed to 17 digits
    from fracineq.cli import main

    assert main(["certify", "--function", "root_power_0.5", "--s", "1"]) == 1
    assert capsys.readouterr().out == (
        "FAIL root_power_0.5 as s_convex at s=1: witness x=0 y=0.03125 "
        "lam=0.03125 lhs=0.17399263633843817 rhs=0.171252423568617\n")
    assert main(["certify", "--function", "square", "--s", "1"]) == 0
    assert capsys.readouterr().out == (
        "PASS square as convex at s=1 (35937 triples checked)\n")


# ---------------------------------------------------------------------------
# the check table


def test_bound_check_table_matches_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    readme_ids = re.findall(r"^\| `(bound_\w+)` \|", readme, flags=re.M)
    assert readme_ids == [check.check_id for check in BOUND_CHECKS]
    # the sweep runs from the table hhbounds declares, not a copy of it
    assert sweep.BOUND_CHECKS is hhbounds.BOUND_CHECKS


# ---------------------------------------------------------------------------
# shared certification grids


README_CONFIG = """\
functions = square cube s_power_0.5
intervals = 0,1 0,2 1,3
alphas    = 0.25 0.5 0.75 1 1.5 2 3
s_values  = 0.25 0.5 0.75 1
p_values  = 1.5 2 3 5
q_values  = 1 2 3
"""


IDENTITY_CONFIG = (
    "functions = const_one linear square cube quartic s_power_0.25 "
    "s_power_0.5 s_power_0.75 shifted_square_1\n"
    "intervals = 0,1 0,2 1,3 0.5,4\n"
    "alphas = 0.05 0.1 0.2 0.25 0.3 0.4 0.5 0.6 0.7 0.75 0.8 0.9 0.95 1 "
    "1.25 1.5 2 2.5 3 4 5 7\n"
    "s_values = 1\np_values = 2\nq_values = 1\nquad_tol = 1e-12\n")


# ordinary orders, the order where the defect is lost (1e5) and orders
# past the ladder's node power cap, in one batch per (function, interval)
MIXED_CONFIG = """\
functions = square cube
intervals = 0,1 0,100
alphas    = 0.5 2 1e5 1e17 1e150
s_values  = 1
p_values  = 2
q_values  = 2
"""

NO_PROBES = np.empty(0)


def grid_alone(fn, iv, s):
    """The grid's (convex, concave) verdicts at ``s`` alone: a
    channel_verdicts call with no probe triples."""
    verdicts = channel_verdicts(fn, iv, (s,), NO_PROBES, NO_PROBES, NO_PROBES)
    return verdicts[(s, False)], verdicts[(s, True)]


def readme_channels():
    """Every channel the README config certifies: (name, fn, interval)."""
    cfg = parse_config_text(README_CONFIG)
    q_values = sorted({*cfg.q_values, *(p / (p - 1.0) for p in cfg.p_values)})
    assert q_values == [1.0, 1.25, 1.5, 2.0, 3.0]
    for name in cfg.functions:
        f = get_function(name)
        for iv in cfg.intervals:
            yield f"{name} f {iv}", f.fn, iv
            yield f"{name} |f''| {iv}", (lambda t, f=f: np.abs(f.d2(t))), iv
            for q in q_values:
                yield (f"{name} |f''|^{q:g} {iv}",
                       (lambda t, f=f, q=q: np.abs(f.d2(t)) ** q), iv)


def test_shared_grid_verdicts_match_standalone_certifiers():
    # one grid per channel, judged at every s, gives each standalone
    # certifier's verdict
    s_values = parse_config_text(README_CONFIG).s_values
    channels = list(readme_channels())
    assert len(channels) == 63
    for label, fn, iv in channels:
        for s in s_values:
            convex, concave = grid_alone(fn, iv, s)
            assert convex == certify_s_convex(fn, iv, s).passed, (
                label, s, "convex")
            assert concave == certify_s_concave(fn, iv, s).passed, (
                label, s, "concave")


def test_power_one_channel_is_the_abs_d2_channel_bit_for_bit():
    # the certifier keys |f''|^1 as |f''|: x ** 1.0 is x, as an array, as
    # a numpy scalar (the point-by-point fallback) and as a float
    values = np.random.default_rng(5).standard_normal(4096) * np.logspace(
        -310, 300, 4096)
    values = np.concatenate([values, [0.0, -0.0, 5e-324, np.inf, -np.inf]])
    assert np.abs(values).tobytes() == (np.abs(values) ** 1.0).tobytes()
    for v in values:
        assert (np.abs(v) ** 1.0).tobytes() == np.abs(v).tobytes()
        assert abs(float(v)) ** 1.0 == abs(float(v))
    config = parse_config_text(README_CONFIG)
    for name, iv in product(config.functions, config.intervals):
        f = get_function(name)
        plain = cert_grid(abs_d2(f), iv)
        power = cert_grid(abs_d2(f, 1.0), iv)
        assert plain.fx.tobytes() == power.fx.tobytes(), (name, iv)
        assert plain.f_half.tobytes() == power.f_half.tobytes(), (name, iv)


def test_readme_grids_match_brute_force_bit_for_bit():
    # the README intervals are dyadic, so every float combination
    # lam[k]*xs[i] + (1-lam[k])*xs[j] is exact and equals the distinct
    # point cert_grid evaluates: the kept half of f_mix and every verdict
    # keep their bits
    s_values = parse_config_text(README_CONFIG).s_values
    for label, fn, iv in readme_channels():
        grid = cert_grid(fn, iv)
        xs = np.linspace(iv.a, iv.b, 33)
        fx = fn(xs)
        lam = np.linspace(0.0, 1.0, 33)[None, None, :]
        f_mix = fn(lam * xs[:, None, None] + (1.0 - lam) * xs[None, :, None])
        assert np.array_equal(grid.fx, fx), label
        # the kept faces lam[1] .. lam[16]; the lam = 0 face left out
        # repeats fx
        assert np.array_equal(grid.f_half,
                              f_mix[:, :, 1:17].transpose(2, 0, 1)), label
        assert np.array_equal(f_mix[:, :, 0],
                              np.broadcast_to(fx[None, :], (33, 33))), label
        # the other half is the mirror (i, j, k) -> (j, i, n-1-k)
        assert np.array_equal(f_mix,
                              f_mix.transpose(1, 0, 2)[:, :, ::-1]), label
        for s in s_values:
            combo = (lam ** s * fx[:, None, None]
                     + (1.0 - lam) ** s * fx[None, :, None])
            assert grid_alone(fn, iv, s) == (
                bool(np.all(f_mix <= combo + 1e-12)),
                bool(np.all(f_mix >= combo - 1e-12))), (label, s)


def bumped_square(c: float = 1e-3) -> TestFunction:
    """t^2 plus c sin^2(1024 pi (t-1)) on [1, 2]: the bump vanishes, up to
    rounding far below the slack, at the grid's 1025 points 1 + m/1024, so
    the grid sees t^2, while between them it breaks convexity at s = 1."""
    return TestFunction(
        "bumped_square",
        lambda t: t ** 2 + c * np.sin(1024.0 * np.pi * (t - 1.0)) ** 2,
        lambda t: 2.0 + 0.0 * t, ConvexityClass("none"), Interval(1.0, 2.0))


def probe_draw(seed: int, domain: Interval, key: str):
    """The sweep's probe triples (x, y, lam) of the channel keyed ``key``."""
    rng = np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(key.encode())])
    x = rng.uniform(domain.a, domain.b, _PROBE_COUNT)
    y = rng.uniform(domain.a, domain.b, _PROBE_COUNT)
    return x, y, rng.uniform(0.0, 1.0, _PROBE_COUNT)


def test_probes_match_scalar_loop():
    # reference: the grid's verdict, and the same probe triples read with
    # one scalar call per point and judged at every s in both directions;
    # channel_verdicts holds where the grid and the probes both pass
    def probes_ok_loop(fn, x, y, lam, s, concave):
        fx = np.asarray([fn(float(v)) for v in x], dtype=float)
        fy = np.asarray([fn(float(v)) for v in y], dtype=float)
        fm = np.asarray([fn(float(lam[i] * x[i] + (1.0 - lam[i]) * y[i]))
                         for i in range(len(x))], dtype=float)
        combo = lam ** s * fx + (1.0 - lam) ** s * fy
        if concave:
            return bool(np.all(fm >= combo - 1e-12))
        return bool(np.all(fm <= combo + 1e-12))

    seed, s_values = 7, (0.25, 1.0)
    bumped = bumped_square()
    channels = [*readme_channels(),
                ("bumped_square f", bumped.fn, bumped.natural_domain)]
    by_probes = 0
    for label, fn, iv in channels:
        x, y, lam = probe_draw(seed, iv, label)
        verdicts = channel_verdicts(fn, iv, s_values, x, y, lam)
        for s in s_values:
            on_grid = grid_alone(fn, iv, s)
            for concave in (False, True):
                at_probes = probes_ok_loop(fn, x, y, lam, s, concave)
                assert verdicts[(s, concave)] == (
                    on_grid[concave] and at_probes), (label, s, concave)
                by_probes += on_grid[concave] and not at_probes
    # the bumped square is rejected by its probes alone
    assert by_probes > 0


def test_channel_non_finite_on_the_grid_certifies_nothing():
    # |f''| of root_power_0.5 is t^-1.5 / 4, infinite at t = 0: the
    # channel gives no verdict, and every row resting on it is skipped
    f, iv = get_function("root_power_0.5"), Interval(0.0, 1.0)
    x, y, lam = probe_draw(0, iv, "root_power_0.5 |f''|")
    assert channel_verdicts(abs_d2(f), iv, (0.5, 1.0), x, y, lam) == {}
    report = run_sweep(small_config(functions=("root_power_0.5",),
                                    s_values=(0.5, 1.0)))
    rows = [r for r in report.rows if r.check_id.startswith("bound_")]
    assert {r.check_id for r in rows} == {c.check_id for c in BOUND_CHECKS}
    assert {r.status for r in rows} == {"precondition_skipped"}


def log_kink() -> TestFunction:
    """u ln u - u with u = |t - 0.25| on [0, 1]: f'' = 1/|t - 0.25| is
    finite at both ends and the midpoint, infinite at the grid point 0.25,
    and not integrable there."""
    def fn(t):
        u = abs(t - 0.25)
        return u * np.log(u + (u == 0.0)) - u
    return TestFunction("log_kink", fn, lambda t: 1.0 / abs(t - 0.25),
                        ConvexityClass("none"), Interval(0.0, 1.0))


def nan_node() -> TestFunction:
    """t^2 on [0, 1], but nan at one node of the engine's first panel: the
    point lies off the certification grid and the probes, so f certifies,
    and the sandwich's mean reads nan there."""
    node = 0.5 + 0.5 * _NODES[3]

    def fn(t):
        return np.where(t == node, np.nan, t * t)[()]
    return TestFunction("nan_node", fn, lambda t: 2.0 + 0.0 * t,
                        ConvexityClass("none"), Interval(0.0, 1.0))


def test_a_sandwich_error_stays_in_its_own_rows(monkeypatch):
    # the row builder judges a sandwich error as it judges any outcome:
    # that s's three sandwich rows are skipped and no other row changes
    import fracineq.funclib as funclib_mod

    f = nan_node()
    monkeypatch.setitem(funclib_mod._RESOLVED, f.name, f)
    config = small_config(functions=("square", f.name))
    with pytest.raises(IntegrandError, match="at t=0.0733"):
        s_convex_sandwich(f, Interval(0.0, 1.0), 1.0)
    # f certifies: its probes and its grid keep to convexity
    iv = Interval(0.0, 1.0)
    assert probes_hold(f.fn, (1.0,), *_probes(config, f, "f", iv))[1.0]
    assert certify_s_convex(f.fn, iv, 1.0).passed
    rows = run_sweep(config).rows
    sandwich = [r for r in rows
                if r.function == f.name and r.check_id.startswith("sandwich")]
    assert [(r.check_id, r.lhs, r.rhs, r.slack_measured, r.status)
            for r in sandwich] == [
        (cid, None, None, None, "precondition_skipped")
        for cid in ("sandwich_lower", "sandwich_upper",
                    "sandwich_upper_classical")]
    others = [r for r in rows if r.function != f.name]
    assert others == list(run_sweep(small_config(functions=("square",))).rows)


@pytest.mark.parametrize("text", [README_CONFIG, IDENTITY_CONFIG],
                         ids=["readme", "identity"])
def test_sweep_sandwich_rows_equal_s_convex_sandwich(text):
    # the cell computes the terms that depend on no s once, yet at every
    # (cell, s) whose gate passes its rows hold the one-call sandwich's
    # values bit for bit; where the gate fails they are skipped
    config = parse_config_text(text)
    rows = {(r.function, r.a, r.b, r.s, r.check_id): r
            for r in run_sweep(config).rows
            if r.check_id.startswith("sandwich")}
    compared = 0
    for name, iv, s in product(config.functions, config.intervals,
                               config.s_values):
        f = get_function(name)
        cell = [rows[name, iv.a, iv.b, s, cid] for cid in (
            "sandwich_lower", "sandwich_upper", "sandwich_upper_classical")]
        if not certify_s_convex(f.fn, iv, s).passed:
            assert {r.status for r in cell} == {"precondition_skipped"}
            continue
        sw = s_convex_sandwich(f, iv, s, config.quad_tol)
        assert [(r.lhs.hex(), r.rhs.hex()) for r in cell] == [
            (v.hex(), w.hex()) for v, w in ((sw.lower, sw.mean),
                                            (sw.mean, sw.upper),
                                            (sw.mean, sw.upper_classical))]
        compared += 1
    assert compared == 36


@pytest.mark.parametrize("make, statuses", [
    (lambda: get_function("square"), {"pass"}),
    # the mean's read of f fails: the error is kept, not recomputed per s
    (nan_node, {"precondition_skipped"}),
], ids=["square", "nan_node"])
def test_a_cell_makes_one_mean_integral(monkeypatch, make, statuses):
    f = make()
    means = []
    real = hhbounds.integrate

    def counting(*args, **kwargs):
        means.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(hhbounds, "integrate", counting)
    iv = Interval(0.0, 1.0)
    config = small_config(s_values=(0.25, 0.5, 0.75, 1.0))
    rows = sweep._sandwich_rows(config, f, iv)
    assert len(rows) == 12 and {r.status for r in rows} == statuses
    assert means == [iv]


def test_identity_row_takes_its_hypothesis_from_the_abs_d2_channel(
        monkeypatch):
    # the identity row is skipped from the |f''| channel's empty verdicts,
    # with neither side of the identity computed
    import fracineq.funclib as funclib_mod

    f = log_kink()
    monkeypatch.setitem(funclib_mod._RESOLVED, f.name, f)
    calls = Counter()
    for name in ("_defects", "_identity_rhs"):
        def counting(*args, real=getattr(sweep, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(sweep, name, counting)
    report = run_sweep(small_config(functions=(f.name,), alphas=(0.5,)))
    identity = [r for r in report.rows if r.check_id == "identity"]
    assert [(r.status, r.lhs, r.rhs) for r in identity] == [
        ("precondition_skipped", None, None)]
    assert calls == Counter()
    assert {r.status for r in report.rows
            if r.check_id.startswith("bound_")} == {"precondition_skipped"}
    assert _verdicts(small_config(), f, f.natural_domain) == {}


def test_check_identity_refuses_the_tuples_the_sweep_skips(monkeypatch,
                                                            capsys):
    # |f''| of root_power_0.5 is infinite at t = 0: check-identity names
    # the hypothesis and the point before any quadrature runs, where it
    # ran the adaptive engine to its minimum panel width
    from fracineq import cli, quadrature

    entered = []
    real = quadrature._adaptive

    def counting(*args, **kwargs):
        entered.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_adaptive", counting)
    code = cli.main(["check-identity", "--function", "root_power_0.5",
                     "--interval", "0,1", "--alpha", "0.5"])
    err = capsys.readouterr().err
    assert code == 1
    assert "identity hypothesis fails" in err and "t=0.0" in err
    assert "unreachable" not in err
    assert entered == []
    # a malformed order is still a configuration error, judged first
    assert cli.main(["check-identity", "--function", "root_power_0.5",
                     "--interval", "0,1", "--alpha", "-1"]) == 2
    assert "fractional order alpha" in capsys.readouterr().err
    report = run_sweep(small_config(functions=("root_power_0.5",),
                                    alphas=(0.5,)))
    assert [r.status for r in report.rows if r.check_id == "identity"] == [
        "precondition_skipped"]


@pytest.mark.parametrize("function, code, text", [
    ("square", 0, "PASS"),
    # f'' = t^0.5 / 4 is not real below 0; f raised TypeError there
    ("s_power_0.5", 1, "grid node t=-1.0"),
])
def test_check_identity_hypothesis_on_a_negative_interval(capsys, function,
                                                          code, text):
    # the identity does not need a >= 0: its hypothesis is read on the
    # grid's points without s-convexity's domain rule
    from fracineq import cli

    assert cli.main(["check-identity", "--function", function,
                     "--interval=-1,1", "--alpha", "0.5"]) == code
    out = capsys.readouterr()
    assert text in out.out + out.err


@pytest.mark.parametrize("seed", [0, 1, 7, 20261017])
def test_probes_reject_between_grid_points_for_that_s_and_direction(
        monkeypatch, seed):
    import fracineq.funclib as funclib_mod

    f = bumped_square()
    iv = f.natural_domain
    s_values = (0.25, 0.5, 1.0)
    assert [grid_alone(f.fn, iv, s) for s in s_values] == [(True, False)] * 3
    config = small_config(functions=(f.name,), intervals=(iv,),
                          s_values=s_values, seed=seed)
    # f's convex verdicts, which the sandwich reads: only s = 1 is lost,
    # and the smaller s keep their larger margin
    assert probes_hold(f.fn, s_values, *_probes(config, f, "f", iv)) == {
        0.25: True, 0.5: True, 1.0: False}
    assert certify_s_convex(f.fn, iv, 1.0).passed
    # so the sweep's sandwich rows at s = 1 are skipped although the grid
    # gate passes there, and its gate is not run at that s; it runs at
    # s = 0.5 alone, and s = 0.25 inherits the pass (f >= 0 on the nodes)
    gated = []
    real = hhbounds.certify_s_convex
    monkeypatch.setattr(hhbounds, "certify_s_convex",
                        lambda fn, domain, s: gated.append(s) or real(
                            fn, domain, s))
    monkeypatch.setitem(funclib_mod._RESOLVED, f.name, f)
    rows = [r for r in run_sweep(config).rows
            if r.check_id.startswith("sandwich")]
    assert {r.s for r in rows if r.status == "precondition_skipped"} == {1.0}
    assert gated == [0.5]


@pytest.mark.parametrize("channel, q, key_channel", [
    ("f", None, "f"), ("abs_d2", None, "abs_d2"), ("abs_d2", 2.0, "abs_d2_pow"),
])
def test_each_channel_draws_its_probes_from_the_seed_and_its_key(
        monkeypatch, channel, q, key_channel):
    # the probe seed is crc32(repr((function, channel, a, b, q))), so a
    # channel's probes do not depend on which cell or row asks first; f's
    # go to its convex probe verdicts, the others' to channel_verdicts
    drawn = []
    monkeypatch.setattr(sweep, "channel_verdicts",
                        lambda fn, iv, s_values, *xyl, directions:
                        drawn.append(xyl))
    monkeypatch.setattr(sweep, "probes_hold",
                        lambda fn, s_values, *xyl: drawn.append(xyl) or {
                            s: False for s in s_values})
    # the sweep draws them as one: its triples are those of the three
    # Generator.uniform calls of probe_draw, bit for bit, at any seed
    # (reduced mod 2^32) and on tiny, far and wide intervals
    f = get_function("cube")
    intervals = [Interval(0.0, 1.0), Interval(1.0, 3.0), Interval(0.0, 1e-9),
                 Interval(1e6, 1e6 + 1.0), Interval(0.0, 1e150)]
    for seed, iv in product((0, 1, -1, 2 ** 32 + 5, 20261017), intervals):
        drawn.clear()
        config = small_config(seed=seed)
        if channel == "f":
            sweep._sandwich_rows(config, f, iv)
        else:
            _verdicts(config, f, iv, q)
        key = repr((f.name, key_channel, iv.a, iv.b, q))
        (got,) = drawn
        want = probe_draw(seed, iv, key)
        assert len(got) == len(want) == 3
        for have, ref in zip(got, want):
            assert have.shape == ref.shape == (_PROBE_COUNT,), (seed, iv)
            assert have.tobytes() == ref.tobytes(), (seed, iv)


def test_readme_sweep_builds_one_grid_per_channel(monkeypatch):
    import fracineq.funclib as funclib_mod
    import fracineq.sweep as sweep_mod

    built = []
    real_grid = funclib_mod.cert_grid

    def counting_cert_grid(fn, domain):
        built.append((domain.a, domain.b))
        return real_grid(fn, domain)

    drawn = []
    real_verdicts = sweep_mod.channel_verdicts

    def counting_channel_verdicts(fn, domain, s_values, x, y, lam,
                                  directions):
        before = len(built)
        verdicts = real_verdicts(fn, domain, s_values, x, y, lam,
                                 directions=directions)
        # (probe triples, grids built) per channel
        drawn.append((len(x), len(y), len(lam), len(built) - before))
        return verdicts

    f_drawn = []
    real_probes = sweep_mod.probes_hold

    def counting_probes_hold(fn, s_values, x, y, lam):
        before = len(built)
        verdicts = real_probes(fn, s_values, x, y, lam)
        f_drawn.append((len(x), len(y), len(lam), len(built) - before))
        return verdicts

    config = parse_config_text(README_CONFIG)
    monkeypatch.setattr(funclib_mod, "cert_grid", counting_cert_grid)
    monkeypatch.setattr(sweep_mod, "channel_verdicts",
                        counting_channel_verdicts)
    monkeypatch.setattr(sweep_mod, "probes_hold", counting_probes_hold)
    report = run_sweep(config)
    # 3 functions x 3 intervals x (|f''|, |f''|^q for the 4 distinct q
    # other than 1): |f''|^1 is the |f''| channel, so 45, not 54
    assert drawn == [(_PROBE_COUNT,) * 3 + (1,)] * 45
    # f's probes are drawn once per cell and judged without a grid: its
    # grid is judged by the sandwich gate alone, one grid per cell (at the
    # largest s, whose pass every smaller s inherits)
    assert f_drawn == [(_PROBE_COUNT,) * 3 + (0,)] * 9
    assert len(built) == 45 + 9
    assert len(report.rows) == 3283


# the edge config: wide, shifted and tiny intervals at two s
E_CONFIG = """\
functions = square cube quartic s_power_0.5 linear
intervals = 0,1e6 1e6,1000001 3,1e6 0,1e-9
alphas    = 0.5 1 2
s_values  = 0.5 1
p_values  = 2
q_values  = 1 2
"""
EIGHT_S_CONFIG = (
    f"functions = {' '.join(catalog_names())} root_power_0.5\n"
    "intervals = 0,1 1,3 0.5,4 0,1e-9\n"
    "alphas = 1\ns_values = 0.1 0.25 0.3 0.5 0.6 0.75 0.9 1\n"
    "p_values = 2\nq_values = 1 2\n")


def certified_channels(monkeypatch, config) -> list[tuple]:
    """The arguments (fn, domain, s_values, x, y, lam, directions) of
    every channel_verdicts call a sweep of ``config`` makes, with nothing
    past the certifier computed: every defect, sandwich and weight row is
    stubbed out."""
    calls = []
    real = sweep.channel_verdicts

    def recording(*args, directions):
        calls.append((*args, directions))
        return real(*args, directions=directions)

    def no_defect(*args):
        raise IntegrandError("not computed")

    with monkeypatch.context() as patch:
        patch.setattr(sweep, "channel_verdicts", recording)
        patch.setattr(sweep, "_defects", no_defect)
        patch.setattr(sweep, "_identity_rhs", no_defect)
        patch.setattr(sweep, "_sandwich_rows", lambda *args: [])
        patch.setattr(sweep, "_weight_rows", lambda config: [])
        run_sweep(config)
    return calls


@pytest.mark.parametrize("seed", [0, 1, 7, 20261017])
@pytest.mark.parametrize("text, s_values", [
    (README_CONFIG, None), (IDENTITY_CONFIG, None), (E_CONFIG, None),
    (EIGHT_S_CONFIG, None), (README_CONFIG, (1.0, 0.25, 1.0, 0.5)),
], ids=["readme", "identity", "E", "eight_s", "unsorted_repeated"])
def test_nested_verdicts_equal_one_call_per_s(monkeypatch, text, s_values,
                                              seed):
    # every channel the sweep certifies: the walk from the largest s down
    # gives the merged one-s verdicts, key order included, and judges no
    # more s than there are distinct ones
    import fracineq.funclib as funclib_mod

    config = parse_config_text(text)._replace(seed=seed)
    if s_values is not None:
        config = config._replace(s_values=s_values)
    judged = []
    real = funclib_mod._grid_combination
    monkeypatch.setattr(funclib_mod, "_grid_combination",
                        lambda grid, weights: judged.append(1) or real(
                            grid, weights))
    calls = certified_channels(monkeypatch, config)
    assert calls
    for fn, iv, s_list, x, y, lam, _ in calls:
        del judged[:]
        verdicts = channel_verdicts(fn, iv, s_list, x, y, lam)
        assert len(judged) <= len(set(s_list))
        merged = {}
        for s in s_list:
            merged.update(channel_verdicts(fn, iv, (s,), x, y, lam))
        assert list(verdicts.items()) == list(merged.items()), iv


@pytest.mark.parametrize("seed", [0, 1, 7, 20261017])
@pytest.mark.parametrize("text", [README_CONFIG, IDENTITY_CONFIG, E_CONFIG,
                                  EIGHT_S_CONFIG],
                         ids=["readme", "identity", "E", "eight_s"])
def test_verdicts_in_some_directions_are_those_of_both(monkeypatch, text,
                                                       seed):
    # every channel the sweep certifies: a call in some directions gives the
    # two-direction call's verdicts in those directions, key order included
    config = parse_config_text(text)._replace(seed=seed)
    calls = certified_channels(monkeypatch, config)
    assert calls
    for fn, iv, s_list, x, y, lam, _ in calls:
        both = channel_verdicts(fn, iv, s_list, x, y, lam)
        for directions in ((False,), (True,), (False, True)):
            assert list(channel_verdicts(
                fn, iv, s_list, x, y, lam, directions=directions).items()) == [
                    (key, holds) for key, holds in both.items()
                    if key[1] in directions], (iv, directions)


def raised_square() -> TestFunction:
    """t^2 on [1, 2], raised by 1 at the grid point 1.5 alone: the grid
    refuses its convexity there, where no probe meets the point."""
    return TestFunction(
        "raised_square", lambda t: t ** 2 + np.where(t == 1.5, 1.0, 0.0),
        lambda t: 2.0 + 0.0 * t, ConvexityClass("none"), Interval(1.0, 2.0))


def test_verdicts_are_the_grid_and_the_probes_together(monkeypatch):
    # the bumped square's probes refuse s = 1 convexity where its grid
    # passes, and the raised square's grid refuses convexity where its
    # probes pass: each verdict is the conjunction of the two, and a grid
    # is combined at an s only where the direction's probes pass
    import fracineq.funclib as funclib_mod

    combined = []
    real = funclib_mod._grid_combination
    monkeypatch.setattr(funclib_mod, "_grid_combination",
                        lambda grid, weights: combined.append(1) or real(
                            grid, weights))
    s_values = (0.25, 0.5, 1.0)
    cases = Counter()
    for f in (bumped_square(), raised_square()):
        iv = f.natural_domain
        # f's probes as the sweep draws them (seed 7)
        x, y, lam = _probes(small_config(seed=7), f, "f", iv)
        fx, fy, f_mix = f.fn(x), f.fn(y), f.fn(lam * x + (1.0 - lam) * y)
        both = channel_verdicts(f.fn, iv, s_values, x, y, lam)
        for s, concave in product(s_values, (False, True)):
            on_grid = grid_alone(f.fn, iv, s)[concave]
            combo = lam ** s * fx + (1.0 - lam) ** s * fy
            at_probes = bool(np.all(f_mix >= combo - 1e-12) if concave
                             else np.all(f_mix <= combo + 1e-12))
            assert both[(s, concave)] == (on_grid and at_probes)
            cases[f.name, on_grid, at_probes] += 1
            del combined[:]
            alone = channel_verdicts(f.fn, iv, (s,), x, y, lam,
                                     directions=(concave,))
            assert alone == {(s, concave): on_grid and at_probes}
            assert len(combined) == at_probes, (f.name, s, concave)
    assert cases["bumped_square", True, False] == 1         # s = 1, convex
    assert cases["raised_square", False, True] == len(s_values)


def channel_directions(monkeypatch, config) -> dict:
    """{q: directions} that a sweep of ``config`` hands each channel of
    its first cell, |f''| keyed None."""
    handed = {}
    real = sweep._verdicts

    def recording(config, f, iv, q, directions):
        handed.setdefault((f.name, iv), {})[q] = directions
        return real(config, f, iv, q, directions)

    monkeypatch.setattr(sweep, "_verdicts", recording)
    run_sweep(config)
    monkeypatch.undo()
    cells = list(handed.values())
    assert all(cell == cells[0] for cell in cells)
    return cells[0]


def test_each_channel_is_judged_in_the_directions_its_rows_read(
        monkeypatch):
    # |f''| is read by the convex bound_s_convex and power-mean rows alone
    # in both bench configs; |f''|^q of a conjugate q of p by the convex
    # Hoelder rows and the concave rows
    readme = channel_directions(monkeypatch, parse_config_text(README_CONFIG))
    assert readme == {None: (False,), 3.0: (False, True), 2.0: (False, True),
                      1.5: (False, True), 1.25: (False, True)}
    assert channel_directions(monkeypatch, parse_config_text(
        IDENTITY_CONFIG)) == {None: (False,), 2.0: (False, True)}


def test_a_concave_row_of_q_one_reads_the_f2_channel_concave(monkeypatch):
    # p = 1e16 has the conjugate q = p/(p-1) = 1.0 exactly, so its concave
    # rows rest on |f''|, which is then judged in both directions; the
    # report is the one judged in both directions everywhere, byte for byte
    text = README_CONFIG.replace("p_values  = 1.5 2 3 5", "p_values  = 2 1e16")
    config = parse_config_text(text)
    assert BoundParams(1.0, 1.0, p=1e16).q == 1.0
    assert channel_directions(monkeypatch, config)[None] == (False, True)
    report = run_sweep(config)
    computed = [r for r in report.rows if r.check_id == "bound_s_concave"
                and r.p == 1e16 and r.status != "precondition_skipped"]
    assert len(computed) == 63
    assert hashlib.sha256(render_report(report, "csv")).hexdigest() == (
        "bdb515fac534ae7b4441b728618956c320cc7d0a4aeda09f70c07b0ca0745b91")


def one_sandwich(f, iv: Interval, s: float, quad_tol: float):
    """``s_convex_sandwich(f, iv, s, quad_tol)``, or the error it raised."""
    try:
        return s_convex_sandwich(f, iv, s, quad_tol)
    except FracineqError as exc:
        return exc


def outcome_bits(outcome) -> tuple:
    """A sandwich's values by ``float.hex``, or an error's type and text."""
    if isinstance(outcome, FracineqError):
        return type(outcome), str(outcome)
    return tuple(v.hex() for v in outcome)


@pytest.mark.parametrize("text, s_values, calls", [
    (README_CONFIG, None, 9), (IDENTITY_CONFIG, None, 36),
    (E_CONFIG, None, 29), (EIGHT_S_CONFIG, None, 51),
    (README_CONFIG, (1, 0.25, 1, 0.5), 9),
], ids=["readme", "identity", "E", "eight_s", "unsorted_repeated"])
def test_sandwiches_equal_one_call_per_s(monkeypatch, text, s_values, calls):
    # the gate judged from the largest s down, each smaller s inheriting a
    # pass, gives every s the one-s sandwich, value bits and error texts
    # alike, and calls the certifier at most once per distinct s, ``calls``
    # times in all over the config's cells
    config = parse_config_text(text)
    s_values = s_values or config.s_values
    gated, total = [], 0
    real = hhbounds.certify_s_convex
    for name, iv in product(config.functions, config.intervals):
        f = get_function(name)
        want = [outcome_bits(one_sandwich(f, iv, s, config.quad_tol))
                for s in s_values]
        del gated[:]
        with monkeypatch.context() as patch:
            patch.setattr(hhbounds, "certify_s_convex",
                          lambda fn, domain, s: gated.append(s) or real(
                              fn, domain, s))
            got = hhbounds._sandwiches(f.fn, iv, s_values, config.quad_tol)
        assert [outcome_bits(r) for r in got] == want, (name, iv)
        assert len(gated) <= len(set(s_values))
        total += len(gated)
    assert total == calls


def test_a_gate_pass_is_not_inherited_where_f_is_negative_on_a_node(
        monkeypatch):
    # t - 0.5 is convex, so its gate passes at s = 1, but it is negative on
    # the grid's first nodes: the nesting of the classes does not hold, each
    # smaller s is judged by its own call and fails with its own witness,
    # and s = 1 stops at the sandwich's f >= 0 check
    def fv(t):
        return t - 0.5

    iv, s_values = Interval(0.0, 1.0), (1.0, 0.5, 0.25)
    gated = []
    real = hhbounds.certify_s_convex
    monkeypatch.setattr(hhbounds, "certify_s_convex",
                        lambda fn, domain, s: gated.append(s) or real(
                            fn, domain, s))
    got = hhbounds._sandwiches(fv, iv, s_values, 1e-10)
    assert gated == [1.0, 0.5, 0.25]
    assert "nonnegative" in str(got[0])
    for s, result in zip(s_values[1:], got[1:]):
        assert isinstance(result, PreconditionError)
        assert f"s-convex at s={s}" in str(result)
        assert result.witness == real(fv, iv, s).witness
    monkeypatch.undo()
    assert [outcome_bits(r) for r in got] == [
        outcome_bits(one_sandwich(fv, iv, s, 1e-10)) for s in s_values]


def test_every_gate_is_its_own_call_where_the_tables_do_not_rise(
        monkeypatch):
    # square passes its gate at every s, but with weight tables reported
    # not to rise no pass is inherited: each s is judged by its own call,
    # while the terms that depend on no s are still computed once, one
    # mean integral for the three sandwiches
    f, iv = get_function("square"), Interval(0.0, 1.0)
    s_values, gated, means = (1, 0.5, 0.25), [], []
    real_certify = hhbounds.certify_s_convex
    real_integrate, real_tables = hhbounds.integrate, hhbounds._grid_tables
    monkeypatch.setattr(hhbounds, "_grid_tables",
                        lambda order: (real_tables(order)[0], False))
    monkeypatch.setattr(hhbounds, "certify_s_convex",
                        lambda fn, domain, s: gated.append(s) or real_certify(
                            fn, domain, s))
    monkeypatch.setattr(hhbounds, "integrate",
                        lambda *args, **kw: means.append(args)
                        or real_integrate(*args, **kw))
    got = hhbounds._sandwiches(f.fn, iv, s_values, 1e-10)
    assert gated == [1.0, 0.5, 0.25]
    assert len(means) == 1
    monkeypatch.undo()
    assert [outcome_bits(r) for r in got] == [
        outcome_bits(s_convex_sandwich(f, iv, s, 1e-10)) for s in s_values]


@pytest.mark.parametrize("text, channels, judged, gates, comparisons", [
    (README_CONFIG, 45, 52, 9, 76), (IDENTITY_CONFIG, 72, 60, 36, 116),
], ids=["readme", "identity"])
def test_sweep_judges_each_channel_from_the_largest_s_down(
        monkeypatch, text, channels, judged, gates, comparisons):
    # s-evaluations (one grid combination each) per sweep: the |f''| and
    # |f''|^q channels', in the directions their rows read and only at an
    # s where some direction's probes pass, and, apart from them, the
    # sandwich gates' (f's only grid judge), one per cell where the largest
    # s passes, as in each README cell; one grid per channel and per gate;
    # grid comparisons (one per direction compared), the gates' included
    import fracineq.funclib as funclib_mod

    count = Counter()
    real_grid = funclib_mod.cert_grid

    def counting_grid(fn, domain):
        count["grids"] += 1
        return real_grid(fn, domain)

    real_gate = hhbounds.certify_s_convex

    def counting_gate(fn, domain, s):
        count["gates"] += 1
        return real_gate(fn, domain, s)

    real_combination = funclib_mod._grid_combination

    def counting_combination(grid, weights):
        count["combinations"] += 1
        return real_combination(grid, weights)

    real_holds = funclib_mod._grid_holds

    def counting_holds(grid, combo, concave):
        count["comparisons"] += 1
        return real_holds(grid, combo, concave)

    real_verdicts = sweep.channel_verdicts

    def counting_verdicts(*args, **kwargs):
        before = count["combinations"]
        verdicts = real_verdicts(*args, **kwargs)
        count["channels"] += 1
        count["judged"] += count["combinations"] - before
        return verdicts

    config = parse_config_text(text)
    monkeypatch.setattr(funclib_mod, "_grid_combination",
                        counting_combination)
    monkeypatch.setattr(funclib_mod, "_grid_holds", counting_holds)
    monkeypatch.setattr(sweep, "channel_verdicts", counting_verdicts)
    monkeypatch.setattr(funclib_mod, "cert_grid", counting_grid)
    monkeypatch.setattr(hhbounds, "certify_s_convex", counting_gate)
    run_sweep(config)
    assert count == {"channels": channels, "judged": judged, "gates": gates,
                     "combinations": judged + gates,
                     "comparisons": comparisons,
                     "grids": channels + gates}


# the full SHA-256 of the README, identity and mixed reports, which do not
# depend on the seed; the mixed report's bytes come in part from the engine
# fallbacks and from orders past the ladder's power cap
REPORT_DIGESTS = {
    ("readme", "csv"):
        "93531ef3341f38527ecb27ede333a515872673ec39413ef04d71c54ed91a02c0",
    ("readme", "json"):
        "60e1dd09ba791759887cb111ffe873ebf53b1312a4516d48f1861d54c6b291a3",
    ("identity", "csv"):
        "2e97214e7192530c4f4d32af57c3ccddb2022e48817b14ce77475c75d23e3495",
    ("identity", "json"):
        "79db5fa5258b562e823e21941fdce912b808caaa1480cc42cb2edd4a8404c1a0",
    ("mixed", "csv"):
        "885964dd32b7dfdae09994f8d8c38cdc850edbdbb2fcf8b7c123ee0c2a7c8dcd",
    ("mixed", "json"):
        "9d4662dd8628c369f1b4dca06a68ea37391a61a7fb817fa47e749511427c7421",
    ("ties", "csv"):
        "7706f0bd7a268da355a72d46c02fc166f491aa293a80299c21d8ccb790d58144",
    ("ties", "json"):
        "286a9de235845286966ec95d724b607b16f3643a085f2d1a8dcaa3175fc5621b",
}

# cells tied on (function, a, b): a repeated function, a repeated interval
# and 0,1 beside -0,1; only cube on [1, 3] is a cell of its own.  The rows
# of tied cells are merged in config order, entry by entry, as a stable
# sort of the rows in config order leaves them
TIES_CONFIG = """\
functions = square cube square
intervals = 0,1 -0,1 0,1 1,3
alphas = 0.5 2 0.5
s_values = 1 0.5 1
p_values = 2
q_values = 2 1
"""


def reversed_lists(text: str) -> str:
    """``text`` with the entries of each list key in reverse order."""
    lines = []
    for line in text.splitlines():
        key, _, value = line.partition("=")
        if key.strip() in ("functions", "intervals", "alphas", "s_values",
                           "p_values", "q_values"):
            value = " ".join(reversed(value.split()))
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", [0, 1, 7, 20261017])
@pytest.mark.parametrize("name, text", [("readme", README_CONFIG),
                                        ("identity", IDENTITY_CONFIG),
                                        ("mixed", MIXED_CONFIG),
                                        ("ties", TIES_CONFIG)])
def test_reports_keep_their_pinned_digests(name, text, seed):
    config = parse_config_text(text)._replace(seed=seed)
    report = run_sweep(config)
    if name == "ties":
        assert len(report.rows) == 708
    for fmt in ("csv", "json"):
        digest = hashlib.sha256(render_report(report, fmt)).hexdigest()
        assert digest == REPORT_DIGESTS[name, fmt], fmt


@pytest.mark.parametrize("seed", [0, 20261017])
@pytest.mark.parametrize("name, text", [("readme", README_CONFIG),
                                        ("identity", IDENTITY_CONFIG)],
                         ids=["readme", "identity"])
def test_reports_do_not_depend_on_the_order_of_list_entries(name, text,
                                                            seed):
    # every list reversed: the cells are made in the other order, and the
    # layout and the cells' order must still give the pinned bytes
    config = parse_config_text(reversed_lists(text))._replace(seed=seed)
    assert config.functions[0] != parse_config_text(text).functions[0]
    report = run_sweep(config)
    for fmt in ("csv", "json"):
        digest = hashlib.sha256(render_report(report, fmt)).hexdigest()
        assert digest == REPORT_DIGESTS[name, fmt], fmt


@pytest.mark.parametrize("config", [
    parse_config_text(TIES_CONFIG),
    parse_config_text(reversed_lists(TIES_CONFIG)),
    # entries built in code: ints beside equal floats, 0 beside -0.0
    SweepConfig(functions=("cube", "square", "cube"),
                intervals=(Interval(1, 3), Interval(-0.0, 1.0),
                           Interval(0, 1), Interval(1.0, 3.0)),
                alphas=(2, 0.5, 2.0), s_values=(1, 0.5, 1.0),
                p_values=(3, 2.0), q_values=(1, 2, 1.0), seed=3),
], ids=["ties", "ties_reversed", "mixed_types"])
def test_the_layout_places_rows_as_a_stable_sort_of_them_does(
        monkeypatch, config):
    # the reference: the cells' rows in config order, then the weight
    # rows, stably sorted by the report key; the same row objects in the
    # same places
    placed = []
    real_report = sweep._report

    def checked_report(cells, weights):
        rows = real_report(cells, weights)
        reference = sorted([row for cell in cells for row in cell] + weights,
                           key=sweep._sort_key)
        placed.append(len(rows))
        assert len(rows) == len(reference)
        assert all(map(operator.is_, rows, reference))
        return rows

    monkeypatch.setattr(sweep, "_report", checked_report)
    run_sweep(config)
    assert placed


@pytest.mark.parametrize("name, text, weight_rows", [
    ("readme", README_CONFIG, 88),
    ("identity", IDENTITY_CONFIG, 67),
    ("ties", TIES_CONFIG, 24),
], ids=["readme", "identity", "ties"])
def test_the_report_key_is_read_only_for_tied_cells_and_weight_rows(
        monkeypatch, name, text, weight_rows):
    # a cell whose (function, a, b) is unique is placed by the layout with
    # no per-row key; the rows of tied cells are each keyed once, to merge
    # them, and the weight rows at most once each
    keyed = Counter()
    real_key = sweep._sort_key

    def counting_key(row):
        keyed["weight" if row.function is None else "cell"] += 1
        return real_key(row)

    config = parse_config_text(text)
    monkeypatch.setattr(sweep, "_sort_key", counting_key)
    report = run_sweep(config)
    cells = Counter((get_function(fn).name, iv.a, iv.b)
                    for fn in config.functions for iv in config.intervals)
    tied = sum(1 for r in report.rows if r.function is not None
               and cells[r.function, r.a, r.b] > 1)
    assert sum(r.function is None for r in report.rows) == weight_rows
    assert tied == (627 if name == "ties" else 0)
    assert keyed["cell"] == tied
    assert keyed["weight"] <= weight_rows


@pytest.mark.parametrize("seed", [0, 1, 7, 20261017])
def test_readme_sweep_keeps_its_results_across_seeds(seed):
    # the seed moves only the probe triples; no probe rejects a channel of
    # the README config, so every seed gives the same report
    base = run_sweep(parse_config_text(README_CONFIG))
    config = parse_config_text(README_CONFIG)._replace(seed=seed)
    report = run_sweep(config)
    assert Counter(r.status for r in report.rows) == {
        "pass": 1813, "precondition_skipped": 987,
        "out_of_validated_range": 483}
    for fmt in ("csv", "json"):
        assert render_report(report, fmt) == render_report(base, fmt), fmt


# each public bound evaluator, certifying its own hypothesis, by check id
GATED_EVALUATORS = {
    "bound_s_convex": lambda f, iv, bp: defect_bound_s_convex(
        f, iv, bp.alpha, bp.s),
    "bound_holder": defect_bound_holder,
    "bound_power_mean": lambda f, iv, bp: defect_bound_power_mean(
        f, iv, bp.alpha, bp.s, bp.q),
    "bound_s_concave": defect_bound_s_concave,
}


def test_gated_evaluators_return_the_table_formula():
    # over the README tuples, each public evaluator returns its table
    # entry's closed form bit for bit where the entry's hypothesis, |f''|
    # or |f''|^q in the entry's direction, certifies, and refuses it
    # otherwise
    config = parse_config_text(README_CONFIG)
    params = {
        None: lambda alpha, s: [BoundParams(alpha, s)],
        "conjugate": lambda alpha, s: [BoundParams(alpha, s, p=p)
                                       for p in config.p_values],
        "q_values": lambda alpha, s: [BoundParams(alpha, s, q=q)
                                      for q in config.q_values],
    }
    assert [check.check_id for check in BOUND_CHECKS] == list(GATED_EVALUATORS)
    outcomes = Counter()
    certified = {}      # the hypothesis does not depend on alpha
    for name, iv, alpha, s in product(config.functions, config.intervals,
                                      config.alphas, config.s_values):
        f = get_function(name)
        for check in BOUND_CHECKS:
            evaluate = GATED_EVALUATORS[check.check_id]
            certify = certify_s_concave if check.concave else certify_s_convex
            for bp in params[check.q_from](alpha, s):
                key = (name, iv, s, bp.q, check.concave)
                if key not in certified:
                    certified[key] = certify(abs_d2(f, bp.q), iv, s).passed
                if certified[key]:
                    got = evaluate(f, iv, bp)
                    assert got.hex() == check.formula(f, iv, bp).hex(), bp
                    outcomes[check.check_id, "computed"] += 1
                else:
                    with pytest.raises(PreconditionError):
                        evaluate(f, iv, bp)
                    outcomes[check.check_id, "refused"] += 1
            if check.q_from == "conjugate":
                # the q-only tuple has no p for the Hoelder kernel
                with pytest.raises(DomainError, match=check.check_id):
                    evaluate(f, iv, BoundParams(alpha, s, q=2.0))
    # every check both computes and refuses somewhere
    assert len(outcomes) == 2 * len(BOUND_CHECKS)


def test_readme_sweep_makes_parameter_and_interval_work_once(monkeypatch):
    # per README sweep: each check's factors once per distinct parameter
    # tuple, log_beta only there and in the weight rows, and each
    # interval's grid points once
    import fracineq.funclib as funclib_mod
    import fracineq.specfun as specfun_mod

    factors = []
    log_betas = []

    def counting_factors(check):
        def made(bp):
            factors.append((check.check_id, bp))
            return check.factors(bp)
        return check._replace(factors=made)

    def counting_log_beta(real):
        return lambda x, y: log_betas.append((x, y)) or real(x, y)

    monkeypatch.setattr(sweep, "BOUND_CHECKS",
                        tuple(map(counting_factors, BOUND_CHECKS)))
    for module in (specfun_mod, hhbounds):
        monkeypatch.setattr(module, "log_beta",
                            counting_log_beta(module.log_beta))
    config = parse_config_text(README_CONFIG)
    # the catalog certifies each function on its own domain when first built
    funclib_mod._grid_points.cache_clear()
    report = run_sweep(config)
    assert len(report.rows) == 3283
    # 28 (alpha, s) pairs x (1 + 4 p + 3 q + 4 p)
    assert len(factors) == len(set(factors)) == 336
    # 448 for the factors (2, 1, 2 and 1 per tuple), 84 for the weight rows
    assert len(log_betas) <= 532
    # 3 intervals, shared by the 5 channels and 4 sandwich gates of each of
    # the 3 functions
    assert funclib_mod._grid_points.cache_info().misses == 3


def test_sweep_reads_f2_once_per_point_and_only_for_computed_bounds(
        monkeypatch):
    # root_power_0.5 has |f''| infinite at 0, so each of its bound rows is
    # skipped and f'' is never read as a scalar (0.0 ** -1.5 would raise);
    # square reads f'' at a, b and the midpoint once each for all its rows
    reads = Counter()

    def counted(name):
        real = get_function(name)

        def d2(t):
            if not isinstance(t, np.ndarray):
                reads[name, t] += 1
            return real.d2(t)
        return real._replace(d2=d2)

    functions = {name: counted(name) for name in ("root_power_0.5", "square")}
    monkeypatch.setattr(sweep, "get_function", functions.__getitem__)
    config = parse_config_text(README_CONFIG.replace(
        "square cube s_power_0.5", "root_power_0.5 square").replace(
        "0,1 0,2 1,3", "0,1"))
    rows = run_sweep(config).rows
    bounds = {name: [r for r in rows if r.function == name
                     and r.check_id.startswith("bound_")]
              for name in functions}
    assert {r.status for r in bounds["root_power_0.5"]} == {
        "precondition_skipped"}
    assert any(r.rhs is not None for r in bounds["square"])
    assert reads == {("square", 0.0): 1, ("square", 1.0): 1,
                     ("square", 0.5): 1}


# ---------------------------------------------------------------------------
# shared trapezoid defects


def test_readme_sweep_computes_each_defect_once(monkeypatch):
    import fracineq.sweep as sweep_mod

    config = parse_config_text(README_CONFIG)
    computed = Counter()
    calls = []
    real = sweep_mod._defects

    def counting_defects(f, iv, alphas, *args, **kwargs):
        calls.append(alphas)
        computed.update((f.name, iv.a, iv.b, alpha) for alpha in alphas)
        return real(f, iv, alphas, *args, **kwargs)

    monkeypatch.setattr(sweep_mod, "_defects", counting_defects)
    report = run_sweep(config)
    # 3 functions x 3 intervals x 7 alphas, each computed exactly once, in
    # one call per (function, interval) that takes every alpha
    assert len(computed) == 63
    assert set(computed.values()) == {1}
    assert calls == [config.alphas] * 9

    def fresh_lhs(row):
        return trapezoid_defect(get_function(row.function),
                                Interval(row.a, row.b), row.alpha,
                                quad_tol=config.quad_tol).lhs

    identity = [r for r in report.rows
                if r.check_id == "identity" and r.lhs is not None]
    assert identity
    for r in identity:
        assert r.lhs == fresh_lhs(r)
    bounds = [r for r in report.rows
              if r.check_id.startswith("bound_") and r.lhs is not None]
    assert bounds
    for r in bounds:
        assert r.lhs == abs(fresh_lhs(r))


@pytest.mark.parametrize("error, raised, identity_status, bound_status", [
    (lambda: IntegrandError("f'' is not integrable"), False,
     "precondition_skipped", "precondition_skipped"),
    (lambda: AccuracyError("budget exhausted", 0.0, 1.0, 0), False,
     "fail", "fail"),
    # f non-finite at an endpoint: one error for every alpha, raised
    (lambda: IntegrandError("function overflows at an endpoint"), True,
     "precondition_skipped", "precondition_skipped"),
], ids=["integrand_error", "accuracy_error", "endpoint_error"])
def test_failed_defect_is_shared_by_identity_and_bound_rows(
        monkeypatch, error, raised, identity_status, bound_status):
    import fracineq.sweep as sweep_mod

    attempts = Counter()

    def failing_defects(f, iv, alphas, *args, **kwargs):
        attempts.update((f.name, iv.a, iv.b, alpha) for alpha in alphas)
        if raised:
            raise error()
        return 0.0, 0.0, [error() for _ in alphas]

    monkeypatch.setattr(sweep_mod, "_defects", failing_defects)
    cfg = small_config()
    report = run_sweep(cfg)
    assert len(report.rows) == expected_row_count(cfg)
    # 2 functions x 1 interval x 2 alphas, each attempted once
    assert len(attempts) == 4 and set(attempts.values()) == {1}
    identity = [r for r in report.rows if r.check_id == "identity"]
    assert len(identity) == 4
    assert all(r.status == identity_status and r.lhs is None
               for r in identity)
    # |f''| of square is the constant 2: every bound hypothesis certifies
    bounds = [r for r in report.rows if r.check_id.startswith("bound_")
              and r.function == "square"]
    assert bounds
    assert all(r.status == bound_status and r.lhs is None for r in bounds)



@pytest.mark.parametrize("error, identity_status", [
    (lambda: AccuracyError("budget exhausted", 0.0, 1.0, 0), "fail"),
    (lambda: IntegrandError("f'' is not integrable"), "precondition_skipped"),
], ids=["accuracy_error", "integrand_error"])
def test_failed_rhs_is_its_identity_row_alone(monkeypatch, error,
                                              identity_status):
    # the rhs at alpha = 0.5 fails, its defect does not: that identity row
    # records no lhs or rhs, and the bound rows at 0.5 keep their status
    # and their lhs, the defect
    import fracineq.sweep as sweep_mod

    real_rhs = sweep_mod._identity_rhs

    def failing_rhs(f, iv, alphas, quad_tol):
        values = real_rhs(f, iv, alphas, quad_tol)
        return [error() if alpha == 0.5 else v
                for alpha, v in zip(alphas, values)]

    cfg = small_config()
    clean = run_sweep(cfg).rows
    monkeypatch.setattr(sweep_mod, "_identity_rhs", failing_rhs)
    rows = run_sweep(cfg).rows
    assert len(rows) == len(clean)
    changed = [(old, new) for old, new in zip(clean, rows) if old != new]
    assert len(changed) == 2    # square and linear on [0, 1] at 0.5
    for old, new in changed:
        assert (new.check_id, new.alpha) == ("identity", 0.5)
        assert new[:8] == old[:8] and old.status == "pass"
        assert new[8:] == (None, None, None, identity_status)
    bounds = [r for r in rows
              if r.check_id.startswith("bound_") and r.alpha == 0.5]
    assert bounds and all(r.lhs is not None for r in bounds)


def test_every_cell_of_a_sweep_weights_by_the_same_order_rows(monkeypatch):
    # the density and rhs weight rows depend on the orders alone: every
    # (function, interval) of a sweep reads the one cached, read-only pair
    from fracineq import quadrature

    real_rows = quadrature._order_rows
    seen = []

    def spy(alphas):
        rows = real_rows(alphas)
        seen.append((alphas, rows))
        return rows

    monkeypatch.setattr(quadrature, "_order_rows", spy)
    monkeypatch.setattr(hhbounds, "_order_rows", spy)
    cfg = small_config(intervals=(Interval(0.0, 1.0), Interval(1.0, 3.0)))
    run_sweep(cfg)
    # 2 functions x 2 intervals, one defect and one rhs batch each, and
    # the weight rows
    assert len(seen) == 9
    alphas, (density, weights) = seen[0]
    assert alphas == cfg.alphas
    assert all(a == alphas and r[0] is density and r[1] is weights
               for a, r in seen)
    assert not (density.flags.writeable or weights.flags.writeable)


@pytest.mark.parametrize("text", [README_CONFIG, MIXED_CONFIG],
                         ids=["readme", "mixed"])
def test_computed_bound_rows_carry_the_table_formula(text):
    # a bound row combines factors made once per sweep with |f''| read once
    # per cell; its rhs is the entry's closed form bit for bit
    checks = {check.check_id: check for check in BOUND_CHECKS}
    computed = 0
    for r in run_sweep(parse_config_text(text)).rows:
        if r.check_id in checks and r.rhs is not None:
            bp = BoundParams(r.alpha, r.s, p=r.p, q=r.q)
            rhs = checks[r.check_id].formula(get_function(r.function),
                                             Interval(r.a, r.b), bp)
            assert r.rhs.hex() == rhs.hex(), r
            computed += 1
    assert computed > 0


def assert_one_alpha_bits(report: SweepReport, quad_tol: float) -> int:
    """Every computed identity row holds the bits of the one-alpha
    trapezoid_defect and defect_identity_rhs; returns how many rows."""
    identity = [r for r in report.rows
                if r.check_id == "identity" and r.lhs is not None]
    for r in identity:
        f, iv = get_function(r.function), Interval(r.a, r.b)
        lhs = trapezoid_defect(f, iv, r.alpha, quad_tol).lhs
        rhs = defect_identity_rhs(f, iv, r.alpha, quad_tol)
        assert (r.lhs.hex(), r.rhs.hex()) == (lhs.hex(), rhs.hex()), r
    return len(identity)


@pytest.mark.parametrize("text, rows", [
    (README_CONFIG, 63), (IDENTITY_CONFIG, 792), (MIXED_CONFIG, 20),
], ids=["readme", "identity", "mixed"])
def test_identity_rows_hold_the_one_alpha_bits(text, rows):
    config = parse_config_text(text)
    assert assert_one_alpha_bits(run_sweep(config), config.quad_tol) == rows


def test_an_order_that_falls_back_leaves_the_other_orders_alone(
        monkeypatch):
    # square on [1, 3]: the ladder refuses the defect at alpha = 1e5
    # alone, whose Beta(alpha, 1) mass sits within about 1e-5 of u = 1, and
    # that order goes to the adaptive engine
    from fracineq import quadrature

    config = parse_config_text(
        "functions = square\nintervals = 1,3\nalphas = 0.5 1e5 2\n"
        "s_values = 1\np_values = 2\nq_values = 2\n")
    fallbacks = []
    real = quadrature.integrate

    def counting(*args, **kwargs):
        fallbacks.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate", counting)
    plain = run_sweep(config).rows
    assert len(fallbacks) == 1
    assert assert_one_alpha_bits(SweepReport(plain), config.quad_tol) == 3

    def refusing(*args, **kwargs):
        raise AccuracyError("budget exhausted", 0.0, 1.0, 0)

    # the engine refuses that order: its rows fail, and only its rows
    monkeypatch.setattr(quadrature, "integrate", refusing)
    refused = run_sweep(config).rows
    changed = [(p, q) for p, q in zip(plain, refused) if p != q]
    assert {p.check_id for p, _ in changed} >= {"identity", "bound_s_convex"}
    for p, q in changed:
        assert p.alpha == q.alpha == 1e5 and p.lhs is not None
        assert q.status == "fail" and q.lhs is None


def weight_entry(r: SweepRow, slack: float, quad_tol: float):
    """The entry of the one-alpha public call behind the weight row ``r``;
    a parameter its check does not take is set to 1 (p to 2)."""
    report = hhbounds.weight_integral_report(
        1.0 if r.alpha is None else r.alpha, 1.0 if r.s is None else r.s,
        2.0 if r.p is None else r.p, tol=slack, quad_tol=quad_tol)
    return {e.check_id: e for e in report.entries}[r.check_id]


WEIGHT_CHECKS = ("weight_int_power", "weight_int_beta", "weight_int_plain",
                 "holder_kernel_bound")


@pytest.mark.parametrize("text, rows", [
    (README_CONFIG, 88), (IDENTITY_CONFIG, 67), (MIXED_CONFIG, 16),
], ids=["readme", "identity", "mixed"])
def test_weight_rows_hold_the_one_alpha_bits(text, rows):
    # the sweep's batched passes and the public one-alpha calls take one
    # path: each row is summed as if alone
    config = parse_config_text(text)
    weights = [r for r in run_sweep(config).rows if r.check_id in WEIGHT_CHECKS]
    for r in weights:
        e = weight_entry(r, config.slack, config.quad_tol)
        assert (r.lhs.hex(), r.rhs.hex()) == (e.lhs.hex(), e.rhs.hex()), r
        assert r.status == ("pass" if e.holds else
                            "fail" if e.in_validated_range else
                            "out_of_validated_range"), r
    assert len(weights) == rows


@pytest.mark.parametrize("call, row, check_id, alpha, s", [
    (0, 0, "weight_int_power", 0.5, 0.5),
    (1, 3, "weight_int_beta", 2.0, 1.0),
    (0, 4, "weight_int_plain", None, 0.5),
    (2, 1, "holder_kernel_bound", 2.0, None),
], ids=["power", "beta", "plain", "kernel"])
def test_a_weight_row_the_ladder_refuses_alone_goes_to_the_engine(
        monkeypatch, call, row, check_id, alpha, s):
    # passes: s = 0.5 and s = 1 (power and beta rows per alpha, then the
    # plain row), then p = 2 (one kernel row per alpha); the ladder refuses
    # one row of one pass
    from fracineq import quadrature
    from fracineq.quadrature import TanhSinhLadder

    config = parse_config_text(
        "functions = square\nintervals = 0,1\nalphas = 0.5 2\n"
        "s_values = 0.5 1\np_values = 2\nq_values = 2\n")
    clean = _weight_rows(config)
    calls = []
    real_estimate = TanhSinhLadder.estimate

    def refusing(self, values, tols):
        out = real_estimate(self, values, tols)
        if len(calls) == call:
            out[row] = None
        calls.append(len(values))
        return out

    fallbacks = []
    real_integrate = quadrature.integrate

    def counting(*args, **kwargs):
        fallbacks.append(kwargs["abs_tol"])
        return real_integrate(*args, **kwargs)

    def is_target(r: SweepRow) -> bool:
        return (r.check_id, r.alpha, r.s) == (check_id, alpha, s)

    monkeypatch.setattr(TanhSinhLadder, "estimate", refusing)
    monkeypatch.setattr(quadrature, "integrate", counting)
    rows = _weight_rows(config)
    assert calls == [5, 5, 2] and fallbacks == [config.quad_tol]
    (old, new), = [(o, n) for o, n in zip(clean, rows) if is_target(o)]
    assert new[:8] == old[:8] and new.status == old.status
    closed = new.rhs
    if check_id == "holder_kernel_bound":
        # the kernel's rhs is a bound; this is the integral at p = 2
        closed = 1.0 / 3.0 - 2.0 / (alpha + 3.0) + 1.0 / (2.0 * alpha + 3.0)
    assert abs(new.lhs - closed) <= config.quad_tol
    for o, n in zip(clean, rows):
        if not is_target(o):
            assert (o, o.lhs.hex()) == (n, n.lhs.hex())

    def refused(*args, **kwargs):
        raise AccuracyError("budget exhausted", 0.0, 1.0, 0)

    # the engine refuses that row too: it fails, and it alone
    calls.clear()
    monkeypatch.setattr(quadrature, "integrate", refused)
    failed = _weight_rows(config)
    for o, n in zip(clean, failed):
        if is_target(o):
            assert n[:8] == o[:8] and n[8:] == (None, None, None, "fail")
        else:
            assert n == o


@pytest.mark.parametrize("text, calls, means, evals", [
    (README_CONFIG, 18, 9, 651), (IDENTITY_CONFIG, 72, 36, 3276),
], ids=["readme", "identity"])
def test_a_sweep_makes_one_ladder_pass_per_side_of_a_cell(monkeypatch, text,
                                                        calls, means, evals):
    # 9 or 36 (function, interval) cells, one pass for the defects and one
    # for the identity rhs of all alphas; then the weight rows, one pass per
    # s (power and beta rows per alpha, and the plain row) and one per p.
    # No row falls back to the adaptive engine here; its evaluations are
    # the sandwich means' alone, one per cell whatever its number of s
    from fracineq import quadrature
    from fracineq.quadrature import TanhSinhLadder

    config = parse_config_text(text)
    rows = []
    real_estimate = TanhSinhLadder.estimate

    def counting_estimate(self, values, tols):
        rows.append(len(values))
        return real_estimate(self, values, tols)

    spent = []
    real_integrate = hhbounds.integrate

    def counting_integrate(*args, **kwargs):
        result = real_integrate(*args, **kwargs)
        spent.append(result.evaluations)
        return result

    def no_fallback(*args, **kwargs):
        raise AssertionError("a row fell back to the adaptive engine")

    monkeypatch.setattr(TanhSinhLadder, "estimate", counting_estimate)
    monkeypatch.setattr(hhbounds, "integrate", counting_integrate)
    monkeypatch.setattr(quadrature, "integrate", no_fallback)
    run_sweep(config)
    k = len(config.alphas)
    assert rows == ([k] * calls + [2 * k + 1] * len(config.s_values)
                    + [k] * len(config.p_values))
    assert len(spent) == means and sum(spent) == evals


# ---------------------------------------------------------------------------
# orders where the RL normalisation Gamma(alpha+1)/(2(b-a)^alpha) leaves the
# double range: Gamma(alpha+1) overflows above 170.62, and (b-a)^alpha
# overflows on [0,100] and underflows to 0 on [0,0.01]


def square_defect(width: float, alpha: float) -> float:
    # f'' = 2, so the defect identity gives (b-a)^2 alpha/((alpha+1)(alpha+2))
    return width * width * alpha / ((alpha + 1.0) * (alpha + 2.0))


def check_square_identity_rows(csv_text: str) -> None:
    rows = [line.split(",") for line in csv_text.splitlines()[1:]]
    identity = [r for r in rows if r[0] == "identity" and r[1] == "square"]
    assert identity
    for r in identity:
        a, b, alpha, lhs = float(r[2]), float(r[3]), float(r[4]), float(r[8])
        assert r[-1] == "pass"
        assert lhs == pytest.approx(square_defect(b - a, alpha), abs=1e-10)


@pytest.mark.parametrize("interval, alpha", [
    ("0,1", "171"), ("0,1", "200"), ("0,1", "1000"),
    ("0,100", "170"), ("0,0.01", "162"),
])
def test_cli_check_identity_computes_beyond_rl_normalisation_range(interval,
                                                                   alpha):
    proc = run_cli("check-identity", "--function", "square",
                   "--interval", interval, "--alpha", alpha)
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
    lhs = float(re.search(r"defect lhs\s+= (\S+)", proc.stdout).group(1))
    width = float(interval.split(",")[1])
    assert lhs == pytest.approx(square_defect(width, float(alpha)), abs=1e-10)


def test_cli_check_identity_computes_alpha_170():
    proc = run_cli("check-identity", "--function", "square",
                   "--interval", "0,1", "--alpha", "170")
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout


@pytest.mark.parametrize("alphas, intervals", [
    ("0.5 200", "0,1"),
    ("170 0.5", "0,1 0,100"),
    ("0.5 162", "0,1 0,0.01"),
], ids=["gamma_overflow", "width_power_overflow", "width_power_underflow"])
def test_config_accepts_orders_beyond_rl_normalisation_range(alphas,
                                                             intervals):
    text = (GOOD_CONFIG.replace("alphas = 0.5 1", f"alphas = {alphas}")
            .replace("intervals = 0,1", f"intervals = {intervals}"))
    cfg = parse_config_text(text)
    report = run_sweep(cfg._replace(functions=("square",)))
    check_square_identity_rows(render_report(report, "csv").decode())


def test_cli_sweep_computes_alpha_beyond_gamma_range(config_file, tmp_path):
    big = tmp_path / "big.cfg"
    big.write_text(GOOD_CONFIG.replace("alphas = 0.5 1", "alphas = 200"))
    for args in (("--config", str(big)),
                 ("--config", str(config_file), "--alpha", "1",
                  "--alpha", "171"),
                 ("--config", str(config_file), "--interval", "0,100",
                  "--alpha", "170")):
        proc = run_cli("sweep", *args)
        assert proc.returncode == 0, proc.stderr
        check_square_identity_rows(proc.stdout)


def test_narrow_interval_identity_passes():
    # the paper's form of the defect cancels a normalisation of about 3e27
    # against (f(a)+f(b))/2 here and loses 1.4e-8
    text = (GOOD_CONFIG.replace("functions = square linear",
                                "functions = quartic")
            .replace("intervals = 0,1", "intervals = 2,2.000000001")
            .replace("alphas = 0.5 1", "alphas = 3"))
    report = run_sweep(parse_config_text(text))
    identity = [r for r in report.rows if r.check_id == "identity"]
    assert [r.status for r in identity] == ["pass"]
    assert identity[0].lhs == pytest.approx(identity[0].rhs, abs=1e-16)


def test_tiny_alpha_identity_passes():
    # the Beta(1e-5, 1) mass lies within 1e-1000 of u = 0; the adaptive
    # substitution v = u^alpha never sampled where the defect's integrand
    # varies and reported lhs = 0 against rhs = 5.0e-6
    text = (GOOD_CONFIG.replace("functions = square linear",
                                "functions = square")
            .replace("alphas = 0.5 1", "alphas = 1e-5"))
    report = run_sweep(parse_config_text(text))
    identity = [r for r in report.rows if r.check_id == "identity"]
    assert [r.status for r in identity] == ["pass"]
    # (b-a)^2 alpha / ((alpha+1)(alpha+2)) for f'' = 2
    assert identity[0].lhs == pytest.approx(1e-5 / (1.00001 * 2.00001),
                                            abs=1e-15)


# ---------------------------------------------------------------------------
# extreme parameters: computed, or refused with an error, never a traceback


@pytest.mark.parametrize("args, code, text", [
    (("--function", "cube", "--interval", "0,1e300", "--alpha", "1"), 1,
     "overflows at an endpoint"),
    (("--function", "linear", "--interval", "0,1e300", "--alpha", "1"), 2,
     "too wide"),
    (("--function", "square", "--interval", "0,1", "--alpha", "1e308"), 0,
     "PASS"),
    (("--function", "square", "--interval", "0,1", "--alpha",
      "1.7976931348623157e308"), 0, "PASS"),
    (("--function", "square", "--interval", "0,1e-9", "--alpha", "1e308"),
     0, "PASS"),
    # finite ends whose distance overflows: refused by Interval, before
    # any grid is built
    (("--function", "square", "--interval=-1e308,1e308", "--alpha", "1"), 2,
     "too wide"),
])
def test_cli_check_identity_at_extreme_parameters(args, code, text):
    proc = run_cli("check-identity", *args)
    assert proc.returncode == code, proc.stderr
    assert text in proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("override, code, text", [
    (("--interval", "0,1e300"), 2, "intervals[0]"),
    (("--alpha", "1e308"), 2, "alphas[0]"),
    (("--alpha", "1e17"), 0, ""),
])
def test_cli_sweep_at_extreme_parameters(config_file, override, code, text):
    proc = run_cli("sweep", "--config", str(config_file), *override)
    assert proc.returncode == code, proc.stderr
    assert text in proc.stderr
    assert "Traceback" not in proc.stderr


def test_an_interval_whose_length_overflows_is_refused_by_one_rule(
        tmp_path, capsys):
    from fracineq import cli, integrate, left_rl

    reason = "interval [-1e+308, 1e+308] is too wide: its length overflows"
    for call in (lambda: Interval(-1e308, 1e308),
                 lambda: integrate(lambda t: t, (-1e308, 1e308)),
                 lambda: left_rl(lambda t: t, 0.5, -1e308, 1e308)):
        with pytest.raises(DomainError) as exc_info:
            call()
        assert str(exc_info.value) == reason
    wide, good = tmp_path / "wide.cfg", tmp_path / "good.cfg"
    wide.write_text(GOOD_CONFIG.replace("intervals = 0,1",
                                        "intervals = -1e308,1e308"))
    good.write_text(GOOD_CONFIG)
    for args, field in [
        (["sweep", "--config", str(wide)], "intervals[0]"),
        (["sweep", "--config", str(good), "--interval=-1e308,1e308"],
         "intervals[0]"),
        (["check-identity", "--function", "square",
          "--interval=-1e308,1e308", "--alpha", "1"], "--interval"),
    ]:
        assert cli.main(args) == 2, args
        captured = capsys.readouterr()
        assert captured.err == f"config error: {field}: {reason}\n", args
        assert captured.out == ""


@pytest.mark.parametrize("entry, bad, flag, value", [
    ("intervals = 0,1", "intervals = 0,1e300", "--interval", "0,1"),
    ("alphas = 0.5 1", "alphas = -1", "--alpha", "0.5"),
], ids=["interval", "alpha"])
def test_a_flag_replaces_an_invalid_entry_before_the_config_is_judged(
        tmp_path, capsys, entry, bad, flag, value):
    # the flag's tokens replace the file's, so the file's entry is never
    # judged: the run is that of the config written with the flag's value
    from fracineq import cli

    written = f"{entry.split(' = ')[0]} = {value}"
    runs = []
    for text, argv in ((GOOD_CONFIG.replace(entry, bad), [flag, value]),
                       (GOOD_CONFIG.replace(entry, written), [])):
        path = tmp_path / f"sweep{len(runs)}.cfg"
        path.write_text(text)
        out = tmp_path / f"report{len(runs)}.csv"
        code = cli.main(["sweep", "--config", str(path), *argv,
                         "--out", str(out)])
        runs.append((code, capsys.readouterr().err, out.read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][:2] == (0, "")


@pytest.mark.parametrize("argv", [
    [], ["--interval", "0,2"], ["--function", "square", "--format", "json"],
], ids=["no_flag", "interval", "function_format"])
def test_an_invalid_entry_no_flag_replaces_is_refused_before_out_opens(
        tmp_path, capsys, argv):
    from fracineq import cli

    path = tmp_path / "bad.cfg"
    path.write_text(GOOD_CONFIG.replace("alphas = 0.5 1", "alphas = -1"))
    out = tmp_path / "report.csv"
    assert cli.main(["sweep", "--config", str(path), *argv,
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: alphas[0]: fractional order")
    assert captured.out == ""
    assert not out.exists()


# intervals whose certification grid the doubles cannot resolve (the count
# is its distinct points of 1025), or whose (b-a)^2 is no normal double
UNRESOLVED_INTERVALS = [
    ("1e15,1.0000000000000002e15",
     "interval [1000000000000000.0, 1000000000000000.2] is too narrow: its "
     "1025 certification grid points are only 3 distinct doubles"),
    ("5e-324,1e-323",
     "interval [5e-324, 1e-323] is too narrow: its 1025 certification grid "
     "points are only 2 distinct doubles"),
    ("0,5e-324",
     "interval [0.0, 5e-324] is too narrow: its 1025 certification grid "
     "points are only 2 distinct doubles"),
    ("1e-300,2e-300",
     "interval [1e-300, 2e-300] is too narrow: (b-a)^2 = 0.0 is below the "
     "normal doubles"),
    ("1e15,1000000000000100",
     "interval [1000000000000000.0, 1000000000000100.0] is too narrow: its "
     "1025 certification grid points are only 801 distinct doubles"),
]


@pytest.mark.parametrize("token, reason", UNRESOLVED_INTERVALS,
                         ids=[token for token, _ in UNRESOLVED_INTERVALS])
def test_unresolved_interval_is_refused_on_every_path(tmp_path, capsys,
                                                      token, reason):
    from fracineq import cli

    text = GOOD_CONFIG.replace("intervals = 0,1", f"intervals = 0,1 {token}")
    with pytest.raises(ConfigError) as exc_info:
        parse_config_text(text)
    assert str(exc_info.value) == f"intervals[1]: {reason}"
    narrow, good = tmp_path / "narrow.cfg", tmp_path / "good.cfg"
    narrow.write_text(text)
    good.write_text(GOOD_CONFIG)
    for args, field in [
        (["sweep", "--config", str(narrow)], "intervals[1]"),
        (["sweep", "--config", str(good), "--interval", token],
         "intervals[0]"),
        (["check-identity", "--function", "square", "--interval", token,
          "--alpha", "1"], "--interval"),
    ]:
        assert cli.main(args) == 2, args
        captured = capsys.readouterr()
        assert captured.err == f"config error: {field}: {reason}\n", args
        assert captured.out == ""


@pytest.mark.parametrize("token", [
    "0,1e-9", "1e6,1000001", "3,1e6", "0,1e6",
    # the smallest interval of the invariance oracle's k-scalings, 2^-17
    "0,7.62939453125e-06",
])
def test_resolved_intervals_keep_every_grid_point_and_are_computed(
        capsys, token):
    from fracineq import cli

    text = GOOD_CONFIG.replace("intervals = 0,1", f"intervals = {token}")
    (iv,) = parse_config_text(text).intervals
    _check_resolvable(iv)
    points = _grid_points(float(iv.a).hex(), float(iv.b).hex())
    assert np.unique(points).size == 1025
    assert (iv.b - iv.a) ** 2 >= sys.float_info.min
    # computed: a pass, or a fail of the values (rounding on the wide
    # intervals, the engine's budget on [1e6, 1e6+1]), never a refusal
    code = cli.main(["check-identity", "--function", "square", "--interval",
                     token, "--alpha", "1"])
    assert code in (0, 1)
    assert not capsys.readouterr().err.startswith("config error")


def test_resolvable_leaves_an_overflowing_width_to_its_own_refusal():
    # (b-a)^2 overflows: the sweep refuses it as too wide, and
    # check-identity exits 1 on cube's overflow at b, as before
    # (test_cli_check_identity_at_extreme_parameters)
    for token in ("0,1e300", "-1e300,1e300"):
        _check_resolvable(Interval.parse(token))


def test_power_mean_rows_pass_where_alpha_times_width_overflows():
    # alpha (b-a)^2 = 1e350 overflows although the lead alpha (b-a)^2 /
    # (4 (alpha+1)(alpha+2)) = 2.5e49 does not; the rows were NaN (fail)
    # for f'' = 0 and inf otherwise.  Only f'' = 0 makes lhs = 0 exact:
    # the computed lhs of square is not trusted at this alpha, so its
    # status is left unasserted
    text = (GOOD_CONFIG.replace("square linear", "linear const_one square")
            .replace("intervals = 0,1", "intervals = 0,1e100")
            .replace("alphas = 0.5 1", "alphas = 1e150")
            .replace("q_values = 1", "q_values = 1 2"))
    rows = [r for r in run_sweep(parse_config_text(text)).rows
            if r.check_id == "bound_power_mean"]
    assert len(rows) == 6
    assert all(r.status == "pass" and r.rhs == 0.0 for r in rows
               if r.function != "square")
    assert [r.rhs for r in rows if r.function == "square"] == [
        pytest.approx(2.5e49 * 4.0, rel=1e-12)] * 2


def test_one_row_sweep_at_alpha_1e17_passes():
    # beta(alpha+2, 2) cancelled to about 1 here: the weight identity
    # failed and bound_power_mean at q = 2 was complex, so building its row
    # raised TypeError
    text = (GOOD_CONFIG.replace("functions = square linear",
                                "functions = square")
            .replace("alphas = 0.5 1", "alphas = 1e17")
            .replace("q_values = 1", "q_values = 2"))
    report = run_sweep(parse_config_text(text))
    statuses = Counter(r.status for r in report.rows)
    assert statuses["fail"] == 0
    bounds = [r for r in report.rows if r.check_id.startswith("bound_")]
    assert bounds and all(isinstance(r.rhs, float) and r.rhs > 0.0
                          for r in bounds)
