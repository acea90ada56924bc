"""Sweep configuration, report semantics, rendering, and the CLI contract."""

import csv
import hashlib
import io
import json
import math
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
    _verdicts,
    _weight_rows,
)
from fracineq.funclib import (
    ConvexityClass,
    TestFunction,
    abs_d2,
    catalog_names,
    cert_grid,
    channel_verdicts,
    grid_verdicts,
)
from fracineq.hhbounds import (
    BOUND_CHECKS,
    BoundParams,
    defect_bound_holder,
    defect_bound_power_mean,
    defect_bound_s_concave,
    defect_bound_s_convex,
    defect_identity_rhs,
    trapezoid_defect,
)
from fracineq.quadrature import Interval

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
    # a repeated function, interval or order gives its rows once per
    # entry, each as computed for the deduplicated config
    text = ("functions = square square\nintervals = 0,1 0,1 1,3\n"
            "alphas = 0.5 2 0.5\ns_values = 1\np_values = 2\n"
            "q_values = 2\n")
    repeated = parse_config_text(text)
    report = run_sweep(repeated)
    unique = run_sweep(repeated._replace(
        functions=("square",),
        intervals=(Interval(0.0, 1.0), Interval(1.0, 3.0)),
        alphas=(0.5, 2.0)))

    def multiplicity(r: SweepRow) -> int:
        n = repeated.alphas.count(r.alpha) if r.alpha is not None else 1
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
    # run_sweep sorts on the raw key columns, which needs this
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


@pytest.mark.parametrize("rows", RENDER_CASES.values(), ids=RENDER_CASES)
def test_render_csv_matches_csv_writer(rows):
    report = SweepReport(rows=rows)
    assert render_report(report, "csv") == csv_reference(rows)


def test_renderers_match_the_stdlib_on_the_readme_sweep():
    report = run_sweep(parse_config_text(README_CONFIG))
    assert render_report(report, "csv") == csv_reference(report.rows)
    assert render_report(report, "json") == json_reference(report.rows)


@pytest.mark.parametrize("fmt, formatter, memoised",
                         [("csv", "_csv_text", lambda v: True),
                          ("json", "_json_float", lambda v: type(v) is float)])
def test_renderers_format_each_distinct_value_once(monkeypatch, fmt,
                                                    formatter, memoised):
    # ±0 are one dict key with two texts, made once per render; every
    # other distinct value is formatted once per report
    report = run_sweep(parse_config_text(README_CONFIG))
    cells = [v for r in (CSV_HEADER, *report.rows) for v in r if memoised(v)]
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
        grid = cert_grid(fn, iv)
        for s in s_values:
            convex, concave = grid_verdicts(grid, s)
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
        assert np.array_equal(grid.f_half,
                              f_mix[:, :, :17].transpose(2, 0, 1)), label
        # the other half is the mirror (i, j, k) -> (j, i, n-1-k)
        assert np.array_equal(f_mix,
                              f_mix.transpose(1, 0, 2)[:, :, ::-1]), label
        for s in s_values:
            combo = (lam ** s * fx[:, None, None]
                     + (1.0 - lam) ** s * fx[None, :, None])
            assert grid_verdicts(grid, s) == (
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
        grid = cert_grid(fn, iv)
        for s in s_values:
            on_grid = grid_verdicts(grid, s)
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
    assert _verdicts(small_config(), f, "abs_d2", f.natural_domain) == {}


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
def test_probes_reject_between_grid_points_for_that_s_and_direction(seed):
    f = bumped_square()
    iv = f.natural_domain
    s_values = (0.25, 0.5, 1.0)
    grid = cert_grid(f.fn, iv)
    assert [grid_verdicts(grid, s) for s in s_values] == [(True, False)] * 3
    verdicts = _verdicts(small_config(s_values=s_values, seed=seed), f, "f",
                         iv)
    # only s-convexity at s = 1 is lost; the smaller s keep their larger
    # margin, and s-concavity was refused by the grid already
    assert verdicts == {(0.25, False): True, (0.25, True): False,
                        (0.5, False): True, (0.5, True): False,
                        (1.0, False): False, (1.0, True): False}
    assert certify_s_convex(f.fn, iv, 1.0).passed


@pytest.mark.parametrize("channel, q, key_channel", [
    ("f", None, "f"), ("abs_d2", None, "abs_d2"), ("abs_d2", 2.0, "abs_d2_pow"),
])
def test_each_channel_draws_its_probes_from_the_seed_and_its_key(
        monkeypatch, channel, q, key_channel):
    # the probe seed is crc32(repr((function, channel, a, b, q))), so a
    # channel's probes do not depend on which cell or row asks first
    drawn = []
    monkeypatch.setattr(sweep, "channel_verdicts",
                        lambda fn, iv, s_values, *xyl: drawn.append(xyl))
    f, iv, seed = get_function("cube"), Interval(1.0, 3.0), 20261017
    _verdicts(small_config(seed=seed), f, channel, iv, q)
    key = repr((f.name, key_channel, iv.a, iv.b, q))
    (got,) = drawn
    for have, want in zip(got, probe_draw(seed, iv, key)):
        assert have.tobytes() == want.tobytes()


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

    def counting_channel_verdicts(fn, domain, s_values, x, y, lam):
        before = len(built)
        verdicts = real_verdicts(fn, domain, s_values, x, y, lam)
        # (probe triples, grids built) per channel
        drawn.append((len(x), len(y), len(lam), len(built) - before))
        return verdicts

    monkeypatch.setattr(funclib_mod, "cert_grid", counting_cert_grid)
    monkeypatch.setattr(sweep_mod, "channel_verdicts",
                        counting_channel_verdicts)
    report = run_sweep(parse_config_text(README_CONFIG))
    # 3 functions x 3 intervals x (f, |f''|, |f''|^q for the 4 distinct
    # q other than 1): |f''|^1 is the |f''| channel, so 54, not 63
    assert drawn == [(_PROBE_COUNT,) * 3 + (1,)] * 54
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
    """The arguments (fn, domain, s_values, x, y, lam) of every
    channel_verdicts call a sweep of ``config`` makes, with nothing past
    the certifier computed: every defect, sandwich and weight row is
    stubbed out."""
    calls = []
    real = sweep.channel_verdicts

    def recording(*args):
        calls.append(args)
        return real(*args)

    def no_defect(*args):
        raise IntegrandError("not computed")

    def no_sandwich(*args, **kwargs):
        raise PreconditionError("not computed")

    with monkeypatch.context() as patch:
        patch.setattr(sweep, "channel_verdicts", recording)
        patch.setattr(sweep, "_defects", no_defect)
        patch.setattr(sweep, "_identity_rhs", no_defect)
        patch.setattr(sweep, "s_convex_sandwich", no_sandwich)
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
    for fn, iv, s_list, x, y, lam in calls:
        del judged[:]
        verdicts = channel_verdicts(fn, iv, s_list, x, y, lam)
        assert len(judged) <= len(set(s_list))
        merged = {}
        for s in s_list:
            merged.update(channel_verdicts(fn, iv, (s,), x, y, lam))
        assert list(verdicts.items()) == list(merged.items()), iv


@pytest.mark.parametrize("text, channels, judged", [
    (README_CONFIG, 54, 88), (IDENTITY_CONFIG, 108, 108),
], ids=["readme", "identity"])
def test_sweep_judges_each_channel_from_the_largest_s_down(
        monkeypatch, text, channels, judged):
    # s-evaluations (one grid combination each) per sweep: the channels'
    # and, apart from them, the 36 sandwich certifications'
    import fracineq.funclib as funclib_mod

    count = Counter()
    real_combination = funclib_mod._grid_combination

    def counting_combination(grid, weights):
        count["combinations"] += 1
        return real_combination(grid, weights)

    real_verdicts = sweep.channel_verdicts

    def counting_verdicts(*args):
        before = count["combinations"]
        verdicts = real_verdicts(*args)
        count["channels"] += 1
        count["judged"] += count["combinations"] - before
        return verdicts

    monkeypatch.setattr(funclib_mod, "_grid_combination",
                        counting_combination)
    monkeypatch.setattr(sweep, "channel_verdicts", counting_verdicts)
    run_sweep(parse_config_text(text))
    assert count == {"channels": channels, "judged": judged,
                     "combinations": judged + 36}


# the full SHA-256 of the README and identity reports, which do not depend
# on the seed
REPORT_DIGESTS = {
    ("readme", "csv"):
        "93531ef3341f38527ecb27ede333a515872673ec39413ef04d71c54ed91a02c0",
    ("readme", "json"):
        "60e1dd09ba791759887cb111ffe873ebf53b1312a4516d48f1861d54c6b291a3",
    ("identity", "csv"):
        "2e97214e7192530c4f4d32af57c3ccddb2022e48817b14ce77475c75d23e3495",
    ("identity", "json"):
        "79db5fa5258b562e823e21941fdce912b808caaa1480cc42cb2edd4a8404c1a0",
}


@pytest.mark.parametrize("seed", [0, 1, 7, 20261017])
@pytest.mark.parametrize("name, text", [("readme", README_CONFIG),
                                        ("identity", IDENTITY_CONFIG)])
def test_reports_keep_their_pinned_digests(name, text, seed):
    config = parse_config_text(text)._replace(seed=seed)
    report = run_sweep(config)
    for fmt in ("csv", "json"):
        digest = hashlib.sha256(render_report(report, fmt)).hexdigest()
        assert digest == REPORT_DIGESTS[name, fmt], fmt


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
    # 3 intervals, shared by the 6 channels and 4 sandwich gates of each of
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
    """The one-alpha public call behind the weight row ``r``."""
    tols = dict(tol=slack, quad_tol=quad_tol)
    if r.check_id == "weight_int_plain":
        return hhbounds.weight_int_plain(r.s, **tols)
    if r.check_id == "holder_kernel_bound":
        return hhbounds.holder_kernel_bound(r.alpha, r.p, **tols)
    return getattr(hhbounds, r.check_id)(r.alpha, r.s, **tols)


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


@pytest.mark.parametrize("text, calls, evals", [
    (README_CONFIG, 18, 2604), (IDENTITY_CONFIG, 72, 3276),
], ids=["readme", "identity"])
def test_a_sweep_makes_one_ladder_pass_per_side_of_a_cell(monkeypatch, text,
                                                        calls, evals):
    # 9 or 36 (function, interval) cells, one pass for the defects and one
    # for the identity rhs of all alphas; then the weight rows, one pass per
    # s (power and beta rows per alpha, and the plain row) and one per p.
    # No row falls back to the adaptive engine here; its evaluations are
    # the 36 sandwich means' alone
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
    assert len(spent) == 36 and sum(spent) == evals


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
