"""Sweep configuration, report semantics, rendering, and the CLI contract."""

import csv
import dataclasses
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
    IntegrandError,
    PreconditionError,
    certify_s_concave,
    certify_s_convex,
    get_function,
    parse_config_text,
    render_report,
    run_sweep,
)
from fracineq.sweep import (
    _PROBE_COUNT,
    BOUND_CHECKS,
    CSV_HEADER,
    SweepConfig,
    SweepReport,
    SweepRow,
    _Certifier,
)
from fracineq.funclib import (
    ConvexityClass,
    TestFunction,
    abs_d2,
    cert_grid,
    grid_verdicts,
)
from fracineq.hhbounds import (
    BoundParams,
    defect_bound_holder,
    defect_bound_power_mean,
    defect_bound_s_concave,
    defect_bound_s_convex,
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
        from dataclasses import replace
        cfg = replace(cfg, **overrides)
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
    ("functions = nosuch", "functions"),
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


def test_probes_match_scalar_loop():
    # reference: one batch per channel, drawn from the seed and the
    # channel's key, read with one scalar call per point and judged at
    # every s in both directions; a verdict holds where the grid and the
    # batch both pass
    def probes_ok_loop(seed, fn, domain, s, concave, key):
        rng = np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(key.encode())])
        x = rng.uniform(domain.a, domain.b, _PROBE_COUNT)
        y = rng.uniform(domain.a, domain.b, _PROBE_COUNT)
        lam = rng.uniform(0.0, 1.0, _PROBE_COUNT)
        fx = np.asarray([fn(float(v)) for v in x], dtype=float)
        fy = np.asarray([fn(float(v)) for v in y], dtype=float)
        fm = np.asarray([fn(float(lam[i] * x[i] + (1.0 - lam[i]) * y[i]))
                         for i in range(_PROBE_COUNT)], dtype=float)
        combo = lam ** s * fx + (1.0 - lam) ** s * fy
        if concave:
            return bool(np.all(fm >= combo - 1e-12))
        return bool(np.all(fm <= combo + 1e-12))

    seed, s_values = 7, (0.25, 1.0)
    certifier = _Certifier(seed=seed, s_values=s_values)
    bumped = bumped_square()
    channels = [*readme_channels(),
                ("bumped_square f", bumped.fn, bumped.natural_domain)]
    by_probes = 0
    for label, fn, iv in channels:
        verdicts = certifier._channel_verdicts(fn, iv, label)
        grid = cert_grid(fn, iv)
        for s in s_values:
            on_grid = grid_verdicts(grid, s)
            for concave in (False, True):
                at_probes = probes_ok_loop(seed, fn, iv, s, concave, label)
                assert verdicts[(s, concave)] == (
                    on_grid[concave] and at_probes), (label, s, concave)
                by_probes += on_grid[concave] and not at_probes
    # the bumped square is rejected by its probes alone
    assert by_probes > 0


@pytest.mark.parametrize("seed", [0, 1, 7, 20261017])
def test_probes_reject_between_grid_points_for_that_s_and_direction(seed):
    f = bumped_square()
    iv = f.natural_domain
    s_values = (0.25, 0.5, 1.0)
    grid = cert_grid(f.fn, iv)
    assert [grid_verdicts(grid, s) for s in s_values] == [(True, False)] * 3
    certifier = _Certifier(seed=seed, s_values=s_values)
    verdicts = {(s, concave): certifier.check(f, "f", iv, s, None, concave)
                for s in s_values for concave in (False, True)}
    # only s-convexity at s = 1 is lost; the smaller s keep their larger
    # margin, and s-concavity was refused by the grid already
    assert verdicts == {(0.25, False): True, (0.25, True): False,
                        (0.5, False): True, (0.5, True): False,
                        (1.0, False): False, (1.0, True): False}
    assert certify_s_convex(f.fn, iv, 1.0).passed


def test_readme_sweep_builds_one_grid_per_channel(monkeypatch):
    import fracineq.sweep as sweep_mod

    built = []
    real = sweep_mod.cert_grid

    def counting_cert_grid(fn, domain, *args, **kwargs):
        built.append((domain.a, domain.b))
        return real(fn, domain, *args, **kwargs)

    drawn = []
    real_batch = sweep_mod._probe_batch

    def counting_probe_batch(fn, x, y, lam):
        drawn.append(len(x))
        return real_batch(fn, x, y, lam)

    monkeypatch.setattr(sweep_mod, "cert_grid", counting_cert_grid)
    monkeypatch.setattr(sweep_mod, "_probe_batch", counting_probe_batch)
    report = run_sweep(parse_config_text(README_CONFIG))
    # 3 functions x 3 intervals x (f, |f''|, |f''|^q for the 4 distinct
    # q other than 1): |f''|^1 is the |f''| channel, so 54, not 63
    assert len(built) == 54
    assert drawn == [_PROBE_COUNT] * 54
    assert len(report.rows) == 3283


@pytest.mark.parametrize("seed", [0, 1, 7, 20261017])
def test_readme_sweep_keeps_its_results_across_seeds(seed):
    # the seed moves only the probe triples; no probe rejects a channel of
    # the README config, so every seed gives the same report
    base = run_sweep(parse_config_text(README_CONFIG))
    config = dataclasses.replace(parse_config_text(README_CONFIG), seed=seed)
    report = run_sweep(config)
    assert Counter(r.status for r in report.rows) == {
        "pass": 1813, "precondition_skipped": 987,
        "out_of_validated_range": 483}
    for fmt in ("csv", "json"):
        assert render_report(report, fmt) == render_report(base, fmt), fmt


# each bound row's evaluator, certifying its own hypothesis, by check id
GATED_EVALUATORS = {
    "bound_s_convex": lambda f, iv, r: defect_bound_s_convex(
        f, iv, r.alpha, r.s, certify=True),
    "bound_holder": lambda f, iv, r: defect_bound_holder(
        f, iv, BoundParams(r.alpha, r.s, p=r.p), certify=True),
    "bound_power_mean": lambda f, iv, r: defect_bound_power_mean(
        f, iv, r.alpha, r.s, r.q, certify=True),
    "bound_s_concave": lambda f, iv, r: defect_bound_s_concave(
        f, iv, BoundParams(r.alpha, r.s, p=r.p), certify=True),
}


def test_evaluator_gates_agree_with_the_sweep():
    # the sweep certifies each hypothesis from its check table and calls
    # the evaluators with certify=False; their own gate must certify the
    # same channel in the same direction.  The sweep's probes may reject
    # more than the grid does, never less.
    config = dataclasses.replace(parse_config_text(README_CONFIG),
                                 alphas=(0.5, 2.0))
    rows = [r for r in run_sweep(config).rows
            if r.check_id in GATED_EVALUATORS]
    assert len(rows) == 3 * 3 * 2 * 4 * (1 + 4 + 3 + 4)
    table = {check.check_id: check for check in BOUND_CHECKS}
    refused = Counter()
    for r in rows:
        evaluate = GATED_EVALUATORS[r.check_id]
        f, iv = get_function(r.function), Interval(r.a, r.b)
        # the table's channel: |f''| for bound_s_convex (q is None there),
        # |f''|^q otherwise
        certify = (certify_s_concave if table[r.check_id].concave
                   else certify_s_convex)
        grid_ok = certify(abs_d2(f, r.q), iv, r.s).passed
        if r.status != "precondition_skipped":
            assert grid_ok, r
            assert evaluate(f, iv, r) == r.rhs, r
        elif grid_ok:
            # rejected by the sweep's probes alone
            assert math.isfinite(evaluate(f, iv, r)), r
        else:
            with pytest.raises(PreconditionError):
                evaluate(f, iv, r)
            refused[r.check_id] += 1
    # the gate refuses somewhere for every check
    assert set(refused) == set(GATED_EVALUATORS)


# ---------------------------------------------------------------------------
# shared trapezoid defects


def test_readme_sweep_computes_each_defect_once(monkeypatch):
    import fracineq.sweep as sweep_mod

    config = parse_config_text(README_CONFIG)
    computed = Counter()
    real = sweep_mod.trapezoid_defect

    def counting_defect(f, iv, alpha, *args, **kwargs):
        computed[(f.name, iv.a, iv.b, alpha)] += 1
        return real(f, iv, alpha, *args, **kwargs)

    monkeypatch.setattr(sweep_mod, "trapezoid_defect", counting_defect)
    report = run_sweep(config)
    # 3 functions x 3 intervals x 7 alphas, each computed exactly once
    assert len(computed) == 63
    assert set(computed.values()) == {1}

    def fresh_lhs(row):
        return real(get_function(row.function), Interval(row.a, row.b),
                    row.alpha, quad_tol=config.quad_tol).lhs

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


@pytest.mark.parametrize("error, identity_status, bound_status", [
    (lambda: IntegrandError("f'' is not integrable"),
     "precondition_skipped", "precondition_skipped"),
    (lambda: AccuracyError("budget exhausted", 0.0, 1.0, 0),
     "fail", "fail"),
], ids=["integrand_error", "accuracy_error"])
def test_failed_defect_is_shared_by_identity_and_bound_rows(
        monkeypatch, error, identity_status, bound_status):
    import fracineq.sweep as sweep_mod

    attempts = Counter()

    def failing_defect(f, iv, alpha, *args, **kwargs):
        attempts[(f.name, iv.a, iv.b, alpha)] += 1
        raise error()

    monkeypatch.setattr(sweep_mod, "trapezoid_defect", failing_defect)
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
    from dataclasses import replace

    text = (GOOD_CONFIG.replace("alphas = 0.5 1", f"alphas = {alphas}")
            .replace("intervals = 0,1", f"intervals = {intervals}"))
    cfg = parse_config_text(text)
    report = run_sweep(replace(cfg, functions=("square",)))
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
