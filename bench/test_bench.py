"""Tests of the benchmark harness itself (stdlib unittest).

    python3 -m unittest discover -s bench -t bench
"""

from __future__ import annotations

import json
import sys
import unittest
import unittest.mock
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import fracineq  # noqa: E402
from run import (END_TO_END, PER_LAYER, REF_CPU_S, Speed,  # noqa: E402
                 Sweep, is_work_counter, layer_unit, tail)
from tracer import Tracer  # noqa: E402

SMALL = """functions = square s_power_0.5
intervals = 0,1 1,3
alphas = 0.25 2
s_values = 0.5 1
p_values = 2
q_values = 1
seed = 3
"""


def small_report(fmt: str) -> bytes:
    config = fracineq.parse_config_text(SMALL + f"format = {fmt}\n")
    return fracineq.render_report(fracineq.run_sweep(config), fmt)


class TracedRunTest(unittest.TestCase):
    def test_traced_report_bytes_equal_untraced(self):
        for fmt in ("csv", "json"):
            plain = small_report(fmt)
            with Tracer():
                traced = small_report(fmt)
            self.assertEqual(plain, traced, fmt)

    def test_two_traced_runs_repeat_work_counters(self):
        work = []
        for _ in range(2):
            with Tracer() as tracer:
                small_report("csv")
            work.append({k: v for k, v in tracer.summary().items()
                         if is_work_counter(k)})
        self.assertEqual(work[0], work[1])
        for key in ("quadrature.evals", "funclib.cert_triples",
                    "quadrature.calls", "funclib.calls", "hhbounds.calls",
                    "sweep.calls"):
            self.assertGreater(work[0][key], 0, key)

    def test_uninstall_restores_the_package(self):
        before = fracineq.sweep.certify_s_convex
        with Tracer():
            self.assertIsNot(fracineq.sweep.certify_s_convex, before)
        self.assertIs(fracineq.sweep.certify_s_convex, before)

    def test_self_time_excludes_child_spans(self):
        tracer = Tracer()
        tracer.spans[:] = [["sweep", "run_sweep", 0.0, 10.0, -1],
                           ["funclib", "certify_s_convex", 2.0, 5.0, 0],
                           ["funclib", "certify_s_convex", 6.0, 7.0, 0]]
        summary = tracer.summary()
        self.assertEqual(summary["sweep.self_s"], 6.0)
        self.assertEqual(summary["funclib.self_s"], 4.0)
        self.assertEqual(summary["funclib.cert_calls"], 2)


class OutputCheckTest(unittest.TestCase):
    def sweep(self, fmt: str, tally: dict) -> Sweep:
        sweep = Sweep("readme_sweep.cfg", tally, tail_pct=50)
        sweep.format, sweep.slack = fmt, 1e-8
        return sweep

    def test_fail_rows_count_against_the_expected_tally(self):
        header = (b"check_id,function,a,b,alpha,s,p,q,lhs,rhs,"
                  b"slack_measured,status\n")
        good = b"bound_holder,square,0,1,,,,,1,2,1,pass\n"
        bad = b"bound_holder,square,0,1,,,,,2,1,-1,fail\n"
        sweep = self.sweep("csv", {"pass": 2})
        self.assertEqual(sweep.check(header + good + good), 0)
        self.assertEqual(sweep.check(header + good + bad), 1)
        self.assertEqual(sweep.check(header + good), 1)

    def test_identity_rows_must_meet_the_slack(self):
        rows = [{"check_id": "identity", "lhs": 1.0, "rhs": 1.0 + 1e-6,
                 "status": "pass"},
                {"check_id": "identity", "lhs": None, "rhs": None,
                 "status": "precondition_skipped"}]
        sweep = self.sweep("json", {"pass": 1, "precondition_skipped": 1})
        self.assertEqual(sweep.check(json.dumps(rows).encode()), 1)


class MetricsTest(unittest.TestCase):
    def test_tail_percentile_and_samples_above(self):
        samples = [float(v) for v in range(1, 42)]
        self.assertEqual(tail(samples, 75), (31.0, 10))
        self.assertEqual(tail([3.0, 1.0, 2.0], 50), (2.0, 1))

    def test_speed_scale_uses_the_loop_times_around_a_measurement(self):
        loops = iter([0.5, 0.3, 0.1])
        with unittest.mock.patch("run.reference_cpu", lambda: next(loops)):
            speed = Speed()
            self.assertAlmostEqual(speed.scale(), REF_CPU_S / 0.4)
            self.assertAlmostEqual(speed.scale(), REF_CPU_S / 0.2)

    def test_benchmark_file_matches_the_harness(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         END_TO_END)
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         list(PER_LAYER))
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], layer_unit(m["name"]), m["name"])


if __name__ == "__main__":
    unittest.main()
