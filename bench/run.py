#!/usr/bin/env python3
"""fracineq benchmark: end-to-end metrics per workload, per-layer metrics
from a separate traced run.

Run from the root of a fracineq checkout (stdlib only, no network):

    python3 bench/run.py --workload readme_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1   # all workloads, both modes

Workloads (BENCHMARK.json says why each was chosen):

* ``readme_sweep``   the README example config as CSV, in this process.
* ``identity_sweep`` all 9 builtin functions x 22 alphas as JSON, in this
  process.
* ``cli_oneshot``    one client in a closed loop: fresh ``python -m
  fracineq check-identity|certify`` processes, one at a time, in rounds of
  one call of each command per builtin function, in an order and with
  arguments drawn from the seed.

A request is one sweep (parse the config, run, render) or one CLI
invocation.  After one untimed warm-up request the run repeats requests
for ``--seconds`` (and at least ``MIN_REQUESTS`` times) and reports
per-request medians; fresh-process set-up probes run between requests.
For sweeps the seed becomes the config ``seed``, which drives the
certification probes.

The gated end-to-end times are CPU times at reference speed.  On a shared
2-core virtual machine the speed of the guest's CPU swings by up to 2x
within seconds, and CPU time swings with it (a README sweep took 0.33 to
0.65 s of CPU within one minute).  So the whole run is pinned to one CPU,
a fixed reference process (bench/refloop.py: interpreter start and a
pure-Python loop, no fracineq code) runs before and after every
measurement, and each measured CPU time is scaled by ``REF_CPU_S`` over the
mean CPU time of the two reference processes around it.  The result is the
CPU time the measurement would take on a machine that runs the reference
process in ``REF_CPU_S``.  In three minutes of README sweeps, the median
of 25 consecutive requests varied by 15% (interquartile range over median)
raw and by 4% scaled; for CLI calls, by 21% and 2%.  A change to fracineq
moves the scaled time by the same share as the raw one.  Raw CPU and
wall-clock figures (``cpu_s``, ``wall_s``, ``ops_per_s``, ...) are printed
as advisory lines.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced requests with traced ones (bench/tracer.py) and prints the
per-layer metrics: counts are means per request (ratios are taken of those
means), times are per-request medians (raw, not scaled), and
``trace.overhead_frac`` is the traced median scaled CPU time over the
untraced one, minus 1.  Every request's
output is checked; a traced request must produce the bytes its untraced
twin produced and the same work counters as every earlier traced request
of the same job.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same metrics as a table, the run environment and the report
SHA-256 digests (advisory: a quadrature fix may legitimately change digits).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

from probe import TRACE_MARK
from tracer import Tracer, add_ratios

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Never used while tuning the benchmark or a change; kept for confirming a
# claimed gain on fresh inputs.
HELD_OUT_SEED = 20261017

SETUP_CHILDREN = 21       # fresh processes timed for setup_s, after a warm-up
INTERP_CHILDREN = 7       # bare interpreter starts timed for cli.interp_s
TAIL_BEYOND = 10          # samples a tail percentile needs above it
MIN_REQUESTS = 2 * TAIL_BEYOND + 1    # per untraced run, for the tails
MIN_TRACED = 3                        # per traced run

# CPU time of the reference process (refloop.py) on the machine the scaled
# times refer to: the fast state of a shared 2-core x86 virtual machine
# (Xeon, 2.0 GHz), where it took 0.044-0.056 s (0.07 s median, 0.14 s at
# most).  It only sets the unit of the scaled times.
REF_CPU_S = 0.05

END_TO_END = {"cpu_ref_s": "s", "cpu_ref_tail_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = (
    "quadrature.calls", "quadrature.evals", "quadrature.evals_per_call",
    "quadrature.self_s", "quadrature.accuracy_errors",
    "fracint.calls", "fracint.self_s", "specfun.calls", "specfun.self_s",
    "funclib.calls", "funclib.cert_calls", "funclib.cert_triples",
    "funclib.cert_pass_ratio", "funclib.self_s", "funclib.catalog_s",
    "hhbounds.calls", "hhbounds.self_s", "hhbounds.weight_report_calls",
    "hhbounds.weight_report_s",
    "sweep.calls", "sweep.self_s", "sweep.render_s", "sweep.render_bytes",
    "sweep.parse_s",
    "cli.interp_s", "cli.import_s", "trace.overhead_frac",
)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def is_work_counter(name: str) -> bool:
    """Counters a traced request must repeat exactly."""
    return name.endswith(".calls") or name in ("quadrature.evals",
                                               "funclib.cert_triples")


@dataclass
class Child:
    code: int
    out: bytes
    wall: float
    cpu: float
    rss_mb: float


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_child(args: list[str]) -> Child:
    """Run one Python child to completion; its own CPU and peak RSS come
    from wait4."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


def reference_cpu() -> float:
    """CPU time of one run of the reference process."""
    child = run_child([str(BENCH / "refloop.py")])
    if child.code != 0:
        raise RuntimeError("reference process failed:\n"
                           + child.out.decode())
    return child.cpu


class Speed:
    """The reference process, run between measurements.  ``scale()``,
    called right after a measurement, runs it once more and returns
    REF_CPU_S over the mean of its CPU times just before and just after
    that measurement; a CPU time times it is a CPU time at reference
    speed."""

    def __init__(self):
        self.last = reference_cpu()

    def scale(self) -> float:
        before, self.last = self.last, reference_cpu()
        return REF_CPU_S * 2.0 / (before + self.last)


@dataclass
class Request:
    job: tuple
    wall: float
    cpu: float
    rss_mb: float
    digest: str       # SHA-256 of the report or of the CLI output
    failed: int
    trace: dict | None = None
    ref_cpu: float = 0.0  # cpu at reference speed, set by run_requests


class Sweep:
    """A sweep config run in this process; a row is one operation."""

    def __init__(self, config: str, tally: dict[str, int], tail_pct: int):
        self.config = BENCH / config
        self.tally = Counter(tally)
        self.ops = sum(tally.values())
        self.tail_pct = tail_pct

    def prepare(self, seed: int) -> None:
        import fracineq
        self.fracineq = fracineq
        self.text = self.config.read_text() + f"seed = {seed}\n"
        config = fracineq.parse_config_text(self.text)
        self.format, self.slack = config.output_format, config.slack

    def jobs(self, seed: int):
        while True:
            yield ("sweep",)

    def request(self, job: tuple, traced: bool) -> Request:
        fi = self.fracineq
        tracer = Tracer().install() if traced else None
        try:
            c0, t0 = process_time(), perf_counter()
            config = fi.parse_config_text(self.text)
            data = fi.render_report(fi.run_sweep(config), config.output_format)
            wall, cpu = perf_counter() - t0, process_time() - c0
        except Exception:
            traceback.print_exc()
            return Request(job, 0.0, 0.0, 0.0, "", self.ops)
        finally:
            if tracer:
                tracer.uninstall()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return Request(job, wall, cpu, rss, hashlib.sha256(data).hexdigest(),
                       self.check(data), tracer.summary() if tracer else None)

    def check(self, data: bytes) -> int:
        """Rows failing the output check: ``fail`` rows, rows by which the
        status tally misses the expected one, and identity rows with
        |lhs - rhs| above the slack."""
        text = data.decode()
        if self.format == "csv":
            rows = list(csv.DictReader(io.StringIO(text)))
        else:
            rows = json.loads(text)
        tally = Counter(row["status"] for row in rows)
        off = max(sum((tally - self.tally).values()),
                  sum((self.tally - tally).values()))
        loose = sum(1 for row in rows
                    if row["check_id"] == "identity"
                    and row["status"] != "fail"
                    and row["lhs"] not in ("", None)
                    and not abs(float(row["lhs"]) - float(row["rhs"]))
                    <= self.slack)
        return min(self.ops, off + loose)


class Cli:
    """Fresh ``python -m fracineq`` processes; an invocation is one
    operation and passes on exit code 0 with a PASS line."""

    ops = 1
    tail_pct = 75
    functions = ("const_one", "linear", "square", "cube", "quartic",
                 "s_power_0.25", "s_power_0.5", "s_power_0.75",
                 "shifted_square_1")
    intervals = ("0,1", "0,2", "1,3")
    alphas = ("0.25", "0.5", "0.75", "1", "1.5", "2", "3")
    s_values = ("0.25", "0.5", "0.75", "1")
    config = None

    def prepare(self, seed: int) -> None:
        pass

    def jobs(self, seed: int):
        """Rounds of one check-identity and one certify call per function,
        in a seed-shuffled order with seed-drawn arguments, so that every
        seed gives the same mix of commands and functions."""
        rng = random.Random(seed)
        while True:
            calls = []
            for f in self.functions:
                calls.append(("check-identity", "--function", f,
                              "--interval", rng.choice(self.intervals),
                              "--alpha", rng.choice(self.alphas)))
                calls.append(("certify", "--function", f,
                              "--s", rng.choice(self.s_values)))
            rng.shuffle(calls)
            yield from calls

    def request(self, job: tuple, traced: bool) -> Request:
        if traced:
            child = run_child([str(BENCH / "probe.py"), "cli", *job])
            out, mark, summary = child.out.rpartition(TRACE_MARK.encode())
            trace = json.loads(summary) if mark else None
        else:
            child = run_child(["-m", "fracineq", *job])
            out, trace = child.out, None
        ok = (child.code == 0 and (trace is not None or not traced)
              and re.search(rb"\bPASS\b", out)
              and not re.search(rb"\bFAIL\b", out))
        return Request(job, child.wall, child.cpu, child.rss_mb,
                       hashlib.sha256(out).hexdigest(), 0 if ok else 1, trace)


# tail_pct is the highest of p50, p75 and p90 that keeps TAIL_BEYOND
# requests above it in a 30 s run, at the request times measured on a shared
# 2-core x86 machine (0.4-0.75 s per README sweep, 1.0-1.7 s per identity
# sweep, 0.3 s per CLI call, each followed by a 0.05-0.15 s reference
# process).  It is fixed so that every run reports the same percentile; a
# run with fewer requests above it says so.
WORKLOADS = {
    "readme_sweep": Sweep("readme_sweep.cfg", {
        "pass": 1813, "precondition_skipped": 987,
        "out_of_validated_range": 483}, tail_pct=75),
    "identity_sweep": Sweep("identity_sweep.cfg", {
        "pass": 2799, "precondition_skipped": 880,
        "out_of_validated_range": 456}, tail_pct=50),
    "cli_oneshot": Cli(),
}


def tail(samples: list[float], pct: int) -> tuple[float, int]:
    """The pct-th percentile of the samples and how many lie above it."""
    value = statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
    return value, sum(1 for v in samples if v > value)


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed: int, seconds: float) -> dict:
    return {"python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "seed": seed, "held_out_seed": HELD_OUT_SEED, "seconds": seconds,
            "commit": git_commit()}


def probe_setup(workload, seed: int, speed: Speed) -> dict:
    """Set-up times of one fresh process (see probe.py), and ``setup_ref_s``,
    its ``setup_s`` at reference speed."""
    config = str(workload.config) if workload.config else "-"
    child = run_child([str(BENCH / "probe.py"), "setup", config, str(seed)])
    scale = speed.scale()
    if child.code != 0:
        raise RuntimeError("setup probe failed:\n" + child.out.decode())
    times = json.loads(child.out)
    times["setup_ref_s"] = times["setup_s"] * scale
    return times


def measure_interp() -> list[float]:
    return [run_child(["-c", "pass"]).cpu
            for _ in range(INTERP_CHILDREN + 1)][1:]


def run_requests(workload, seed: int, seconds: float, trace: bool):
    """One warm-up request and set-up probe, then requests until ``seconds``
    have passed.  SETUP_CHILDREN set-up probes run between
    requests, spread evenly over the run, so that set-up and requests are
    measured over the same stretch of time.

    The reference process runs between any two measurements, and each CPU time
    is also given at reference speed (see ``Speed``).

    Returns the untraced and traced requests, the set-up probes, the output
    digest of each job, and the operations attempted and failed."""
    jobs = workload.jobs(seed)
    speed = Speed()
    probe_setup(workload, seed, speed)
    setup: list[dict] = []
    digests: dict[tuple, str] = {}
    counters: dict[tuple, dict] = {}
    plain, traced = [], []

    def consistent(r: Request) -> bool:
        return digests.setdefault(r.job, r.digest) == r.digest

    first = workload.request(next(jobs), traced=False)
    speed.scale()
    digests[first.job] = first.digest
    failed = first.failed

    start = perf_counter()
    deadline = start + seconds
    least = MIN_TRACED if trace else MIN_REQUESTS
    while perf_counter() < deadline or len(plain) < least:
        if (len(setup) < SETUP_CHILDREN and perf_counter()
                >= start + len(setup) * seconds / SETUP_CHILDREN):
            setup.append(probe_setup(workload, seed, speed))
        job = next(jobs)
        r = workload.request(job, traced=False)
        r.ref_cpu = r.cpu * speed.scale()
        if not consistent(r):
            r.failed = workload.ops
        plain.append(r)
        failed += r.failed
        if trace:
            t = workload.request(job, traced=True)
            t.ref_cpu = t.cpu * speed.scale()
            work = {k: v for k, v in (t.trace or {}).items()
                    if is_work_counter(k)}
            if (t.trace is None or not consistent(t)
                    or counters.setdefault(job, work) != work):
                t.failed = workload.ops
            traced.append(t)
            failed += t.failed
    while len(setup) < SETUP_CHILDREN:
        setup.append(probe_setup(workload, seed, speed))
    attempted = workload.ops * (1 + len(plain) + len(traced))
    return plain, traced, setup, digests, attempted, failed


def end_to_end(workload, plain, setup) -> dict[str, tuple]:
    """name -> (value, unit, note); the END_TO_END names first."""
    n, pct = len(plain), workload.tail_pct

    def tail_note(beyond: int) -> str:
        return (f"p{pct}, {beyond} of {n} above"
                + ("" if beyond >= TAIL_BEYOND else " (too few)"))

    ref_tail, ref_beyond = tail([r.ref_cpu for r in plain], pct)
    cpu_tail, cpu_beyond = tail([r.cpu for r in plain], pct)
    wall = statistics.median(r.wall for r in plain)
    wall_tail, wall_beyond = tail([r.wall for r in plain], pct)
    return {
        "cpu_ref_s": (statistics.median(r.ref_cpu for r in plain), "s",
                      f"median of {n} requests at reference speed "
                      "(the child's, for cli_oneshot)"),
        "cpu_ref_tail_s": (ref_tail, "s", tail_note(ref_beyond)),
        "setup_s": (statistics.median(p["setup_ref_s"] for p in setup), "s",
                    f"median of {len(setup)} fresh processes, main thread, "
                    "at reference speed"),
        "peak_rss_mb": (max(r.rss_mb for r in plain), "MB",
                        "this process, or the largest child"),
        "cpu_s": (statistics.median(r.cpu for r in plain), "s",
                  "advisory: median, raw"),
        "cpu_tail_s": (cpu_tail, "s", "advisory: raw, "
                       + tail_note(cpu_beyond)),
        "setup_cpu_s": (statistics.median(p["setup_s"] for p in setup), "s",
                        "advisory: median, raw"),
        "wall_s": (wall, "s", "advisory: median"),
        "wall_tail_s": (wall_tail, "s", "advisory: " + tail_note(wall_beyond)),
        "ops_per_s": (workload.ops / wall, "1/s",
                      f"advisory: {workload.ops} per request / wall_s"),
        "setup_wall_s": (statistics.median(p["setup_wall_s"] for p in setup),
                         "s", "advisory: median"),
    }


def per_layer(plain, traced, setup, interp) -> dict[str, tuple]:
    """name -> (value, unit, note), in PER_LAYER order."""
    summaries = [t.trace for t in traced if t.trace is not None]
    metrics = {}
    for name in summaries[0] if summaries else ():
        values = [s[name] for s in summaries]
        if layer_unit(name) == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = statistics.fmean(values)
    if summaries:
        add_ratios(metrics)
    for name, key in (("funclib.catalog_s", "catalog_s"),
                      ("cli.import_s", "import_s")):
        metrics[name] = statistics.median(p[key] for p in setup)
    metrics["cli.interp_s"] = statistics.median(interp)
    metrics["trace.overhead_frac"] = (
        statistics.median(t.ref_cpu for t in traced)
        / statistics.median(r.ref_cpu for r in plain) - 1.0)
    notes = {"funclib.catalog_s": "median over fresh processes, main thread",
             "cli.import_s": "median over fresh processes, main thread",
             "cli.interp_s": "CPU of `python -c pass`, median",
             "trace.overhead_frac": "traced over untraced median scaled CPU, - 1"}
    return {name: (metrics.get(name, 0.0), layer_unit(name),
                   notes.get(name, "per request")) for name in PER_LAYER}


def pin_to_one_cpu() -> int:
    """Run this process and every child it starts on one CPU, so that the
    reference process runs on the CPU that did the measured work.  This also
    keeps numpy's helper threads in a child on that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    env = environment(seed, seconds)
    env["pinned_cpu"] = pin_to_one_cpu()
    interp = measure_interp() if trace else []
    workload.prepare(seed)
    plain, traced, setup, digests, attempted, failed = run_requests(
        workload, seed, seconds, trace)

    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"requests {len(plain)} untraced, {len(traced)} traced, 1 warm-up")
    if trace:
        table = per_layer(plain, traced, setup, interp)
        gated = PER_LAYER
    else:
        table = end_to_end(workload, plain, setup)
        gated = END_TO_END
    table["failed_frac"] = (failed / attempted, "ratio",
                            f"{failed} of {attempted} operations")
    for key, (value, unit, note) in table.items():
        print(f"  {key:30s} {value:14.6g} {unit:6s} {note}")
    print("env " + json.dumps(env))
    print("sha256 " + json.dumps({" ".join(k): v for k, v in digests.items()}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": table[k][0], "unit": table[k][1]}
                    for k in gated}}))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in its own process; exits
    1 unless every run exits 0 with a correct result."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            args = ["--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run([sys.executable, __file__, *args], cwd=ROOT,
                                  stdout=subprocess.PIPE, text=True)
            print(done.stdout, end="", flush=True)
            lines = done.stdout.splitlines()
            ok = (ok and done.returncode == 0 and bool(lines)
                  and json.loads(lines[-1])["correct"])
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "fracineq" / "__init__.py").is_file():
        print(f"bench: no fracineq package under {SRC}; run from the root "
              "of a fracineq checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
