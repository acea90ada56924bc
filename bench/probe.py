"""Child process of the benchmark; run only by ``bench/run.py``.

    probe.py setup CONFIG SEED   time, in this fresh process, ``import
                                 fracineq``, ``builtin_catalog()`` and the
                                 config load (CONFIG may be ``-`` for none);
                                 print them as one JSON line
    probe.py cli ARGS...         run ``fracineq ARGS...`` under the tracer;
                                 print its output, then the trace summary
                                 as one line starting with TRACE_MARK

``src`` of the checkout must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter, thread_time

TRACE_MARK = "BENCH_TRACE "


def setup(config_path: str, seed: str) -> dict[str, float]:
    """CPU time of this thread for each step (``*_s``), and the wall time
    of all three (``setup_wall_s``)."""
    w0, t0 = perf_counter(), thread_time()
    import fracineq
    t1 = thread_time()
    fracineq.builtin_catalog()
    t2 = thread_time()
    if config_path != "-":
        text = Path(config_path).read_text() + f"seed = {int(seed)}\n"
        fracineq.parse_config_text(text)
    t3, w3 = thread_time(), perf_counter()
    return {"import_s": t1 - t0, "catalog_s": t2 - t1, "config_s": t3 - t2,
            "setup_s": t3 - t0, "setup_wall_s": w3 - w0}


def traced_cli(args: list[str]) -> int:
    from tracer import Tracer
    import fracineq.cli
    with Tracer() as tracer:
        code = fracineq.cli.main(args)
    print(TRACE_MARK + json.dumps(tracer.summary()), flush=True)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        print(json.dumps(setup(sys.argv[2], sys.argv[3])))
        raise SystemExit(0)
    raise SystemExit(traced_cli(sys.argv[2:]))
