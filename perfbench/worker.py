"""One workload process: ``prepare`` the shared inputs, or ``measure`` once.

Started by ``run.py``, never by hand: the driver clears the library's
environment switches, fixes ``PYTHONHASHSEED``, puts ``src`` on the path
and feeds a JSON request on stdin.  The answer is one JSON line on stdout.

    python3 perfbench/worker.py prepare <workload> <seed>
    python3 perfbench/worker.py measure <workload> <seed> <seconds> <traced> <trace-file>
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback

from common import NullTracer, Tracer, calibrate
from suite import WORKLOADS

#: Failed-op tracebacks printed to stderr before the rest are only counted.
MAX_REPORTED_ERRORS = 3


def run_phase(workload, first_op: int, seconds: float, min_ops: int) -> dict:
    """Closed loop: one op at a time until ``seconds`` have passed and at
    least ``min_ops`` ops ran.  Answers are checked between ops, and the
    checking time is taken off the phase's clock."""
    perf = time.perf_counter
    tracer = workload.tracer
    latencies: list[float] = []
    failed = 0
    check_seconds = 0.0
    counts = None
    op = first_op
    workload.begin()
    start = perf()
    deadline = start + seconds
    while op < workload.max_ops and (perf() < deadline or op - first_op < min_ops):
        tracer.op = op
        began = perf()
        try:
            with tracer.span("op"):
                answer = workload.run(op)
        except Exception:  # a failed op is counted, reported and survived
            answer = None
            ok = False
            if failed < MAX_REPORTED_ERRORS:
                traceback.print_exc(file=sys.stderr)
        else:
            ok = None
        ended = perf()
        latencies.append(ended - began)
        if ok is None:
            ok = workload.check(op, answer)
        if not ok:
            failed += 1
        op += 1
        if op == workload.count_window:
            counts = workload.counts()
        check_seconds += perf() - ended
    tracer.op = -1
    elapsed = perf() - start - check_seconds
    return {
        "latencies": latencies,
        "failed": failed,
        "next_op": op,
        "elapsed": elapsed,
        "counts": counts,
    }


def measure(name: str, seed: int, seconds: float, traced: bool, trace_file: str, shared: dict) -> dict:
    calib_before = calibrate()
    workload = WORKLOADS[name](seed, shared)
    tracer = Tracer() if traced else NullTracer()
    workload.tracer = tracer
    try:
        started = time.perf_counter()
        workload.setup()
        setup_s = time.perf_counter() - started

        window = workload.count_window
        if traced:
            workload.tracer = NullTracer()
            plain = run_phase(workload, 0, seconds / 2, window)
            workload.tracer = tracer
            timed = run_phase(workload, plain["next_op"], seconds / 2, 0)
            phases = [plain, timed]
        else:
            plain = timed = run_phase(workload, 0, seconds, window)
            phases = [plain]
        layers = workload.layers() if traced else {}
    finally:
        workload.close()

    result = {
        "setup_s": setup_s,
        "latencies": plain["latencies"],
        "wall_ops_per_s": len(plain["latencies"]) / plain["elapsed"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tail_pct": workload.tail_pct,
        "attempted": sum(len(phase["latencies"]) for phase in phases),
        "failed": sum(phase["failed"] for phase in phases),
        "counts": plain["counts"],
        "problems": workload.problems(plain["counts"]),
        "calib_ms": [calib_before, calibrate()],
    }
    if traced:
        plain_rate = len(plain["latencies"]) / plain["elapsed"]
        traced_rate = len(timed["latencies"]) / timed["elapsed"]
        layers["trace.overhead_frac"] = 1.0 - traced_rate / plain_rate
        result["layers"] = layers
        own = tracer.self_times()
        result["self_ms"] = {span: total * 1000.0 for span, total in own.items()}
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump({"workload": name, "seed": seed, "spans": tracer.dump()}, handle)
    return result


def main(argv: list[str]) -> int:
    role, name, seed = argv[0], argv[1], int(argv[2])
    shared = json.loads(sys.stdin.read() or "{}")
    if role == "prepare":
        reply = WORKLOADS[name].prepare(seed)
    else:
        seconds, traced, trace_file = float(argv[3]), argv[4] == "1", argv[5]
        reply = measure(name, seed, seconds, traced, trace_file, shared)
    sys.stdout.write(json.dumps(reply) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
