"""Benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  One run is a handful of workload
processes started one after another, never side by side: a ``prepare``
process makes the shared inputs and oracle answers once, then
``PROCESSES`` ``measure`` processes each set up the program and run the
same op sequence in a closed loop (one thread, one client) for
``S / PROCESSES`` seconds.  Each op's latency is the fastest of its
repetitions (see :func:`per_op_latencies`); ``setup_s`` and
``peak_rss_mb`` are medians over the processes.

With ``--trace 0`` the last stdout line carries every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` every per-layer metric (a layer the
workload never calls reads 0).  The line before it holds the details: the
op count, the tail percentile and the ops beyond it, ``failed_frac``,
quartiles across processes, ``host.calib_ms``, the deterministic counts
and, when traced, the self-time table.  Span records go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import percentile, quartiles, rank

HERE = Path(__file__).resolve().parent
PROCESSES = 5
#: Wall-clock budget of one run, workload processes included.
BUDGET_SECONDS = 170.0


class BenchmarkError(Exception):
    """A run that cannot produce a result (bad checkout, crashed process,
    non-repeating counts)."""


def child_env(root: Path) -> dict[str, str]:
    """The workload processes' environment: hashing fixed, ``src``
    importable, and the library's ``REPRO_*`` switches removed.  The batch
    surfaces read ``REPRO_PARALLEL_DEFAULT``, ``REPRO_STREAM_DEFAULT``,
    ``REPRO_STORE_DEFAULT`` and ``REPRO_FAULT_PLAN`` when an argument is
    omitted, and CI sets them, so they would change which program runs."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(root / "src")
    return env


def call(args: list[str], request: dict, env: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before starting a workload process")
    try:
        completed = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            input=json.dumps(request),
            capture_output=True,
            text=True,
            env=env,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"workload process timed out: {' '.join(args)}") from error
    sys.stderr.write(completed.stderr)
    if completed.returncode != 0:
        raise BenchmarkError(
            f"workload process failed with code {completed.returncode}: {' '.join(args)}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def per_op_latencies(runs: list[list[float]]) -> list[float]:
    """One latency per op index: the fastest of that op's repetitions, one
    in each process.

    Every process runs the identical op sequence from op 0 (same inputs,
    same program state at op *i*), several seconds apart.  The host's speed
    drifts by up to ~1.5x for seconds at a time, which would otherwise move
    every timing; the fastest repetition comes from a fast stretch.  Ops
    beyond the shortest process's count are dropped, so every op has all
    its repetitions.
    """
    count = min(len(latencies) for latencies in runs)
    return [min(latencies[op] for latencies in runs) for op in range(count)]


def run(args: argparse.Namespace, root: Path) -> tuple[dict, dict]:
    spec_file = root / "BENCHMARK.json"
    if not (root / "src" / "repro" / "__init__.py").is_file() or not spec_file.is_file():
        raise BenchmarkError(
            "run from the root of a checkout: src/repro and BENCHMARK.json are needed"
        )
    spec = json.loads(spec_file.read_text(encoding="utf-8"))
    if args.workload not in {entry["name"] for entry in spec["workloads"]}:
        raise BenchmarkError(f"unknown workload {args.workload!r}")
    deadline = time.monotonic() + BUDGET_SECONDS
    env = child_env(root)
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)

    shared = call(["prepare", args.workload, str(args.seed)], {}, env, deadline)
    runs = []
    for process in range(PROCESSES):
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}-p{process}.json"
        runs.append(
            call(
                [
                    "measure", args.workload, str(args.seed),
                    repr(args.seconds / PROCESSES), str(args.trace), str(trace_file),
                ],
                shared, env, deadline,
            )
        )

    counts = [entry["counts"] for entry in runs]
    if any(entry != counts[0] for entry in counts):
        differing = sorted(
            key for key in counts[0] if any(entry.get(key) != counts[0][key] for entry in counts)
        )
        raise BenchmarkError(
            f"counts differ between processes with seed {args.seed}: {differing}"
        )
    problems = sorted({problem for entry in runs for problem in entry["problems"]})
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    attempted = sum(entry["attempted"] for entry in runs)
    failed = sum(entry["failed"] for entry in runs)
    latencies = sorted(per_op_latencies([entry["latencies"] for entry in runs]))
    pct = runs[0]["tail_pct"]
    end_to_end = {
        "setup_s": statistics.median(entry["setup_s"] for entry in runs),
        "op_p50_ms": statistics.median(latencies) * 1000.0,
        "op_tail_ms": percentile(latencies, pct) * 1000.0,
        "ops_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": statistics.median(entry["peak_rss_mb"] for entry in runs),
    }
    details: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "processes": PROCESSES,
        "ops": len(latencies),
        "failed_frac": failed / attempted,
        "tail": f"p{pct:g} with {len(latencies) - rank(len(latencies), pct)} of {len(latencies)} ops beyond",
        "problems": problems,
        "counts": counts[0],
        "quartiles": {
            name: quartiles([entry[name] for entry in runs])
            for name in ("setup_s", "wall_ops_per_s", "peak_rss_mb")
        },
        "host.calib_ms": quartiles([value for entry in runs for value in entry["calib_ms"]]),
    }
    if args.trace:
        names = sorted({name for entry in runs for name in entry["layers"]})
        layers = {
            name: statistics.median(entry["layers"][name] for entry in runs if name in entry["layers"])
            for name in names
        }
        spans = sorted({name for entry in runs for name in entry["self_ms"]})
        details["self_ms"] = {
            name: statistics.median(entry["self_ms"].get(name, 0.0) for entry in runs)
            for name in spans
        }
        layers.update(counts[0])
        details["unlisted_layers"] = sorted(
            set(layers) - {entry["name"] for entry in spec["per_layer"]}
        )
        metrics = {
            entry["name"]: {"value": layers.get(entry["name"], 0.0), "unit": entry["unit"]}
            for entry in spec["per_layer"]
        }
    else:
        metrics = {
            entry["name"]: {"value": end_to_end[entry["name"]], "unit": entry["unit"]}
            for entry in spec["end_to_end"]
        }
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return details, result


def print_self_times(details: dict) -> None:
    table = details.get("self_ms")
    if not table:
        return
    total = sum(table.values()) or 1.0
    print(f"self time per layer, {details['workload']} (median over processes):", file=sys.stderr)
    for name, value in sorted(table.items(), key=lambda item: -item[1]):
        print(f"  {name:<28} {value:10.1f} ms  {100.0 * value / total:5.1f}%", file=sys.stderr)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        details, result = run(args, Path.cwd())
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    print_self_times(details)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
