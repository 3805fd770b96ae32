"""Load benchmark for the async multi-tenant query service (ISSUE 9).

One claim, asserted against an in-process :class:`~repro.server.QueryServer`
over a DBLP-style store: the service survives **1000+ concurrent
keep-alive clients** with

* **zero 5xx responses** — every request is either answered (200) or
  deliberately shed (429 by the bounded queue), never dropped on the
  floor;
* **bounded tail latency** — p99 stays under REPRO_SERVER_P99_BAR
  seconds (the local acceptance value; CI loosens it for shared
  runners);
* **real throughput** — at least REPRO_SERVER_QPS_BAR requests/second
  end to end (connect, serialise, admit, evaluate, respond).

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_server.py -s``.
REPRO_SERVER_BENCH_CLIENTS scales the fleet (CI uses a reduced storm);
set REPRO_BENCH_RECORD=1 to append qps / p50 / p99 to BENCH_server.json.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

from conftest import record_trajectory
from repro.engines.base import EvalLimits
from repro.server import QueryServer, QueryService, ServerConfig, TenantConfig
from repro.store import build_store
from repro.workloads.documents import doc_dblp_source
from repro.xmlmodel.parser import parse_xml

CLIENTS = int(os.environ.get("REPRO_SERVER_BENCH_CLIENTS", "1000"))
REQUESTS_PER_CLIENT = int(os.environ.get("REPRO_SERVER_BENCH_REQUESTS", "4"))
P99_BAR = float(os.environ.get("REPRO_SERVER_P99_BAR", "2.0"))
QPS_BAR = float(os.environ.get("REPRO_SERVER_QPS_BAR", "200.0"))
CONCURRENCY = int(os.environ.get("REPRO_SERVER_BENCH_WORKERS", "8"))

#: Modest per-document size: the benchmark stresses the serving path
#: (sockets, admission, thread pool, tenant sessions), not the engines —
#: the engine-side numbers live in bench_compiled / bench_store.
ARTICLES = int(os.environ.get("REPRO_SERVER_BENCH_ARTICLES", "48"))
DOCUMENTS = int(os.environ.get("REPRO_SERVER_BENCH_DOCUMENTS", "8"))

#: A store-fast-path query (~0.1ms per evaluation), so the storm stresses
#: the serving layer — sockets, admission, thread handoff, JSON framing —
#: rather than engine speed (bench_compiled / bench_store own that axis).
QUERY = "count(/descendant::article)"


async def _client(host, port, client_id, latencies, statuses):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for request_index in range(REQUESTS_PER_CLIENT):
            body = json.dumps(
                {
                    "query": QUERY,
                    "doc": (client_id + request_index) % DOCUMENTS,
                }
            ).encode()
            last = request_index == REQUESTS_PER_CLIENT - 1
            connection = "close" if last else "keep-alive"
            started = time.perf_counter()
            writer.write(
                (
                    f"POST /query HTTP/1.1\r\nHost: bench\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"Connection: {connection}\r\n\r\n"
                ).encode()
                + body
            )
            await writer.drain()
            status_line = await reader.readline()
            status = int(status_line.split(b" ", 2)[1])
            length = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            await reader.readexactly(length)
            latencies.append(time.perf_counter() - started)
            statuses.append(status)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def _percentile(sorted_values, fraction):
    index = min(
        len(sorted_values) - 1, int(round(fraction * (len(sorted_values) - 1)))
    )
    return sorted_values[index]


async def _run_storm(store_path):
    config = ServerConfig(
        store_path=store_path,
        host="127.0.0.1",
        port=0,
        tenants=(TenantConfig(name="default", limits=EvalLimits()),),
        # Admit the whole storm: the benchmark measures latency under
        # full queueing, not shed rate (shedding is test_server.py's job).
        max_queue=CLIENTS * REQUESTS_PER_CLIENT,
        max_concurrency=CONCURRENCY,
    )
    service = QueryService(config)
    server = QueryServer(service)
    host, port = await server.start()
    latencies, statuses = [], []
    try:
        started = time.perf_counter()
        await asyncio.gather(
            *[
                _client(host, port, client_id, latencies, statuses)
                for client_id in range(CLIENTS)
            ]
        )
        wall = time.perf_counter() - started
    finally:
        await server.drain()
    return wall, latencies, statuses


def test_thousand_concurrent_clients(tmp_path):
    store_path = str(tmp_path / "bench.reproxs")
    build_store(
        store_path,
        [
            parse_xml(doc_dblp_source(ARTICLES, seed=seed))
            for seed in range(DOCUMENTS)
        ],
        names=[f"dblp{seed}" for seed in range(DOCUMENTS)],
    )
    wall, latencies, statuses = asyncio.run(_run_storm(store_path))

    total = CLIENTS * REQUESTS_PER_CLIENT
    assert len(statuses) == total
    server_errors = [status for status in statuses if status >= 500]
    assert not server_errors, (
        f"{len(server_errors)} 5xx responses under load: "
        f"{sorted(set(server_errors))}"
    )
    ok = statuses.count(200)
    shed = statuses.count(429)
    assert ok + shed == total, f"unexpected statuses: {sorted(set(statuses))}"

    ordered = sorted(latencies)
    report = {
        "clients": CLIENTS,
        "requests": total,
        "ok": ok,
        "shed_429": shed,
        "qps": round(total / wall, 1),
        "p50_ms": round(_percentile(ordered, 0.50) * 1e3, 2),
        "p99_ms": round(_percentile(ordered, 0.99) * 1e3, 2),
        "max_ms": round(ordered[-1] * 1e3, 2),
        "wall_s": round(wall, 2),
    }
    print(
        f"\nserver storm: {CLIENTS} clients x {REQUESTS_PER_CLIENT} requests "
        f"-> {report['qps']} qps, p50 {report['p50_ms']}ms, "
        f"p99 {report['p99_ms']}ms, {shed} shed"
    )
    record_trajectory(
        "BENCH_server.json",
        {
            "articles": ARTICLES,
            "documents": DOCUMENTS,
            "concurrency": CONCURRENCY,
            "p99_bar_s": P99_BAR,
            "qps_bar": QPS_BAR,
            "measurements": report,
        },
    )
    assert _percentile(ordered, 0.99) <= P99_BAR, (
        f"p99 {report['p99_ms']}ms over the {P99_BAR * 1e3:.0f}ms bar: "
        f"{report}"
    )
    assert report["qps"] >= QPS_BAR, (
        f"throughput {report['qps']} qps under the {QPS_BAR} bar: {report}"
    )
