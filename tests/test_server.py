"""Tests for the async multi-tenant query service (repro.server).

Four fronts:

* **status mapping** — every documented HTTP status is reachable and
  distinct: 200 with provenance metadata, 400 for malformed requests and
  bad queries, 404 for unknown tenants/documents, 408 for deadline
  breaches, 422 for tenant work-budget breaches, 429 for queue overflow,
  503 while draining.  Queue overflow and limit breaches MUST be
  distinguishable (the acceptance bar of ISSUE 9);
* **parity** — a served ``/query`` response value is byte-identical
  (through :func:`~repro.server.canonical_json`) to
  :meth:`~repro.session.XPathSession.run` on the same stored document;
* **tenancy & admission** — tenants get isolated plan caches, limits and
  stats over one shared mapping; ``admit``/``release`` enforce the
  bounded queue; draining flips health and refuses new work;
* **HTTP shell** — real sockets: keep-alive, malformed JSON, unknown
  routes, concurrent clients, the SIGTERM-style drain path, and the
  ``/batch`` connection-close regression (a lazily forked process pool
  used to capture client sockets, so responses arrived but EOF never
  did).
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading

import pytest

from repro.api import build_store
from repro.engines.base import EvalLimits
from repro.server import (
    DEFAULT_TENANT,
    QueryServer,
    QueryService,
    RequestRejected,
    ServerConfig,
    TenantConfig,
    canonical_json,
    encode_value,
    load_tenants,
)
from repro.server.http import MAX_HEADER_LINES
from repro.session import XPathSession
from repro.store import open_cached
from repro.xmlmodel.parser import parse_xml

DOC_SOURCES = [
    "<root><item>a</item><item>b</item></root>",
    "<root><item>c</item></root>",
    "<root>" + "<item>x</item>" * 5 + "</root>",
    "<root><empty/></root>",
]
DOC_NAMES = ["alpha", "beta", "gamma", "delta"]


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("server") / "corpus.reproxs"
    build_store(
        str(path),
        [parse_xml(source) for source in DOC_SOURCES],
        names=DOC_NAMES,
    )
    return str(path)


def make_config(store_path, **overrides):
    settings = {
        "store_path": store_path,
        "host": "127.0.0.1",
        "port": 0,
        "tenants": (
            TenantConfig(name="default", limits=EvalLimits()),
            TenantConfig(
                name="tiny", limits=EvalLimits(max_operations=5), cache_size=4
            ),
        ),
        "max_queue": 2,
        "max_concurrency": 1,
    }
    settings.update(overrides)
    return ServerConfig(**settings)


@pytest.fixture
def service(store_path):
    service = QueryService(make_config(store_path))
    yield service
    service.close()


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
class TestConfig:
    def test_default_tenant_injected_when_none_given(self, store_path):
        config = ServerConfig(store_path=store_path, tenants=())
        assert [t.name for t in config.tenants] == [DEFAULT_TENANT]

    def test_duplicate_tenant_names_rejected(self, store_path):
        tenants = (
            TenantConfig(name="a", limits=EvalLimits()),
            TenantConfig(name="a", limits=EvalLimits()),
        )
        with pytest.raises(ValueError, match="duplicate tenant"):
            ServerConfig(store_path=store_path, tenants=tenants)

    @pytest.mark.parametrize(
        "field, value",
        [("max_queue", -1), ("max_concurrency", 0), ("drain_grace", -0.5)],
    )
    def test_bounds_validated(self, store_path, field, value):
        with pytest.raises(ValueError):
            ServerConfig(store_path=store_path, **{field: value})

    def test_tenant_from_dict_rejects_unknown_limit(self):
        with pytest.raises(ValueError, match="unknown limit"):
            TenantConfig.from_dict(
                {"name": "x", "limits": {"max_wombats": 3}}
            )

    def test_load_tenants_file(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(
            json.dumps(
                {
                    "tenants": [
                        {"name": "a", "limits": {"max_operations": 7}},
                        {"name": "b", "cache_size": 2},
                    ]
                }
            )
        )
        tenants = load_tenants(str(path))
        assert [t.name for t in tenants] == ["a", "b"]
        assert tenants[0].limits.max_operations == 7
        assert tenants[1].cache_size == 2


# ----------------------------------------------------------------------
# Value encoding
# ----------------------------------------------------------------------
class TestEncoding:
    def test_scalars_pass_through(self):
        assert encode_value(2.0) == 2.0
        assert encode_value("text") == "text"
        assert encode_value(True) is True

    def test_nodeset_encodes_in_document_order(self, store_path):
        store = open_cached(store_path)
        session = XPathSession()
        result = session.run("//item", store.document_at(0))
        encoded = encode_value(result.value)
        assert [record["name"] for record in encoded] == ["item", "item"]
        assert encoded == sorted(encoded, key=lambda r: r["order"])
        assert all(record["type"] == "element" for record in encoded)

    def test_canonical_json_is_stable(self):
        a = canonical_json({"b": 1, "a": [2.0, "x"]})
        b = canonical_json({"a": [2.0, "x"], "b": 1})
        assert a == b
        assert b" " not in a


# ----------------------------------------------------------------------
# Status mapping + parity (no sockets)
# ----------------------------------------------------------------------
class TestServiceEndpoints:
    def test_query_ok_with_provenance(self, service):
        status, payload = service.execute({"query": "count(//item)"})
        assert status == 200
        assert payload["value"] == 2.0
        meta = payload["meta"]
        assert meta["tenant"] == "default"
        assert meta["doc"] == 0
        assert meta["cache_hit"] is False
        assert meta["engine"]
        assert meta["elapsed_ms"] >= 0.0
        # Same plan again: the tenant cache answers.
        status, payload = service.execute({"query": "count(//item)"})
        assert payload["meta"]["cache_hit"] is True

    def test_response_value_byte_identical_to_session_run(
        self, service, store_path
    ):
        query = "//item[position() < 3]"
        status, payload = service.execute({"query": query, "doc": 2})
        assert status == 200
        store = open_cached(store_path)
        direct = XPathSession().run(query, store.document_at(2))
        assert canonical_json(payload["value"]) == canonical_json(
            encode_value(direct.value)
        )

    def test_document_by_name(self, service):
        status, payload = service.execute(
            {"query": "count(//item)", "doc": "gamma"}
        )
        assert status == 200
        assert payload["value"] == 5.0
        assert payload["meta"]["doc"] == 2

    def test_unknown_tenant_404(self, service):
        status, payload = service.execute(
            {"tenant": "nope", "query": "count(/)"}
        )
        assert status == 404
        assert payload["error"]["code"] == "unknown_tenant"

    def test_unknown_document_404(self, service):
        for doc in [99, "missing"]:
            status, payload = service.execute(
                {"query": "count(/)", "doc": doc}
            )
            assert status == 404
            assert payload["error"]["code"] == "unknown_document"

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"query": ""},
            {"query": 7},
            {"query": "count(/)", "doc": True},
            {"query": "count(/)", "deadline": -1},
            {"query": "count(/)", "variables": "nope"},
        ],
    )
    def test_malformed_requests_400(self, service, payload):
        status, body = service.execute(payload)
        assert status == 400
        assert body["error"]["code"] == "bad_request"

    def test_bad_query_400(self, service):
        status, payload = service.execute({"query": "//item["})
        assert status == 400
        assert payload["error"]["code"] == "bad_query"

    def test_tenant_limit_422(self, service):
        status, payload = service.execute(
            {"tenant": "tiny", "query": "//item[position() > 1]"}
        )
        assert status == 422
        assert payload["error"]["code"] == "limit_exceeded"
        assert service.counters["rejected_limits"] == 1

    def test_deadline_breach_408(self, service):
        status, payload = service.execute(
            {"query": "count(//item)", "deadline": 1e-9}
        )
        assert status == 408
        assert payload["error"]["code"] == "deadline_exceeded"
        assert service.counters["rejected_deadline"] == 1

    def test_tenant_isolation(self, service):
        service.execute({"query": "count(//item)"})
        service.execute({"tenant": "tiny", "query": "count(/)"})
        stats = service.stats_payload()["tenants"]
        assert stats["default"]["queries"] == 1
        assert stats["tiny"]["queries"] == 1

    def test_batch_evaluates_every_document(self, service, store_path):
        status, payload = service.execute_batch({"query": "count(//item)"})
        assert status == 200
        assert payload["meta"]["ok"] is True
        assert payload["meta"]["documents"] == len(DOC_SOURCES)
        by_doc = {r["doc"]: r["value"] for r in payload["results"]}
        assert by_doc == {
            "alpha": 2.0, "beta": 1.0, "gamma": 5.0, "delta": 0.0
        }
        # Parity against direct per-document session runs.
        store = open_cached(store_path)
        session = XPathSession()
        for index, name in enumerate(DOC_NAMES):
            direct = session.run("count(//item)", store.document_at(index))
            assert canonical_json(by_doc[name]) == canonical_json(
                encode_value(direct.value)
            )


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_queue_overflow_is_429_not_422(self, service):
        for _ in range(service.capacity):
            service.admit()
        with pytest.raises(RequestRejected) as excinfo:
            service.admit()
        assert excinfo.value.status == 429
        assert excinfo.value.code == "queue_full"
        assert service.counters["rejected_queue"] == 1
        # Distinct from a tenant limit breach on the same service.
        status, payload = service.execute(
            {"tenant": "tiny", "query": "//item[position() > 1]"}
        )
        assert (status, payload["error"]["code"]) == (422, "limit_exceeded")
        for _ in range(service.capacity):
            service.release()
        service.admit()
        service.release()

    def test_draining_refuses_with_503(self, service):
        service.start_draining()
        with pytest.raises(RequestRejected) as excinfo:
            service.admit()
        assert excinfo.value.status == 503
        assert service.health_payload()[0] == 503

    def test_admission_is_thread_safe(self, service):
        admitted, rejected = [], []

        def worker():
            try:
                service.admit()
                admitted.append(1)
            except RequestRejected:
                rejected.append(1)

        threads = [threading.Thread(target=worker) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(admitted) == service.capacity
        assert len(rejected) == 16 - service.capacity
        assert service.in_flight == service.capacity


# ----------------------------------------------------------------------
# The HTTP shell (real sockets)
# ----------------------------------------------------------------------
async def http_request(host, port, method, path, body=None, *,
                       reader=None, writer=None, close=True):
    """Minimal HTTP/1.1 client; returns (status, payload, reader, writer)."""
    if reader is None:
        reader, writer = await asyncio.open_connection(host, port)
    data = json.dumps(body).encode() if body is not None else b""
    connection = "close" if close else "keep-alive"
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {len(data)}\r\nConnection: {connection}\r\n\r\n"
        ).encode() + data
    )
    await writer.drain()
    status_line = await asyncio.wait_for(reader.readline(), 30)
    status = int(status_line.split(b" ", 2)[1])
    length = None
    while True:
        line = await asyncio.wait_for(reader.readline(), 30)
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode().partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    payload = json.loads(await asyncio.wait_for(reader.readexactly(length), 30))
    if close:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
        return status, payload, None, None
    return status, payload, reader, writer


def raw_exchange(host, port, request: bytes) -> bytes:
    """Send raw bytes on a fresh blocking socket and return everything the
    server sends back before it closes (a reset after the reply — the
    server closed with unread request bytes — still ends the read)."""
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def run_with_server(store_path, test_coro, **config_overrides):
    """Start a QueryServer on an ephemeral port, run the coroutine, drain."""

    async def main():
        service = QueryService(make_config(store_path, **config_overrides))
        server = QueryServer(service)
        host, port = await server.start()
        try:
            await test_coro(service, server, host, port)
        finally:
            await server.drain()

    asyncio.run(main())


class TestHTTPServer:
    def test_query_and_health_over_http(self, store_path):
        async def scenario(service, server, host, port):
            status, payload, _, _ = await http_request(
                host, port, "GET", "/healthz"
            )
            assert (status, payload) == (200, {"status": "ok"})
            status, payload, _, _ = await http_request(
                host, port, "POST", "/query", {"query": "count(//item)"}
            )
            assert status == 200
            assert payload["value"] == 2.0

        run_with_server(store_path, scenario)

    def test_routing_and_malformed_json(self, store_path):
        async def scenario(service, server, host, port):
            status, payload, _, _ = await http_request(
                host, port, "GET", "/nope"
            )
            assert status == 404
            status, payload, _, _ = await http_request(
                host, port, "PUT", "/query", {"query": "count(/)"}
            )
            assert status == 405
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /query HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 8\r\nConnection: close\r\n\r\nnot json"
            )
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), 30)
            assert b" 400 " in raw.split(b"\r\n", 1)[0]
            writer.close()

        run_with_server(store_path, scenario)

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: -5\r\n\r\n",
            # One header line past the 64 KiB StreamReader limit.
            b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n",
        ],
        ids=["negative-content-length", "oversized-header-line"],
    )
    def test_malformed_framing_gets_400_and_server_keeps_serving(
        self, store_path, request_bytes
    ):
        # Regression: both requests used to raise ValueError out of the
        # request handler, so the client read zero bytes.
        async def scenario(service, server, host, port):
            raw = await asyncio.to_thread(raw_exchange, host, port, request_bytes)
            head, _, body = raw.partition(b"\r\n\r\n")
            assert head.split(b"\r\n", 1)[0].split(b" ", 2)[1] == b"400"
            assert b"Connection: close" in head
            assert json.loads(body)["error"]["code"] == "bad_request"
            status, payload, _, _ = await http_request(
                host, port, "GET", "/healthz"
            )
            assert (status, payload) == (200, {"status": "ok"})

        run_with_server(store_path, scenario)

    def test_header_line_count_is_capped(self, store_path):
        def head(lines: int) -> bytes:
            fields = b"".join(b"X-H%d: v\r\n" % i for i in range(lines))
            return b"GET /healthz HTTP/1.1\r\n" + fields + b"Connection: close\r\n\r\n"

        async def scenario(service, server, host, port):
            # "Connection: close" is the last allowed line here.
            raw = await asyncio.to_thread(
                raw_exchange, host, port, head(MAX_HEADER_LINES - 1)
            )
            assert raw.split(b" ", 2)[1] == b"200"
            raw = await asyncio.to_thread(
                raw_exchange, host, port, head(MAX_HEADER_LINES)
            )
            response_head, _, body = raw.partition(b"\r\n\r\n")
            assert response_head.split(b" ", 2)[1] == b"400"
            assert json.loads(body)["error"]["message"] == "malformed request head"

        run_with_server(store_path, scenario)

    def test_keep_alive_reuses_connection(self, store_path):
        async def scenario(service, server, host, port):
            status, payload, reader, writer = await http_request(
                host, port, "POST", "/query",
                {"query": "count(//item)"}, close=False,
            )
            assert (status, payload["value"]) == (200, 2.0)
            status, payload, reader, writer = await http_request(
                host, port, "POST", "/query",
                {"query": "count(//item)", "doc": 1},
                reader=reader, writer=writer,
            )
            assert (status, payload["value"]) == (200, 1.0)

        run_with_server(store_path, scenario)

    def test_queue_overflow_over_http_is_429(self, store_path):
        async def scenario(service, server, host, port):
            original = service.execute
            gate = threading.Event()

            def slow_execute(payload):
                gate.wait(10)
                return original(payload)

            service.execute = slow_execute
            try:
                tasks = [
                    asyncio.create_task(
                        http_request(
                            host, port, "POST", "/query",
                            {"query": "count(/)"},
                        )
                    )
                    for _ in range(service.capacity + 3)
                ]
                # Wait until every admission slot is claimed, then open
                # the gate so the admitted requests finish.
                while service.in_flight < service.capacity:
                    await asyncio.sleep(0.01)
                await asyncio.sleep(0.05)
                gate.set()
                outcomes = await asyncio.gather(*tasks)
            finally:
                service.execute = original
            statuses = sorted(status for status, _, _, _ in outcomes)
            assert statuses.count(429) == 3
            assert statuses.count(200) == service.capacity
            rejected = [p for s, p, _, _ in outcomes if s == 429]
            assert all(
                p["error"]["code"] == "queue_full" for p in rejected
            )

        run_with_server(store_path, scenario, max_queue=2, max_concurrency=2)

    def test_batch_connection_reaches_eof(self, store_path):
        # Regression: the process pool used to fork on the first /batch
        # request, and the forked workers inherited the client socket —
        # the response arrived but the connection never closed.
        async def scenario(service, server, host, port):
            status, payload, _, _ = await http_request(
                host, port, "POST", "/batch", {"query": "count(//item)"}
            )
            assert status == 200
            assert payload["meta"]["ok"] is True
            values = {r["doc"]: r["value"] for r in payload["results"]}
            assert values["gamma"] == 5.0

        run_with_server(store_path, scenario)

    def test_drain_flips_health_then_stops_listening(self, store_path):
        async def scenario(service, server, host, port):
            service.start_draining()
            status, payload, _, _ = await http_request(
                host, port, "GET", "/healthz"
            )
            assert (status, payload) == (503, {"status": "draining"})
            status, payload, _, _ = await http_request(
                host, port, "POST", "/query", {"query": "count(/)"}
            )
            assert status == 503
            assert payload["error"]["code"] == "draining"

        run_with_server(store_path, scenario)

    def test_concurrent_clients_agree_with_direct_run(self, store_path):
        async def scenario(service, server, host, port):
            store = open_cached(store_path)
            expected = canonical_json(
                encode_value(
                    XPathSession().run("//item", store.document_at(2)).value
                )
            )

            async def one_client(_):
                status, payload, _, _ = await http_request(
                    host, port, "POST", "/query",
                    {"query": "//item", "doc": 2},
                )
                assert status == 200
                assert canonical_json(payload["value"]) == expected

            await asyncio.gather(*[one_client(i) for i in range(32)])
            stats = service.stats_payload()
            assert stats["counters"]["requests"] == 32
            assert stats["in_flight"] == 0

        run_with_server(
            store_path, scenario, max_queue=40, max_concurrency=4
        )
