"""Stdlib-only asyncio HTTP/1.1 shell around :class:`QueryService`.

One event loop accepts connections and does admission control; actual
evaluation runs on a bounded thread pool (``max_concurrency`` workers), so
the loop stays responsive enough to answer 429 the moment the queue is
full.  Keep-alive is supported (the load generator reuses connections);
the protocol subset is deliberately small — request line, headers,
``Content-Length`` bodies — because both sides of it live in this repo.

Shutdown: ``SIGTERM``/``SIGINT`` flips the service into draining (new
requests get 503), waits up to ``drain_grace`` seconds for in-flight
requests, then closes the listener and the process pool.
"""

from __future__ import annotations

import asyncio
import json
import signal
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from .config import ServerConfig
from .service import QueryService, RequestRejected, canonical_json

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Request bodies past this size are refused (413) before being buffered.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: A request head with more header lines than this is refused (400), so one
#: connection cannot grow its header table without bound.
MAX_HEADER_LINES = 100


class QueryServer:
    """The asyncio front of one :class:`QueryService`."""

    def __init__(self, service: QueryService):
        self.service = service
        self._server: Optional[asyncio.base_events.Server] = None
        self._pool = ThreadPoolExecutor(
            max_workers=service.config.max_concurrency,
            thread_name_prefix="repro-serve",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``
        (port 0 in the config resolves to a real ephemeral port here)."""
        config = self.service.config
        # Fork the batch process pool BEFORE the listener exists: forked
        # workers inherit every open fd, and a worker holding a client
        # socket keeps that connection from ever reaching EOF.
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.service.warm_batch_pool)
        self._server = await asyncio.start_server(
            self._handle_connection,
            config.host,
            config.port,
            # Survive the load generator's connect storm: every admitted
            # slot plus headroom may SYN at once before the loop accepts.
            backlog=max(128, self.service.capacity),
        )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def drain(self) -> None:
        """Stop admitting, wait for in-flight work, close everything."""
        self.service.start_draining()
        grace = self.service.config.drain_grace
        loop = asyncio.get_running_loop()
        deadline = loop.time() + grace
        while self.service.in_flight > 0 and loop.time() < deadline:
            await asyncio.sleep(0.02)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._pool.shutdown(wait=False)
        self.service.close()

    async def serve_forever(self) -> None:
        """Run until SIGTERM/SIGINT, then drain cleanly."""
        assert self._server is not None, "call start() first"
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-Unix loops: rely on external cancellation
        async with self._server:
            await stop.wait()
        await self.drain()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _handle_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        try:
            request_line = await reader.readline()
            if not request_line:
                return False
            method, target, _version = request_line.decode("latin-1").split()
            headers = {}
            lines = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                lines += 1
                if lines > MAX_HEADER_LINES:
                    raise ValueError("too many header lines")
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
        except ValueError:
            # A malformed request line, more than MAX_HEADER_LINES header
            # lines, or a line past the StreamReader limit (64 KiB), which
            # readline() reports as ValueError.
            await self._respond(writer, 400, {"error": {
                "code": "bad_request", "message": "malformed request head"}})
            return False
        try:
            length = int(headers.get("content-length", "0"))
            if length < 0:
                raise ValueError(length)
        except ValueError:
            await self._respond(writer, 400, {"error": {
                "code": "bad_request", "message": "bad Content-Length"}})
            return False
        if length > MAX_BODY_BYTES:
            await self._respond(writer, 413, {"error": {
                "code": "too_large", "message": "request body too large"}})
            return False
        body = await reader.readexactly(length) if length else b""
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        status, payload = await self._route(method, target, body)
        await self._respond(writer, status, payload, keep_alive=keep_alive)
        return keep_alive

    async def _route(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, dict]:
        path = target.split("?", 1)[0]
        if method == "GET" and path == "/healthz":
            return self.service.health_payload()
        if method == "GET" and path == "/stats":
            return 200, self.service.stats_payload()
        if method != "POST" or path not in ("/query", "/batch"):
            return 405 if method not in ("GET", "POST") else 404, {
                "error": {
                    "code": "not_found",
                    "message": f"no route for {method} {path}",
                }
            }
        try:
            payload = json.loads(body.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("body must be a JSON object")
        except (ValueError, UnicodeDecodeError) as error:
            return 400, {"error": {
                "code": "bad_request", "message": f"invalid JSON body: {error}"}}
        # Admission happens on the event loop: a full queue answers 429
        # immediately instead of parking the request behind the pool.
        try:
            self.service.admit()
        except RequestRejected as rejected:
            return rejected.status, rejected.payload()
        loop = asyncio.get_running_loop()
        handler = (
            self.service.execute if path == "/query"
            else self.service.execute_batch
        )
        try:
            return await loop.run_in_executor(self._pool, handler, payload)
        except Exception as error:  # pragma: no cover - last-resort guard
            return 500, {"error": {
                "code": "internal", "message": f"{type(error).__name__}: {error}"}}
        finally:
            self.service.release()

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        *,
        keep_alive: bool = False,
    ) -> None:
        body = canonical_json(payload)
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()


async def serve_async(config: ServerConfig) -> None:
    """Build service + server, bind, and run until a stop signal."""
    service = QueryService(config)
    server = QueryServer(service)
    host, port = await server.start()
    print(f"repro serve: listening on http://{host}:{port} "
          f"({len(service.store)} documents, "
          f"{len(config.tenants)} tenant(s))")
    await server.serve_forever()


def serve(config: ServerConfig) -> None:
    """Blocking entry point (the CLI's ``repro serve``)."""
    asyncio.run(serve_async(config))
