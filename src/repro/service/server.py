"""Asyncio HTTP front end over a :class:`ClusterService`.

A deliberately small HTTP/1.1 implementation on raw asyncio streams —
no third-party web framework, JSON in and JSON out.  Connections are
persistent: one connection serves requests in turn, and the server
closes it after a reply only when the client asked for that
(``Connection: close``, or HTTP/1.0 without ``keep-alive``), when the
request broke the framing, after ``/shutdown``, or when the server is
stopping.  Every reply says which: ``Connection: keep-alive`` or
``Connection: close``.  Enough protocol for the CLI client, ``curl``,
and the test suite; the deterministic logic all lives in the
transport-agnostic core.

A malformed or stalled request ends in a named 4xx reply or a close,
never a 500 or a hang:

* each request must arrive whole within :data:`READ_DEADLINE_S` of
  the server starting to wait for it.  A connection that sends no
  byte of a new request in that time is closed without a reply; a
  partly sent request gets a 408.
* a request line or header line longer than :data:`LINE_LIMIT`
  bytes, or more than :data:`MAX_HEADERS` header lines, gets a 431;
* a ``Content-Length`` that is not a non-negative integer gets a 400,
  one over :data:`MAX_BODY_BYTES` a 413, and ``Transfer-Encoding`` a
  400.

Each of these errors closes the connection after the reply, because
the request's framing is lost.  A body that is not JSON, or holds
``NaN``, an infinity or a number beyond the double range, gets a 400
and keeps the connection.

Endpoints
---------
``POST /submit``
    One submission request (see :mod:`repro.service.requests`); the
    response is the service ack.  The request is acked as soon as the
    admission decision is made — placement and simulation progress
    happen behind the queue.
``POST /batch``
    A JSON list of submission requests; response is the list of acks
    (one RTT for bulk load generators).
``GET /metrics``
    Nested :class:`~repro.telemetry.registry.MetricsRegistry` snapshot
    (``engine``, ``service``, ``tenants`` namespaces).
``GET /trace``
    Chrome-trace JSON of the attached tracer (load in Perfetto).
``GET /status`` / ``GET /healthz``
    Live service state / liveness probe.
``POST /advance`` (virtual clock only)
    ``{"time": t}`` — advance the simulation to ``t``.
``POST /drain``
    Finish every accepted job; responds with the run summary.
``POST /shutdown``
    Stop the server loop after responding.
"""

from __future__ import annotations

import asyncio
import json
import math

from repro.service.config import ServiceConfig
from repro.service.core import ClusterService

#: Largest accepted request body (a 64 MiB batch is ~100k requests).
MAX_BODY_BYTES = 64 * 1024 * 1024
#: Longest request line or header line (the stream reader's limit).
LINE_LIMIT = 64 * 1024
#: Most header lines one request may carry.
MAX_HEADERS = 100
#: Seconds a connection has to deliver one whole request, counted from
#: when the server starts waiting for it — so also how long a kept-alive
#: connection may sit idle.
READ_DEADLINE_S = 30.0

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


class HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, bytes, bool] | None:
    """Read one request: ``(method, path, body, keep_alive)``.

    Returns None when the stream ends before the request's first byte.
    Raises :class:`EOFError` when it ends partway through the request,
    and :class:`HttpError` when the request breaks the framing.
    """
    try:
        request_line = await reader.readline()
        if not request_line:
            return None
        if request_line[-1:] != b"\n":
            raise EOFError
        parts = request_line.split()
        if len(parts) != 3:
            raise HttpError(400, "malformed request line")
        headers: dict[str, str] = {}
        n_lines = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if line[-1:] != b"\n":
                raise EOFError
            n_lines += 1
            if n_lines > MAX_HEADERS:
                raise HttpError(431, f"more than {MAX_HEADERS} header lines")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
    except ValueError:  # StreamReader: a line longer than its limit
        raise HttpError(
            431, f"request line or header line longer than {LINE_LIMIT} bytes"
        ) from None
    if "transfer-encoding" in headers:
        raise HttpError(400, "Transfer-Encoding is not supported; send Content-Length")
    try:
        length = int(headers.get("content-length", 0))
    except ValueError:
        length = -1
    if length < 0:
        raise HttpError(400, "bad Content-Length")
    if length > MAX_BODY_BYTES:
        raise HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    method, target, version = parts
    connection = headers.get("connection", "").lower()
    if version == b"HTTP/1.0":
        keep_alive = "keep-alive" in connection
    else:
        keep_alive = "close" not in connection
    path = target.split(b"?", 1)[0].decode("latin-1")
    return method.decode("latin-1").upper(), path, body, keep_alive


def _expire(reader: asyncio.StreamReader, transport: asyncio.Transport) -> None:
    """The read deadline: stop reading and end the stream, so the
    pending read returns what arrived — nothing, or part of a request."""
    transport.pause_reading()
    reader.feed_eof()


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"number {text[:40]} overflows a double")
    return value


def _bounded_int(text: str) -> int:
    if len(text) > 308:  # every shorter integer is a finite double
        raise ValueError(f"integer of {len(text)} digits overflows a double")
    return int(text)


def _refuse_constant(text: str):
    raise ValueError(f"{text} is not a JSON number")


def _json_body(body: bytes):
    """Decode a JSON body whose numbers are all finite doubles."""
    if not body:
        raise HttpError(400, "missing JSON body")
    try:
        return json.loads(
            body,
            parse_float=_finite_float,
            parse_int=_bounded_int,
            parse_constant=_refuse_constant,
        )
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, deep nesting
        raise HttpError(400, f"invalid JSON body: {exc}") from None


class ServiceServer:
    """One HTTP listener bound to one :class:`ClusterService`."""

    def __init__(
        self,
        service: ClusterService | None = None,
        *,
        config: ServiceConfig | None = None,
    ) -> None:
        if service is None:
            service = ClusterService(config or ServiceConfig.from_env())
        self.service = service
        self.config = service.config
        self._server: asyncio.AbstractServer | None = None
        self._stop = asyncio.Event()
        self._pump_task: asyncio.Task | None = None
        #: Open connections and the task serving each.
        self._connections: dict[asyncio.StreamWriter, asyncio.Task] = {}

    # ---------------------------------------------------------- lifecycle
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the kernel's pick)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "ServiceServer":
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port, limit=LINE_LIMIT
        )
        if self.config.clock == "wall":
            self._pump_task = asyncio.ensure_future(self._pump_loop())
        return self

    async def _pump_loop(self) -> None:
        """Wall-clock mode: periodically dispatch + advance the engine."""
        try:
            while not self._stop.is_set():
                self.service.pump()
                await asyncio.sleep(self.config.pump_interval_s)
        except asyncio.CancelledError:  # pragma: no cover - shutdown race
            pass

    async def serve_until_shutdown(self) -> None:
        """Serve until ``POST /shutdown`` (or :meth:`stop`)."""
        assert self._server is not None, "call start() first"
        await self._stop.wait()
        await self.stop()

    async def stop(self) -> None:
        """Stop listening, close every open connection and wait until
        the handlers serving them have finished."""
        self._stop.set()
        if self._pump_task is not None:
            self._pump_task.cancel()
            self._pump_task = None
        if self._server is not None:
            self._server.close()
            # Since Python 3.12 wait_closed() also waits for every open
            # connection, so an idle kept-alive one would block it.
            for writer in self._connections:
                writer.transport.abort()
            if self._connections:
                await asyncio.wait(list(self._connections.values()))
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------ routing
    def _route(self, method: str, path: str, body: bytes) -> tuple[int, object]:
        service = self.service
        if method == "GET":
            if path in ("/healthz", "/"):
                return 200, {"ok": True}
            if path == "/metrics":
                return 200, service.metrics_snapshot()
            if path == "/status":
                return 200, service.status()
            if path == "/trace":
                return 200, service.trace_payload()
            raise HttpError(404, f"no such endpoint: GET {path}")
        if method == "POST":
            if path == "/submit":
                payload = _json_body(body)
                return 200, service.submit_request(payload)
            if path == "/batch":
                payload = _json_body(body)
                if not isinstance(payload, list):
                    raise HttpError(400, "batch body must be a JSON list")
                return 200, [service.submit_request(p) for p in payload]
            if path == "/advance":
                payload = _json_body(body)
                t = payload.get("time") if isinstance(payload, dict) else None
                if not isinstance(t, (int, float)) or isinstance(t, bool):
                    raise HttpError(400, "advance body needs a numeric 'time'")
                try:
                    service.advance_to(float(t))
                except RuntimeError as exc:
                    raise HttpError(400, str(exc)) from None
                return 200, {"ok": True, "engine_now": service.cluster.now}
            if path == "/drain":
                return 200, service.drain()
            if path == "/shutdown":
                self._stop.set()
                return 200, {"ok": True, "stopping": True}
            raise HttpError(404, f"no such endpoint: POST {path}")
        raise HttpError(405, f"method {method} not supported")

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve requests on one connection until it is to be closed."""
        loop = asyncio.get_running_loop()
        transport = writer.transport
        self._connections[writer] = asyncio.current_task()
        try:
            keep_alive = True
            while keep_alive and not self._stop.is_set():
                # Stays False unless a whole request is read: an error
                # raised while reading it means the framing is lost.
                keep_alive = False
                deadline = loop.call_later(READ_DEADLINE_S, _expire, reader, transport)
                try:
                    request = await _read_request(reader)
                    if request is None:
                        return
                    method, path, body, keep_alive = request
                    status, payload = self._route(method, path, body)
                except HttpError as exc:
                    status, payload = exc.status, {"ok": False, "error": exc.message}
                except EOFError:
                    # The stream ended partway through a request.  The
                    # deadline pauses the transport before it ends the
                    # stream; a client that closed its side leaves it
                    # reading, and gets no reply.
                    if transport.is_reading():
                        return
                    status, payload = 408, {
                        "ok": False,
                        "error": f"request not received whole within {READ_DEADLINE_S} s",
                    }
                except ConnectionError:
                    return
                except Exception as exc:  # pragma: no cover - defensive
                    status, payload = 500, {"ok": False, "error": repr(exc)}
                finally:
                    deadline.cancel()
                keep_alive = keep_alive and not self._stop.is_set()
                data = json.dumps(payload).encode()
                writer.write(
                    (
                        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
                        f"Content-Type: application/json\r\n"
                        f"Content-Length: {len(data)}\r\n"
                        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
                    ).encode("latin-1")
                    + data
                )
                await writer.drain()
        except ConnectionError:
            pass
        finally:
            del self._connections[writer]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass


async def serve_async(config: ServiceConfig | None = None) -> None:
    """Start a server from ``config`` and run until shutdown."""
    server = ServiceServer(config=config)
    await server.start()
    print(
        f"repro.service listening on http://{server.config.host}:{server.port} "
        f"({server.config.scheduler} scheduler, {server.config.clock} clock, "
        f"{server.config.n_nodes} nodes)"
    )
    await server.serve_until_shutdown()


def serve(config: ServiceConfig | None = None) -> None:
    """Blocking entry point for ``python -m repro serve``."""
    asyncio.run(serve_async(config))
