"""Asyncio HTTP front end over a :class:`ClusterService`.

A deliberately small HTTP/1.1 implementation on :class:`asyncio.Protocol`
— no third-party web framework, JSON in and JSON out.  Each connection
is one protocol object.  It buffers the bytes as they arrive, checks
each head line once as it completes, parses the header lines once the
blank line ending the head is there, then waits for exactly
``Content-Length`` body bytes, answers the request synchronously and
writes the reply with one ``transport.write``.  Pipelined requests are
answered in order.

Connections are persistent: one connection serves requests in turn,
and the server closes it after a reply only when the client asked for
that (``Connection: close``, or HTTP/1.0 without ``keep-alive``), when
the request broke the framing, after ``/shutdown``, or when the server
is stopping.  Every reply says which: ``Connection: keep-alive`` or
``Connection: close``.  :meth:`ServiceServer.stop` closes every open
connection and waits until each is gone.  Enough protocol for the CLI
client, ``curl``, and the test suite; the deterministic logic all
lives in the transport-agnostic core.

A malformed or stalled request ends in a named 4xx reply or a close,
never a 500 or a hang:

* each request must arrive whole within :data:`READ_DEADLINE_S` of
  the server starting to wait for it.  A connection that sends no
  byte of a new request in that time is closed without a reply; a
  partly sent request gets a 408.  One timer per connection keeps
  the deadline: each reply stores the next request's deadline time,
  and a timer that fires before that time re-arms itself for it.
* a request line or header line longer than :data:`LINE_LIMIT`
  bytes, or more than :data:`MAX_HEADERS` header lines, gets a 431
  as soon as the bytes received show it, an unterminated line
  included;
* a ``Content-Length`` that is not a non-negative integer gets a 400,
  one over :data:`MAX_BODY_BYTES` a 413, and ``Transfer-Encoding`` a
  400.

Each of these errors closes the connection after the reply, because
the request's framing is lost.  A body that is not JSON, or holds
``NaN``, an infinity or a number beyond the double range, gets a 400
and keeps the connection.

A client that sends requests faster than it reads the replies is held
back: while the transport's write buffer is above its high-water mark
the connection neither reads nor answers, and no read deadline runs;
both resume once the buffer drains.

Endpoints
---------
``POST /submit``
    One submission request (see :mod:`repro.service.requests`); the
    response is the service ack.  The request is acked as soon as the
    admission decision is made — placement and simulation progress
    happen behind the queue.
``POST /batch``
    A JSON list of submission requests; response is the list of acks
    (one RTT for bulk load generators).  The whole batch is answered
    in one turn of the event loop, so a list longer than
    :data:`MAX_BATCH_ITEMS` gets a 413 before any item is admitted;
    :meth:`~repro.service.client.ServiceClient.submit_batch` sends a
    longer list in chunks.
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

#: Largest accepted request body, in bytes.
MAX_BODY_BYTES = 64 * 1024 * 1024
#: Most requests one ``POST /batch`` may carry.  A batch holds the
#: event loop while it is admitted, at about 84 us per request, so
#: this keeps every other connection's wait near 85 ms.
MAX_BATCH_ITEMS = 1024
#: Longest request line or header line, in bytes before its newline.
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


#: The request-body decoder, built once: ``json.loads`` with these
#: hooks would build a new one per body.
_DECODER = json.JSONDecoder(
    parse_float=_finite_float,
    parse_int=_bounded_int,
    parse_constant=_refuse_constant,
)


def _json_body(body: bytes):
    """Decode a JSON body whose numbers are all finite doubles."""
    if not body:
        raise HttpError(400, "missing JSON body")
    try:
        # What json.loads does with bytes, on the shared decoder.
        return _DECODER.decode(body.decode(json.detect_encoding(body), "surrogatepass"))
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, deep nesting
        raise HttpError(400, f"invalid JSON body: {exc}") from None


class _Connection(asyncio.Protocol):
    """One client connection: frames requests out of its byte stream
    and answers them in order, synchronously."""

    def __init__(self, server: "ServiceServer") -> None:
        self._server = server
        self._loop = asyncio.get_running_loop()
        self.transport: asyncio.Transport | None = None
        #: Done once the connection is lost; :meth:`ServiceServer.stop`
        #: waits for it.
        self.closed = self._loop.create_future()
        self._buf = bytearray()
        self._eof = False  # the client closed its side
        self._paused = False  # write buffer above its high-water mark
        #: Loop time by which the awaited request must be whole.
        self._deadline = 0.0
        self._timer: asyncio.TimerHandle | None = None
        # Framing state of the request being read: the buffer offset of
        # the next head line to check, the header lines checked so far,
        # and, once the head is whole, (method, path, keep_alive, body
        # offset, body length).
        self._scan = 0
        self._n_headers = 0
        self._head: tuple | None = None

    # ----------------------------------------------------------- transport
    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self._server._connections.add(self)
        if self._server._stop.is_set():
            transport.close()
        else:
            self._await_request()

    def connection_lost(self, exc: Exception | None) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._server._connections.discard(self)
        self.closed.set_result(None)

    def data_received(self, data: bytes) -> None:
        self._buf += data
        self._serve()

    def eof_received(self) -> bool:
        self._eof = True
        self._serve()
        return True  # stay open for the replies still due; _serve closes

    def pause_writing(self) -> None:
        self._paused = True
        if not self._eof:
            self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._paused = False
        if self.transport.is_closing():
            return
        if not self._eof:
            self.transport.resume_reading()
        self._await_request()
        self._serve()

    # ------------------------------------------------------------ deadline
    def _await_request(self) -> None:
        """Start the read deadline of the next request."""
        deadline = self._deadline = self._loop.time() + READ_DEADLINE_S
        timer = self._timer
        if timer is None or timer.when() > deadline:
            if timer is not None:
                timer.cancel()
            self._timer = self._loop.call_at(deadline, self._expire)

    def _expire(self) -> None:
        self._timer = None
        if self._paused or self.transport.is_closing():
            return  # not waiting for a request: resume_writing re-arms
        if self._loop.time() < self._deadline:
            self._timer = self._loop.call_at(self._deadline, self._expire)
        elif self._buf:
            self._reply(
                408,
                {"ok": False, "error": f"request not received whole within {READ_DEADLINE_S} s"},
                False,
            )
        else:
            self.transport.close()

    # ------------------------------------------------------------- serving
    def _serve(self) -> None:
        """Answer every whole request in the buffer, in order; after the
        client's EOF, close once none is left."""
        transport = self.transport
        while self._buf and not (self._paused or transport.is_closing()):
            try:
                request = self._frame()
            except HttpError as exc:
                self._reply(exc.status, {"ok": False, "error": exc.message}, False)
                return
            if request is None:
                break
            method, path, body, keep_alive = request
            try:
                status, payload = self._server._route(method, path, body)
            except HttpError as exc:
                status, payload = exc.status, {"ok": False, "error": exc.message}
            except Exception as exc:  # pragma: no cover - defensive
                status, payload = 500, {"ok": False, "error": repr(exc)}
            self._reply(status, payload, keep_alive)
        if self._eof and not (self._paused or transport.is_closing()):
            transport.close()  # a partial request gets no reply

    def _frame(self) -> tuple[str, str, bytes, bool] | None:
        """Take the next whole request off the buffer as ``(method,
        path, body, keep_alive)``, or None while it is incomplete.

        Raises :class:`HttpError` as soon as the bytes so far break the
        framing.  Each head line is checked once, in order, however the
        bytes were split; the header lines are parsed once the head is
        whole.
        """
        buf = self._buf
        head = self._head
        if head is None:
            pos = self._scan
            n_headers = self._n_headers
            while True:
                nl = buf.find(b"\n", pos)
                if (len(buf) if nl < 0 else nl) - pos > LINE_LIMIT:
                    raise HttpError(
                        431, f"request line or header line longer than {LINE_LIMIT} bytes"
                    )
                if nl < 0:
                    self._scan, self._n_headers = pos, n_headers
                    return None
                if pos == 0:  # the request line
                    if len(buf[:nl].split()) != 3:
                        raise HttpError(400, "malformed request line")
                elif nl - pos < 2 and (nl == pos or buf[pos] == 13):  # b"\r"
                    break  # the blank line ending the head
                else:
                    n_headers += 1
                    if n_headers > MAX_HEADERS:
                        raise HttpError(431, f"more than {MAX_HEADERS} header lines")
                pos = nl + 1
            first = buf.find(b"\n")
            method, target, version = buf[:first].split()
            headers: dict[str, str] = {}
            if n_headers:
                for line in buf[first + 1:pos - 1].decode("latin-1").split("\n"):
                    name, _, value = line.partition(":")
                    headers[name.strip().lower()] = value.strip()
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
            connection = headers.get("connection", "").lower()
            if version == b"HTTP/1.0":
                keep_alive = "keep-alive" in connection
            else:
                keep_alive = "close" not in connection
            head = self._head = (
                method.decode("latin-1").upper(),
                target.split(b"?", 1)[0].decode("latin-1"),
                keep_alive,
                nl + 1,
                length,
            )
        method, path, keep_alive, body_at, length = head
        end = body_at + length
        if len(buf) < end:
            return None
        body = bytes(buf[body_at:end])
        del buf[:end]
        self._scan = self._n_headers = 0
        self._head = None
        return method, path, body, keep_alive

    def _reply(self, status: int, payload, keep_alive: bool) -> None:
        """Write one reply; then await the next request, or close."""
        keep_alive = keep_alive and not self._server._stop.is_set()
        data = json.dumps(payload).encode()
        self.transport.write(
            (
                f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
            ).encode("latin-1")
            + data
        )
        if keep_alive:
            self._await_request()
        else:
            self.transport.close()


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
        #: Open connections.
        self._connections: set[_Connection] = set()

    # ---------------------------------------------------------- lifecycle
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the kernel's pick)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "ServiceServer":
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), self.config.host, self.config.port
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
        each is gone."""
        self._stop.set()
        if self._pump_task is not None:
            self._pump_task.cancel()
            self._pump_task = None
        if self._server is not None:
            self._server.close()
            # Since Python 3.12 wait_closed() also waits for every open
            # connection, so an idle kept-alive one would block it.
            connections = list(self._connections)
            for connection in connections:
                connection.transport.abort()
            if connections:
                await asyncio.wait([c.closed for c in connections])
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
                if len(payload) > MAX_BATCH_ITEMS:
                    raise HttpError(
                        413,
                        f"batch of {len(payload)} requests exceeds "
                        f"{MAX_BATCH_ITEMS}; send it in chunks",
                    )
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
