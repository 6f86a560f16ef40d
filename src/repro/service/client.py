"""Stdlib HTTP client for the service (``repro submit`` / admin CLI).

A :class:`ServiceClient` keeps one persistent HTTP/1.1 connection on
a plain socket with ``TCP_NODELAY``.  It sends each request in one
``sendall`` and reads the reply with ``recv`` into one buffer: one
call usually brings the whole reply.  Once the buffer holds the head
(up to the first blank line) it parses it once, taking the status
line, ``Content-Length`` and ``Connection``, and then reads exactly
the body.  Bytes past the body stay buffered as the start of the next
reply.  The connection opens on the first request and stays open
until :meth:`close` or until the server answers ``Connection:
close``; the next request then opens a new one.

The server closes a connection that sits idle past its read deadline.
A reused connection that closes before the first byte of the reply
was closed that way, so the request is sent once more on a new
connection.  That is the only resend: after a timeout or a partial
reply the error is raised, so a POST is never applied twice.

All methods return the decoded JSON payload.  Non-2xx responses raise
:class:`ServiceClientError` carrying the server's error message; a
malformed reply (a bad status line, or a head line longer than
:data:`_MAX_LINE` bytes with its line ending) raises
:class:`ServiceClientError` with status 0, a reply without a valid
``Content-Length`` one with the reply's status, and a refused, reset,
closed or timed-out connection an :class:`OSError`.

A client is one connection, so it must not be shared across threads:
give each thread its own.
"""

from __future__ import annotations

import json
import socket

from repro.service.server import MAX_BATCH_ITEMS

#: Longest status or header line read from the server, its line ending
#: included.
_MAX_LINE = 64 * 1024


class ServiceClientError(RuntimeError):
    """A request the server refused (4xx/5xx) or could not parse."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceClient:
    """Talks to one :class:`~repro.service.server.ServiceServer` over
    one persistent connection; a context manager that closes it.  Not
    thread-safe: give each thread its own client."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8642, *, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None
        #: Bytes received past the last reply: the start of the next.
        self._rest = b""

    def close(self) -> None:
        """Close the connection; a later request opens a new one."""
        if self._sock is not None:
            self._sock.close()
            self._sock = None
            self._rest = b""

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- plumbing
    def request(self, method: str, path: str, payload=None):
        body = b"" if payload is None else json.dumps(payload).encode()
        data = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1") + body
        reply = self._exchange(data) if self._sock is not None else None
        if reply is None:
            self._connect()
            reply = self._exchange(data)
            if reply is None:
                raise ConnectionError("server closed the connection without a reply")
        status, raw = reply
        try:
            decoded = json.loads(raw) if raw else None
        except json.JSONDecodeError:
            raise ServiceClientError(status, f"non-JSON response: {raw[:200]!r}") from None
        if status >= 400:
            message = decoded.get("error", raw.decode(errors="replace")) if isinstance(decoded, dict) else str(decoded)
            raise ServiceClientError(status, message)
        return decoded

    def _connect(self) -> None:
        # A str host goes through the IDNA codec (importing encodings.idna,
        # stringprep and unicodedata); an ASCII one needs no encoding.
        host = self.host.encode("ascii") if self.host.isascii() else self.host
        sock = socket.create_connection((host, self.port), timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock

    def _exchange(self, data: bytes) -> tuple[int, bytes] | None:
        """Send one request on the open connection and read the reply:
        ``(status, body)``, or None when the connection closes before
        the reply's first byte.  Any failure closes the connection."""
        try:
            try:
                self._sock.sendall(data)
            except ConnectionError:
                reply = None
            else:
                reply = self._read_reply()
        except BaseException:
            self.close()
            raise
        if reply is None:
            self.close()
        return reply

    def _read_reply(self) -> tuple[int, bytes] | None:
        """Receive until the head is whole, parse it once, then take
        exactly the body; None when the connection closes before the
        reply's first byte."""
        sock = self._sock
        buf = self._rest
        while True:
            # The head ends at the first blank line after the status line.
            first = buf.find(b"\n")
            if first >= 0:
                crlf = buf.find(b"\n\r\n", first)
                lf = buf.find(b"\n\n", first, len(buf) if crlf < 0 else crlf + 1)
                if lf >= 0:
                    blank, body_at = lf + 1, lf + 2
                    break
                if crlf >= 0:
                    blank, body_at = crlf + 1, crlf + 3
                    break
            if len(buf) - buf.rfind(b"\n") - 1 >= _MAX_LINE:
                raise ServiceClientError(0, f"reply head line longer than {_MAX_LINE} bytes")
            try:
                chunk = sock.recv(65536)
            except ConnectionError:
                if buf:
                    raise
                chunk = b""
            if not chunk:
                if not buf:
                    return None
                raise ConnectionError("connection closed inside the reply head")
            buf += chunk
        status_line, *lines, _ = buf[:blank].split(b"\n")
        if max(map(len, (status_line, *lines))) >= _MAX_LINE:
            raise ServiceClientError(0, f"reply head line longer than {_MAX_LINE} bytes")
        version, _, rest = status_line.partition(b" ")
        code = rest[:3]
        if not version.startswith(b"HTTP/") or not code.isdigit():
            raise ServiceClientError(0, f"malformed status line: {buf[:first + 1][:200]!r}")
        status = int(code)
        close = version == b"HTTP/1.0"
        length = None
        for line in lines:
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                value = value.strip()
                if not value.isdigit():
                    raise ServiceClientError(status, f"bad Content-Length in reply: {value[:40]!r}")
                length = int(value)
            elif name == b"connection":
                close = b"close" in value.lower()
        if length is None:
            raise ServiceClientError(status, "reply has no Content-Length")
        end = body_at + length
        if len(buf) >= end:
            body, self._rest = buf[body_at:end], buf[end:]
        else:
            whole = bytearray(length)
            have = len(buf) - body_at
            whole[:have] = buf[body_at:]
            with memoryview(whole) as view:
                while have < length:
                    n = sock.recv_into(view[have:])
                    if not n:
                        raise ConnectionError("connection closed inside the reply body")
                    have += n
            body, self._rest = bytes(whole), b""
        if close:
            self.close()
        return status, body

    # ------------------------------------------------------------ endpoints
    def submit(self, request: dict) -> dict:
        return self.request("POST", "/submit", request)

    def submit_batch(self, requests: list[dict]) -> list[dict]:
        """Submit ``requests`` in order through ``POST /batch``, in
        chunks of at most :data:`~repro.service.server.MAX_BATCH_ITEMS`,
        and return their acks in order."""
        acks: list[dict] = []
        for i in range(0, len(requests), MAX_BATCH_ITEMS):
            acks += self.request("POST", "/batch", requests[i : i + MAX_BATCH_ITEMS])
        return acks

    def metrics(self) -> dict:
        return self.request("GET", "/metrics")

    def status(self) -> dict:
        return self.request("GET", "/status")

    def trace(self) -> dict:
        return self.request("GET", "/trace")

    def healthz(self) -> dict:
        return self.request("GET", "/healthz")

    def advance(self, time: float) -> dict:
        return self.request("POST", "/advance", {"time": time})

    def drain(self) -> dict:
        return self.request("POST", "/drain", {})

    def shutdown(self) -> dict:
        return self.request("POST", "/shutdown", {})
