"""Stdlib HTTP client for the service (``repro submit`` / admin CLI).

A :class:`ServiceClient` keeps one persistent HTTP/1.1 connection on
a plain socket with ``TCP_NODELAY``.  It sends each request in one
``sendall`` and reads the reply's status line, its ``Content-Length``
and ``Connection`` headers, and exactly the body.  The connection
opens on the first request and stays open until :meth:`close` or
until the server answers ``Connection: close``; the next request then
opens a new one.

The server closes a connection that sits idle past its read deadline.
A reused connection that closes before the first byte of the reply
was closed that way, so the request is sent once more on a new
connection.  That is the only resend: after a timeout or a partial
reply the error is raised, so a POST is never applied twice.

All methods return the decoded JSON payload.  Non-2xx responses raise
:class:`ServiceClientError` carrying the server's error message; a
malformed reply raises :class:`ServiceClientError` with status 0, and
a refused, reset, closed or timed-out connection an :class:`OSError`.

A client is one connection, so it must not be shared across threads:
give each thread its own.
"""

from __future__ import annotations

import json
import socket

#: Longest status or header line read from the server.
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
        self._reader = None

    def close(self) -> None:
        """Close the connection; a later request opens a new one."""
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = self._reader = None

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
        self._sock, self._reader = sock, sock.makefile("rb")

    def _exchange(self, data: bytes) -> tuple[int, bytes] | None:
        """Send one request on the open connection and read the reply:
        ``(status, body)``, or None when the connection closes before
        the reply's first line.  Any failure closes the connection."""
        try:
            try:
                self._sock.sendall(data)
                line = self._reader.readline(_MAX_LINE)
            except ConnectionError:
                line = b""
            if not line:
                self.close()
                return None
            return self._read_reply(line)
        except BaseException:
            self.close()
            raise

    def _read_reply(self, status_line: bytes) -> tuple[int, bytes]:
        reader = self._reader
        version, _, rest = status_line.partition(b" ")
        code = rest[:3]
        if not version.startswith(b"HTTP/") or not code.isdigit():
            raise ServiceClientError(0, f"malformed status line: {status_line[:200]!r}")
        status = int(code)
        close = version == b"HTTP/1.0"
        length = None
        while True:
            line = reader.readline(_MAX_LINE)
            if line in (b"\r\n", b"\n"):
                break
            if line[-1:] != b"\n":
                raise ConnectionError("connection closed inside the reply head")
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
        body = reader.read(length)
        if len(body) < length:
            raise ConnectionError("connection closed inside the reply body")
        if close:
            self.close()
        return status, body

    # ------------------------------------------------------------ endpoints
    def submit(self, request: dict) -> dict:
        return self.request("POST", "/submit", request)

    def submit_batch(self, requests: list[dict]) -> list[dict]:
        return self.request("POST", "/batch", requests)

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
