"""HTTP round trips against a real asyncio server on an ephemeral port.

One server per test, run in a background thread with its own event
loop; the tests talk to it through the stdlib
:class:`~repro.service.client.ServiceClient`, exactly as the CLI does,
or through raw sockets where they need bytes the client never sends.
The deterministic behaviour is pinned in the transport-free suites —
these tests cover the wire: routing, error mapping, batch submits,
persistent connections, hostile request bytes, and the shutdown
handshake.
"""

from __future__ import annotations

import asyncio
import io
import json
import math
import random
import socket
import threading
import time

import pytest

from repro.service import ServiceConfig, seeded_requests
from repro.service import server as server_module
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.server import ServiceServer

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on bare boxes only
    HAVE_HYPOTHESIS = False

pytestmark = pytest.mark.service


class ServerThread:
    """A server + event loop on a daemon thread (ephemeral port), and
    one client talking to it."""

    def __init__(self, config: ServiceConfig):
        self.server = ServiceServer(config=config)
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self._started.set()
        self.loop.run_until_complete(self.server.serve_until_shutdown())
        self.loop.close()

    def start(self) -> "ServerThread":
        self._thread.start()
        assert self._started.wait(15), "server failed to start"
        self.port = self.server.port
        self.client = ServiceClient(port=self.port)
        return self

    def stop(self):
        if self._thread.is_alive():
            try:
                self.client.shutdown()
            except (ServiceClientError, OSError):  # already stopping
                pass
            self._thread.join(10)
        self.client.close()


@pytest.fixture
def server():
    thread = ServerThread(ServiceConfig(port=0)).start()
    yield thread
    thread.stop()


def test_healthz_and_status(server):
    assert server.client.healthz() == {"ok": True}
    status = server.client.status()
    assert status["scheduler"] == "fifo"
    assert status["clock_mode"] == "virtual"
    assert status["requests"] == 0


def test_submit_roundtrip_and_metrics(server):
    client = server.client
    ack = client.submit({"code": "wc", "data_bytes": 10**9, "time": 0.0})
    assert ack["ok"] and ack["accepted"]
    acks = client.submit_batch(seeded_requests(40, seed=8))
    assert sum(1 for a in acks if a["accepted"]) == 40
    summary = client.drain()
    assert summary["completed"] == 41
    metrics = client.metrics()
    assert metrics["service"]["completed"] == 41
    assert "engine" in metrics and "tenants" in metrics


def test_advance_moves_the_engine(server):
    client = server.client
    client.submit({"code": "wc", "data_bytes": 10**9, "time": 0.0})
    out = client.advance(50_000.0)
    assert out["ok"] and out["engine_now"] <= 50_000.0
    assert client.status()["completed"] == 1
    client.drain()


def test_arrival_behind_a_drained_engine_is_a_named_refusal(server):
    client = server.client
    client.submit({"code": "wc", "data_bytes": 10**9, "time": 0.0})
    client.drain()
    ack = client.submit({"code": "wc", "data_bytes": 10**9, "time": 50.0})
    assert ack["ok"] is False and "engine clock" in ack["error"]
    assert client.drain()["completed"] == 1  # a 200, not a 500


def test_trace_endpoint_shape(server):
    trace = server.client.trace()
    assert trace["traceEvents"] == []  # tracer off by default


def test_malformed_submission_is_a_clean_ack(server):
    ack = server.client.submit({"code": "nope", "data_bytes": 1, "time": 0.0})
    assert ack["ok"] is False and "nope" in ack["error"]


@pytest.mark.parametrize("data_bytes", [0.5, 1e308])
def test_hostile_sizes_are_named_refusals(server, data_bytes):
    """A fraction of a byte and a size far past any disk are refused by
    name before admission; the run still drains to finite numbers."""
    client = server.client
    ack = client.submit({"tenant": "h", "code": "wc", "data_bytes": data_bytes, "time": 0.0})
    assert ack["ok"] is False and "'data_bytes'" in ack["error"]
    status = client.status()
    assert (status["requests"], status["malformed"]) == (1, 1)
    assert "h" not in status["tenants"]  # admission never saw it
    summary = client.drain()
    assert summary["completed"] == 0
    assert math.isfinite(summary["energy_joules"]) and math.isfinite(summary["makespan"])


def test_error_mapping(server):
    client = server.client
    with pytest.raises(ServiceClientError) as err:
        client.request("GET", "/nope")
    assert err.value.status == 404
    with pytest.raises(ServiceClientError) as err:
        client.request("POST", "/nope", {})
    assert err.value.status == 404
    with pytest.raises(ServiceClientError) as err:
        client.request("DELETE", "/submit", {})
    assert err.value.status == 405
    with pytest.raises(ServiceClientError) as err:
        client.request("POST", "/batch", {"not": "a list"})
    assert err.value.status == 400
    with pytest.raises(ServiceClientError) as err:
        client.request("POST", "/advance", {"time": "tea"})
    assert err.value.status == 400
    with pytest.raises(ServiceClientError) as err:
        client.request("POST", "/submit")  # no body at all
    assert err.value.status == 400


def test_http_stream_matches_direct_core_run(server):
    """The transport adds nothing: HTTP acks == direct core acks."""
    from repro.service import ClusterService

    requests = seeded_requests(60, seed=12)
    http_acks = server.client.submit_batch(requests)
    http_summary = server.client.drain()

    direct = ClusterService(ServiceConfig())
    direct_acks = [direct.submit_request(r) for r in requests]
    direct_summary = direct.drain()
    assert http_acks == direct_acks
    assert http_summary == direct_summary


def test_shutdown_stops_the_thread():
    thread = ServerThread(ServiceConfig(port=0)).start()
    out = thread.client.shutdown()
    assert out == {"ok": True, "stopping": True}
    thread._thread.join(10)
    assert not thread._thread.is_alive()


def test_wall_clock_server_pumps_in_background():
    """Wall mode: submissions complete without any explicit advance."""
    import time

    config = ServiceConfig(
        port=0, clock="wall", time_scale=1e6, pump_interval_s=0.01
    )
    thread = ServerThread(config).start()
    try:
        client = thread.client
        ack = client.submit({"code": "wc", "data_bytes": 10**9})
        assert ack["accepted"]
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if client.status()["completed"] == 1:
                break
            time.sleep(0.05)
        assert client.status()["completed"] == 1
    finally:
        thread.stop()


# ------------------------------------------------------- wire helpers
def _local_port(client: ServiceClient) -> int:
    """The client's end of its open connection."""
    return client._sock.getsockname()[1]


def _read_reply(stream):
    """One reply from a binary stream: ``(status, headers, body)``, or
    None at the end of the stream."""
    status_line = stream.readline()
    if not status_line:
        return None
    headers = {}
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, json.loads(body)


def _raw_session(port: int, data: bytes, *, half_close: bool = True, timeout: float = 3.0):
    """Send ``data`` on a new connection, optionally close our side,
    and read every reply until the server closes the connection.  A
    server that neither replies nor closes within ``timeout`` raises
    ``TimeoutError``."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        try:
            sock.sendall(data)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
        except OSError:  # the server already closed: read what it sent
            pass
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            chunks.append(chunk)
    stream = io.BytesIO(b"".join(chunks))
    replies = []
    while (reply := _read_reply(stream)) is not None:
        replies.append(reply)
    return replies


def _statuses(replies) -> list[tuple[int, str]]:
    return [(status, headers["connection"]) for status, headers, _body in replies]


_SUBMIT = {"code": "wc", "data_bytes": 10**9, "time": 0.0}


# --------------------------------------------- persistent connections
def test_one_client_keeps_one_connection(server):
    client = server.client
    assert client.healthz() == {"ok": True}
    port = _local_port(client)
    for request in seeded_requests(20, seed=5):
        assert client.submit(request)["accepted"]
    client.metrics()
    assert _local_port(client) == port
    assert client.status()["requests"] == 20


@pytest.mark.parametrize(
    "head",
    [
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\n\r\n",
    ],
)
def test_close_request_gets_a_close_reply(server, head):
    # The request after it is never served: the server closes first.
    replies = _raw_session(server.port, head + b"GET /status HTTP/1.1\r\n\r\n", half_close=False)
    assert _statuses(replies) == [(200, "close")]
    assert replies[0][2] == {"ok": True}


def test_http10_keep_alive_and_pipelining(server):
    keep = b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
    replies = _raw_session(server.port, keep + keep + b"GET /healthz HTTP/1.0\r\n\r\n")
    assert _statuses(replies) == [(200, "keep-alive"), (200, "keep-alive"), (200, "close")]


def test_request_errors_keep_the_connection(server):
    bad_json = b'{"code": '
    data = (
        b"GET /nope HTTP/1.1\r\n\r\n"
        b"DELETE /submit HTTP/1.1\r\n\r\n"
        b"POST /submit HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
        b"GET /healthz HTTP/1.1\r\n\r\n"
    ) % (len(bad_json), bad_json)
    replies = _raw_session(server.port, data)
    assert _statuses(replies) == [
        (404, "keep-alive"),
        (405, "keep-alive"),
        (400, "keep-alive"),
        (200, "keep-alive"),
    ]
    client = server.client
    client.healthz()
    port = _local_port(client)
    for method, path, status in (("GET", "/nope", 404), ("DELETE", "/submit", 405)):
        with pytest.raises(ServiceClientError) as err:
            client.request(method, path)
        assert err.value.status == status
    assert client.healthz() == {"ok": True}
    assert _local_port(client) == port


def test_framing_error_closes_the_connection(server, monkeypatch):
    data = b"POST /submit HTTP/1.1\r\nContent-Length: -1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n"
    assert _statuses(_raw_session(server.port, data, half_close=False)) == [(400, "close")]
    # Through the client: a 413 closes its connection, the next
    # request opens a new one.
    monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 16)
    client = server.client
    client.healthz()
    port = _local_port(client)
    with pytest.raises(ServiceClientError) as err:
        client.submit(_SUBMIT)
    assert err.value.status == 413
    assert client.healthz() == {"ok": True}
    assert _local_port(client) != port
    assert client.status()["requests"] == 0


def test_stale_connection_is_reopened_and_the_post_sent_once(server, monkeypatch):
    monkeypatch.setattr(server_module, "READ_DEADLINE_S", 0.2)
    client = server.client
    before = client.status()["requests"]
    port = _local_port(client)
    time.sleep(1.0)  # the server closes the idle connection at 0.2 s
    assert client.submit(_SUBMIT)["accepted"]
    assert _local_port(client) != port
    assert client.status()["requests"] == before + 1


def test_stop_returns_promptly_with_an_idle_connection():
    """The benchmark harness's shutdown: stop() from another thread
    while its client still holds an idle kept-alive connection."""
    loop = asyncio.new_event_loop()
    server = ServiceServer(config=ServiceConfig(port=0))
    started = threading.Event()

    def serve():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert started.wait(15)
    with ServiceClient(port=server.port) as client:
        assert client.healthz() == {"ok": True}
        t0 = time.monotonic()
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(1)
        assert time.monotonic() - t0 < 1
        with pytest.raises(OSError):  # closed, and nothing listens any more
            client.healthz()
    loop.call_soon_threadsafe(loop.stop)
    thread.join(5)
    assert not asyncio.all_tasks(loop)
    loop.close()


# ------------------------------------------------------ hostile bytes
@pytest.mark.parametrize(
    "head, status",
    [
        (b"POST /submit HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
        (b"POST /submit HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400),
        (b"POST /submit HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n", 413),
        (b"POST /submit HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n", 431),
        (b"GET /healthz HTTP/1.1\r\n" + b"X-H: 1\r\n" * 5000 + b"\r\n", 431),
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 431),
        (b"HELLO\r\n\r\n", 400),
    ],
    ids=["negative-length", "text-length", "huge-length", "chunked",
         "long-header", "many-headers", "long-request-line", "bad-request-line"],
)
def test_hostile_heads_get_named_errors_and_close(server, head, status):
    replies = _raw_session(server.port, head + b"GET /healthz HTTP/1.1\r\n\r\n", half_close=False)
    assert _statuses(replies) == [(status, "close")]
    body = replies[0][2]
    assert body["ok"] is False and body["error"]


@pytest.mark.parametrize(
    "data",
    [
        b"GET /heal",
        b"GET /healthz HTTP/1.1\r\nHost: x",
        b'POST /submit HTTP/1.1\r\nContent-Length: 50\r\n\r\n{"code"',
    ],
    ids=["request-line", "head", "body"],
)
def test_partial_request_gets_408_at_the_deadline(server, monkeypatch, data):
    monkeypatch.setattr(server_module, "READ_DEADLINE_S", 0.2)
    replies = _raw_session(server.port, data, half_close=False)
    assert _statuses(replies) == [(408, "close")]
    assert "0.2 s" in replies[0][2]["error"]
    # A client that closes its side mid-request gets no reply.
    assert _raw_session(server.port, data) == []


def test_idle_connection_is_closed_at_the_deadline(server, monkeypatch):
    monkeypatch.setattr(server_module, "READ_DEADLINE_S", 0.2)
    assert _raw_session(server.port, b"", half_close=False) == []
    replies = _raw_session(server.port, b"GET /healthz HTTP/1.1\r\n\r\n", half_close=False)
    assert _statuses(replies) == [(200, "keep-alive")]


_VALID_BODY = json.dumps(_SUBMIT).encode()
_VALID_REQUEST = (
    b"POST /submit HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
    b"Content-Length: %d\r\n\r\n%s" % (len(_VALID_BODY), _VALID_BODY)
)


def _hostile_bytes(pick) -> tuple[bytes, bool]:
    """Request bytes from ``pick(lo, hi)`` choices — arbitrary bytes, or
    a valid request with a few bytes replaced, inserted or cut — and
    whether to close our side after sending them."""
    if pick(0, 1):
        data = bytes(pick(0, 255) for _ in range(pick(0, 120)))
    else:
        buf = bytearray(_VALID_REQUEST)
        for _ in range(pick(1, 3)):
            pos = pick(0, len(buf))
            op = pick(0, 3)
            if op == 0:
                buf[pos:pos + 1] = bytes([pick(0, 255)])
            elif op == 1:
                buf[pos:pos] = bytes([pick(0, 255)])
            elif op == 2:
                del buf[pos:pos + pick(1, 8)]
            else:
                del buf[pos:]
        data = bytes(buf)
    return data, bool(pick(0, 1))


def _hostile_cases(fn):
    """Hypothesis draws (profile depth) or a fixed seed sweep."""
    if HAVE_HYPOTHESIS:
        return settings(
            suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow]
        )(given(case=st.data())(fn))
    return pytest.mark.parametrize("case", range(30))(fn)


def _draw_hostile(case) -> tuple[bytes, bool]:
    if HAVE_HYPOTHESIS:
        return _hostile_bytes(lambda lo, hi: case.draw(st.integers(lo, hi)))
    return _hostile_bytes(random.Random(case).randint)


@_hostile_cases
def test_any_request_bytes_get_a_named_reply_or_a_clean_close(server, monkeypatch, case):
    """Every reply is an ack or a named error below 500, a reply that
    says ``close`` is the last, and the connection closes by the
    deadline — never a 500, never a hang."""
    monkeypatch.setattr(server_module, "READ_DEADLINE_S", 0.2)
    data, half_close = _draw_hostile(case)
    replies = _raw_session(server.port, data, half_close=half_close)
    for i, (status, headers, body) in enumerate(replies):
        assert status < 500, (status, body)
        assert headers["connection"] in ("keep-alive", "close")
        if headers["connection"] == "close":
            assert i == len(replies) - 1
        if status >= 400:
            assert body["ok"] is False and isinstance(body["error"], str) and body["error"]
    assert server.client.healthz() == {"ok": True}


# --------------------------------------------------------------- client
@pytest.mark.parametrize(
    "second_reply, error",
    [(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{", ConnectionError), (None, TimeoutError)],
    ids=["partial-reply", "timeout"],
)
def test_client_never_resends_after_a_partial_reply_or_a_timeout(second_reply, error):
    listener = socket.create_server(("127.0.0.1", 0))
    ok = b'{"ok": true}'

    def serve():
        conn, _ = listener.accept()
        with conn:
            conn.recv(65536)
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(ok), ok))
            conn.recv(65536)
            if second_reply is None:
                conn.recv(65536)  # until the client gives up and closes
            else:
                conn.sendall(second_reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    with listener, ServiceClient(port=listener.getsockname()[1], timeout=0.3) as client:
        assert client.healthz() == {"ok": True}
        with pytest.raises(error):
            client.submit(_SUBMIT)
        thread.join(5)
        listener.settimeout(0.3)
        with pytest.raises(TimeoutError):  # no second connection: sent once
            listener.accept()
