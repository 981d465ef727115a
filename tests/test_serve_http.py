"""The daemon's HTTP/1.1 framing on a real socket, and interop both ways.

Raw-socket tests pin down what the daemon answers to requests it
cannot serve: bad or conflicting ``Content-Length``, methods and
transfer codings it does not speak, and ``Expect: 100-continue``.
Interop tests run stdlib clients (``http.client``, ``urllib``)
against the daemon and :class:`ServeConnection` against a stdlib
``http.server`` stub, so the lean framing on either end still talks to
the standard library on the other.  The idle-timeout tests show that a
silent connection no longer pins a handler thread.
"""

import http.client
import http.server
import io
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs.spans import TRACE_HEADER, format_header, parse_header
from repro.serve import CacheDaemon, ServeConnection, SlamError
from repro.serve import server as serve_server
from repro.serve.scenario import Scenario


def tiny_scenario() -> Scenario:
    return Scenario(capacity=100, group_size=4, events=500, seed=3)


def drain(sock):
    """Read until the daemon closes or the socket times out in silence.

    Returns (bytes read, closed by the daemon).
    """
    chunks = []
    while True:
        try:
            chunk = sock.recv(65536)
        except socket.timeout:
            return b"".join(chunks), False
        if not chunk:
            return b"".join(chunks), True
        chunks.append(chunk)


def exchange(daemon, data: bytes, timeout: float = 5.0):
    """Send ``data`` on a fresh socket and :func:`drain` the replies."""
    with socket.create_connection((daemon.host, daemon.port), timeout=timeout) as sock:
        sock.sendall(data)
        return drain(sock)


class _Unclosable(io.BytesIO):
    def close(self):  # HTTPResponse closes its file after each body
        pass


class _Replay:
    """Just enough of a socket for ``http.client.HTTPResponse``."""

    def __init__(self, data: bytes):
        self.file = _Unclosable(data)

    def makefile(self, mode):
        return self.file


def responses(data: bytes):
    """Parse every response in ``data`` with the stdlib parser."""
    replay = _Replay(data)
    parsed = []
    while replay.file.tell() < len(data):
        response = http.client.HTTPResponse(replay)
        response.begin()
        parsed.append((response.status, response.headers, response.read()))
    return parsed


def request(method: str, path: str, body: bytes = b"", *fields: str) -> bytes:
    head = [f"{method} {path} HTTP/1.1", "Host: test", *fields]
    if body and not any(f.lower().startswith("content-length") for f in fields):
        head.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


FETCH = json.dumps({"files": ["a", "b"]}).encode()


class TestFramingErrors:
    @pytest.mark.parametrize(
        "fields",
        [
            ("Content-Length: abc",),
            ("Content-Length: -1",),
            ("Content-Length: 5", "Content-Length: 6"),
        ],
        ids=["non-numeric", "negative", "conflicting-duplicates"],
    )
    def test_bad_content_length_is_400_and_closes(self, fields):
        with CacheDaemon(tiny_scenario()) as daemon:
            started = time.monotonic()
            data, closed = exchange(daemon, request("POST", "/fetch", FETCH, *fields))
            assert time.monotonic() - started < 3.0
            stats = daemon.stats_payload()
        [(status, headers, body)] = responses(data)
        assert status == 400
        assert json.loads(body)["status"] == 400
        assert "Content-Length" in json.loads(body)["error"]
        assert headers["Connection"] == "close"
        assert closed
        assert stats["errors"] == 1
        assert stats["endpoints"]["fetch"]["statuses"] == {"400": 1}

    def test_identical_duplicate_content_length_is_accepted(self):
        length = f"Content-Length: {len(FETCH)}"
        with CacheDaemon(tiny_scenario()) as daemon:
            data, closed = exchange(
                daemon, request("POST", "/fetch", FETCH, length, length), timeout=0.5
            )
        [(status, _headers, body)] = responses(data)
        assert status == 200 and json.loads(body)["count"] == 2
        assert not closed

    @pytest.mark.parametrize("method", ["PUT", "DELETE", "PATCH", "HEAD"])
    def test_unsupported_method_is_structured_501(self, method):
        with CacheDaemon(tiny_scenario()) as daemon:
            data, closed = exchange(daemon, request(method, "/fetch", FETCH))
        [(status, headers, body)] = responses(data)
        assert status == 501
        assert json.loads(body) == {
            "error": f"method {method} is not supported",
            "status": 501,
        }
        assert headers["Content-Type"] == "application/json"
        assert closed

    def test_transfer_encoding_is_501_and_chunks_are_not_a_request(self):
        chunked = (
            b"POST /fetch HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"5\r\nGET /\r\n0\r\n\r\n"
        )
        with CacheDaemon(tiny_scenario()) as daemon:
            data, closed = exchange(daemon, chunked)
            stats = daemon.stats_payload()
        [(status, headers, body)] = responses(data)
        assert status == 501
        assert json.loads(body)["status"] == 501
        assert "Transfer-Encoding" in json.loads(body)["error"]
        assert closed
        assert sum(stats["requests"].values()) == 1

    def test_oversized_body_is_413_without_reading_it(self):
        with CacheDaemon(tiny_scenario()) as daemon:
            data, closed = exchange(
                daemon,
                request("POST", "/fetch", b"", "Content-Length: 999999999"),
            )
        [(status, _headers, body)] = responses(data)
        assert status == 413 and json.loads(body)["status"] == 413
        assert closed

    def test_malformed_request_line_is_structured_400(self):
        with CacheDaemon(tiny_scenario()) as daemon:
            data, closed = exchange(daemon, b"NONSENSE\r\n\r\n")
        [(status, _headers, body)] = responses(data)
        assert status == 400 and json.loads(body)["status"] == 400
        assert closed

    def test_expect_100_continue_gets_an_interim_reply(self):
        big = json.dumps({"files": [f"file{i:05d}" for i in range(200)]}).encode()
        assert len(big) > 1024
        with CacheDaemon(tiny_scenario()) as daemon, socket.create_connection(
            (daemon.host, daemon.port), timeout=0.5
        ) as sock:
            sock.sendall(request("POST", "/fetch", b"", f"Content-Length: {len(big)}",
                                 "Expect: 100-continue"))
            interim, _closed = drain(sock)
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(big)
            reply, _closed = drain(sock)
        [(status, _headers, body)] = responses(reply)
        assert status == 200
        assert json.loads(body)["count"] == 200

    def test_pipelined_requests_answer_in_order_on_one_connection(self):
        data = request("POST", "/open", b'{"file": "a"}') + request(
            "POST", "/open", b'{"file": "a"}'
        ) + request("GET", "/healthz")
        with CacheDaemon(tiny_scenario()) as daemon:
            raw, closed = exchange(daemon, data, timeout=0.5)
        parsed = responses(raw)
        assert [status for status, _h, _b in parsed] == [200, 200, 200]
        assert json.loads(parsed[0][2])["hit"] is False
        assert json.loads(parsed[1][2])["hit"] is True
        assert json.loads(parsed[2][2])["ok"] is True
        assert not closed

    def test_get_with_a_body_keeps_the_stream_in_step(self):
        data = request("GET", "/healthz", b"ignored") + request("GET", "/healthz")
        with CacheDaemon(tiny_scenario()) as daemon:
            raw, _closed = exchange(daemon, data, timeout=0.5)
        assert [status for status, _h, _b in responses(raw)] == [200, 200]

    def test_every_response_is_written_in_one_send(self, monkeypatch):
        sends = []
        with CacheDaemon(tiny_scenario()) as daemon:
            real = daemon._dispatch

            def counting(head, rfile, send):
                def recording(data):
                    sends.append(data)
                    send(data)
                return real(head, rfile, recording)

            monkeypatch.setattr(daemon, "_dispatch", counting)
            with ServeConnection(daemon.url) as conn:
                conn.fetch(["a", "b"])
                conn.request("GET", "/nope", expect_error=True)
        assert len(sends) == 2
        assert all(b"\r\n\r\n" in data and data.endswith(b"}") for data in sends)


class TestStdlibClientsAgainstDaemon:
    def test_http_client_keep_alive_trace_echo_and_date(self):
        from repro.obs.spans import SpanBuffer

        buffer = SpanBuffer(process="serve")
        with CacheDaemon(tiny_scenario(), spans=buffer) as daemon:
            conn = http.client.HTTPConnection(daemon.host, daemon.port, timeout=10)
            try:
                conn.request("POST", "/fetch", body=FETCH, headers={
                    "Content-Type": "application/json",
                    TRACE_HEADER: format_header("abc123", "def456"),
                })
                first = conn.getresponse()
                body = json.loads(first.read())
                sock = conn.sock
                conn.request("GET", "/healthz")
                second = conn.getresponse()
                second.read()
                assert conn.sock is sock  # the same keep-alive connection
            finally:
                conn.close()
        assert first.status == 200 and body["count"] == 2
        assert first.getheader("Content-Type") == "application/json"
        assert first.getheader("Date").endswith(" GMT")
        assert parse_header(first.getheader(TRACE_HEADER))[0] == "abc123"
        assert second.status == 200

    def test_urllib_round_trip(self):
        with CacheDaemon(tiny_scenario()) as daemon:
            with urllib.request.urlopen(daemon.url + "/healthz", timeout=10) as reply:
                assert json.loads(reply.read())["ok"] is True
            posted = urllib.request.Request(
                daemon.url + "/fetch", data=FETCH,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(posted, timeout=10) as reply:
                assert json.loads(reply.read())["count"] == 2
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(daemon.url + "/nope", timeout=10)
            assert caught.value.code == 404
            assert json.loads(caught.value.read())["status"] == 404

    def test_http_1_0_request_is_answered_then_closed(self):
        with CacheDaemon(tiny_scenario()) as daemon:
            data, closed = exchange(daemon, b"GET /healthz HTTP/1.0\r\n\r\n")
        [(status, headers, body)] = responses(data)
        assert status == 200 and json.loads(body)["ok"] is True
        assert headers["Connection"] == "close"
        assert closed

    def test_http_1_0_keep_alive_stays_open(self):
        with CacheDaemon(tiny_scenario()) as daemon:
            data, closed = exchange(
                daemon,
                b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
                timeout=0.5,
            )
        assert responses(data)[0][0] == 200
        assert not closed


class _Stub(http.server.BaseHTTPRequestHandler):
    """A stdlib server standing in for the daemon; records what it saw."""

    protocol_version = "HTTP/1.1"
    seen = []
    reply = None

    def _answer(self):
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length)
        self.seen.append(
            (self.command, self.path, dict(self.headers), body, self.client_address[1])
        )
        status, fields, payload = type(self).reply
        self.send_response(status)
        for name, value in fields:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)
        if ("Connection", "close") in fields:
            self.close_connection = True

    do_GET = do_POST = _answer

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass


@pytest.fixture
def stub():
    _Stub.seen = []
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def json_reply(payload, *extra):
    body = json.dumps(payload).encode()
    return 200, [("Content-Type", "application/json"),
                 ("Content-Length", str(len(body))), *extra], body


class TestServeConnectionAgainstStdlibServer:
    def test_requests_are_well_formed_and_reuse_the_connection(self, stub):
        _server, url = stub
        _Stub.reply = json_reply({"count": 2, "hits": 1})
        with ServeConnection(url) as conn:
            body = conn.fetch(["a", "b"], client="w0",
                              headers={TRACE_HEADER: "t1:s1"})
            _status, stats = conn.request("GET", "/stats?since=4")
        assert body == {"count": 2, "hits": 1}
        assert stats == {"count": 2, "hits": 1}
        (method, path, fields, sent, port), (method2, path2, fields2, _b, port2) = _Stub.seen
        assert (method, path, method2, path2) == ("POST", "/fetch", "GET", "/stats?since=4")
        assert json.loads(sent) == {"files": ["a", "b"], "client": "w0"}
        assert fields["Content-Type"] == "application/json"
        assert fields["Host"] == url.split("//")[1]
        assert fields[TRACE_HEADER] == "t1:s1"
        assert "Content-Type" not in fields2
        assert port == port2  # one keep-alive connection
        assert conn.retries == 0

    def test_connection_close_is_honoured_without_a_retry(self, stub):
        _server, url = stub
        _Stub.reply = json_reply({"ok": True}, ("Connection", "close"))
        with ServeConnection(url) as conn:
            conn.request("GET", "/healthz")
            conn.request("GET", "/healthz")
        assert len({seen[4] for seen in _Stub.seen}) == 2
        assert conn.retries == 0

    def test_body_delimited_by_close_from_an_http_1_0_server(self, stub):
        _server, url = stub
        _Stub.protocol_version = "HTTP/1.0"
        try:
            _Stub.reply = (200, [("Content-Type", "application/json")], b'{"ok": true}')
            with ServeConnection(url) as conn:
                assert conn.request("GET", "/healthz")[1] == {"ok": True}
                assert conn.request("GET", "/healthz")[1] == {"ok": True}
        finally:
            _Stub.protocol_version = "HTTP/1.1"

    @pytest.mark.parametrize(
        "reply",
        [
            (200, [("Transfer-Encoding", "chunked")], b"2\r\n{}\r\n0\r\n\r\n"),
            (200, [("Content-Length", "abc")], b"{}"),
            (200, [("Content-Length", "50"), ("Connection", "close")], b"{}"),
        ],
        ids=["chunked", "bad-length", "short-body"],
    )
    def test_framing_violations_raise_slam_error(self, stub, reply):
        _server, url = stub
        _Stub.reply = reply
        with ServeConnection(url, timeout=5) as conn:
            with pytest.raises(SlamError, match="failed"):
                conn.request("GET", "/healthz")
        assert conn.retries == 0

    def test_error_status_is_folded_into_slam_error(self, stub):
        _server, url = stub
        body = json.dumps({"error": "nope", "status": 404}).encode()
        _Stub.reply = (404, [("Content-Length", str(len(body)))], body)
        with ServeConnection(url) as conn:
            with pytest.raises(SlamError, match="404: 'nope'"):
                conn.request("GET", "/missing")
            assert conn.request("GET", "/missing", expect_error=True) == (
                404, {"error": "nope", "status": 404},
            )


def _handler_threads(before):
    """Threads started since ``before``: the daemon's connection handlers."""
    return [thread for thread in threading.enumerate() if thread not in before]


class TestIdleTimeout:
    def test_half_open_request_is_dropped_and_its_thread_exits(self, monkeypatch):
        monkeypatch.setattr(serve_server, "IDLE_TIMEOUT_S", 0.3)
        with CacheDaemon(tiny_scenario()) as daemon:
            before = set(threading.enumerate())
            with socket.create_connection((daemon.host, daemon.port), timeout=5) as sock:
                sock.sendall(b"GET /heal")
                deadline = time.monotonic() + 2
                while not _handler_threads(before) and time.monotonic() < deadline:
                    time.sleep(0.01)
                handlers = _handler_threads(before)
                assert len(handlers) == 1
                started = time.monotonic()
                assert sock.recv(1024) == b""  # closed, without a reply
                assert time.monotonic() - started < 3.0
            handlers[0].join(timeout=5)
            assert not handlers[0].is_alive()
            # The daemon still serves new connections.
            with ServeConnection(daemon.url) as conn:
                assert conn.request("GET", "/healthz")[1]["ok"] is True

    def test_retry_once_covers_a_keep_alive_connection_the_daemon_closed(
        self, monkeypatch
    ):
        monkeypatch.setattr(serve_server, "IDLE_TIMEOUT_S", 0.2)
        with CacheDaemon(tiny_scenario()) as daemon:
            with ServeConnection(daemon.url) as conn:
                assert conn.fetch(["a"])["count"] == 1
                time.sleep(0.6)  # the daemon drops the idle connection
                assert conn.fetch(["b"])["count"] == 1
                assert conn.retries == 1
            assert daemon.accesses == 2
