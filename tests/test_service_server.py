"""The HTTP service: routes, cache behaviour, and error shapes.

One threaded :class:`ReproServer` per test (port 0 — the OS picks), a
plain ``http.client`` as the client, so what is exercised is exactly
what ``curl`` sees: status codes, JSON bodies, and the warm-cache
``cached`` flag flipping on the second identical request.
"""

import json
import socket
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.service.cache import open_cache
from repro.service.server import ReproServer

MAX_SQ = """\
leq :: a:Int -> b:Int -> {Bool | nu <==> a <= b}

max :: x:Int -> y:Int -> {Int | nu >= x && nu >= y && (nu == x || nu == y)}
max = ??
"""

CHECK_SQ = """\
inc :: a:Int -> {Int | nu == a + 1}

plus2 :: a:Int -> {Int | nu == a + 2}
plus2 = \\a . inc (inc a)
"""


@pytest.fixture
def server(tmp_path):
    cache, store = open_cache(str(tmp_path / "cache"))
    srv = ReproServer("127.0.0.1", 0, cache, store)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


def call(server, method, path, body=None, raw=None):
    conn = HTTPConnection("127.0.0.1", server.server_port)
    data = raw if raw is not None else (json.dumps(body).encode() if body is not None else None)
    headers = {"Content-Type": "application/json"} if data else {}
    conn.request(method, path, data, headers)
    response = conn.getresponse()
    answer = json.loads(response.read())
    conn.close()
    return response.status, answer


def raw_exchange(server, request: bytes) -> bytes:
    """Send raw bytes on one connection; everything the server answers
    before it closes the connection (or goes quiet for two seconds)."""
    with socket.create_connection(("127.0.0.1", server.server_port), timeout=2) as sock:
        sock.sendall(request)
        received = b""
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                received += chunk
        except socket.timeout:
            pass
    return received


class TestRoutes:
    def test_healthz(self, server):
        status, body = call(server, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok" and body["version"]

    def test_keep_alive_replies_without_delayed_ack_stall(self, server):
        # Headers and body go out in two writes; with Nagle's algorithm on,
        # each reply on a reused connection waits for the client's delayed
        # ACK (~40 ms), so 20 requests would take at least 800 ms.
        conn = HTTPConnection("127.0.0.1", server.server_port)
        try:
            start = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.4, f"20 keep-alive requests took {elapsed:.3f}s"

    def test_unknown_route_is_404_json(self, server):
        for method in ("GET", "POST"):
            status, body = call(server, method, "/nope", body={"x": 1})
            assert status == 404
            assert "no such route" in body["error"]

    def test_stats_reports_cache_and_worker(self, server):
        status, body = call(server, "GET", "/stats")
        assert status == 200
        assert body["cache"]["hits"] == 0
        assert body["worker"]["queries"] == 0


class TestCheckRoute:
    def test_check_accepts_and_caches(self, server):
        status, first = call(server, "POST", "/check", {"program": CHECK_SQ})
        assert status == 200
        assert not first["cached"]
        assert first["result"]["items"] == [{"name": "plus2", "status": "ok"}]
        status, second = call(server, "POST", "/check", {"program": CHECK_SQ})
        assert status == 200
        assert second["cached"]
        assert second["result"] == first["result"]
        assert second["digest"] == first["digest"]
        _, stats = call(server, "GET", "/stats")
        assert stats["cache"]["hits"] == 1
        assert stats["worker"]["queries"] == 2

    def test_unknown_body_keys_are_ignored_and_share_the_cache_entry(self, server):
        status, first = call(server, "POST", "/check", {"program": CHECK_SQ, "workers": 2})
        assert status == 200 and not first["cached"]
        status, second = call(server, "POST", "/check", {"program": CHECK_SQ})
        assert status == 200 and second["cached"]
        assert second["digest"] == first["digest"]

    def test_rejection_is_a_200_with_failures(self, server):
        bad = CHECK_SQ.replace("inc (inc a)", "inc a")
        status, body = call(server, "POST", "/check", {"program": bad})
        assert status == 200, "a refuted program is an answer, not an HTTP error"
        assert body["result"]["failures"] == 1
        assert body["result"]["items"][0]["status"] == "rejected"


class TestSynthRoute:
    def test_synth_round_trip(self, server):
        status, body = call(server, "POST", "/synth", {"program": MAX_SQ})
        assert status == 200
        item = body["result"]["items"][0]
        assert item["solved"] and item["verified"]
        assert item["program"].startswith("max = ")
        status, again = call(server, "POST", "/synth", {"program": MAX_SQ})
        assert again["cached"]
        assert again["result"] == body["result"]

    def test_recheck_serves_verified_hit(self, server):
        call(server, "POST", "/synth", {"program": MAX_SQ})
        status, body = call(server, "POST", "/synth", {"program": MAX_SQ, "recheck": True})
        assert status == 200
        assert body["cached"], "a re-checked valid entry is still a hit"

    def test_unknown_goal_is_400(self, server):
        status, body = call(server, "POST", "/synth", {"program": MAX_SQ, "only": "nonesuch"})
        assert status == 400
        assert "no signature" in body["error"]


class TestBadRequests:
    def test_malformed_json_is_400(self, server):
        status, body = call(server, "POST", "/check", raw=b"{not json")
        assert status == 400
        assert "malformed JSON" in body["error"]

    def test_missing_program_is_400(self, server):
        status, body = call(server, "POST", "/check", {"nope": 1})
        assert status == 400
        assert "missing `program`" in body["error"]

    def test_parse_error_is_400(self, server):
        status, body = call(server, "POST", "/check", {"program": "max :: Int ->"})
        assert status == 400
        assert "parse error" in body["error"]

    def test_non_integer_option_is_400(self, server):
        status, body = call(server, "POST", "/synth", {"program": MAX_SQ, "depth": "four"})
        assert status == 400
        assert "`depth` must be an integer" in body["error"]

    def test_empty_body_is_400(self, server):
        status, body = call(server, "POST", "/check")
        assert status == 400
        assert "expected a JSON body" in body["error"]

    def test_non_numeric_content_length_is_400(self, server):
        answer = raw_exchange(
            server, b"POST /check HTTP/1.1\r\nHost: x\r\nContent-Length: abc\r\n\r\n{}"
        )
        assert answer.startswith(b"HTTP/1.1 400 "), answer[:80]
        assert b"Content-Length must be a byte count" in answer

    def test_unread_body_is_never_parsed_as_a_request(self, server):
        # An oversized body is rejected unread; a request hidden inside it
        # must not be answered on the same connection.
        head = b"POST /check HTTP/1.1\r\nHost: x\r\nContent-Length: 999999999999\r\n\r\n"
        hidden = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        answer = raw_exchange(server, head + hidden)
        assert answer.startswith(b"HTTP/1.1 400 "), answer[:80]
        assert answer.count(b"HTTP/1.1 ") == 1, answer
        assert b"Connection: close" in answer
