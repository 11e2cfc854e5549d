"""Listeners, classification, framing, concurrency and graceful stop."""

import concurrent.futures
import io
import logging
import os
import socket
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobilehost.errors import BindFailure, PeerGone
from mobilehost.transport import (
    MAX_HEADERS,
    MAX_LINE,
    BindingConfig,
    HttpListener,
    LoopbackListener,
    OutboundResponse,
    RawTcpListener,
    _SocketReader,
    classify_request,
    encode_frame,
    read_frame,
    start_listener,
)

from conftest import free_port


def echo_dispatcher(req) -> OutboundResponse:
    return OutboundResponse(200, "text/plain", b"echo:" + req.payload)


SOAP_BYTES = (
    b'<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/">'
    b"<e:Body><op><p>1</p></op></e:Body></e:Envelope>"
)


def http_exchange(port: int, raw: bytes) -> bytes:
    with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
        s.sendall(raw)
        s.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = s.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def post_request(body: bytes, content_type=b"text/xml") -> bytes:
    return (
        b"POST /x HTTP/1.1\r\nHost: h\r\nContent-Type: " + content_type
        + b"\r\nContent-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
    )


def post(port: int, body: bytes, content_type=b"text/xml") -> bytes:
    return http_exchange(port, post_request(body, content_type))


class TestBindingConfig:
    def test_from_url_http(self):
        cfg = BindingConfig.from_url("http://0.0.0.0:5000")
        assert (cfg.kind, cfg.address, cfg.port) == ("http", "0.0.0.0", 5000)

    def test_from_url_tcp(self):
        cfg = BindingConfig.from_url("tcp://127.0.0.1:5001")
        assert (cfg.kind, cfg.address, cfg.port) == ("rawTcp", "127.0.0.1", 5001)

    def test_default_port(self):
        assert BindingConfig.from_url("http://somehost").port == 5000

    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            BindingConfig.from_url("gopher://x:1")

    def test_port_range(self):
        with pytest.raises(ValueError):
            BindingConfig(kind="http", port=0)


class TestClassify:
    def test_xml_post_with_envelope_is_soap(self, fig13_bytes):
        headers = {"Content-Type": "text/xml; charset=utf-8"}
        kind, root = classify_request(fig13_bytes, headers, "POST")
        assert kind == "soap"
        assert root.tag == "{http://schemas.xmlsoap.org/soap/envelope/}Envelope"

    def test_get_is_web(self):
        assert classify_request(b"", {}, "GET") == ("web", None)

    def test_non_envelope_plain_post_is_web(self):
        headers = {"Content-Type": "application/x-www-form-urlencoded"}
        assert classify_request(b"a=1", headers, "POST")[0] == "web"

    def test_xml_post_without_envelope_is_malformed(self):
        headers = {"Content-Type": "text/xml"}
        assert classify_request(b"<x/>", headers, "POST") == ("malformed", None)

    def test_soapaction_counts_as_xml_declaration(self, fig13_bytes):
        assert classify_request(fig13_bytes, {"SOAPAction": '""'}, "POST")[0] == "soap"

    def test_raw_envelope_is_soap(self):
        kind, root = classify_request(SOAP_BYTES)
        assert kind == "soap"
        assert root.tag == "{http://schemas.xmlsoap.org/soap/envelope/}Envelope"

    def test_raw_garbage_is_malformed(self):
        assert classify_request(b"hello") == ("malformed", None)

    def test_oversize_is_malformed(self):
        assert classify_request(b"x" * (16 * 1024 * 1024 + 1)) == ("malformed", None)


class TestFraming:
    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=4096))
    def test_round_trip(self, payload):
        assert read_frame(io.BytesIO(encode_frame(payload))) == payload

    def test_large_frame_round_trip(self):
        payload = b"\xab" * (4 * 1024 * 1024)
        assert read_frame(io.BytesIO(encode_frame(payload))) == payload

    def test_oversize_encode_rejected(self):
        with pytest.raises(ValueError):
            encode_frame(b"x" * (16 * 1024 * 1024 + 1))

    def test_oversize_declared_length_rejected(self):
        bad = (17 * 1024 * 1024).to_bytes(4, "big") + b"x"
        with pytest.raises(ValueError):
            read_frame(io.BytesIO(bad))

    def test_truncated_frame_is_peer_gone(self):
        with pytest.raises(PeerGone):
            read_frame(io.BytesIO(encode_frame(b"abcdef")[:-2]))


class ChunkedEnd:
    """The reading end of a socketpair whose recv calls stop at the
    sender's write boundaries, so each chunk arrives on its own."""

    def __init__(self, sock, chunks):
        self.sock = sock
        self.left = [len(c) for c in chunks]

    def cap(self, n):
        return min(n, self.left[0]) if self.left else n

    def took(self, got):
        if self.left:
            self.left[0] -= got
            if not self.left[0]:
                self.left.pop(0)
        return got

    def recv(self, n):
        data = self.sock.recv(self.cap(n))
        self.took(len(data))
        return data

    def recv_into(self, view):
        return self.took(self.sock.recv_into(view, self.cap(len(view))))


def apply(reader, ops) -> list:
    """The result of each op on reader; an exception counts by its type."""
    results = []
    for op, n in ops:
        try:
            if op == "frame":
                results.append(read_frame(reader))
            else:
                results.append(getattr(reader, op)(n))
        except (PeerGone, ValueError) as e:
            results.append(type(e))
    return results


# lines around the read limit, with and without their LF, a bare LF,
# short binary text and frame headers that declare more than follows
stream_piece = st.one_of(
    st.sampled_from([MAX_LINE - 1, MAX_LINE, MAX_LINE + 1]).flatmap(
        lambda n: st.sampled_from([b"h" * (n - 1) + b"\n", b"h" * n])),
    st.just(b"\n"),
    st.binary(max_size=40),
    st.integers(0, 200).map(lambda n: n.to_bytes(4, "big")),
)
reader_op = st.one_of(
    st.tuples(st.just("readline"), st.sampled_from([0, 1, 7, MAX_LINE - 1, MAX_LINE, MAX_LINE + 1])),
    st.tuples(st.just("read"), st.integers(0, 3 * MAX_LINE)),
    st.tuples(st.just("frame"), st.just(0)),
)


class TestSocketReader:
    """The listener's reader returns what io.BufferedReader returns for
    the same bytes, however the sender splits them."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_same_results_as_buffered_reader(self, data):
        stream = b"".join(data.draw(st.lists(stream_piece, max_size=6)))
        cuts = sorted(set(data.draw(st.lists(st.integers(1, max(1, len(stream))), max_size=8))))
        bounds = [0] + [c for c in cuts if c < len(stream)] + [len(stream)]
        chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]
        ops = data.draw(st.lists(reader_op, min_size=1, max_size=8))
        expected = apply(io.BufferedReader(io.BytesIO(stream)), ops)
        a, b = socket.socketpair()
        with a, b:
            for chunk in chunks:
                a.sendall(chunk)
            a.shutdown(socket.SHUT_WR)
            assert apply(_SocketReader(ChunkedEnd(b, chunks)), ops) == expected

    def test_long_body_arrives_whole_as_bytes(self):
        body = bytes(range(256)) * 4096  # 1 MiB
        a, b = socket.socketpair()
        with a, b:
            sender = threading.Thread(target=a.sendall, args=(b"x\n" + body,))
            sender.start()
            reader = _SocketReader(b)
            assert reader.readline(MAX_LINE) == b"x\n"
            got = reader.read(len(body))
            sender.join(timeout=5)
            assert not sender.is_alive()
        assert type(got) is bytes and got == body


class TestLoopback:
    def test_request_response_in_process(self):
        with start_listener(BindingConfig(kind="loopback"), echo_dispatcher) as listener:
            resp = listener.request(b"ping")
            assert resp.body == b"echo:ping"

    def test_stopped_listener_refuses(self):
        listener = start_listener(BindingConfig(kind="loopback"), echo_dispatcher)
        listener.stop()
        with pytest.raises(PeerGone):
            listener.request(b"ping")

    def test_request_racing_stop_is_peer_gone(self):
        # request() checks the stop flag and then submits; a stop() in
        # between made the executor raise RuntimeError
        listener = start_listener(BindingConfig(kind="loopback"), echo_dispatcher)
        listener.stop()
        listener._stopping.clear()  # the flag as request() saw it before stop()
        with pytest.raises(PeerGone, match="listener stopped"):
            listener.request(b"ping")


def plain_reply(status: bytes, text: bytes) -> bytes:
    """The bytes of an HTTP reply the listener writes itself."""
    return (b"HTTP/1.1 " + status + b"\r\nContent-Type: text/plain; charset=utf-8\r\n"
            b"Content-Length: %d\r\nConnection: close\r\n\r\n" % len(text) + text)


def wait_until(condition, seconds: float = 2) -> bool:
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


def context_switches(status_path: str) -> int:
    """Voluntary plus involuntary context switches of one thread."""
    with open(status_path) as f:
        return sum(int(line.split()[1]) for line in f
                   if line.startswith(("voluntary_ctxt_switches", "nonvoluntary_ctxt_switches")))


def read_to_eof(port: int, raw: bytes) -> bytes:
    """Send raw without half-closing, then read until the host closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
        s.sendall(raw)
        chunks = []
        while chunk := s.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class SocketListenerContract:
    """Behaviour the http and rawTcp listeners share. A subclass names
    the kind, sends one request with ``exchange`` and gives the exact
    bytes of the replies the listener writes itself."""

    kind = ""
    internal_error = b""  # the reply to a dispatcher that raises

    def listen(self, port: int, dispatcher, pool_size=32):
        return start_listener(BindingConfig(kind=self.kind, port=port), dispatcher,
                              pool_size)

    def test_bind_conflict(self, port):
        with self.listen(port, echo_dispatcher):
            with pytest.raises(BindFailure):
                self.listen(port, echo_dispatcher)

    def test_dispatcher_crash_yields_500_response(self, port):
        def bomb(req):
            raise RuntimeError("boom")

        with self.listen(port, bomb):
            assert self.exchange(port, b"x") == self.internal_error

    def test_dispatcher_crash_is_logged(self, port, caplog):
        def bomb(req):
            raise RuntimeError("boom")

        with self.listen(port, bomb):
            self.exchange(port, b"x")
        errors = [r for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1
        assert "boom" in logging.Formatter().formatException(errors[0].exc_info)

    def test_refusal_with_head_unread_ends_in_eof_not_reset(self, port, refusal):
        # the listener stops reading at the limit; closing with the rest
        # of the request unread would send a reset instead of the answer
        request, reply = refusal
        with self.listen(port, echo_dispatcher):
            # no shutdown here: the host half-closes first
            assert read_to_eof(port, request) == reply

    def test_peer_closed_before_request_is_no_error(self, port):
        # an error escaping the handler would reach the worker's backstop
        # log; a peer that left first must be closed quietly instead
        with self.listen(port, echo_dispatcher) as listener:
            conn, peer = socket.socketpair()
            peer.close()
            assert listener._serve_connection(conn, ("127.0.0.1", 1)) is None
            assert conn.fileno() == -1

    def test_graceful_stop_answers_inflight(self, port):
        release = threading.Event()

        def slow(req):
            release.wait(5)
            return echo_dispatcher(req)

        listener = self.listen(port, slow)
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            inflight = pool.submit(self.exchange, port, b"inflight")
            time.sleep(0.2)  # let the request reach the worker
            stopper = pool.submit(listener.stop)
            time.sleep(0.2)
            release.set()
            raw = inflight.result(timeout=10)
            stopper.result(timeout=10)
        assert raw.endswith(b"echo:inflight")
        with pytest.raises(OSError):
            self.exchange(port, b"late")


    def test_stop_after_a_burst_ends_every_worker(self, port):
        pool_size = 8
        with self.listen(port, echo_dispatcher, pool_size) as listener:
            with concurrent.futures.ThreadPoolExecutor(max_workers=pool_size) as pool:
                replies = list(pool.map(lambda i: self.exchange(port, b"%d" % i),
                                        range(pool_size)))
            assert all(r.endswith(b"echo:%d" % i) for i, r in enumerate(replies))
            assert 1 <= len(listener._pool.threads) <= pool_size
            start = time.monotonic()
            listener.stop()
            assert time.monotonic() - start < 1
            assert not any(t.is_alive() for t in listener._pool.threads)
            assert not listener._watchdog.is_alive()

    def test_stop_ends_parked_workers_and_the_watchdog(self, port):
        with self.listen(port, echo_dispatcher, 4) as listener:
            # an idle peer makes its worker hand accept() on; once the
            # peer leaves, that worker parks
            with socket.create_connection(("127.0.0.1", port), timeout=5):
                assert self.exchange(port, b"x").endswith(b"echo:x")
            assert wait_until(lambda: listener._parked >= 1)
            start = time.monotonic()
            listener.stop()
            assert time.monotonic() - start < 1
            assert not any(t.is_alive() for t in listener._pool.threads)
            assert not listener._watchdog.is_alive()

    def test_worker_outlives_a_failed_accept(self, port, monkeypatch, caplog):
        # accept() can fail on a live socket (out of file descriptors);
        # the worker logs it and accepts again instead of ending
        accept = socket.socket.accept
        failures = [OSError(24, "Too many open files")]

        def flaky(sock):
            if failures:
                raise failures.pop()
            return accept(sock)

        monkeypatch.setattr(socket.socket, "accept", flaky)
        with self.listen(port, echo_dispatcher):
            assert self.exchange(port, b"late").endswith(b"echo:late")
        assert any("accept failed" in r.getMessage() for r in caplog.records)

    def test_worker_outlives_a_failing_handler(self, port, monkeypatch, caplog):
        with self.listen(port, echo_dispatcher, 1) as listener:
            def broken(reader, peer):
                monkeypatch.undo()
                raise RuntimeError("reader bug")

            monkeypatch.setattr(listener, "_read_request", broken)
            # closed unanswered: a reset, or a FIN once the request was read
            try:
                reply = self.exchange(port, b"first")
            except (OSError, PeerGone):
                reply = b""
            assert reply == b""
            assert self.exchange(port, b"second").endswith(b"echo:second")
        assert any("reader bug" in logging.Formatter().formatException(r.exc_info)
                   for r in caplog.records if r.exc_info)

    def test_worker_outlives_a_dispatcher_that_exits(self, port, caplog):
        # SystemExit is no Exception: it ended the worker unanswered, and
        # with every worker gone the next request waited forever
        def exiting(req):
            if req.payload == b"exit":
                sys.exit(3)
            return echo_dispatcher(req)

        with self.listen(port, exiting, 2):
            for _ in range(3):  # more than the pool has workers
                assert self.exchange(port, b"exit") == self.internal_error
            assert self.exchange(port, b"after").endswith(b"echo:after")
        assert sum(r.levelno == logging.ERROR for r in caplog.records) == 3

    def test_sequential_requests_start_at_most_two_workers(self, port):
        # one worker serves back-to-back connections; the watchdog is the
        # other thread
        with self.listen(port, echo_dispatcher, 32) as listener:
            for i in range(3):
                assert self.exchange(port, b"%d" % i).endswith(b"echo:%d" % i)
            assert len(listener._pool.threads) + 1 <= 2

    def test_blocked_handler_does_not_stop_the_host(self, port):
        # the watchdog hands accept() on from a worker stuck in a handler
        entered, release = threading.Event(), threading.Event()

        def blocking(req):
            if req.payload == b"block":
                entered.set()
                release.wait(10)
            return echo_dispatcher(req)

        with self.listen(port, blocking, 4):
            with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
                try:
                    blocked = pool.submit(self.exchange, port, b"block")
                    assert entered.wait(5)
                    start = time.monotonic()
                    assert self.exchange(port, b"next").endswith(b"echo:next")
                    assert time.monotonic() - start < 1
                finally:
                    release.set()
                assert blocked.result(timeout=5).endswith(b"echo:block")
            assert self.exchange(port, b"after").endswith(b"echo:after")

    def test_idle_sockets_do_not_stop_the_host(self, port):
        # each idle peer's worker hands accept() on after a switch interval
        with self.listen(port, echo_dispatcher, 4):
            idle = [socket.create_connection(("127.0.0.1", port), timeout=5)
                    for _ in range(3)]
            try:
                start = time.monotonic()
                assert self.exchange(port, b"x").endswith(b"echo:x")
                assert time.monotonic() - start < 1
            finally:
                for s in idle:
                    s.close()

    def test_large_requests_after_a_stall_are_each_answered(self, port):
        # a hand-over that recounted instead of passing accept() on left
        # no worker in accept(): the third of these requests hung
        body = bytes(range(256)) * 4096  # 1 MiB
        with self.listen(port, echo_dispatcher, 4) as listener:
            with socket.create_connection(("127.0.0.1", port), timeout=5):
                assert self.exchange(port, b"x").endswith(b"echo:x")
            assert len(listener._pool.threads) >= 2
            for _ in range(5):
                assert self.exchange(port, body).endswith(b"echo:" + body)

    def test_large_reply_to_a_slow_reader_arrives_whole(self, port):
        # the short first wait covers reading the request, not the reply
        body = bytes(range(256)) * (4 * 4096)  # 4 MiB

        def large(req):
            return OutboundResponse(200, "application/octet-stream", body)

        with self.listen(port, large):
            with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
                s.sendall(self.request_bytes(b"x"))
                time.sleep(0.2)
                chunks = []
                while chunk := s.recv(65536):
                    chunks.append(chunk)
        reply = b"".join(chunks)
        assert reply.endswith(body) and len(reply) - len(body) < 200

    def test_idle_listener_watchdog_sleeps(self, port):
        with self.listen(port, echo_dispatcher) as listener:
            status = f"/proc/self/task/{listener._watchdog.native_id}/status"
            if not os.path.exists(status):
                pytest.skip("no /proc to count context switches")
            assert self.exchange(port, b"x").endswith(b"echo:x")  # wakes it
            time.sleep(1.2)  # it dozes after a second with no connection
            before = context_switches(status)
            time.sleep(2)
            assert context_switches(status) - before <= 5


class TestHttpListener(SocketListenerContract):
    kind = "http"
    internal_error = plain_reply(b"500 Internal Server Error", b"internal error")

    def exchange(self, port: int, payload: bytes) -> bytes:
        return post(port, payload)

    def request_bytes(self, payload: bytes) -> bytes:
        return post_request(payload)

    @pytest.fixture(params=[
        (b"GET /" + b"a" * MAX_LINE + b" HTTP/1.1\r\nHost: h\r\n\r\n",
         plain_reply(b"414 URI Too Long", b"request line too long")),
        (b"GET / HTTP/1.1\r\n" + b"X: y\r\n" * 20_000 + b"\r\n",
         plain_reply(b"431 Request Header Fields Too Large", b"too many header fields")),
    ], ids=["414", "431"])
    def refusal(self, request):
        return request.param

    def test_post_round_trip(self, port):
        cfg = BindingConfig(kind="http", port=port)
        with HttpListener(cfg, echo_dispatcher):
            raw = post(port, b"hello")
            assert raw.startswith(b"HTTP/1.1 200 OK\r\n")
            assert raw.endswith(b"echo:hello")

    def test_post_without_length_is_411(self, port):
        cfg = BindingConfig(kind="http", port=port)
        with HttpListener(cfg, echo_dispatcher):
            raw = http_exchange(port, b"POST /x HTTP/1.1\r\nHost: h\r\n\r\n")
            assert b"411" in raw.split(b"\r\n", 1)[0]

    def test_content_length_must_be_digits(self, port):
        # int() took "-1" (a read to EOF, past the payload cap), "+3" and "1_0"
        cfg = BindingConfig(kind="http", port=port)
        with HttpListener(cfg, echo_dispatcher):
            with socket.create_connection(("127.0.0.1", port), timeout=1) as s:
                s.sendall(b"POST /x HTTP/1.1\r\nHost: h\r\nContent-Length: -1\r\n\r\nabc")
                # the socket stays open for writing: the reply must not wait for EOF
                assert s.recv(65536).startswith(b"HTTP/1.1 400 ")
            for value in (b"1_0", b"+3", b" 3 3", b"0x3", b"\xb3"):
                raw = http_exchange(port, b"POST /x HTTP/1.1\r\nHost: h\r\n"
                                    b"Content-Length: " + value + b"\r\n\r\n0123456789")
                assert raw.startswith(b"HTTP/1.1 400 "), value
                assert raw.endswith(b"bad Content-Length"), value
            assert post(port, b"ok").endswith(b"echo:ok")

    def test_split_get_body_ends_in_eof_not_reset(self, port):
        # RFC 9112 section 6.3 frames a GET's body as a POST's: served
        # from its head alone, the connection closed with the body unread
        def slow(req):
            time.sleep(0.1)  # the body arrives while the reply is made
            return echo_dispatcher(req)

        with self.listen(port, slow):
            with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
                s.sendall(b"GET /x HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\n")
                time.sleep(0.01)
                s.sendall(b"hello")
                chunks = []
                while chunk := s.recv(65536):
                    chunks.append(chunk)
        # the body is read, not handed on
        assert b"".join(chunks).endswith(b"\r\n\r\necho:")

    @pytest.mark.parametrize("value, status, text", [
        (b"-1", b"400 Bad Request", b"bad Content-Length"),
        (b"%d" % (16 * 1024 * 1024 + 1), b"413 Payload Too Large", b"payload too large"),
    ], ids=["400", "413"])
    def test_get_content_length_is_checked(self, port, value, status, text):
        with self.listen(port, echo_dispatcher):
            raw = http_exchange(port, b"GET /x HTTP/1.1\r\nHost: h\r\n"
                                b"Content-Length: " + value + b"\r\n\r\n")
        assert raw == plain_reply(status, text)

    def test_differing_content_lengths_are_400(self, port):
        cfg = BindingConfig(kind="http", port=port)
        with HttpListener(cfg, echo_dispatcher):
            raw = http_exchange(port, b"POST /x HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n"
                                b"Content-Length: 10\r\n\r\n0123456789")
            assert raw.startswith(b"HTTP/1.1 400 ")
            assert raw.endswith(b"conflicting Content-Length")

    # RFC 9112 section 5.1 (whitespace before the colon) and 5.2 (a line
    # that starts with whitespace): each was honoured, so a proxy that
    # skips or joins the line could frame the body by another length
    @pytest.mark.parametrize("fields", [
        b"Content-Length : 10",
        b"Content-Length\t: 10",
        b" Content-Length: 10",
        b"\tContent-Length: 10",
        b"Content-Length: 10\r\nX-Note: a\r\n b",
    ], ids=["space before colon", "tab before colon", "space before name",
            "tab before name", "folded line"])
    def test_whitespace_around_field_name_is_400(self, port, fields):
        cfg = BindingConfig(kind="http", port=port)
        with HttpListener(cfg, echo_dispatcher):
            raw = http_exchange(port, b"POST /x HTTP/1.1\r\nHost: h\r\n" + fields
                                + b"\r\n\r\n0123456789")
            assert raw.startswith(b"HTTP/1.1 400 ")
            assert raw.endswith(b"whitespace around header field name")
            # a repeated equal value is one length
            raw = http_exchange(port, b"POST /x HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n"
                                b"Content-Length: 3\r\n\r\nabc")
            assert raw.startswith(b"HTTP/1.1 200 ") and raw.endswith(b"echo:abc")

    def test_transfer_encoding_is_refused(self, port):
        # a proxy may frame such a body by the other header
        cfg = BindingConfig(kind="http", port=port)
        with HttpListener(cfg, echo_dispatcher):
            raw = http_exchange(port, b"POST /x HTTP/1.1\r\nHost: h\r\nContent-Length: 10\r\n"
                                b"Transfer-Encoding: chunked\r\n\r\n0123456789")
            assert raw.startswith(b"HTTP/1.1 400 ")
            assert raw.endswith(b"Transfer-Encoding with Content-Length")
            raw = http_exchange(port, b"POST /x HTTP/1.1\r\nHost: h\r\n"
                                b"Transfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n")
            assert raw.startswith(b"HTTP/1.1 501 Not Implemented\r\n")

    def test_long_header_line_is_431(self, port):
        # the line is refused whole: its bytes past the read limit, which
        # spell a header here, are never read as a further header line
        cfg = BindingConfig(kind="http", port=port)
        with HttpListener(cfg, echo_dispatcher):
            pad = b"X-Pad: " + b"a" * (MAX_LINE - 7) + b"Transfer-Encoding: chunked\r\n"
            raw = http_exchange(port, b"POST /x HTTP/1.1\r\nHost: h\r\n" + pad
                                + b"Content-Length: 2\r\n\r\nok")
            assert raw.startswith(b"HTTP/1.1 431 Request Header Fields Too Large\r\n")
            assert raw.endswith(b"header line too long")
            # one byte less leaves room for the line end
            pad = b"X-Pad: " + b"a" * (MAX_LINE - 9) + b"\r\n"
            raw = http_exchange(port, b"POST /x HTTP/1.1\r\nHost: h\r\n" + pad
                                + b"Content-Length: 2\r\n\r\nok")
            assert raw.startswith(b"HTTP/1.1 200 ") and raw.endswith(b"echo:ok")

    @pytest.mark.parametrize("fields, status", [
        (MAX_HEADERS, b"200"), (MAX_HEADERS + 1, b"431"), (150, b"431")])
    def test_header_field_count_is_limited(self, port, fields, status):
        cfg = BindingConfig(kind="http", port=port)
        with HttpListener(cfg, echo_dispatcher):
            head = b"POST /x HTTP/1.1\r\nHost: h\r\nContent-Length: 2\r\n"
            head += b"".join(b"X-F%d: v\r\n" % i for i in range(fields - 2))
            raw = http_exchange(port, head + b"\r\nok")
            assert raw.split(b"\r\n", 1)[0] == b"HTTP/1.1 " + status + b" " + (
                b"OK" if status == b"200" else b"Request Header Fields Too Large")

    def test_long_request_line_is_414(self, port):
        cfg = BindingConfig(kind="http", port=port)
        with HttpListener(cfg, echo_dispatcher):
            # a line that fills the read limit and nothing after it: bytes
            # left unread would turn the close into a reset
            raw = http_exchange(port, b"GET /" + b"a" * (MAX_LINE - 5))
            assert raw.startswith(b"HTTP/1.1 414 URI Too Long\r\n")
            assert raw.endswith(b"request line too long")

    def test_garbage_request_line_is_400(self, port):
        cfg = BindingConfig(kind="http", port=port)
        with HttpListener(cfg, echo_dispatcher):
            raw = http_exchange(port, b"NONSENSE\r\n\r\n")
            assert b"400" in raw.split(b"\r\n", 1)[0]

    def test_unsupported_method_is_405(self, port):
        cfg = BindingConfig(kind="http", port=port)
        with HttpListener(cfg, echo_dispatcher):
            raw = http_exchange(port, b"DELETE /x HTTP/1.1\r\nHost: h\r\n\r\n")
            assert b"405" in raw.split(b"\r\n", 1)[0]

    def test_fifty_simultaneous_requests(self, port):
        cfg = BindingConfig(kind="http", port=port)
        with HttpListener(cfg, echo_dispatcher, pool_size=32):
            with concurrent.futures.ThreadPoolExecutor(max_workers=50) as pool:
                futures = [
                    pool.submit(post, port, f"req-{i}".encode()) for i in range(50)
                ]
                bodies = [f.result(timeout=10) for f in futures]
            for i, raw in enumerate(bodies):
                assert raw.endswith(f"echo:req-{i}".encode())

    def test_worker_count_survives_a_stress_burst(self, port):
        # the accept() token and the parked count are shared; a lost
        # update would leave a worker neither accepting nor parked
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with HttpListener(BindingConfig(kind="http", port=port), echo_dispatcher,
                              pool_size=4) as listener:
                with concurrent.futures.ThreadPoolExecutor(max_workers=12) as pool:
                    replies = list(pool.map(lambda i: post(port, b"%d" % i), range(120)))
                assert all(r.endswith(b"echo:%d" % i) for i, r in enumerate(replies))

                def settled():
                    workers = {t.ident for t in listener._pool.threads}
                    return (listener._leader in workers
                            and listener._parked == len(workers) - 1)

                assert wait_until(settled)
                assert len(listener._pool.threads) <= 4
        finally:
            sys.setswitchinterval(interval)

    def test_worker_isolation(self, port):
        def selective_bomb(req):
            if req.payload == b"bad":
                raise RuntimeError("boom")
            return echo_dispatcher(req)

        cfg = BindingConfig(kind="http", port=port)
        with HttpListener(cfg, selective_bomb):
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(post, port, b"bad" if i % 2 else b"ok")
                    for i in range(8)
                ]
                results = [f.result(timeout=10) for f in futures]
            for i, raw in enumerate(results):
                expected = b"500" if i % 2 else b"200"
                assert expected in raw.split(b"\r\n", 1)[0]


class TestRawTcpListener(SocketListenerContract):
    kind = "rawTcp"
    internal_error = b"internal error"

    def exchange(self, port: int, payload: bytes) -> bytes:
        with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
            s.sendall(encode_frame(payload))
            with s.makefile("rb") as rfile:
                return read_frame(rfile)

    def request_bytes(self, payload: bytes) -> bytes:
        return encode_frame(payload)

    @pytest.fixture(params=[
        ((17 * 1024 * 1024).to_bytes(4, "big") + b"x" * 70_000,
         encode_frame(b"frame too large")),
    ], ids=["413"])
    def refusal(self, request):
        return request.param

    def test_frame_round_trip(self, port):
        cfg = BindingConfig(kind="rawTcp", port=port)
        with RawTcpListener(cfg, echo_dispatcher):
            assert self.exchange(port, SOAP_BYTES) == b"echo:" + SOAP_BYTES

    def test_oversize_declared_frame_gets_error_frame(self, port):
        cfg = BindingConfig(kind="rawTcp", port=port)
        with RawTcpListener(cfg, echo_dispatcher):
            with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
                s.sendall((17 * 1024 * 1024).to_bytes(4, "big") + b"x")
                with s.makefile("rb") as rfile:
                    assert read_frame(rfile) == b"frame too large"


class TestSendResponse:
    def test_oversize_http_post_rejected_immediately(self, port):
        cfg = BindingConfig(kind="http", port=port)
        with HttpListener(cfg, echo_dispatcher):
            head = (
                b"POST /x HTTP/1.1\r\nHost: h\r\nContent-Type: text/xml\r\n"
                b"Content-Length: 17825792\r\n\r\n"
            )
            raw = http_exchange(port, head)  # no body ever sent
            assert b"413" in raw.split(b"\r\n", 1)[0]

    def test_peer_gone_on_closed_channel(self):
        from mobilehost.transport import InboundRequest, send_response

        a, b = socket.socketpair()
        a.close()
        b.close()
        req = InboundRequest(
            transportKind="rawTcp", peer="t", path="", headers=None,
            payload=b"", _channel=a,
        )
        with pytest.raises(PeerGone):
            send_response(req, 200, b"late")

    def test_no_channel_is_peer_gone(self):
        from mobilehost.transport import InboundRequest, send_response

        req = InboundRequest(
            transportKind="loopback", peer="t", path="", headers=None,
            payload=b"",
        )
        with pytest.raises(PeerGone):
            send_response(req, 200, b"x")
