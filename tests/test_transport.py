"""Listeners, classification, framing, concurrency and graceful stop."""

import concurrent.futures
import io
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobilehost.errors import BindFailure, MalformedXml, PeerGone
from mobilehost.transport import (
    MAX_HEADERS,
    MAX_LINE,
    BindingConfig,
    HttpListener,
    LoopbackListener,
    OutboundResponse,
    RawTcpListener,
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


def post(port: int, body: bytes, content_type=b"text/xml") -> bytes:
    raw = (
        b"POST /x HTTP/1.1\r\nHost: h\r\nContent-Type: " + content_type
        + b"\r\nContent-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
    )
    return http_exchange(port, raw)


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
        assert classify_request(b"<x/>", headers, "POST")[0] == "malformed"

    def test_soapaction_counts_as_xml_declaration(self, fig13_bytes):
        assert classify_request(fig13_bytes, {"SOAPAction": '""'}, "POST")[0] == "soap"

    def test_raw_envelope_is_soap(self):
        kind, root = classify_request(SOAP_BYTES)
        assert kind == "soap"
        assert root.tag == "{http://schemas.xmlsoap.org/soap/envelope/}Envelope"

    def test_raw_garbage_is_malformed(self):
        kind, error = classify_request(b"hello")
        assert kind == "malformed"
        assert isinstance(error, MalformedXml)

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


class TestHttpListener:
    def test_post_round_trip(self, port):
        cfg = BindingConfig(kind="http", port=port)
        with HttpListener(cfg, echo_dispatcher):
            raw = post(port, b"hello")
            assert raw.startswith(b"HTTP/1.1 200 OK\r\n")
            assert raw.endswith(b"echo:hello")

    def test_bind_conflict(self, port):
        cfg = BindingConfig(kind="http", port=port)
        with HttpListener(cfg, echo_dispatcher):
            with pytest.raises(BindFailure):
                HttpListener(cfg, echo_dispatcher)

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

    def test_differing_content_lengths_are_400(self, port):
        cfg = BindingConfig(kind="http", port=port)
        with HttpListener(cfg, echo_dispatcher):
            raw = http_exchange(port, b"POST /x HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n"
                                b"Content-Length: 10\r\n\r\n0123456789")
            assert raw.startswith(b"HTTP/1.1 400 ")
            assert raw.endswith(b"conflicting Content-Length")
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

    @pytest.mark.parametrize("head, status, message", [
        (b"GET /" + b"a" * MAX_LINE + b" HTTP/1.1\r\nHost: h\r\n\r\n",
         b"414 URI Too Long", b"request line too long"),
        (b"GET / HTTP/1.1\r\n" + b"X: y\r\n" * 20_000 + b"\r\n",
         b"431 Request Header Fields Too Large", b"too many header fields"),
    ], ids=["414", "431"])
    def test_refusal_with_head_unread_ends_in_eof_not_reset(self, port, head, status,
                                                            message):
        # the listener stops reading at the limit; closing with the rest
        # of the head unread would send a reset instead of the answer
        cfg = BindingConfig(kind="http", port=port)
        with HttpListener(cfg, echo_dispatcher):
            with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
                s.sendall(head)
                # no shutdown here: the host half-closes first
                chunks = []
                while chunk := s.recv(65536):
                    chunks.append(chunk)
            raw = b"".join(chunks)
            assert raw.startswith(b"HTTP/1.1 " + status + b"\r\n")
            assert raw.endswith(message)

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

    def test_dispatcher_crash_yields_500_response(self, port):
        def bomb(req):
            raise RuntimeError("boom")

        cfg = BindingConfig(kind="http", port=port)
        with HttpListener(cfg, bomb):
            raw = post(port, b"x")
            assert b"500" in raw.split(b"\r\n", 1)[0]

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

    def test_graceful_stop_answers_inflight(self, port):
        release = threading.Event()

        def slow(req):
            release.wait(5)
            return echo_dispatcher(req)

        cfg = BindingConfig(kind="http", port=port)
        listener = HttpListener(cfg, slow)
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            inflight = pool.submit(post, port, b"inflight")
            time.sleep(0.2)  # let the request reach the worker
            stopper = pool.submit(listener.stop)
            time.sleep(0.2)
            release.set()
            raw = inflight.result(timeout=10)
            stopper.result(timeout=10)
        assert raw.endswith(b"echo:inflight")
        with pytest.raises(OSError):
            http_exchange(port, b"GET / HTTP/1.1\r\n\r\n")


class TestRawTcpListener:
    def exchange(self, port: int, payload: bytes) -> bytes:
        with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
            s.sendall(encode_frame(payload))
            return read_frame(s.makefile("rb"))

    def test_frame_round_trip(self, port):
        cfg = BindingConfig(kind="rawTcp", port=port)
        with RawTcpListener(cfg, echo_dispatcher):
            assert self.exchange(port, SOAP_BYTES) == b"echo:" + SOAP_BYTES

    def test_bind_conflict(self, port):
        cfg = BindingConfig(kind="rawTcp", port=port)
        with RawTcpListener(cfg, echo_dispatcher):
            with pytest.raises(BindFailure):
                RawTcpListener(cfg, echo_dispatcher)

    def test_classification_travels_with_request(self, port):
        seen = {}

        def capture(req):
            seen["classification"] = req.classification
            return echo_dispatcher(req)

        cfg = BindingConfig(kind="rawTcp", port=port)
        with RawTcpListener(cfg, capture):
            self.exchange(port, b"hello")
        assert seen["classification"] == "malformed"

    def test_oversize_declared_frame_gets_error_frame(self, port):
        cfg = BindingConfig(kind="rawTcp", port=port)
        with RawTcpListener(cfg, echo_dispatcher):
            with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
                s.sendall((17 * 1024 * 1024).to_bytes(4, "big") + b"x")
                assert read_frame(s.makefile("rb")) == b"frame too large"


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
            payload=b"", classification="malformed", _channel=a,
        )
        with pytest.raises(PeerGone):
            send_response(req, 200, b"late")

    def test_no_channel_is_peer_gone(self):
        from mobilehost.transport import InboundRequest, send_response

        req = InboundRequest(
            transportKind="loopback", peer="t", path="", headers=None,
            payload=b"", classification="soap",
        )
        with pytest.raises(PeerGone):
            send_response(req, 200, b"x")
