"""Network listeners and request classification.

Three binding kinds share one dispatcher contract: the listener builds
an InboundRequest, hands it to a worker from a bounded pool, and writes
back whatever OutboundResponse the dispatcher returns.

* ``http``: HTTP/1.1 subset — GET and POST, Content-Length required on
  POST, one request per connection.
* ``rawTcp``: a single length-prefixed frame each way,
  ``[len: u32 big-endian][payload]``; stands in for stream transports
  without an addressing layer.
* ``loopback``: in-memory, for tests and embedding.

Stopping a listener is graceful: new connections are refused, requests
already accepted still get their response.
"""

from __future__ import annotations

import concurrent.futures
import socket
import struct
import threading
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Union

from .canonical import SOAP_ENV_NS, parse_xml
from .errors import BindFailure, MalformedXml, PeerGone

MAX_PAYLOAD = 16 * 1024 * 1024
DEFAULT_PORT = 5000
DEFAULT_POOL_SIZE = 32

_FRAME_HEADER = struct.Struct(">I")

# HTTP head limits: a request line or header line that fills MAX_LINE
# bytes without its line end is refused whole (RFC 9112 section 3, RFC
# 6585 section 5), as is a head with more than MAX_HEADERS fields, the
# limit http.client keeps
MAX_LINE = 8192
MAX_HEADERS = 100

# After a refusal the unread rest of the request is read and dropped, up
# to a head's worth of bytes and for at most a second: closing with
# bytes unread makes the kernel send a reset, which can destroy the
# refusal before the client reads it (RFC 9112 section 9.6)
_DRAIN_BYTES = MAX_LINE * (MAX_HEADERS + 2)
_DRAIN_SECONDS = 1.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    414: "URI Too Long",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
}


@dataclass(frozen=True)
class BindingConfig:
    kind: str  # http | rawTcp | loopback
    address: str = "127.0.0.1"
    port: int = DEFAULT_PORT

    def __post_init__(self) -> None:
        if self.kind not in ("http", "rawTcp", "loopback"):
            raise ValueError(f"unknown binding kind: {self.kind}")
        if not 1 <= self.port <= 65535:
            raise ValueError(f"port out of range: {self.port}")

    @classmethod
    def from_url(cls, url: str) -> "BindingConfig":
        """Parse CLI-style bindings: http://host:port or tcp://host:port."""
        scheme, sep, rest = url.partition("://")
        if not sep:
            raise ValueError(f"binding must look like http://host:port, got {url!r}")
        kind = {"http": "http", "tcp": "rawTcp", "loopback": "loopback"}.get(scheme)
        if kind is None:
            raise ValueError(f"unknown binding scheme: {scheme}")
        host, _, port_text = rest.partition(":")
        port = int(port_text) if port_text else DEFAULT_PORT
        return cls(kind=kind, address=host or "127.0.0.1", port=port)


@dataclass
class InboundRequest:
    transportKind: str
    peer: str
    path: str
    headers: Optional[Mapping]  # http only; None on raw transports
    payload: bytes
    classification: str  # soap | web | malformed
    query: str = ""
    method: str = ""
    # what classify_request's parse of the payload gave: the root element,
    # the MalformedXml it raised (the soap branch answers a request built
    # from such a payload with that error), or None if it did not parse
    parsed: Union[ET.Element, MalformedXml, None] = field(
        default=None, repr=False, compare=False)
    _channel: object = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class OutboundResponse:
    status: int
    contentType: str
    body: bytes


Dispatcher = Callable[[InboundRequest], OutboundResponse]


def classify_request(
    payload: bytes,
    headers: Optional[Mapping] = None,
    method: Optional[str] = None,
) -> tuple:
    """(soap | web | malformed, parsed), per transport semantics.

    With headers (HTTP): GET is web; a POST that declares XML (content
    type or SOAPAction) must carry an envelope, otherwise it is
    malformed; any other POST is web. Without headers the payload must
    be an envelope outright.

    ``parsed`` is what parsing the payload gave: its root element, the
    MalformedXml parse_xml raised, or None if the payload was not parsed.
    A soap request carries its envelope root here, and the pipeline
    works on that tree instead of parsing the payload again.
    """
    if len(payload) > MAX_PAYLOAD:
        return "malformed", None
    not_envelope = "malformed"  # the class of a payload that is no envelope
    if headers is not None:
        method = (method or "").upper()
        if method == "GET":
            return "web", None
        if method != "POST":
            return "malformed", None
        content_type = ""
        soap_action = False
        for k, v in headers.items():
            lk = k.lower()
            if lk == "content-type":
                content_type = v.lower()
            elif lk == "soapaction":
                soap_action = True
        if not ("xml" in content_type or soap_action):
            not_envelope = "web"
    try:
        parsed = parse_xml(payload)
    except MalformedXml as e:
        return not_envelope, e
    if parsed.tag == f"{{{SOAP_ENV_NS}}}Envelope":
        return "soap", parsed
    return not_envelope, parsed


# --- framing (rawTcp) -------------------------------------------------------


def encode_frame(payload: bytes) -> bytes:
    if len(payload) > MAX_PAYLOAD:
        raise ValueError(f"frame exceeds {MAX_PAYLOAD} bytes")
    return _FRAME_HEADER.pack(len(payload)) + payload


def read_frame(sock_file) -> bytes:
    """Read one frame from a binary stream; raises PeerGone at EOF and
    ValueError on an oversized declared length."""
    header = sock_file.read(_FRAME_HEADER.size)
    if len(header) < _FRAME_HEADER.size:
        raise PeerGone("peer closed before frame header")
    (length,) = _FRAME_HEADER.unpack(header)
    if length > MAX_PAYLOAD:
        raise ValueError(f"declared frame length {length} exceeds maximum")
    payload = sock_file.read(length)
    if len(payload) < length:
        raise PeerGone("peer closed mid-frame")
    return payload


# --- listeners ---------------------------------------------------------------


class _SocketListener:
    """Shared accept-loop / worker-pool plumbing for socket transports."""

    kind = ""

    def __init__(self, cfg: BindingConfig, dispatcher: Dispatcher,
                 pool_size: int = DEFAULT_POOL_SIZE):
        self.cfg = cfg
        self.dispatcher = dispatcher
        try:
            self._sock = socket.create_server(
                (cfg.address, cfg.port), backlog=128
            )
        except OSError as e:
            raise BindFailure(f"cannot bind {cfg.address}:{cfg.port}: {e}") from None
        self.port = self._sock.getsockname()[1]
        # closing a listening socket does not interrupt accept() everywhere,
        # so the acceptor polls and re-checks the stop flag
        self._sock.settimeout(0.1)
        self._pool = concurrent.futures.ThreadPoolExecutor(max_workers=pool_size)
        self._stopping = threading.Event()
        self._acceptor = threading.Thread(target=self._accept_loop, daemon=True)
        self._acceptor.start()

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # socket closed by stop()
            conn.settimeout(None)
            try:
                self._pool.submit(self._serve_connection, conn, addr)
            except RuntimeError:
                conn.close()  # pool already shut down

    def _serve_connection(self, conn: socket.socket, addr) -> None:
        raise NotImplementedError

    def stop(self) -> None:
        """Refuse new connections, then drain in-flight requests."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        try:
            self._sock.close()
        except OSError:
            pass
        self._acceptor.join(timeout=5)
        self._pool.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


class HttpListener(_SocketListener):
    kind = "http"

    def _serve_connection(self, conn: socket.socket, addr) -> None:
        conn.settimeout(30)
        peer = f"{addr[0]}:{addr[1]}"
        try:
            with conn, conn.makefile("rb") as rfile:
                status_only = self._read_request(rfile, peer)
                if isinstance(status_only, tuple):
                    status, message = status_only
                    _http_write(conn, status, "text/plain; charset=utf-8",
                                message.encode("utf-8"))
                    _drain(conn)
                    return
                req = status_only
                req._channel = conn
                try:
                    resp = self.dispatcher(req)
                except Exception:
                    resp = OutboundResponse(500, "text/plain; charset=utf-8",
                                            b"internal error")
                try:
                    send_response(req, resp.status, resp.body, resp.contentType)
                except PeerGone:
                    pass
        except (OSError, ValueError):
            pass  # peer went away or sent garbage beyond repair

    def _read_request(self, rfile, peer: str):
        request_line = rfile.readline(MAX_LINE)
        if not request_line:
            raise PeerGone("empty request")
        if len(request_line) == MAX_LINE and not request_line.endswith(b"\n"):
            return (414, "request line too long")
        try:
            method, target, version = request_line.decode("latin-1").strip().split(" ", 2)
        except ValueError:
            return (400, "malformed request line")
        if not version.startswith("HTTP/1."):
            return (400, "unsupported protocol version")
        headers = {}
        lengths = set()
        for _ in range(MAX_HEADERS + 1):
            line = rfile.readline(MAX_LINE)
            if line in (b"\r\n", b"\n", b""):
                break
            if len(line) == MAX_LINE and not line.endswith(b"\n"):
                return (431, "header line too long")
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                name, value = name.strip().lower(), value.strip()
                headers[name] = value
                if name == "content-length":
                    lengths.add(value)
        else:
            return (431, "too many header fields")
        # RFC 9112 section 6.1: a body framed both ways may be read
        # differently by a proxy, and no transfer coding is implemented
        if "transfer-encoding" in headers:
            if lengths:
                return (400, "Transfer-Encoding with Content-Length")
            return (501, "Transfer-Encoding is not supported")
        # RFC 9110 section 8.6: differing lengths make the message invalid
        if len(lengths) > 1:
            return (400, "conflicting Content-Length")
        method = method.upper()
        payload = b""
        if method == "POST":
            if "content-length" not in headers:
                return (411, "Content-Length required")
            # 1*DIGIT (RFC 9110 section 8.6): int() would also take "-1",
            # which reads to EOF past the payload cap, "+3" and "1_0"
            value = headers["content-length"]
            if not (value.isascii() and value.isdigit()):
                return (400, "bad Content-Length")
            length = int(value)
            if length > MAX_PAYLOAD:
                return (413, "payload too large")
            payload = rfile.read(length)
            if len(payload) < length:
                raise PeerGone("peer closed mid-body")
        elif method != "GET":
            return (405, "only GET and POST are supported")
        path, _, query = target.partition("?")
        classification, parsed = classify_request(payload, headers, method)
        return InboundRequest(
            transportKind="http",
            peer=peer,
            path=path,
            headers=headers,
            payload=payload,
            classification=classification,
            query=query,
            method=method,
            parsed=parsed,
        )


def _drain(conn: socket.socket) -> None:
    """Half-close, then discard what the peer still sends until it
    closes or a drain limit is reached."""
    conn.shutdown(socket.SHUT_WR)
    deadline = time.monotonic() + _DRAIN_SECONDS
    left = _DRAIN_BYTES
    while left > 0:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return
        conn.settimeout(remaining)
        chunk = conn.recv(min(left, 65536))
        if not chunk:
            return
        left -= len(chunk)


class RawTcpListener(_SocketListener):
    kind = "rawTcp"

    def _serve_connection(self, conn: socket.socket, addr) -> None:
        conn.settimeout(30)
        peer = f"{addr[0]}:{addr[1]}"
        try:
            with conn, conn.makefile("rb") as rfile:
                try:
                    payload = read_frame(rfile)
                except ValueError:
                    _frame_write(conn, b"frame too large")
                    return
                except PeerGone:
                    return
                classification, parsed = classify_request(payload)
                req = InboundRequest(
                    transportKind="rawTcp",
                    peer=peer,
                    path="",
                    headers=None,
                    payload=payload,
                    classification=classification,
                    parsed=parsed,
                    _channel=conn,
                )
                try:
                    resp = self.dispatcher(req)
                except Exception:
                    resp = OutboundResponse(500, "text/xml; charset=utf-8", b"")
                try:
                    send_response(req, resp.status, resp.body, resp.contentType)
                except PeerGone:
                    pass
        except (OSError, ValueError):
            pass


class LoopbackListener:
    """In-memory binding: request() runs the payload through the same
    worker pool and returns the dispatcher's response."""

    kind = "loopback"

    def __init__(self, cfg: BindingConfig, dispatcher: Dispatcher,
                 pool_size: int = DEFAULT_POOL_SIZE):
        self.cfg = cfg
        self.dispatcher = dispatcher
        self.port = cfg.port
        self._pool = concurrent.futures.ThreadPoolExecutor(max_workers=pool_size)
        self._stopping = threading.Event()

    def request(self, payload: bytes, path: str = "", peer: str = "loopback",
                timeout: Optional[float] = None) -> OutboundResponse:
        if self._stopping.is_set():
            raise PeerGone("listener stopped")
        classification, parsed = classify_request(payload)
        req = InboundRequest(
            transportKind="loopback",
            peer=peer,
            path=path,
            headers=None,
            payload=payload,
            classification=classification,
            parsed=parsed,
        )
        future = self._pool.submit(self.dispatcher, req)
        return future.result(timeout=timeout)

    def stop(self) -> None:
        self._stopping.set()
        self._pool.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def start_listener(cfg: BindingConfig, dispatcher: Dispatcher,
                   pool_size: int = DEFAULT_POOL_SIZE):
    """Start the listener matching cfg.kind; raises BindFailure if the
    port is taken."""
    if cfg.kind == "http":
        return HttpListener(cfg, dispatcher, pool_size)
    if cfg.kind == "rawTcp":
        return RawTcpListener(cfg, dispatcher, pool_size)
    return LoopbackListener(cfg, dispatcher, pool_size)


# --- responses ---------------------------------------------------------------


def send_response(req: InboundRequest, status: int, body: bytes,
                  content_type: str = "text/xml; charset=utf-8") -> None:
    """Write a response on the request's transport: a status line plus
    headers for http, one frame for rawTcp."""
    conn = req._channel
    if conn is None:
        raise PeerGone("request has no open channel")
    if req.transportKind == "http":
        _http_write(conn, status, content_type, body)
    else:
        _frame_write(conn, body)


def _http_write(conn, status: int, content_type: str, body: bytes) -> None:
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("latin-1")
    try:
        conn.sendall(head + body)
    except OSError as e:
        raise PeerGone(str(e)) from None


def _frame_write(conn, body: bytes) -> None:
    try:
        conn.sendall(encode_frame(body))
    except OSError as e:
        raise PeerGone(str(e)) from None
