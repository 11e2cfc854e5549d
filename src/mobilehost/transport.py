"""Network listeners and the HTTP rules of request classification.

Three binding kinds share one dispatcher contract: the listener frames
a request into an InboundRequest, runs the dispatcher on one of a
bounded number of workers, and writes back whatever OutboundResponse
the dispatcher returns. Listeners only frame: they never parse the
payload. The host decides what a request is (``classify_request``) and
parses it once; a classification other than "soap" carries no tree.

* ``http``: HTTP/1.1 subset — GET and POST, Content-Length required on
  POST, one request per connection. A body is framed by Content-Length
  whatever the method; a GET's is read and dropped. A header line that
  starts with whitespace or has whitespace before its colon is refused.
* ``rawTcp``: a single length-prefixed frame each way,
  ``[len: u32 big-endian][payload]``; stands in for stream transports
  without an addressing layer.
* ``loopback``: in-memory, for tests and embedding.

The ``http`` and ``rawTcp`` listeners share one connection handler and
differ only in their reader. One worker at a time waits in ``accept()``;
it serves the connection it accepts to the end and then accepts again,
so back-to-back connections run on one thread and no thread hands
connections on. Another worker takes ``accept()`` over only when that
one stalls: its peer sends nothing for a switch interval, or a watchdog
finds it on one connection for a whole tick (see ``_SocketListener``).
Workers start as stalls need them, up to the pool size, so the kernel's
accept backlog is the only queue. Requests are read through a small
buffer over ``recv`` and replies written with ``sendmsg``, head and body
never joined.
A request the reader refuses (a bad HTTP head, an oversized frame) is
answered, then the unread rest is drained, so the peer sees a FIN and
not a reset. A dispatcher that raises, even ``SystemExit``, is answered
``internal error`` and logged with its traceback; the worker lives on.

Stopping a listener is graceful: new connections are refused, requests
already accepted still get their response.
"""

from __future__ import annotations

import concurrent.futures
import io
import logging
import socket
import struct
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from .canonical import SOAP_ENV_NS, parse_xml
from .errors import BindFailure, MalformedXml, PeerGone

_log = logging.getLogger(__name__)

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

_RECV_SIZE = 65536
# pause before a worker calls accept() again after it failed
_ACCEPT_RETRY_SECONDS = 0.1
# a request or reply that moves no byte for this long ends its connection
_READ_TIMEOUT = 30
# a worker that has served one connection for a whole tick hands
# accept() on; with no new connection for _WATCH_IDLE_TICKS ticks the
# watchdog sleeps until the next one
_WATCH_TICK = 0.05
_WATCH_IDLE_TICKS = 20

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
    query: str = ""
    method: str = ""
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
    """("soap", the Envelope root element), or ("web" | "malformed", None),
    per transport semantics.

    With headers (HTTP): GET is web; a POST that declares XML (content
    type or SOAPAction) must carry an envelope, otherwise it is
    malformed; any other POST is web. ``method`` is compared as given:
    the HTTP reader has already upper-cased it. Without headers the
    payload must be an envelope outright.

    The payload is parsed at most once, and the host works on the root
    this returns instead of parsing the payload again.
    """
    if len(payload) > MAX_PAYLOAD:
        return "malformed", None
    not_envelope = "malformed"  # the class of a payload that is no envelope
    if headers is not None:
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
        root = parse_xml(payload)
    except MalformedXml:
        return not_envelope, None
    if root.tag == f"{{{SOAP_ENV_NS}}}Envelope":
        return "soap", root
    return not_envelope, None


# --- framing (rawTcp) -------------------------------------------------------


def _frame_header(length: int) -> bytes:
    if length > MAX_PAYLOAD:
        raise ValueError(f"frame exceeds {MAX_PAYLOAD} bytes")
    return _FRAME_HEADER.pack(length)


def encode_frame(payload: bytes) -> bytes:
    return _frame_header(len(payload)) + payload


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


class _SocketReader:
    """Buffered reads over a socket's ``recv``: readline(limit) and
    read(n) return what ``io.BufferedReader`` returns for the same bytes,
    without building a socket file object per connection."""

    __slots__ = ("_sock", "_buf", "_pos")

    def __init__(self, sock: socket.socket, received: bytes = b""):
        self._sock = sock
        self._buf = received  # bytes the caller already took from sock
        self._pos = 0  # bytes of _buf already returned

    def readline(self, limit: int) -> bytes:
        """Bytes through the next LF, at most limit of them; fewer at EOF."""
        buf, pos = self._buf, self._pos
        seen = pos  # bytes before this offset hold no LF
        while True:
            lf = buf.find(b"\n", seen, pos + limit)
            if lf >= 0:
                end = lf + 1
                break
            if len(buf) - pos >= limit:
                end = pos + limit
                break
            chunk = self._sock.recv(_RECV_SIZE)
            if not chunk:
                end = len(buf)
                break
            buf, pos, seen = buf[pos:] + chunk, 0, len(buf) - pos
        self._buf, self._pos = buf, end
        return buf[pos:end]

    def read(self, n: int) -> bytes:
        """n bytes; fewer at EOF."""
        buf, pos = self._buf, self._pos
        have = len(buf) - pos
        if have >= n:
            self._pos = pos + n
            return buf[pos:pos + n]
        # received straight into one buffer of the final size: bytes(n)
        # is calloc'd, so its pages take memory only as data lands in
        # them, and with the view released getvalue() hands the buffer
        # over as the bytes object instead of copying it
        body = io.BytesIO(bytes(n))
        with body.getbuffer() as view:
            view[:have] = memoryview(buf)[pos:]
            self._buf, self._pos = b"", 0
            while have < n:
                got = self._sock.recv_into(view[have:])
                if not got:
                    break
                have += got
        body.truncate(have)
        return body.getvalue()


# --- listeners ---------------------------------------------------------------

_INTERNAL_ERROR = OutboundResponse(500, "text/plain; charset=utf-8", b"internal error")


class _Refused(Exception):
    """Raised with (status, text) for a request the listener answers
    itself, without the dispatcher."""


class _Listener:
    """What every binding has: a dispatcher, a bounded set of workers
    and a graceful stop."""

    def __init__(self, cfg: BindingConfig, dispatcher: Dispatcher, pool):
        self.cfg = cfg
        self.dispatcher = dispatcher
        self.port = cfg.port
        self._pool = pool
        self._stopping = threading.Event()

    def stop(self) -> None:
        """Refuse new work, then let the work already accepted finish."""
        self._stopping.set()
        self._pool.shutdown()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


class _Threads:
    """The workers of a socket listener: one daemon thread per submit.
    Unlike a ThreadPoolExecutor's, these threads do not hold up
    interpreter exit, so a host that is never shut down does not keep
    its process waiting in accept()."""

    def __init__(self):
        self.threads = []

    def submit(self, fn, *args) -> None:
        thread = threading.Thread(target=fn, args=args, daemon=True)
        self.threads.append(thread)
        thread.start()

    def shutdown(self) -> None:
        for thread in self.threads:
            thread.join()


class _SocketListener(_Listener):
    """Workers and connection handler of the socket transports. A
    protocol supplies only ``_read_request(reader, peer)``, which returns
    an InboundRequest or raises _Refused or PeerGone.

    Leader/followers with one leader: the worker that holds accept()
    serves the connection it accepts, then accepts again. Two workers
    serving at once pass the GIL back and forth at every syscall: with
    perfbench's two plain-http connections on two workers the host
    switched context 3.9 to 4.3 times per request and spent 270 to 363
    us of CPU on each; on one worker it switched 0.12 to 0.13 times,
    spent 137 to 158 us and served 2.1 to 2.6 times the rate (30 s
    runs, 2 vCPU VM). Another worker takes accept() over only when the
    leader stalls:

    (a) the request's first bytes do not come within one switch interval
        (5 ms): the leader hands accept() on, then waits out the rest of
        the read timeout. Handing on as soon as the first recv would
        block caught 3 to 5% of plain-http connections and brought the
        switches back to 1.0 per request;
    (b) the watchdog finds the leader on one connection for a whole tick
        (50 ms): a handler that runs long or blocks, or a reply the peer
        does not read.

    Handing on clears ``_leader``, the token, and the first worker to
    reach ``_lead`` takes it: a parked worker woken for it, a new one
    started while the pool has room, or with the pool spent the next
    worker to finish a connection. So at most pool_size connections are
    served at once and the rest wait in the backlog. The watchdog ticks
    only while connections arrive and sleeps after a second without one:
    a 5 ms watchdog woken at every accept raised paced secured-tcp-open
    from 1.1 to 5.2 context switches per request, and its server CPU
    per request in 3 of 3 pairs. It is no worker and not counted in
    pool_size.

    Workers start lazily because each serving thread grows its own
    malloc arena: with all 32 started up front, perfbench RSS rose from
    51.8 to 83.3 MiB on bulk-echo-http (55.6 MiB with MALLOC_ARENA_MAX=1)
    and from 31.9 to 34.0 MiB on plain-http (10 s runs, 2 vCPU VM)."""

    def __init__(self, cfg: BindingConfig, dispatcher: Dispatcher,
                 pool_size: int = DEFAULT_POOL_SIZE):
        try:
            self._sock = socket.create_server(
                (cfg.address, cfg.port), backlog=128
            )
        except OSError as e:
            raise BindFailure(f"cannot bind {cfg.address}:{cfg.port}: {e}") from None
        super().__init__(cfg, dispatcher, _Threads())
        self.port = self._sock.getsockname()[1]
        # accept() waits for a connection or stop(), whatever
        # socket.setdefaulttimeout says
        self._sock.settimeout(None)
        self._pool_size = pool_size
        self._lock = threading.Lock()
        self._followers = threading.Condition(self._lock)  # parked workers wait here
        self._watching = threading.Condition(self._lock)  # and the watchdog here
        self._leader = None  # thread id of the worker that holds accept(); None: free
        self._parked = 0  # workers waiting in _lead for accept() to be free
        # written by the leader only: connections accepted, and the
        # number of the one it serves (None while it accepts)
        self._accepts = 0
        self._busy = None
        self._dozing = False  # the watchdog waits for a connection, not a tick
        self._watchdog = threading.Thread(target=self._watch, daemon=True)
        self._watchdog.start()
        self._pool.submit(self._work)

    def _work(self) -> None:
        me = threading.get_ident()
        while self._lead(me):
            try:
                conn, addr = self._sock.accept()
            except OSError:
                if self._stopping.is_set():
                    return  # stop() shut the socket down
                # out of file descriptors, say: the connection stays queued
                _log.exception("accept failed on the %s listener", self.kind)
                time.sleep(_ACCEPT_RETRY_SECONDS)
                continue
            self._accepts += 1
            self._busy = self._accepts
            if self._dozing:
                with self._lock:
                    self._watching.notify()
            try:
                self._serve_connection(conn, addr)
            except Exception:
                _log.exception("serving a %s connection from %s failed", self.kind, addr)

    def _lead(self, me: int) -> bool:
        """Wait until this worker holds accept(): it keeps it, takes it
        when free, or parks until then. False once the listener stops."""
        with self._lock:
            while not self._stopping.is_set():
                if self._leader in (me, None):
                    self._leader, self._busy = me, None
                    return True
                self._parked += 1
                self._followers.wait()
                self._parked -= 1
            return False

    def _hand_over(self) -> None:
        """Free accept() and call a worker to it. The lock is held."""
        self._leader = self._busy = None
        if self._parked:
            self._followers.notify()
        elif len(self._pool.threads) < self._pool_size and not self._stopping.is_set():
            self._pool.submit(self._work)

    def _watch(self) -> None:
        """Rule (b): hand accept() on when the leader has served one
        connection for a whole tick."""
        seen = None  # the connection the leader served at the last tick
        accepts, idle = 0, _WATCH_IDLE_TICKS
        with self._lock:
            while not self._stopping.is_set():
                if idle >= _WATCH_IDLE_TICKS:
                    # the leader reads _dozing after it counts a
                    # connection, so one of the two sees the other
                    self._dozing = True
                    if self._busy is None and self._accepts == accepts:
                        self._watching.wait()
                    self._dozing = False
                    idle = 0
                    continue  # stop() may be what woke it
                self._watching.wait(_WATCH_TICK)
                busy = self._busy
                if busy is not None and busy == seen:
                    self._hand_over()
                    busy = None
                seen = busy
                idle = idle + 1 if self._accepts == accepts else 0
                accepts = self._accepts

    def _await_request(self, conn: socket.socket) -> bytes:
        """The first bytes of a request. Rule (a): a peer that sends none
        within a switch interval makes this worker hand accept() on;
        then it waits out the rest of the read timeout."""
        wait = sys.getswitchinterval()
        conn.settimeout(wait)
        try:
            return conn.recv(_RECV_SIZE)
        except socket.timeout:
            with self._lock:
                if self._leader == threading.get_ident():
                    self._hand_over()
            conn.settimeout(_READ_TIMEOUT - wait)
            return conn.recv(_RECV_SIZE)
        finally:
            conn.settimeout(_READ_TIMEOUT)

    def _serve_connection(self, conn: socket.socket, addr) -> None:
        peer = f"{addr[0]}:{addr[1]}"
        try:
            with conn:
                reader = _SocketReader(conn, self._await_request(conn))
                try:
                    req = self._read_request(reader, peer)
                except _Refused as refused:
                    status, text = refused.args
                    _WRITERS[self.kind](conn, status, "text/plain; charset=utf-8",
                                        text.encode("utf-8"))
                    _drain(conn)
                    return
                req._channel = conn
                try:
                    resp = self.dispatcher(req)
                except BaseException:
                    _log.exception("dispatcher failed on a %s request from %s",
                                   self.kind, peer)
                    resp = _INTERNAL_ERROR
                send_response(req, resp.status, resp.body, resp.contentType)
        except (OSError, ValueError, PeerGone):
            pass  # peer went away or sent garbage beyond repair

    def stop(self) -> None:
        """Refuse new connections, then let the workers finish the ones
        they hold. Shutting the listening socket down wakes every worker
        in accept() (Linux returns EINVAL there)."""
        with self._lock:  # no worker starts after this
            self._stopping.set()
            self._followers.notify_all()
            self._watching.notify()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # stopped before
        self._pool.shutdown()
        self._watchdog.join()
        self._sock.close()


class HttpListener(_SocketListener):
    kind = "http"

    def _read_request(self, reader, peer: str) -> InboundRequest:
        request_line = reader.readline(MAX_LINE)
        if not request_line:
            raise PeerGone("empty request")
        if len(request_line) == MAX_LINE and not request_line.endswith(b"\n"):
            raise _Refused(414, "request line too long")
        try:
            method, target, version = request_line.decode("latin-1").strip().split(" ", 2)
        except ValueError:
            raise _Refused(400, "malformed request line")
        if not version.startswith("HTTP/1."):
            raise _Refused(400, "unsupported protocol version")
        headers = {}
        lengths = set()
        for _ in range(MAX_HEADERS + 1):
            line = reader.readline(MAX_LINE)
            if line in (b"\r\n", b"\n", b""):
                break
            if len(line) == MAX_LINE and not line.endswith(b"\n"):
                raise _Refused(431, "header line too long")
            name, sep, value = line.decode("latin-1").partition(":")
            # RFC 9112 sections 5.1 and 5.2: a proxy may read such a field
            # by another name, or as part of the line before it
            if name[:1] in (" ", "\t") or sep and name[-1:] in (" ", "\t"):
                raise _Refused(400, "whitespace around header field name")
            if sep:
                name, value = name.lower(), value.strip()
                headers[name] = value
                if name == "content-length":
                    lengths.add(value)
        else:
            raise _Refused(431, "too many header fields")
        # RFC 9112 section 6.1: a body framed both ways may be read
        # differently by a proxy, and no transfer coding is implemented
        if "transfer-encoding" in headers:
            if lengths:
                raise _Refused(400, "Transfer-Encoding with Content-Length")
            raise _Refused(501, "Transfer-Encoding is not supported")
        # RFC 9110 section 8.6: differing lengths make the message invalid
        if len(lengths) > 1:
            raise _Refused(400, "conflicting Content-Length")
        method = method.upper()
        if method not in ("GET", "POST"):
            raise _Refused(405, "only GET and POST are supported")
        if method == "POST" and "content-length" not in headers:
            raise _Refused(411, "Content-Length required")
        # a body is framed alike whatever the method (RFC 9112 section 6.3).
        # 1*DIGIT (RFC 9110 section 8.6): int() would also take "-1",
        # which reads to EOF past the payload cap, "+3" and "1_0"
        value = headers.get("content-length", "0")
        if not (value.isascii() and value.isdigit()):
            raise _Refused(400, "bad Content-Length")
        length = int(value)
        if length > MAX_PAYLOAD:
            raise _Refused(413, "payload too large")
        payload = reader.read(length)
        if len(payload) < length:
            raise PeerGone("peer closed mid-body")
        if method == "GET":
            payload = b""  # a GET body has no meaning (RFC 9110 section 9.3.1)
        path, _, query = target.partition("?")
        return InboundRequest(
            transportKind="http",
            peer=peer,
            path=path,
            headers=headers,
            payload=payload,
            query=query,
            method=method,
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

    def _read_request(self, reader, peer: str) -> InboundRequest:
        try:
            payload = read_frame(reader)
        except ValueError:
            raise _Refused(413, "frame too large") from None
        return InboundRequest(transportKind=self.kind, peer=peer, path="",
                              headers=None, payload=payload)


class LoopbackListener(_Listener):
    """In-memory binding: request() runs the payload on a bounded worker
    pool and returns the dispatcher's response."""

    kind = "loopback"

    def __init__(self, cfg: BindingConfig, dispatcher: Dispatcher,
                 pool_size: int = DEFAULT_POOL_SIZE):
        super().__init__(cfg, dispatcher,
                         concurrent.futures.ThreadPoolExecutor(max_workers=pool_size))

    def request(self, payload: bytes, path: str = "", peer: str = "loopback",
                timeout: Optional[float] = None) -> OutboundResponse:
        if self._stopping.is_set():
            raise PeerGone("listener stopped")
        req = InboundRequest(transportKind=self.kind, peer=peer, path=path,
                             headers=None, payload=payload)
        try:
            future = self._pool.submit(self.dispatcher, req)
        except RuntimeError:  # stop() shut the executor down after the check above
            raise PeerGone("listener stopped") from None
        return future.result(timeout=timeout)


_LISTENERS = {"http": HttpListener, "rawTcp": RawTcpListener, "loopback": LoopbackListener}


def start_listener(cfg: BindingConfig, dispatcher: Dispatcher,
                   pool_size: int = DEFAULT_POOL_SIZE):
    """Start the listener matching cfg.kind; raises BindFailure if the
    port is taken."""
    return _LISTENERS[cfg.kind](cfg, dispatcher, pool_size)


# --- responses ---------------------------------------------------------------


def send_response(req: InboundRequest, status: int, body: bytes,
                  content_type: str = "text/xml; charset=utf-8") -> None:
    """Write a response on the request's transport: a status line plus
    headers for http, one frame for rawTcp."""
    conn = req._channel
    if conn is None:
        raise PeerGone("request has no open channel")
    _WRITERS[req.transportKind](conn, status, content_type, body)


def _send(conn, head: bytes, body: bytes) -> None:
    """Send head, then body, without joining them into one buffer."""
    parts = [head, body]
    try:
        while parts:
            sent = conn.sendmsg(parts)
            while parts and sent >= len(parts[0]):
                sent -= len(parts.pop(0))
            if sent:
                parts[0] = memoryview(parts[0])[sent:]
    except OSError as e:
        raise PeerGone(str(e)) from None


def _http_write(conn, status: int, content_type: str, body: bytes) -> None:
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("latin-1")
    _send(conn, head, body)


def _frame_write(conn, status: int, content_type: str, body: bytes) -> None:
    # a frame carries the body only
    _send(conn, _frame_header(len(body)), body)


_WRITERS = {"http": _http_write, "rawTcp": _frame_write}
