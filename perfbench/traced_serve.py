"""Run `mobilehost serve` with spans recorded around calls into each layer.

Usage: PYTHONPATH=src python3 perfbench/traced_serve.py serve [serve options]

The public functions of transport, soap, canonical, security, service,
registry, host, notes and manifest are wrapped where they are defined
and where host.py imported them; then ``mobilehost.cli.main`` runs as
usual. Each wrapped call records a span (id, name, start, end, parent
id, request id). The per-connection handler is the root span of a
request; it also records the wait between the acceptor handing the
connection to the pool and a worker starting it, the thread CPU time it
used, and counters: payload bytes in and out, faults built, and XML
parses (every ``ET.fromstring`` and ``ET.canonicalize``).

Spans stay in memory. A line ``dump <path>`` on standard input writes
them to <path> as JSON. Span times use ``time.perf_counter_ns``, the
monotonic clock the load process also reads.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import os
import sys
import threading
import time
import xml.etree.ElementTree as ET

from mobilehost import (
    canonical,
    cli,
    host,
    manifest,
    notes,
    registry,
    security,
    service,
    soap,
    transport,
)

SPANS = []  # (id, name, start ns, end ns, parent id or 0, request id)
ROOTS = []  # (id, queue wait ns or -1, thread CPU ns, counters)
_ids = itertools.count(1)
_local = threading.local()

# (module, function, span name); host.py's imported names are wrapped too
FUNCTIONS = (
    (transport, "classify_request", "transport.classify"),
    (soap, "parse_envelope", "soap.parse"),
    (soap, "serialize_envelope", "soap.serialize"),
    (soap, "make_header_entry", "soap.header_entry"),
    (canonical, "canonicalize", "canonical.canonicalize"),
    (canonical, "body_canonical", "canonical.body_canonical"),
    (security, "sign_message", "security.sign"),
    (security, "verify_signature", "security.verify"),
    (security, "parse_certificate_text", "security.cert_parse"),
    (security, "verify_certificate", "security.cert_verify"),
    (security, "render_certificate_text", "security.cert_render"),
    (security, "decrypt_message", "security.decrypt"),
    (service, "validate_call", "service.validate"),
    (service, "coerce_result", "service.coerce"),
    (host, "attach_signature", "host.attach_signature"),
)
METHODS = (
    (host.Host, "handle_request", "host.handle_request"),
    (registry.Registry, "lookup_by_path", "registry.lookup"),
    (registry.Registry, "lookup_service", "registry.lookup"),
    (registry.Registry, "append_log", "registry.append_log"),
    (registry.Registry, "check_access_proof", "registry.check_access"),
    (notes.NotesHandler, "executeMethod", "notes.execute"),
    (manifest.EchoHandler, "executeMethod", "manifest.echo_execute"),
)
CONNECTION_HANDLERS = (transport.HttpListener, transport.RawTcpListener)


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def spanned(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _stack()
        sid = next(_ids)
        parent, req = stack[-1] if stack else (0, sid)
        stack.append((sid, req))
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            SPANS.append((sid, name, start, end, parent, req))
    return wrapper


def connection(fn):
    """Root span around a per-connection handler."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        queued, _local.queued = getattr(_local, "queued", None), None
        counts = _local.counts = collections.Counter()
        stack = _stack()
        sid = next(_ids)
        stack.append((sid, sid))
        cpu = time.thread_time_ns()
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            SPANS.append((sid, "transport.conn", start, end, 0, sid))
            wait = start - queued if queued is not None else -1
            ROOTS.append((sid, wait, time.thread_time_ns() - cpu, dict(counts)))
            _local.counts = None
    return wrapper


def counted(key: str, fn, amount=None):
    """Add to a counter of the current request on every call."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts = getattr(_local, "counts", None)
        if counts is not None:
            counts[key] += amount(*args, **kwargs) if amount else 1
        return fn(*args, **kwargs)
    return wrapper


def install() -> None:
    for module, attr, name in FUNCTIONS:
        original = getattr(module, attr)
        wrapped = spanned(name, original)
        setattr(module, attr, wrapped)
        if getattr(host, attr, None) is original:
            setattr(host, attr, wrapped)
    for cls, attr, name in METHODS:
        setattr(cls, attr, spanned(name, getattr(cls, attr)))
    for cls in CONNECTION_HANDLERS:
        cls._serve_connection = connection(cls._serve_connection)

    transport.classify_request = counted(
        "bytes_in", transport.classify_request, lambda payload, *a, **k: len(payload))
    transport.send_response = counted(
        "bytes_out", transport.send_response, lambda req, status, body, *a, **k: len(body))
    soap.make_fault = host.make_fault = counted("faults", soap.make_fault)
    ET.fromstring = counted("xml_parses", ET.fromstring)
    ET.canonicalize = counted("xml_parses", ET.canonicalize)

    # queue wait: time from the acceptor's pool.submit to the worker starting
    listener_init = transport._SocketListener.__init__

    def init(self, *args, **kwargs):
        listener_init(self, *args, **kwargs)
        submit = self._pool.submit

        def timed_submit(fn, *fargs):
            queued = time.perf_counter_ns()

            def run(*a):
                _local.queued = queued
                return fn(*a)
            return submit(run, *fargs)
        self._pool.submit = timed_submit

    transport._SocketListener.__init__ = init


def dump(path: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"spans": list(SPANS), "roots": list(ROOTS)}, f)
    os.replace(tmp, path)


def _serve_dumps() -> None:
    for line in sys.stdin:
        command, _, path = line.strip().partition(" ")
        if command == "dump" and path:
            dump(path)


if __name__ == "__main__":
    install()
    threading.Thread(target=_serve_dumps, daemon=True).start()
    sys.exit(cli.main(sys.argv[1:]))
