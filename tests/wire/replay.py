"""Replay of the wire corpus: start hosts on a copy of the fixed data dir,
send each stored request over its transports and record what comes back.

``build.py`` records the corpus with these functions and
``test_wire.py`` replays it with the same ones, so both read a reply the
same way: the bytes a client receives up to the host's close, their
SHA-256, the status and the request-log entries the request added.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import socket
from pathlib import Path

from mobilehost.host import Host, HostConfig
from mobilehost.manifest import EchoHandler
from mobilehost.notes import NotesHandler
from mobilehost.errors import HandlerError, ValidationError
from mobilehost.soap import TypedValue, XsdType
from mobilehost.transport import BindingConfig, encode_frame

HERE = Path(__file__).parent
DATA_DIR = HERE / "data"  # the fixed data dir; a test never writes it
WEB_ROOT = HERE / "web"
CORPUS = HERE / "corpus.json"

# open: any caller; auth: every SOAP request needs a valid Auth header
HOST_KINDS = {"open": False, "auth": True}
SOAP_TRANSPORTS = ("loopback", "http", "rawTcp")
REPLY_TIMEOUT = 10.0


class TrickyHandler:
    """Ends each call a different wrong way."""

    def executeMethod(self, methodName, args):
        if methodName == "crash":
            raise HandlerError("deliberate failure")
        if methodName == "reject":
            raise ValidationError("handler-side check")
        return TypedValue.of(XsdType.INT, 42)


def attach_handlers(host: Host) -> None:
    """The handlers of the corpus services. Orphan keeps none."""
    host.attach_handler("CadastroEscolar", NotesHandler())
    host.attach_handler("Tricky", TrickyHandler())
    for name in ("Echo", "SecureEcho"):
        host.attach_handler(name, EchoHandler(host.registry.lookup_service(name).descriptor))


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def start_host(workdir: Path, auth_required: bool) -> Host:
    """A started host on a copy of the fixed data dir, bound to loopback,
    http and rawTcp, serving the corpus web root."""
    data = workdir / "data"
    shutil.copytree(DATA_DIR, data)
    host = Host(HostConfig(
        bindings=(BindingConfig("loopback"),
                  BindingConfig("http", port=free_port()),
                  BindingConfig("rawTcp", port=free_port())),
        dataDir=data,
        webRoot=WEB_ROOT,
        authRequired=auth_required,
    ))
    attach_handlers(host)
    host.start()
    return host


def exchange(port: int, data: bytes) -> bytes:
    """Send data, half-close, and read until the host closes. A reset
    instead of a clean close raises."""
    with socket.create_connection(("127.0.0.1", port), timeout=REPLY_TIMEOUT) as sock:
        if data:
            sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def soap_post(path: str, payload: bytes) -> bytes:
    """The HTTP request a SOAP client sends for payload."""
    head = (
        f"POST {path or '/'} HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        "Content-Type: text/xml; charset=utf-8\r\n"
        'SOAPAction: ""\r\n'
        f"Content-Length: {len(payload)}\r\n\r\n"
    )
    return head.encode("latin-1") + payload


def http_status(raw: bytes):
    parts = raw.split(b" ", 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/"):
        return None
    return int(parts[1])


def record(status, raw: bytes, log) -> dict:
    return {
        "status": status,
        "length": len(raw),
        "sha256": hashlib.sha256(raw).hexdigest(),
        "log": [[e.outcome, e.serviceName, e.methodName] for e in log],
    }


def payload_of(case: dict) -> bytes:
    if "filler" in case:
        text, length = case["filler"]
        return text.encode("latin-1") * length
    if "payload_hex" in case:
        return bytes.fromhex(case["payload_hex"])
    return case["payload"].encode("utf-8")


def send(host: Host, transport: str, case: dict):
    """(status, reply bytes) of one request of case over transport."""
    if transport == "loopback":
        resp = host.listener("loopback").request(payload_of(case), path=case.get("path", ""),
                                                 timeout=REPLY_TIMEOUT)
        raw = resp.contentType.encode("latin-1") + b"\n" + resp.body
        return resp.status, raw
    port = host.listener(transport).port
    if "raw" in case:
        raw = exchange(port, case["raw"].encode("latin-1"))
    elif transport == "http":
        raw = exchange(port, soap_post(case.get("path", ""), payload_of(case)))
    else:
        raw = exchange(port, encode_frame(payload_of(case)))
    return (http_status(raw) if transport == "http" else None), raw


def replay_one(host: Host, transport: str, case: dict) -> dict:
    before = len(host.registry.log_entries())
    status, raw = send(host, transport, case)
    return record(status, raw, host.registry.log_entries()[before:])


def transports_of(section: str, case: dict) -> tuple:
    if section == "soap":
        return tuple(case.get("transports", SOAP_TRANSPORTS))
    return (section,)


def replay(hosts: dict, corpus: dict) -> dict:
    """{section: {case name: {host kind: {transport: reply record}}}}."""
    out: dict = {}
    for section in ("soap", "http", "rawTcp"):
        for case in corpus[section]:
            out.setdefault(section, {})[case["name"]] = {
                kind: {t: replay_one(host, t, case) for t in transports_of(section, case)}
                for kind, host in hosts.items()
            }
    return out


def load_corpus() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))
