"""Operator and consumer command line.

Commands: serve, invoke, describe, keygen, cert show, users add.
Exit codes: 0 success, 1 remote fault or failed operation, 2 usage
error, 3 I/O or network error. ``main`` maps every ``MobileHostError``
and ``OSError`` a command lets through to 3; a command returns the
other codes itself.

Key files go through ``security``: ``keygen`` and ``cert show`` use the
paths and issuer of ``KeyStore``, and ``invoke --sign`` checks its pair
with ``load_key_pair``, so a bad pair is a usage error before any traffic.
"""

from __future__ import annotations

import argparse
import fcntl
import http.client
import os
import signal
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional
from urllib.parse import urlsplit

from . import security
from .canonical import parse_xml
from .errors import (
    DuplicateUser,
    IoFailure,
    MobileHostError,
    NotSoap,
    MalformedXml,
    UnsupportedType,
    UnsupportedWsdl,
)
from .host import (
    AuthHeader,
    Host,
    HostConfig,
    auth_header_xml,
    encrypted_carrier,
    signed_envelope,
    verify_envelope_signature,
)
from .manifest import load_manifest
from .notes import NotesHandler, load_seed_file, notes_descriptor
from .registry import Registry, make_user, password_proof
from .soap import (
    SOAP_ENC_NS,
    QName,
    SoapCall,
    SoapEnvelope,
    SoapFault,
    SoapResponseBody,
    TypedValue,
    XsdType,
    make_header_entry,
    parse_envelope,
    serialize_envelope,
)
from .transport import DEFAULT_POOL_SIZE, BindingConfig
from .wsdl import parse_wsdl

EXIT_OK = 0
EXIT_FAULT = 1
EXIT_USAGE = 2
EXIT_IO = 3


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MobileHostError, OSError) as e:  # a file, the data dir or the network
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mobilehost",
        description="Run a mobile SOAP service host or talk to one.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run a host until interrupted")
    serve.add_argument("--bind", action="append", default=[],
                       help="http://host:port or tcp://host:port (repeatable)")
    serve.add_argument("--data-dir", default="data")
    serve.add_argument("--wsdl-dir", default=None)
    serve.add_argument("--web-root", default=None)
    serve.add_argument("--auth-required", action="store_true")
    serve.add_argument("--pool-size", type=int, default=DEFAULT_POOL_SIZE)
    serve.add_argument("--services", default=None, help="service manifest (JSON)")
    serve.add_argument("--demo-notes", action="store_true",
                       help="register the grades demo service")
    serve.add_argument("--demo-secure", action="store_true",
                       help="enable message security on the demo service")
    serve.add_argument("--notes-seed", default=None,
                       help="seed file for the demo service")
    serve.set_defaults(func=cmd_serve)

    invoke = sub.add_parser("invoke", help="call a method on a remote service")
    invoke.add_argument("url", help="service endpoint, e.g. http://host:5000/Svc.jws")
    invoke.add_argument("method")
    invoke.add_argument("params", nargs="*")
    invoke.add_argument("--cert", default=None,
                        help="service certificate file; verifies the response "
                             "signature and enables --encrypt")
    invoke.add_argument("--encrypt", action="store_true",
                        help="encrypt the request toward the service (needs --cert)")
    invoke.add_argument("--sign", action="store_true",
                        help="sign the request (needs --key and --signer-cert)")
    invoke.add_argument("--key", default=None, help="consumer private key file (PEM)")
    invoke.add_argument("--signer-cert", default=None,
                        help="consumer certificate file sent with a signed request")
    invoke.add_argument("--login", default=None)
    invoke.add_argument("--password", default=None)
    invoke.add_argument("--device", default="cli")
    invoke.add_argument("--timeout", type=float, default=10.0)
    invoke.set_defaults(func=cmd_invoke)

    describe = sub.add_parser("describe", help="fetch and print a service WSDL")
    describe.add_argument("url")
    describe.add_argument("--timeout", type=float, default=10.0)
    describe.set_defaults(func=cmd_describe)

    keygen = sub.add_parser("keygen", help="generate a keypair + certificate")
    keygen.add_argument("name")
    keygen.add_argument("--keys-dir", default="keys")
    keygen.add_argument("--bits", type=int, default=2048)
    keygen.add_argument("--subject", default="MobileHost/")
    keygen.add_argument("--days", type=int, default=security.DEFAULT_VALIDITY_DAYS)
    keygen.add_argument("--force", action="store_true")
    keygen.set_defaults(func=cmd_keygen)

    cert = sub.add_parser("cert", help="certificate operations")
    cert_sub = cert.add_subparsers(dest="cert_command", required=True)
    cert_show = cert_sub.add_parser("show", help="print a stored certificate")
    cert_show.add_argument("name")
    cert_show.add_argument("--keys-dir", default="keys")
    cert_show.set_defaults(func=cmd_cert_show)

    users = sub.add_parser("users", help="user database operations")
    users_sub = users.add_subparsers(dest="users_command", required=True)
    users_add = users_sub.add_parser("add", help="add a consumer login")
    users_add.add_argument("login")
    users_add.add_argument("--password", required=True)
    users_add.add_argument("--device", default="unknown")
    users_add.add_argument("--services", default="*",
                           help="comma-separated service names, or *")
    users_add.add_argument("--data-dir", default="data")
    users_add.set_defaults(func=cmd_users_add)

    return parser


# --- serve ---------------------------------------------------------------


def serve_plan(args) -> tuple:
    """(HostConfig, [(descriptor, handler), ...]) of the serve options.
    Raises ValueError on a usage error, before the data dir is touched."""
    bindings = [BindingConfig.from_url(b) for b in args.bind] or [
        BindingConfig(kind="http", address="127.0.0.1", port=5000)
    ]
    cfg = HostConfig(
        bindings=tuple(bindings),
        dataDir=Path(args.data_dir),
        wsdlDir=Path(args.wsdl_dir) if args.wsdl_dir else None,
        webRoot=Path(args.web_root) if args.web_root else None,
        authRequired=args.auth_required,
        workerPoolSize=args.pool_size,
    )
    services = load_manifest(args.services) if args.services else []
    if args.demo_notes:
        seed = load_seed_file(args.notes_seed) if args.notes_seed else None
        handler = NotesHandler(seed) if seed is not None else NotesHandler()
        services.append((notes_descriptor(args.demo_secure), handler))
    return cfg, services


def cmd_serve(args) -> int:
    stopping = False

    def request_stop(*_):
        # takes no lock: it may run between any two bytecodes of the main thread
        nonlocal stopping
        stopping = True

    # installed before start so a signal that arrives early still stops gracefully
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(sig, request_stop)
        except ValueError:
            pass  # not the main thread
    try:
        cfg, services = serve_plan(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    lock = _lock_data_dir(cfg.dataDir)
    if lock is None:
        return EXIT_IO
    try:
        host = Host(cfg)
        for descriptor, handler in services:
            host.create_service(descriptor, handler)
        host.start()
        for binding in host.cfg.bindings:
            print(f"listening on {binding.kind}://{binding.address}:{binding.port}")
        print("ready", flush=True)
        try:
            while not stopping:
                time.sleep(0.1)
        finally:
            host.shutdown()
        return EXIT_OK
    finally:
        os.close(lock)


def _lock_data_dir(data_dir: Path) -> Optional[int]:
    """Take the data dir's writer lock: an exclusive flock on
    <data_dir>/lock, held while the returned descriptor stays open.
    None, with a message on stderr, if another process holds it."""
    data_dir.mkdir(parents=True, exist_ok=True)
    fd = os.open(data_dir / "lock", os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        os.close(fd)
        print(f"error: data dir {data_dir} is in use by a running host", file=sys.stderr)
        return None
    return fd


# --- invoke ----------------------------------------------------------------


def http_request(url: str, body: Optional[bytes] = None, timeout: float = 10.0) -> tuple:
    """GET the URL, or POST body to it as a SOAP payload; returns
    (status, body bytes). A bad URL is a ValueError, a non-HTTP reply an IoFailure."""
    parts = urlsplit(url)
    if not parts.hostname:
        raise ValueError(f"no host in URL: {url}")
    target = parts.path or "/"
    if parts.query:
        target += f"?{parts.query}"
    conn = http.client.HTTPConnection(parts.hostname, parts.port or 80, timeout=timeout)
    try:
        if body is None:
            conn.request("GET", target)
        else:
            conn.request("POST", target, body=body, headers={
                "Content-Type": "text/xml; charset=utf-8", "SOAPAction": '""'})
        resp = conn.getresponse()
        return resp.status, resp.read()
    except http.client.HTTPException as e:
        raise IoFailure(f"no readable HTTP reply from {parts.netloc}: {e!r}") from None
    finally:
        conn.close()


def fetch_wsdl(url: str, timeout: float = 10.0) -> bytes:
    status, body = http_request(f"{url}?wsdl", timeout=timeout)
    if status != 200:
        raise IoFailure(f"WSDL fetch failed with status {status}")
    return body


def build_call_envelope(descriptor, method: str, params: list) -> SoapEnvelope:
    """Type positional string arguments against the WSDL signature and
    build the request envelope. Unknown methods and extra arguments travel
    as strings so the host gets to issue the fault. A method name that is
    no XML name, or an argument that does not fit its declared type, is a
    ValueError: a usage error."""
    try:
        sig = descriptor.method(method)
        specs = list(sig.params)
    except MobileHostError:
        specs = []
    typed = []
    for i, raw in enumerate(params):
        if i < len(specs):
            name, xsd_type = specs[i].name, specs[i].xsdType
        else:
            name, xsd_type = f"arg{i}", XsdType.STRING
        try:
            typed.append((name, TypedValue.parse(xsd_type, raw)))
        except MalformedXml as e:
            raise ValueError(str(e)) from None
    call = SoapCall(
        operation=QName(method, descriptor.namespaceUri),
        params=tuple(typed),
        id="o0",
        rootAttr="1",
    )
    return SoapEnvelope(body=call, encodingStyle=SOAP_ENC_NS)


def cmd_invoke(args) -> int:
    if args.encrypt and not args.cert:
        print("error: --encrypt requires --cert", file=sys.stderr)
        return EXIT_USAGE
    if args.sign and (not args.key or not args.signer_cert):
        print("error: --sign requires --key and --signer-cert", file=sys.stderr)
        return EXIT_USAGE
    # local files first: a bad one is a usage error, found before any traffic
    service_cert = None
    try:
        if args.cert:
            service_cert = security.parse_certificate_text(Path(args.cert).read_text())
        if args.sign:
            signer, signer_cert = security.load_key_pair(args.key, args.signer_cert)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        descriptor = parse_wsdl(fetch_wsdl(args.url, timeout=args.timeout))
        env = build_call_envelope(descriptor, args.method, args.params)
    except (MalformedXml, UnsupportedWsdl) as e:
        print(f"error: unusable WSDL: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:  # the URL, the method name or an argument
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE

    if args.encrypt:
        env = encrypted_carrier(serialize_envelope(env), descriptor.namespaceUri, service_cert)
    # the host reads Auth from the outermost envelope, never from ciphertext
    if args.login is not None:
        entry = make_header_entry(auth_header_xml(
            AuthHeader(args.login, password_proof(args.password or ""), args.device)
        ))
        env = replace(env, headerEntries=env.headerEntries + (entry,))
    if args.sign:
        env = signed_envelope(env, signer.privateKey,
                              security.render_certificate_text(signer_cert))
    payload = serialize_envelope(env)

    status, body = http_request(args.url, payload, timeout=args.timeout)
    try:
        root = parse_xml(body)
        envelope = parse_envelope(root)
    except (MalformedXml, NotSoap, UnsupportedType) as e:
        print(f"error: unreadable response (status {status}): {e}", file=sys.stderr)
        return EXIT_IO

    verdict_ok = True
    if service_cert is not None:
        verdict = verify_envelope_signature(root, service_cert)
        if verdict is None:
            print("signature: NONE", file=sys.stderr)
        else:
            print(f"signature: {'OK' if verdict else 'FAIL'}", file=sys.stderr)
            verdict_ok = bool(verdict)

    if isinstance(envelope.body, SoapFault):
        fault = envelope.body
        detail = f" ({fault.detail})" if fault.detail else ""
        print(f"FAULT {fault.faultcode}: {fault.faultstring}{detail}")
        return EXIT_FAULT
    if not isinstance(envelope.body, SoapResponseBody):
        print(f"error: unreadable response (status {status}): its Body is "
              "neither a response nor a fault", file=sys.stderr)
        return EXIT_IO
    print(envelope.body.result.lexical)
    return EXIT_OK if verdict_ok else EXIT_FAULT


def cmd_describe(args) -> int:
    try:
        wsdl = fetch_wsdl(args.url, timeout=args.timeout)
    except ValueError as e:  # the URL
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(wsdl.decode("utf-8"))
    return EXIT_OK


# --- key and user management --------------------------------------------------


def cmd_keygen(args) -> int:
    store = security.KeyStore(args.keys_dir)
    if store.has(args.name) and not args.force:
        print(f"error: key material for {args.name} exists (use --force)",
              file=sys.stderr)
        return EXIT_FAULT
    try:
        store.issue(args.name, args.bits, args.subject, args.days)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {store.key_path(args.name)}")
    print(f"wrote {store.cert_path(args.name)}")
    return EXIT_OK


def cmd_cert_show(args) -> int:
    sys.stdout.write(security.KeyStore(args.keys_dir).cert_path(args.name).read_text())
    return EXIT_OK


def cmd_users_add(args) -> int:
    data_dir = Path(args.data_dir)
    services = (
        {"*"}
        if args.services.strip() == "*"
        else {s.strip() for s in args.services.split(",") if s.strip()}
    )
    lock = _lock_data_dir(data_dir)
    if lock is None:
        return EXIT_FAULT
    try:
        registry = Registry.load_snapshot(data_dir)
        registry.add_user(make_user(args.login, args.password, args.device, services))
    except DuplicateUser as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAULT
    finally:
        os.close(lock)
    print(f"added user {args.login}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
