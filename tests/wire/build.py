"""Build the wire corpus: the fixed data dir, the client key material, the
stored requests and the replies the host gives them.

Run from the repository root::

    PYTHONPATH=src:tests/wire python tests/wire/build.py

It replaces ``tests/wire/data``, ``tests/wire/client.key``,
``tests/wire/client.cert`` and ``tests/wire/corpus.json``. The test
never runs it. Regenerating the corpus is a wire change: the replies it
records become what "the same bytes" means, so a commit that
regenerates it says so in CHANGES.md, as a change to ``tests/data``
would.

What it pins down:

* certificates are issued for ``VALIDITY_DAYS``, so
  ``KeyStore.service_keys`` never renews one and ``?cert`` stays the same;
* users are ``UserRecord``s with fixed salts;
* PKCS#1 v1.5 signatures are deterministic under a fixed key, but
  encrypted requests are not, so every request is stored as bytes;
* expat's error texts reach fault strings, so the corpus records
  ``pyexpat.EXPAT_VERSION`` and the test refuses another version.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pyexpat

from mobilehost import security
from mobilehost.host import (
    AuthHeader,
    Host,
    HostConfig,
    attach_signature,
    auth_header_xml,
    encrypted_carrier,
    signed_envelope,
)
from mobilehost.manifest import EchoHandler
from mobilehost.notes import NotesHandler, notes_descriptor
from mobilehost.registry import UserRecord, password_proof
from mobilehost.security import KeyStore
from mobilehost.service import MethodSignature, ParameterSpec, ServiceDescriptor
from mobilehost.soap import (
    QName,
    SoapCall,
    SoapEnvelope,
    TypedValue,
    XsdType,
    make_header_entry,
    serialize_envelope,
)
from mobilehost.transport import BindingConfig, MAX_LINE, MAX_PAYLOAD

import replay
from replay import DATA_DIR, HERE, HOST_KINDS, TrickyHandler

VALIDITY_DAYS = 36500
ROOT = HERE.parents[1]
NOTES = "/CadastroEscolar.jws"
NOTES_NS = "http://localhost:5000/CadastroEscolar.jws"
ENCRYPTED_MARKER = '<Encrypted xmlns="urn:mobilehost:headers">true</Encrypted>'


def service(name, methods, secure=False, exclusive=False, returns=XsdType.STRING):
    return ServiceDescriptor(
        serviceName=name,
        namespaceUri=f"http://localhost:5000/{name}.jws",
        endpointPath=f"/{name}.jws",
        responseNamespaceUri=f"http://localhost:5000/{name}.jws",
        methods=tuple(
            MethodSignature(m, (ParameterSpec("text", XsdType.STRING),), returns)
            for m in methods
        ),
        securityEnabled=secure,
        exclusiveExecution=exclusive,
    )


SERVICES = (
    (notes_descriptor(True), NotesHandler()),
    (service("Tricky", ("crash", "reject", "wrongType"), secure=True), TrickyHandler()),
    (service("Orphan", ("shout",), secure=True), None),
    (service("Echo", ("echo",), exclusive=True), None),
    (service("SecureEcho", ("echo",), secure=True), None),
)


def user(login, password, allowed, salt_byte):
    salt = bytes([salt_byte]) * 16
    return UserRecord(
        login=login,
        salt=salt,
        passwordDigest=hashlib.sha256(salt + bytes.fromhex(password_proof(password))).digest(),
        deviceId="dev1",
        allowedServices=frozenset(allowed),
    )


USERS = (user("aluno1", "segredo", {"*"}, 1), user("eco", "eco-pw", {"Echo"}, 2))


def build_data_dir() -> dict:
    """Write the fixed data dir; return the certificate of each secured
    service."""
    shutil.rmtree(DATA_DIR, ignore_errors=True)
    keys = KeyStore(DATA_DIR / "keys")
    for desc, _ in SERVICES:
        if desc.securityEnabled:
            kp = security.generate_keypair()
            keys.save(desc.serviceName, kp, security.issue_certificate(
                kp, f"{desc.serviceName}/", validityDays=VALIDITY_DAYS))
    # the WSDL names the first http binding as the endpoint
    host = Host(HostConfig(bindings=(BindingConfig("http", port=5000),), dataDir=DATA_DIR))
    for desc, handler in SERVICES:
        host.create_service(desc, handler or EchoHandler(desc))
    for u in USERS:
        host.registry.add_user(u)
    return {desc.serviceName: host.service_certificate(desc.serviceName)
            for desc, _ in SERVICES if desc.securityEnabled}


def client_material():
    kp = security.generate_keypair()
    cert = security.issue_certificate(kp, "Consumer/", validityDays=VALIDITY_DAYS)
    text = security.render_certificate_text(cert)
    keys = KeyStore(HERE)
    keys.save("client", kp, cert)
    return kp, text


# --- requests ----------------------------------------------------------------


def auth(login="aluno1", password="segredo"):
    return make_header_entry(auth_header_xml(AuthHeader(login, password_proof(password), "dev1")))


def call(method="obterNotas", params=(("codAluno", "A001"), ("codDisciplina", "D002")),
         namespace=NOTES_NS, headers=(), types=None) -> SoapEnvelope:
    typed = tuple(
        (name, TypedValue.parse((types or {}).get(name, XsdType.STRING), value))
        for name, value in params
    )
    return SoapEnvelope(body=SoapCall(operation=QName(method, namespace), params=typed),
                        headerEntries=tuple(headers))


def with_headers(env: SoapEnvelope, *entries) -> SoapEnvelope:
    return replace(env, headerEntries=env.headerEntries + tuple(entries))


def echo(text, name="Echo", headers=()):
    return call("echo", (("text", text),), f"http://localhost:5000/{name}.jws", headers)


def soap_cases(certs: dict, client_key, client_cert: str) -> list:
    other = security.generate_keypair()
    fig13 = (ROOT / "tests" / "data" / "fig13_request.xml").read_bytes()
    fig14 = (ROOT / "tests" / "data" / "fig14_response.xml").read_bytes()
    notes_cert = certs["CadastroEscolar"]

    def sign(env, cert_text=client_cert, key=client_key):
        return signed_envelope(env, key.privateKey, cert_text)

    def encrypt(inner: SoapEnvelope, *outer_headers, namespace=NOTES_NS, cert=notes_cert):
        carrier = encrypted_carrier(serialize_envelope(inner), namespace, cert)
        return with_headers(carrier, *outer_headers)

    other_cert = security.render_certificate_text(
        security.issue_certificate(other, "Consumer/", validityDays=VALIDITY_DAYS))
    tricky = "http://localhost:5000/Tricky.jws"
    cases = {
        # the paper's figures, and every row of tests/test_host.py's fault matrix
        "fig13": fig13,
        "fig13_signed": attach_signature(fig13, client_key.privateKey, client_cert),
        "response_as_request": fig14,
        "missing_auth": call(),
        "unreadable_auth": call(headers=(make_header_entry(
            '<Auth xmlns="urn:mobilehost:headers"><Login>aluno1</Login></Auth>'),)),
        "unknown_path": call(namespace="http://localhost:5000/Nowhere.jws",
                             headers=(auth(),)),
        "wrong_password": call(headers=(auth(password="wrong"),)),
        "user_not_allowed": call(headers=(auth("eco", "eco-pw"),)),
        "unreadable_signature": call(headers=(auth(), make_header_entry(
            '<Signature xmlns="urn:mobilehost:headers" algorithm="RSA-SHA256" />'))),
        "bad_signature": sign(call(headers=(auth(),)), cert_text=other_cert),
        "signature_without_signer_cert": sign(call(headers=(auth(),)), cert_text=None),
        "signer_cert_bad_exponent": sign(call(headers=(auth(),)), cert_text=client_cert.replace(
            "public exponent:65537", "public exponent:4")),
        "signer_cert_signature_longer_than_modulus": sign(
            call(headers=(auth(),)),
            cert_text=client_cert.replace("Signature:\n", "Signature:\n" + "9" * 43 + "\n")),
        "signer_cert_unreadable": sign(call(headers=(auth(),)), cert_text="not a certificate"),
        "decrypt_garbage": call(
            "EncryptedRequest", (("wrappedKey", "AAAA"), ("iv", "AAAA"), ("ciphertext", "AAAA")),
            headers=(auth(), make_header_entry(ENCRYPTED_MARKER))),
        "wrong_carrier_shape": call(headers=(auth(), make_header_entry(ENCRYPTED_MARKER))),
        "unknown_method": call("nope", (), headers=(auth(),)),
        "arity": call(params=(("codAluno", "A001"),), headers=(auth(),)),
        "parameter_name": call(params=(("aluno", "A001"), ("codDisciplina", "D002")),
                               headers=(auth(),)),
        "type": call(params=(("codAluno", "7"), ("codDisciplina", "D002")),
                     types={"codAluno": XsdType.INT}, headers=(auth(),)),
        "no_handler": call("shout", (("text", "x"),), "http://localhost:5000/Orphan.jws",
                           headers=(auth(),)),
        "handler_error": call("crash", (("text", "x"),), tricky, headers=(auth(),)),
        "handler_validation_error": call("reject", (("text", "x"),), tricky, headers=(auth(),)),
        "wrong_return_type": call("wrongType", (("text", "x"),), tricky, headers=(auth(),)),
        "success": call(headers=(auth(),)),
        # signed, encrypted and both, with and without Auth
        "signed": sign(call()),
        "signed_authed": sign(call(headers=(auth(),))),
        "signed_tampered": sign(call(headers=(auth(),))),
        "encrypted": encrypt(call()),
        "encrypted_authed": encrypt(call(), auth()),
        "encrypted_signed": sign(encrypt(call())),
        "encrypted_signed_authed": sign(encrypt(call(), auth())),
        "encrypted_inner_unknown_method": encrypt(call("nope", ()), auth()),
        "encrypted_inner_not_a_call": with_headers(
            encrypted_carrier(b"<notAnEnvelope/>", NOTES_NS, notes_cert), auth()),
        "encrypted_inner_not_xml": with_headers(
            encrypted_carrier(b"not xml <", NOTES_NS, notes_cert), auth()),
        "encrypted_inner_dtd": with_headers(encrypted_carrier(
            b'<!DOCTYPE d [<!ENTITY x "Q">]>' + fig13, NOTES_NS, notes_cert), auth()),
        "encrypted_for_another_service": encrypt(call(), auth(), cert=certs["Tricky"]),
        "signed_unsecured_service": sign(echo("signed text", headers=(auth(),))),
        # text that needs escaping, on an unsecured and a secured service
        "echo_markup": echo("a < b & c > d", headers=(auth("eco", "eco-pw"),)),
        "echo_quotes": echo("]]> \"double\" 'single' &amp;", headers=(auth(),)),
        "echo_non_ascii": echo("Ação é ü — 日本", headers=(auth(),)),
        "echo_whitespace": echo("  tab\there\r\nline  ", headers=(auth(),)),
        "echo_empty": echo("", headers=(auth(),)),
        "secure_echo_markup": echo("a < b & c > d", "SecureEcho", headers=(auth(),)),
        "secure_echo_whitespace": echo("  tab\there\r\nline  ", "SecureEcho",
                                       headers=(auth(),)),
        # payloads that are not a request
        "not_xml": b"this is not xml",
        "dtd": b'<!DOCTYPE d [<!ENTITY x "Q">]>' + fig13,
        "not_an_envelope": b"<notAnEnvelope/>",
        "short_non_envelope": b"<x/>",
        "empty": b"",
        "invalid_utf8": b"<a>\xff\xfe</a>",
        "invalid_utf8_in_envelope": fig13.replace(b"A001", b"A\xc3\x28", 1),
        "unclosed_envelope": fig13[:-30],
        "wrong_envelope_namespace": fig13.replace(
            b"http://schemas.xmlsoap.org/soap/envelope/", b"urn:not-soap", 1),
        "envelope_without_body": (
            b'<SOAP-ENV:Envelope xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/"/>'),
    }
    signed_ok = serialize_envelope(cases["signed_tampered"])
    cases["signed_tampered"] = signed_ok.replace(b"A001", b"A002", 1)

    out = []
    for name, payload in cases.items():
        if isinstance(payload, SoapEnvelope):
            payload = serialize_envelope(payload)
        out.append(dict(name=name, path=_path_of(name), **_stored(payload)))
    # over a socket the listener refuses these before the host sees them
    # (the http and rawTcp sections below)
    out.append({"name": "oversized", "path": NOTES, "filler": [" ", MAX_PAYLOAD + 1],
                "transports": ["loopback"]})
    return out


def _path_of(name: str) -> str:
    if name.startswith("echo"):
        return "/Echo.jws"
    if name.startswith("secure_echo"):
        return "/SecureEcho.jws"
    for prefix, path in (("no_handler", "/Orphan.jws"), ("signed_unsecured", "/Echo.jws"),
                         ("unknown_path", "/Nowhere.jws")):
        if name.startswith(prefix):
            return path
    if name.startswith(("handler_", "wrong_return")):
        return "/Tricky.jws"
    return NOTES


def _stored(payload: bytes) -> dict:
    try:
        return {"payload": payload.decode("utf-8")}
    except UnicodeDecodeError:
        return {"payload_hex": payload.hex()}


def http_cases(fig13: bytes) -> list:
    """Whole HTTP requests, including the ones the listener refuses."""
    def post(path, body, content_type="text/xml; charset=utf-8", soap_action=True,
             length=None):
        head = f"POST {path} HTTP/1.1\r\nHost: h\r\n"
        if content_type:
            head += f"Content-Type: {content_type}\r\n"
        if soap_action:
            head += 'SOAPAction: ""\r\n'
        head += f"Content-Length: {len(body) if length is None else length}\r\n\r\n"
        return head + body.decode("latin-1")

    def get(target):
        return f"GET {target} HTTP/1.1\r\nHost: h\r\n\r\n"

    return [{"name": name, "raw": raw} for name, raw in (
        ("wsdl", get(f"{NOTES}?wsdl")),
        ("wsdl_unknown_service", get("/Nowhere.jws?wsdl")),
        ("cert", get(f"{NOTES}?cert")),
        ("cert_tricky", get("/Tricky.jws?cert")),
        ("cert_unsecured_service", get("/Echo.jws?cert")),
        ("static_index", get("/index.html")),
        ("static_root", get("/")),
        ("static_css", get("/style.css")),
        ("static_missing", get("/missing.html")),
        ("static_traversal", get("/../corpus.json")),
        ("static_service_path", get(NOTES)),
        ("soap_text_xml", post(NOTES, fig13)),
        ("soap_xml_without_soapaction", post(NOTES, fig13, soap_action=False)),
        ("soap_soap_xml", post(NOTES, fig13, "application/soap+xml", False)),
        ("soap_octet_stream_with_soapaction", post(NOTES, fig13,
                                                   "application/octet-stream")),
        ("envelope_as_octet_stream", post(NOTES, fig13, "application/octet-stream",
                                          False)),
        ("form_post", post(NOTES, b"a=1", "application/x-www-form-urlencoded", False)),
        ("form_post_not_xml", post(NOTES, b"<<<", "text/plain", False)),
        ("xml_post_not_an_envelope", post(NOTES, b"<x/>")),
        ("xml_post_not_xml", post(NOTES, b"a=1")),
        ("post_without_path_routes_by_namespace", post("/", fig13)),
        ("lowercase_method", get(f"{NOTES}?wsdl").replace("GET", "get", 1)),
        # refusals: each is answered, then the connection closes cleanly
        ("put_405", f"PUT {NOTES} HTTP/1.1\r\nContent-Length: 0\r\n\r\n"),
        ("head_405", f"HEAD {NOTES} HTTP/1.1\r\n\r\n"),
        ("bad_request_line_400", "GARBAGE\r\n\r\n"),
        ("http2_version_400", f"GET {NOTES} HTTP/2.0\r\n\r\n"),
        ("no_content_length_411", f"POST {NOTES} HTTP/1.1\r\nContent-Type: text/xml\r\n\r\n"),
        ("negative_content_length_400", post(NOTES, b"", length="-1")),
        ("conflicting_content_length_400",
         f"POST {NOTES} HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd"),
        ("chunked_501", f"POST {NOTES} HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"),
        ("chunked_with_length_400",
         f"POST {NOTES} HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\n"
         "0\r\n\r\n"),
        ("payload_too_large_413", post(NOTES, b"<x/>", length=str(MAX_PAYLOAD + 1))),
        ("request_line_too_long_414", "GET /" + "a" * MAX_LINE + " HTTP/1.1\r\n\r\n"),
        ("header_line_too_long_431",
         f"GET {NOTES} HTTP/1.1\r\nX-Long: " + "b" * MAX_LINE + "\r\n\r\n"),
        ("too_many_headers_431",
         f"GET {NOTES} HTTP/1.1\r\n" + "".join(f"X-{i}: v\r\n" for i in range(101)) + "\r\n"),
        # no answer at all, but a clean close
        ("empty_connection", ""),
        ("short_body", post(NOTES, fig13[:40], length=str(len(fig13)))),
    )]


def raw_tcp_cases() -> list:
    header = lambda n: n.to_bytes(4, "big").decode("latin-1")
    return [{"name": name, "raw": raw} for name, raw in (
        ("frame_too_large", header(MAX_PAYLOAD + 1) + "abc"),
        ("empty_connection", ""),
        ("partial_header", "\x00\x00"),
        ("truncated_frame", header(100) + "<x/>"),
        ("empty_frame", header(0)),
    )]


def main() -> int:
    certs = build_data_dir()
    client_key, client_cert = client_material()
    fig13 = (ROOT / "tests" / "data" / "fig13_request.xml").read_bytes()
    corpus = {
        "expat": pyexpat.EXPAT_VERSION,
        "soap": soap_cases(certs, client_key, client_cert),
        "http": http_cases(fig13),
        "rawTcp": raw_tcp_cases(),
    }
    with tempfile.TemporaryDirectory() as tmp:
        hosts = {kind: replay.start_host(Path(tmp) / kind, required)
                 for kind, required in HOST_KINDS.items()}
        try:
            replies = replay.replay(hosts, corpus)
        finally:
            for host in hosts.values():
                host.shutdown()
    for section, cases in replies.items():
        for case in corpus[section]:
            case["replies"] = cases[case["name"]]
    replay.CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    count = sum(len(t) for s in replies.values() for c in s.values() for t in c.values())
    print(f"wrote {replay.CORPUS}: {count} replies, {pyexpat.EXPAT_VERSION}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
