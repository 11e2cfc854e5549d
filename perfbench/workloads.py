"""The workloads: data dir, serve options and prebuilt requests from a seed.

Each workload function prepares a data dir the way a device restarts: services
registered, users present and, for secured services, key material
already on disk, so no RSA key generation falls inside set-up time.
It then builds every request as bytes, with the reply each must get.
The same seed gives the same requests; ``Plan.digest`` hashes them so
two commits can be shown to get the same inputs. Signed and encrypted
requests carry fresh RSA and AES key material, so for those the digest
hashes the bytes sent with only the key-dependent text blanked
(signature value, signer certificate, wrapped key, IV, ciphertext),
plus the plain envelope inside the ciphertext. A change in how the host
code wraps a request therefore changes the digest.

The traffic mix (shares of signed, encrypted, bad and hit requests,
users, calls per visit) is an assumption, not taken from a traffic
record: the repository has none. README.md gives the reason for each
value.

Why these workloads:

* plain-http: the smallest messages, so the cost per message sets the
  rate; transport, soap and host do the work, security does none.
* secured-tcp-open: independent consumers on a schedule; RSA signing is
  the floor and re-parsing and re-canonicalizing sit above it.
* bulk-echo-http: large strings, so transport and soap work per byte
  rather than per message; security and canonical stay idle.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from cryptography.hazmat.primitives import serialization

from mobilehost import security
from mobilehost.host import (
    AuthHeader,
    Host,
    HostConfig,
    attach_signature,
    auth_header_xml,
    encrypt_request,
)
from mobilehost.manifest import load_manifest
from mobilehost.notes import NAMESPACE, NotesHandler, notes_descriptor
from mobilehost.registry import make_user, password_proof
from mobilehost.soap import (
    QName,
    SoapCall,
    SoapEnvelope,
    TypedValue,
    XsdType,
    make_header_entry,
    parse_envelope,
    serialize_envelope,
)

SOAP_ENCODING = "http://schemas.xmlsoap.org/soap/encoding/"
NOTES_PATH = "/CadastroEscolar.jws"
LABELS = ("NOTE 1", "NOTE 2", "NOTE 3", "REPLACEMENT", "FINAL TEST", "LACKS")

# Traffic-mix values below are assumptions without a traffic record;
# README.md ("Assumed traffic mix") gives the reason for each.

# plain-http: consumer visits, each a WSDL fetch and then calls
PLAIN_REQUESTS = 2000
PLAIN_CALLS_PER_VISIT = (4, 12)
PLAIN_BAD_SHARE = 0.03
HIT_SHARE = 0.8

# secured-tcp-open: Poisson arrivals at a fixed offered rate, about 19%
# of the closed-loop capacity of this mix on 2 vCPUs; at 38% the median
# latency was not steady (perfbench/README.md)
SECURED_RATE_RPS = 125.0
SECURED_POOL = 256
SIGNED_SHARE = 0.25
ENCRYPTED_SHARE = 0.25
USERS = 16

# bulk-echo-http: string sizes on a log-uniform grid from 1 KiB to 1 MiB
BULK_SIZES = tuple(round(1024 * 1024 ** (i / 63)) for i in range(64))
BULK_SPECIAL_SLOTS = (0, 2, 8, 32)  # of 256 byte values: share of '<' and '&'
BULK_CYCLES = 40
ECHO_NAMESPACE = "http://127.0.0.1:5000/Echo.jws"
ECHO_PATH = "/Echo.jws"


@dataclass
class Plan:
    transport: str  # "http" or "tcp"
    serve_options: list  # serve flags apart from --bind and --data-dir
    data_dir: Path  # prepared data dir; each host start gets a copy
    requests: list  # raw request bytes, ready for the wire
    expects: list  # one checks.py expectation per request
    order: list  # request index for each position; closed loops cycle it
    warmup: int  # requests sent before the timed phase
    probe: int  # request index that tells a host is ready
    digest: str
    schedule: Optional[list] = None  # open loop: due time (s) per position
    verify_key_pem: Optional[bytes] = None  # replies must be signed by it
    trace_requests_per_s: float = 0.0  # closed loops: fixed traced-run size


def build(name: str, seed: int, work: Path, seconds: float) -> Plan:
    """Prepare the data dir under ``work`` and build the requests.

    ``seconds`` sizes an open-loop schedule; closed loops ignore it.
    """
    factories = {
        "plain-http": plain_http,
        "secured-tcp-open": secured_tcp_open,
        "bulk-echo-http": bulk_echo_http,
    }
    if name not in factories:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(factories)}")
    work.mkdir(parents=True, exist_ok=True)
    return factories[name](random.Random(f"{name}:{seed}"), work, seconds)


# --- wire helpers -------------------------------------------------------------


def http_post(path: str, body: bytes) -> bytes:
    head = (
        f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: text/xml; charset=utf-8\r\nSOAPAction: \"\"\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    )
    return head.encode("latin-1") + body


def http_get(target: str) -> bytes:
    return f"GET {target} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n".encode()


def frame(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


def call_envelope(namespace: str, method: str, params, headers=()) -> bytes:
    call = SoapCall(
        operation=QName(method, namespace),
        params=tuple((n, TypedValue.of(XsdType.STRING, v)) for n, v in params),
        id="o0",
        rootAttr="1",
    )
    return serialize_envelope(
        SoapEnvelope(body=call, headerEntries=tuple(headers), encodingStyle=SOAP_ENCODING)
    )


# text of these elements depends on fresh key material
_KEYED = re.compile(
    rb"(<(?:[\w.-]+:)?(?:Value|SignerCert|wrappedKey|iv|ciphertext)(?:\s[^>]*)?>)[^<]*(</)"
)


def _blank_keyed(payload: bytes) -> bytes:
    """``payload`` with the text of every key-dependent element replaced by '-'."""
    return _KEYED.sub(rb"\1-\2", payload)


def _digest(parts, order, schedule=None) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    h.update(json.dumps([order, schedule]).encode())
    return h.hexdigest()


def _cycles(rng: random.Random, n: int, length: int) -> list:
    """``length`` positions walking shuffled passes over range(n), so any
    window of n positions holds a near-exact share of each request kind."""
    order = []
    while len(order) < length:
        cycle = list(range(n))
        rng.shuffle(cycle)
        order += cycle
    return order[:length]


def _prepare(data_dir: Path, services, users=()) -> Host:
    """Register services and users, then persist them as a stopped host would."""
    host = Host(HostConfig(bindings=(), dataDir=data_dir))
    for descriptor, handler in services:
        host.create_service(descriptor, handler)
    for user in users:
        host.registry.add_user(user)
    host.shutdown()
    return host


# --- grades data ---------------------------------------------------------------


def _grades(rng: random.Random, work: Path):
    """Write a seed file for the grades service; return (records, file).

    Half of the 240 student/discipline pairs have grades, 1 to 6
    records each in equal numbers, so the size of a result does not
    depend on the seed; which pairs, labels and values do.
    """
    pairs = [(f"A{s:03d}", f"D{d:03d}") for s in range(1, 41) for d in range(1, 7)]
    rng.shuffle(pairs)
    records = []
    for n, (s, d) in enumerate(pairs[: len(pairs) // 2]):
        for label in rng.sample(LABELS, n % len(LABELS) + 1):
            records.append((s, d, label, rng.randint(0, 100)))
    path = work / "notes-seed.txt"
    path.write_text("".join(f"{s};{d};{l};{v}\n" for s, d, l, v in records), encoding="utf-8")
    return records, path


def _expected_grades(records, student: str, discipline: str) -> str:
    """The grades string, rendered here from the seed data, not by the host."""
    parts = [f"{s};{d};{l};;{v}" for s, d, l, v in records if (s, d) == (student, discipline)]
    return "#" + "#".join(parts) + "#" if parts else "#"


def _pick_pair(rng: random.Random, records):
    if rng.random() < HIT_SHARE:
        s, d, _, _ = rng.choice(records)
        return s, d
    return f"Z{rng.randint(0, 999):03d}", f"D{rng.randint(1, 6):03d}"


def _result_expect(records, student: str, discipline: str) -> tuple:
    text = _expected_grades(records, student, discipline)
    return ("result", text, len(student) + len(discipline) + len(text.encode()))


# --- plain-http --------------------------------------------------------------


def plain_http(rng: random.Random, work: Path, seconds: float) -> Plan:
    records, seed_file = _grades(rng, work)
    data_dir = work / "data"
    _prepare(data_dir, [(notes_descriptor(False), NotesHandler())])
    wsdl = (data_dir / "wsdl" / "CadastroEscolar.wsdl").read_bytes()

    requests, expects = [], []
    while len(requests) < PLAIN_REQUESTS:
        requests.append(http_get(f"{NOTES_PATH}?wsdl"))
        expects.append(("wsdl", wsdl))
        for _ in range(rng.randint(*PLAIN_CALLS_PER_VISIT)):
            s, d = _pick_pair(rng, records)
            params = [("codAluno", s), ("codDisciplina", d)]
            if rng.random() >= PLAIN_BAD_SHARE:
                body = call_envelope(NAMESPACE, "obterNotas", params)
                expects.append(_result_expect(records, s, d))
            else:
                bad = rng.choice(("unknown-method", "arity", "not-xml"))
                if bad == "unknown-method":
                    body = call_envelope(NAMESPACE, "obterMedia", params)
                elif bad == "arity":
                    body = call_envelope(NAMESPACE, "obterNotas", params[:1])
                else:
                    body = call_envelope(NAMESPACE, "obterNotas", params)[:-20]
                expects.append(("fault", "Client", 400 if bad == "not-xml" else 500))
            requests.append(http_post(NOTES_PATH, body))
    order = list(range(len(requests)))
    return Plan(
        transport="http",
        serve_options=["--demo-notes", "--notes-seed", str(seed_file)],
        data_dir=data_dir,
        requests=requests,
        expects=expects,
        order=order,
        warmup=200,
        probe=1 if expects[1][0] == "result" else 0,
        digest=_digest(requests, order),
        trace_requests_per_s=1500.0,
    )


# --- secured-tcp-open ------------------------------------------------------------


def secured_tcp_open(rng: random.Random, work: Path, seconds: float) -> Plan:
    records, seed_file = _grades(rng, work)
    logins = [(f"aluno{i:02d}", f"{rng.getrandbits(64):016x}") for i in range(USERS)]
    users = [
        make_user(login, password, f"dev{i}", {"*"} if i % 2 else {"CadastroEscolar"})
        for i, (login, password) in enumerate(logins)
    ]
    data_dir = work / "data"
    host = _prepare(data_dir, [(notes_descriptor(True), NotesHandler())], users)
    service_cert = host.service_certificate("CadastroEscolar")
    cert_text = (data_dir / "keys" / "CadastroEscolar.cert").read_text()
    verify_key = security.parse_certificate_text(cert_text).public_key()
    client = security.generate_keypair()
    client_cert = security.render_certificate_text(
        security.issue_certificate(client, subjectDN="perfbench-client/")
    )

    # exact shares: SIGNED_SHARE of the pool signed, ENCRYPTED_SHARE encrypted
    wraps = ["signed"] * round(SIGNED_SHARE * SECURED_POOL)
    wraps += ["encrypted"] * round(ENCRYPTED_SHARE * SECURED_POOL)
    wraps += ["plain"] * (SECURED_POOL - len(wraps))
    rng.shuffle(wraps)
    requests, expects, hashed = [], [], []
    for wrap in wraps:
        i = rng.randrange(USERS)
        auth = make_header_entry(auth_header_xml(
            AuthHeader(logins[i][0], password_proof(logins[i][1]), f"dev{i}")
        ))
        s, d = _pick_pair(rng, records)
        params = [("codAluno", s), ("codDisciplina", d)]
        if wrap == "signed":
            payload = attach_signature(
                call_envelope(NAMESPACE, "obterNotas", params, [auth]),
                client.privateKey, client_cert,
            )
        elif wrap == "encrypted":
            inner = call_envelope(NAMESPACE, "obterNotas", params)
            carrier = parse_envelope(encrypt_request(inner, NAMESPACE, service_cert))
            payload = serialize_envelope(SoapEnvelope(
                body=carrier.body,
                headerEntries=carrier.headerEntries + (auth,),
                encodingStyle=carrier.encodingStyle,
            ))
        else:
            payload = call_envelope(NAMESPACE, "obterNotas", params, [auth])
        requests.append(frame(payload))
        expects.append(_result_expect(records, s, d))
        hashed.append(_blank_keyed(payload) + (b"\0" + inner if wrap == "encrypted" else b""))

    schedule, t = [], rng.expovariate(SECURED_RATE_RPS)
    while t < seconds:
        schedule.append(t)
        t += rng.expovariate(SECURED_RATE_RPS)
    order = _cycles(rng, SECURED_POOL, len(schedule))
    return Plan(
        transport="tcp",
        serve_options=["--demo-notes", "--demo-secure", "--auth-required",
                       "--notes-seed", str(seed_file)],
        data_dir=data_dir,
        requests=requests,
        expects=expects,
        order=order,
        warmup=100,
        probe=order[0],
        digest=_digest(hashed, order, schedule),
        schedule=schedule,
        verify_key_pem=verify_key.public_bytes(
            serialization.Encoding.PEM, serialization.PublicFormat.SubjectPublicKeyInfo
        ),
    )


# --- bulk-echo-http ------------------------------------------------------------


def _text(rng: random.Random, size: int, special_slots: int) -> str:
    """Random text of ``size`` characters; ``special_slots``/256 of them are < or &."""
    alphabet = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 "
    table = bytes(
        b"<&"[i % 2] if i < special_slots else alphabet[i % len(alphabet)]
        for i in range(256)
    )
    return rng.randbytes(size).translate(table).decode("ascii")


def bulk_echo_http(rng: random.Random, work: Path, seconds: float) -> Plan:
    manifest = work / "services.json"
    manifest.write_text(json.dumps({"services": [{
        "serviceName": "Echo",
        "namespaceUri": ECHO_NAMESPACE,
        "endpointPath": ECHO_PATH,
        "handler": "echo",
        "methods": [{"name": "echo", "params": [{"name": "text", "type": "string"}],
                     "returns": "string"}],
    }]}))
    data_dir = work / "data"
    _prepare(data_dir, load_manifest(manifest))

    requests, expects = [], []
    for i, size in enumerate(BULK_SIZES):
        # the share of < and & follows the size grid, not the seed: the
        # escaping and parsing cost of the largest strings sets the rate
        text = _text(rng, size, BULK_SPECIAL_SLOTS[i % len(BULK_SPECIAL_SLOTS)])
        requests.append(http_post(ECHO_PATH, call_envelope(ECHO_NAMESPACE, "echo", [("text", text)])))
        expects.append(("result", text, 2 * size))
    order = _cycles(rng, len(BULK_SIZES), BULK_CYCLES * len(BULK_SIZES))
    return Plan(
        transport="http",
        serve_options=["--services", str(manifest)],
        data_dir=data_dir,
        requests=requests,
        expects=expects,
        order=order,
        warmup=8,
        probe=0,
        digest=_digest(requests, order),
        trace_requests_per_s=80.0,
    )
