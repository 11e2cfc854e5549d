"""Acceptance gate: one test per criterion, each at its stated
tolerance, printing one PASS line when it holds.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import concurrent.futures
import random
import re
import subprocess
import sys
import threading
import time

import pytest

from mobilehost.canonical import canonicalize
from mobilehost.cli import http_request
from mobilehost.errors import HandlerError
from mobilehost.host import verify_envelope_signature
from mobilehost.notes import NotesHandler, notes_descriptor
from mobilehost.registry import Registry, make_user
from mobilehost.security import (
    decrypt_message,
    encrypt_message,
    issue_certificate,
    render_certificate_text,
    sign_message,
    verify_signature,
)
from mobilehost.service import MethodSignature, ParameterSpec, ServiceDescriptor
from mobilehost.soap import (
    QName,
    SoapCall,
    SoapEnvelope,
    SoapFault,
    TypedValue,
    XsdType,
    parse_envelope,
    serialize_envelope,
)
from mobilehost.transport import BindingConfig, InboundRequest
from mobilehost.wsdl import generate_wsdl, parse_wsdl

from conftest import free_port, make_host
from strategies import rand_descriptor, rand_envelope
from test_cli import serve, NOTES_RESULT


def ok(n: int, label: str) -> None:
    print(f"\nACCEPTANCE {n} PASS — {label}")


def soap_request(payload: bytes, path: str = "") -> InboundRequest:
    return InboundRequest(
        transportKind="loopback",
        peer="acceptance",
        path=path,
        headers=None,
        payload=payload,
    )


def test_1_case_study_reproduction(tmp_path, fig13_bytes, fig14_bytes):
    with serve(tmp_path, "--demo-notes") as port:
        started = time.perf_counter()
        status, body = http_request(
            f"http://127.0.0.1:{port}/CadastroEscolar.jws", fig13_bytes
        )
        assert status == 200
        assert canonicalize(body) == canonicalize(fig14_bytes)
        result = parse_envelope(body).body.result.value
        assert result == NOTES_RESULT
        elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"request took {elapsed:.3f}s"
    ok(1, f"golden request/response reproduced in {elapsed * 1000:.0f} ms")


def test_2_codec_round_trip():
    rng = random.Random(20080813)
    failures = 0
    for _ in range(1000):
        env = rand_envelope(rng)
        if parse_envelope(serialize_envelope(env)) != env:
            failures += 1
    assert failures == 0
    ok(2, "1000/1000 envelope round trips identical")


def test_3_wsdl_oracle():
    rng = random.Random(525809)
    failures = 0
    for _ in range(200):
        descriptor = rand_descriptor(rng)
        url = f"http://localhost:5000{descriptor.endpointPath}"
        if parse_wsdl(generate_wsdl(descriptor, url).xmlText) != descriptor:
            failures += 1
    assert failures == 0
    ok(3, "200/200 descriptor round trips identical")


def test_4_validation_taxonomy(tmp_path):
    class Crash:
        def executeMethod(self, methodName, args):
            raise HandlerError("bang")

    host = make_host(tmp_path)
    host.create_service(
        ServiceDescriptor(
            serviceName="Crashy",
            namespaceUri="http://localhost:5000/Crashy.jws",
            endpointPath="/Crashy.jws",
            responseNamespaceUri="http://localhost:5000/Crashy.jws",
            methods=(MethodSignature("boom", (), XsdType.STRING),),
        ),
        Crash(),
    )

    ns = "http://localhost:5000/CadastroEscolar.jws"

    def call(method, params):
        env = SoapEnvelope(
            body=SoapCall(
                operation=QName(method, ns),
                params=tuple((n, TypedValue.of(t, v)) for n, t, v in params),
            )
        )
        return serialize_envelope(env)

    good = [("codAluno", XsdType.STRING, "A001"), ("codDisciplina", XsdType.STRING, "D002")]
    cases = {
        "unknown method": call("semMetodo", good),
        "arity-1": call("obterNotas", good[:1]),
        "arity+1": call("obterNotas", good + [("extra", XsdType.STRING, "x")]),
        "wrong type": call("obterNotas", [("codAluno", XsdType.INT, 1), good[1]]),
        "wrong param name": call("obterNotas", [("aluno", XsdType.STRING, "A001"), good[1]]),
    }
    verdicts = {}
    for label, payload in cases.items():
        body = parse_envelope(host.handle_request(soap_request(payload)).body).body
        verdicts[label] = isinstance(body, SoapFault) and body.faultcode == "Client"

    crash_env = SoapEnvelope(
        body=SoapCall(operation=QName("boom", "http://localhost:5000/Crashy.jws"), params=())
    )
    body = parse_envelope(
        host.handle_request(soap_request(serialize_envelope(crash_env))).body
    ).body
    verdicts["handler exception"] = (
        isinstance(body, SoapFault) and body.faultcode == "Server"
    )

    assert all(verdicts.values()), verdicts
    ok(4, f"{len(verdicts)}/6 fault attributions exact")


def test_5_security_suite(keypair):
    rng = random.Random(65537)

    honest = 0
    for _ in range(500):
        message = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 256)))
        sig = sign_message(message, keypair.privateKey)
        if verify_signature(message, sig, keypair.publicKey):
            honest += 1
    assert honest == 500

    tamper_accepts = 0
    for _ in range(500):
        message = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 256)))
        sig = sign_message(message, keypair.privateKey)
        mutated = bytearray(message)
        position = rng.randrange(len(mutated))
        mutated[position] ^= 1 + rng.randrange(255)
        if verify_signature(bytes(mutated), sig, keypair.publicKey):
            tamper_accepts += 1
    assert tamper_accepts == 0

    for _ in range(1000):
        size = rng.randrange(1, 65536 + 1)
        blob = rng.randbytes(size)
        envelope = encrypt_message(blob, keypair.publicKey)
        assert decrypt_message(envelope, keypair.privateKey) == blob

    cert = issue_certificate(keypair, "MobileHost/")
    assert (cert.notAfter - cert.notBefore).days == 10
    lines = render_certificate_text(cert).splitlines()
    label_template = [
        r"^----- Begin Certificate -----$",
        r"^Type: X\.509v1$",
        r"^Serial number: ([0-9a-f]{2})(:[0-9a-f]{2})*$",
        r"^SubjectDN: ",
        r"^IssuerDN: ",
        r"^Start Date: [A-Z][a-z]{2} [A-Z][a-z]{2} \d{2} \d{2}:\d{2}:\d{2} UTC \d{4}$",
        r"^Final Date: [A-Z][a-z]{2} [A-Z][a-z]{2} \d{2} \d{2}:\d{2}:\d{2} UTC \d{4}$",
        r"^Public Key: RSA$",
        r"^modulus:$",
        r"^\d+$",
    ]
    for pattern, line in zip(label_template, lines):
        assert re.match(pattern, line), (pattern, line)
    tail = [line for line in lines if not re.match(r"^\d+$", line)]
    assert tail[-4:] == [
        "public exponent:65537",
        "Signature Algorithm: RSA",
        "Signature:",
        "----- End Certificate -----",
    ]
    ok(5, "500/500 honest accepts, 0/500 tamper accepts, 1000 crypt round trips, "
          "certificate template exact, validity 10 days")


def test_6_concurrency(tmp_path, fig13_bytes):
    started = time.perf_counter()
    port = free_port()
    host = make_host(tmp_path, BindingConfig(kind="http", port=port))
    host.start()
    try:
        url = f"http://127.0.0.1:{port}/CadastroEscolar.jws"
        with concurrent.futures.ThreadPoolExecutor(max_workers=50) as pool:
            futures = [
                pool.submit(http_request, url, fig13_bytes, 10.0) for _ in range(50)
            ]
            results = [f.result(timeout=10) for f in futures]
        for status, body in results:
            assert status == 200
            assert parse_envelope(body).body.result.value == NOTES_RESULT

        class Molasses:
            def executeMethod(self, methodName, args):
                time.sleep(1.5)
                return TypedValue.of(XsdType.STRING, "slow")

        host.create_service(
            ServiceDescriptor(
                serviceName="Molasses",
                namespaceUri=f"http://127.0.0.1:{port}/Molasses.jws",
                endpointPath="/Molasses.jws",
                responseNamespaceUri=f"http://127.0.0.1:{port}/Molasses.jws",
                methods=(MethodSignature("wait", (), XsdType.STRING),),
            ),
            Molasses(),
        )
        slow_payload = serialize_envelope(
            SoapEnvelope(
                body=SoapCall(
                    operation=QName("wait", f"http://127.0.0.1:{port}/Molasses.jws"),
                    params=(),
                )
            )
        )
        slow_url = f"http://127.0.0.1:{port}/Molasses.jws"
        with concurrent.futures.ThreadPoolExecutor(max_workers=25) as pool:
            slow_futures = [
                pool.submit(http_request, slow_url, slow_payload, 15.0) for _ in range(5)
            ]
            time.sleep(0.1)  # slow calls are now occupying workers
            demo_started = time.perf_counter()
            demo_futures = [
                pool.submit(http_request, url, fig13_bytes, 10.0) for _ in range(20)
            ]
            demo_results = [f.result(timeout=10) for f in demo_futures]
            demo_elapsed = time.perf_counter() - demo_started
            for status, body in demo_results:
                assert status == 200
                assert parse_envelope(body).body.result.value == NOTES_RESULT
            for f in slow_futures:
                status, body = f.result(timeout=15)
                assert parse_envelope(body).body.result.value == "slow"
        # 5 slow calls on a 32-worker pool must not queue the demo traffic
        assert demo_elapsed < 1.5, f"demo batch took {demo_elapsed:.2f}s behind slow calls"
    finally:
        host.shutdown()
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion took {elapsed:.1f}s"
    ok(6, f"50/50 concurrent correct; demo batch {demo_elapsed * 1000:.0f} ms "
          f"while slow service busy; total {elapsed:.1f}s")


def test_7_runtime_deployment(tmp_path, fig13_bytes):
    host = make_host(tmp_path)
    host.start()
    listener = host.listener("loopback")
    stop = threading.Event()
    dropped = []
    completed = [0]
    lock = threading.Lock()

    def hammer():
        while not stop.is_set():
            resp = listener.request(fig13_bytes, timeout=10)
            if resp.status != 200:
                dropped.append(resp)
            with lock:
                completed[0] += 1

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for t in threads:
        t.start()
    try:
        time.sleep(0.2)

        class Fresh:
            def executeMethod(self, methodName, args):
                return TypedValue.of(XsdType.STRING, args[0].value.upper())

        host.create_service(
            ServiceDescriptor(
                serviceName="Fresh",
                namespaceUri="http://localhost:5000/Fresh.jws",
                endpointPath="/Fresh.jws",
                responseNamespaceUri="http://localhost:5000/Fresh.jws",
                methods=(
                    MethodSignature(
                        "shout", (ParameterSpec("text", XsdType.STRING),), XsdType.STRING
                    ),
                ),
            ),
            Fresh(),
        )
        # the very next request to the new path must already dispatch
        payload = serialize_envelope(
            SoapEnvelope(
                body=SoapCall(
                    operation=QName("shout", "http://localhost:5000/Fresh.jws"),
                    params=(("text", TypedValue.of(XsdType.STRING, "deployed")),),
                )
            )
        )
        resp = listener.request(payload, timeout=10)
        assert resp.status == 200
        assert parse_envelope(resp.body).body.result.value == "DEPLOYED"
        time.sleep(0.2)
    finally:
        stop.set()
        for t in threads:
            t.join()
        host.shutdown()
    assert not dropped, f"{len(dropped)} requests failed during deployment"
    assert completed[0] > 0
    ok(7, f"new route live on next request; {completed[0]} in-flight requests, 0 dropped")


def test_8_persistence(tmp_path):
    host = make_host(tmp_path, with_demo=False)

    def plain(name):
        return ServiceDescriptor(
            serviceName=name,
            namespaceUri=f"http://localhost:5000/{name}.jws",
            endpointPath=f"/{name}.jws",
            responseNamespaceUri=f"http://localhost:5000/{name}.jws",
            methods=(MethodSignature("m", (), XsdType.STRING),),
        )

    class Static:
        def executeMethod(self, methodName, args):
            return TypedValue.of(XsdType.STRING, "static")

    host.create_service(notes_descriptor(True), NotesHandler())
    host.create_service(plain("Alpha"), Static())
    host.create_service(plain("Beta"), Static())
    host.registry.add_user(
        make_user("aluno1", "hunter2-sentinel", "dev1", {"CadastroEscolar"})
    )
    host.registry.add_user(make_user("admin", "admin-pw", "dev2", {"*"}))
    before = {
        rec.descriptor.serviceName: rec for rec in host.registry.list_services()
    }
    users_before = {u.login: u for u in host.registry.list_users()}
    host.shutdown()

    files = [p for p in (tmp_path / "data").rglob("*") if p.is_file()]
    assert tmp_path / "data" / "state.db" in files
    for path in files:
        assert b"hunter2-sentinel" not in path.read_bytes(), path

    revived = make_host(tmp_path, with_demo=False)
    after = {rec.descriptor.serviceName: rec for rec in revived.registry.list_services()}
    assert set(after) == set(before) == {"CadastroEscolar", "Alpha", "Beta"}
    for name, rec in before.items():
        assert after[name].descriptor == rec.descriptor
        assert after[name].wsdl.xmlText == rec.wsdl.xmlText
        assert after[name].createdAt == rec.createdAt
    assert {u.login: u for u in revived.registry.list_users()} == users_before

    # all routes live again once handlers re-attach (idempotent re-create)
    revived.create_service(notes_descriptor(True), NotesHandler())
    revived.create_service(plain("Alpha"), Static())
    revived.create_service(plain("Beta"), Static())
    for path in ("/CadastroEscolar.jws", "/Alpha.jws", "/Beta.jws"):
        assert revived.registry.lookup_by_path(path)
    demo = serialize_envelope(
        SoapEnvelope(
            body=SoapCall(
                operation=QName("obterNotas", "http://localhost:5000/CadastroEscolar.jws"),
                params=(
                    ("codAluno", TypedValue.of(XsdType.STRING, "A001")),
                    ("codDisciplina", TypedValue.of(XsdType.STRING, "D002")),
                ),
            )
        )
    )
    resp = revived.handle_request(soap_request(demo))
    assert resp.status == 200
    cert = revived.service_certificate("CadastroEscolar")
    assert verify_envelope_signature(resp.body, cert) is True
    ok(8, "3 services + 2 users identical after restart; routes live; "
          "no plaintext sentinel in snapshot")


def test_9_robustness_fuzz(tmp_path, fig13_bytes):
    host = make_host(tmp_path)
    rng = random.Random(61453)
    slowest = 0.0
    answered = 0
    for i in range(10_000):
        kind = rng.randrange(5)
        if kind == 0:
            payload = rng.randbytes(rng.randrange(0, 300))
        elif kind == 1:
            mutated = bytearray(fig13_bytes)
            for _ in range(rng.randrange(1, 12)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            payload = bytes(mutated)
        elif kind == 2:
            payload = fig13_bytes[: rng.randrange(len(fig13_bytes))]
        elif kind == 3:
            payload = b"<" + bytes(rng.choices(b'abcdxyz<>/&;!="\x00\xff ', k=rng.randrange(1, 120)))
        else:
            payload = rng.choice([b"", b"\xff\xfe\xfd", b"<x/>", b"{}", b"GET / HTTP/1.1"])
        started = time.perf_counter()
        resp = host.handle_request(soap_request(payload))
        elapsed = time.perf_counter() - started
        slowest = max(slowest, elapsed)
        assert resp is not None and isinstance(resp.body, bytes), f"case {i} unanswered"
        assert elapsed < 2.0, f"case {i} took {elapsed:.2f}s"
        answered += 1
    assert answered == 10_000
    ok(9, f"10000/10000 fuzz cases answered; slowest case {slowest * 1000:.1f} ms")
