"""The request pipeline end to end: routing, fault attribution, auth,
message security, lifecycle and robustness."""

import collections
import concurrent.futures
import dataclasses
import logging
import random
import shutil
import socket
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET
from datetime import datetime, timedelta, timezone

import pyexpat

import pytest
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import ed25519
from hypothesis import given, settings
from hypothesis import strategies as st

from mobilehost import security, transport
from mobilehost.canonical import body_canonical, canonicalize, emit_canonical, parse_xml
from mobilehost.errors import (
    CorruptSnapshot,
    DuplicateService,
    HandlerError,
    IoFailure,
    MalformedSignature,
    MalformedXml,
    NotFound,
    PathConflict,
    ValidationError,
)
from mobilehost.host import (
    AuthHeader,
    Host,
    HostConfig,
    SIGNATURE_HEADER,
    _signer_key,
    attach_signature,
    auth_header_xml,
    encrypt_request,
    parse_auth_header,
    parse_signature_header,
    signature_header_entry,
    verify_envelope_signature,
)
from mobilehost.cli import http_request
from mobilehost.notes import NotesHandler, notes_descriptor
from mobilehost.registry import make_user, password_proof
from mobilehost.security import (
    DEFAULT_VALIDITY_DAYS,
    KeyStore,
    SignatureBlock,
    generate_keypair,
    issue_certificate,
    parse_certificate_text,
    render_certificate_text,
    verify_certificate,
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
    make_header_entry,
    _attr,
    _text,
    parse_envelope,
    serialize_envelope,
)
from mobilehost.transport import (
    BindingConfig,
    InboundRequest,
    encode_frame,
    read_frame,
)

from conftest import free_port, make_host
from strategies import auth_entry, c14n_text, received_entries


def soap_request(payload: bytes, path: str = "", kind: str = "loopback") -> InboundRequest:
    return InboundRequest(
        transportKind=kind,
        peer="test",
        path=path,
        headers=None,
        payload=payload,
    )


def call_envelope(method="obterNotas", params=(("codAluno", "A001"), ("codDisciplina", "D002")),
                  namespace="http://localhost:5000/CadastroEscolar.jws",
                  headers=(), types=None) -> bytes:
    typed = tuple(
        (name, TypedValue.parse((types or {}).get(name, XsdType.STRING), value))
        for name, value in params
    )
    env = SoapEnvelope(
        body=SoapCall(operation=QName(method, namespace), params=typed),
        headerEntries=tuple(headers),
    )
    return serialize_envelope(env)


class CrashHandler:
    def executeMethod(self, methodName, args):
        raise HandlerError("deliberate failure")


class WrongTypeHandler:
    def executeMethod(self, methodName, args):
        return TypedValue.of(XsdType.INT, 42)


def simple_descriptor(name="Echoish", secure=False, exclusive=False, method="shout"):
    return ServiceDescriptor(
        serviceName=name,
        namespaceUri=f"http://localhost:5000/{name}.jws",
        endpointPath=f"/{name}.jws",
        responseNamespaceUri=f"http://localhost:5000/{name}.jws",
        methods=(
            MethodSignature(method, (ParameterSpec("text", XsdType.STRING),), XsdType.STRING),
        ),
        securityEnabled=secure,
        exclusiveExecution=exclusive,
    )


class UpperHandler:
    def executeMethod(self, methodName, args):
        return TypedValue.of(XsdType.STRING, args[0].value.upper())


class TestPipelineHappyPath:
    def test_demo_round_trip_equals_golden_response(self, demo_host, fig13_bytes, fig14_bytes):
        resp = demo_host.handle_request(soap_request(fig13_bytes))
        assert resp.status == 200
        assert canonicalize(resp.body) == canonicalize(fig14_bytes)

    def test_routing_by_explicit_path(self, demo_host, fig13_bytes):
        resp = demo_host.handle_request(
            soap_request(fig13_bytes, path="/CadastroEscolar.jws")
        )
        assert parse_envelope(resp.body).body.result.value.startswith("#A001")

    def test_routing_falls_back_to_call_namespace(self, demo_host, fig13_bytes):
        resp = demo_host.handle_request(soap_request(fig13_bytes, path=""))
        assert resp.status == 200

    def test_empty_result_is_single_hash(self, demo_host):
        payload = call_envelope(params=(("codAluno", "ZZZ"), ("codDisciplina", "D002")))
        resp = demo_host.handle_request(soap_request(payload))
        assert parse_envelope(resp.body).body.result.value == "#"


def fault_of(resp) -> SoapFault:
    body = parse_envelope(resp.body).body
    assert isinstance(body, SoapFault), f"expected fault, got {body}"
    return body


class TestFaultAttribution:
    def test_unknown_method_is_client_fault(self, demo_host):
        resp = demo_host.handle_request(soap_request(call_envelope(method="nope", params=())))
        assert resp.status == 500
        assert fault_of(resp).faultcode == "Client"

    def test_arity_low_is_client_fault(self, demo_host):
        payload = call_envelope(params=(("codAluno", "A001"),))
        assert fault_of(demo_host.handle_request(soap_request(payload))).faultcode == "Client"

    def test_arity_high_is_client_fault(self, demo_host):
        payload = call_envelope(
            params=(("codAluno", "A001"), ("codDisciplina", "D002"), ("extra", "x"))
        )
        assert fault_of(demo_host.handle_request(soap_request(payload))).faultcode == "Client"

    def test_wrong_type_is_client_fault(self, demo_host):
        payload = call_envelope(
            params=(("codAluno", "7"), ("codDisciplina", "D002")),
            types={"codAluno": XsdType.INT},
        )
        fault = fault_of(demo_host.handle_request(soap_request(payload)))
        assert fault.faultcode == "Client"
        assert "codAluno" in fault.faultstring

    def test_wrong_name_is_client_fault(self, demo_host):
        payload = call_envelope(params=(("student", "A001"), ("codDisciplina", "D002")))
        assert fault_of(demo_host.handle_request(soap_request(payload))).faultcode == "Client"

    def test_handler_exception_is_server_fault(self, tmp_path):
        host = make_host(tmp_path, with_demo=False)
        host.create_service(simple_descriptor(), CrashHandler())
        payload = call_envelope(
            method="shout", params=(("text", "x"),),
            namespace="http://localhost:5000/Echoish.jws",
        )
        resp = host.handle_request(soap_request(payload))
        fault = fault_of(resp)
        assert fault.faultcode == "Server"
        assert "deliberate failure" in (fault.detail or "")

    def test_host_survives_handler_crash(self, tmp_path, fig13_bytes):
        host = make_host(tmp_path)
        host.create_service(simple_descriptor(), CrashHandler())
        bad = call_envelope(method="shout", params=(("text", "x"),),
                            namespace="http://localhost:5000/Echoish.jws")
        fault_of(host.handle_request(soap_request(bad)))
        good = host.handle_request(soap_request(fig13_bytes))
        assert good.status == 200

    def test_return_type_violation_is_server_fault(self, tmp_path):
        host = make_host(tmp_path, with_demo=False)
        host.create_service(simple_descriptor(), WrongTypeHandler())
        payload = call_envelope(method="shout", params=(("text", "x"),),
                                namespace="http://localhost:5000/Echoish.jws")
        assert fault_of(host.handle_request(soap_request(payload))).faultcode == "Server"

    def test_unknown_path_is_client_fault(self, demo_host):
        payload = call_envelope(namespace="http://localhost:5000/Nowhere.jws")
        fault = fault_of(demo_host.handle_request(soap_request(payload)))
        assert fault.faultcode == "Client"
        assert "unknown service" in fault.faultstring

    def test_unparseable_xml_is_client_fault(self, demo_host):
        resp = demo_host.handle_request(soap_request(SOAPISH))
        assert fault_of(resp).faultcode == "Client"

    def test_response_body_as_request_is_client_fault(self, demo_host, fig14_bytes):
        resp = demo_host.handle_request(soap_request(fig14_bytes))
        assert fault_of(resp).faultcode == "Client"

    def test_missing_handler_is_server_fault(self, tmp_path):
        host = make_host(tmp_path)
        host.shutdown()
        revived = make_host(tmp_path, with_demo=False)
        payload = call_envelope()
        assert fault_of(revived.handle_request(soap_request(payload))).faultcode == "Server"


SOAPISH = (
    b'<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/">'
    b"<e:Body></e:Body></e:Envelope>"
)


class TestAuth:
    @pytest.fixture
    def auth_host(self, tmp_path):
        host = make_host(tmp_path, authRequired=True)
        host.registry.add_user(
            make_user("aluno1", "segredo", "dev1", {"CadastroEscolar"})
        )
        host.registry.add_user(make_user("other", "pw", "dev2", {"SomethingElse"}))
        return host

    def payload(self, login=None, password=None):
        headers = ()
        if login is not None:
            headers = (auth_entry(login, password_proof(password)),)
        return call_envelope(headers=headers)

    def test_valid_credentials_allowed(self, auth_host):
        resp = auth_host.handle_request(soap_request(self.payload("aluno1", "segredo")))
        assert resp.status == 200

    def test_missing_auth_header_denied(self, auth_host):
        fault = fault_of(auth_host.handle_request(soap_request(self.payload())))
        assert fault.faultcode == "Client"
        assert fault.faultstring == "access denied"

    def test_wrong_password_denied(self, auth_host):
        fault = fault_of(
            auth_host.handle_request(soap_request(self.payload("aluno1", "wrong")))
        )
        assert fault.faultstring == "access denied"

    def test_unpermitted_service_denied(self, auth_host):
        fault = fault_of(
            auth_host.handle_request(soap_request(self.payload("other", "pw")))
        )
        assert fault.faultstring == "access denied"

    def test_denied_outcome_logged(self, auth_host):
        auth_host.handle_request(soap_request(self.payload("aluno1", "wrong")))
        assert auth_host.registry.log_entries()[-1].outcome == "denied"

    def test_no_auth_needed_when_disabled(self, demo_host, fig13_bytes):
        assert demo_host.handle_request(soap_request(fig13_bytes)).status == 200


class TestSecurityGating:
    @pytest.fixture
    def secure_host(self, tmp_path):
        return make_host(tmp_path, secure_demo=True)

    def test_secure_response_carries_verifying_signature(self, secure_host, fig13_bytes):
        resp = secure_host.handle_request(soap_request(fig13_bytes))
        assert resp.status == 200
        cert = secure_host.service_certificate("CadastroEscolar")
        assert verify_envelope_signature(resp.body, cert) is True

    def test_insecure_response_has_no_signature(self, demo_host, fig13_bytes):
        resp = demo_host.handle_request(soap_request(fig13_bytes))
        env = parse_envelope(resp.body)
        assert env.header(SIGNATURE_HEADER) is None

    def test_secure_fault_is_signed_too(self, secure_host):
        resp = secure_host.handle_request(soap_request(call_envelope(method="nope", params=())))
        cert = secure_host.service_certificate("CadastroEscolar")
        assert verify_envelope_signature(resp.body, cert) is True

    def test_tampered_body_fails_verification(self, secure_host, fig13_bytes):
        resp = secure_host.handle_request(soap_request(fig13_bytes))
        tampered = resp.body.replace(b"NOTE 1;;100", b"NOTE 1;;999")
        cert = secure_host.service_certificate("CadastroEscolar")
        assert verify_envelope_signature(tampered, cert) is False

    def test_signature_block_content(self, secure_host, fig13_bytes):
        resp = secure_host.handle_request(soap_request(fig13_bytes))
        raw = parse_envelope(resp.body).header(SIGNATURE_HEADER)
        block, cert_text = parse_signature_header(raw)
        assert block.algorithm == "RSA-SHA256"
        assert cert_text is None
        cert = secure_host.service_certificate("CadastroEscolar")
        assert verify_signature(body_canonical(resp.body), block, cert.public_key())

    def test_encrypted_round_trip(self, secure_host, fig13_bytes):
        cert = secure_host.service_certificate("CadastroEscolar")
        wrapped = encrypt_request(
            fig13_bytes, "http://localhost:5000/CadastroEscolar.jws", cert
        )
        resp = secure_host.handle_request(soap_request(wrapped))
        assert resp.status == 200
        assert parse_envelope(resp.body).body.result.value.startswith("#A001")

    def test_encrypted_garbage_is_client_fault(self, secure_host):
        headers = (make_header_entry('<Encrypted xmlns="urn:mobilehost:headers">true</Encrypted>'),)
        payload = call_envelope(
            method="EncryptedRequest",
            params=(("wrappedKey", "AAAA"), ("iv", "AAAA"), ("ciphertext", "AAAA")),
            headers=headers,
        )
        fault = fault_of(secure_host.handle_request(soap_request(payload)))
        assert fault.faultcode == "Client"

    def test_signed_request_accepted(self, secure_host, fig13_bytes, keypair):
        consumer_cert = issue_certificate(keypair, "Consumer/")
        signed = attach_signature(
            fig13_bytes, keypair.privateKey, render_certificate_text(consumer_cert)
        )
        resp = secure_host.handle_request(soap_request(signed))
        assert resp.status == 200
        assert parse_envelope(resp.body).body.result.value.startswith("#A001")

    def test_bad_inbound_signature_rejected(self, secure_host, fig13_bytes, keypair, other_keypair):
        # signed with one key but carrying a different key's certificate
        wrong_cert = issue_certificate(other_keypair, "Consumer/")
        signed = attach_signature(
            fig13_bytes, keypair.privateKey, render_certificate_text(wrong_cert)
        )
        fault = fault_of(secure_host.handle_request(soap_request(signed)))
        assert fault.faultcode == "Client"
        assert "signature" in fault.faultstring

    def test_signer_certificate_is_checked_once_per_text(self, secure_host, fig13_bytes,
                                                          keypair, monkeypatch):
        cert_text = render_certificate_text(issue_certificate(keypair, "Consumer/"))
        signed = attach_signature(fig13_bytes, keypair.privateKey, cert_text)
        _signer_key.cache_clear()
        calls = collections.Counter()
        for name in ("parse_certificate_text", "verify_certificate"):
            def counted(arg, name=name, original=getattr(security, name)):
                calls[name] += 1
                return original(arg)
            monkeypatch.setattr(security, name, counted)
        for _ in range(2):
            assert secure_host.handle_request(soap_request(signed)).status == 200
        assert calls == {"parse_certificate_text": 1, "verify_certificate": 1}

    def test_forged_signer_certificate_is_refused_every_time(self, secure_host, fig13_bytes,
                                                              keypair):
        # a refusal is not cached: the second request is checked again
        cert_text = render_certificate_text(issue_certificate(keypair, "Consumer/"))
        forged = cert_text.replace("SubjectDN: ", "SubjectDN: Forged ", 1)
        signed = attach_signature(fig13_bytes, keypair.privateKey, forged)
        for _ in range(2):
            fault = fault_of(secure_host.handle_request(soap_request(signed)))
            assert fault.faultstring == "invalid signer certificate"

    def test_signer_key_cache_is_bounded(self, keypair):
        cert_text = render_certificate_text(issue_certificate(keypair, "Consumer/"))
        _signer_key.cache_clear()
        for i in range(100):  # texts that differ in trailing blank lines only
            _signer_key(cert_text + "\n" * i)
        info = _signer_key.cache_info()
        assert info.currsize == info.maxsize == 64


class TestTextAfterHeaderEntryOrBody:
    """Text after a header entry, or after the Body, is content of the
    parent element and belongs to neither, so their canonical text
    leaves it out."""

    def test_text_after_a_header_entry(self, demo_host, fig13_bytes):
        payload = fig13_bytes.replace(
            b"<SOAP-ENV:Body",
            b'<SOAP-ENV:Header><h:X xmlns:h="urn:h">v</h:X>junk</SOAP-ENV:Header>\n'
            b"<SOAP-ENV:Body", 1)
        resp = demo_host.handle_request(soap_request(payload))
        assert resp.status == 200
        assert parse_envelope(resp.body).body.result.value.startswith("#A001")

    @pytest.mark.parametrize("text", [b"tail", b"&lt;x"])
    def test_text_after_a_signed_body(self, tmp_path, fig13_bytes, keypair, text):
        host = make_host(tmp_path, secure_demo=True)
        cert = issue_certificate(keypair, "Consumer/")
        signed = attach_signature(fig13_bytes, keypair.privateKey,
                                  render_certificate_text(cert))
        payload = signed.replace(b"</SOAP-ENV:Body>", b"</SOAP-ENV:Body>" + text, 1)
        assert payload != signed
        # the signature is checked, and checks: a tampered Body still fails
        tampered = payload.replace(b"A001", b"A002", 1)
        assert fault_of(host.handle_request(soap_request(tampered))).faultstring == (
            "signature verification failed")
        resp = host.handle_request(soap_request(payload))
        assert resp.status == 200
        assert parse_envelope(resp.body).body.result.value.startswith("#A001")
        assert verify_envelope_signature(resp.body, host.service_certificate(
            "CadastroEscolar")) is True


class TestCreateService:
    def test_wsdl_written_and_route_live(self, tmp_path):
        host = make_host(tmp_path)
        wsdl_file = host.cfg.wsdlDir / "CadastroEscolar.wsdl"
        assert wsdl_file.exists()
        assert host.registry.lookup_by_path("/CadastroEscolar.jws")

    def test_identical_recreate_is_noop(self, tmp_path):
        host = make_host(tmp_path, secure_demo=True)
        before = host.registry.lookup_service("CadastroEscolar")
        key_before = host.service_certificate("CadastroEscolar").modulus
        again = host.create_service(notes_descriptor(True), NotesHandler())
        assert again is before
        assert host.service_certificate("CadastroEscolar").modulus == key_before

    def test_changed_signature_is_duplicate(self, tmp_path):
        host = make_host(tmp_path)
        changed = dataclasses.replace(notes_descriptor(), securityEnabled=True)
        with pytest.raises(DuplicateService):
            host.create_service(changed, NotesHandler())

    def test_secure_service_gets_key_material(self, tmp_path):
        host = make_host(tmp_path, secure_demo=True)
        assert (host.cfg.dataDir / "keys" / "CadastroEscolar.key").exists()
        assert (host.cfg.dataDir / "keys" / "CadastroEscolar.cert").exists()
        keys = KeyStore(host.cfg.dataDir / "keys").load("CadastroEscolar")
        assert keys[1] == host.service_certificate("CadastroEscolar")

    def test_taken_path_is_refused_before_any_file_is_written(self, tmp_path):
        host = make_host(tmp_path, secure_demo=True)
        other = dataclasses.replace(notes_descriptor(True), serviceName="Other")
        with pytest.raises(PathConflict,
                           match=r"^endpoint path already in use: /CadastroEscolar\.jws$"):
            host.create_service(other, NotesHandler())
        assert sorted(p.name for p in (host.cfg.dataDir / "keys").iterdir()) == [
            "CadastroEscolar.cert", "CadastroEscolar.key"]
        assert [p.name for p in host.cfg.wsdlDir.iterdir()] == ["CadastroEscolar.wsdl"]
        with pytest.raises(NotFound):
            host.registry.lookup_service("Other")


class TestLifecycle:
    def test_fresh_dir_is_empty(self, tmp_path):
        host = make_host(tmp_path, with_demo=False)
        assert host.registry.list_services() == []

    def test_restart_restores_services_and_routes(self, tmp_path):
        host = make_host(tmp_path, secure_demo=True)
        host.registry.add_user(make_user("u", "pw", "d", {"*"}))
        host.shutdown()

        revived = make_host(tmp_path, with_demo=False)
        rec = revived.registry.lookup_by_path("/CadastroEscolar.jws")
        assert rec.descriptor == notes_descriptor(True)
        assert revived.registry.check_access_proof("u", password_proof("pw"), "Whatever")
        # handler re-attachment via identical create_service is a no-op
        revived.create_service(notes_descriptor(True), NotesHandler())
        payload = call_envelope()
        assert revived.handle_request(soap_request(payload)).status == 200
        # and the restored key material still signs responses
        cert = revived.service_certificate("CadastroEscolar")
        resp = revived.handle_request(soap_request(payload))
        assert verify_envelope_signature(resp.body, cert) is True

    def test_corrupt_snapshot_refuses_to_start(self, tmp_path):
        host = make_host(tmp_path)
        host.shutdown()
        state = tmp_path / "data" / "state.db"
        state.write_text(state.read_text()[:25])
        with pytest.raises(CorruptSnapshot):
            make_host(tmp_path, with_demo=False)

    @pytest.mark.parametrize("missing, named", [
        ("keys", "keys/CadastroEscolar.key"),
        ("keys/CadastroEscolar.key", "keys/CadastroEscolar.key"),
        ("keys/CadastroEscolar.cert", "keys/CadastroEscolar.cert"),
    ])
    def test_secured_service_with_missing_keys_refuses_to_start(self, tmp_path,
                                                                missing, named):
        host = make_host(tmp_path, secure_demo=True)
        host.shutdown()
        gone = tmp_path / "data" / missing
        if gone.is_dir():
            shutil.rmtree(gone)
        else:
            gone.unlink()
        with pytest.raises(IoFailure, match=named):
            make_host(tmp_path, with_demo=False)

    @pytest.mark.parametrize("name, content, reason", [
        ("CadastroEscolar.cert", b"not a certificate\n", "missing certificate banner"),
        ("CadastroEscolar.cert", b"\xff\n", "'utf-8' codec can't decode byte 0xff"),
        ("CadastroEscolar.key", b"not a key\n", ""),
        ("CadastroEscolar.key", None, "not an RSA private key"),
    ], ids=["cert text", "cert not UTF-8", "key not PEM", "key not RSA"])
    def test_secured_service_with_corrupt_key_file_refuses_to_start(self, tmp_path, name,
                                                                    content, reason):
        if content is None:
            content = ed25519.Ed25519PrivateKey.generate().private_bytes(
                serialization.Encoding.PEM, serialization.PrivateFormat.PKCS8,
                serialization.NoEncryption())
        host = make_host(tmp_path, secure_demo=True)
        host.shutdown()
        corrupt = tmp_path / "data" / "keys" / name
        corrupt.write_bytes(content)
        with pytest.raises(IoFailure) as exc:
            make_host(tmp_path, with_demo=False)
        assert str(exc.value).startswith(
            f"cannot read key material for CadastroEscolar: {corrupt}: {reason}")

    def test_certificate_for_another_key_refuses_to_start(self, tmp_path, other_keypair):
        # save() writes the key, then the certificate: a crash between the
        # two left a key beside the certificate of the key before it, and
        # the host signed with one while serving the other at ?cert
        host = make_host(tmp_path, secure_demo=True)
        host.shutdown()
        keys = tmp_path / "data" / "keys"
        KeyStore(keys).save("CadastroEscolar", other_keypair,
                            host.service_certificate("CadastroEscolar"))
        with pytest.raises(IoFailure) as exc:
            make_host(tmp_path, with_demo=False)
        assert str(exc.value) == (f"cannot read key material for CadastroEscolar: "
                                  f"{keys / 'CadastroEscolar.cert'}: "
                                  f"certificate is for another key")

    def test_certificate_whose_self_signature_fails_refuses_to_start(self, tmp_path):
        host = make_host(tmp_path, secure_demo=True)
        host.shutdown()
        cert_file = tmp_path / "data" / "keys" / "CadastroEscolar.cert"
        cert_file.write_text(cert_file.read_text().replace(
            "SubjectDN: ", "SubjectDN: Forged ", 1))
        with pytest.raises(IoFailure) as exc:
            make_host(tmp_path, with_demo=False)
        assert str(exc.value) == (f"cannot read key material for CadastroEscolar: "
                                  f"{cert_file}: certificate self-signature does not verify")

    def test_state_saved_without_shutdown(self, tmp_path):
        host = make_host(tmp_path, secure_demo=True)
        host.registry.add_user(make_user("u", "pw", "d", {"*"}))
        # no shutdown: the process could have been killed here
        revived = make_host(tmp_path, with_demo=False)
        assert revived.registry.lookup_service("CadastroEscolar").descriptor.securityEnabled
        assert revived.registry.check_access_proof("u", password_proof("pw"), "CadastroEscolar")
        # NotFound unless the keys were restored
        assert revived.service_certificate("CadastroEscolar").subjectDN == "CadastroEscolar/"

    def test_shutdown_writes_nothing(self, tmp_path, monkeypatch):
        host = make_host(tmp_path)
        host.start()

        def refuse(*args, **kwargs):
            raise AssertionError("shutdown wrote to the data dir")

        monkeypatch.setattr("os.replace", refuse)
        monkeypatch.setattr("os.open", refuse)
        host.shutdown()

    def test_requests_do_no_file_io(self, tmp_path, monkeypatch, fig13_bytes):
        plain = make_host(tmp_path / "plain")
        secured = make_host(tmp_path / "secured", secure_demo=True)

        def refuse(*args):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr("os.replace", refuse)
        monkeypatch.setattr("os.fsync", refuse)
        assert plain.handle_request(soap_request(fig13_bytes)).status == 200
        resp = secured.handle_request(soap_request(fig13_bytes))
        assert resp.status == 200
        cert = secured.service_certificate("CadastroEscolar")
        assert verify_envelope_signature(resp.body, cert) is True
        assert [e.outcome for e in secured.registry.log_entries()] == ["ok"]

    @pytest.mark.parametrize("age_days", [6, 11])
    @pytest.mark.parametrize("registered", [True, False], ids=["restart", "create"])
    def test_expiring_certificate_is_renewed_on_load(self, tmp_path, keypair, fig13_bytes,
                                                     registered, age_days):
        # restored from the saved state, or found on disk by create_service;
        # with 4 days of 10 left, or expired a day ago
        if registered:
            make_host(tmp_path, secure_demo=True)
        now = datetime.now(timezone.utc).replace(microsecond=0)
        old = issue_certificate(keypair, "CadastroEscolar/",
                                not_before=now - timedelta(days=age_days))
        KeyStore(tmp_path / "data" / "keys").save("CadastroEscolar", keypair, old)
        old_text = render_certificate_text(old)

        host = make_host(tmp_path, secure_demo=True)
        cert = host.service_certificate("CadastroEscolar")
        assert cert.notBefore >= now
        assert cert.notAfter - cert.notBefore == timedelta(days=DEFAULT_VALIDITY_DAYS)
        assert verify_certificate(cert)
        assert (cert.modulus, cert.subjectDN) == (old.modulus, old.subjectDN)
        assert cert.serial != old.serial
        cert_file = tmp_path / "data" / "keys" / "CadastroEscolar.cert"
        assert cert_file.read_text() == render_certificate_text(cert)
        # same key pair: a consumer holding the old text still verifies replies
        resp = host.handle_request(soap_request(fig13_bytes))
        assert resp.status == 200
        assert verify_envelope_signature(resp.body, parse_certificate_text(old_text)) is True

    @pytest.mark.parametrize("age_days", [0, 4])
    def test_certificate_with_half_its_validity_left_is_kept(self, tmp_path, keypair,
                                                             monkeypatch, age_days):
        make_host(tmp_path, secure_demo=True)
        now = datetime.now(timezone.utc).replace(microsecond=0)
        cert = issue_certificate(keypair, "CadastroEscolar/",
                                 not_before=now - timedelta(days=age_days))
        KeyStore(tmp_path / "data" / "keys").save("CadastroEscolar", keypair, cert)

        def refuse(*args, **kwargs):
            raise AssertionError("loading a fresh certificate wrote to the data dir")

        monkeypatch.setattr("os.replace", refuse)
        monkeypatch.setattr("os.open", refuse)
        assert make_host(tmp_path, with_demo=False).service_certificate("CadastroEscolar") == cert

    def test_double_shutdown_is_idempotent(self, tmp_path):
        host = make_host(tmp_path)
        host.shutdown()
        host.shutdown()

    def test_restarted_host_stops_its_listeners(self, tmp_path, fig13_bytes, fig14_bytes):
        port = free_port()
        host = make_host(tmp_path, BindingConfig(kind="rawTcp", port=port))
        host.start()
        host.shutdown()
        host.start()
        listener = host.listener("rawTcp")
        assert canonicalize(tcp_exchange(port, fig13_bytes)) == canonicalize(fig14_bytes)
        host.shutdown()
        assert host.listener("rawTcp") is None
        assert not any(t.is_alive() for t in listener._pool.threads)
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=5).close()

    def test_process_exits_without_shutdown(self, tmp_path):
        # listener workers wait in accept(); they must not hold up exit
        script = (
            "import socket, sys\n"
            "from mobilehost.host import Host, HostConfig\n"
            "from mobilehost.notes import NotesHandler, notes_descriptor\n"
            "from mobilehost.transport import BindingConfig, encode_frame\n"
            "http, tcp = int(sys.argv[1]), int(sys.argv[2])\n"
            "host = Host(HostConfig(dataDir=sys.argv[3], bindings=(\n"
            "    BindingConfig('http', port=http), BindingConfig('rawTcp', port=tcp))))\n"
            "host.create_service(notes_descriptor(), NotesHandler())\n"
            "host.start()\n"
            "with socket.create_connection(('127.0.0.1', http), timeout=5) as s:\n"
            "    s.sendall(b'GET /CadastroEscolar.jws?wsdl HTTP/1.1\\r\\n\\r\\n')\n"
            "    assert s.recv(12) == b'HTTP/1.1 200'\n"
            "with socket.create_connection(('127.0.0.1', tcp), timeout=5) as s:\n"
            "    s.sendall(encode_frame(b'<x/>'))\n"
            "    assert len(s.recv(65536)) > 4\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(free_port()), str(free_port()),
             str(tmp_path / "data")],
            capture_output=True, timeout=5,
        )
        assert proc.returncode == 0, proc.stderr

    def test_shutdown_completes_inflight(self, tmp_path, fig13_bytes):
        release = threading.Event()

        class Slow:
            def executeMethod(self, methodName, args):
                release.wait(5)
                return TypedValue.of(XsdType.STRING, "done")

        host = make_host(tmp_path, with_demo=False)
        host.create_service(simple_descriptor("Slow"), Slow())
        host.start()
        listener = host.listener("loopback")
        payload = call_envelope(method="shout", params=(("text", "x"),),
                                namespace="http://localhost:5000/Slow.jws")
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            inflight = pool.submit(listener.request, payload)
            time.sleep(0.2)
            stopper = pool.submit(host.shutdown)
            time.sleep(0.2)
            release.set()
            resp = inflight.result(timeout=10)
            stopper.result(timeout=10)
        assert parse_envelope(resp.body).body.result.value == "done"


class TestWebBranch:
    def get(self, host, path, query=""):
        return host.handle_request(
            InboundRequest(
                transportKind="http",
                peer="t",
                path=path,
                headers={},
                payload=b"",
                query=query,
                method="GET",
            )
        )

    def test_wsdl_endpoint(self, demo_host):
        resp = self.get(demo_host, "/CadastroEscolar.jws", "wsdl")
        assert resp.status == 200
        assert b"wsdl:definitions" in resp.body

    def test_cert_endpoint_secured(self, tmp_path):
        host = make_host(tmp_path, secure_demo=True)
        resp = self.get(host, "/CadastroEscolar.jws", "cert")
        assert resp.status == 200
        assert resp.body.startswith(b"----- Begin Certificate -----")

    def test_cert_endpoint_without_security_404(self, demo_host):
        assert self.get(demo_host, "/CadastroEscolar.jws", "cert").status == 404

    def test_removed_service_leaves_no_key_or_lock(self, tmp_path):
        # a secured, exclusive Echoish is refused after its keys were made
        # (another service holds its path), or registered and removed; an
        # unsecured Echoish then takes its place
        for gone in ("refused", "removed"):
            host = make_host(tmp_path / gone, with_demo=False)
            secured = simple_descriptor(secure=True, exclusive=True)
            if gone == "refused":
                holder = dataclasses.replace(simple_descriptor("Holder"),
                                             endpointPath="/Echoish.jws")
                host.create_service(holder, UpperHandler())
                with pytest.raises(PathConflict):
                    host.create_service(secured, UpperHandler())
                host.remove_service("Holder")
            else:
                host.create_service(secured, UpperHandler())
                host.remove_service("Echoish")
            host.create_service(simple_descriptor(), UpperHandler())
            assert self.get(host, "/Echoish.jws", "cert").status == 404, gone
            with pytest.raises(NotFound):
                host.service_certificate("Echoish")
            assert host._services["/Echoish.jws"].lock is None

    def test_unknown_path_404(self, demo_host):
        assert self.get(demo_host, "/index.html").status == 404

    def test_static_file_served(self, tmp_path):
        web = tmp_path / "web"
        web.mkdir()
        (web / "index.html").write_text("<h1>hi</h1>")
        host = make_host(tmp_path, webRoot=web)
        resp = self.get(host, "/index.html")
        assert resp.status == 200
        assert resp.body == b"<h1>hi</h1>"
        assert self.get(host, "/").body == b"<h1>hi</h1>"

    def test_traversal_blocked(self, tmp_path):
        web = tmp_path / "web"
        web.mkdir()
        (tmp_path / "secret.txt").write_text("nope")
        host = make_host(tmp_path, webRoot=web)
        assert self.get(host, "/../secret.txt").status == 404

    def test_nul_byte_in_static_path_404(self, tmp_path, caplog):
        web = tmp_path / "web"
        web.mkdir()
        host = make_host(tmp_path, webRoot=web)
        with caplog.at_level(logging.DEBUG):
            resp = self.get(host, "/a\x00b")
        assert (resp.status, resp.body) == (404, b"not found")
        assert not caplog.records


class TestLogging:
    def test_every_soap_request_logs_exactly_once(self, demo_host, fig13_bytes):
        cases = [
            fig13_bytes,
            call_envelope(method="nope", params=()),
            SOAPISH,
            call_envelope(namespace="http://localhost:5000/Nowhere.jws"),
        ]
        for i, payload in enumerate(cases, start=1):
            demo_host.handle_request(soap_request(payload))
            assert len(demo_host.registry.log_entries()) == i

    def test_outcomes_recorded(self, demo_host, fig13_bytes):
        demo_host.handle_request(soap_request(fig13_bytes))
        demo_host.handle_request(soap_request(call_envelope(method="nope", params=())))
        outcomes = [e.outcome for e in demo_host.registry.log_entries()]
        assert outcomes == ["ok", "clientFault"]

    def test_metrics_visible(self, demo_host, fig13_bytes):
        for _ in range(3):
            demo_host.handle_request(soap_request(fig13_bytes))
        summary = demo_host.registry.metrics_summary()["CadastroEscolar"]
        assert summary["count"] == 3
        assert summary["faultRate"] == 0.0


class TestConcurrencyAndDeployment:
    def test_concurrent_invocations_all_correct(self, demo_host, fig13_bytes):
        listener = demo_host.listener("loopback")
        with concurrent.futures.ThreadPoolExecutor(max_workers=50) as pool:
            futures = [pool.submit(listener.request, fig13_bytes) for _ in range(50)]
            bodies = [f.result(timeout=10) for f in futures]
        for resp in bodies:
            assert parse_envelope(resp.body).body.result.value.startswith("#A001")

    def test_register_under_load_routes_next_request(self, demo_host, fig13_bytes):
        listener = demo_host.listener("loopback")
        stop = threading.Event()
        errors = []

        def hammer():
            while not stop.is_set():
                resp = listener.request(fig13_bytes)
                if resp.status != 200:
                    errors.append(resp)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.1)
        demo_host.create_service(simple_descriptor("Fresh"), UpperHandler())
        payload = call_envelope(method="shout", params=(("text", "abc"),),
                                namespace="http://localhost:5000/Fresh.jws")
        resp = listener.request(payload)
        stop.set()
        for t in threads:
            t.join()
        assert parse_envelope(resp.body).body.result.value == "ABC"
        assert not errors

    @pytest.mark.parametrize("secure", [False, True], ids=["open", "secured"])
    def test_request_while_registering_is_unknown_or_served(self, tmp_path, monkeypatch,
                                                            secure):
        # a request that comes after the registry took the record, before
        # create_service returned, finds no service or all of it: never a
        # service without its handler or keys, never an unsigned reply
        host = make_host(tmp_path, with_demo=False)
        payload = call_envelope(method="shout", params=(("text", "abc"),),
                                namespace="http://localhost:5000/Echoish.jws")
        register = host.registry.register_service
        replies = []

        def register_then_call(rec):
            register(rec)
            replies.append(host.handle_request(soap_request(payload)))

        monkeypatch.setattr(host.registry, "register_service", register_then_call)
        host.create_service(simple_descriptor(secure=secure), UpperHandler())
        [resp] = replies
        env = parse_envelope(resp.body)
        if resp.status == 200:
            assert env.body.result.value == "ABC"
            if secure:
                cert = host.service_certificate("Echoish")
                assert verify_envelope_signature(resp.body, cert) is True
        else:
            assert (resp.status, env.body.faultcode, env.body.faultstring) == (
                500, "Client", "unknown service: /Echoish.jws")

    def test_attach_racing_remove_leaves_no_live_entry(self, tmp_path):
        # attach_handler replaces the live entry it read; a remove in
        # between must not be undone, and attach sees NotFound, not KeyError
        host = make_host(tmp_path, with_demo=False)
        host.create_service(simple_descriptor(), UpperHandler())
        deadline = time.monotonic() + 1.0
        stale = []

        def attach():
            while time.monotonic() < deadline:
                try:
                    host.attach_handler("Echoish", UpperHandler())
                except NotFound:
                    pass

        def churn():
            while time.monotonic() < deadline:
                host.remove_service("Echoish")
                time.sleep(0)
                if "/Echoish.jws" in host._services:
                    stale.append(True)
                host.create_service(simple_descriptor(), UpperHandler())

        threads = [threading.Thread(target=attach) for _ in range(3)]
        threads.append(threading.Thread(target=churn))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not stale

    def test_remove_during_traffic_client_faults_after(self, demo_host, fig13_bytes):
        demo_host.remove_service("CadastroEscolar")
        fault = fault_of(demo_host.handle_request(soap_request(fig13_bytes)))
        assert fault.faultcode == "Client"
        # WSDL file survives removal
        assert (demo_host.cfg.wsdlDir / "CadastroEscolar.wsdl").exists()

    def test_exclusive_execution_serializes_handler(self, tmp_path):
        active = []
        overlap = []
        gate = threading.Lock()

        class Tracker:
            def executeMethod(self, methodName, args):
                with gate:
                    active.append(1)
                    if len(active) > 1:
                        overlap.append(True)
                time.sleep(0.02)
                with gate:
                    active.pop()
                return TypedValue.of(XsdType.STRING, "ok")

        host = make_host(tmp_path, with_demo=False)
        host.create_service(simple_descriptor("Solo", exclusive=True), Tracker())
        host.start()
        listener = host.listener("loopback")
        payload = call_envelope(method="shout", params=(("text", "x"),),
                                namespace="http://localhost:5000/Solo.jws")
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(listener.request, payload) for _ in range(8)]
            for f in futures:
                assert f.result(timeout=10).status == 200
        host.shutdown()
        assert not overlap


class ExitingHandler:
    def executeMethod(self, methodName, args):
        if args[0].value == "exit":
            sys.exit(3)
        if args[0].value == "interrupt":
            raise KeyboardInterrupt
        return TypedValue.of(XsdType.STRING, args[0].value.upper())


def shout(text: str) -> bytes:
    return call_envelope(method="shout", params=(("text", text),),
                         namespace="http://localhost:5000/Echoish.jws")


class TestRobustness:
    def test_handler_exit_is_a_handler_failure_on_every_transport(self, tmp_path):
        # SystemExit is no Exception: it passed the handler fault and the
        # listener's backstop, so it ended the socket worker serving it
        # unanswered and reached a loopback caller
        http, tcp = free_port(), free_port()
        host = make_host(tmp_path, BindingConfig(kind="loopback"),
                         BindingConfig(kind="http", port=http),
                         BindingConfig(kind="rawTcp", port=tcp),
                         with_demo=False, workerPoolSize=2)
        host.create_service(simple_descriptor(), ExitingHandler())
        host.start()
        url = f"http://127.0.0.1:{http}/Echoish.jws"
        sends = {
            "loopback": lambda payload: host.listener("loopback").request(payload, timeout=5).body,
            "http": lambda payload: http_request(url, payload, timeout=5)[1],
            "rawTcp": lambda payload: tcp_exchange(tcp, payload),
        }
        try:
            for kind, send in sends.items():
                # more exits than the pool has workers
                for _ in range(3):
                    fault = parse_envelope(send(shout("exit"))).body
                    assert fault == SoapFault("Server", "handler failure", "3"), kind
                assert parse_envelope(send(shout("abc"))).body.result.value == "ABC", kind
        finally:
            host.shutdown()

    def test_interrupt_in_a_handler_still_interrupts(self, tmp_path):
        # Ctrl-C reaches a handler only on the thread that runs
        # handle_request itself; it is the operator's, not a handler failure
        host = make_host(tmp_path, with_demo=False)
        host.create_service(simple_descriptor(), ExitingHandler())
        with pytest.raises(KeyboardInterrupt):
            host.handle_request(soap_request(shout("interrupt")))

    @pytest.mark.parametrize("payload", [b"hello", b"<notAnEnvelope/>"])
    def test_non_envelope_over_raw_tcp_is_malformed_request(self, tmp_path, payload):
        port = free_port()
        host = make_host(tmp_path, BindingConfig(kind="rawTcp", port=port))
        host.start()
        try:
            fault = parse_envelope(tcp_exchange(port, payload)).body
        finally:
            host.shutdown()
        assert (fault.faultcode, fault.faultstring) == ("Client", "malformed request")
        assert host.registry.log_entries() == []

    def test_host_failure_is_logged(self, demo_host, fig13_bytes, monkeypatch, caplog):
        def boom(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(Host, "_route", boom)
        resp = demo_host.handle_request(soap_request(fig13_bytes))
        assert (resp.status, fault_of(resp).faultstring) == (500, "internal host error")
        errors = [r for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1
        assert "boom" in logging.Formatter().formatException(errors[0].exc_info)

    def test_fuzz_subset_always_answers(self, demo_host, fig13_bytes):
        rng = random.Random(99)
        cases = []
        for _ in range(300):
            kind = rng.randrange(4)
            if kind == 0:
                cases.append(bytes(rng.randrange(256) for _ in range(rng.randrange(200))))
            elif kind == 1:
                mutated = bytearray(fig13_bytes)
                for _ in range(rng.randrange(1, 10)):
                    mutated[rng.randrange(len(mutated))] = rng.randrange(256)
                cases.append(bytes(mutated))
            elif kind == 2:
                cases.append(b"<" + bytes(rng.choices(b"abc<>/& \"'=", k=50)))
            else:
                cases.append(fig13_bytes[: rng.randrange(len(fig13_bytes))])
        for payload in cases:
            resp = demo_host.handle_request(soap_request(payload))
            assert resp.status in (200, 400, 404, 500)
            assert isinstance(resp.body, bytes)


# --- the fault matrix -----------------------------------------------------------
#
# One row per way a SOAP request can end, run against an authRequired host
# whose services are all secured. Each row pins the whole answer: fault
# code, string and detail, whether the reply is signed, the HTTP status,
# and the one log entry (outcome, serviceName, methodName).


class TrickyHandler:
    def executeMethod(self, methodName, args):
        if methodName == "crash":
            raise HandlerError("deliberate failure")
        if methodName == "reject":
            raise ValidationError("handler-side check")
        return TypedValue.of(XsdType.INT, 42)


def tricky_descriptor():
    return ServiceDescriptor(
        serviceName="Tricky",
        namespaceUri="http://localhost:5000/Tricky.jws",
        endpointPath="/Tricky.jws",
        responseNamespaceUri="http://localhost:5000/Tricky.jws",
        methods=tuple(
            MethodSignature(name, (ParameterSpec("text", XsdType.STRING),), XsdType.STRING)
            for name in ("crash", "reject", "wrongType")
        ),
        securityEnabled=True,
    )


@pytest.fixture(scope="module")
def matrix_data_dir(tmp_path_factory):
    """A stopped host's data dir: the secured demo, Tricky and Orphan (all
    secured, keys already issued) and one user allowed everywhere."""
    root = tmp_path_factory.mktemp("matrix")
    host = make_host(root, secure_demo=True)
    host.create_service(tricky_descriptor(), TrickyHandler())
    host.create_service(simple_descriptor("Orphan", secure=True), UpperHandler())
    host.registry.add_user(make_user("aluno1", "segredo", "dev1", {"*"}))
    host.shutdown()
    return root / "data"


@pytest.fixture
def matrix_host(matrix_data_dir, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(matrix_data_dir, data)
    host = Host(HostConfig(bindings=(), dataDir=data, authRequired=True))
    host.attach_handler("CadastroEscolar", NotesHandler())
    host.attach_handler("Tricky", TrickyHandler())
    return host  # Orphan is registered but has no handler


def authed(method="obterNotas", params=(("codAluno", "A001"), ("codDisciplina", "D002")),
           namespace="http://localhost:5000/CadastroEscolar.jws", headers=(),
           types=None, password="segredo") -> bytes:
    auth = auth_entry("aluno1", password_proof(password))
    return call_envelope(method=method, params=params, namespace=namespace,
                         headers=(auth, *headers), types=types)


ENCRYPTED_MARKER = '<Encrypted xmlns="urn:mobilehost:headers">true</Encrypted>'
TRICKY_NS = "http://localhost:5000/Tricky.jws"


def signed(cert_keys="keypair", edit=lambda text: text):
    """An authed fig13-style call signed with the shared keypair. It carries
    the edited certificate of cert_keys, or no SignerCert when None."""
    def build(ctx):
        cert_text = None
        if cert_keys is not None:
            cert_text = edit(render_certificate_text(
                issue_certificate(ctx[cert_keys], "Consumer/")))
        return attach_signature(authed(), ctx["keypair"].privateKey, cert_text)
    return build


Expect = collections.namedtuple(
    "Expect", "code string detail signed status outcome service method")

FAULT_MATRIX = [
    ("not_xml", lambda ctx: b"this is not xml",
     Expect("Client", "malformed request", None, False, 400, None, None, None)),
    ("dtd", lambda ctx: b'<!DOCTYPE d [<!ENTITY x "Q">]>' + ctx["fig13"],
     Expect("Client", "malformed request", None, False, 400, None, None, None)),
    ("response_as_request", lambda ctx: ctx["fig14"],
     Expect("Client", "request body must be a method call", None, False, 500,
            "clientFault", "", "")),
    ("missing_auth", lambda ctx: call_envelope(),
     Expect("Client", "access denied", "missing Auth header", False, 500,
            "denied", "", "obterNotas")),
    ("unreadable_auth", lambda ctx: call_envelope(headers=(make_header_entry(
        '<Auth xmlns="urn:mobilehost:headers"><Login>aluno1</Login></Auth>'),)),
     Expect("Client", "access denied", "unreadable Auth header", False, 500,
            "denied", "", "obterNotas")),
    ("unknown_path", lambda ctx: authed(namespace="http://localhost:5000/Nowhere.jws"),
     Expect("Client", "unknown service: /Nowhere.jws", None, False, 500,
            "clientFault", "", "obterNotas")),
    ("wrong_password", lambda ctx: authed(password="wrong"),
     Expect("Client", "access denied", None, False, 500,
            "denied", "CadastroEscolar", "obterNotas")),
    ("unreadable_signature", lambda ctx: authed(headers=(make_header_entry(
        '<Signature xmlns="urn:mobilehost:headers" algorithm="RSA-SHA256" />'),)),
     Expect("Client", "unreadable Signature header", None, True, 500,
            "clientFault", "CadastroEscolar", "obterNotas")),
    ("bad_signature", signed(cert_keys="other_keypair"),
     Expect("Client", "signature verification failed", None, True, 500,
            "clientFault", "CadastroEscolar", "obterNotas")),
    ("signature_without_signer_cert", signed(cert_keys=None),
     Expect("Client", "signature without signer certificate", None, True, 500,
            "clientFault", "CadastroEscolar", "obterNotas")),
    ("signer_cert_bad_exponent",
     signed(edit=lambda text: text.replace("public exponent:65537", "public exponent:4")),
     Expect("Client", "invalid signer certificate", None, True, 500,
            "clientFault", "CadastroEscolar", "obterNotas")),
    ("signer_cert_signature_longer_than_modulus",
     signed(edit=lambda text: text.replace("Signature:\n", "Signature:\n" + "9" * 43 + "\n")),
     Expect("Client", "unreadable signer certificate", None, True, 500,
            "clientFault", "CadastroEscolar", "obterNotas")),
    ("decrypt_garbage", lambda ctx: authed(
        method="EncryptedRequest",
        params=(("wrappedKey", "AAAA"), ("iv", "AAAA"), ("ciphertext", "AAAA")),
        headers=(make_header_entry(ENCRYPTED_MARKER),)),
     Expect("Client", "decryption failed", None, True, 500,
            "clientFault", "CadastroEscolar", "EncryptedRequest")),
    ("wrong_carrier_shape", lambda ctx: authed(headers=(make_header_entry(ENCRYPTED_MARKER),)),
     Expect("Client", "encrypted requests must be an EncryptedRequest carrier call", None,
            True, 500, "clientFault", "CadastroEscolar", "obterNotas")),
    ("unknown_method", lambda ctx: authed(method="nope", params=()),
     Expect("Client", "unknown method: nope", None, True, 500,
            "clientFault", "CadastroEscolar", "nope")),
    ("arity", lambda ctx: authed(params=(("codAluno", "A001"),)),
     Expect("Client", "expected 2 parameter(s), got 1", None, True, 500,
            "clientFault", "CadastroEscolar", "obterNotas")),
    ("type", lambda ctx: authed(params=(("codAluno", "7"), ("codDisciplina", "D002")),
                                types={"codAluno": XsdType.INT}),
     Expect("Client", "parameter 'codAluno': expected string, got int", None, True, 500,
            "clientFault", "CadastroEscolar", "obterNotas")),
    ("no_handler", lambda ctx: authed(method="shout", params=(("text", "x"),),
                                      namespace="http://localhost:5000/Orphan.jws"),
     Expect("Server", "no handler attached to service", None, True, 500,
            "serverFault", "Orphan", "shout")),
    ("handler_error", lambda ctx: authed(method="crash", params=(("text", "x"),),
                                         namespace=TRICKY_NS),
     Expect("Server", "handler failure", "deliberate failure", True, 500,
            "serverFault", "Tricky", "crash")),
    ("handler_validation_error", lambda ctx: authed(method="reject", params=(("text", "x"),),
                                                    namespace=TRICKY_NS),
     Expect("Server", "handler failure", "handler-side check", True, 500,
            "serverFault", "Tricky", "reject")),
    ("wrong_return_type", lambda ctx: authed(method="wrongType", params=(("text", "x"),),
                                             namespace=TRICKY_NS),
     Expect("Server", "handler returned int, signature declares string", None, True, 500,
            "serverFault", "Tricky", "wrongType")),
    ("malformed", lambda ctx: b"<notAnEnvelope/>",
     Expect("Client", "malformed request", None, False, 400, None, None, None)),
    ("success", lambda ctx: authed(),
     Expect(None, None, None, True, 200, "ok", "CadastroEscolar", "obterNotas")),
]


@pytest.mark.parametrize("build, expect", [row[1:] for row in FAULT_MATRIX],
                         ids=[row[0] for row in FAULT_MATRIX])
def test_fault_matrix(matrix_host, build, expect, keypair, other_keypair,
                      fig13_bytes, fig14_bytes):
    ctx = {"keypair": keypair, "other_keypair": other_keypair,
           "fig13": fig13_bytes, "fig14": fig14_bytes}
    payload = build(ctx)
    resp = matrix_host.handle_request(soap_request(payload))

    assert resp.status == expect.status
    env = parse_envelope(resp.body)
    if expect.code is None:
        assert not isinstance(env.body, SoapFault)
    else:
        assert (env.body.faultcode, env.body.faultstring, env.body.detail) == (
            expect.code, expect.string, expect.detail)
    signed = env.header(SIGNATURE_HEADER) is not None
    assert signed == expect.signed
    if signed:
        cert = matrix_host.service_certificate(expect.service)
        assert verify_envelope_signature(resp.body, cert) is True

    log = matrix_host.registry.log_entries()
    if expect.outcome is None:
        assert log == []
    else:
        assert [(e.outcome, e.serviceName, e.methodName) for e in log] == [
            (expect.outcome, expect.service, expect.method)]


# --- handler output XML cannot carry ------------------------------------------
#
# One row per handler outcome, each against a secured and an unsecured
# service. A result with a character outside XML 1.0 is a Server fault,
# such a character in a fault text becomes U+FFFD, a result that is not
# a TypedValue and a lexical form its type does not allow are each a
# Server fault that names the check; every answer is well-formed and
# signed iff the service is secured.


class OddHandler:
    def executeMethod(self, methodName, args):
        if methodName == "badResult":
            return TypedValue.of(XsdType.STRING, "x\x01y")
        if methodName == "badRaise":
            raise ValueError("bad \x01")
        if methodName == "badLexical":
            return TypedValue(XsdType.INT, "abc", 1)
        return "plain str"


def odd_descriptor(secure: bool) -> ServiceDescriptor:
    name = "OddSecure" if secure else "OddPlain"
    return ServiceDescriptor(
        serviceName=name,
        namespaceUri=f"http://localhost:5000/{name}.jws",
        endpointPath=f"/{name}.jws",
        responseNamespaceUri=f"http://localhost:5000/{name}.jws",
        methods=tuple(MethodSignature(m, (), returns) for m, returns in (
            ("badResult", XsdType.STRING), ("badRaise", XsdType.STRING),
            ("plainStr", XsdType.STRING), ("badLexical", XsdType.INT))),
        securityEnabled=secure,
    )


HANDLER_OUTPUT_MATRIX = [
    ("badResult", "Server", "handler result holds characters XML 1.0 cannot carry", None),
    ("badRaise", "Server", "handler failure", "bad \ufffd"),
    ("plainStr", "Server", "handler returned str, signature declares string", None),
    ("badLexical", "Server", "handler result is not a valid xsd:int lexical value", None),
]


@pytest.mark.parametrize("secure", [False, True], ids=["unsecured", "secured"])
@pytest.mark.parametrize("method, code, string, detail", HANDLER_OUTPUT_MATRIX,
                         ids=[row[0] for row in HANDLER_OUTPUT_MATRIX])
def test_handler_output_matrix(tmp_path, secure, method, code, string, detail):
    host = make_host(tmp_path, with_demo=False)
    desc = odd_descriptor(secure)
    host.create_service(desc, OddHandler())
    resp = host.handle_request(soap_request(
        call_envelope(method=method, params=(), namespace=desc.namespaceUri)))

    assert resp.status == 500
    env = parse_envelope(resp.body)  # well-formed
    assert (env.body.faultcode, env.body.faultstring, env.body.detail) == (code, string, detail)
    assert (env.header(SIGNATURE_HEADER) is not None) == secure
    if secure:
        cert = host.service_certificate(desc.serviceName)
        assert verify_envelope_signature(resp.body, cert) is True
    assert [(e.outcome, e.serviceName, e.methodName) for e in host.registry.log_entries()] == [
        ("serverFault", desc.serviceName, method)]


# --- one parse per request --------------------------------------------------------


@pytest.fixture
def xml_calls(monkeypatch):
    """Count XML parses from any thread: every expat parser created
    (canonical.parse_xml makes one per document) and every
    ET.fromstring and ET.canonicalize call."""
    counts = collections.Counter()
    lock = threading.Lock()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            with lock:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((pyexpat, "ParserCreate"), (ET, "fromstring"), (ET, "canonicalize")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return counts


def send_fig13_on_every_transport(tmp_path, fig13_bytes, xml_calls) -> dict:
    """{transport: (parses counted, reply body)} for one fig13 call each
    over loopback, HTTP and rawTcp."""
    http, tcp = free_port(), free_port()
    host = make_host(tmp_path, BindingConfig(kind="loopback"),
                     BindingConfig(kind="http", port=http),
                     BindingConfig(kind="rawTcp", port=tcp))
    host.start()
    try:
        sends = {
            "loopback": lambda: host.listener("loopback").request(fig13_bytes).body,
            "http": lambda: http_request(
                f"http://127.0.0.1:{http}/CadastroEscolar.jws", fig13_bytes)[1],
            "rawTcp": lambda: tcp_exchange(tcp, fig13_bytes),
        }
        seen = {}
        for kind, send in sends.items():
            xml_calls.clear()
            body = send()
            seen[kind] = (dict(xml_calls), body)
        return seen
    finally:
        host.shutdown()


class TestOneParsePerRequest:
    def test_plain_call_is_parsed_once_on_every_transport(self, tmp_path, fig13_bytes,
                                                          fig14_bytes, xml_calls):
        seen = send_fig13_on_every_transport(tmp_path, fig13_bytes, xml_calls)
        assert list(seen) == ["loopback", "http", "rawTcp"]
        for kind, (counts, body) in seen.items():
            assert counts == {"ParserCreate": 1}, kind
            assert canonicalize(body) == canonicalize(fig14_bytes), kind

    def test_a_listener_parsing_twice_is_counted(self, tmp_path, fig13_bytes, xml_calls,
                                                 monkeypatch):
        # the counter the test above relies on sees a second parse
        classify = transport.classify_request

        def parse_then_classify(payload, *args, **kwargs):
            parse_xml(payload)
            return classify(payload, *args, **kwargs)

        monkeypatch.setattr(transport, "classify_request", parse_then_classify)
        seen = send_fig13_on_every_transport(tmp_path, fig13_bytes, xml_calls)
        assert {kind: counts for kind, (counts, _) in seen.items()} == {
            kind: {"ParserCreate": 2} for kind in ("loopback", "http", "rawTcp")}

    def test_secured_call_parses_nothing_after_the_handler(self, tmp_path, fig13_bytes,
                                                            xml_calls):
        host = make_host(tmp_path, secure_demo=True)
        seen = []

        class Recording(NotesHandler):
            def executeMethod(self, methodName, args):
                result = super().executeMethod(methodName, args)
                seen.append(dict(xml_calls))
                return result

        host.attach_handler("CadastroEscolar", Recording())
        resp = host.handle_request(soap_request(fig13_bytes))
        assert seen and dict(xml_calls) == seen[0]
        cert = host.service_certificate("CadastroEscolar")
        assert verify_envelope_signature(resp.body, cert) is True

    def test_authenticated_signed_call_is_parsed_once(self, tmp_path, keypair, xml_calls):
        # Auth and Signature are read from the elements handle_request
        # parsed; attach_signature parses, so the request is built first
        host = make_host(tmp_path, secure_demo=True, authRequired=True)
        host.registry.add_user(make_user("aluno1", "segredo", "dev1", {"CadastroEscolar"}))
        signer_cert = render_certificate_text(issue_certificate(keypair, "Consumer/"))
        payload = attach_signature(authed(), keypair.privateKey, signer_cert)
        host.start()
        try:
            xml_calls.clear()
            resp = host.listener("loopback").request(payload)
            assert dict(xml_calls) == {"ParserCreate": 1}
        finally:
            host.shutdown()
        assert resp.status == 200
        cert = host.service_certificate("CadastroEscolar")
        assert verify_envelope_signature(resp.body, cert) is True


def tcp_exchange(port: int, payload: bytes) -> bytes:
    with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
        conn.sendall(encode_frame(payload))
        with conn.makefile("rb") as rfile:
            return read_frame(rfile)


# --- the Signature header entry ----------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(value=c14n_text, cert_text=st.one_of(st.none(), c14n_text),
       algorithm=c14n_text)
def test_signature_header_entry_equals_parsed_form(value, cert_text, algorithm):
    cert_part = f"<SignerCert>{_text(cert_text).decode()}</SignerCert>" if cert_text else ""
    wire = (f'<Signature xmlns="urn:mobilehost:headers" algorithm="{_attr(algorithm).decode()}"'
            f' digest="SHA-256"><Value>{_text(value).decode()}</Value>{cert_part}</Signature>')
    block = SignatureBlock(algorithm=algorithm, digestAlgorithm="SHA-256", value=value)
    assert emit_canonical(signature_header_entry(block, cert_text)) == emit_canonical(
        make_header_entry(wire))


# --- reading Auth and Signature from the received element -------------------------
#
# The reference is the reading before entries were kept as elements: the
# entry's canonical text parsed again, then each child's text. A field
# read from the element must be the text that canonical form carries.


def _outcome(read, el):
    try:
        return ("ok", read(el))
    except Exception as e:
        return (type(e).__name__, str(e))


def _reference_fields(el):
    el = parse_xml(emit_canonical(el))
    return el, {child.tag.rsplit("}", 1)[-1]: child.text or "" for child in el}


def reference_auth(el) -> AuthHeader:
    _, fields = _reference_fields(el)
    try:
        return AuthHeader(fields["Login"], fields["PasswordProof"], fields["DeviceId"])
    except KeyError as e:
        raise MalformedXml(f"Auth header missing {e.args[0]}") from None


def reference_signature(el):
    el, fields = _reference_fields(el)
    if "Value" not in fields:
        raise MalformedSignature("Signature header has no Value")
    return (SignatureBlock(el.get("algorithm") or security.SIGNATURE_ALGORITHM,
                           el.get("digest") or security.DIGEST_ALGORITHM,
                           fields["Value"]),
            fields.get("SignerCert"))


@settings(max_examples=400, deadline=None)
@given(el=received_entries("Auth", ("Login", "PasswordProof", "DeviceId")))
def test_auth_read_in_place_equals_reparsed_canonical_form(el):
    assert _outcome(parse_auth_header, el) == _outcome(reference_auth, el)


@settings(max_examples=400, deadline=None)
@given(el=received_entries("Signature", ("Value", "SignerCert")))
def test_signature_read_in_place_equals_reparsed_canonical_form(el):
    assert _outcome(parse_signature_header, el) == _outcome(reference_signature, el)
