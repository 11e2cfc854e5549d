"""Host lifecycle and the request pipeline.

Listeners hand over framed bytes only. ``Host.handle_request``
classifies each request (``transport.classify_request``), which parses
a SOAP payload once. A SOAP request then runs through a straight
sequence of stages: read the envelope from that tree -> authenticate
-> route -> authorize -> verify the inbound signature (if present) ->
decrypt (if marked) -> validate -> execute -> coerce, serialize and
sign (if the service is secured). Each stage returns its result or
raises a typed ``MobileHostError``. ``Host._handle_soap``
turns such an error into a fault in one place: ``fault_code_for`` picks
Client or Server, the fault is signed iff the caller got past
authorization to a secured service, and one log entry records the
service and method the request reached. Whatever a handler raises,
``SystemExit`` included, becomes a Server "handler failure". No input
byte sequence may leave the pipeline without a response: any other
exception is answered with a Server "internal host error" and logged
with its traceback.

Requests find a service in one table keyed by endpoint path, with one
lookup and no lock. Its live entry (``_LiveService``) holds the service
record, the handler, the keys iff secured and the lock iff exclusive.
It is built after the registry took the record, so a request finds all
it needs in one entry or the path is an unknown service. Its keys come
from ``KeyStore.service_keys``.

Wire conventions owned here (see docs/wire-format.md):

* header entries live under the namespace ``urn:mobilehost:headers``:
  ``Auth`` (Login / PasswordProof / DeviceId children), ``Signature``
  (algorithm and digest attributes, Value child, optional SignerCert
  child) and the ``Encrypted`` marker;
* an encrypted request is a carrier call named ``EncryptedRequest`` in
  the service namespace with wrappedKey / iv / ciphertext parameters,
  flagged by the Encrypted marker header;
* signatures cover the canonical Body bytes of the serialized envelope
  they travel in, so header insertion never invalidates them. The host
  signs a reply's model before serializing it
  (``soap.serialize_body_canonical``) and checks a request's signature
  on the tree ``handle_request`` parsed, so no envelope is parsed twice.
  A request's signature and a reply's (``verify_envelope_signature``,
  which also takes a parsed root) go through one verify step;
* ``Auth`` and ``Signature`` are read from the header entry elements of
  that tree, each field as the entry's canonical form carries it
  (``canonical.canonical_text``);
* ``GET <endpointPath>?wsdl`` returns the stored WSDL and
  ``GET <endpointPath>?cert`` the service certificate text.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import mimetypes
import threading
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional
from urllib.parse import urlsplit

from . import security, transport
from .canonical import canonical_text, keeps_space, parse_xml, tree_body_canonical
from .errors import (
    AccessDenied,
    DuplicateService,
    HandlerError,
    IoFailure,
    MalformedSignature,
    MalformedXml,
    MobileHostError,
    NotFound,
    fault_code_for,
)
from .registry import Registry, RequestLogEntry, ServiceRecord
from .security import CipherEnvelope, KeyStore, SignatureBlock
from .service import (
    MethodSignature,
    ServiceDescriptor,
    ServiceHandler,
    coerce_result,
    descriptor_fingerprint,
    validate_call,
)
from .soap import (
    QName,
    SoapCall,
    SoapEnvelope,
    SoapResponseBody,
    TypedValue,
    XsdType,
    make_fault,
    parse_envelope,
    serialize_body_canonical,
    serialize_envelope,
    _text,
)
from .transport import InboundRequest, OutboundResponse, start_listener
from .wsdl import generate_wsdl, store_wsdl

HEADERS_NS = "urn:mobilehost:headers"
AUTH_HEADER = QName("Auth", HEADERS_NS)
SIGNATURE_HEADER = QName("Signature", HEADERS_NS)
ENCRYPTED_HEADER = QName("Encrypted", HEADERS_NS)
ENCRYPTED_OPERATION = "EncryptedRequest"

XML_CONTENT_TYPE = "text/xml; charset=utf-8"

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class HostConfig:
    bindings: tuple
    dataDir: Path
    wsdlDir: Optional[Path] = None
    webRoot: Optional[Path] = None
    authRequired: bool = False
    workerPoolSize: int = transport.DEFAULT_POOL_SIZE

    def __post_init__(self) -> None:
        object.__setattr__(self, "bindings", tuple(self.bindings))
        object.__setattr__(self, "dataDir", Path(self.dataDir))
        wsdl_dir = Path(self.wsdlDir) if self.wsdlDir else self.dataDir / "wsdl"
        object.__setattr__(self, "wsdlDir", wsdl_dir)
        if self.webRoot is not None:
            object.__setattr__(self, "webRoot", Path(self.webRoot))
        if self.dataDir == self.wsdlDir:
            raise ValueError("dataDir and wsdlDir must be distinct")
        if self.workerPoolSize < 1:
            raise ValueError("workerPoolSize must be >= 1")


@dataclass(frozen=True)
class AuthHeader:
    login: str
    passwordProof: str
    deviceId: str


# --- header entry wire helpers ----------------------------------------------


def auth_header_xml(auth: AuthHeader) -> str:
    return (
        f'<Auth xmlns="{HEADERS_NS}">'
        f"<Login>{_text(auth.login).decode()}</Login>"
        f"<PasswordProof>{_text(auth.passwordProof).decode()}</PasswordProof>"
        f"<DeviceId>{_text(auth.deviceId).decode()}</DeviceId>"
        f"</Auth>"
    )


def _entry_fields(el: ET.Element) -> dict:
    """Local name -> text of each child of a header entry, the text as
    the entry's canonical form carries it. A repeated name keeps its
    last value."""
    preserve = keeps_space(el)
    return {
        child.tag.rsplit("}", 1)[-1]:
            canonical_text(child.text, keeps_space(child, preserve))
        for child in el
    }


def parse_auth_header(el: ET.Element) -> AuthHeader:
    fields = _entry_fields(el)
    try:
        return AuthHeader(
            login=fields["Login"],
            passwordProof=fields["PasswordProof"],
            deviceId=fields["DeviceId"],
        )
    except KeyError as e:
        raise MalformedXml(f"Auth header missing {e.args[0]}") from None


def signature_header_entry(sig: SignatureBlock,
                           signer_cert_text: Optional[str] = None) -> ET.Element:
    """The Signature header entry element, built from the block instead
    of parsed."""
    el = ET.Element(SIGNATURE_HEADER.clark,
                    {"algorithm": sig.algorithm, "digest": sig.digestAlgorithm})
    ET.SubElement(el, f"{{{HEADERS_NS}}}Value").text = sig.value
    if signer_cert_text:
        ET.SubElement(el, f"{{{HEADERS_NS}}}SignerCert").text = signer_cert_text
    return el


def parse_signature_header(el: ET.Element):
    """Return (SignatureBlock, signer certificate text or None)."""
    fields = _entry_fields(el)
    value = fields.get("Value")
    if value is None:
        raise MalformedSignature("Signature header has no Value")
    return (
        SignatureBlock(
            algorithm=el.get("algorithm") or security.SIGNATURE_ALGORITHM,
            digestAlgorithm=el.get("digest") or security.DIGEST_ALGORITHM,
            value=value,
        ),
        fields.get("SignerCert"),
    )


def attach_signature(
    envelope_xml: bytes,
    private_key,
    signer_cert_text: Optional[str] = None,
) -> bytes:
    """Re-serialize an envelope with a Signature header covering its
    canonical Body bytes: parse it, then sign the model."""
    return serialize_envelope(
        signed_envelope(parse_envelope(envelope_xml), private_key, signer_cert_text)
    )


def signed_envelope(env: SoapEnvelope, private_key,
                    signer_cert_text: Optional[str] = None) -> SoapEnvelope:
    """env plus a Signature header entry over its canonical Body bytes."""
    sig = security.sign_message(serialize_body_canonical(env), private_key)
    return replace(
        env, headerEntries=env.headerEntries + (signature_header_entry(sig, signer_cert_text),)
    )


def verify_envelope_signature(envelope, cert: security.Certificate) -> Optional[bool]:
    """True/False per the embedded signature; None if there is none.
    ``envelope`` is the serialized bytes or the root parse_xml made of them."""
    try:
        root = envelope if isinstance(envelope, ET.Element) else parse_xml(envelope)
        entry = parse_envelope(root).header(SIGNATURE_HEADER)
        if entry is None:
            return None
        return _body_signed(root, parse_signature_header(entry)[0], cert.public_key())
    except MobileHostError:
        return False


def _body_signed(root: ET.Element, block: SignatureBlock, public_key) -> bool:
    """Whether block signs root's canonical Body bytes under public_key:
    the one verify step of requests and replies."""
    try:
        return security.verify_signature(tree_body_canonical(root), block, public_key)
    except MalformedSignature:
        return False


def encrypt_request(plain_envelope: bytes, service_namespace: str,
                    cert: security.Certificate) -> bytes:
    """Wrap a serialized request for a secured service: the whole
    envelope becomes the ciphertext of an EncryptedRequest carrier call."""
    return serialize_envelope(encrypted_carrier(plain_envelope, service_namespace, cert))


def encrypted_carrier(plain_envelope: bytes, service_namespace: str,
                      cert: security.Certificate) -> SoapEnvelope:
    """The carrier envelope encrypt_request serializes."""
    cipher = security.encrypt_message(plain_envelope, cert.public_key())
    marker = ET.Element(ENCRYPTED_HEADER.clark)
    marker.text = "true"
    return SoapEnvelope(
        body=SoapCall(
            operation=QName(ENCRYPTED_OPERATION, service_namespace),
            params=(
                ("wrappedKey", TypedValue.of(XsdType.STRING, cipher.wrappedKey)),
                ("iv", TypedValue.of(XsdType.STRING, cipher.iv)),
                ("ciphertext", TypedValue.of(XsdType.STRING, cipher.ciphertext)),
            ),
        ),
        headerEntries=(marker,),
    )


# --- the host -----------------------------------------------------------------


@dataclass(frozen=True)
class _LiveService:
    """What a registered service needs at run time."""

    record: ServiceRecord
    handler: Optional[ServiceHandler]
    keys: Optional[tuple]  # (KeyPair, Certificate) iff the service is secured
    lock: Optional[threading.Lock]  # iff it runs exclusively


class Host:
    def __init__(self, cfg: HostConfig):
        self.cfg = cfg
        # read first: a data dir the registry refuses is left as it was
        self.registry = Registry.load_snapshot(cfg.dataDir)
        try:
            cfg.dataDir.mkdir(parents=True, exist_ok=True)
            cfg.wsdlDir.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise IoFailure(f"cannot create host directories: {e}") from None
        self.keystore = KeyStore(cfg.dataDir / "keys")
        self._services: dict = {}  # endpointPath -> _LiveService
        # create, attach and remove hold it, so each changes the registry
        # and the live table as one step; requests read without it
        self._manage_lock = threading.RLock()
        self._listeners: list = []
        for rec in self.registry.list_services():
            desc = rec.descriptor
            keys = self.keystore.service_keys(desc.serviceName) if desc.securityEnabled else None
            self._publish(rec, None, keys)

    # --- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Start a listener per binding; a no-op while they run."""
        if self._listeners:
            return
        started = []
        try:
            for binding in self.cfg.bindings:
                started.append(
                    start_listener(binding, self.handle_request,
                                   pool_size=self.cfg.workerPoolSize)
                )
        except Exception:
            for listener in started:
                listener.stop()
            raise
        self._listeners = started

    def shutdown(self) -> None:
        """Stop listeners gracefully. State needs no saving here: the
        registry writes each change as it is made. The host may be
        started again afterwards."""
        listeners, self._listeners = self._listeners, []
        for listener in listeners:
            listener.stop()

    def listener(self, kind: str):
        for listener in self._listeners:
            if listener.kind == kind:
                return listener
        return None

    def _endpoint_url(self, desc: ServiceDescriptor) -> str:
        for binding in self.cfg.bindings:
            if binding.kind == "http":
                addr = "localhost" if binding.address in ("0.0.0.0", "::") else binding.address
                return f"http://{addr}:{binding.port}{desc.endpointPath}"
        return f"http://localhost:5000{desc.endpointPath}"

    # --- service management ------------------------------------------------

    def create_service(self, desc: ServiceDescriptor, handler: ServiceHandler) -> ServiceRecord:
        """Register a service: key material iff secured, WSDL generated
        and stored, route live immediately. Re-creating a fingerprint-
        identical service just re-attaches the handler. Keys and WSDL
        are written before the registry saves the record, so after a
        crash the saved state never names key material that is missing;
        the live entry is published only after the registry took the
        record, so a refused one leaves nothing behind."""
        with self._manage_lock:
            name = desc.serviceName
            try:
                existing = self.registry.lookup_service(name)
            except NotFound:
                existing = None
            if existing is not None:
                if descriptor_fingerprint(existing.descriptor) == descriptor_fingerprint(desc):
                    self.attach_handler(name, handler)
                    return existing
                raise DuplicateService(
                    f"service {name} already exists with a different signature"
                )

            keys = self.keystore.service_keys(name, issue=True) if desc.securityEnabled else None
            doc = generate_wsdl(desc, self._endpoint_url(desc))
            store_wsdl(doc, self.cfg.wsdlDir)
            rec = ServiceRecord(descriptor=desc, wsdl=doc, createdAt=time.time())
            self.registry.register_service(rec)
            self._publish(rec, handler, keys)
            return rec

    def _publish(self, rec: ServiceRecord, handler: Optional[ServiceHandler],
                 keys: Optional[tuple]) -> None:
        lock = threading.Lock() if rec.descriptor.exclusiveExecution else None
        self._services[rec.descriptor.endpointPath] = _LiveService(rec, handler, keys, lock)

    def attach_handler(self, service_name: str, handler: ServiceHandler) -> None:
        with self._manage_lock:
            path = self.registry.lookup_service(service_name).descriptor.endpointPath
            self._services[path] = replace(self._services[path], handler=handler)

    def remove_service(self, name: str) -> None:
        with self._manage_lock:
            path = self.registry.lookup_service(name).descriptor.endpointPath
            self.registry.remove_service(name)
            self._services.pop(path, None)

    def service_certificate(self, name: str) -> security.Certificate:
        with self._manage_lock:  # NotFound for an unknown name
            live = self._services.get(self.registry.lookup_service(name).descriptor.endpointPath)
        if live is None or live.keys is None:
            raise NotFound(f"no key material for service: {name}")
        return live.keys[1]

    # --- pipeline ------------------------------------------------------------

    def handle_request(self, req: InboundRequest) -> OutboundResponse:
        try:
            # through the module so a wrapper bound there sees each call
            # (perfbench/traced_serve.py counts bytes_in with one)
            kind, root = transport.classify_request(req.payload, req.headers, req.method)
            if kind == "web":
                return self._handle_web(req)
            if kind == "malformed":
                return _xml_response(400, make_fault("Client", "malformed request"))
            return self._handle_soap(req.path, root)
        except Exception:
            # absolute backstop: no input may go unanswered
            _log.exception("request from %s failed in the host", req.peer)
            return _xml_response(500, make_fault("Server", "internal host error"))

    # --- web branch ---------------------------------------------------------

    def _handle_web(self, req: InboundRequest) -> OutboundResponse:
        if req.method == "GET" and req.query in ("wsdl", "cert"):
            live = self._services.get(req.path)
            if live is None:
                return _plain(404, "no such service")
            if req.query == "wsdl":
                return OutboundResponse(200, XML_CONTENT_TYPE, live.record.wsdl.xmlText)
            if live.keys is None:
                return _plain(404, "service has no certificate")
            return _plain(200, security.render_certificate_text(live.keys[1]))
        if req.method == "GET":
            return self._serve_static(req.path)
        return _plain(404, "no such resource")

    def _serve_static(self, path: str) -> OutboundResponse:
        root = self.cfg.webRoot
        if root is None:
            return _plain(404, "not found")
        relative = path.lstrip("/") or "index.html"
        try:  # ValueError: a path outside the root, or one with a NUL byte
            target = (root / relative).resolve()
            target.relative_to(root.resolve())
        except ValueError:
            return _plain(404, "not found")
        if not target.is_file():
            return _plain(404, "not found")
        content_type = mimetypes.guess_type(target.name)[0] or "application/octet-stream"
        return OutboundResponse(200, content_type, target.read_bytes())

    # --- soap branch -------------------------------------------------------

    def _handle_soap(self, path: str, root: ET.Element) -> OutboundResponse:
        started = time.perf_counter()
        service_name = method_name = ""
        signing_key = None  # set once the caller is authorized for a secured service
        outcome = "serverFault"
        try:
            env, call = _parse_call(root, "request body must be a method call")
            method_name = call.operation.localName
            auth = self._authenticate(env)
            live = self._route(path, call)
            desc = live.record.descriptor
            service_name = desc.serviceName
            self._authorize(auth, service_name)
            if desc.securityEnabled:
                signing_key = live.keys[0].privateKey
                _verify_inbound_signature(root, env)
                if env.header(ENCRYPTED_HEADER) is not None:
                    call = _decrypt_carrier(call, signing_key)
                    method_name = call.operation.localName
            sig = validate_call(desc, call)
            response = _respond(desc, sig, _execute(live, sig, call), signing_key)
            outcome = "ok"
            return response
        except MobileHostError as e:
            code = fault_code_for(e)
            outcome = "denied" if isinstance(e, AccessDenied) else code.lower() + "Fault"
            return _xml_response(500, make_fault(code, str(e), e.detail), signing_key)
        finally:
            self.registry.append_log(
                RequestLogEntry(
                    timestamp=time.time(),
                    serviceName=service_name,
                    methodName=method_name,
                    durationMicros=int((time.perf_counter() - started) * 1_000_000),
                    outcome=outcome,
                )
            )

    def _authenticate(self, env: SoapEnvelope) -> Optional[AuthHeader]:
        """Credentials are present and readable when the host requires them."""
        if not self.cfg.authRequired:
            return None
        entry = env.header(AUTH_HEADER)
        if entry is None:
            raise AccessDenied(detail="missing Auth header")
        try:
            return parse_auth_header(entry)
        except MalformedXml:
            raise AccessDenied(detail="unreadable Auth header") from None

    def _route(self, path: str, call: SoapCall) -> _LiveService:
        """The request path, or else the path of the call's namespace URI."""
        path = path or urlsplit(call.operation.namespaceUri).path
        live = self._services.get(path)
        if live is None:
            raise NotFound(f"unknown service: {path or '(no path)'}")
        return live

    def _authorize(self, auth: Optional[AuthHeader], service_name: str) -> None:
        if auth is not None and not self.registry.check_access_proof(
            auth.login, auth.passwordProof, service_name
        ):
            raise AccessDenied()


def _execute(live: _LiveService, sig: MethodSignature, call: SoapCall) -> TypedValue:
    """Run the handler; whatever it raises, SystemExit too, becomes a HandlerError."""
    if live.handler is None:
        raise HandlerError("no handler attached to service")
    try:
        with live.lock or contextlib.nullcontext():
            return live.handler.executeMethod(sig.name, [value for _, value in call.params])
    except KeyboardInterrupt:
        raise  # the operator's Ctrl-C, not the handler's failure
    except BaseException as e:
        raise HandlerError("handler failure", detail=str(e)) from e


def _parse_call(raw, not_a_call: str) -> tuple:
    """The envelope and the method call it carries."""
    env = parse_envelope(raw)
    if not isinstance(env.body, SoapCall):
        raise MalformedXml(not_a_call)
    return env, env.body


def _verify_inbound_signature(root, env: SoapEnvelope) -> None:
    """Check the Signature header a sender attached, if there is one."""
    entry = env.header(SIGNATURE_HEADER)
    if entry is None:
        return
    try:
        block, cert_text = parse_signature_header(entry)
    except MalformedSignature:
        raise MalformedSignature("unreadable Signature header") from None
    if not cert_text:
        raise MalformedSignature("signature without signer certificate")
    # a check of the certificate's validity window must run here, on
    # every request, whether _signer_key hits its cache or not
    if not _body_signed(root, block, _signer_key(cert_text)):
        raise MalformedSignature("signature verification failed")


@functools.lru_cache(maxsize=64)
def _signer_key(cert_text: str):
    """The public key of a signer certificate that reads and verifies,
    cached by its exact text: a consumer sends the same certificate with
    every request, and parsing and verifying it cost 32 + 58 us each
    time. A refusal raises, and lru_cache keeps no exception, so an
    unreadable or invalid certificate is refused on every request."""
    try:
        cert = security.parse_certificate_text(cert_text)
    except ValueError:
        raise MalformedSignature("unreadable signer certificate") from None
    if not security.verify_certificate(cert):
        raise MalformedSignature("invalid signer certificate")
    return cert.public_key()


def _decrypt_carrier(call: SoapCall, private_key) -> SoapCall:
    """The call inside an EncryptedRequest carrier."""
    params = {name: tv.lexical for name, tv in call.params}
    if call.operation.localName != ENCRYPTED_OPERATION or set(params) != {
        "wrappedKey", "iv", "ciphertext"
    }:
        raise MalformedXml(
            "encrypted requests must be an EncryptedRequest carrier call"
        )
    plain = security.decrypt_message(CipherEnvelope(**params), private_key)
    return _parse_call(plain, "decrypted payload is not a method call")[1]


def _respond(desc: ServiceDescriptor, sig: MethodSignature, raw_result: TypedValue,
             signing_key) -> OutboundResponse:
    """Coerce the handler's result, then serialize and sign the response."""
    # coerce_result refuses characters XML 1.0 cannot carry, so such a
    # result is a Server fault whether or not the service is secured.
    # Signing scans the text once more (the emitter checks all it writes,
    # as attach_signature reaches it without coerce_result); on ASCII text
    # that second scan costs about 0.5 us per KiB.
    result = coerce_result(sig, raw_result)
    response = SoapEnvelope(
        body=SoapResponseBody(
            operation=QName(sig.name + "Response", desc.responseNamespaceUri),
            resultName=sig.name + "Result",
            result=result,
        )
    )
    return _xml_response(200, response, signing_key)


def _xml_response(status: int, env: SoapEnvelope, signing_key=None) -> OutboundResponse:
    if signing_key is not None:
        env = signed_envelope(env, signing_key)
    return OutboundResponse(status, XML_CONTENT_TYPE, serialize_envelope(env))


def _plain(status: int, text: str) -> OutboundResponse:
    return OutboundResponse(status, "text/plain; charset=utf-8", text.encode("utf-8"))
