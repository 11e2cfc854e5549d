"""Reply checks.

They use only the standard library and `cryptography`, never
mobilehost, so a defect shared by the host's encoder and decoder cannot
hide behind a round trip. The rules come from docs/wire-format.md.

An expectation is a tuple:

* ``("wsdl", wsdl_bytes)``: HTTP 200 whose body is exactly the stored WSDL;
* ``("result", text, payload_bytes)``: a ``<m>Response`` wrapping one
  ``<m>Result`` whose text is ``text``; ``payload_bytes`` counts the
  argument and result bytes toward goodput;
* ``("fault", faultcode, http_status)``: a SOAP fault with that code.
"""

from __future__ import annotations

import base64
import binascii
import struct
import xml.etree.ElementTree as ET

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import padding

SOAP_ENV = "http://schemas.xmlsoap.org/soap/envelope/"
HEADERS_NS = "urn:mobilehost:headers"


class BadReply(Exception):
    pass


def unwrap(transport: str, raw: bytes):
    """Split a raw reply into (HTTP status or None, body bytes)."""
    if transport == "tcp":
        if len(raw) < 4:
            raise BadReply("short frame")
        (length,) = struct.unpack(">I", raw[:4])
        if length != len(raw) - 4:
            raise BadReply(f"frame declares {length} bytes, carries {len(raw) - 4}")
        return None, raw[4:]
    head, sep, body = raw.partition(b"\r\n\r\n")
    if not sep:
        raise BadReply("no end of HTTP header")
    lines = head.split(b"\r\n")
    parts = lines[0].split(b" ", 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/1.") or not parts[1].isdigit():
        raise BadReply(f"bad status line {lines[0][:60]!r}")
    length = None
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    if length != len(body):
        raise BadReply(f"Content-Length {length} but {len(body)} body bytes")
    return int(parts[1]), body


def check_reply(expect: tuple, transport: str, raw: bytes, verify_key=None):
    """None if the reply meets the expectation, else the reason it does not.

    With ``verify_key`` every SOAP reply must carry a Signature header
    over its canonical Body, valid under that RSA public key.
    """
    try:
        status, body = unwrap(transport, raw)
        kind = expect[0]
        if kind == "wsdl":
            if status != 200:
                return f"WSDL fetch got status {status}"
            return None if body == expect[1] else "WSDL bytes differ from the stored WSDL"
        try:
            root = ET.fromstring(body)
        except ET.ParseError as e:
            return f"reply is not XML: {e}"
        if root.tag != f"{{{SOAP_ENV}}}Envelope":
            return f"reply root is {root.tag}"
        soap_body = root.find(f"{{{SOAP_ENV}}}Body")
        if soap_body is None or len(soap_body) != 1:
            return "reply has no single Body entry"
        entry = soap_body[0]
        if kind == "fault":
            why = _check_fault(entry, expect[1])
            if why is None and status not in (None, expect[2]):
                why = f"fault with HTTP status {status}, expected {expect[2]}"
        else:
            why = _check_result(entry, expect[1])
            if why is None and status not in (None, 200):
                why = f"result with HTTP status {status}"
        if why is None and verify_key is not None:
            why = _check_signature(root, soap_body, verify_key)
        return why
    except BadReply as e:
        return str(e)


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _check_fault(entry, code: str):
    if entry.tag != f"{{{SOAP_ENV}}}Fault":
        return f"expected a {code} fault, got {_local(entry.tag)}"
    got = (entry.findtext("faultcode") or "").rsplit(":", 1)[-1]
    return None if got == code else f"faultcode {got!r}, expected {code!r}"


def _check_result(entry, text: str):
    local = _local(entry.tag)
    if entry.tag == f"{{{SOAP_ENV}}}Fault":
        return f"unexpected fault: {entry.findtext('faultstring')}"
    if not local.endswith("Response") or len(entry) != 1:
        return f"unexpected body entry {local}"
    result = entry[0]
    if _local(result.tag) != local[: -len("Response")] + "Result":
        return f"unexpected result element {_local(result.tag)}"
    if (result.text or "") != text:
        return f"wrong result: {(result.text or '')[:60]!r} != {text[:60]!r}"
    return None


def _check_signature(root, soap_body, public_key):
    header = root.find(f"{{{SOAP_ENV}}}Header")
    sig = header.find(f"{{{HEADERS_NS}}}Signature") if header is not None else None
    value = sig.findtext(f"{{{HEADERS_NS}}}Value") if sig is not None else None
    if value is None:
        return "reply is not signed"
    covered = ET.canonicalize(
        ET.tostring(soap_body, encoding="unicode"), strip_text=True
    ).encode("utf-8")
    try:
        public_key.verify(base64.b64decode(value, validate=True), covered,
                          padding.PKCS1v15(), hashes.SHA256())
    except (InvalidSignature, binascii.Error):
        return "reply signature does not verify under the service certificate"
    return None
