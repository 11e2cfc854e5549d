"""Deterministic XML form for byte comparison and signing.

Canonicalization sorts attributes, strips insignificant whitespace and
fixes quoting (C14N with whitespace-only text removed). It preserves the
namespace *prefixes* of its input, so comparisons are prefix-sensitive;
the serializer pins the prefixes per direction, which keeps golden
comparisons stable.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from .errors import MalformedXml

SOAP_ENV_NS = "http://schemas.xmlsoap.org/soap/envelope/"


def _xml_text(raw) -> str:
    """Decode UTF-8 input and refuse DTD markup."""
    if not isinstance(raw, str):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise MalformedXml(f"payload is not UTF-8: {e}") from None
    if "<!DOCTYPE" in raw or "<!ENTITY" in raw:
        raise MalformedXml("DTD markup is not accepted")
    return raw


def parse_xml(raw) -> ET.Element:
    """Parse UTF-8 bytes or text into an element tree. Every reader of
    received XML goes through here, so a document that is not UTF-8,
    carries DTD markup or is not well-formed raises MalformedXml."""
    try:
        return ET.fromstring(_xml_text(raw))
    except ET.ParseError as e:
        raise MalformedXml(str(e)) from None


def canonicalize(raw) -> bytes:
    """Canonical byte form of a well-formed XML document. Idempotent."""
    try:
        return ET.canonicalize(_xml_text(raw), strip_text=True).encode("utf-8")
    except ET.ParseError as e:
        raise MalformedXml(str(e)) from None


def body_canonical(envelope_xml) -> bytes:
    """Canonical bytes of the Body subtree of a serialized envelope.

    This is the exact byte sequence message signatures cover: both the
    signer and the verifier call this on the same wire bytes, so header
    insertion or removal never invalidates a signature.
    """
    body = parse_xml(envelope_xml).find(f"{{{SOAP_ENV_NS}}}Body")
    if body is None:
        raise MalformedXml("envelope has no Body")
    return canonicalize(ET.tostring(body, encoding="unicode"))
