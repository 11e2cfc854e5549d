"""SOAP 1.1 envelope parsing and serialization.

The wire formats mirror the two directions of traffic exactly:

* requests use the ``SOAP-ENV`` prefix, declare the encoding namespace,
  carry ``SOAP-ENV:encodingStyle`` on the Body, and omit the XML
  declaration;
* responses and faults use the ``soap`` prefix and start with
  ``<?xml version="1.0" encoding="utf-8" ?>``.

Serialization writes UTF-8 bytes: the markup is byte constants, and
each text and attribute value is encoded once and escaped once as
bytes, which gives the same output as escaping the text and encoding
the result.

Parsing accepts any prefix bound to the SOAP 1.1 envelope namespace.
Only inline parameter values are supported; multi-ref attributes
(``id`` and ``SOAP-ENC:root``) are preserved opaquely on calls, never
resolved.
"""

from __future__ import annotations

import enum
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Optional, Union

from .canonical import (
    SOAP_ENV_NS,
    XML_NS,
    XMLNS_NS,
    emit_canonical,
    parse_xml,
    xml_safe_text,
)
from .errors import MalformedXml

SOAP_ENC_NS = "http://schemas.xmlsoap.org/soap/encoding/"
XSI_NS = "http://www.w3.org/2001/XMLSchema-instance"
XSD_NS = "http://www.w3.org/2001/XMLSchema"

FAULT_CODES = ("VersionMismatch", "MustUnderstand", "Client", "Server")

_TOKEN_RE = re.compile(r"^[^\s<>&'\"/=]+$")


def _is_token(s: str) -> bool:
    return bool(s) and bool(_TOKEN_RE.match(s))


class XsdType(str, enum.Enum):
    """The closed set of XML-Schema types a parameter or result may use."""

    STRING = "string"
    INT = "int"
    DOUBLE = "double"
    BOOLEAN = "boolean"

    @property
    def xsd_name(self) -> str:
        return f"xsd:{self.value}"


@dataclass(frozen=True)
class QName:
    localName: str
    namespaceUri: str = ""

    def __post_init__(self) -> None:
        if not _is_token(self.localName):
            raise ValueError(f"invalid local name: {self.localName!r}")

    @property
    def clark(self) -> str:
        if self.namespaceUri:
            return f"{{{self.namespaceUri}}}{self.localName}"
        return self.localName

    @classmethod
    def from_clark(cls, tag: str) -> "QName":
        if tag.startswith("{"):
            uri, _, local = tag[1:].partition("}")
            return cls(local, uri)
        return cls(tag, "")


@dataclass(frozen=True)
class TypedValue:
    """A value together with its XSD type and the lexical form it travels as."""

    xsdType: XsdType
    lexical: str
    value: object

    @classmethod
    def of(cls, xsd_type: XsdType, value: object) -> "TypedValue":
        """Build from a native value, deriving the lexical form."""
        return cls(xsd_type, _render_lexical(xsd_type, value), _check_native(xsd_type, value))

    @classmethod
    def parse(cls, xsd_type: XsdType, lexical: str) -> "TypedValue":
        """Build from a lexical form, deriving the native value."""
        return cls(xsd_type, lexical, parse_lexical(xsd_type, lexical))


def parse_lexical(xsd_type: XsdType, lexical: str) -> object:
    try:
        if xsd_type is XsdType.STRING:
            return lexical
        if xsd_type is XsdType.INT:
            return int(lexical)
        if xsd_type is XsdType.DOUBLE:
            return float(lexical)
        if xsd_type is XsdType.BOOLEAN:
            if lexical in ("true", "1"):
                return True
            if lexical in ("false", "0"):
                return False
            raise ValueError(lexical)
    except ValueError:
        raise MalformedXml(
            f"invalid {xsd_type.xsd_name} lexical value: {lexical!r}"
        ) from None
    raise MalformedXml(str(xsd_type))


def _render_lexical(xsd_type: XsdType, value: object) -> str:
    if xsd_type is XsdType.BOOLEAN:
        return "true" if value else "false"
    if xsd_type is XsdType.DOUBLE:
        return repr(float(value))  # shortest form that round-trips
    return str(value)


def _check_native(xsd_type: XsdType, value: object) -> object:
    expected = {
        XsdType.STRING: str,
        XsdType.INT: int,
        XsdType.DOUBLE: float,
        XsdType.BOOLEAN: bool,
    }[xsd_type]
    if xsd_type is XsdType.INT and isinstance(value, bool):
        raise ValueError("bool is not an xsd:int")
    if xsd_type is XsdType.DOUBLE and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, expected):
        raise ValueError(f"{value!r} is not a native {xsd_type.xsd_name}")
    if xsd_type is XsdType.DOUBLE and (math.isnan(value) or math.isinf(value)):
        raise ValueError("non-finite doubles are not supported")
    return value


@dataclass(frozen=True)
class SoapCall:
    operation: QName
    params: tuple  # of (name: str, TypedValue)
    id: Optional[str] = None
    rootAttr: Optional[str] = None  # the SOAP-ENC:root value, kept opaque

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))
        names = [n for n, _ in self.params]
        if len(names) != len(set(names)):
            raise ValueError("duplicate parameter names in call")
        for n in names:
            if not _is_token(n):
                raise ValueError(f"invalid parameter name: {n!r}")


@dataclass(frozen=True)
class SoapResponseBody:
    operation: QName  # local name ends with "Response"
    resultName: str  # ends with "Result"
    result: TypedValue

    def __post_init__(self) -> None:
        if not self.operation.localName.endswith("Response"):
            raise ValueError("response operation must end with 'Response'")
        if not self.resultName.endswith("Result"):
            raise ValueError("result name must end with 'Result'")


@dataclass(frozen=True)
class SoapFault:
    faultcode: str
    faultstring: str
    detail: Optional[str] = None

    def __post_init__(self) -> None:
        if self.faultcode not in FAULT_CODES:
            raise ValueError(f"faultcode must be one of {FAULT_CODES}")


Body = Union[SoapCall, SoapResponseBody, SoapFault]


@dataclass(frozen=True, eq=False)
class SoapEnvelope:
    """A SOAP envelope. Header entries are elements, as parse_envelope
    keeps them from the received tree or make_header_entry builds them;
    serialize_envelope writes each in canonical form, and envelopes
    compare their entries in that form. Elements are mutable, so
    envelopes are not hashable."""

    body: Body
    headerEntries: tuple = field(default_factory=tuple)  # of ET.Element
    encodingStyle: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "headerEntries", tuple(self.headerEntries))

    def __eq__(self, other):
        if not isinstance(other, SoapEnvelope):
            return NotImplemented
        return (self.body, self.encodingStyle, _entry_texts(self)) == (
            other.body, other.encodingStyle, _entry_texts(other))

    __hash__ = None

    def header(self, qname: QName) -> Optional[ET.Element]:
        """The first header entry named qname, or None."""
        tag = qname.clark
        for el in self.headerEntries:
            if el.tag == tag:
                return el
        return None


def _entry_texts(env: SoapEnvelope) -> tuple:
    return tuple(map(emit_canonical, env.headerEntries))


# --- parsing ---------------------------------------------------------------


def make_header_entry(xml_text: str) -> ET.Element:
    """The header entry element of an XML fragment, as parse_envelope
    keeps a received one."""
    try:
        return parse_xml(xml_text)
    except MalformedXml as e:
        raise MalformedXml(f"bad header fragment: {e}") from None


def parse_envelope(raw) -> SoapEnvelope:
    """Parse UTF-8 XML bytes, or the root element parse_xml already made
    of them, into a structured SOAP 1.1 envelope."""
    root = raw if isinstance(raw, ET.Element) else parse_xml(raw)
    if root.tag != f"{{{SOAP_ENV_NS}}}Envelope":
        raise MalformedXml(f"root element is {root.tag}, not a SOAP 1.1 Envelope")

    header_el = None
    body_el = None
    for child in root:
        if child.tag == f"{{{SOAP_ENV_NS}}}Header" and header_el is None:
            header_el = child
        elif child.tag == f"{{{SOAP_ENV_NS}}}Body" and body_el is None:
            body_el = child
    if body_el is None:
        raise MalformedXml("envelope has no Body")

    headers = () if header_el is None else tuple(header_el)

    encoding_style = body_el.get(f"{{{SOAP_ENV_NS}}}encodingStyle") or root.get(
        f"{{{SOAP_ENV_NS}}}encodingStyle"
    )

    entries = list(body_el)
    if not entries:
        raise MalformedXml("empty body")
    if len(entries) > 1:
        raise MalformedXml("multiple body entries are not supported")

    return SoapEnvelope(
        body=_parse_body(entries[0]),
        headerEntries=headers,
        encodingStyle=encoding_style,
    )


def _parse_body(el: ET.Element) -> Body:
    if el.tag == f"{{{SOAP_ENV_NS}}}Fault":
        return _parse_fault(el)
    qname = QName.from_clark(el.tag)
    local = qname.localName
    children = list(el)
    if local.endswith("Response") and len(local) > len("Response"):
        base = local[: -len("Response")]
        if len(children) == 1 and _local(children[0].tag) == base + "Result":
            result_el = children[0]
            if not list(result_el):
                return SoapResponseBody(
                    operation=qname,
                    resultName=base + "Result",
                    result=_parse_typed_element(result_el),
                )
    return _parse_call(qname, el, children)


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _parse_call(qname: QName, el: ET.Element, children: list) -> SoapCall:
    params = []
    seen = set()
    for child in children:
        name = _local(child.tag)
        if name in seen:
            raise MalformedXml(f"duplicate parameter: {name}")
        seen.add(name)
        if list(child):
            raise MalformedXml(f"parameter '{name}' has structured content")
        params.append((name, _parse_typed_element(child)))
    try:
        return SoapCall(
            operation=qname,
            params=tuple(params),
            id=el.get("id"),
            rootAttr=el.get(f"{{{SOAP_ENC_NS}}}root"),
        )
    except ValueError as e:
        raise MalformedXml(str(e)) from None


def _parse_typed_element(el: ET.Element) -> TypedValue:
    declared = el.get(f"{{{XSI_NS}}}type")
    if declared is None:
        xsd_type = XsdType.STRING  # untyped values travel as strings
    else:
        local = declared.rsplit(":", 1)[-1]
        try:
            xsd_type = XsdType(local)
        except ValueError:
            raise MalformedXml(f"unsupported xsi:type: {declared}") from None
    return TypedValue.parse(xsd_type, el.text or "")


def _parse_fault(el: ET.Element) -> SoapFault:
    code = None
    string = ""
    detail = None
    for child in el:
        name = _local(child.tag)
        if name == "faultcode":
            code = (child.text or "").rsplit(":", 1)[-1]
        elif name == "faultstring":
            string = child.text or ""
        elif name == "detail":
            detail = child.text or ""
    if code is None:
        raise MalformedXml("fault has no faultcode")
    if code not in FAULT_CODES:
        raise MalformedXml(f"unknown faultcode: {code}")
    return SoapFault(faultcode=code, faultstring=string, detail=detail)


# --- serialization ----------------------------------------------------------
#
# Markup is written as bytes. Each text and attribute value is encoded to
# UTF-8 once and escaped as bytes: every replacement is ASCII and the bytes
# of "&", "<", ">", '"', LF, TAB and CR never occur inside a multi-byte
# UTF-8 sequence, so escaping the encoded text gives the encoding of the
# escaped text, and bytes.replace is the cheaper of the two.

_REQUEST_OPEN = (
    f'<SOAP-ENV:Envelope xmlns:xsi="{XSI_NS}" xmlns:xsd="{XSD_NS}"'
    f' xmlns:SOAP-ENC="{SOAP_ENC_NS}" xmlns:SOAP-ENV="{SOAP_ENV_NS}">\n'
).encode()
_RESPONSE_OPEN = (
    '<?xml version="1.0" encoding="utf-8" ?>\n'
    f'<soap:Envelope xmlns:xsi="{XSI_NS}" xmlns:xsd="{XSD_NS}"'
    f' xmlns:soap="{SOAP_ENV_NS}">\n'
).encode()
_XSI_TYPE = {t: f' xsi:type="{t.xsd_name}">'.encode() for t in XsdType}


# the bytes as ints: "in" with an int is a memchr, with a one-byte bytes
# needle it first takes a buffer, about ten times the cost on short text
_AMP, _LT, _GT, _QUOT, _LF, _TAB, _CR = b'&<>"\n\t\r'


def _esc_text(b: bytes) -> bytes:
    """Escape UTF-8 encoded character data."""
    # replace scans the whole buffer even where nothing matches, "in"
    # stops at the first match: a pass runs only where its byte occurs
    if _AMP in b:
        b = b.replace(b"&", b"&amp;")
    if _LT in b:
        b = b.replace(b"<", b"&lt;")
    if _GT in b:
        b = b.replace(b">", b"&gt;")
    return b


def _esc_attr(b: bytes) -> bytes:
    """Escape a UTF-8 encoded attribute value for double quotes."""
    b = _esc_text(b)
    if _QUOT in b:
        b = b.replace(b'"', b"&quot;")
    if _LF in b:
        b = b.replace(b"\n", b"&#10;")
    if _TAB in b:
        b = b.replace(b"\t", b"&#9;")
    if _CR in b:
        b = b.replace(b"\r", b"&#13;")
    return b


def _text(s: str) -> bytes:
    return _esc_text(s.encode())


def _attr(s: str) -> bytes:
    return _esc_attr(s.encode())


def serialize_envelope(env: SoapEnvelope) -> bytes:
    """Render an envelope to UTF-8 XML. Requests and responses get the
    prefix conventions of their direction; parse_envelope inverts this."""
    if isinstance(env.body, SoapCall):
        return _serialize_request(env)
    return _serialize_response(env)


def _open_body(env: SoapEnvelope, prefix: bytes) -> list:
    """The markup from the Header block, if any, up to the Body's first entry."""
    out = []
    if env.headerEntries:
        out += (b"<", prefix, b":Header>\n",
                "\n".join(_entry_texts(env)).encode(),
                b"\n</", prefix, b":Header>\n")
    out += (b"<", prefix, b":Body")
    if env.encodingStyle:
        out += (b" ", prefix, b':encodingStyle="', _attr(env.encodingStyle), b'"')
    out.append(b">\n")
    return out


def _typed_leaf(out: list, name: bytes, tv: TypedValue, extra_attr: bytes = b"") -> None:
    out += (b"<", name, extra_attr, _XSI_TYPE[tv.xsdType], _text(tv.lexical),
            b"</", name, b">")


def _serialize_request(env: SoapEnvelope) -> bytes:
    call = env.body
    op = call.operation
    name = op.localName.encode()
    out = [_REQUEST_OPEN, *_open_body(env, b"SOAP-ENV"),
           b"<", name, b' xmlns="', _attr(op.namespaceUri), b'"']
    if call.id is not None:
        out += (b' id="', _attr(call.id), b'"')
    if call.rootAttr is not None:
        out += (b' SOAP-ENC:root="', _attr(call.rootAttr), b'"')
    out.append(b">")
    if call.params:
        for pname, tv in call.params:
            out.append(b"\n")
            _typed_leaf(out, pname.encode(), tv, b' xmlns=""')
        out.append(b"\n")
    out += (b"</", name, b">\n</SOAP-ENV:Body>\n</SOAP-ENV:Envelope>")
    return b"".join(out)


def _serialize_response(env: SoapEnvelope) -> bytes:
    body = env.body
    out = [_RESPONSE_OPEN, *_open_body(env, b"soap")]
    if isinstance(body, SoapFault):
        out += (b"<soap:Fault>\n<faultcode>", _text(body.faultcode),
                b"</faultcode>\n<faultstring>", _text(body.faultstring), b"</faultstring>")
        if body.detail is not None:
            out += (b"\n<detail>", _text(body.detail), b"</detail>")
        out.append(b"\n</soap:Fault>")
    else:
        op = body.operation
        name = op.localName.encode()
        out += (b"<", name, b' xmlns="', _attr(op.namespaceUri), b'">\n')
        _typed_leaf(out, body.resultName.encode(), body.result)
        out += (b"\n</", name, b">")
    out.append(b"\n</soap:Body>\n</soap:Envelope>")
    return b"".join(out)


def serialize_body_canonical(env: SoapEnvelope) -> bytes:
    """The canonical Body bytes of env, equal to
    ``canonical.body_canonical(serialize_envelope(env))`` but written from
    the model: the Body is built as elements and canonicalized without
    being serialized or parsed. Raises MalformedXml where
    serialize_envelope's output would not be well-formed XML."""
    body = env.body
    body_el = ET.Element(f"{{{SOAP_ENV_NS}}}Body")
    if env.encodingStyle:
        body_el.set(f"{{{SOAP_ENV_NS}}}encodingStyle", env.encodingStyle)
    if isinstance(body, SoapCall):
        entry = _operation_element(body_el, body.operation)
        # wire order, which fixes the prefix numbering
        if body.id is not None:
            entry.set("id", body.id)
        if body.rootAttr is not None:
            entry.set(f"{{{SOAP_ENC_NS}}}root", body.rootAttr)
        # parameters are unqualified (xmlns="") leaves
        for name, tv in body.params:
            _typed_element(entry, name, tv)
    elif isinstance(body, SoapFault):
        fault = ET.SubElement(body_el, f"{{{SOAP_ENV_NS}}}Fault")
        ET.SubElement(fault, "faultcode").text = body.faultcode
        ET.SubElement(fault, "faultstring").text = body.faultstring
        if body.detail is not None:
            ET.SubElement(fault, "detail").text = body.detail
    else:
        entry = _operation_element(body_el, body.operation)
        # the result element inherits the operation's default namespace
        ns = body.operation.namespaceUri
        _typed_element(entry, f"{{{ns}}}{body.resultName}" if ns else body.resultName,
                       body.result)
    return emit_canonical(body_el).encode("utf-8")


def _operation_element(body_el: ET.Element, op: QName) -> ET.Element:
    # serialize_envelope binds the operation namespace as the default
    # one, which XML refuses for these two
    if op.namespaceUri in (XML_NS, XMLNS_NS):
        raise MalformedXml(f"reserved namespace name: {op.namespaceUri}")
    return ET.SubElement(body_el, op.clark)


def _typed_element(parent: ET.Element, tag: str, tv: TypedValue) -> None:
    ET.SubElement(parent, tag, {f"{{{XSI_NS}}}type": tv.xsdType.xsd_name}).text = tv.lexical


def make_fault(code: str, message: str, detail: Optional[str] = None) -> SoapEnvelope:
    """Wrap an error in a fault envelope using one of the four 1.1 codes.
    Characters XML 1.0 cannot carry become U+FFFD, so every fault
    serializes to well-formed XML."""
    return SoapEnvelope(body=SoapFault(
        faultcode=code,
        faultstring=xml_safe_text(message),
        detail=None if detail is None else xml_safe_text(detail),
    ))
