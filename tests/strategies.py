"""Shared generators: hypothesis strategies for property tests plus
seeded random builders for the fixed-count acceptance loops."""

from __future__ import annotations

import random
import string

from hypothesis import strategies as st

from mobilehost.host import auth_header_xml, AuthHeader
from mobilehost.service import MethodSignature, ParameterSpec, ServiceDescriptor
from mobilehost.soap import (
    QName,
    SoapCall,
    SoapEnvelope,
    SoapFault,
    SoapResponseBody,
    TypedValue,
    XsdType,
    FAULT_CODES,
    make_header_entry,
)

SOAP_ENCODING = "http://schemas.xmlsoap.org/soap/encoding/"

# --- hypothesis strategies ---------------------------------------------------

tokens = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,11}", fullmatch=True)
op_tokens = tokens.filter(lambda t: not t.endswith("Response"))

xml_text = st.text(
    alphabet=st.one_of(
        st.characters(blacklist_categories=("Cs", "Cc"), max_codepoint=0xFFFD),
        st.sampled_from("\t\n"),
    ),
    max_size=40,
)

namespaces = st.one_of(
    st.just(""),
    tokens.map(lambda t: f"urn:test:{t}"),
    tokens.map(lambda t: f"http://example.org/{t}.jws"),
)

# Wider inputs for the canonical Body emitter. A parser turns \r and \r\n
# into \n, and C14N with strip_text drops what str.strip() drops at the
# ends of text, which includes U+0085 and U+00A0.
EDGE_WHITESPACE = " \t\n\r\x85\xa0\u2028\u3000"
c14n_text = st.one_of(
    xml_text,
    st.text(alphabet=st.one_of(
        st.sampled_from(EDGE_WHITESPACE + "\r\n<>&\"'"),
        st.characters(blacklist_categories=("Cs",), min_codepoint=0x20,
                      max_codepoint=0xFFFD),
    ), max_size=40),
    st.tuples(st.sampled_from(EDGE_WHITESPACE), xml_text,
              st.sampled_from(EDGE_WHITESPACE)).map("".join),
)

# namespaces that ElementTree serializes with ns0 (the envelope's own) or
# with its registered prefixes (xsi, xs, wsdl) instead of ns1
SOAP_ENV_NS = "http://schemas.xmlsoap.org/soap/envelope/"
c14n_namespaces = st.one_of(
    namespaces,
    st.sampled_from([
        SOAP_ENV_NS,
        SOAP_ENCODING,
        "http://www.w3.org/2001/XMLSchema-instance",
        "http://www.w3.org/2001/XMLSchema",
        "http://schemas.xmlsoap.org/wsdl/",
        "urn:a&b<c>\"d\"\te\nf\rg",
    ]),
)

# characters outside the XML 1.0 Char production
NOT_XML_CHARS = (
    "".join(chr(c) for c in range(0x20) if chr(c) not in "\t\n\r")
    + "\ud800\udfff\ufffe\uffff"
)
not_xml_text = st.tuples(xml_text, st.sampled_from(NOT_XML_CHARS), xml_text).map("".join)


# --- received documents for the canonical emitter -----------------------------
#
# Documents written as text, so they carry what a model never builds:
# mixed text and tails, xml:space and xml:lang, elements in the XML
# namespace, prefixes bound and re-bound per element (also to a
# registered namespace, or under a name ET.tostring itself writes, such
# as ns0), xmlns="" and CR as a character reference.

XML_PREFIX_NS = "http://www.w3.org/XML/1998/namespace"
DOC_NAMESPACES = (
    "urn:a", "urn:b", "http://www.w3.org/2001/XMLSchema-instance",
    "http://www.w3.org/2001/XMLSchema", SOAP_ENV_NS,
)
DOC_PREFIXES = ("p", "q", "xsi", "ns0", "ns1")
ATTR_LOCALS = ("a", "b", "type", "id", "space", "lang")


def _doc_escape(text: str, quote: bool, cr_ref: bool) -> str:
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    if quote:
        text = text.replace('"', "&quot;")
    return text.replace("\r", "&#13;") if cr_ref else text


@st.composite
def _doc_element(draw, in_scope: frozenset, cr_ref: bool, depth: int) -> str:
    decls = draw(st.lists(st.tuples(st.sampled_from(("",) + DOC_PREFIXES),
                                    st.sampled_from(("",) + DOC_NAMESPACES)),
                          max_size=2, unique_by=lambda d: d[0]))
    # a prefix cannot be bound to no namespace; the default one can
    decls = [(p, uri) for p, uri in decls if uri or not p]
    in_scope = in_scope | {p for p, _ in decls if p}

    def qualified(local: str) -> str:
        prefix = draw(st.sampled_from(("", "xml") + tuple(sorted(in_scope))))
        return f"{prefix}:{local}" if prefix else local

    tag = qualified(draw(st.sampled_from(("e", "f", "Body"))))
    parts = [f"<{tag}"]
    parts += [f' xmlns:{p}="{uri}"' if p else f' xmlns="{uri}"' for p, uri in decls]
    # unique local names keep two attributes from expanding to one name
    for local in draw(st.lists(st.sampled_from(ATTR_LOCALS), max_size=3, unique=True)):
        if local == "space":
            name = "xml:space"
            value = draw(st.sampled_from(("preserve", "default", "")))
        else:
            name = qualified(local)
            value = draw(c14n_text)
        parts.append(f' {name}="{_doc_escape(value, True, cr_ref)}"')
    parts.append(">")
    parts.append(_doc_escape(draw(c14n_text), False, cr_ref))
    if depth < 3:
        for _ in range(draw(st.integers(0, 3))):
            parts.append(draw(_doc_element(in_scope, cr_ref, depth + 1)))
            parts.append(_doc_escape(draw(c14n_text), False, cr_ref))
    parts.append(f"</{tag}>")
    return "".join(parts)


@st.composite
def received_documents(draw) -> str:
    """A well-formed document with the features above."""
    return draw(_doc_element(frozenset(), draw(st.booleans()), 0))


# --- received header entries for the Auth and Signature readers ---------------


@st.composite
def received_entries(draw, tag: str, fields: tuple):
    """A parsed ``tag`` entry in the headers namespace, as parse_envelope
    keeps it: children named from fields (each dropped, repeated or
    joined by another name at times), nested children, text with edge
    whitespace and CR (literal, CR LF or a reference), and xml:space
    "preserve", "default" or "" on the entry, on each child and on the
    element above the entry."""
    cr_ref = draw(st.booleans())

    def text() -> str:
        return _doc_escape(draw(c14n_text), False, cr_ref)

    def space() -> str:
        value = draw(st.sampled_from((None, "preserve", "default", "")))
        return "" if value is None else f' xml:space="{value}"'

    names = [n for n in fields if draw(st.integers(0, 7))]  # dropped one time in 8
    names += draw(st.lists(st.sampled_from(fields + ("Other",)), max_size=2))
    parts = []
    for name in draw(st.permutations(names)):
        inner = text()
        if not draw(st.integers(0, 3)):
            inner += f"<Inner{space()}>{text()}</Inner>{text()}"
        parts.append(f"<{name}{space()}>{inner}</{name}>{text()}")
    attrs = "".join(
        f' {a}="{_doc_escape(draw(c14n_text), True, cr_ref)}"'
        for a in ("algorithm", "digest") if draw(st.booleans()))
    entry = (f'<{tag} xmlns="urn:mobilehost:headers"{space()}{attrs}>{text()}'
             + "".join(parts) + f"</{tag}>")
    return make_header_entry(f"<Header{space()}>{entry}</Header>")[0]


@st.composite
def typed_values(draw, text=xml_text) -> TypedValue:
    xsd_type = draw(st.sampled_from(list(XsdType)))
    if xsd_type is XsdType.STRING:
        value = draw(text)
    elif xsd_type is XsdType.INT:
        value = draw(st.integers(-(2**31), 2**31 - 1))
    elif xsd_type is XsdType.DOUBLE:
        value = draw(st.floats(allow_nan=False, allow_infinity=False, width=64))
    else:
        value = draw(st.booleans())
    return TypedValue.of(xsd_type, value)


@st.composite
def header_entries(draw):
    tag = draw(tokens)
    ns = draw(tokens.map(lambda t: f"urn:hdr:{t}"))
    text = draw(xml_text.filter(lambda s: s.strip()))
    child = draw(st.one_of(st.none(), tokens))
    inner = f"<{tag} xmlns=\"{ns}\">" + (
        f"<{child}>{_esc(text)}</{child}>" if child else _esc(text)
    ) + f"</{tag}>"
    return make_header_entry(inner)


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


@st.composite
def soap_calls(draw, text=xml_text, ns=namespaces) -> SoapCall:
    names = draw(st.lists(tokens, max_size=4, unique=True))
    return SoapCall(
        operation=QName(draw(op_tokens), draw(ns)),
        params=tuple((n, draw(typed_values(text))) for n in names),
        id=draw(st.one_of(st.none(), tokens, text)),
        rootAttr=draw(st.one_of(st.none(), st.just("1"))),
    )


@st.composite
def soap_responses(draw, text=xml_text, ns=namespaces) -> SoapResponseBody:
    base = draw(tokens)
    return SoapResponseBody(
        operation=QName(base + "Response", draw(ns)),
        resultName=base + "Result",
        result=draw(typed_values(text)),
    )


@st.composite
def soap_faults(draw, text=xml_text) -> SoapFault:
    return SoapFault(
        faultcode=draw(st.sampled_from(FAULT_CODES)),
        faultstring=draw(text),
        detail=draw(st.one_of(st.none(), text)),
    )


@st.composite
def envelopes(draw, text=xml_text, ns=namespaces) -> SoapEnvelope:
    """Calls, responses and faults; text and ns draw their strings."""
    body = draw(st.one_of(soap_calls(text, ns), soap_responses(text, ns), soap_faults(text)))
    encoding = None
    if isinstance(body, SoapCall) and draw(st.booleans()):
        encoding = SOAP_ENCODING
    return SoapEnvelope(
        body=body,
        headerEntries=tuple(draw(st.lists(header_entries(), max_size=2))),
        encodingStyle=encoding,
    )


@st.composite
def method_signatures(draw) -> MethodSignature:
    names = draw(st.lists(tokens, max_size=4, unique=True))
    return MethodSignature(
        name=draw(op_tokens),
        params=tuple(ParameterSpec(n, draw(st.sampled_from(list(XsdType)))) for n in names),
        returnType=draw(st.sampled_from(list(XsdType))),
    )


@st.composite
def service_descriptors(draw, wire_only: bool = True) -> ServiceDescriptor:
    name = draw(tokens)
    methods = draw(
        st.lists(method_signatures(), min_size=1, max_size=4,
                 unique_by=lambda m: m.name)
    )
    return ServiceDescriptor(
        serviceName=name,
        namespaceUri=f"http://example.org/{name}.jws",
        endpointPath=f"/{name}.jws",
        responseNamespaceUri=draw(
            st.one_of(st.just(f"http://example.org/{name}.jws"),
                      st.just("http://responses.example.org/"))
        ),
        methods=tuple(methods),
        securityEnabled=False if wire_only else draw(st.booleans()),
        exclusiveExecution=False if wire_only else draw(st.booleans()),
    )


# --- seeded random builders (fixed-count acceptance loops) ------------------

_ASCII = string.ascii_letters + string.digits + " .,:;!?_-()"
_EXTRA = "çãéüñλДあ€"


def rand_token(rng: random.Random, max_len: int = 10) -> str:
    first = rng.choice(string.ascii_letters)
    rest = "".join(
        rng.choice(string.ascii_letters + string.digits + "_")
        for _ in range(rng.randrange(max_len))
    )
    token = first + rest
    return token + "X" if token.endswith(("Response", "Result")) else token


def rand_text(rng: random.Random, max_len: int = 30) -> str:
    pool = _ASCII + _EXTRA + "\t\n<>&\"'"
    return "".join(rng.choice(pool) for _ in range(rng.randrange(max_len)))


def rand_typed_value(rng: random.Random) -> TypedValue:
    xsd_type = rng.choice(list(XsdType))
    if xsd_type is XsdType.STRING:
        return TypedValue.of(xsd_type, rand_text(rng))
    if xsd_type is XsdType.INT:
        return TypedValue.of(xsd_type, rng.randrange(-(2**31), 2**31))
    if xsd_type is XsdType.DOUBLE:
        return TypedValue.of(xsd_type, rng.uniform(-1e9, 1e9))
    return TypedValue.of(xsd_type, rng.random() < 0.5)


def rand_namespace(rng: random.Random) -> str:
    return rng.choice(
        ["", f"urn:test:{rand_token(rng)}", f"http://example.org/{rand_token(rng)}.jws"]
    )


def rand_header_entry(rng: random.Random):
    tag = rand_token(rng)
    return make_header_entry(
        f'<{tag} xmlns="urn:hdr:{rand_token(rng)}">{_esc(rand_text(rng) or "x")}</{tag}>'
    )


def rand_envelope(rng: random.Random) -> SoapEnvelope:
    kind = rng.choice(["call", "call", "response", "fault"])
    if kind == "call":
        names = []
        while len(names) < rng.randrange(5):
            t = rand_token(rng)
            if t not in names:
                names.append(t)
        body = SoapCall(
            operation=QName(rand_token(rng), rand_namespace(rng)),
            params=tuple((n, rand_typed_value(rng)) for n in names),
            id=rng.choice([None, f"o{rng.randrange(10)}"]),
            rootAttr=rng.choice([None, "1"]),
        )
        encoding = SOAP_ENCODING if rng.random() < 0.5 else None
    elif kind == "response":
        base = rand_token(rng)
        body = SoapResponseBody(
            operation=QName(base + "Response", rand_namespace(rng)),
            resultName=base + "Result",
            result=rand_typed_value(rng),
        )
        encoding = None
    else:
        body = SoapFault(
            faultcode=rng.choice(FAULT_CODES),
            faultstring=rand_text(rng),
            detail=rng.choice([None, rand_text(rng)]),
        )
        encoding = None
    headers = tuple(rand_header_entry(rng) for _ in range(rng.randrange(3)))
    return SoapEnvelope(body=body, headerEntries=headers, encodingStyle=encoding)


def rand_descriptor(rng: random.Random) -> ServiceDescriptor:
    name = rand_token(rng)
    methods = []
    seen = set()
    for _ in range(rng.randrange(1, 5)):
        m = rand_token(rng)
        if m in seen:
            continue
        seen.add(m)
        param_names = []
        while len(param_names) < rng.randrange(5):
            p = rand_token(rng)
            if p not in param_names:
                param_names.append(p)
        methods.append(
            MethodSignature(
                name=m,
                params=tuple(
                    ParameterSpec(p, rng.choice(list(XsdType))) for p in param_names
                ),
                returnType=rng.choice(list(XsdType)),
            )
        )
    return ServiceDescriptor(
        serviceName=name,
        namespaceUri=f"http://example.org/{name}.jws",
        endpointPath=f"/{name}.jws",
        responseNamespaceUri=rng.choice(
            [f"http://example.org/{name}.jws", "http://responses.example.org/"]
        ),
        methods=tuple(methods),
    )


def auth_entry(login: str, proof: str, device: str = "dev"):
    return make_header_entry(auth_header_xml(AuthHeader(login, proof, device)))
