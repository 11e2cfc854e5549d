"""Deterministic XML form for byte comparison and signing.

Canonicalization sorts attributes, strips insignificant whitespace and
fixes quoting (C14N with whitespace-only text removed). It preserves the
namespace *prefixes* of its input, so comparisons are prefix-sensitive;
the serializer pins the prefixes per direction, which keeps golden
comparisons stable.

``parse_xml`` reads received XML: after ``_xml_text`` has decoded it as
UTF-8 and refused DTD markup, an expat parser with namespace processing
and buffered text feeds an ``ET.TreeBuilder``. It gives the tree and
the error text ``ET.fromstring`` gives (a differential test holds the
two equal), but text between entity references reaches Python in a few
large chunks instead of one string per run.

There is one canonicalizer, ``emit_canonical``: it walks an element
tree and writes its canonical text. The host runs it on received trees
(``tree_body_canonical``, header entries) and on the trees it builds
from its own model (``soap.serialize_body_canonical``), so nothing is
serialized or parsed again to canonicalize it. ``canonicalize`` is kept
only as the public, prefix-preserving form of a whole document.
``keeps_space`` and ``canonical_text`` are its rule for character data,
shared with the readers of received header entries, so a field read
from the element is the text its canonical form carries.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

import pyexpat

from .errors import MalformedXml

SOAP_ENV_NS = "http://schemas.xmlsoap.org/soap/envelope/"
XML_NS = "http://www.w3.org/XML/1998/namespace"
XMLNS_NS = "http://www.w3.org/2000/xmlns/"

# characters outside the XML 1.0 Char production
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
_NOT_XML_C0 = tuple(chr(c) for c in range(0x20) if chr(c) not in "\t\n\r")
# str.isprintable costs about 2.5 ns a character; one find per C0 control
# costs about 1.4 us plus 0.5 ns a character (timeit, 2 vCPU VM). Up to
# about 600 characters the one scan is cheaper, beyond it the finds.
_PRINTABLE_SCAN_MAX = 512


def _xml_text(raw) -> str:
    """Decode UTF-8 input and refuse DTD markup."""
    if not isinstance(raw, str):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise MalformedXml(f"payload is not UTF-8: {e}") from None
    # both markers hold "!", so the gate passes every document the scans
    # would refuse; a one-character "in" is a memchr (about 0.02 ms per
    # MiB) where a longer needle costs about 1.45 ms per MiB. A document
    # that holds a "!" pays the two scans plus that memchr.
    if "!" in raw and ("<!DOCTYPE" in raw or "<!ENTITY" in raw):
        raise MalformedXml("DTD markup is not accepted")
    return raw


def parse_xml(raw) -> ET.Element:
    """Parse UTF-8 bytes or text into an element tree. Every reader of
    received XML goes through here, so a document that is not UTF-8,
    carries DTD markup or is not well-formed raises MalformedXml."""
    text = _xml_text(raw)
    builder = ET.TreeBuilder()
    start, end = builder.start, builder.end

    # expat names a namespaced element or attribute "uri}local"; the
    # Clark form ElementTree uses is "{uri}local"
    def on_start(tag, attrib):
        if attrib:
            attrib = {"{" + k if "}" in k else k: v for k, v in attrib.items()}
        start("{" + tag if "}" in tag else tag, attrib)

    parser = pyexpat.ParserCreate(namespace_separator="}")
    parser.buffer_text = True
    parser.StartElementHandler = on_start
    parser.EndElementHandler = lambda tag: end("{" + tag if "}" in tag else tag)
    parser.CharacterDataHandler = builder.data
    try:
        parser.Parse(text, True)
    except pyexpat.ExpatError as e:
        raise MalformedXml(str(e)) from None
    return builder.close()


def canonicalize(raw) -> bytes:
    """Canonical byte form of a well-formed XML document. Idempotent."""
    try:
        return ET.canonicalize(_xml_text(raw), strip_text=True).encode("utf-8")
    except ET.ParseError as e:
        raise MalformedXml(str(e)) from None


def body_canonical(envelope_xml) -> bytes:
    """Canonical bytes of the Body subtree of a serialized envelope.

    This is the exact byte sequence message signatures cover: both the
    signer and the verifier compute it from the same envelope, so header
    insertion or removal never invalidates a signature.
    """
    return tree_body_canonical(parse_xml(envelope_xml))


def tree_body_canonical(root: ET.Element) -> bytes:
    """body_canonical of an envelope parse_xml already parsed."""
    body = root.find(f"{{{SOAP_ENV_NS}}}Body")
    if body is None:
        raise MalformedXml("envelope has no Body")
    return emit_canonical(body).encode("utf-8")


def xml_chars_ok(text: str) -> bool:
    """True iff XML 1.0 can carry every character of text."""
    if text.isascii():
        # ASCII holds no surrogate and no U+FFFE/U+FFFF, so the C0
        # controls are all there is to find. Printable text has none.
        if len(text) <= _PRINTABLE_SCAN_MAX and text.isprintable():
            return True
        return not any(c in text for c in _NOT_XML_C0)
    return _NOT_XML_CHAR.search(text) is None


def xml_safe_text(text: str) -> str:
    """text with each character XML 1.0 cannot carry replaced by U+FFFD."""
    return text if xml_chars_ok(text) else _NOT_XML_CHAR.sub("\ufffd", text)


# --- writing canonical text directly -----------------------------------------

_XML_SPACE = f"{{{XML_NS}}}space"


def emit_canonical(el: ET.Element) -> str:
    """The text ``ET.canonicalize(ET.tostring(el), strip_text=True)``
    gives for the element el, without el's own tail. el holds elements
    only, as parse_xml builds them.

    Prefixes are the ones ET.tostring picks: ``xml`` for the XML
    namespace, which is never declared; else ElementTree's registered
    prefix for a namespace (``xsi``, ``xs``, ``wsdl``, ...), else ``ns``
    plus the number of other namespaces met so far, in document order.
    C14N keeps them and declares each on the outermost element that
    uses it. Text is written as the element's text, then each child
    followed by its tail; an ``xml:space`` value other than "" sets
    whether that text and all text below keeps its edge whitespace.
    Text, attribute values and namespace names are checked before
    anything is stripped, normalized as a parse would, and escaped with
    ElementTree's own C14N escapes. Raises MalformedXml where one holds
    a character XML 1.0 cannot carry.

    The prefix registry and the escapes are private names of
    ElementTree, read because its serializer defines the signed bytes; a
    differential test holds this function equal to that expression.
    """
    out: list = []
    _emit(el, {}, frozenset(), False, out)
    return "".join(out)


def _emit(el: ET.Element, prefixes: dict, in_scope: frozenset, preserve: bool,
          out: list) -> None:
    attrib = el.attrib
    names = {}  # clark name -> qualified name
    declare = set()
    for clark in (el.tag, *attrib):
        if clark[:1] != "{":
            names[clark] = clark
            continue
        uri, local = clark[1:].rsplit("}", 1)
        if uri == XML_NS:
            names[clark] = "xml:" + local
            continue
        prefix = prefixes.get(uri)
        if prefix is None:
            prefix = prefixes[uri] = _new_prefix(uri, len(prefixes))
        names[clark] = f"{prefix}:{local}"
        if uri not in in_scope:
            declare.add(("xmlns:" + prefix, uri))
    attr_list = sorted(declare) + [(names[k], _checked(v)) for k, v in sorted(attrib.items())]
    out.append("<" + names[el.tag])
    out.extend(f' {k}="{ET._escape_attrib_c14n(v)}"' for k, v in attr_list)
    out.append(">")
    preserve = keeps_space(el, preserve)
    _emit_text(el.text, preserve, out)
    if declare:
        in_scope = in_scope.union(uri for _, uri in declare)
    for child in el:
        _emit(child, prefixes, in_scope, preserve, out)
        _emit_text(child.tail, preserve, out)
    out.append(f"</{names[el.tag]}>")


def _new_prefix(uri: str, taken: int) -> str:
    _checked(uri)
    prefix = ET._namespace_map.get(uri)
    return f"ns{taken}" if prefix is None else prefix


def _checked(text: str) -> str:
    if not xml_chars_ok(text):
        raise MalformedXml("text holds characters XML 1.0 cannot carry")
    return text


def _emit_text(text, preserve: bool, out: list) -> None:
    if not text:
        return
    # checked first: a character XML cannot carry may be one strip() drops
    text = canonical_text(_checked(text), preserve)
    if text:
        out.append(ET._escape_cdata_c14n(text))


def keeps_space(el: ET.Element, inherited: bool = False) -> bool:
    """Whether the text of el keeps its edge whitespace: an ``xml:space``
    value other than "" on el decides, else the inherited setting."""
    space = el.get(_XML_SPACE)
    return space == "preserve" if space else inherited


def canonical_text(text, preserve: bool) -> str:
    """The character data ``emit_canonical`` writes for text (None reads
    as ""), before escaping: CR LF and lone CR become LF, as a parser of
    ET.tostring's output turns them, and unless preserve is set the edge
    whitespace C14N's strip_text drops is stripped."""
    if not text:
        return ""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text if preserve else text.strip()
