"""Canonical form determinism and the signed-body extraction."""

import random
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobilehost.canonical import (
    SOAP_ENV_NS,
    XML_NS,
    XMLNS_NS,
    _NOT_XML_CHAR,
    _xml_text,
    body_canonical,
    canonicalize,
    emit_canonical,
    parse_xml,
    xml_chars_ok,
    xml_safe_text,
)
from mobilehost.errors import MalformedXml
from mobilehost.soap import (
    QName,
    SoapCall,
    SoapEnvelope,
    SoapFault,
    SoapResponseBody,
    TypedValue,
    XsdType,
    serialize_body_canonical,
    serialize_envelope,
)

from strategies import (
    NOT_XML_CHARS,
    c14n_namespaces,
    c14n_text,
    envelopes,
    not_xml_text,
    rand_envelope,
    received_documents,
)


def reflow(xml: bytes) -> bytes:
    # mangle inter-element whitespace without touching text content
    return xml.replace(b">\n<", b">\n\n  <").replace(b"\t", b"  ")


class TestCanonicalize:
    def test_reflowed_document_has_identical_canonical_bytes(self, fig13_bytes):
        assert canonicalize(reflow(fig13_bytes)) == canonicalize(fig13_bytes)

    def test_idempotent(self, fig13_bytes, fig14_bytes):
        for doc in (fig13_bytes, fig14_bytes):
            once = canonicalize(doc)
            assert canonicalize(once) == once

    @settings(max_examples=100, deadline=None)
    @given(envelopes())
    def test_idempotent_generated(self, env):
        once = canonicalize(serialize_envelope(env))
        assert canonicalize(once) == once

    def test_equal_envelopes_serialize_to_equal_canonical_forms(self):
        rng1, rng2 = random.Random(7), random.Random(7)
        for _ in range(100):
            a, b = rand_envelope(rng1), rand_envelope(rng2)
            assert a == b
            assert canonicalize(serialize_envelope(a)) == canonicalize(
                serialize_envelope(b)
            )

    def test_attribute_order_is_normalized(self):
        a = b'<x b="2" a="1"/>'
        b_ = b'<x a="1" b="2"/>'
        assert canonicalize(a) == canonicalize(b_)

    def test_malformed_input_raises(self):
        with pytest.raises(MalformedXml):
            canonicalize(b"<open>")

    def test_dtd_rejected(self):
        with pytest.raises(MalformedXml):
            canonicalize(b"<!DOCTYPE x><x/>")


class TestDtdRefusal:
    """_xml_text scans for DTD markup only where a "!" occurs; the gate
    must not let any document through that the scans refuse."""

    @pytest.mark.parametrize("doc", [
        "<a><!-- <!DOCTYPE a> --></a>",
        "<!ENTITY",
        "!" * 10_000 + "<!DOCTYPE a><a/>",
        " " * 10_000 + "<!DOCTYPE a><a/>",
        '<a>x</a><!ENTITY e "y">',
    ], ids=["doctype-in-comment", "entity-alone", "after-10000-bangs", "after-10000-spaces",
            "entity-after-root"])
    def test_dtd_markup_refused(self, doc):
        for raw in (doc, doc.encode()):
            with pytest.raises(MalformedXml, match="^DTD markup is not accepted$"):
                _xml_text(raw)

    def test_bangs_without_dtd_markup_accepted(self):
        doc = ("<a>" + "!" * 10_000 + "<!-- ! --><![CDATA[!<!]]>&lt;!DOCTYPE"
               "<b c='!ENTITY'>!</b></a>")
        assert _xml_text(doc.encode()) == doc
        assert parse_xml(doc)[0].get("c") == "!ENTITY"


# --- parse_xml against ElementTree's own parser ------------------------------


def reference_parse_xml(raw) -> ET.Element:
    """parse_xml as ElementTree's parser gives it: same decoding and DTD
    refusal, then ET.fromstring."""
    try:
        return ET.fromstring(_xml_text(raw))
    except ET.ParseError as e:
        raise MalformedXml(str(e)) from None


def tree_shape(el: ET.Element) -> tuple:
    # text and tail stay as they are, so None and "" differ
    return (el.tag, list(el.attrib.items()), el.text, el.tail,
            [tree_shape(child) for child in el])


def parse_outcome(parse, raw) -> tuple:
    try:
        return ("tree", tree_shape(parse(raw)))
    except MalformedXml as e:
        return ("MalformedXml", str(e))


def assert_parsed_alike(raw) -> tuple:
    expected = parse_outcome(reference_parse_xml, raw)
    assert parse_outcome(parse_xml, raw) == expected, raw
    return expected


# pieces of element content that make expat split and join character data
DENSE_PIECES = (
    "&lt;", "&amp;", "&gt;", "&quot;", "&apos;", "&#60;", "&#x26;", "&#233;",
    "&#x10000;", "\r", "\r\n", "\n", " ", "<!-- c -->", "<?pi data?>",
    "<![CDATA[<&>]]>", "<![CDATA[]]>", "<e/>", '<p:e a="&lt;&#9;\r\n" p:b="x"/>',
    "<e>&amp;x&lt;</e>", "ab", "é€", "\U0001f600",
)
dense_content = st.lists(
    st.one_of(st.sampled_from(DENSE_PIECES),
              st.text(alphabet="abc \t\r\n]>'\"", max_size=8)),
    max_size=30,
).map("".join)

MUTATION_BYTES = b"<>/&;#=:\"' \r\nx!?[]-"

# each one not well-formed, or not accepted before parsing
MALFORMED_DOCUMENTS = (
    b"<a>&undefined;</a>",
    b"<p:a/>",
    b'<a p:b="1"/>',
    b"<a></b>",
    b"<a/>junk",
    b"<a/><b/>",
    b"<a>&#1;</a>",
    b"<a>&#xD800;</a>",
    b"<a b='1' b='2'/>",
    b'<a xmlns:p="urn:p" xmlns:q="urn:p" p:b="1" q:b="2"/>',
    b"<a",
    b"<a>text",
    b"<a><!-- unclosed",
    b"<a><![CDATA[x</a>",
    b"",
    b"   ",
    b"<a>\xff</a>",
    b"\xef\xbb<a/>",
    b"<!DOCTYPE a><a/>",
    b'<!DOCTYPE a [<!ENTITY e "x">]><a>&e;</a>',
    b"<?xml version='1.0'?><?xml version='1.0'?><a/>",
    b'<a xmlns:xml="urn:other"/>',
    b'<a xmlns:p=""/>',
    b"<a>\x01</a>",
    b'<a xmlns="a}b"/>',
)


class TestParseXmlMatchesElementTree:
    """parse_xml gives the tree, or the error text, ET.fromstring gives."""

    @settings(max_examples=200, deadline=None)
    @given(envelopes(text=c14n_text, ns=c14n_namespaces))
    def test_serialized_envelopes(self, env):
        kind, _ = assert_parsed_alike(serialize_envelope(env))
        assert kind == "tree"

    @settings(max_examples=300, deadline=None)
    @given(head=dense_content, inner=dense_content, tail=dense_content)
    def test_text_dense_with_references_and_markup(self, head, inner, tail):
        doc = (f'<?xml version="1.0"?>\r\n<!-- before --><r xmlns:p="urn:p">{head}'
               f'<p:c xmlns="urn:d">{inner}</p:c>{tail}</r><?after?>\n')
        assert_parsed_alike(doc)
        assert_parsed_alike(doc.encode("utf-8"))

    def test_large_text_crosses_the_text_buffer(self):
        text = "a&lt;b&amp;" * 5000 + "\r\n" + "é" * 20000
        kind, shape = assert_parsed_alike(f"<r>{text}<e/>{text}</r>".encode("utf-8"))
        assert kind == "tree" and len(shape[2]) == 4 * 5000 + 1 + 20000

    def test_mutated_fig13_payloads(self, fig13_bytes):
        rng = random.Random(4242)
        kinds = set()
        for _ in range(400):
            mutated = bytearray(fig13_bytes)
            for _ in range(rng.randint(1, 3)):
                # mostly markup characters; a random byte is seldom UTF-8
                mutated[rng.randrange(len(mutated))] = (
                    rng.choice(MUTATION_BYTES) if rng.random() < 0.8 else rng.randrange(256))
            if rng.random() < 0.2:
                del mutated[rng.randrange(len(mutated)):]
            kind, detail = assert_parsed_alike(bytes(mutated))
            kinds.add(kind if kind == "tree" else detail.split(":")[0])
        # the mutations reach both trees and several kinds of error
        assert "tree" in kinds and len(kinds) > 5, kinds

    @pytest.mark.parametrize("doc", MALFORMED_DOCUMENTS)
    def test_malformed_documents(self, doc):
        kind, _ = assert_parsed_alike(doc)
        assert kind == "MalformedXml"

    def test_golden_files(self, fig13_bytes, fig14_bytes):
        for doc in (fig13_bytes, fig14_bytes):
            assert assert_parsed_alike(doc)[0] == "tree"


class TestBodyCanonical:
    def test_header_insertion_does_not_change_body_bytes(self, fig14_bytes):
        with_header = fig14_bytes.replace(
            b"<soap:Body>",
            b'<soap:Header><H xmlns="urn:h">v</H></soap:Header>\n<soap:Body>',
            1,
        )
        assert body_canonical(with_header) == body_canonical(fig14_bytes)

    def test_body_change_changes_bytes(self, fig14_bytes):
        tampered = fig14_bytes.replace(b"NOTE 1;;100", b"NOTE 1;;999")
        assert body_canonical(tampered) != body_canonical(fig14_bytes)

    def test_no_body_raises(self):
        with pytest.raises(MalformedXml):
            body_canonical(
                b'<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"/>'
            )


def reference_canonical(el: ET.Element) -> str:
    """emit_canonical's definition: ElementTree's serializer and C14N on
    el, without its tail."""
    tail, el.tail = el.tail, None
    try:
        return ET.canonicalize(ET.tostring(el, encoding="unicode"), strip_text=True)
    except ET.ParseError as e:
        raise MalformedXml(str(e)) from None
    finally:
        el.tail = tail


def reference_body_canonical(env: SoapEnvelope) -> bytes:
    """What a verifier computes from the wire, through ElementTree alone:
    serialize, parse, C14N of the Body."""
    try:
        root = ET.fromstring(serialize_envelope(env))
    except ET.ParseError as e:
        raise MalformedXml(str(e)) from None
    return reference_canonical(root.find(f"{{{SOAP_ENV_NS}}}Body")).encode("utf-8")


class TestEmitCanonicalMatchesElementTree:
    """The one canonicalizer against ElementTree on received trees."""

    @settings(max_examples=300, deadline=None)
    @given(received_documents())
    def test_every_subtree_of_a_received_document(self, doc):
        for el in parse_xml(doc).iter():
            assert emit_canonical(el) == reference_canonical(el)

    def test_own_tail_is_left_out(self):
        el = parse_xml('<r><a xmlns="urn:a">x</a> after </r>')[0]
        assert emit_canonical(el) == '<ns0:a xmlns:ns0="urn:a">x</ns0:a>'

    def test_xml_space(self):
        doc = ('<r xml:space="preserve"> a <k xml:space=""> b </k> c '
               '<d xml:space="default"> d <k> e </k> f </d></r>')
        assert emit_canonical(parse_xml(doc)) == (
            '<r xml:space="preserve"> a <k xml:space=""> b </k> c '
            '<d xml:space="default">d<k>e</k>f</d></r>')

    def test_xml_namespace_is_neither_declared_nor_counted(self):
        doc = '<xml:r xmlns:p="urn:p" xml:lang="pt"><p:e p:a="1"/></xml:r>'
        assert emit_canonical(parse_xml(doc)) == (
            '<xml:r xml:lang="pt"><ns0:e xmlns:ns0="urn:p" ns0:a="1"></ns0:e></xml:r>')


class TestSerializeBodyCanonical:
    """The emitter the host signs through against the reference."""

    @settings(max_examples=400, deadline=None)
    @given(envelopes(text=c14n_text, ns=c14n_namespaces))
    def test_equals_reference(self, env):
        assert serialize_body_canonical(env) == reference_body_canonical(env)

    def test_equals_reference_on_seeded_envelopes(self):
        rng = random.Random(11)
        for _ in range(300):
            env = rand_envelope(rng)
            assert serialize_body_canonical(env) == reference_body_canonical(env)

    def test_golden_files(self, fig13_bytes, fig14_bytes):
        from mobilehost.soap import parse_envelope

        for doc in (fig13_bytes, fig14_bytes):
            env = parse_envelope(doc)
            assert serialize_body_canonical(env) == reference_body_canonical(env)
            assert serialize_body_canonical(env) == body_canonical(doc)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_text_xml_cannot_carry_is_refused_by_both(self, data):
        bad = data.draw(not_xml_text)
        ns = data.draw(c14n_namespaces)
        body = data.draw(st.sampled_from([
            SoapCall(QName("op", ns), (("p", TypedValue(XsdType.STRING, bad, bad)),)),
            SoapCall(QName("op", ns), (), id=bad),
            SoapResponseBody(QName("opResponse", ns), "opResult",
                             TypedValue(XsdType.STRING, bad, bad)),
            SoapFault("Server", bad),
            SoapFault("Client", "ok", detail=bad),
        ]))
        env = SoapEnvelope(body=body)
        with pytest.raises((MalformedXml, UnicodeEncodeError)):
            reference_body_canonical(env)
        with pytest.raises(MalformedXml):
            serialize_body_canonical(env)

    @pytest.mark.parametrize("ns", [XML_NS, XMLNS_NS, "urn:bad\x01"])
    def test_namespace_xml_cannot_carry_is_refused_by_both(self, ns):
        env = SoapEnvelope(body=SoapResponseBody(
            QName("opResponse", ns), "opResult", TypedValue.of(XsdType.INT, 1)))
        with pytest.raises(MalformedXml):
            reference_body_canonical(env)
        with pytest.raises(MalformedXml):
            serialize_body_canonical(env)

    def test_follows_elementtree_prefix_registry(self, monkeypatch):
        # ET.tostring uses a registered prefix for a namespace, so the
        # covered bytes change when an embedder registers one
        env = SoapEnvelope(body=SoapResponseBody(
            QName("opResponse", "urn:svc"), "opResult", TypedValue.of(XsdType.INT, 1)))
        before = serialize_body_canonical(env)
        monkeypatch.setitem(ET._namespace_map, "urn:svc", "svc")
        after = serialize_body_canonical(env)
        assert b"<svc:opResponse" in after and after != before
        assert after == reference_body_canonical(env)


class TestXmlChars:
    # short printable ASCII is passed at once, other ASCII goes through one
    # find per control character, other text through a regex; all must
    # agree with the XML 1.0 Char rule
    def test_each_ascii_character_agrees_with_the_regex(self):
        # TAB, LF, CR and DEL are not printable but are XML characters
        for code in range(128):
            for text in (chr(code), "abc" + chr(code) + "def", "a" * 600 + chr(code)):
                assert xml_chars_ok(text) is (_NOT_XML_CHAR.search(text) is None), repr(text)
        assert xml_chars_ok("") and xml_chars_ok("\x7f") and not xml_chars_ok("\x1f")

    @pytest.mark.parametrize("pad", ["a", "é"])
    def test_each_forbidden_character_is_found(self, pad):
        assert xml_chars_ok(pad + "\t\n\r<&" + pad)
        for c in NOT_XML_CHARS:
            assert not xml_chars_ok(pad + c + pad), repr(c)
            assert xml_safe_text(pad + c + pad) == pad + "\ufffd" + pad
