"""Envelope parse/serialize behavior, fault construction, and the
round-trip property the whole wire stack leans on."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobilehost.canonical import canonicalize, emit_canonical
from mobilehost.errors import MalformedXml
from mobilehost.soap import (
    QName,
    SoapCall,
    SoapEnvelope,
    SoapFault,
    SoapResponseBody,
    TypedValue,
    XsdType,
    make_fault,
    make_header_entry,
    parse_envelope,
    serialize_envelope,
    _esc_attr,
    _esc_text,
)

from strategies import SOAP_ENCODING, c14n_namespaces, c14n_text, envelopes, rand_envelope


class TestParseGolden:
    def test_notes_request_structure(self, fig13_bytes):
        env = parse_envelope(fig13_bytes)
        call = env.body
        assert isinstance(call, SoapCall)
        assert call.operation == QName(
            "obterNotas", "http://localhost:5000/CadastroEscolar.jws"
        )
        assert [(n, tv.xsdType, tv.value) for n, tv in call.params] == [
            ("codAluno", XsdType.STRING, "A001"),
            ("codDisciplina", XsdType.STRING, "D002"),
        ]
        assert call.id == "o0"
        assert call.rootAttr == "1"
        assert env.encodingStyle == "http://schemas.xmlsoap.org/soap/encoding/"

    def test_notes_response_structure(self, fig14_bytes):
        env = parse_envelope(fig14_bytes)
        body = env.body
        assert isinstance(body, SoapResponseBody)
        assert body.operation.localName == "obterNotasResponse"
        assert body.operation.namespaceUri == "http://www.dee.ufma.br/"
        assert body.resultName == "obterNotasResult"
        assert body.result.value.startswith("#A001;D002;LACKS;;0#")

    def test_reserialized_request_is_canonically_identical(self, fig13_bytes):
        env = parse_envelope(fig13_bytes)
        assert canonicalize(serialize_envelope(env)) == canonicalize(fig13_bytes)

    def test_reserialized_response_is_canonically_identical(self, fig14_bytes):
        env = parse_envelope(fig14_bytes)
        assert canonicalize(serialize_envelope(env)) == canonicalize(fig14_bytes)


class TestParseErrors:
    def test_not_xml(self):
        with pytest.raises(MalformedXml):
            parse_envelope(b"this is not xml")

    def test_not_utf8(self):
        with pytest.raises(MalformedXml):
            parse_envelope(b"\xff\xfe<Envelope/>")

    def test_wrong_root(self):
        with pytest.raises(MalformedXml,
                           match=r"^root element is html, not a SOAP 1\.1 Envelope$"):
            parse_envelope(b"<html><body>hi</body></html>")

    def test_soap12_envelope_rejected(self):
        xml = b'<Envelope xmlns="http://www.w3.org/2003/05/soap-envelope"><Body/></Envelope>'
        with pytest.raises(MalformedXml, match=re.escape(
                "root element is {http://www.w3.org/2003/05/soap-envelope}Envelope, "
                "not a SOAP 1.1 Envelope")):
            parse_envelope(xml)

    def test_empty_body(self):
        xml = (
            b'<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/">'
            b"<e:Body></e:Body></e:Envelope>"
        )
        with pytest.raises(MalformedXml, match="empty body"):
            parse_envelope(xml)

    def test_missing_body(self):
        xml = b'<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"/>'
        with pytest.raises(MalformedXml):
            parse_envelope(xml)

    def test_multiple_body_entries(self):
        xml = (
            b'<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/">'
            b"<e:Body><a/><b/></e:Body></e:Envelope>"
        )
        with pytest.raises(MalformedXml, match="multiple"):
            parse_envelope(xml)

    def test_unsupported_xsi_type(self):
        xml = (
            b'<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"'
            b' xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">'
            b'<e:Body><op><p xsi:type="xsd:dateTime">2008-08-13</p></op></e:Body>'
            b"</e:Envelope>"
        )
        with pytest.raises(MalformedXml, match=r"^unsupported xsi:type: xsd:dateTime$"):
            parse_envelope(xml)

    def test_bad_int_lexical(self):
        xml = (
            b'<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"'
            b' xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">'
            b'<e:Body><op><p xsi:type="xsd:int">twelve</p></op></e:Body>'
            b"</e:Envelope>"
        )
        with pytest.raises(MalformedXml):
            parse_envelope(xml)

    def test_duplicate_parameter_names(self):
        xml = (
            b'<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/">'
            b"<e:Body><op><p>1</p><p>2</p></op></e:Body></e:Envelope>"
        )
        with pytest.raises(MalformedXml, match="duplicate"):
            parse_envelope(xml)

    def test_dtd_rejected(self):
        xml = b'<!DOCTYPE x [<!ENTITY a "b">]><x>&a;</x>'
        with pytest.raises(MalformedXml):
            parse_envelope(xml)

    def test_unknown_faultcode(self):
        xml = (
            b'<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/">'
            b"<e:Body><e:Fault><faultcode>Weird</faultcode>"
            b"<faultstring>x</faultstring></e:Fault></e:Body></e:Envelope>"
        )
        with pytest.raises(MalformedXml, match="faultcode"):
            parse_envelope(xml)

    def test_prefixed_faultcode_accepted(self):
        xml = (
            b'<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/">'
            b"<e:Body><e:Fault><faultcode>e:Client</faultcode>"
            b"<faultstring>x</faultstring></e:Fault></e:Body></e:Envelope>"
        )
        assert parse_envelope(xml).body.faultcode == "Client"


class TestSerializeShape:
    def test_request_uses_soap_env_prefix_and_no_declaration(self):
        call = SoapCall(QName("ping", "urn:x"), params=())
        xml = serialize_envelope(SoapEnvelope(body=call)).decode()
        assert xml.startswith("<SOAP-ENV:Envelope")
        assert "SOAP-ENC" in xml

    def test_response_has_declaration_and_soap_prefix(self):
        body = SoapResponseBody(
            QName("pingResponse", "urn:x"), "pingResult",
            TypedValue.of(XsdType.STRING, "ok"),
        )
        xml = serialize_envelope(SoapEnvelope(body=body)).decode()
        assert xml.startswith('<?xml version="1.0" encoding="utf-8" ?>')
        assert "<soap:Envelope" in xml

    def test_fault_renders_code_element(self):
        xml = serialize_envelope(make_fault("Client", "unknown method")).decode()
        assert "<faultcode>Client</faultcode>" in xml
        assert "<faultstring>unknown method</faultstring>" in xml

    def test_fault_detail_present_when_given(self):
        xml = serialize_envelope(
            make_fault("Server", "handler panic", "stack id 7")
        ).decode()
        assert "<detail>stack id 7</detail>" in xml

    def test_untyped_parameter_defaults_to_string(self):
        xml = (
            b'<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/">'
            b"<e:Body><op><p>plain</p></op></e:Body></e:Envelope>"
        )
        env = parse_envelope(xml)
        assert env.body.params[0][1] == TypedValue.of(XsdType.STRING, "plain")

    def test_markup_in_values_is_escaped(self):
        call = SoapCall(
            QName("op", "urn:x"),
            params=(("p", TypedValue.of(XsdType.STRING, '<&>"')),),
        )
        env = SoapEnvelope(body=call)
        assert parse_envelope(serialize_envelope(env)) == env


class TestFaults:
    @pytest.mark.parametrize("code", ["VersionMismatch", "MustUnderstand", "Client", "Server"])
    def test_all_codes_accepted(self, code):
        env = make_fault(code, "m")
        assert parse_envelope(serialize_envelope(env)) == env

    def test_invalid_code_rejected_at_construction(self):
        with pytest.raises(ValueError):
            SoapFault(faultcode="Banana", faultstring="x")

    def test_fault_round_trip_with_detail(self):
        env = make_fault("Server", "handler panic", "stack id 7")
        assert parse_envelope(serialize_envelope(env)) == env


class TestHeaders:
    def test_header_entries_preserved(self):
        entry = make_header_entry('<X xmlns="urn:h">keep me</X>')
        call = SoapCall(QName("op", "urn:x"), params=())
        env = SoapEnvelope(body=call, headerEntries=(entry,))
        back = parse_envelope(serialize_envelope(env))
        # entries are elements: compared in the canonical form they travel in
        assert [emit_canonical(e) for e in back.headerEntries] == [emit_canonical(entry)]

    def test_unknown_headers_survive_unknown_content(self):
        entry = make_header_entry(
            '<Meta xmlns="urn:h" a="1"><Inner>text</Inner><Other/></Meta>'
        )
        env = SoapEnvelope(body=SoapCall(QName("op", "urn:x"), params=()),
                           headerEntries=(entry,))
        back = parse_envelope(serialize_envelope(env))
        assert [emit_canonical(e) for e in back.headerEntries] == [emit_canonical(entry)]

    def test_envelopes_compare_entries_in_canonical_form(self):
        call = SoapCall(QName("op", "urn:x"), params=())

        def env(fragment):
            return SoapEnvelope(body=call, headerEntries=(make_header_entry(fragment),))

        assert env('<h:X xmlns:h="urn:h"> v </h:X>') == env('<X xmlns="urn:h">v</X>')
        assert env('<X xmlns="urn:h">v</X>') != env('<X xmlns="urn:h">w</X>')
        # entries are mutable elements: an envelope has no hash
        with pytest.raises(TypeError):
            hash(env('<X xmlns="urn:h">v</X>'))


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(envelopes())
    def test_parse_inverts_serialize(self, env):
        assert parse_envelope(serialize_envelope(env)) == env

    def test_parse_inverts_serialize_1000_seeded(self):
        rng = random.Random(20080813)
        for i in range(1000):
            env = rand_envelope(rng)
            assert parse_envelope(serialize_envelope(env)) == env, f"case {i}"

    @settings(max_examples=100, deadline=None)
    @given(envelopes())
    def test_parameter_order_preserved(self, env):
        if not isinstance(env.body, SoapCall):
            return
        back = parse_envelope(serialize_envelope(env))
        assert [n for n, _ in back.body.params] == [n for n, _ in env.body.params]


# --- the bytes serializer ----------------------------------------------------


def str_esc_text(s: str) -> str:
    """The escaper the serializer used when it wrote str, kept as an oracle."""
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def str_esc_attr(s: str) -> str:
    s = str_esc_text(s).replace('"', "&quot;")
    return s.replace("\n", "&#10;").replace("\t", "&#9;").replace("\r", "&#13;")


escapable_text = st.text(alphabet=st.one_of(
    st.sampled_from("&<>\"'\r\n\t ;#"),
    st.characters(blacklist_categories=("Cs",)),
), max_size=60)

# Wire bytes written by the str serializer, which these must keep
FIG13_WIRE = (
    b'<SOAP-ENV:Envelope xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"'
    b' xmlns:xsd="http://www.w3.org/2001/XMLSchema"'
    b' xmlns:SOAP-ENC="http://schemas.xmlsoap.org/soap/encoding/"'
    b' xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/">\n'
    b'<SOAP-ENV:Body SOAP-ENV:encodingStyle="http://schemas.xmlsoap.org/soap/encoding/">\n'
    b'<obterNotas xmlns="http://localhost:5000/CadastroEscolar.jws" id="o0" SOAP-ENC:root="1">\n'
    b'<codAluno xmlns="" xsi:type="xsd:string">A001</codAluno>\n'
    b'<codDisciplina xmlns="" xsi:type="xsd:string">D002</codDisciplina>\n'
    b"</obterNotas>\n</SOAP-ENV:Body>\n</SOAP-ENV:Envelope>"
)
RESPONSE_OPEN = (
    b'<?xml version="1.0" encoding="utf-8" ?>\n'
    b'<soap:Envelope xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"'
    b' xmlns:xsd="http://www.w3.org/2001/XMLSchema"'
    b' xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">\n'
)
FIG14_WIRE = RESPONSE_OPEN + (
    b'<soap:Body>\n<obterNotasResponse xmlns="http://www.dee.ufma.br/">\n'
    b'<obterNotasResult xsi:type="xsd:string">#A001;D002;LACKS;;0#A001;D002;FINAL TEST;;0'
    b"#A001;D002;REPLACEMENT;;0#A001;D002;NOTE 3;;98#A001;D002;NOTE 2;;95"
    b"#A001;D002;NOTE 1;;100#</obterNotasResult>\n"
    b"</obterNotasResponse>\n</soap:Body>\n</soap:Envelope>"
)
ODD_NS = 'urn:a&b<c>"d"\te\nf\rg'
ODD_NS_WIRE = b"urn:a&amp;b&lt;c&gt;&quot;d&quot;&#9;e&#10;f&#13;g"
HEADER_WIRE = b'<ns0:H xmlns:ns0="urn:h" a="1">x &amp; y</ns0:H>'


class TestBytesSerializer:
    @settings(max_examples=500, deadline=None)
    @given(escapable_text)
    def test_escapers_equal_the_str_escapers_encoded(self, s):
        assert _esc_text(s.encode()) == str_esc_text(s).encode()
        assert _esc_attr(s.encode()) == str_esc_attr(s).encode()

    def test_golden_envelopes_keep_their_wire_bytes(self, fig13_bytes, fig14_bytes):
        assert serialize_envelope(parse_envelope(fig13_bytes)) == FIG13_WIRE
        assert serialize_envelope(parse_envelope(fig14_bytes)) == FIG14_WIRE

    def test_markup_heavy_envelopes_keep_their_wire_bytes(self):
        header = make_header_entry('<H xmlns="urn:h" a="1">x &amp; y</H>')
        call = SoapCall(QName("op", ODD_NS), (
            ("s", TypedValue.of(XsdType.STRING, "a<b>&c\r\n\t\u00e9")),
            ("i", TypedValue.of(XsdType.INT, -7)),
            ("d", TypedValue.of(XsdType.DOUBLE, 0.1)),
            ("b", TypedValue.of(XsdType.BOOLEAN, True)),
        ), id='<&>"\n\t\r', rootAttr="1")
        assert serialize_envelope(SoapEnvelope(call, (header,), SOAP_ENCODING)) == (
            FIG13_WIRE[:FIG13_WIRE.index(b"\n") + 1]
            + b"<SOAP-ENV:Header>\n" + HEADER_WIRE + b"\n</SOAP-ENV:Header>\n"
            + b'<SOAP-ENV:Body SOAP-ENV:encodingStyle="http://schemas.xmlsoap.org/soap/encoding/">\n'
            + b'<op xmlns="' + ODD_NS_WIRE + b'" id="&lt;&amp;&gt;&quot;&#10;&#9;&#13;"'
            + b' SOAP-ENC:root="1">\n'
            + b'<s xmlns="" xsi:type="xsd:string">a&lt;b&gt;&amp;c\r\n\t\xc3\xa9</s>\n'
            + b'<i xmlns="" xsi:type="xsd:int">-7</i>\n'
            + b'<d xmlns="" xsi:type="xsd:double">0.1</d>\n'
            + b'<b xmlns="" xsi:type="xsd:boolean">true</b>\n'
            + b"</op>\n</SOAP-ENV:Body>\n</SOAP-ENV:Envelope>"
        )
        response = SoapResponseBody(QName("opResponse", ODD_NS), "opResult",
                                    TypedValue.of(XsdType.STRING, "\u00e9>"))
        assert serialize_envelope(SoapEnvelope(response, (header,))) == (
            RESPONSE_OPEN + b"<soap:Header>\n" + HEADER_WIRE + b"\n</soap:Header>\n"
            + b'<soap:Body>\n<opResponse xmlns="' + ODD_NS_WIRE + b'">\n'
            + b'<opResult xsi:type="xsd:string">\xc3\xa9&gt;</opResult>\n'
            + b"</opResponse>\n</soap:Body>\n</soap:Envelope>"
        )
        fault = make_fault("Client", 'a<b & "c"\r\u00e9', "d>")
        assert serialize_envelope(fault) == RESPONSE_OPEN + (
            b"<soap:Body>\n<soap:Fault>\n<faultcode>Client</faultcode>\n"
            b'<faultstring>a&lt;b &amp; "c"\r\xc3\xa9</faultstring>\n'
            b"<detail>d&gt;</detail>\n</soap:Fault>\n</soap:Body>\n</soap:Envelope>"
        )

    @settings(max_examples=300, deadline=None)
    @given(envelopes(text=c14n_text, ns=c14n_namespaces))
    def test_wider_envelopes_round_trip(self, env):
        # a parse turns CR in text into LF, so the reparsed envelope is
        # compared through its canonical form; everything else is equal
        wire = serialize_envelope(env)
        back = parse_envelope(wire)
        assert canonicalize(serialize_envelope(back)) == canonicalize(wire)
        assert parse_envelope(serialize_envelope(back)) == back
        assert ([emit_canonical(e) for e in back.headerEntries]
                == [emit_canonical(e) for e in env.headerEntries])
        assert back.encodingStyle == env.encodingStyle
        assert type(back.body) is type(env.body)
        if not isinstance(env.body, SoapFault):
            assert back.body.operation == env.body.operation
