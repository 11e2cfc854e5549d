"""WSDL generation/parsing round trip and storage layout."""

import os
import random
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings

from mobilehost.errors import IoFailure, MalformedXml, UnsupportedWsdl
from mobilehost.notes import notes_descriptor
from mobilehost.service import MethodSignature, ParameterSpec, ServiceDescriptor
from mobilehost.soap import XsdType
from mobilehost.wsdl import WSDL_NS, WSDL_SOAP_NS, generate_wsdl, parse_wsdl, store_wsdl

from strategies import rand_descriptor, service_descriptors

ENDPOINT = "http://localhost:5000/CadastroEscolar.jws"


def wire_view(desc: ServiceDescriptor) -> ServiceDescriptor:
    import dataclasses

    return dataclasses.replace(desc, securityEnabled=False, exclusiveExecution=False)


class TestGenerate:
    def test_notes_wsdl_structure(self):
        doc = generate_wsdl(notes_descriptor(), ENDPOINT)
        root = ET.fromstring(doc.xmlText)
        ops = root.findall(f"{{{WSDL_NS}}}portType/{{{WSDL_NS}}}operation")
        assert [op.get("name") for op in ops] == ["obterNotas"]
        request_parts = root.findall(
            f"{{{WSDL_NS}}}message[@name='obterNotasRequest']/{{{WSDL_NS}}}part"
        )
        assert [(p.get("name"), p.get("type")) for p in request_parts] == [
            ("codAluno", "xsd:string"),
            ("codDisciplina", "xsd:string"),
        ]
        response_parts = root.findall(
            f"{{{WSDL_NS}}}message[@name='obterNotasResponse']/{{{WSDL_NS}}}part"
        )
        assert [(p.get("name"), p.get("type")) for p in response_parts] == [
            ("obterNotasResult", "xsd:string")
        ]
        address = root.find(
            f"{{{WSDL_NS}}}service/{{{WSDL_NS}}}port/{{{WSDL_SOAP_NS}}}address"
        )
        assert address.get("location") == ENDPOINT

    def test_two_methods_give_two_operations_four_messages(self):
        desc = ServiceDescriptor(
            serviceName="Pair",
            namespaceUri="urn:pair",
            endpointPath="/Pair.jws",
            responseNamespaceUri="urn:pair",
            methods=(
                MethodSignature("a", (ParameterSpec("x", XsdType.INT),), XsdType.INT),
                MethodSignature("b", (), XsdType.BOOLEAN),
            ),
        )
        root = ET.fromstring(generate_wsdl(desc, "http://h:1/Pair.jws").xmlText)
        assert len(root.findall(f"{{{WSDL_NS}}}portType/{{{WSDL_NS}}}operation")) == 2
        assert len(root.findall(f"{{{WSDL_NS}}}message")) == 4

    def test_generation_is_deterministic(self):
        a = generate_wsdl(notes_descriptor(), ENDPOINT).xmlText
        b = generate_wsdl(notes_descriptor(), ENDPOINT).xmlText
        assert a == b


class TestParse:
    def test_round_trip_notes(self):
        doc = generate_wsdl(notes_descriptor(), ENDPOINT)
        assert parse_wsdl(doc.xmlText) == wire_view(notes_descriptor())

    @settings(max_examples=60, deadline=None)
    @given(service_descriptors())
    def test_round_trip_generated(self, desc):
        url = f"http://localhost:5000{desc.endpointPath}"
        assert parse_wsdl(generate_wsdl(desc, url).xmlText) == desc

    def test_round_trip_200_seeded(self):
        rng = random.Random(525809)
        for i in range(200):
            desc = rand_descriptor(rng)
            url = f"http://localhost:5000{desc.endpointPath}"
            assert parse_wsdl(generate_wsdl(desc, url).xmlText) == desc, f"case {i}"

    def test_host_local_flags_do_not_survive_the_wire(self):
        desc = notes_descriptor(security_enabled=True)
        parsed = parse_wsdl(generate_wsdl(desc, ENDPOINT).xmlText)
        assert parsed.securityEnabled is False
        assert parsed == wire_view(desc)

    def test_malformed_xml(self):
        with pytest.raises(MalformedXml):
            parse_wsdl(b"<unclosed")

    def test_dtd_rejected(self):
        doc = generate_wsdl(notes_descriptor(), ENDPOINT).xmlText.decode()
        doc = doc.replace("?>\n", '?>\n<!DOCTYPE d [<!ENTITY x "Q">]>\n', 1)
        with pytest.raises(MalformedXml):
            parse_wsdl(doc.encode())

    def test_non_utf8_rejected(self):
        with pytest.raises(MalformedXml):
            parse_wsdl(b"<x>\xff</x>")

    def test_non_wsdl_root(self):
        with pytest.raises(UnsupportedWsdl):
            parse_wsdl(b"<x/>")

    def test_document_style_rejected(self):
        doc = generate_wsdl(notes_descriptor(), ENDPOINT).xmlText.decode()
        doc = doc.replace('style="rpc"', 'style="document"')
        with pytest.raises(UnsupportedWsdl):
            parse_wsdl(doc.encode())

    def test_element_parts_rejected(self):
        doc = generate_wsdl(notes_descriptor(), ENDPOINT).xmlText.decode()
        doc = doc.replace('name="codAluno" type="xsd:string"',
                          'name="codAluno" element="tns:codAluno"')
        with pytest.raises(UnsupportedWsdl):
            parse_wsdl(doc.encode())

    def test_empty_port_type_rejected(self):
        doc = (
            '<wsdl:definitions xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"'
            ' targetNamespace="urn:x" name="Empty">'
            '<wsdl:portType name="EmptyPortType"/>'
            "</wsdl:definitions>"
        )
        with pytest.raises(UnsupportedWsdl):
            parse_wsdl(doc.encode())

    def test_unknown_part_type_rejected(self):
        doc = generate_wsdl(notes_descriptor(), ENDPOINT).xmlText.decode()
        doc = doc.replace("xsd:string", "xsd:dateTime")
        with pytest.raises(UnsupportedWsdl):
            parse_wsdl(doc.encode())


class TestStore:
    def test_path_rule(self, tmp_path):
        doc = generate_wsdl(notes_descriptor(), ENDPOINT)
        path = store_wsdl(doc, tmp_path / "wsdl")
        assert path == tmp_path / "wsdl" / "CadastroEscolar.wsdl"

    def test_write_then_read_back_identical(self, tmp_path):
        doc = generate_wsdl(notes_descriptor(), ENDPOINT)
        path = store_wsdl(doc, tmp_path)
        assert path.read_bytes() == doc.xmlText

    def test_unwritable_dir(self, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("permission bits do not bind as root")
        blocked = tmp_path / "blocked"
        blocked.mkdir()
        blocked.chmod(0o400)
        doc = generate_wsdl(notes_descriptor(), ENDPOINT)
        with pytest.raises(IoFailure):
            store_wsdl(doc, blocked)

    def test_unwritable_path_is_io_failure(self, tmp_path):
        # a file where the directory should be fails regardless of uid
        clash = tmp_path / "clash"
        clash.write_text("occupied")
        doc = generate_wsdl(notes_descriptor(), ENDPOINT)
        with pytest.raises(IoFailure):
            store_wsdl(doc, clash)
