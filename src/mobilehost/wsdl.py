"""WSDL 1.1 generation from service descriptors and the inverse parse.

Output is rpc/encoded style: one portType operation per method, a
request and a response message per operation, a SOAP binding and a
service element carrying the endpoint address. Generation is
deterministic, so equal descriptors give byte-identical documents.
``parse_wsdl`` accepts exactly the generated subset and rejects
anything else as unsupported.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .canonical import parse_xml
from .durable import write_file
from .errors import UnsupportedWsdl
from .service import MethodSignature, ParameterSpec, ServiceDescriptor
from .soap import XsdType, _attr

WSDL_NS = "http://schemas.xmlsoap.org/wsdl/"
WSDL_SOAP_NS = "http://schemas.xmlsoap.org/wsdl/soap/"
XSD_NS = "http://www.w3.org/2001/XMLSchema"
SOAP_ENC_NS = "http://schemas.xmlsoap.org/soap/encoding/"
SOAP_HTTP_TRANSPORT = "http://schemas.xmlsoap.org/soap/http"

_XSD_BY_NAME = {t.value: t for t in XsdType}


@dataclass(frozen=True)
class WsdlDocument:
    xmlText: bytes
    descriptor: ServiceDescriptor


def generate_wsdl(desc: ServiceDescriptor, endpoint_url: str) -> WsdlDocument:
    """Render the descriptor as a WSDL 1.1 document addressed at endpoint_url."""
    w = []
    name = desc.serviceName
    w.append('<?xml version="1.0" encoding="utf-8" ?>\n')
    w.append(
        f'<wsdl:definitions name="{_esc(name)}"'
        f' targetNamespace="{_esc(desc.namespaceUri)}"'
        f' xmlns:wsdl="{WSDL_NS}" xmlns:soap="{WSDL_SOAP_NS}"'
        f' xmlns:xsd="{XSD_NS}" xmlns:tns="{_esc(desc.namespaceUri)}">\n'
    )
    for m in desc.methods:
        w.append(f'  <wsdl:message name="{m.name}Request">\n')
        for p in m.params:
            w.append(f'    <wsdl:part name="{p.name}" type="xsd:{p.xsdType.value}" />\n')
        w.append("  </wsdl:message>\n")
        w.append(f'  <wsdl:message name="{m.name}Response">\n')
        w.append(f'    <wsdl:part name="{m.name}Result" type="xsd:{m.returnType.value}" />\n')
        w.append("  </wsdl:message>\n")
    w.append(f'  <wsdl:portType name="{name}PortType">\n')
    for m in desc.methods:
        order = " ".join(p.name for p in m.params)
        w.append(f'    <wsdl:operation name="{m.name}" parameterOrder="{_esc(order)}">\n')
        w.append(f'      <wsdl:input message="tns:{m.name}Request" />\n')
        w.append(f'      <wsdl:output message="tns:{m.name}Response" />\n')
        w.append("    </wsdl:operation>\n")
    w.append("  </wsdl:portType>\n")
    w.append(f'  <wsdl:binding name="{name}Binding" type="tns:{name}PortType">\n')
    w.append(f'    <soap:binding style="rpc" transport="{SOAP_HTTP_TRANSPORT}" />\n')
    for m in desc.methods:
        w.append(f'    <wsdl:operation name="{m.name}">\n')
        w.append('      <soap:operation soapAction="" />\n')
        w.append(
            f'      <wsdl:input><soap:body use="encoded"'
            f' namespace="{_esc(desc.namespaceUri)}"'
            f' encodingStyle="{SOAP_ENC_NS}" /></wsdl:input>\n'
        )
        w.append(
            f'      <wsdl:output><soap:body use="encoded"'
            f' namespace="{_esc(desc.responseNamespaceUri)}"'
            f' encodingStyle="{SOAP_ENC_NS}" /></wsdl:output>\n'
        )
        w.append("    </wsdl:operation>\n")
    w.append("  </wsdl:binding>\n")
    w.append(f'  <wsdl:service name="{_esc(name)}">\n')
    w.append(f'    <wsdl:port name="{name}Port" binding="tns:{name}Binding">\n')
    w.append(f'      <soap:address location="{_esc(endpoint_url)}" />\n')
    w.append("    </wsdl:port>\n")
    w.append("  </wsdl:service>\n")
    w.append("</wsdl:definitions>\n")
    return WsdlDocument(xmlText="".join(w).encode("utf-8"), descriptor=desc)


def _esc(s: str) -> str:
    return _attr(s).decode()


def _tag(ns: str, local: str) -> str:
    return f"{{{ns}}}{local}"


def parse_wsdl(xml) -> ServiceDescriptor:
    """Reconstruct a descriptor from a document in the generated subset.

    Host-local flags (securityEnabled, exclusiveExecution) are not part
    of the wire format and come back as their defaults.
    """
    root = parse_xml(xml)
    if root.tag != _tag(WSDL_NS, "definitions"):
        raise UnsupportedWsdl(f"root element is {root.tag}, not wsdl:definitions")
    target_ns = root.get("targetNamespace") or ""

    # message name -> ordered (part name, xsd type) pairs
    messages = {}
    for msg in root.findall(_tag(WSDL_NS, "message")):
        parts = []
        for part in msg.findall(_tag(WSDL_NS, "part")):
            type_attr = part.get("type")
            if type_attr is None:
                raise UnsupportedWsdl("message parts must use type=, not element=")
            local = type_attr.rsplit(":", 1)[-1]
            if local not in _XSD_BY_NAME:
                raise UnsupportedWsdl(f"unsupported part type: {type_attr}")
            parts.append((part.get("name") or "", _XSD_BY_NAME[local]))
        messages[msg.get("name")] = parts

    port_types = root.findall(_tag(WSDL_NS, "portType"))
    if len(port_types) != 1:
        raise UnsupportedWsdl("expected exactly one portType")
    operations = port_types[0].findall(_tag(WSDL_NS, "operation"))
    if not operations:
        raise UnsupportedWsdl("empty portType")

    methods = []
    for op in operations:
        op_name = op.get("name") or ""
        input_el = op.find(_tag(WSDL_NS, "input"))
        output_el = op.find(_tag(WSDL_NS, "output"))
        if input_el is None or output_el is None:
            raise UnsupportedWsdl(f"operation {op_name} must have input and output")
        in_parts = _resolve_message(messages, input_el.get("message"))
        out_parts = _resolve_message(messages, output_el.get("message"))
        if len(out_parts) != 1:
            raise UnsupportedWsdl(f"operation {op_name} must return exactly one part")
        methods.append(
            MethodSignature(
                name=op_name,
                params=tuple(ParameterSpec(n, t) for n, t in in_parts),
                returnType=out_parts[0][1],
            )
        )

    bindings = root.findall(_tag(WSDL_NS, "binding"))
    if len(bindings) != 1:
        raise UnsupportedWsdl("expected exactly one binding")
    soap_binding = bindings[0].find(_tag(WSDL_SOAP_NS, "binding"))
    if soap_binding is None or soap_binding.get("style") != "rpc":
        raise UnsupportedWsdl("only rpc-style SOAP bindings are supported")
    response_ns = target_ns
    first_out = bindings[0].find(
        f"{_tag(WSDL_NS, 'operation')}/{_tag(WSDL_NS, 'output')}/{_tag(WSDL_SOAP_NS, 'body')}"
    )
    if first_out is not None and first_out.get("namespace"):
        response_ns = first_out.get("namespace")

    services = root.findall(_tag(WSDL_NS, "service"))
    if len(services) != 1:
        raise UnsupportedWsdl("expected exactly one service")
    service_name = services[0].get("name") or ""
    address = services[0].find(
        f"{_tag(WSDL_NS, 'port')}/{_tag(WSDL_SOAP_NS, 'address')}"
    )
    if address is None or not address.get("location"):
        raise UnsupportedWsdl("service has no soap:address")
    location = address.get("location")
    path = _url_path(location)

    try:
        return ServiceDescriptor(
            serviceName=service_name,
            namespaceUri=target_ns,
            endpointPath=path,
            responseNamespaceUri=response_ns,
            methods=tuple(methods),
        )
    except ValueError as e:
        raise UnsupportedWsdl(str(e)) from None


def _resolve_message(messages: dict, ref) -> list:
    if ref is None:
        raise UnsupportedWsdl("operation input/output without message reference")
    name = ref.rsplit(":", 1)[-1]
    if name not in messages:
        raise UnsupportedWsdl(f"unresolved message: {ref}")
    return messages[name]


def _url_path(url: str) -> str:
    from urllib.parse import urlsplit

    path = urlsplit(url).path
    return path if path.startswith("/") else "/" + path


def store_wsdl(doc: WsdlDocument, directory) -> Path:
    """Write the document to <dir>/<serviceName>.wsdl and return the path."""
    target = Path(directory) / f"{doc.descriptor.serviceName}.wsdl"
    write_file(target, doc.xmlText)
    return target
