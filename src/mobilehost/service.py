"""Service contracts: descriptors, the handler boundary, call validation.

A service declares its methods up front; the host only ever invokes
``executeMethod`` with an argument list that passed ``validate_call``
against the declared signature. A call that does not match is a
``ValidationError`` (a Client fault), and a result that
``coerce_result`` refuses a ``HandlerError`` (a Server fault); each
message says which check failed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import List, Protocol

from .errors import HandlerError, MalformedXml, ValidationError
from .canonical import XML_NS, XMLNS_NS, xml_chars_ok
from .soap import SoapCall, TypedValue, XsdType, _is_token, parse_lexical


@dataclass(frozen=True)
class ParameterSpec:
    name: str
    xsdType: XsdType

    def __post_init__(self) -> None:
        if not _is_token(self.name):
            raise ValueError(f"invalid parameter name: {self.name!r}")


@dataclass(frozen=True)
class MethodSignature:
    name: str
    params: tuple  # of ParameterSpec
    returnType: XsdType

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))
        if not _is_token(self.name):
            raise ValueError(f"invalid method name: {self.name!r}")
        names = [p.name for p in self.params]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate parameter names in method {self.name}")


@dataclass(frozen=True)
class ServiceDescriptor:
    serviceName: str
    namespaceUri: str
    endpointPath: str
    responseNamespaceUri: str
    methods: tuple  # of MethodSignature, non-empty
    securityEnabled: bool = False
    exclusiveExecution: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "methods", tuple(self.methods))
        if not _is_token(self.serviceName):
            raise ValueError(f"invalid service name: {self.serviceName!r}")
        if not self.endpointPath.startswith("/"):
            raise ValueError("endpointPath must begin with '/'")
        if not self.methods:
            raise ValueError("a service must declare at least one method")
        names = [m.name for m in self.methods]
        if len(names) != len(set(names)):
            raise ValueError("method names must be unique within a service")
        # replies and the WSDL bind these names; XML forbids binding the
        # reserved ones and cannot write characters outside XML 1.0, and
        # the parser, which splits names at "}", refuses a name holding it
        for uri in (self.namespaceUri, self.responseNamespaceUri):
            if uri in (XML_NS, XMLNS_NS) or "}" in uri or not xml_chars_ok(uri):
                raise ValueError(f"namespace XML cannot carry: {uri!r}")

    def method(self, name: str) -> MethodSignature:
        for m in self.methods:
            if m.name == name:
                return m
        raise ValidationError(f"unknown method: {name}")


class ServiceHandler(Protocol):
    """The single dispatch entry point a service implementation provides."""

    def executeMethod(self, methodName: str, args: List[TypedValue]) -> TypedValue:
        ...


def validate_call(desc: ServiceDescriptor, call: SoapCall) -> MethodSignature:
    """Match a parsed call against the declared signatures.

    Checks, in order: method name, parameter count, each positional
    parameter's name, then its type. The first mismatch wins.
    """
    sig = desc.method(call.operation.localName)
    if len(call.params) != len(sig.params):
        raise ValidationError(
            f"expected {len(sig.params)} parameter(s), got {len(call.params)}")
    for i, ((got_name, got_value), spec) in enumerate(zip(call.params, sig.params)):
        if got_name != spec.name:
            raise ValidationError(
                f"parameter {i}: expected name '{spec.name}', got '{got_name}'")
        if got_value.xsdType is not spec.xsdType:
            raise ValidationError(f"parameter '{spec.name}': expected "
                                  f"{spec.xsdType.value}, got {got_value.xsdType.value}")
    return sig


def coerce_result(sig: MethodSignature, raw: TypedValue) -> TypedValue:
    """Enforce the declared return type, no silent coercion, and a
    lexical form XML 1.0 can carry that is valid for the type."""
    if not isinstance(raw, TypedValue) or raw.xsdType is not sig.returnType:
        got = raw.xsdType.value if isinstance(raw, TypedValue) else type(raw).__name__
        raise HandlerError(f"handler returned {got}, signature declares "
                           f"{sig.returnType.value}")
    if not xml_chars_ok(raw.lexical):
        raise HandlerError("handler result holds characters XML 1.0 cannot carry")
    # any string is a valid xsd:string, so echoing text pays nothing here
    if raw.xsdType is not XsdType.STRING:
        try:
            parse_lexical(raw.xsdType, raw.lexical)
        except MalformedXml:
            raise HandlerError(f"handler result is not a valid "
                               f"{raw.xsdType.xsd_name} lexical value") from None
    return raw


# --- canonical dict form (fingerprint, persistence, manifest) -------------


def descriptor_to_dict(desc: ServiceDescriptor) -> dict:
    return {
        "serviceName": desc.serviceName,
        "namespaceUri": desc.namespaceUri,
        "endpointPath": desc.endpointPath,
        "responseNamespaceUri": desc.responseNamespaceUri,
        "securityEnabled": desc.securityEnabled,
        "exclusiveExecution": desc.exclusiveExecution,
        "methods": [
            {
                "name": m.name,
                "params": [{"name": p.name, "type": p.xsdType.value} for p in m.params],
                "returns": m.returnType.value,
            }
            for m in desc.methods
        ],
    }


def descriptor_from_dict(data: dict) -> ServiceDescriptor:
    methods = tuple(
        MethodSignature(
            name=m["name"],
            params=tuple(
                ParameterSpec(p["name"], XsdType(p["type"])) for p in m.get("params", ())
            ),
            returnType=XsdType(m["returns"]),
        )
        for m in data["methods"]
    )
    return ServiceDescriptor(
        serviceName=data["serviceName"],
        namespaceUri=data["namespaceUri"],
        endpointPath=data["endpointPath"],
        responseNamespaceUri=data.get("responseNamespaceUri", data["namespaceUri"]),
        methods=methods,
        securityEnabled=bool(data.get("securityEnabled", False)),
        exclusiveExecution=bool(data.get("exclusiveExecution", False)),
    )


def descriptor_fingerprint(desc: ServiceDescriptor) -> str:
    """Deterministic digest over the canonical field ordering."""
    canon = json.dumps(descriptor_to_dict(desc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
