"""Embeddable SOAP service host: register services at runtime, serve
them over pluggable transports, and secure messages end to end."""

from .errors import MobileHostError
from .host import AuthHeader, Host, HostConfig
from .registry import (
    Registry,
    RequestLogEntry,
    ServiceRecord,
    UserRecord,
    make_user,
)
from .security import (
    Certificate,
    CipherEnvelope,
    KeyPair,
    SignatureBlock,
    decrypt_message,
    encrypt_message,
    generate_keypair,
    issue_certificate,
    parse_certificate_text,
    render_certificate_text,
    sign_message,
    verify_signature,
)
from .service import (
    MethodSignature,
    ParameterSpec,
    ServiceDescriptor,
    coerce_result,
    descriptor_fingerprint,
    validate_call,
)
from .soap import (
    QName,
    SoapCall,
    SoapEnvelope,
    SoapFault,
    SoapResponseBody,
    TypedValue,
    XsdType,
    make_fault,
    parse_envelope,
    serialize_envelope,
)
from .transport import (
    BindingConfig,
    InboundRequest,
    OutboundResponse,
    classify_request,
    start_listener,
)
from .wsdl import WsdlDocument, generate_wsdl, parse_wsdl, store_wsdl

__version__ = "0.1.0"
