"""Exception taxonomy for the mobile host.

``fault_code_for`` is the one mapping from an error to a SOAP 1.1 fault
code: caller mistakes (codec and validation errors, unknown services,
denied access, bad signatures, undecryptable requests) are ``Client``
faults, everything else is ``Server``. The host's SOAP pipeline calls
it in one place; the error's message becomes the faultstring and its
``detail`` the fault detail. Those two are all an error carries: the
validation errors build their message from their arguments and keep
none of them.
"""

from __future__ import annotations

from typing import Optional


class MobileHostError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, *args, detail: Optional[str] = None):
        super().__init__(*args)
        self.detail = detail


# --- codec ---------------------------------------------------------------

class MalformedXml(MobileHostError):
    pass


class NotSoap(MobileHostError):
    pass


class UnsupportedType(MobileHostError):
    pass


# --- validation ----------------------------------------------------------

class ValidationError(MobileHostError):
    """A call does not match the declared method signature."""


class UnknownMethod(ValidationError):
    def __init__(self, name: str):
        super().__init__(f"unknown method: {name}")


class ArityMismatch(ValidationError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"expected {expected} parameter(s), got {got}")


class NameMismatch(ValidationError):
    def __init__(self, position: int, expected: str, got: str):
        super().__init__(
            f"parameter {position}: expected name '{expected}', got '{got}'"
        )


class TypeMismatch(ValidationError):
    def __init__(self, param_name: str, expected: str, got: str):
        super().__init__(
            f"parameter '{param_name}': expected {expected}, got {got}"
        )


class ReturnTypeMismatch(MobileHostError):
    def __init__(self, expected: str, got: str):
        super().__init__(f"handler returned {got}, signature declares {expected}")


class UnencodableResult(MobileHostError):
    def __init__(self) -> None:
        super().__init__("handler result holds characters XML 1.0 cannot carry")


class InvalidResultLexical(MobileHostError):
    def __init__(self, xsd_name: str):
        super().__init__(f"handler result is not a valid {xsd_name} lexical value")


class HandlerError(MobileHostError):
    """Raised by a service handler to signal a failure during execution.
    The host wraps whatever a handler raises in one of these."""


# --- access --------------------------------------------------------------

class AccessDenied(MobileHostError):
    """Credentials missing, unreadable or not good for the service."""

    def __init__(self, detail: Optional[str] = None):
        super().__init__("access denied", detail=detail)


# --- wsdl ----------------------------------------------------------------

class UnsupportedWsdl(MobileHostError):
    pass


# --- registry ------------------------------------------------------------

class DuplicateService(MobileHostError):
    pass


class PathConflict(MobileHostError):
    pass


class NotFound(MobileHostError):
    pass


class DuplicateUser(MobileHostError):
    pass


class IoFailure(MobileHostError):
    pass


class CorruptSnapshot(MobileHostError):
    pass


# --- security ------------------------------------------------------------

class MalformedSignature(MobileHostError):
    pass


class DecryptFailure(MobileHostError):
    # one message for every cause so a wrong key is indistinguishable
    # from a corrupt envelope
    def __init__(self) -> None:
        super().__init__("decryption failed")


# --- transport -----------------------------------------------------------

class BindFailure(MobileHostError):
    pass


class PeerGone(MobileHostError):
    pass


def fault_code_for(exc: Exception) -> str:
    """Map an exception to the SOAP 1.1 fault code the caller should see."""
    if isinstance(exc, (ValidationError, MalformedXml, NotSoap, UnsupportedType,
                        NotFound, DecryptFailure, MalformedSignature, AccessDenied)):
        return "Client"
    return "Server"
