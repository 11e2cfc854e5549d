"""Exception taxonomy for the mobile host.

``fault_code_for`` is the one mapping from an error to a SOAP 1.1 fault
code: caller mistakes (codec and validation errors, unknown services,
denied access, bad signatures, undecryptable requests) are ``Client``
faults, everything else is ``Server``. The host's SOAP pipeline calls
it in one place; the error's message becomes the faultstring and its
``detail`` the fault detail. Those two are all an error carries, so one
class serves each kind of mistake that some caller handles apart:
``MalformedXml`` for any input the codec cannot read as SOAP,
``ValidationError`` for a call that does not match its signature and
``HandlerError`` for a handler that fails or returns what its signature
does not allow. The code that raises one writes its message.
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


# --- validation ----------------------------------------------------------

class ValidationError(MobileHostError):
    """A call does not match the declared method signature."""


class HandlerError(MobileHostError):
    """A handler failed or returned a result its signature does not
    allow. The host wraps whatever a handler raises in one of these."""


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
    if isinstance(exc, (ValidationError, MalformedXml, NotFound, DecryptFailure,
                        MalformedSignature, AccessDenied)):
        return "Client"
    return "Server"
