"""Message-level security: per-service RSA keypairs, detached body
signatures, hybrid encryption and self-signed textual certificates.

The certificate is a text rendering, not DER: fields are printed in a
fixed line order (banner, type, serial as colon-separated octets,
subject and issuer DNs, start and final dates, RSA modulus and exponent
as decimal digit runs, then the self-signature). The rendering is
bit-exact and parses back to an equal certificate.

Each RSA scheme (RFC 8017) is spelled once: ``_sign``/``_verify``
(RSASSA-PKCS1-v1_5, SHA-256) and ``_OAEP`` (RSAES-OAEP, SHA-256). Key
files are read only by ``load_key_pair``, for ``KeyStore`` and the CLI.
``KeyStore`` names, issues, loads and renews each service's pair; a file
it cannot read, or a certificate for another key, is an ``IoFailure``
that names the file.
"""

from __future__ import annotations

import base64
import dataclasses
import os
import time
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import padding, rsa
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.exceptions import InvalidSignature, UnsupportedAlgorithm

from .durable import write_file
from .errors import DecryptFailure, IoFailure, MalformedSignature

SIGNATURE_ALGORITHM = "RSA-SHA256"
DIGEST_ALGORITHM = "SHA-256"
ALLOWED_KEY_BITS = (2048, 3072, 4096)
DEFAULT_VALIDITY_DAYS = 10
_RENEW_MARGIN = timedelta(days=DEFAULT_VALIDITY_DAYS / 2)

_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
_DIGIT_WRAP = 43  # digits per line in modulus/signature runs

_PKCS1V15 = padding.PKCS1v15()
_OAEP = padding.OAEP(mgf=padding.MGF1(algorithm=hashes.SHA256()),
                     algorithm=hashes.SHA256(), label=None)


@dataclass(frozen=True)
class KeyPair:
    publicKey: rsa.RSAPublicKey
    privateKey: rsa.RSAPrivateKey

    @property
    def modulus(self) -> int:
        return self.publicKey.public_numbers().n

    @property
    def exponent(self) -> int:
        return self.publicKey.public_numbers().e


@dataclass(frozen=True)
class SignatureBlock:
    algorithm: str
    digestAlgorithm: str
    value: str  # base64


@dataclass(frozen=True)
class CipherEnvelope:
    wrappedKey: str  # base64, session key under recipient public key
    iv: str  # base64
    ciphertext: str  # base64


@dataclass(frozen=True)
class Certificate:
    versionLabel: str  # literal "X.509v1"
    serial: bytes
    subjectDN: str
    issuerDN: str
    notBefore: datetime  # UTC, second resolution
    notAfter: datetime
    modulus: int
    exponent: int
    signature: bytes

    def public_key(self) -> rsa.RSAPublicKey:
        return rsa.RSAPublicNumbers(self.exponent, self.modulus).public_key()


def generate_keypair(bits: int = 2048) -> KeyPair:
    if bits not in ALLOWED_KEY_BITS:
        raise ValueError(f"key size must be one of {ALLOWED_KEY_BITS}")
    priv = rsa.generate_private_key(public_exponent=65537, key_size=bits)
    return KeyPair(publicKey=priv.public_key(), privateKey=priv)


def _sign(data: bytes, private_key: rsa.RSAPrivateKey) -> bytes:
    return private_key.sign(data, _PKCS1V15, hashes.SHA256())


def _verify(signature: bytes, data: bytes, public_key: rsa.RSAPublicKey) -> bool:
    try:
        public_key.verify(signature, data, _PKCS1V15, hashes.SHA256())
        return True
    except InvalidSignature:
        return False


def sign_message(message: bytes, private_key: rsa.RSAPrivateKey) -> SignatureBlock:
    return SignatureBlock(
        algorithm=SIGNATURE_ALGORITHM,
        digestAlgorithm=DIGEST_ALGORITHM,
        value=base64.b64encode(_sign(message, private_key)).decode("ascii"),
    )


def verify_signature(
    message: bytes, sig: SignatureBlock, public_key: rsa.RSAPublicKey
) -> bool:
    try:
        raw = base64.b64decode(sig.value, validate=True)
    except Exception:
        raise MalformedSignature("signature value is not valid base64") from None
    return _verify(raw, message, public_key)


def encrypt_message(plaintext: bytes, recipient: rsa.RSAPublicKey) -> CipherEnvelope:
    """Hybrid scheme: fresh AES-256-GCM session key per message, wrapped
    under the recipient's public key with OAEP."""
    if not plaintext:
        raise ValueError("plaintext must be non-empty")
    session_key = os.urandom(32)
    iv = os.urandom(12)
    ciphertext = AESGCM(session_key).encrypt(iv, plaintext, None)
    wrapped = recipient.encrypt(session_key, _OAEP)
    b64 = lambda b: base64.b64encode(b).decode("ascii")
    return CipherEnvelope(wrappedKey=b64(wrapped), iv=b64(iv), ciphertext=b64(ciphertext))


def decrypt_message(env: CipherEnvelope, private_key: rsa.RSAPrivateKey) -> bytes:
    try:
        wrapped = base64.b64decode(env.wrappedKey, validate=True)
        iv = base64.b64decode(env.iv, validate=True)
        ciphertext = base64.b64decode(env.ciphertext, validate=True)
        session_key = private_key.decrypt(wrapped, _OAEP)
        return AESGCM(session_key).decrypt(iv, ciphertext, None)
    except Exception:
        raise DecryptFailure() from None


# --- certificates ----------------------------------------------------------


def _format_cert_date(dt: datetime) -> str:
    dt = dt.astimezone(timezone.utc)
    return (
        f"{_DAYS[dt.weekday()]} {_MONTHS[dt.month - 1]} {dt.day:02d} "
        f"{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d} UTC {dt.year}"
    )


def _parse_cert_date(text: str) -> datetime:
    parts = text.split()
    if len(parts) != 6 or parts[4] != "UTC" or parts[1] not in _MONTHS:
        raise ValueError(f"bad certificate date: {text!r}")
    month = _MONTHS.index(parts[1]) + 1
    hh, mm, ss = (int(x) for x in parts[3].split(":"))
    return datetime(int(parts[5]), month, int(parts[2]), hh, mm, ss, tzinfo=timezone.utc)


def _wrap_digits(number: int) -> str:
    digits = str(number)
    return "\n".join(
        digits[i : i + _DIGIT_WRAP] for i in range(0, len(digits), _DIGIT_WRAP)
    )


def _tbs_text(cert: Certificate) -> str:
    """The byte-stable field rendering the self-signature covers."""
    return (
        f"Type: {cert.versionLabel}\n"
        f"Serial number: {_serial_text(cert.serial)}\n"
        f"SubjectDN: {cert.subjectDN}\n"
        f"IssuerDN: {cert.issuerDN}\n"
        f"Start Date: {_format_cert_date(cert.notBefore)}\n"
        f"Final Date: {_format_cert_date(cert.notAfter)}\n"
        f"Public Key: RSA\n"
        f"modulus:\n{_wrap_digits(cert.modulus)}\n"
        f"public exponent:{cert.exponent}\n"
        f"Signature Algorithm: RSA"
    )


def _serial_text(serial: bytes) -> str:
    return ":".join(f"{b:02x}" for b in serial)


def make_serial(now_ms: int | None = None) -> bytes:
    """Serial = ASCII bytes of a decimal token derived from the clock."""
    if now_ms is None:
        now_ms = time.time_ns() // 1_000_000
    return str(now_ms % 1_000_000).encode("ascii")


def issue_certificate(
    kp: KeyPair,
    subjectDN: str,
    validityDays: int = DEFAULT_VALIDITY_DAYS,
    *,
    not_before: datetime | None = None,
    serial: bytes | None = None,
) -> Certificate:
    """Issue a self-signed certificate over the keypair's public half."""
    if validityDays < 1:
        raise ValueError("validityDays must be >= 1")
    if not_before is None:
        not_before = datetime.now(timezone.utc).replace(microsecond=0)
    unsigned = Certificate(
        versionLabel="X.509v1",
        serial=serial if serial is not None else make_serial(),
        subjectDN=subjectDN,
        issuerDN=subjectDN,
        notBefore=not_before,
        notAfter=not_before + timedelta(days=validityDays),
        modulus=kp.modulus,
        exponent=kp.exponent,
        signature=b"",
    )
    sig = _sign(_tbs_text(unsigned).encode("utf-8"), kp.privateKey)
    return dataclasses.replace(unsigned, signature=sig)


def verify_certificate(cert: Certificate) -> bool:
    """Check the self-signature under the embedded public key."""
    try:
        return _verify(cert.signature, _tbs_text(cert).encode("utf-8"), cert.public_key())
    except ValueError:  # no RSA key has these numbers
        return False


def render_certificate_text(cert: Certificate) -> str:
    sig_number = int.from_bytes(cert.signature, "big")
    return (
        "----- Begin Certificate -----\n"
        + _tbs_text(cert)
        + "\n"
        + f"Signature:\n{_wrap_digits(sig_number)}\n"
        + "----- End Certificate -----\n"
    )


def parse_certificate_text(text: str) -> Certificate:
    """Companion parser for render_certificate_text output. Any text it
    cannot read raises ValueError."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "----- Begin Certificate -----":
        raise ValueError("missing certificate banner")
    if lines[-1] != "----- End Certificate -----":
        raise ValueError("missing end banner")

    def take(prefix: str, line: str) -> str:
        if not line.startswith(prefix):
            raise ValueError(f"expected {prefix!r}, got {line!r}")
        return line[len(prefix):]

    i = 1
    version = take("Type: ", lines[i]); i += 1
    serial_hex = take("Serial number: ", lines[i]); i += 1
    serial = bytes(int(t, 16) for t in serial_hex.split(":")) if serial_hex else b""
    subject = take("SubjectDN: ", lines[i]); i += 1
    issuer = take("IssuerDN: ", lines[i]); i += 1
    start = _parse_cert_date(take("Start Date: ", lines[i])); i += 1
    final = _parse_cert_date(take("Final Date: ", lines[i])); i += 1
    take("Public Key: RSA", lines[i]); i += 1
    take("modulus:", lines[i]); i += 1
    modulus_digits = []
    while i < len(lines) and lines[i].isdigit():
        modulus_digits.append(lines[i]); i += 1
    exponent = int(take("public exponent:", lines[i])); i += 1
    take("Signature Algorithm: RSA", lines[i]); i += 1
    take("Signature:", lines[i]); i += 1
    sig_digits = []
    while i < len(lines) and lines[i].isdigit():
        sig_digits.append(lines[i]); i += 1
    if not modulus_digits or not sig_digits:
        raise ValueError("certificate is missing modulus or signature digits")
    modulus = int("".join(modulus_digits))
    sig_number = int("".join(sig_digits))
    key_bytes = (modulus.bit_length() + 7) // 8
    if sig_number.bit_length() > key_bytes * 8:
        raise ValueError("certificate signature is longer than its modulus")
    return Certificate(
        versionLabel=version,
        serial=serial,
        subjectDN=subject,
        issuerDN=issuer,
        notBefore=start,
        notAfter=final,
        modulus=modulus,
        exponent=exponent,
        signature=sig_number.to_bytes(key_bytes, "big"),
    )


# --- key store ---------------------------------------------------------------


def load_key_pair(key_path, cert_path) -> tuple:
    """(KeyPair, Certificate) from a PEM RSA private key file and a
    certificate text file. A file that does not read as one, or a
    certificate for another key, is a ValueError that starts with the
    file's path; an OSError (its text names the file) passes through."""
    path = Path(key_path)
    try:
        priv = serialization.load_pem_private_key(path.read_bytes(), password=None)
        if not isinstance(priv, rsa.RSAPrivateKey):
            raise ValueError("not an RSA private key")
        kp = KeyPair(publicKey=priv.public_key(), privateKey=priv)
        path = Path(cert_path)
        cert = parse_certificate_text(path.read_bytes().decode("utf-8"))
        # KeyStore.save writes the key first: a crash after it leaves the old cert
        if (cert.modulus, cert.exponent) != (kp.modulus, kp.exponent):
            raise ValueError("certificate is for another key")
    except (ValueError, TypeError, UnsupportedAlgorithm) as e:  # TypeError: an encrypted PEM
        raise ValueError(f"{path}: {e}") from None
    return kp, cert


class KeyStore:
    """Each secured service's key material, found by the service name:
    <name>.key (restricted private PEM) and <name>.cert (certificate text)."""

    def __init__(self, directory):
        self.directory = Path(directory)

    def key_path(self, name: str) -> Path:
        return self.directory / f"{name}.key"

    def cert_path(self, name: str) -> Path:
        return self.directory / f"{name}.cert"

    def has(self, name: str) -> bool:
        return self.key_path(name).exists() and self.cert_path(name).exists()

    def save(self, name: str, kp: KeyPair, cert: Certificate) -> None:
        pem = kp.privateKey.private_bytes(
            serialization.Encoding.PEM,
            serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption(),
        )
        write_file(self.key_path(name), pem, mode=0o600)
        write_file(self.cert_path(name), render_certificate_text(cert).encode("utf-8"))

    def load(self, name: str) -> tuple:
        """(KeyPair, Certificate) of name. A missing file, or one that
        load_key_pair refuses, is an IoFailure naming the file."""
        try:
            return load_key_pair(self.key_path(name), self.cert_path(name))
        except (OSError, ValueError) as e:  # each text names the file
            raise IoFailure(f"cannot read key material for {name}: {e}") from None

    def issue(self, name: str, bits: int, subjectDN: str, validityDays: int) -> tuple:
        """Make, certify and save a new (KeyPair, Certificate) for name; a
        bad size or validity is a ValueError before any file is written."""
        kp = generate_keypair(bits)
        cert = issue_certificate(kp, subjectDN=subjectDN, validityDays=validityDays)
        self.save(name, kp, cert)
        return kp, cert

    def service_keys(self, name: str, issue: bool = False) -> tuple:
        """(KeyPair, Certificate) of a secured service. With issue, a pair
        the store lacks is made and saved first; without it, a missing file
        is load()'s IoFailure. A certificate within _RENEW_MARGIN of its end
        is replaced on disk by one with the same key and subject."""
        if issue and not self.has(name):
            return self.issue(name, 2048, f"{name}/", DEFAULT_VALIDITY_DAYS)
        kp, cert = self.load(name)
        if cert.notAfter - datetime.now(timezone.utc) < _RENEW_MARGIN:
            cert = issue_certificate(kp, subjectDN=cert.subjectDN)
            self.save(name, kp, cert)
        return kp, cert
