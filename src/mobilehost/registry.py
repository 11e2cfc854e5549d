"""Service and user databases plus the bounded request log.

A registry from ``Registry.load_snapshot(dir)`` is bound to ``dir``:
adding or removing a service or user first writes the new tables to
``dir/state.db`` through ``durable.write_file``, then applies them in
memory, so a write that fails changes nothing and a change that
returned survives a crash. Mutations serialize on a write lock of their
own; lookups and the request log take only the table lock, held just
to read or swap a record, so a request never waits on the disk. The
request log stays in memory. ``Registry()`` is in memory only, and
``snapshot(dir)`` writes the same file explicitly.

``state.db``: the first line is the SHA-256 hex digest of the bytes
after it; the rest is ``{"services": [...], "users": [...]}`` as JSON
(``indent=1``, sorted keys). A missing or wrong digest line, a
truncated file or an unreadable field refuses to load
(``CorruptSnapshot``). A data dir saved before ``state.db`` existed is
read once through ``_read_old_layout`` and rewritten as ``state.db``.
"""

from __future__ import annotations

import collections
import hashlib
import hmac
import json
import secrets
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import (
    CorruptSnapshot,
    DuplicateService,
    DuplicateUser,
    IoFailure,
    NotFound,
    PathConflict,
)
from .durable import write_file
from .service import ServiceDescriptor, descriptor_from_dict, descriptor_to_dict
from .wsdl import WsdlDocument

STATE_FILE = "state.db"
DEFAULT_LOG_CAPACITY = 1024

OUTCOMES = ("ok", "clientFault", "serverFault", "denied")


@dataclass(frozen=True)
class ServiceRecord:
    descriptor: ServiceDescriptor
    wsdl: WsdlDocument
    keySetId: Optional[str]
    createdAt: float

    def __post_init__(self) -> None:
        if self.descriptor.securityEnabled != (self.keySetId is not None):
            raise ValueError("keySetId must be present iff securityEnabled")


@dataclass(frozen=True)
class UserRecord:
    login: str
    salt: bytes
    passwordDigest: bytes
    deviceId: str
    allowedServices: frozenset  # service names, or {"*"}

    def __post_init__(self) -> None:
        object.__setattr__(self, "allowedServices", frozenset(self.allowedServices))


@dataclass(frozen=True)
class RequestLogEntry:
    timestamp: float
    serviceName: str
    methodName: str
    durationMicros: int
    outcome: str

    def __post_init__(self) -> None:
        if self.durationMicros < 0:
            raise ValueError("durationMicros must be >= 0")
        if self.outcome not in OUTCOMES:
            raise ValueError(f"outcome must be one of {OUTCOMES}")


def password_proof(password: str) -> str:
    """Salt-less digest of the password; what a consumer sends over the wire."""
    return hashlib.sha256(password.encode("utf-8")).hexdigest()


def _stored_digest(salt: bytes, proof_hex: str) -> bytes:
    return hashlib.sha256(salt + bytes.fromhex(proof_hex)).digest()


def make_user(login: str, password: str, device_id: str, allowed_services) -> UserRecord:
    """Create a record with a fresh 16-byte salt; the plaintext never persists."""
    salt = secrets.token_bytes(16)
    return UserRecord(
        login=login,
        salt=salt,
        passwordDigest=_stored_digest(salt, password_proof(password)),
        deviceId=device_id,
        allowedServices=frozenset(allowed_services),
    )


class Registry:
    def __init__(self, log_capacity: int = DEFAULT_LOG_CAPACITY):
        self._lock = threading.RLock()
        self._write_lock = threading.Lock()
        self._directory: Optional[Path] = None
        self._by_name: dict = {}
        self._by_path: dict = {}
        self._users: dict = {}
        self._log = collections.deque(maxlen=log_capacity)

    # --- services ---------------------------------------------------------

    # Only methods holding _write_lock change the tables, so they read
    # them without _lock and take it just to apply the change.

    def register_service(self, rec: ServiceRecord) -> None:
        name = rec.descriptor.serviceName
        path = rec.descriptor.endpointPath
        with self._write_lock:
            if name in self._by_name:
                raise DuplicateService(f"service already registered: {name}")
            if path in self._by_path:
                raise PathConflict(f"endpoint path already in use: {path}")
            self._save([*self._by_name.values(), rec], self._users.values())
            with self._lock:
                self._by_name[name] = rec
                self._by_path[path] = rec

    def lookup_service(self, name: str) -> ServiceRecord:
        with self._lock:
            try:
                return self._by_name[name]
            except KeyError:
                raise NotFound(f"unknown service: {name}") from None

    def lookup_by_path(self, path: str) -> ServiceRecord:
        with self._lock:
            try:
                return self._by_path[path]
            except KeyError:
                raise NotFound(f"unknown service path: {path}") from None

    def remove_service(self, name: str) -> None:
        with self._write_lock:
            rec = self._by_name.get(name)
            if rec is None:
                raise NotFound(f"unknown service: {name}")
            self._save([r for r in self._by_name.values() if r is not rec],
                       self._users.values())
            with self._lock:
                del self._by_name[name]
                del self._by_path[rec.descriptor.endpointPath]

    def list_services(self) -> list:
        with self._lock:
            return list(self._by_name.values())

    # --- users --------------------------------------------------------------

    def add_user(self, user: UserRecord) -> None:
        with self._write_lock:
            if user.login in self._users:
                raise DuplicateUser(f"user already exists: {user.login}")
            self._save(self._by_name.values(), [*self._users.values(), user])
            with self._lock:
                self._users[user.login] = user

    def get_user(self, login: str) -> Optional[UserRecord]:
        with self._lock:
            return self._users.get(login)

    def list_users(self) -> list:
        with self._lock:
            return list(self._users.values())

    def check_access_proof(self, login: str, proof_hex: str, service_name: str) -> bool:
        user = self.get_user(login)
        if user is None:
            return False
        try:
            derived = _stored_digest(user.salt, proof_hex)
        except ValueError:
            return False
        if not hmac.compare_digest(derived, user.passwordDigest):
            return False
        return "*" in user.allowedServices or service_name in user.allowedServices

    def check_access(self, login: str, password: str, service_name: str) -> bool:
        return self.check_access_proof(login, password_proof(password), service_name)

    # --- request log ----------------------------------------------------------

    def append_log(self, entry: RequestLogEntry) -> None:
        with self._lock:
            self._log.append(entry)

    def log_entries(self) -> list:
        with self._lock:
            return list(self._log)

    def metrics_summary(self) -> dict:
        """Per-service {count, meanDurationMicros, faultRate} over the ring."""
        with self._lock:
            entries = list(self._log)
        summary: dict = {}
        for e in entries:
            s = summary.setdefault(
                e.serviceName, {"count": 0, "_total": 0, "_faults": 0}
            )
            s["count"] += 1
            s["_total"] += e.durationMicros
            if e.outcome in ("clientFault", "serverFault"):
                s["_faults"] += 1
        for s in summary.values():
            s["meanDurationMicros"] = round(s.pop("_total") / s["count"])
            s["faultRate"] = s.pop("_faults") / s["count"]
        return summary

    # --- persistence ------------------------------------------------------------

    def _save(self, services, users) -> None:
        """Write the tables a mutation is about to apply, if bound to a
        data dir. The caller holds the write lock."""
        if self._directory is not None:
            write_file(self._directory / STATE_FILE, _state_bytes(services, users))

    def snapshot(self, directory) -> None:
        """Write the tables to ``directory/state.db``."""
        with self._write_lock:
            write_file(Path(directory) / STATE_FILE,
                       _state_bytes(self._by_name.values(), self._users.values()))

    @classmethod
    def load_snapshot(cls, directory, log_capacity: int = DEFAULT_LOG_CAPACITY) -> "Registry":
        """The registry saved in ``directory``, bound to it: every later
        mutation is written there before it applies. Empty if the
        directory holds no state."""
        directory = Path(directory)
        state = directory / STATE_FILE
        old_files = ()
        try:
            blob = state.read_bytes()
        except FileNotFoundError:
            blob, old_files = _read_old_layout(directory) or (None, ())
        except OSError as e:
            raise IoFailure(f"cannot read {state}: {e}") from None
        reg = cls(log_capacity=log_capacity)
        if blob is not None:
            reg._fill(_decode_state(blob))
        if old_files:
            write_file(state, blob)
            for path in old_files:
                path.unlink(missing_ok=True)
        reg._directory = directory
        return reg

    def _fill(self, tables: dict) -> None:
        try:
            for item in tables["services"]:
                desc = descriptor_from_dict(item["descriptor"])
                rec = ServiceRecord(
                    descriptor=desc,
                    wsdl=WsdlDocument(
                        xmlText=item["wsdl"].encode("utf-8"), descriptor=desc
                    ),
                    keySetId=item["keySetId"],
                    createdAt=item["createdAt"],
                )
                self.register_service(rec)
            for item in tables["users"]:
                self.add_user(
                    UserRecord(
                        login=item["login"],
                        salt=bytes.fromhex(item["salt"]),
                        passwordDigest=bytes.fromhex(item["passwordDigest"]),
                        deviceId=item["deviceId"],
                        allowedServices=frozenset(item["allowedServices"]),
                    )
                )
        except (KeyError, ValueError, TypeError) as e:
            raise CorruptSnapshot(f"snapshot tables are unreadable: {e}") from None


def _state_bytes(services, users) -> bytes:
    return _encode({
        "services": [
            {
                "descriptor": descriptor_to_dict(r.descriptor),
                "wsdl": r.wsdl.xmlText.decode("utf-8"),
                "keySetId": r.keySetId,
                "createdAt": r.createdAt,
            }
            for r in sorted(services, key=lambda r: r.descriptor.serviceName)
        ],
        "users": [
            {
                "login": u.login,
                "salt": u.salt.hex(),
                "passwordDigest": u.passwordDigest.hex(),
                "deviceId": u.deviceId,
                "allowedServices": sorted(u.allowedServices),
            }
            for u in sorted(users, key=lambda u: u.login)
        ],
    })


def _encode(tables: dict) -> bytes:
    body = json.dumps(tables, indent=1, sort_keys=True).encode("utf-8")
    return hashlib.sha256(body).hexdigest().encode("ascii") + b"\n" + body


def _decode_state(blob: bytes) -> dict:
    digest, _, body = blob.partition(b"\n")
    if digest != hashlib.sha256(body).hexdigest().encode("ascii"):
        raise CorruptSnapshot(f"{STATE_FILE}: digest line does not match the tables")
    try:
        return json.loads(body)
    except ValueError as e:
        raise CorruptSnapshot(f"{STATE_FILE}: {e}") from None


def _read_old_layout(directory: Path):
    """(state.db bytes, the files they came from) for a data dir saved
    in the layout before ``state.db``, or None if it has none.

    That layout is two JSON tables, ``services.db`` and ``users.db``,
    plus ``checksums`` with one ``<sha256 hex>  <file name>`` line each.
    """
    tables = (directory / "services.db", directory / "users.db")
    checksums = directory / "checksums"
    if not any(path.exists() for path in tables):
        return None
    try:
        if not checksums.exists():
            raise CorruptSnapshot("snapshot has tables but no checksums file")
        checks = {}
        for line in checksums.read_text(encoding="utf-8").splitlines():
            digest, _, name = line.partition("  ")
            checks[name] = digest
        merged = {}
        for path in tables:
            if not path.exists():
                raise CorruptSnapshot(f"missing snapshot table: {path.name}")
            blob = path.read_bytes()
            if checks.get(path.name) != hashlib.sha256(blob).hexdigest():
                raise CorruptSnapshot(f"checksum mismatch for {path.name}")
            merged.update(json.loads(blob))
    except OSError as e:
        raise IoFailure(f"cannot read snapshot in {directory}: {e}") from None
    except (ValueError, TypeError) as e:
        raise CorruptSnapshot(f"snapshot tables are unreadable: {e}") from None
    return _encode(merged), (*tables, checksums)
