"""Service/user tables, access checks, the request log, persistence."""

import dataclasses
import hashlib
import json
import threading
import time

import pytest

from mobilehost.errors import (
    CorruptSnapshot,
    DuplicateService,
    DuplicateUser,
    IoFailure,
    NotFound,
    PathConflict,
)
from mobilehost.notes import notes_descriptor
from mobilehost.registry import (
    DEFAULT_LOG_CAPACITY,
    Registry,
    RequestLogEntry,
    ServiceRecord,
    make_user,
    password_proof,
)
from mobilehost.wsdl import generate_wsdl


def notes_record(**kwargs) -> ServiceRecord:
    desc = notes_descriptor()
    return ServiceRecord(
        descriptor=desc,
        wsdl=generate_wsdl(desc, "http://localhost:5000/CadastroEscolar.jws"),
        createdAt=1218649078.0,
        **kwargs,
    )


def entry(service="CadastroEscolar", micros=100, outcome="ok") -> RequestLogEntry:
    return RequestLogEntry(
        timestamp=time.time(),
        serviceName=service,
        methodName="obterNotas",
        durationMicros=micros,
        outcome=outcome,
    )


class TestServices:
    def test_register_then_lookup_by_name_and_path(self):
        reg = Registry()
        rec = notes_record()
        reg.register_service(rec)
        assert reg.lookup_service("CadastroEscolar") is rec
        assert reg.lookup_by_path("/CadastroEscolar.jws") is rec

    def test_duplicate_name(self):
        reg = Registry()
        reg.register_service(notes_record())
        with pytest.raises(DuplicateService):
            reg.register_service(notes_record())

    def test_path_conflict(self):
        import dataclasses

        reg = Registry()
        reg.register_service(notes_record())
        other = notes_record()
        other = dataclasses.replace(
            other, descriptor=dataclasses.replace(other.descriptor, serviceName="Other")
        )
        with pytest.raises(PathConflict):
            reg.register_service(other)

    def test_unknown_path(self):
        with pytest.raises(NotFound):
            Registry().lookup_by_path("/nope")

    def test_remove_then_lookup_fails(self):
        reg = Registry()
        reg.register_service(notes_record())
        reg.remove_service("CadastroEscolar")
        with pytest.raises(NotFound):
            reg.lookup_service("CadastroEscolar")
        with pytest.raises(NotFound):
            reg.lookup_by_path("/CadastroEscolar.jws")

    def test_remove_unknown(self):
        with pytest.raises(NotFound):
            Registry().remove_service("ghost")

    def test_lookup_never_sees_torn_state(self):
        reg = Registry()
        stop = threading.Event()
        failures = []

        def churn():
            while not stop.is_set():
                reg.register_service(notes_record())
                reg.remove_service("CadastroEscolar")

        def observe():
            while not stop.is_set():
                try:
                    rec = reg.lookup_by_path("/CadastroEscolar.jws")
                    if rec.descriptor.serviceName != "CadastroEscolar":
                        failures.append("torn record")
                except NotFound:
                    pass

        threads = [threading.Thread(target=churn), threading.Thread(target=observe)]
        for t in threads:
            t.start()
        time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join()
        assert not failures


class TestUsers:
    def test_allow_with_right_password_and_service(self):
        reg = Registry()
        reg.add_user(make_user("aluno1", "pw", "dev1", {"CadastroEscolar"}))
        assert reg.check_access_proof("aluno1", password_proof("pw"), "CadastroEscolar") is True

    def test_wrong_password_denied(self):
        reg = Registry()
        reg.add_user(make_user("aluno1", "pw", "dev1", {"CadastroEscolar"}))
        assert reg.check_access_proof(
            "aluno1", password_proof("wrong"), "CadastroEscolar") is False

    def test_service_not_allowed_denied(self):
        reg = Registry()
        reg.add_user(make_user("aluno1", "pw", "dev1", {"CadastroEscolar"}))
        assert reg.check_access_proof("aluno1", password_proof("pw"), "OtherService") is False

    def test_wildcard_allows_everything(self):
        reg = Registry()
        reg.add_user(make_user("admin", "pw", "dev", {"*"}))
        assert reg.check_access_proof("admin", password_proof("pw"), "Whatever") is True

    def test_unknown_login_denied(self):
        assert Registry().check_access_proof("ghost", password_proof("pw"), "Svc") is False

    def test_duplicate_login(self):
        reg = Registry()
        reg.add_user(make_user("a", "pw", "d", {"*"}))
        with pytest.raises(DuplicateUser):
            reg.add_user(make_user("a", "pw2", "d", {"*"}))

    def test_proof_path_matches_password_path(self):
        reg = Registry()
        reg.add_user(make_user("a", "pw", "d", {"*"}))
        assert reg.check_access_proof("a", password_proof("pw"), "Svc") is True
        assert reg.check_access_proof("a", password_proof("nope"), "Svc") is False

    def test_garbage_proof_denied(self):
        reg = Registry()
        reg.add_user(make_user("a", "pw", "d", {"*"}))
        assert reg.check_access_proof("a", "not-hex!", "Svc") is False


class TestRequestLog:
    def test_mean_of_three(self):
        reg = Registry()
        for micros in (100, 200, 300):
            reg.append_log(entry(micros=micros))
        summary = reg.metrics_summary()["CadastroEscolar"]
        assert summary["count"] == 3
        assert summary["meanDurationMicros"] == 200

    def test_empty_log_empty_summary(self):
        assert Registry().metrics_summary() == {}

    def test_ring_evicts_oldest(self):
        reg = Registry()
        for micros in range(DEFAULT_LOG_CAPACITY + 1):
            reg.append_log(entry(micros=micros))
        kept = [e.durationMicros for e in reg.log_entries()]
        assert kept == list(range(1, DEFAULT_LOG_CAPACITY + 1))

    def test_fault_rate(self):
        reg = Registry()
        reg.append_log(entry(outcome="ok"))
        reg.append_log(entry(outcome="clientFault"))
        reg.append_log(entry(outcome="serverFault"))
        reg.append_log(entry(outcome="denied"))
        assert reg.metrics_summary()["CadastroEscolar"]["faultRate"] == 0.5

    def test_mean_matches_brute_force(self):
        import random

        rng = random.Random(4)
        reg = Registry()
        values = [rng.randrange(10_000) for _ in range(257)]
        for micros in values:
            reg.append_log(entry(micros=micros))
        mean = reg.metrics_summary()["CadastroEscolar"]["meanDurationMicros"]
        assert abs(mean - sum(values) / len(values)) <= 1

    def test_bad_outcome_rejected(self):
        with pytest.raises(ValueError):
            entry(outcome="exploded")


class TestPersistence:
    def fill(self, reg: Registry) -> None:
        import dataclasses

        reg.register_service(notes_record())
        for n in ("Alpha", "Beta"):
            rec = notes_record()
            desc = dataclasses.replace(
                rec.descriptor, serviceName=n, endpointPath=f"/{n}.jws"
            )
            reg.register_service(
                dataclasses.replace(
                    rec, descriptor=desc, wsdl=generate_wsdl(desc, f"http://h/{n}.jws")
                )
            )
        reg.add_user(make_user("aluno1", "hunter2-sentinel", "dev1", {"CadastroEscolar"}))
        reg.add_user(make_user("admin", "pw2", "dev2", {"*"}))

    def assert_equal_state(self, a: Registry, b: Registry) -> None:
        names = sorted(r.descriptor.serviceName for r in a.list_services())
        assert names == sorted(r.descriptor.serviceName for r in b.list_services())
        for name in names:
            ra, rb = a.lookup_service(name), b.lookup_service(name)
            assert ra.descriptor == rb.descriptor
            assert ra.wsdl.xmlText == rb.wsdl.xmlText
            assert ra.createdAt == rb.createdAt
        logins_a = {u.login: u for u in a.list_users()}
        logins_b = {u.login: u for u in b.list_users()}
        assert logins_a == logins_b

    def test_round_trip(self, tmp_path):
        reg = Registry.load_snapshot(tmp_path)
        self.fill(reg)
        loaded = Registry.load_snapshot(tmp_path)
        self.assert_equal_state(reg, loaded)

    def test_empty_dir_gives_empty_registry(self, tmp_path):
        loaded = Registry.load_snapshot(tmp_path)
        assert loaded.list_services() == []
        assert loaded.list_users() == []

    def test_truncated_table_is_corrupt(self, tmp_path):
        reg = Registry.load_snapshot(tmp_path)
        self.fill(reg)
        state = tmp_path / "state.db"
        blob = state.read_bytes()
        for cut in (40, len(blob) // 2, len(blob) - 1):
            state.write_bytes(blob[:cut])
            with pytest.raises(CorruptSnapshot):
                Registry.load_snapshot(tmp_path)

    def test_missing_or_wrong_digest_line_is_corrupt(self, tmp_path):
        reg = Registry.load_snapshot(tmp_path)
        self.fill(reg)
        state = tmp_path / "state.db"
        digest, _, body = state.read_bytes().partition(b"\n")
        wrong = hashlib.sha256(body + b" ").hexdigest().encode()
        for blob in (body, b"\n" + body, wrong + b"\n" + body):
            state.write_bytes(blob)
            with pytest.raises(CorruptSnapshot):
                Registry.load_snapshot(tmp_path)

    def test_digest_covers_the_tables(self, tmp_path):
        reg = Registry.load_snapshot(tmp_path)
        self.fill(reg)
        digest, _, body = (tmp_path / "state.db").read_bytes().partition(b"\n")
        assert digest == hashlib.sha256(body).hexdigest().encode()
        tables = json.loads(body)
        assert sorted(tables) == ["services", "users"]
        assert [s["descriptor"]["serviceName"] for s in tables["services"]] == [
            "Alpha", "Beta", "CadastroEscolar"]

    def test_unreadable_field_is_corrupt(self, tmp_path):
        reg = Registry.load_snapshot(tmp_path)
        self.fill(reg)
        state = tmp_path / "state.db"
        tables = json.loads(state.read_bytes().partition(b"\n")[2])
        tables["users"][0]["salt"] = "not hex"
        body = json.dumps(tables).encode()
        state.write_bytes(hashlib.sha256(body).hexdigest().encode() + b"\n" + body)
        with pytest.raises(CorruptSnapshot):
            Registry.load_snapshot(tmp_path)

    def test_stored_key_set_id_is_ignored(self, tmp_path):
        # earlier builds stored a keySetId beside each service: the key
        # store's name for its keys, always the service name or null
        reg = Registry.load_snapshot(tmp_path)
        self.fill(reg)
        state = tmp_path / "state.db"
        tables = json.loads(state.read_bytes().partition(b"\n")[2])
        assert all(sorted(s) == ["createdAt", "descriptor", "wsdl"] for s in tables["services"])
        for s in tables["services"]:
            s["keySetId"] = s["descriptor"]["serviceName"]
        body = json.dumps(tables).encode()
        state.write_bytes(hashlib.sha256(body).hexdigest().encode() + b"\n" + body)
        self.assert_equal_state(reg, Registry.load_snapshot(tmp_path))

    def test_no_plaintext_password_in_snapshot(self, tmp_path):
        reg = Registry.load_snapshot(tmp_path)
        self.fill(reg)
        files = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert [p.name for p in files] == ["state.db"]
        for path in files:
            assert b"hunter2-sentinel" not in path.read_bytes()

    def test_access_still_works_after_reload(self, tmp_path):
        reg = Registry.load_snapshot(tmp_path)
        self.fill(reg)
        loaded = Registry.load_snapshot(tmp_path)
        assert loaded.check_access_proof(
            "aluno1", password_proof("hunter2-sentinel"), "CadastroEscolar")
        assert not loaded.check_access_proof("aluno1", password_proof("wrong"), "CadastroEscolar")


class TestBoundRegistry:
    """A registry loaded from a data dir saves every change there."""

    fill = TestPersistence.fill
    assert_equal_state = TestPersistence.assert_equal_state

    def test_each_change_is_saved_before_it_returns(self, tmp_path):
        reg = Registry.load_snapshot(tmp_path)
        self.fill(reg)
        self.assert_equal_state(reg, Registry.load_snapshot(tmp_path))
        reg.remove_service("Alpha")
        self.assert_equal_state(reg, Registry.load_snapshot(tmp_path))
        reg.add_user(make_user("late", "pw", "dev", {"Beta"}))
        loaded = Registry.load_snapshot(tmp_path)
        self.assert_equal_state(reg, loaded)
        assert loaded.check_access_proof("late", password_proof("pw"), "Beta")

    def test_in_memory_registry_writes_nothing(self, tmp_path):
        reg = Registry()
        self.fill(reg)
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_leaves_registry_unchanged(self, tmp_path, monkeypatch):
        reg = Registry.load_snapshot(tmp_path)
        self.fill(reg)
        saved = (tmp_path / "state.db").read_bytes()
        before = Registry()
        self.fill(before)

        def refuse(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("os.replace", refuse)
        rec = notes_record()
        desc = dataclasses.replace(rec.descriptor, serviceName="Gamma",
                                   endpointPath="/Gamma.jws")
        with pytest.raises(IoFailure):
            reg.register_service(dataclasses.replace(rec, descriptor=desc))
        with pytest.raises(IoFailure):
            reg.remove_service("Alpha")
        with pytest.raises(IoFailure):
            reg.add_user(make_user("late", "pw", "dev", {"*"}))
        monkeypatch.undo()

        assert sorted(r.descriptor.serviceName for r in reg.list_services()) == [
            "Alpha", "Beta", "CadastroEscolar"]
        assert reg.lookup_by_path("/Alpha.jws").descriptor.serviceName == "Alpha"
        with pytest.raises(NotFound):
            reg.lookup_by_path("/Gamma.jws")
        assert reg.get_user("late") is None
        assert (tmp_path / "state.db").read_bytes() == saved
        # and the registry still takes the changes once writes work again
        reg.remove_service("Alpha")
        assert "Alpha" not in {r.descriptor.serviceName
                               for r in Registry.load_snapshot(tmp_path).list_services()}

    @pytest.mark.parametrize("present, named", [
        (("services.db",), "services.db"),
        (("users.db",), "users.db"),
        (("checksums",), "checksums"),
        (("services.db", "users.db", "checksums"), "services.db"),
    ], ids=["services.db", "users.db", "checksums", "all three"])
    def test_old_layout_is_refused_and_kept(self, tmp_path, present, named):
        # the layout before state.db: two JSON tables and a checksums file
        reg = Registry.load_snapshot(tmp_path)
        self.fill(reg)
        tables = json.loads((tmp_path / "state.db").read_bytes().partition(b"\n")[2])
        (tmp_path / "state.db").unlink()
        old = {"services.db": json.dumps({"services": tables["services"]}),
               "users.db": json.dumps({"users": tables["users"]}),
               "checksums": "0" * 64 + "  services.db\n"}
        for name in present:
            (tmp_path / name).write_text(old[name])
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(CorruptSnapshot, match=named):
            Registry.load_snapshot(tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
