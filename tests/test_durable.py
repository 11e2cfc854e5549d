"""Every file in the data dir is written by durable.write_file: temp
file, fsync, rename, fsync of the directory. State survives SIGKILL."""

import os
import random
import signal
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from mobilehost.durable import write_file
from mobilehost.errors import IoFailure
from mobilehost.host import Host, HostConfig
from mobilehost.registry import make_user
from mobilehost.security import KeyStore, issue_certificate

from conftest import make_host


class TestWriter:
    def test_replaces_content_and_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "sub" / "f.bin"
        write_file(target, b"one")
        write_file(target, b"two")
        assert target.read_bytes() == b"two"
        assert [p.name for p in target.parent.iterdir()] == ["f.bin"]

    def test_failure_is_io_failure_and_keeps_old_bytes(self, tmp_path, monkeypatch):
        target = tmp_path / "f.bin"
        write_file(target, b"old")

        def refuse(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", refuse)
        with pytest.raises(IoFailure, match="f.bin"):
            write_file(target, b"new")
        assert target.read_bytes() == b"old"


def record_write_steps(monkeypatch) -> list:
    """Patch os.fsync and os.replace to log, in order, ("fsync", inode)
    and ("replace", inode of the source, inode of the target's directory,
    target name)."""
    steps = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        steps.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        steps.append(("replace", os.stat(src).st_ino,
                      os.stat(Path(dst).parent).st_ino, Path(dst).name))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return steps


def test_file_fsync_then_rename_then_directory_fsync(tmp_path, monkeypatch):
    steps = record_write_steps(monkeypatch)
    host = make_host(tmp_path, secure_demo=True)
    host.registry.add_user(make_user("u", "pw", "d", {"*"}))
    renamed = {}
    for i, step in enumerate(steps):
        if step[0] != "replace":
            continue
        _, src_inode, dir_inode, name = step
        assert steps[i - 1] == ("fsync", src_inode), f"{name}: file not fsynced before rename"
        assert steps[i + 1] == ("fsync", dir_inode), f"{name}: directory not fsynced after rename"
        renamed[name] = renamed.get(name, 0) + 1
    assert renamed == {"CadastroEscolar.key": 1, "CadastroEscolar.cert": 1,
                       "CadastroEscolar.wsdl": 1, "state.db": 2}


# The child adds services and users to one data dir in a loop and prints
# an ack line after each call returns; every fourth service is secured,
# so key material is written too.
CRASH_CHILD = r"""
import dataclasses, sys
from pathlib import Path
from mobilehost.host import Host, HostConfig
from mobilehost.notes import NotesHandler, notes_descriptor
from mobilehost.registry import make_user
from mobilehost.security import KeyStore, issue_certificate

run, data = sys.argv[1], Path(sys.argv[2])
host = Host(HostConfig(bindings=(), dataDir=data))
print("ready", flush=True)
i = 0
while True:
    name = f"S{run}x{i}"
    desc = dataclasses.replace(notes_descriptor(i % 4 == 0), serviceName=name,
                               endpointPath=f"/{name}.jws")
    host.create_service(desc, NotesHandler())
    print("+service", name, flush=True)
    host.registry.add_user(make_user(f"u{run}x{i}", "pw", "dev", {name}))
    print("+user", f"u{run}x{i}", flush=True)
    if i:
        host.remove_service(f"S{run}x{i - 1}")
        print("-service", f"S{run}x{i - 1}", flush=True)
    i += 1
"""


def test_sigkill_loses_no_acknowledged_change(tmp_path):
    rng = random.Random(13)
    data = tmp_path / "data"
    present, removed, users = set(), set(), set()
    acked = 0
    for run in range(24):
        proc = subprocess.Popen([sys.executable, "-c", CRASH_CHILD, str(run), str(data)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            assert proc.stdout.readline() == "ready\n", proc.stderr.read()
            try:
                proc.wait(timeout=rng.uniform(0.0, 0.3))
            except subprocess.TimeoutExpired:
                pass
            proc.send_signal(signal.SIGKILL)
            out, err = proc.communicate(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == -signal.SIGKILL, f"run {run}: child died on its own: {err}"
        for line in out.splitlines():
            op, name = line.split()
            acked += 1
            if op == "+service":
                present.add(name)
            elif op == "-service":
                present.discard(name)
                removed.add(name)
            else:
                users.add(name)

        # must load, and keys of every secured service must be on disk
        host = Host(HostConfig(bindings=(), dataDir=data))
        services = {r.descriptor.serviceName for r in host.registry.list_services()}
        logins = {u.login for u in host.registry.list_users()}
        assert present <= services, f"run {run}: lost {present - services}"
        assert not removed & services, f"run {run}: revived {removed & services}"
        assert users <= logins, f"run {run}: lost {users - logins}"
    assert acked >= 24


class TestKeyFile:
    def test_key_is_private_before_its_bytes_land(self, tmp_path, monkeypatch, keypair):
        """Under umask 0 the key file must not exist with a wider mode at
        any point, even between its write and a later chmod."""
        modes = {}  # file name -> mode seen once its bytes were written
        real_fsync, real_chmod = os.fsync, os.chmod

        def fsync(fd):
            name = os.path.basename(os.readlink(f"/proc/self/fd/{fd}"))
            modes.setdefault(name, stat.S_IMODE(os.fstat(fd).st_mode))
            real_fsync(fd)

        def chmod(path, mode, **kwargs):
            modes.setdefault(os.path.basename(path), stat.S_IMODE(os.stat(path).st_mode))
            real_chmod(path, mode, **kwargs)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "chmod", chmod)
        old_umask = os.umask(0)
        try:
            KeyStore(tmp_path / "keys").save("Svc", keypair, issue_certificate(keypair, "Svc/"))
        finally:
            os.umask(old_umask)
        key_modes = {n: m for n, m in modes.items() if n.startswith("Svc.key")}
        assert key_modes, "no write of the key was seen"
        assert set(key_modes.values()) == {0o600}, key_modes
        assert stat.S_IMODE((tmp_path / "keys" / "Svc.key").stat().st_mode) == 0o600

