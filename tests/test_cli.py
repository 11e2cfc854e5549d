"""Command-line surface: serve, invoke, describe, keygen, cert show,
users add, and the documented exit codes."""

import contextlib
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from mobilehost.cli import main
from mobilehost.manifest import load_manifest
from mobilehost.notes import DEFAULT_SEED, load_seed_file, render_notes

from conftest import free_port

NOTES_RESULT = (
    "#A001;D002;LACKS;;0#A001;D002;FINAL TEST;;0#A001;D002;REPLACEMENT;;0"
    "#A001;D002;NOTE 3;;98#A001;D002;NOTE 2;;95#A001;D002;NOTE 1;;100#"
)


def wait_for_port(port: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=0.2):
                return
        except OSError:
            time.sleep(0.02)
    raise TimeoutError(f"port {port} never came up")


@contextlib.contextmanager
def serve(tmp_path, *extra_args, port=None):
    port = port or free_port()
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "mobilehost", "serve",
            "--bind", f"http://127.0.0.1:{port}",
            "--data-dir", str(tmp_path / "data"),
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        wait_for_port(port)
        yield port
    finally:
        proc.terminate()
        try:
            _, err = proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            pytest.fail("host did not stop within 10 s of SIGTERM and was killed")
    assert proc.returncode == 0, f"host exited with {proc.returncode} on SIGTERM: {err!r}"


class TestInvoke:
    def test_demo_invoke_prints_result(self, tmp_path, capsys):
        with serve(tmp_path, "--demo-notes") as port:
            code = main([
                "invoke", f"http://127.0.0.1:{port}/CadastroEscolar.jws",
                "obterNotas", "A001", "D002",
            ])
        assert code == 0
        assert capsys.readouterr().out.strip() == NOTES_RESULT

    def test_wrong_arity_prints_fault_exit_1(self, tmp_path, capsys):
        with serve(tmp_path, "--demo-notes") as port:
            code = main([
                "invoke", f"http://127.0.0.1:{port}/CadastroEscolar.jws",
                "obterNotas", "A001",
            ])
        assert code == 1
        assert capsys.readouterr().out.startswith("FAULT Client:")

    def test_unknown_method_prints_fault_exit_1(self, tmp_path, capsys):
        with serve(tmp_path, "--demo-notes") as port:
            code = main([
                "invoke", f"http://127.0.0.1:{port}/CadastroEscolar.jws", "frobnicate",
            ])
        assert code == 1
        assert "FAULT Client" in capsys.readouterr().out

    def test_unreachable_host_exit_3(self, capsys):
        code = main([
            "invoke", f"http://127.0.0.1:{free_port()}/X.jws", "m", "--timeout", "1",
        ])
        assert code == 3

    def test_encrypt_without_cert_exit_2(self, capsys):
        code = main(["invoke", "http://127.0.0.1:1/X.jws", "m", "--encrypt"])
        assert code == 2

    def test_describe_prints_wsdl(self, tmp_path, capsys):
        with serve(tmp_path, "--demo-notes") as port:
            code = main(["describe", f"http://127.0.0.1:{port}/CadastroEscolar.jws"])
        assert code == 0
        assert "wsdl:definitions" in capsys.readouterr().out


class TestSecureInvoke:
    def fetch_cert(self, tmp_path, port) -> Path:
        from mobilehost.cli import http_request

        status, body = http_request(f"http://127.0.0.1:{port}/CadastroEscolar.jws?cert")
        assert status == 200
        cert_file = tmp_path / "service.cert"
        cert_file.write_bytes(body)
        return cert_file

    def test_signature_verified_ok(self, tmp_path, capsys):
        with serve(tmp_path, "--demo-notes", "--demo-secure") as port:
            cert_file = self.fetch_cert(tmp_path, port)
            code = main([
                "invoke", f"http://127.0.0.1:{port}/CadastroEscolar.jws",
                "obterNotas", "A001", "D002", "--cert", str(cert_file),
            ])
        captured = capsys.readouterr()
        assert code == 0
        assert "signature: OK" in captured.err
        assert captured.out.strip() == NOTES_RESULT

    def test_encrypted_invoke(self, tmp_path, capsys):
        with serve(tmp_path, "--demo-notes", "--demo-secure") as port:
            cert_file = self.fetch_cert(tmp_path, port)
            code = main([
                "invoke", f"http://127.0.0.1:{port}/CadastroEscolar.jws",
                "obterNotas", "A001", "D002",
                "--cert", str(cert_file), "--encrypt",
            ])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == NOTES_RESULT

    def test_login_with_encryption_is_allowed(self, tmp_path, capsys):
        # Auth travels on the carrier, outside the ciphertext, where the
        # host reads it
        data_dir = tmp_path / "data"
        assert main([
            "users", "add", "aluno1", "--password", "segredo",
            "--services", "CadastroEscolar", "--data-dir", str(data_dir),
        ]) == 0
        capsys.readouterr()
        with serve(tmp_path, "--demo-notes", "--demo-secure", "--auth-required") as port:
            cert_file = self.fetch_cert(tmp_path, port)
            code = main([
                "invoke", f"http://127.0.0.1:{port}/CadastroEscolar.jws",
                "obterNotas", "A001", "D002",
                "--cert", str(cert_file), "--encrypt",
                "--login", "aluno1", "--password", "segredo",
            ])
        captured = capsys.readouterr()
        assert code == 0, captured
        assert captured.out.strip() == NOTES_RESULT
        assert "signature: OK" in captured.err

    def test_signed_invoke(self, tmp_path, capsys):
        keys_dir = tmp_path / "consumer-keys"
        assert main(["keygen", "me", "--keys-dir", str(keys_dir)]) == 0
        capsys.readouterr()
        with serve(tmp_path, "--demo-notes", "--demo-secure") as port:
            code = main([
                "invoke", f"http://127.0.0.1:{port}/CadastroEscolar.jws",
                "obterNotas", "A001", "D002",
                "--sign", "--key", str(keys_dir / "me.key"),
                "--signer-cert", str(keys_dir / "me.cert"),
            ])
        assert code == 0
        assert capsys.readouterr().out.strip() == NOTES_RESULT

    def test_tampered_response_fails_verification(self, tmp_path, capsys):
        with serve(tmp_path, "--demo-notes", "--demo-secure") as port:
            cert_file = self.fetch_cert(tmp_path, port)
            with tamper_proxy(port, b"NOTE 1;;100", b"NOTE 1;;999") as proxy_port:
                code = main([
                    "invoke", f"http://127.0.0.1:{proxy_port}/CadastroEscolar.jws",
                    "obterNotas", "A001", "D002", "--cert", str(cert_file),
                ])
        captured = capsys.readouterr()
        assert code == 1
        assert "signature: FAIL" in captured.err


@contextlib.contextmanager
def tamper_proxy(upstream_port: int, needle: bytes, replacement: bytes):
    """One-connection-at-a-time TCP proxy that rewrites response bytes."""
    assert len(needle) == len(replacement)
    server = socket.create_server(("127.0.0.1", 0))
    server.settimeout(0.1)
    port = server.getsockname()[1]
    stop = threading.Event()

    def pump():
        while not stop.is_set():
            try:
                client, _ = server.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with client, socket.create_connection(("127.0.0.1", upstream_port)) as up:
                client.settimeout(5)
                request = b""
                while b"\r\n\r\n" not in request:
                    request += client.recv(65536)
                head, _, rest = request.partition(b"\r\n\r\n")
                length = 0
                for line in head.split(b"\r\n"):
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                while len(rest) < length:
                    rest += client.recv(65536)
                up.sendall(head + b"\r\n\r\n" + rest)
                response = b""
                while True:
                    chunk = up.recv(65536)
                    if not chunk:
                        break
                    response += chunk
                client.sendall(response.replace(needle, replacement))

    thread = threading.Thread(target=pump, daemon=True)
    thread.start()
    try:
        yield port
    finally:
        stop.set()
        server.close()
        thread.join(timeout=5)


class TestServe:
    def test_busy_port_exits_nonzero(self, tmp_path, port):
        with socket.create_server(("127.0.0.1", port)):
            proc = subprocess.run(
                [
                    sys.executable, "-m", "mobilehost", "serve",
                    "--bind", f"http://127.0.0.1:{port}",
                    "--data-dir", str(tmp_path / "data"),
                ],
                capture_output=True,
                timeout=30,
            )
        assert proc.returncode == 3
        assert b"error" in proc.stderr

    def test_state_survives_restart(self, tmp_path, capsys):
        with serve(tmp_path, "--demo-notes") as port:
            pass
        # same data dir, fresh process
        with serve(tmp_path, "--demo-notes") as port:
            code = main([
                "invoke", f"http://127.0.0.1:{port}/CadastroEscolar.jws",
                "obterNotas", "A001", "D002",
            ])
        assert code == 0
        assert capsys.readouterr().out.strip() == NOTES_RESULT

    def test_sigterm_right_after_start_shuts_down_gracefully(self, tmp_path):
        for run in range(5):
            data = tmp_path / f"data{run}"
            port = free_port()
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "mobilehost", "serve",
                    "--bind", f"http://127.0.0.1:{port}",
                    "--data-dir", str(data),
                    "--demo-notes",
                ],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            try:
                wait_for_port(port)
                proc.terminate()
                code = proc.wait(timeout=5)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            assert code == 0, f"run {run}: exit code {code}"
            assert (data / "state.db").is_file(), f"run {run}: no snapshot written"

    def test_tcp_binding_served(self, tmp_path, fig13_bytes, fig14_bytes):
        from mobilehost.canonical import canonicalize
        from mobilehost.transport import encode_frame, read_frame

        port = free_port()
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "mobilehost", "serve",
                "--bind", f"tcp://127.0.0.1:{port}",
                "--data-dir", str(tmp_path / "data"),
                "--demo-notes",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            wait_for_port(port)
            with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
                s.sendall(encode_frame(fig13_bytes))
                body = read_frame(s.makefile("rb"))
            assert canonicalize(body) == canonicalize(fig14_bytes)
        finally:
            proc.terminate()
            proc.wait(timeout=10)

    def test_manifest_services_served(self, tmp_path, capsys):
        manifest = tmp_path / "services.json"
        manifest.write_text(
            """
            {"services": [{
              "serviceName": "EchoSvc",
              "namespaceUri": "http://127.0.0.1:5000/EchoSvc.jws",
              "endpointPath": "/EchoSvc.jws",
              "responseNamespaceUri": "http://127.0.0.1:5000/EchoSvc.jws",
              "handler": "echo",
              "methods": [{"name": "say",
                           "params": [{"name": "text", "type": "string"}],
                           "returns": "string"}]
            }]}
            """
        )
        with serve(tmp_path, "--services", str(manifest)) as port:
            code = main([
                "invoke", f"http://127.0.0.1:{port}/EchoSvc.jws", "say", "olá",
            ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "olá"


class TestKeyAndUserCommands:
    def test_keygen_then_cert_show(self, tmp_path, capsys):
        keys = tmp_path / "keys"
        assert main(["keygen", "Svc", "--keys-dir", str(keys)]) == 0
        capsys.readouterr()
        assert main(["cert", "show", "Svc", "--keys-dir", str(keys)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("----- Begin Certificate -----")
        assert "SubjectDN: MobileHost/" in out

    def test_keygen_refuses_overwrite(self, tmp_path, capsys):
        keys = tmp_path / "keys"
        assert main(["keygen", "Svc", "--keys-dir", str(keys)]) == 0
        assert main(["keygen", "Svc", "--keys-dir", str(keys)]) == 1
        assert main(["keygen", "Svc", "--keys-dir", str(keys), "--force"]) == 0

    def test_cert_show_missing_exit_3(self, tmp_path, capsys):
        assert main(["cert", "show", "Ghost", "--keys-dir", str(tmp_path)]) == 3

    def test_users_add_then_authenticated_invoke(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert main([
            "users", "add", "aluno1", "--password", "segredo",
            "--services", "CadastroEscolar", "--data-dir", str(data_dir),
        ]) == 0
        capsys.readouterr()
        with serve(tmp_path, "--demo-notes", "--auth-required") as port:
            denied = main([
                "invoke", f"http://127.0.0.1:{port}/CadastroEscolar.jws",
                "obterNotas", "A001", "D002",
            ])
            captured_denied = capsys.readouterr()
            allowed = main([
                "invoke", f"http://127.0.0.1:{port}/CadastroEscolar.jws",
                "obterNotas", "A001", "D002",
                "--login", "aluno1", "--password", "segredo",
            ])
        assert denied == 1
        assert "access denied" in captured_denied.out
        assert allowed == 0
        assert capsys.readouterr().out.strip() == NOTES_RESULT

    def test_duplicate_user_exit_1(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        args = ["users", "add", "a", "--password", "p", "--data-dir", str(data_dir)]
        assert main(args) == 0
        assert main(args) == 1


def run_cli(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "mobilehost", *args],
                          capture_output=True, text=True, timeout=10)


class TestOneWriterPerDataDir:
    def test_users_add_refused_while_serve_runs(self, tmp_path):
        data = tmp_path / "data"
        add = ["users", "add", "late", "--password", "pw", "--data-dir", str(data)]
        with serve(tmp_path, "--demo-notes"):
            state = (data / "state.db").read_bytes()
            busy = run_cli(*add)
            assert busy.returncode == 1
            assert f"data dir {data} is in use by a running host" in busy.stderr
            assert (data / "state.db").read_bytes() == state
        done = run_cli(*add)
        assert done.returncode == 0, done.stderr
        with serve(tmp_path, "--demo-notes", "--auth-required") as port:
            code = main([
                "invoke", f"http://127.0.0.1:{port}/CadastroEscolar.jws",
                "obterNotas", "A001", "D002", "--login", "late", "--password", "pw",
            ])
        assert code == 0

    def test_second_serve_on_same_dir_exits_3(self, tmp_path):
        with serve(tmp_path, "--demo-notes"):
            second = run_cli("serve", "--bind", f"http://127.0.0.1:{free_port()}",
                             "--data-dir", str(tmp_path / "data"))
        assert second.returncode == 3
        assert "is in use by a running host" in second.stderr

    def test_secured_service_with_missing_keys_exits_3(self, tmp_path):
        with serve(tmp_path, "--demo-notes", "--demo-secure"):
            pass
        (tmp_path / "data" / "keys" / "CadastroEscolar.key").unlink()
        proc = run_cli("serve", "--bind", f"http://127.0.0.1:{free_port()}",
                       "--data-dir", str(tmp_path / "data"), "--demo-notes", "--demo-secure")
        assert proc.returncode == 3
        assert "CadastroEscolar.key" in proc.stderr


class TestUsageErrors:
    def test_unknown_command_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_argument_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["invoke"])
        assert exc.value.code == 2

    def test_describe_dead_port_exit_3(self, capsys):
        assert main(["describe", f"http://127.0.0.1:{free_port()}/X.jws",
                     "--timeout", "1"]) == 3


class TestSeedFile:
    def test_seed_file_round_trip(self, tmp_path):
        seed_file = tmp_path / "notes.seed"
        seed_file.write_text(
            "\n".join(
                f"{r.studentCode};{r.disciplineCode};{r.label};{r.value}"
                for r in DEFAULT_SEED
            )
        )
        assert load_seed_file(seed_file) == list(DEFAULT_SEED)

    def test_custom_seed_served(self, tmp_path, capsys):
        seed_file = tmp_path / "notes.seed"
        seed_file.write_text("A;B;NOTE 1;7\n")
        with serve(tmp_path, "--demo-notes", "--notes-seed", str(seed_file)) as port:
            code = main([
                "invoke", f"http://127.0.0.1:{port}/CadastroEscolar.jws",
                "obterNotas", "A", "B",
            ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "#A;B;NOTE 1;;7#"

    def test_single_record_rendering(self):
        from mobilehost.notes import NoteRecord

        assert render_notes([NoteRecord("A", "B", "NOTE 1", 7)]) == "#A;B;NOTE 1;;7#"

    def test_no_records_renders_lone_hash(self):
        assert render_notes([]) == "#"


class TestManifest:
    def test_load_manifest_unknown_handler(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(
            '{"services": [{"serviceName": "S", "namespaceUri": "u",'
            ' "endpointPath": "/s", "handler": "warp-drive",'
            ' "methods": [{"name": "m", "params": [], "returns": "string"}]}]}'
        )
        with pytest.raises(ValueError, match="warp-drive"):
            load_manifest(manifest)

    def test_load_manifest_notes_handler_with_seed(self, tmp_path):
        seed_file = tmp_path / "s.seed"
        seed_file.write_text("A;B;N;1\n")
        manifest = tmp_path / "m.json"
        manifest.write_text(
            '{"services": [{"serviceName": "Notes", "namespaceUri": "u",'
            ' "endpointPath": "/n", "handler": "notes",'
            f' "handlerOptions": {{"seed": "{seed_file}"}},'
            ' "methods": [{"name": "obterNotas", "params":'
            ' [{"name": "codAluno", "type": "string"},'
            ' {"name": "codDisciplina", "type": "string"}], "returns": "string"}]}]}'
        )
        [(descriptor, handler)] = load_manifest(manifest)
        assert descriptor.serviceName == "Notes"
        assert handler.records[0].label == "N"
