"""Command-line surface: serve, invoke, describe, keygen, cert show,
users add, and the documented exit codes."""

import contextlib
import pyexpat
import random
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from mobilehost.cli import main
from mobilehost.manifest import load_manifest
from mobilehost.notes import DEFAULT_SEED, NotesHandler, load_seed_file, render_notes
from mobilehost.soap import TypedValue, XsdType
from mobilehost.transport import BindingConfig

from conftest import free_port, make_host

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

    def test_describe_writes_a_reply_that_is_not_utf8_as_received(self, tmp_path,
                                                                 capsysbinary):
        port = free_port()
        host = make_host(tmp_path, BindingConfig(kind="http", port=port))
        host.start()
        try:
            with tamper_proxy(port, b"<wsdl:definitions", b"<\xffsdl:definitions") as proxy:
                code = main(["describe", f"http://127.0.0.1:{proxy}/CadastroEscolar.jws"])
        finally:
            host.shutdown()
        assert code == 0
        assert b"<\xffsdl:definitions" in capsysbinary.readouterr().out


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

    def test_signed_reply_is_parsed_once(self, tmp_path, capsys, monkeypatch):
        # expat parsers made in this process: the host runs in its own
        created = []
        parser_create = pyexpat.ParserCreate

        def counting(*args, **kwargs):
            created.append(args)
            return parser_create(*args, **kwargs)

        with serve(tmp_path, "--demo-notes", "--demo-secure") as port:
            cert_file = self.fetch_cert(tmp_path, port)
            monkeypatch.setattr(pyexpat, "ParserCreate", counting)
            code = main([
                "invoke", f"http://127.0.0.1:{port}/CadastroEscolar.jws",
                "obterNotas", "A001", "D002", "--cert", str(cert_file),
            ])
        assert code == 0
        assert "signature: OK" in capsys.readouterr().err
        assert len(created) == 2  # the WSDL, then the reply


class TestUnreadableReplies:
    """A reply the CLI cannot read is "error: ..." with exit 3."""

    @pytest.mark.parametrize("command", ["describe", "invoke"])
    def test_peer_that_does_not_speak_http_exit_3(self, tmp_path, capsys, command):
        port = free_port()
        host = make_host(tmp_path, BindingConfig(kind="rawTcp", port=port))
        host.start()
        try:
            args = [command, f"http://127.0.0.1:{port}/CadastroEscolar.jws"]
            code = main(args + ["obterNotas", "A001", "D002"] if command == "invoke" else args)
        finally:
            host.shutdown()
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "BadStatusLine" in err

    def test_reply_whose_body_is_a_call_exit_3(self, tmp_path, capsys):
        port = free_port()
        host = make_host(tmp_path, BindingConfig(kind="http", port=port))
        host.start()
        try:
            # with its result element renamed, the response reads as a call
            with tamper_proxy(port, b"obterNotasResult", b"obterNotasXesult") as proxy_port:
                code = main(["invoke", f"http://127.0.0.1:{proxy_port}/CadastroEscolar.jws",
                             "obterNotas", "A001", "D002"])
        finally:
            host.shutdown()
        assert code == 3
        assert capsys.readouterr().err == (
            "error: unreadable response (status 200): its Body is neither a response "
            "nor a fault\n")


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

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/<pid>/task")
    def test_idle_host_does_not_wake(self, tmp_path):
        def switches(pid):
            counts = {}
            for status in Path(f"/proc/{pid}/task").glob("*/status"):
                for line in status.read_text().splitlines():
                    if line.startswith("voluntary_ctxt_switches:"):
                        counts[status.parent.name] = int(line.split()[1])
            return counts

        port = free_port()
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "mobilehost", "serve",
                "--bind", f"http://127.0.0.1:{port}",
                "--data-dir", str(tmp_path / "data"),
                "--demo-notes",
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            wait_for_port(port)
            time.sleep(1.5)  # past the listener watchdog's 1 s idle limit
            before = switches(proc.pid)
            time.sleep(1.0)
            after = switches(proc.pid)
            proc.terminate()
            assert proc.wait(timeout=5) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        woken = {tid: after[tid] - before[tid] for tid in before.keys() & after.keys()}
        assert woken and max(woken.values()) <= 1, woken

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
                with s.makefile("rb") as rfile:
                    body = read_frame(rfile)
            assert canonicalize(body) == canonicalize(fig14_bytes)
        finally:
            proc.terminate()
            proc.communicate(timeout=10)

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
        assert str(tmp_path / "Ghost.cert") in capsys.readouterr().err

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

    def test_old_layout_data_dir_exits_3_and_is_kept(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        (data / "services.db").write_text('{"services": []}')
        proc = run_cli("serve", "--bind", f"http://127.0.0.1:{free_port()}",
                       "--data-dir", str(data), "--demo-notes")
        assert proc.returncode == 3
        assert proc.stderr.startswith(f"error: {data / 'services.db'}: ")
        assert "Traceback" not in proc.stderr
        assert (data / "services.db").read_text() == '{"services": []}'
        assert sorted(p.name for p in data.iterdir()) == ["lock", "services.db"]

    def test_secured_service_with_missing_keys_exits_3(self, tmp_path):
        with serve(tmp_path, "--demo-notes", "--demo-secure"):
            pass
        (tmp_path / "data" / "keys" / "CadastroEscolar.key").unlink()
        proc = run_cli("serve", "--bind", f"http://127.0.0.1:{free_port()}",
                       "--data-dir", str(tmp_path / "data"), "--demo-notes", "--demo-secure")
        assert proc.returncode == 3
        assert "CadastroEscolar.key" in proc.stderr

    @pytest.mark.parametrize("name", ["CadastroEscolar.cert", "CadastroEscolar.key"])
    def test_secured_service_with_corrupt_key_file_exits_3(self, tmp_path, name):
        with serve(tmp_path, "--demo-notes", "--demo-secure"):
            pass
        corrupt = tmp_path / "data" / "keys" / name
        corrupt.write_text("not key material\n")
        proc = run_cli("serve", "--bind", f"http://127.0.0.1:{free_port()}",
                       "--data-dir", str(tmp_path / "data"), "--demo-notes", "--demo-secure")
        assert proc.returncode == 3
        assert proc.stderr.startswith(
            f"error: cannot read key material for CadastroEscolar: {corrupt}: ")
        assert "Traceback" not in proc.stderr


MANIFEST_ENTRY = (
    '{"services": [{"serviceName": "S", "namespaceUri": "u", "endpointPath": "/s",'
    ' "methods": [{"name": "m", "params": [], "returns": "string"}], %s}]}'
)


DEAD_ENDPOINT = f"127.0.0.1:{free_port()}/X.jws"


class TestUsageErrors:
    def test_unknown_command_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_argument_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["invoke"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["invoke", "notaurl", "m"], "no host in URL"),
        (["describe", "notaurl"], "no host in URL"),
        (["invoke", "http://127.0.0.1:notaport/x", "m"], "notaport"),
        (["describe", "http://127.0.0.1:notaport/x"], "notaport"),
        # refused before connecting: the port is dead, so reaching it would exit 3
        (["invoke", f"https://{DEAD_ENDPOINT}", "m"],
         f"unsupported URL scheme 'https' in https://{DEAD_ENDPOINT}?wsdl: only http://"),
        (["describe", f"https://{DEAD_ENDPOINT}"],
         f"unsupported URL scheme 'https' in https://{DEAD_ENDPOINT}?wsdl: only http://"),
        (["invoke", f"tcp://{DEAD_ENDPOINT}", "m"], "unsupported URL scheme 'tcp'"),
        (["describe", f"tcp://{DEAD_ENDPOINT}"], "unsupported URL scheme 'tcp'"),
    ], ids=["invoke no host", "describe no host", "invoke bad port", "describe bad port",
            "invoke https", "describe https", "invoke tcp", "describe tcp"])
    def test_bad_url_exit_2(self, capsys, argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_describe_dead_port_exit_3(self, capsys):
        assert main(["describe", f"http://127.0.0.1:{free_port()}/X.jws",
                     "--timeout", "1"]) == 3

    # bad local input is a usage error, reported before any network traffic:
    # the port is dead, so reaching it would exit 3
    def assert_usage_error(self, proc, message: str = "") -> None:
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and message in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_invoke_cert_that_is_no_certificate_exit_2(self, tmp_path):
        bad = tmp_path / "service.cert"
        bad.write_text("not a certificate\n")
        proc = run_cli("invoke", f"http://127.0.0.1:{free_port()}/X.jws", "m",
                       "--cert", str(bad))
        self.assert_usage_error(proc, "missing certificate banner")

    def test_invoke_cert_of_one_byte_names_the_file_exit_2(self, tmp_path):
        bad = tmp_path / "service.cert"
        bad.write_bytes(b"x")
        proc = run_cli("invoke", f"http://127.0.0.1:{free_port()}/X.jws", "m",
                       "--cert", str(bad))
        self.assert_usage_error(proc)
        assert proc.stderr == f"error: {bad}: missing certificate banner\n"

    @pytest.mark.parametrize("option", ["--cert", "--signer-cert"])
    def test_invoke_certificate_whose_self_signature_fails_exit_2(self, tmp_path, option):
        # the signer certificate would be refused by the host, a round trip later
        assert main(["keygen", "me", "--keys-dir", str(tmp_path)]) == 0
        cert = tmp_path / "me.cert"
        cert.write_text(cert.read_text().replace(
            "SubjectDN: MobileHost/", "SubjectDN: Forged/", 1))
        sign = ["--sign", "--key", str(tmp_path / "me.key")] if option == "--signer-cert" else []
        proc = run_cli("invoke", f"http://127.0.0.1:{free_port()}/X.jws", "m",
                       option, str(cert), *sign)
        self.assert_usage_error(proc)
        assert proc.stderr == f"error: {cert}: certificate self-signature does not verify\n"

    def test_invoke_sign_key_that_is_no_pem_exit_2(self, tmp_path):
        assert main(["keygen", "me", "--keys-dir", str(tmp_path)]) == 0
        bad = tmp_path / "bad.key"
        bad.write_bytes(b"not a key\n")
        proc = run_cli("invoke", f"http://127.0.0.1:{free_port()}/X.jws", "m",
                       "--sign", "--key", str(bad), "--signer-cert", str(tmp_path / "me.cert"))
        self.assert_usage_error(proc)

    def test_invoke_sign_certificate_for_another_key_exit_2(self, tmp_path):
        for name in ("me", "other"):
            assert main(["keygen", name, "--keys-dir", str(tmp_path)]) == 0
        other = tmp_path / "other.cert"
        proc = run_cli("invoke", f"http://127.0.0.1:{free_port()}/X.jws", "m",
                       "--sign", "--key", str(tmp_path / "me.key"), "--signer-cert", str(other))
        self.assert_usage_error(proc, f"{other}: certificate is for another key")

    def test_invoke_sign_signer_cert_that_is_no_certificate_exit_2(self, tmp_path):
        assert main(["keygen", "me", "--keys-dir", str(tmp_path)]) == 0
        bad = tmp_path / "bad.cert"
        bad.write_text("not a certificate\n")
        proc = run_cli("invoke", f"http://127.0.0.1:{free_port()}/X.jws", "m",
                       "--sign", "--key", str(tmp_path / "me.key"), "--signer-cert", str(bad))
        self.assert_usage_error(proc, f"{bad}: missing certificate banner")

    @pytest.mark.parametrize("option, message, manifest_text", [
        (["--bind", "ftp://x:1"], "unknown binding scheme: ftp", ""),
        (["--pool-size", "0"], "workerPoolSize must be >= 1", ""),
        (["--services", "MANIFEST"], "services[0] has no 'methods' field",
         '{"services": [{"serviceName": "S", "namespaceUri": "u", "endpointPath": "/s"}]}'),
        (["--services", "MANIFEST"], "services[0] is malformed", '{"services": [1]}'),
        (["--services", "MANIFEST"], 'is not {"services": [...]}', "[]"),
        (["--services", "MANIFEST"], "services[0]: unknown handler ['echo']",
         MANIFEST_ENTRY % '"handler": ["echo"]'),
        (["--services", "MANIFEST"], "services[0]: handlerOptions is not an object of strings",
         MANIFEST_ENTRY % '"handlerOptions": 5'),
        (["--services", "MANIFEST"], "services[0]: handlerOptions is not an object of strings",
         MANIFEST_ENTRY % '"handler": "notes", "handlerOptions": {"seed": 5}'),
    ], ids=["bind scheme", "pool size", "manifest without methods",
            "manifest entry not an object", "manifest not an object",
            "manifest handler not a string", "manifest handlerOptions not an object",
            "manifest seed not a string"])
    def test_serve_usage_error_exit_2(self, tmp_path, option, message, manifest_text):
        manifest = tmp_path / "m.json"
        manifest.write_text(manifest_text)
        option = [str(manifest) if arg == "MANIFEST" else arg for arg in option]
        proc = run_cli("serve", "--bind", f"http://127.0.0.1:{free_port()}",
                       "--data-dir", str(tmp_path / "data"), *option)
        self.assert_usage_error(proc, message)
        if "--services" in option:
            assert f"manifest {manifest}" in proc.stderr
        assert not (tmp_path / "data").exists()

    def test_invoke_argument_that_does_not_fit_its_type_exit_2(self, tmp_path, capsys):
        manifest = tmp_path / "services.json"
        manifest.write_text(
            """
            {"services": [{
              "serviceName": "IntEcho",
              "namespaceUri": "http://127.0.0.1:5000/IntEcho.jws",
              "endpointPath": "/IntEcho.jws",
              "responseNamespaceUri": "http://127.0.0.1:5000/IntEcho.jws",
              "handler": "echo",
              "methods": [{"name": "twice",
                           "params": [{"name": "n", "type": "int"}],
                           "returns": "int"}]
            }]}
            """
        )
        with serve(tmp_path, "--services", str(manifest)) as port:
            call = ["invoke", f"http://127.0.0.1:{port}/IntEcho.jws", "twice"]
            bad = main(call + ["seven"])
            bad_err = capsys.readouterr().err
            good = main(call + ["7"])
        assert bad == 2
        assert bad_err == "error: invalid xsd:int lexical value: 'seven'\n"
        assert good == 0
        assert capsys.readouterr().out == "7\n"

    def test_keygen_zero_days_exit_2(self, tmp_path):
        proc = run_cli("keygen", "Svc", "--keys-dir", str(tmp_path / "keys"), "--days", "0")
        self.assert_usage_error(proc, "validityDays must be >= 1")
        assert not (tmp_path / "keys").exists()


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

    @pytest.mark.parametrize("value, message", [
        ("x", "invalid literal for int() with base 10: 'x'"),
        ("-1", "note value must be >= 0"),
    ], ids=["not an integer", "negative"])
    def test_bad_value_names_its_line(self, tmp_path, value, message):
        seed_file = tmp_path / "notes.seed"
        seed_file.write_text("# student;discipline;label;value\nA;B;NOTE 1;7\n"
                             f"A;B;NOTE 2;{value}\n")
        with pytest.raises(ValueError) as exc:
            load_seed_file(seed_file)
        assert str(exc.value) == f"{seed_file}:3: {message}"
        manifest = tmp_path / "m.json"
        manifest.write_text(MANIFEST_ENTRY % (
            f'"handler": "notes", "handlerOptions": {{"seed": "{seed_file}"}}'))
        with pytest.raises(ValueError) as exc:
            load_manifest(manifest)
        assert str(exc.value) == f"{seed_file}:3: {message}"

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

    def test_index_matches_linear_scan(self, tmp_path):
        # a seed shaped like the benchmark's: 240 student/discipline
        # pairs, half of them with 1 to 6 records, in shuffled order
        rng = random.Random(7)
        pairs = [(f"A{s:03d}", f"D{d:03d}") for s in range(1, 41) for d in range(1, 7)]
        rng.shuffle(pairs)
        lines = [f"{s};{d};NOTE {k};{rng.randint(0, 100)}"
                 for n, (s, d) in enumerate(pairs[:120]) for k in range(n % 6 + 1)]
        rng.shuffle(lines)
        seed_file = tmp_path / "notes.seed"
        seed_file.write_text("\n".join(lines))
        for seed in (DEFAULT_SEED, load_seed_file(seed_file)):
            handler = NotesHandler(seed)
            for s, d in pairs + [("A001", "D002"), ("Z999", "D001"), ("", "")]:
                args = [TypedValue.of(XsdType.STRING, s), TypedValue.of(XsdType.STRING, d)]
                scan = [r for r in seed if (r.studentCode, r.disciplineCode) == (s, d)]
                assert handler.executeMethod("obterNotas", args).value == render_notes(scan)


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
