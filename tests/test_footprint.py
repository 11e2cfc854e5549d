"""What a host process loads: a host with only open services answers a
call and a WSDL fetch without importing ``cryptography`` or the HTTP
client (``http.client`` with ``ssl`` and ``email``), which together hold
about 8.6 MiB of its memory."""

import json
import subprocess
import sys
import textwrap

from conftest import DATA_DIR, free_port

HEAVY = ("cryptography", "http.client", "ssl", "email")

# the steps of `serve --demo-notes`, in a fresh interpreter, then one
# obterNotas call and one ?wsdl fetch over a plain socket
CHILD = textwrap.dedent("""
    import json, socket, sys

    from mobilehost import cli
    from mobilehost.host import Host

    port, data_dir, request_file, *extra = sys.argv[1:]
    args = cli._build_parser().parse_args([
        "serve", "--bind", f"http://127.0.0.1:{port}", "--data-dir", data_dir,
        "--demo-notes", *extra])
    cfg, services = cli.serve_plan(args)
    host = Host(cfg)
    for descriptor, handler in services:
        host.create_service(descriptor, handler)
    host.start()

    def exchange(head, body=b""):
        with socket.create_connection(("127.0.0.1", int(port)), timeout=10) as s:
            s.sendall(head + b"Connection: close\\r\\n\\r\\n" + body)
            reply = b""
            while chunk := s.recv(65536):
                reply += chunk
        return reply

    try:
        body = open(request_file, "rb").read()
        replies = [
            exchange(b"POST /CadastroEscolar.jws HTTP/1.1\\r\\nHost: h\\r\\n"
                     b"Content-Type: text/xml; charset=utf-8\\r\\nSOAPAction: \\"\\"\\r\\n"
                     b"Content-Length: %d\\r\\n" % len(body), body),
            exchange(b"GET /CadastroEscolar.jws?wsdl HTTP/1.1\\r\\nHost: h\\r\\n"),
        ]
    finally:
        host.shutdown()
    print(json.dumps({
        "status": [r.split(b"\\r\\n", 1)[0].decode() for r in replies],
        "answered": [b"#A001;D002;LACKS;;0#" in replies[0], b"definitions" in replies[1]],
        "modules": sorted(m for m in sys.modules
                          if any(m == h or m.startswith(h + ".") for h in HEAVY)),
    }))
""")


def run_host(tmp_path, *extra) -> dict:
    script = f"HEAVY = {HEAVY!r}\n{CHILD}"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(free_port()), str(tmp_path / "data"),
         str(DATA_DIR / "fig13_request.xml"), *extra],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_open_host_loads_no_crypto_or_http_client(tmp_path):
    result = run_host(tmp_path)
    assert result["status"] == ["HTTP/1.1 200 OK"] * 2
    assert result["answered"] == [True, True]
    assert result["modules"] == []


def test_secured_host_loads_cryptography(tmp_path):
    # the guard above can fail: a host with a secured service loads its keys
    result = run_host(tmp_path, "--demo-secure")
    assert result["status"] == ["HTTP/1.1 200 OK"] * 2
    assert "cryptography" in result["modules"]
