"""Self-tests for the benchmark. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import load  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

RESPONSE = (
    b'<?xml version="1.0" encoding="utf-8" ?>\n'
    b'<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">\n'
    b'<soap:Body>\n<echoResponse xmlns="urn:e">\n'
    b'<echoResult xsi:type="xsd:string" '
    b'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">a&lt;b</echoResult>\n'
    b"</echoResponse>\n</soap:Body>\n</soap:Envelope>"
)


def http_reply(body: bytes, status: int = 200) -> bytes:
    return (f"HTTP/1.1 {status} OK\r\nContent-Type: text/xml\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n").encode() + body


# --- self time ----------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    tree = [
        (1, "root", 0, 100, 0, 1),
        (2, "a", 10, 40, 1, 1),
        (3, "b", 30, 60, 1, 1),  # overlaps a: together they cover 10..60
        (4, "c", 15, 20, 2, 1),
        (5, "d", 90, 120, 1, 1),  # runs past its parent: only 90..100 counts
    ]
    assert spans.self_times(tree) == {1: 40, 2: 25, 3: 30, 4: 5, 5: 30}


def test_layer_metrics_per_request_and_window():
    s = 1_000_000_000
    tree = [
        (1, "transport.conn", s + 0, s + 1000, 0, 1),
        (2, "transport.classify", s + 10, s + 110, 1, 1),
        (3, "host.handle_request", s + 200, s + 900, 1, 1),
        (4, "soap.parse", s + 210, s + 410, 3, 1),
        (5, "host.attach_signature", s + 500, s + 880, 3, 1),
        (6, "security.sign", s + 520, s + 820, 5, 1),
        (7, "transport.conn", s + 2000, s + 2600, 0, 7),
        (8, "host.handle_request", s + 2100, s + 2500, 7, 7),
        # a connection that began before the window is left out
        (9, "transport.conn", 10, 500, 0, 9),
        (10, "host.handle_request", 20, 400, 9, 9),
    ]
    roots = [(1, 40, 900, {"xml_parses": 3, "bytes_in": 100}),
             (7, 60, 500, {"xml_parses": 1, "bytes_in": 50}),
             (9, 0, 400, {"xml_parses": 99})]
    out = spans.layer_metrics(tree, roots, (1.0, 2.0))
    m = out["metrics"]
    assert out["requests"] == 2
    assert out["span_cpu_s"] == pytest.approx(1400e-9)
    assert m["host.handle_request_us"] == pytest.approx((700 + 400) / 2 / 1e3)
    assert m["host.self_us"] == pytest.approx((700 - 200 - 380 + 400) / 2 / 1e3)
    assert m["host.attach_signature_self_us"] == pytest.approx(80 / 2 / 1e3)
    assert m["transport.conn_self_us"] == pytest.approx((1000 - 100 - 700 + 600 - 400) / 2 / 1e3)
    assert m["security.sign_calls_per_req"] == 0.5
    assert m["host.xml_parses_per_req"] == 2
    assert m["transport.bytes_in_per_req"] == 75
    assert m["transport.queue_wait_us"] == pytest.approx(0.05)
    assert m["transport.connections_per_req"] == 1


def test_summarize_takes_the_windows_with_least_steal():
    """Four 1 s windows, the first and third with half the machine
    stolen: the rates and the median latency come from the other two."""
    def rec(done, latency_s):
        return (0, done - latency_s, done - latency_s, done, None, 1024)

    records = [rec(0.5, 0.1)]  # noisy window
    records += [rec(1.1 + 0.2 * i, 0.001) for i in range(4)]  # quiet: 4 replies
    records += [rec(2.5, 0.1)]  # noisy window
    records += [rec(3.2, 0.001), rec(3.6, 0.001)]  # quiet: 2 replies
    samples = [(0.0, 0.0, (0, 0)), (1.0, 0.1, (50, 100)), (2.0, 0.2, (50, 200)),
               (3.0, 0.3, (100, 300)), (4.0, 0.4, (100, 400))]
    result = {"records": records, "samples": samples, "t0": 0.0, "t1": 4.0,
              "server_cpu_s": 0.4}
    s = run.summarize(result)
    assert (s["windows"], s["quiet_windows"]) == (4, 2)
    assert s["throughput_rps"] == pytest.approx(3.0)
    assert s["server_cpu_us_per_req"] == pytest.approx((25_000 + 50_000) / 2)
    assert s["latency_p50_ms"] == pytest.approx(1.0)
    assert s["latency_p99_ms"] == pytest.approx(100.0)


# --- reply checks -------------------------------------------------------------


def test_good_and_corrupted_replies():
    expect = ("result", "a<b", 6)
    assert checks.check_reply(expect, "http", http_reply(RESPONSE)) is None
    wrong = RESPONSE.replace(b"a&lt;b", b"a&lt;c")
    assert "wrong result" in checks.check_reply(expect, "http", http_reply(wrong))
    assert "Content-Length" in checks.check_reply(expect, "http", http_reply(RESPONSE)[:-3])
    assert checks.check_reply(("fault", "Client", 500), "http", http_reply(RESPONSE))


def test_signature_check_rejects_a_changed_body():
    from cryptography.hazmat.primitives.asymmetric import rsa

    key = rsa.generate_private_key(public_exponent=65537, key_size=2048)
    sys.path.insert(0, str(ROOT / "src"))
    from mobilehost.host import attach_signature

    signed = attach_signature(RESPONSE, key)
    expect = ("result", "a<b", 6)
    frame = len(signed).to_bytes(4, "big") + signed
    assert checks.check_reply(expect, "tcp", frame, key.public_key()) is None
    forged = signed.replace(b"a&lt;b", b"a&lt;c")
    frame = len(forged).to_bytes(4, "big") + forged
    assert "signature" in checks.check_reply(("result", "a<c", 6), "tcp", frame,
                                             key.public_key())
    unsigned = len(RESPONSE).to_bytes(4, "big") + RESPONSE
    assert checks.check_reply(expect, "tcp", unsigned, key.public_key()) == "reply is not signed"


def test_corrupted_reply_counts_as_failed_in_a_load_run():
    """A host that garbles one reply in four: the load process marks
    those replies failed, and the run is not correct."""
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    served = [0]

    def serve():
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            with conn:
                conn.recv(65536)
                served[0] += 1
                body = RESPONSE if served[0] % 4 else RESPONSE.replace(b"a&lt;b", b"xx")
                conn.sendall(http_reply(body))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        job = dict(port=port, server_pid=os.getpid(), transport="http",
                   requests=[b"POST / HTTP/1.1\r\nContent-Length: 0\r\n\r\n"],
                   expects=[("result", "a<b", 6)], order=[0], warmup=0, count=40)
        result = load.run_job(job)
    finally:
        listener.close()
    summary = run.summarize(result)
    assert summary["attempted"] == 40
    assert summary["failed"] == 10
    assert all("wrong result" in why for why in summary["failures"])


# --- whole runs -----------------------------------------------------------------


def bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    out = bench(workload, trace)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_exits_nonzero_without_the_program():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        out = bench("plain-http", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


# --- input digest ---------------------------------------------------------------


def test_digest_repeats_with_fresh_keys_and_follows_the_wrapping(monkeypatch, tmp_path):
    """Two builds of one seed get fresh RSA and AES keys but the same
    digest; a change in how the host code wraps a signed request changes it."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    def digest(name):
        return workloads.build("secured-tcp-open", 5, tmp_path / name, 2.0).digest

    first = digest("a")
    assert digest("b") == first
    wrap = workloads.attach_signature
    monkeypatch.setattr(workloads, "attach_signature",
                        lambda *a: wrap(*a).replace(b"<SOAP-ENV:Body", b"\n<SOAP-ENV:Body"))
    assert digest("c") != first


def test_blank_keyed_keeps_everything_but_key_dependent_text():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    signed = (b'<h:Signature xmlns:h="urn:h" algorithm="RSA-SHA256"><h:Value>qRe5+/=='
              b'</h:Value><h:SignerCert>---- cert ----\n12</h:SignerCert></h:Signature>'
              b'<iv xmlns="" xsi:type="xsd:string">KlgX</iv><ivy>kept</ivy>')
    assert workloads._blank_keyed(signed) == (
        b'<h:Signature xmlns:h="urn:h" algorithm="RSA-SHA256"><h:Value>-</h:Value>'
        b'<h:SignerCert>-</h:SignerCert></h:Signature>'
        b'<iv xmlns="" xsi:type="xsd:string">-</iv><ivy>kept</ivy>'
    )
