"""Load process: sends prebuilt requests to a running host and checks replies.

Usage: python3 perfbench/load.py JOB RESULT

JOB is a pickle written by run.py. The load runs in this process only,
so it never shares the host's interpreter. One thread drives up to
CONNECTIONS non-blocking connections through a selector; with a single
thread no reply waits on the client's own interpreter lock, so the
latencies are the host's and the kernel's. Each request opens its own
connection, sends its bytes and reads the reply until the host closes.
Nothing from mobilehost is imported: requests are bytes built
beforehand, and replies are checked after the timed phase with
checks.py.

A closed loop starts a connection's next request as soon as its reply
is in. An open loop starts each request at its scheduled time, or as
soon as a connection is free if it is late; its latency counts from
the scheduled time.
"""

from __future__ import annotations

import errno
import gc
import pickle
import selectors
import socket
import sys
import time

from cryptography.hazmat.primitives import serialization

import checks
from server import cpu_seconds, machine_ticks

CONNECTIONS = 2
TIMEOUT_S = 30.0
ADDRESS = "127.0.0.1"


def exchange(port: int, raw: bytes, timeout: float = TIMEOUT_S) -> bytes:
    """Send one request on a fresh connection; return every byte of the reply."""
    with socket.create_connection((ADDRESS, port), timeout=timeout) as s:
        s.sendall(raw)
        chunks = []
        while True:
            chunk = s.recv(262144)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class _Call:
    """One request in flight on a non-blocking connection."""

    def __init__(self, k: int, due: float, raw: bytes, port: int):
        self.k, self.due, self.raw = k, due, memoryview(raw)
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setblocking(False)
        self.sent = time.perf_counter()
        self.connected = False
        self.chunks = []
        err = self.sock.connect_ex((ADDRESS, port))
        if err not in (0, errno.EINPROGRESS):
            raise OSError(err, errno.errorcode.get(err, "connect failed"))

    def on_ready(self, events: int) -> bool:
        """Advance on a selector event; True once the reply is complete."""
        if not self.connected:
            err = self.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if err:
                raise OSError(err, errno.errorcode.get(err, "connect failed"))
            self.connected = True
        if self.raw:
            if events & selectors.EVENT_WRITE:
                self.raw = self.raw[self.sock.send(self.raw):]
            return False
        if not events & selectors.EVENT_READ:
            return False
        chunk = self.sock.recv(262144)
        if chunk:
            self.chunks.append(chunk)
            return False
        return True


def run_job(job: dict) -> dict:
    """Warm up, run the timed phase, then check every timed reply."""
    requests = job["requests"]
    order = job["order"]
    port = job["port"]
    warmup = job["warmup"]
    for k in range(warmup):
        exchange(port, requests[order[k % len(order)]])

    schedule = job.get("schedule")
    count = len(schedule) if schedule is not None else job.get("count")
    seconds = job.get("seconds")
    window = job.get("window_s")
    pid = job["server_pid"]
    records = []  # (order position, due, sent, done, raw reply or None, error)
    samples = []  # (time, server CPU s, machine (steal, total) ticks) per window boundary
    # select(2) takes a timeout in microseconds; epoll and poll round up
    # to whole milliseconds, which would make the open loop send late
    selector = selectors.SelectSelector()
    in_flight = {}

    def finish(call, error=None):
        selector.unregister(call.sock)
        call.sock.close()
        del in_flight[call.sock]
        raw = None if error else b"".join(call.chunks)
        records.append((call.k, call.due, call.sent, time.perf_counter(), raw, error))

    gc.disable()
    cpu0 = cpu_seconds(pid)
    t0 = time.perf_counter()
    samples.append((t0, cpu0, machine_ticks()))
    n = 0  # requests started
    while True:
        now = time.perf_counter()
        if window and now >= samples[-1][0] + window:
            samples.append((now, cpu_seconds(pid), machine_ticks()))
        wait = None
        while len(in_flight) < CONNECTIONS:
            if schedule is not None:
                if n >= count:
                    break
                due = t0 + schedule[n]
                if due > now:
                    wait = due - now
                    break
            elif (count is not None and n >= count) or (
                seconds is not None and now >= t0 + seconds
            ):
                break
            else:
                due = now
            k = warmup + n
            n += 1
            try:
                call = _Call(k, due, requests[order[k % len(order)]], port)
            except OSError as e:
                records.append((k, due, now, time.perf_counter(), None, f"connect: {e}"))
                continue
            in_flight[call.sock] = call
            selector.register(call.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, call)
        if not in_flight and wait is None:
            break
        if window:
            wait = min(wait if wait is not None else window, samples[-1][0] + window - now)
        for key, events in selector.select(max(wait, 0) if wait is not None else TIMEOUT_S):
            call = key.data
            try:
                if call.on_ready(events):
                    finish(call)
                elif not call.raw:
                    selector.modify(call.sock, selectors.EVENT_READ, call)
            except OSError as e:
                finish(call, f"{type(e).__name__}: {e}")
        now = time.perf_counter()
        for call in [c for c in in_flight.values() if now - c.sent > TIMEOUT_S]:
            finish(call, "timeout")
    t1 = time.perf_counter()
    cpu1 = cpu_seconds(pid)
    if window and t1 - samples[-1][0] >= window / 2:
        samples.append((t1, cpu1, machine_ticks()))
    gc.enable()
    selector.close()

    verify_key = None
    if job.get("verify_key_pem"):
        verify_key = serialization.load_pem_public_key(job["verify_key_pem"])
    expects = job["expects"]
    out = []
    for k, due, sent, done, raw, error in sorted(records):
        idx = order[k % len(order)]
        why = error or checks.check_reply(expects[idx], job["transport"], raw, verify_key)
        payload = expects[idx][2] if why is None and expects[idx][0] == "result" else 0
        out.append((idx, due, sent, done, why, payload))
    return {"t0": t0, "t1": t1, "server_cpu_s": cpu1 - cpu0, "samples": samples,
            "records": out}


def main(argv) -> int:
    job_path, result_path = argv
    with open(job_path, "rb") as f:
        job = pickle.load(f)
    result = run_job(job)
    with open(result_path, "wb") as f:
        pickle.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
