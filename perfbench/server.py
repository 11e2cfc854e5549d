"""Start and stop host processes; read their CPU time and peak memory.

Stopping sends SIGINT and waits; a host that has not exited after
STOP_GRACE_S is killed and the kill is counted, so a hang in the host's
signal handling cannot stall a run and is never hidden.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")
STOP_GRACE_S = 5.0


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat", "rb") as f:
        data = f.read()
    fields = data[data.rindex(b")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK  # utime, stime


def machine_ticks() -> tuple:
    """(steal, total) clock ticks of all CPUs, from /proc/stat. Steal is
    time the hypervisor ran something else while this machine's CPUs
    had work."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def peak_rss_kib(pid: int) -> int:
    """VmHWM of a process, in KiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Server:
    """One host process; its output goes to a log file."""

    def __init__(self, argv, env, log_path, stdin=subprocess.DEVNULL):
        self._log = open(log_path, "wb")
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(argv, env=env, stdin=stdin,
                                     stdout=self._log, stderr=subprocess.STDOUT)
        self.forced_kill = False

    @property
    def pid(self) -> int:
        return self.proc.pid

    def alive(self) -> bool:
        return self.proc.poll() is None

    def stop(self) -> None:
        try:
            if self.alive():
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(STOP_GRACE_S)
                except subprocess.TimeoutExpired:
                    self.forced_kill = True
                    self.proc.kill()
                    self.proc.wait()
        finally:
            if self.proc.stdin is not None:
                self.proc.stdin.close()
            self._log.close()
