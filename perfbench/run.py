"""The mobilehost benchmark: one command, every workload and metric.

Run from the root of a checkout:

    python3 perfbench/run.py --workload plain-http --seed 1 --seconds 30 --trace 0

Workloads: plain-http, secured-tcp-open, bulk-echo-http (see
workloads.py and README.md). The host runs as its own `mobilehost serve`
process; one load process (load.py, one thread, two connections)
drives it with requests built before timing and checks every reply.

--trace 0 measures the end-to-end metrics. Set-up time is the median
of SETUP_RUNS host starts, each from launch to the first correct reply;
half of the starts come before the timed phase and half after it, so
they sample the machine at both ends of the run.

--trace 1 gives the per-layer metrics. It sends one fixed set of
requests twice: to a plain host, then to one started through
traced_serve.py, which records spans. Comparing the two gives the
tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A wrong reply makes the run
incorrect and the exit code 1; a checkout without src/mobilehost exits
with 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cryptography
from cryptography.hazmat.primitives import serialization

import checks
import spans
from load import exchange
from server import Server, free_port, peak_rss_kib

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 16
WINDOWS = 20  # timed-phase windows; see summarize()
READY_TIMEOUT_S = 60.0
LOAD_TIMEOUT_S = 150.0
DUMP_TIMEOUT_S = 60.0

# the metrics of the JSON result; latency_p99_ms is printed but not bounded
END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "goodput_mib_s": "MiB/s",
    "server_cpu_us_per_req": "us",
    "server_rss_mb": "MiB",
    "setup_s": "s",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, 0 < q <= 100."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


class Bench:
    """Host processes of one run, started from copies of the prepared data dir."""

    def __init__(self, plan, work: Path, src: Path):
        self.plan = plan
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.servers = []
        self.verify_key = None
        if plan.verify_key_pem:
            self.verify_key = serialization.load_pem_public_key(plan.verify_key_pem)

    def start(self, traced: bool = False):
        n = len(self.servers) + 1
        data = self.work / f"data-{n}"
        shutil.copytree(self.plan.data_dir, data)
        port = free_port()
        scheme = "http" if self.plan.transport == "http" else "tcp"
        program = [str(HERE / "traced_serve.py")] if traced else ["-m", "mobilehost"]
        argv = [sys.executable, *program, "serve",
                "--bind", f"{scheme}://127.0.0.1:{port}",
                "--data-dir", str(data), *self.plan.serve_options]
        stdin = subprocess.PIPE if traced else subprocess.DEVNULL
        server = Server(argv, self.env, self.work / f"host-{n}.log", stdin=stdin)
        self.servers.append(server)
        return server, port

    def wait_ready(self, server, port) -> float:
        """Poll with the probe request until a correct reply; return its time."""
        plan = self.plan
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while True:
            try:
                reply = exchange(port, plan.requests[plan.probe], timeout=10)
            except ConnectionRefusedError:
                if not server.alive():
                    raise RuntimeError(f"host exited with {server.proc.returncode} "
                                       f"before answering") from None
                if time.perf_counter() > deadline:
                    raise RuntimeError("host did not answer in time") from None
                time.sleep(0.001)
                continue
            why = checks.check_reply(plan.expects[plan.probe], plan.transport,
                                     reply, self.verify_key)
            if why is not None:
                raise RuntimeError(f"first reply is wrong: {why}")
            return time.perf_counter()

    def setup_times(self, n: int) -> list:
        times = []
        for _ in range(n):
            server, port = self.start()
            times.append(self.wait_ready(server, port) - server.launched)
            server.stop()
        return times

    def load(self, server, port, **phase) -> dict:
        """Run load.py against a ready host; ``phase`` sets seconds, count or schedule."""
        plan = self.plan
        n = len(self.servers)
        job = dict(port=port, server_pid=server.pid, transport=plan.transport,
                   requests=plan.requests, expects=plan.expects, order=plan.order,
                   warmup=plan.warmup, verify_key_pem=plan.verify_key_pem, **phase)
        job_path, out_path = self.work / f"job-{n}.pkl", self.work / f"result-{n}.pkl"
        with open(job_path, "wb") as f:
            pickle.dump(job, f)
        subprocess.run([sys.executable, str(HERE / "load.py"), str(job_path), str(out_path)],
                       check=True, timeout=LOAD_TIMEOUT_S)
        with open(out_path, "rb") as f:
            return pickle.load(f)

    def stop_all(self) -> int:
        """Stop every host still running; return how many had to be killed."""
        for server in self.servers:
            server.stop()
        return sum(s.forced_kill for s in self.servers)


def rates(done, seconds: float, cpu_s: float) -> tuple:
    """(correct replies/s, payload MiB/s, server CPU us per reply) of ``done``."""
    ok = sum(r[4] is None for r in done)
    return (ok / seconds, sum(r[5] for r in done) / seconds / 2**20,
            cpu_s / len(done) * 1e6)


def summarize(result: dict) -> dict:
    """Metrics of one load phase.

    The timed phase is cut into windows at the load process's samples.
    The windows are ranked by the machine's steal time in them, and the
    quieter half gives the bounded metrics: throughput, goodput and
    server CPU are medians over those windows, and the median latency
    is taken over the requests completed in them. Steal is time the
    hypervisor gave this machine's CPUs to another guest; it comes in
    bursts of seconds that slow every process, so it is noise of the
    machine, not a cost of the program. The 99th percentile and the
    send lag stay over the whole phase.
    """
    records = result["records"]
    latencies = [(done - due) * 1e3 for _, due, _, done, _, _ in records]
    lags = [(sent - due) * 1e3 for _, due, sent, _, _, _ in records]
    failures = [why for *_, why, _ in records if why is not None]
    samples = result["samples"]
    windows = []  # (steal share, records completed, seconds, server CPU s)
    for (a, cpu_a, (st_a, tot_a)), (b, cpu_b, (st_b, tot_b)) in zip(samples, samples[1:]):
        done = [r for r in records if a <= r[3] < b]
        if done:
            windows.append(((st_b - st_a) / max(1, tot_b - tot_a), done, b - a, cpu_b - cpu_a))
    if len(windows) < 3:  # a phase bounded by count: one window
        windows = [(0.0, records, result["t1"] - result["t0"], result["server_cpu_s"])]
    windows.sort(key=lambda w: w[0])
    quiet = windows[: (len(windows) + 1) // 2]
    per_window = [rates(done, secs, cpu) for _, done, secs, cpu in quiet]
    quiet_latencies = [(r[3] - r[1]) * 1e3 for w in quiet for r in w[1]]
    return {
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures,
        "windows": len(windows),
        "quiet_windows": len(quiet),
        "steal_share": (statistics.mean(w[0] for w in windows),
                        statistics.mean(w[0] for w in quiet)),
        "throughput_rps": statistics.median(w[0] for w in per_window),
        "latencies": latencies,
        "latency_p50_ms": percentile(quiet_latencies, 50),
        "latency_p99_ms": percentile(latencies, 99),
        "goodput_mib_s": statistics.median(w[1] for w in per_window),
        "server_cpu_us_per_req": statistics.median(w[2] for w in per_window),
        "sched_lag_p99_ms": percentile(lags, 99),
    }


def end_to_end(bench: Bench, seconds: float) -> tuple:
    setups = bench.setup_times(SETUP_RUNS // 2)
    server, port = bench.start()
    bench.wait_ready(server, port)
    if bench.plan.schedule is not None:
        result = bench.load(server, port, schedule=bench.plan.schedule,
                            window_s=seconds / WINDOWS)
    else:
        result = bench.load(server, port, seconds=seconds, window_s=seconds / WINDOWS)
    rss_kib = peak_rss_kib(server.pid)
    server.stop()
    setups += bench.setup_times(SETUP_RUNS - SETUP_RUNS // 2)
    s = summarize(result)
    metrics = {name: s.get(name) for name in END_TO_END_UNITS}
    metrics["server_rss_mb"] = rss_kib / 1024
    metrics["setup_s"] = statistics.median(setups)

    def line(name, value, unit, note=""):
        return f"{name} = {value:.6g}" + (f" {unit}" if unit else "") + (
            f"  ({note})" if note else "")

    n = len(s["latencies"])
    tail_q = 100 * (n - 10) / n if n > 10 else 0
    quiet = (f"the {s['quiet_windows']} of {s['windows']} windows with least machine "
             f"steal; steal {s['steal_share'][1]:.3f} in them, {s['steal_share'][0]:.3f} "
             f"over all")
    lines = [
        line("throughput_rps", metrics["throughput_rps"], "1/s", f"median over {quiet}"),
        line("latency_p50_ms", metrics["latency_p50_ms"], "ms",
             f"over the requests completed in those windows; n={n} in all windows"),
        line("latency_p99_ms", s["latency_p99_ms"], "ms",
             f"reported, not bounded; n={n}, {n - math.ceil(0.99 * n)} beyond; highest "
             f"percentile with >=10 beyond: p{tail_q:.3f} = "
             f"{percentile(s['latencies'], tail_q):.6g} ms"),
        line("error_rate", s["failed"] / s["attempted"], "",
             f"{s['failed']} failed of {s['attempted']}"),
        line("goodput_mib_s", metrics["goodput_mib_s"], "MiB/s"),
        line("server_cpu_us_per_req", metrics["server_cpu_us_per_req"], "us"),
        line("server_rss_mb", metrics["server_rss_mb"], "MiB"),
        line("setup_s", metrics["setup_s"], "s",
             "each: " + ", ".join(f"{t:.4f}" for t in setups)),
        line("sched_lag_p99_ms", s["sched_lag_p99_ms"], "ms",
             "" if bench.plan.schedule is not None else "closed loop"),
    ]
    return metrics, dict(END_TO_END_UNITS), s, lines


def per_layer(bench: Bench, seconds: float) -> tuple:
    plan = bench.plan
    if plan.schedule is not None:
        phase = {"schedule": plan.schedule}
    else:
        phase = {"count": round(plan.trace_requests_per_s * seconds)}

    server, port = bench.start()
    bench.wait_ready(server, port)
    plain = summarize(bench.load(server, port, **phase))
    server.stop()

    server, port = bench.start(traced=True)
    bench.wait_ready(server, port)
    result = bench.load(server, port, **phase)
    traced = summarize(result)
    dump = bench.work / "spans.json"
    server.proc.stdin.write(f"dump {dump}\n".encode())
    server.proc.stdin.flush()
    deadline = time.perf_counter() + DUMP_TIMEOUT_S
    while not dump.exists():
        if time.perf_counter() > deadline or not server.alive():
            raise RuntimeError("traced host did not write its spans")
        time.sleep(0.05)
    server.stop()
    with open(dump) as f:
        recorded = json.load(f)
    layer = spans.layer_metrics(recorded["spans"], recorded["roots"],
                                (result["t0"], result["t1"]))
    metrics = layer["metrics"]
    metrics["trace.cpu_cover_share"] = layer["span_cpu_s"] / result["server_cpu_s"]
    metrics["trace.overhead_share"] = (
        traced["server_cpu_us_per_req"] / plain["server_cpu_us_per_req"] - 1
    )
    metrics["loadgen.sched_lag_p99_ms"] = plain["sched_lag_p99_ms"]
    units = {name: _layer_unit(name) for name in metrics}

    combined = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "failures": plain["failures"] + traced["failures"],
    }
    lines = [f"{name} = {metrics[name]:.6g} {units[name]}" for name in sorted(metrics)]
    lines.append(f"requests: {traced['attempted']} sent, {layer['requests']} dispatched "
                 f"inside the traced window")
    lines.append(f"server_cpu_us_per_req: plain {plain['server_cpu_us_per_req']:.6g} us, "
                 f"traced {traced['server_cpu_us_per_req']:.6g} us")
    return metrics, units, combined, lines


def _layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.startswith("transport.bytes"):
        return "B"
    if name.endswith("_share"):
        return "share"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "mobilehost" / "__init__.py").is_file():
        print(f"error: {root} has no src/mobilehost; run from a mobilehost checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads  # imports mobilehost from src

    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    # a traced run splits its time between the plain and the traced host
    phase_seconds = args.seconds / 2 if args.trace else args.seconds
    bench = None
    try:
        plan = workloads.build(args.workload, args.seed, work, phase_seconds)
        bench = Bench(plan, work, src)
        measure = per_layer if args.trace else end_to_end
        metrics, units, counts, lines = measure(bench, phase_seconds)
    finally:
        forced = bench.stop_all() if bench else 0
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} inputs_sha256={plan.digest}")
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"cryptography={cryptography.__version__}")
    for line in lines:
        print(line)
    print(f"forced_kills = {forced}")
    for why in sorted(set(counts["failures"]))[:10]:
        print(f"failure: {why}", file=sys.stderr)
    correct = counts["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
