"""Per-layer metrics from the spans of a traced run.

A span is (id, name, start ns, end ns, parent id or 0, request id). Its
self time is its duration minus the part of that interval its child
spans cover. Time metrics are totals per request, in microseconds;
``*_self_us`` metrics use self time, the rest inclusive time.
"""

from __future__ import annotations

from collections import defaultdict


def self_times(spans) -> dict:
    """Map span id to its duration minus the time its children cover."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent:
            children[parent].append((start, end))
    result = {}
    for sid, _, start, end, _, _ in spans:
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result[sid] = end - start - covered
    return result


# metric name -> (span names summed, "total" | "self" | "calls")
SPAN_METRICS = {
    "transport.classify_us": (("transport.classify",), "total"),
    "transport.conn_self_us": (("transport.conn",), "self"),
    "soap.parse_us": (("soap.parse",), "total"),
    "soap.parse_calls_per_req": (("soap.parse",), "calls"),
    "soap.serialize_us": (("soap.serialize",), "total"),
    "soap.serialize_calls_per_req": (("soap.serialize",), "calls"),
    "canonical.body_canonical_us": (("canonical.body_canonical",), "total"),
    "canonical.calls_per_req": (("canonical.canonicalize", "canonical.body_canonical"), "calls"),
    "security.sign_us": (("security.sign",), "total"),
    "security.sign_calls_per_req": (("security.sign",), "calls"),
    "security.verify_us": (("security.verify",), "total"),
    "security.cert_us": (("security.cert_parse", "security.cert_verify",
                          "security.cert_render"), "total"),
    "security.decrypt_us": (("security.decrypt",), "total"),
    "host.attach_signature_self_us": (("host.attach_signature",), "self"),
    "host.handle_request_us": (("host.handle_request",), "total"),
    "host.self_us": (("host.handle_request",), "self"),
    "service.validate_us": (("service.validate",), "total"),
    "service.coerce_us": (("service.coerce",), "total"),
    "registry.lookup_us": (("registry.lookup",), "total"),
    "registry.append_log_us": (("registry.append_log",), "total"),
    "registry.check_access_us": (("registry.check_access",), "total"),
    "notes.execute_us": (("notes.execute",), "total"),
    "manifest.echo_execute_us": (("manifest.echo_execute",), "total"),
}

# metric name -> counter recorded on the root span
COUNTER_METRICS = {
    "transport.bytes_in_per_req": "bytes_in",
    "transport.bytes_out_per_req": "bytes_out",
    "host.xml_parses_per_req": "xml_parses",
    "host.fault_share": "faults",
}


def layer_metrics(spans, roots, window) -> dict:
    """Per-request layer metrics over connections that began inside ``window``.

    ``roots`` holds (root span id, queue wait ns, thread CPU ns, counters)
    per connection. Also returns ``requests`` (dispatcher calls) and
    ``span_cpu_s`` (thread CPU inside root spans).
    """
    lo, hi = (int(t * 1e9) for t in window)
    starts = {s[0]: s[2] for s in spans if s[4] == 0}
    kept = {r[0]: r for r in roots if r[0] in starts and lo <= starts[r[0]] <= hi}
    mine = [s for s in spans if s[5] in kept]
    selfs = self_times(mine)
    total, own, calls = defaultdict(int), defaultdict(int), defaultdict(int)
    for sid, name, start, end, _, _ in mine:
        total[name] += end - start
        own[name] += selfs[sid]
        calls[name] += 1
    requests = calls["host.handle_request"]
    if not requests:
        raise ValueError("no dispatched requests inside the window")

    out = {}
    for metric, (names, kind) in SPAN_METRICS.items():
        if kind == "calls":
            out[metric] = sum(calls[n] for n in names) / requests
        else:
            source = total if kind == "total" else own
            out[metric] = sum(source[n] for n in names) / requests / 1e3
    for metric, key in COUNTER_METRICS.items():
        out[metric] = sum(r[3].get(key, 0) for r in kept.values()) / requests
    waits = [r[1] for r in kept.values() if r[1] >= 0]
    out["transport.queue_wait_us"] = sum(waits) / len(waits) / 1e3 if waits else 0.0
    out["transport.connections_per_req"] = len(kept) / requests
    return {"metrics": out, "requests": requests,
            "span_cpu_s": sum(r[2] for r in kept.values()) / 1e9}
