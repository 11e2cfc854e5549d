"""Same bytes on the wire: replay the committed corpus and compare.

Each stored request goes to an open host and an auth-required host, both
started on a copy of the fixed data dir in ``tests/wire/data``; SOAP
payloads go over loopback, ``http`` and ``rawTcp``, whole HTTP requests
and raw frames over their own socket. Every reply must match the
recorded status, length and SHA-256 of the bytes up to the host's clean
close, and the request-log entries (outcome, service, method) it added.

The corpus is never regenerated here; ``build.py`` does that, and doing
so is a wire change.
"""

import pyexpat

import pytest

import replay


@pytest.fixture(scope="module")
def corpus():
    data = replay.load_corpus()
    if data["expat"] != pyexpat.EXPAT_VERSION:
        pytest.fail(
            f"the wire corpus was recorded with {data['expat']}, this Python has "
            f"{pyexpat.EXPAT_VERSION}: expat's error texts reach fault strings, so "
            "the replies cannot be compared; rebuild it with tests/wire/build.py "
            "(a wire change)")
    return data


@pytest.fixture(scope="module")
def hosts(tmp_path_factory):
    started = {}
    try:
        for kind, required in replay.HOST_KINDS.items():
            started[kind] = replay.start_host(tmp_path_factory.mktemp(kind), required)
        yield started
    finally:
        for host in started.values():
            host.shutdown()


def test_recorded_with_this_expat(corpus):
    assert corpus["expat"] == pyexpat.EXPAT_VERSION


def describe(raw_record: dict, want: dict) -> str:
    diffs = [f"{k} {want[k]!r} -> {raw_record[k]!r}" for k in want if raw_record[k] != want[k]]
    return "; ".join(diffs)


@pytest.mark.parametrize("kind", replay.HOST_KINDS)
@pytest.mark.parametrize("section, transport", [
    ("soap", "loopback"), ("soap", "http"), ("soap", "rawTcp"),
    ("http", "http"), ("rawTcp", "rawTcp"),
])
def test_replies_match_the_corpus(corpus, hosts, kind, section, transport):
    host = hosts[kind]
    mismatches = []
    compared = 0
    for case in corpus[section]:
        want = case["replies"][kind].get(transport)
        if want is None:
            continue
        got = replay.replay_one(host, transport, case)
        compared += 1
        if got != want:
            mismatches.append(f"{case['name']}: {describe(got, want)}")
    assert compared > 0
    assert not mismatches, (
        f"{len(mismatches)} of {compared} replies differ from the corpus "
        f"({kind} host, {section} over {transport}):\n" + "\n".join(mismatches))
