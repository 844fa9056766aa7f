"""Tests for the asyncio serving core and multi-worker runtime.

Wire bytes are pinned by ``tests/data/serve_wire.golden``: status,
body, and the contract headers of every route in ``PARITY_CASES``,
the ``/healthz`` shape, and the 429 envelope (recorded from the
thread-per-connection server this core replaced, so the switch
changed no byte a client sees). Replayed twice, every request gets
the same bytes again (a hit repeats what a cold miss rendered), and
only the query cache keeps answers alive. Then the HTTP/1.1 reader under
hostile framing (sign/underscore and conflicting ``Content-Length``,
``Transfer-Encoding``), at every byte boundary and over random header
sets and pipelined request mixes, keep-alive semantics, ungated probe
routes under a saturated admission queue, and the
:class:`WorkerRuntime` epoch/metrics protocol behind ``--workers N``.
"""

from __future__ import annotations

import asyncio
import gc
import json
import pickle
import signal
import socket
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.serve import AsyncReproServer, OpinionService, ServeError
from repro.serve.aio import MAX_HEADER_BYTES, HttpProtocol
from repro.serve.workers import (
    WorkerRuntime,
    make_reuseport_socket,
    publish_epoch,
    read_epoch,
    supervise,
)

from .conftest import AsyncHarness
from .test_serve import demo_provenance, demo_table

WIRE_GOLDEN = Path(__file__).parent / "data" / "serve_wire.golden"
WIRE_HEADERS = ("content-type", "x-request-id", "x-cache", "retry-after")


def _wire_golden() -> list[dict]:
    with open(WIRE_GOLDEN, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


# ---------------------------------------------------------------------------
# Raw-socket client
# ---------------------------------------------------------------------------

def _request_bytes(method, target, body=None, headers=None, keep=True):
    lines = [f"{method} {target} HTTP/1.1", "Host: test"]
    for key, value in (headers or {}).items():
        lines.append(f"{key}: {value}")
    payload = b""
    if body is not None:
        payload = (
            body.encode()
            if isinstance(body, str)
            else json.dumps(body).encode()
        )
        lines.append(f"Content-Length: {len(payload)}")
        lines.append("Content-Type: application/json")
    if not keep:
        lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + payload


def http_on(sock, method, target, body=None, headers=None, keep=True):
    """One request on an existing connection; returns
    ``(status, headers, body)``."""
    sock.sendall(_request_bytes(method, target, body, headers, keep))
    buffer = b""
    while b"\r\n\r\n" not in buffer:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError(f"closed early: {buffer!r}")
        buffer += chunk
    head, _, rest = buffer.partition(b"\r\n\r\n")
    head_lines = head.split(b"\r\n")
    status = int(head_lines[0].split()[1])
    response_headers = {}
    for line in head_lines[1:]:
        key, _, value = line.partition(b": ")
        response_headers[key.decode().lower()] = value.decode()
    length = int(response_headers["content-length"])
    while len(rest) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("body truncated")
        rest += chunk
    return status, response_headers, rest[:length]


def http(port, method, target, body=None, headers=None, keep=True):
    sock = socket.create_connection(("127.0.0.1", port), timeout=5)
    try:
        return http_on(sock, method, target, body, headers, keep)
    finally:
        sock.close()


def _demo_service():
    return OpinionService(
        demo_table(), provenance=demo_provenance()
    )


@pytest.fixture()
def harness():
    """The async server over the demo world."""
    with AsyncHarness(_demo_service()) as served:
        yield served


# ---------------------------------------------------------------------------
# Byte parity: every route matches the recorded wire golden
# ---------------------------------------------------------------------------

PARITY_CASES = [
    ("GET", "/query?q=cute+animals", None),
    ("GET", "/query?q=cute+animals&top=2", None),
    ("GET", "/query?q=big+animals", None),  # degraded combination
    ("GET", "/query?q=", None),
    ("GET", "/query", None),
    ("GET", "/query?q=calm+cities&explain=1", None),
    ("GET", "/explain?q=cute+animals&entity=/animal/kitten", None),
    ("GET", "/nope", None),
    ("POST", "/batch", {"queries": ["cute animals", "calm cities"]}),
    ("POST", "/batch", {"queries": []}),
    ("POST", "/batch", "notadict"),
]


class TestByteParity:
    @pytest.mark.parametrize(
        "method,target,body",
        PARITY_CASES,
        ids=[f"{m} {t}"[:60] for m, t, _ in PARITY_CASES],
    )
    def test_routes_identical(self, harness, method, target, body):
        golden = {
            json.dumps(line["request"]): line
            for line in _wire_golden()
            if "body" in line
        }[json.dumps([method, target, body])]
        status, headers, payload = http(
            harness.port, method, target, body,
            {"X-Request-Id": "pin-0001"},
        )
        assert status == golden["status"]
        assert payload == golden["body"].encode("utf-8")
        for name in WIRE_HEADERS:
            assert headers.get(name) == golden["headers"][name], name

    def test_healthz_same_shape(self, harness):
        golden = next(line for line in _wire_golden() if "keys" in line)
        status, _, body = http(harness.port, "GET", "/healthz")
        health = json.loads(body)
        assert status == golden["status"]
        assert sorted(health) == golden["keys"]
        for key, value in golden["fields"].items():
            assert health[key] == value, key

    def test_rate_limit_envelope_identical(self):
        golden = next(
            line for line in _wire_golden() if "envelope" in line
        )
        service = OpinionService(
            demo_table(), client_rate=0.001, client_burst=2.0
        )
        headers = {"X-Client-Id": "chatty", "X-Request-Id": "pin-0002"}
        with AsyncHarness(service) as served:
            responses = [
                http(served.port, "GET", "/query?q=cute+animals",
                     headers=headers)
                for _ in range(3)
            ]
        limited = [r for r in responses if r[0] == 429]
        assert limited, "burst of 3 never hit the 2-token limit"
        status, response_headers, body = limited[0]
        envelope = json.loads(body)
        # The retry hint is clock-derived (tokens refill between
        # requests); everything else is pinned exactly.
        assert envelope.pop("retry_after") == pytest.approx(
            1000.0, rel=0.01
        )
        assert status == golden["status"]
        assert envelope == golden["envelope"]
        for name in WIRE_HEADERS:
            assert (
                response_headers.get(name) == golden["headers"][name]
            ), name


# ---------------------------------------------------------------------------
# Async-core behaviour
# ---------------------------------------------------------------------------

class TestAsyncCore:
    def test_keepalive_and_cache_header(self, harness):
        sock = socket.create_connection(
            ("127.0.0.1", harness.port), timeout=5
        )
        try:
            status1, headers1, body1 = http_on(
                sock, "GET", "/query?q=cute+animals&top=1"
            )
            status2, headers2, body2 = http_on(
                sock, "GET", "/query?q=cute+animals&top=1"
            )
        finally:
            sock.close()
        assert status1 == status2 == 200
        assert headers1["x-cache"] == "miss"
        assert headers2["x-cache"] == "hit"
        assert body1 == body2

    def test_connection_close_honoured(self, harness):
        _, headers, _ = http(
            harness.port, "GET", "/query?q=cute+animals", keep=False
        )
        assert headers.get("connection") == "close"

    def test_draining_rejects_queries_with_503(self, harness):
        harness.service.admission.begin_drain()
        status, _, body = http(
            harness.port, "GET", "/query?q=cute+animals"
        )
        assert status == 503
        assert json.loads(body)["code"] == "draining"
        # The health probe still answers, reporting the drain.
        status, _, body = http(harness.port, "GET", "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "draining"


# ---------------------------------------------------------------------------
# One response cache: a hit sends the bytes a cold miss rendered
# ---------------------------------------------------------------------------

PIN = {"X-Request-Id": "pin-0001"}


def _twice(port, method, target, body=None, headers=PIN):
    """The same request sent twice on one server."""
    first = http(port, method, target, body, headers)
    return first, http(port, method, target, body, headers)


def _assert_repeats(first, second):
    """Same status, headers and body, except that a cacheable reply is
    a hit the second time."""
    expected = dict(first[1])
    if "x-cache" in expected:
        expected["x-cache"] = "hit"
    assert second == (first[0], expected, first[2])


def _live_ask_responses() -> int:
    gc.collect()
    return sum(
        1
        for obj in gc.get_objects()
        if isinstance(obj, dict)
        and dict.get(obj, "format") == "serve_ask"
    )


class TestOneResponseCache:
    def test_golden_requests_repeat_byte_for_byte(self, harness):
        # The 429 line never reaches the cache (admission rejects it
        # first); test_rate_limit_envelope_identical pins it.
        for line in _wire_golden():
            if "envelope" in line:
                continue
            first, second = _twice(harness.port, *line["request"])
            assert first[0] == second[0] == line["status"]
            if "keys" in line:  # /healthz: counters move, shape not
                for reply in (first, second):
                    health = json.loads(reply[2])
                    assert sorted(health) == line["keys"]
                    for key, value in line["fields"].items():
                        assert health[key] == value, key
                continue
            assert first[2] == line["body"].encode("utf-8")
            for name in WIRE_HEADERS:
                assert first[1].get(name) == line["headers"][name]
            _assert_repeats(first, second)

    @pytest.mark.parametrize(
        "target",
        [
            "/query?q=",
            "/query?property=&type=",
            "/explain",
            "/query?property=cute&type=animal",
            "/query?property=cute&type=animal&negative=1"
            "&min_probability=0.5&top=2",
            "/explain?entity=/animal/kitten&property=cute",
        ],
    )
    def test_route_repeats_byte_for_byte(self, harness, target):
        first, second = _twice(harness.port, "GET", target)
        _assert_repeats(first, second)

    def test_degraded_hit_is_stamped_but_entry_is_not(self, tmp_path):
        service = _demo_service()
        with pytest.raises(ServeError):
            service.reload(tmp_path / "missing.json")
        assert service.degraded
        with AsyncHarness(service) as served:
            first, second = _twice(
                served.port, "GET", "/query?q=cute+animals"
            )
            assert first[1]["x-cache"] == "miss"
            _assert_repeats(first, second)
            assert json.loads(second[2])["degraded_mode"] is True
            entry = service.cache.get((1, "ask", "cute animals", 10))
            assert entry.response["degraded_mode"] is False
            assert json.loads(entry.body)["degraded_mode"] is False
            service.rollback()  # clears the degraded flag
            _, headers, body = http(
                served.port, "GET", "/query?q=cute+animals", headers=PIN
            )
        assert headers["x-cache"] == "hit"
        assert body == entry.body

    def test_batch_items_carry_request_id_entries_stay_id_free(
        self, harness
    ):
        batch = {"queries": ["cute animals", "calm cities"]}
        for request_id in ("batch-1", "batch-2"):
            _, _, body = http(
                harness.port, "POST", "/batch", batch,
                {"X-Request-Id": request_id},
            )
            results = json.loads(body)["results"]
            assert [item["request_id"] for item in results] == [
                request_id, request_id,
            ]
        _, headers, body = http(
            harness.port, "GET", "/query?q=cute+animals", headers=PIN
        )
        assert headers["x-cache"] == "hit"
        assert "request_id" not in json.loads(body)
        entry = harness.service.cache.get((1, "ask", "cute animals", 10))
        assert "request_id" not in entry.response

    def test_only_the_query_cache_keeps_answers_alive(self):
        cache_size = 8
        service = OpinionService(demo_table(), cache_size=cache_size)
        before = _live_ask_responses()
        with AsyncHarness(service) as served:
            for top in range(1, 3 * cache_size + 1):
                status, headers, _ = http(
                    served.port, "GET", f"/query?q=cute+animals&top={top}"
                )
                assert (status, headers["x-cache"]) == (200, "miss")
            assert _live_ask_responses() - before <= cache_size
        assert len(service.cache) == cache_size


# ---------------------------------------------------------------------------
# The HTTP/1.1 reader under hostile framing
# ---------------------------------------------------------------------------

def _parse_responses(data: bytes) -> list[tuple[int, dict, bytes]]:
    """Split a byte stream into ``(status, headers, body)`` triples."""
    responses = []
    while data:
        head, _, rest = data.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        headers = {}
        for line in lines[1:]:
            key, _, value = line.partition(b": ")
            headers[key.decode().lower()] = value.decode()
        length = int(headers["content-length"])
        responses.append(
            (int(lines[0].split()[1]), headers, rest[:length])
        )
        data = rest[length:]
    return responses


def exchange(port: int, raw: bytes) -> tuple[list, bool]:
    """Send raw bytes; return the parsed responses and whether the
    server closed the connection (rather than leaving it idle)."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=5)
    sock.settimeout(1.0)
    received = b""
    closed = False
    try:
        sock.sendall(raw)
        while True:
            try:
                chunk = sock.recv(65536)
            except socket.timeout:
                break
            if not chunk:
                closed = True
                break
            received += chunk
    finally:
        sock.close()
    return _parse_responses(received), closed


HIDDEN = b"POST /admin/rollback HTTP/1.1\r\n\r\n"


class TestHostileFraming:
    def test_negative_content_length_cannot_smuggle(self, harness):
        """A negative length used to rewind the parser into the
        request's own head, running the hidden last "header" line
        as a second request."""
        raw = (
            b"GET /healthz HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: -%d\r\n" % len(HIDDEN)
            + HIDDEN
        )
        responses, closed = exchange(harness.port, raw)
        assert [r[0] for r in responses] == [400]
        assert closed
        assert b"malformed Content-Length" in responses[0][2]
        assert harness.service.index.generation == 1

    @pytest.mark.parametrize("length", [b"+2", b"0_2", b" 2x", b""])
    def test_content_length_must_be_digits(self, harness, length):
        raw = (
            b"POST /batch HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: " + length + b"\r\n\r\n{}"
        )
        responses, closed = exchange(harness.port, raw)
        assert [r[0] for r in responses] == [400]
        assert json.loads(responses[0][2])["code"] == "bad_request"
        assert closed

    def test_conflicting_content_lengths_are_rejected(self, harness):
        raw = (
            b"POST /batch HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: 0\r\nContent-Length: 2\r\n\r\n{}"
        )
        responses, closed = exchange(harness.port, raw)
        assert [r[0] for r in responses] == [400]
        assert b"conflicting Content-Length" in responses[0][2]
        assert closed

    def test_agreeing_content_lengths_are_accepted(self, harness):
        body = b'{"queries": ["cute animals"]}'
        raw = (
            b"POST /batch HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: %d\r\nContent-Length: %d\r\n"
            b"Connection: close\r\n\r\n" % (len(body), len(body))
            + body
        )
        responses, _ = exchange(harness.port, raw)
        assert [r[0] for r in responses] == [200]

    def test_oversized_head_is_rejected(self, harness):
        raw = (
            b"GET /healthz HTTP/1.1\r\nX-Pad: "
            + b"a" * (MAX_HEADER_BYTES + 1)
        )
        responses, closed = exchange(harness.port, raw)
        assert [r[0] for r in responses] == [400]
        assert b"request head too large" in responses[0][2]
        assert closed

    def test_transfer_encoding_is_refused(self, harness):
        """A chunked body left unread would be parsed as the next
        request on the keep-alive connection."""
        chunk = b'{"queries": ["cute animals"]}'
        raw = (
            b"POST /batch HTTP/1.1\r\nHost: test\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"%x\r\n" % len(chunk) + chunk + b"\r\n0\r\n\r\n"
        )
        responses, closed = exchange(harness.port, raw)
        assert [r[0] for r in responses] == [501]
        envelope = json.loads(responses[0][2])
        assert envelope["code"] == "not_implemented"
        assert envelope["format"] == "serve_error"
        assert closed


class _StubTransport:
    """Records writes; enough of :class:`asyncio.Transport` for
    :class:`HttpProtocol`."""

    def __init__(self):
        self.written = b""
        self.closing = False

    def write(self, data):
        self.written += data

    def close(self):
        self.closing = True

    def is_closing(self):
        return self.closing

    def pause_reading(self):
        pass

    def resume_reading(self):
        pass

    def get_extra_info(self, name):
        return ("127.0.0.1", 40000) if name == "peername" else None


PIPELINED = (
    _request_bytes(
        "GET", "/query?q=cute+animals&top=2",
        headers={"X-Request-Id": "split-1"},
    )
    + _request_bytes(
        "POST", "/batch", {"queries": ["cute animals", "calm cities"]},
        headers={"X-Request-Id": "split-2"},
    )
)


def _feed(chunks: list[bytes]) -> bytes:
    """Drive one fresh connection with ``chunks``; the bytes written."""

    async def scenario():
        server = AsyncReproServer(_demo_service())
        server.loop = asyncio.get_running_loop()
        protocol = HttpProtocol(server)
        transport = _StubTransport()
        protocol.connection_made(transport)
        for chunk in chunks:
            protocol.data_received(chunk)
        return transport.written

    return asyncio.run(scenario())


class TestByteBoundaries:
    def test_every_split_point_gives_the_same_responses(self):
        whole = _feed([PIPELINED])
        statuses = [r[0] for r in _parse_responses(whole)]
        assert statuses == [200, 200]
        for cut in range(1, len(PIPELINED)):
            split = _feed([PIPELINED[:cut], PIPELINED[cut:]])
            assert split == whole, f"split at byte {cut}"

    def test_byte_at_a_time(self):
        assert _feed(
            [PIPELINED[i:i + 1] for i in range(len(PIPELINED))]
        ) == _feed([PIPELINED])


# Headers the reader must pass over: names that steer nothing, in any
# case, with any visible value (a colon included) and optional spaces.
_JUNK_NAMES = st.sampled_from(
    ["Accept", "User-Agent", "Accept-Encoding", "Cookie", "X-Pad"]
) | st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
    min_size=1, max_size=12,
).map(lambda name: "X-Junk-" + name)
_JUNK_VALUES = st.text(
    alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x7E),
    max_size=40,
)
_SPACES = st.sampled_from(["", " ", "  ", "\t"])


def _cased(draw, name: str) -> str:
    return "".join(
        char.upper() if draw(st.booleans()) else char.lower()
        for char in name
    )


@st.composite
def _golden_request(draw, line: dict, close: bool) -> bytes:
    """``line``'s request with a random header set."""
    method, target, body = line["request"]
    headers = [("Host", "test")] if draw(st.booleans()) else []
    headers += [
        (_cased(draw, name), value)
        for name, value in draw(
            st.lists(st.tuples(_JUNK_NAMES, _JUNK_VALUES), max_size=6)
        )
    ]
    headers.insert(
        draw(st.integers(0, len(headers))),
        (_cased(draw, "X-Request-Id"), "pin-0001"),
    )
    payload = b""
    if body is not None:
        payload = (
            body if isinstance(body, str) else json.dumps(body)
        ).encode()
        headers.append(("Content-Length", str(len(payload))))
    if close:
        headers.append((_cased(draw, "Connection"), "close"))
    head = [f"{method} {target} HTTP/1.1"] + [
        f"{name}:{draw(_SPACES)}{value}{draw(_SPACES)}"
        for name, value in headers
    ]
    return ("\r\n".join(head) + "\r\n\r\n").encode() + payload


@st.composite
def _pipelined_mix(draw):
    """Golden requests with random header sets, pipelined and cut into
    random chunks; (chunks, the same requests with plain headers in
    one piece, their golden lines, closes after the last)."""
    golden = [line for line in _wire_golden() if "body" in line]
    lines = draw(st.lists(st.sampled_from(golden), min_size=1, max_size=5))
    close = draw(st.booleans())
    last = len(lines) - 1
    stream = b"".join(
        draw(_golden_request(line, close and i == last))
        for i, line in enumerate(lines)
    )
    plain = b"".join(
        _request_bytes(
            *line["request"], headers=PIN, keep=not (close and i == last)
        )
        for i, line in enumerate(lines)
    )
    cuts = sorted(
        draw(st.sets(st.integers(1, len(stream) - 1), max_size=8))
    )
    chunks = [
        stream[start:end]
        for start, end in zip([0, *cuts], [*cuts, len(stream)])
    ]
    return chunks, plain, lines, close


class TestReaderProperties:
    """Random header sets and pipelined request mixes, fed in random
    chunks: the same bytes as the plain requests sent whole, and in
    order the golden status, body and contract headers (a cacheable
    answer may be a hit, when an earlier request in the mix rendered
    it)."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(mix=_pipelined_mix())
    def test_pipelined_mix_matches_golden(self, mix):
        chunks, plain, lines, close = mix
        written = _feed(chunks)
        assert written == _feed([plain])
        responses = _parse_responses(written)
        assert len(responses) == len(lines)
        for (status, headers, body), line in zip(responses, lines):
            assert status == line["status"]
            assert body == line["body"].encode("utf-8")
            for name in WIRE_HEADERS:
                expected = line["headers"][name]
                if name == "x-cache" and expected == "miss":
                    assert headers.get(name) in ("miss", "hit")
                else:
                    assert headers.get(name) == expected, name
        assert (responses[-1][1].get("connection") == "close") == close


# ---------------------------------------------------------------------------
# Satellite regression: probes stay ungated under saturation
# ---------------------------------------------------------------------------

class TestUngatedUnderSaturation:
    """/healthz and /metrics must never 429/503, even with every
    admission slot held and the wait queue full."""

    def test_probes_survive_saturated_admission(self):
        service = OpinionService(
            demo_table(), max_inflight=1, queue_depth=0
        )
        with AsyncHarness(service) as served:
            # Hold the only slot from outside, as a stuck in-flight
            # request would.
            assert service.admission.poll()
            try:
                status, _, body = http(
                    served.port, "GET", "/query?q=cute+animals"
                )
                assert status == 503
                assert json.loads(body)["code"] == "overloaded"
                for _ in range(3):
                    status, _, body = http(
                        served.port, "GET", "/healthz"
                    )
                    assert status == 200
                    health = json.loads(body)
                    assert health["status"] == "healthy"
                    assert health["admission"]["inflight"] == 1
                    status, _, body = http(
                        served.port, "GET", "/metrics"
                    )
                    assert status == 200
                    assert b"repro_serve" in body
            finally:
                service.admission.release()
            # With the slot back, queries flow again.
            status, _, _ = http(
                served.port, "GET", "/query?q=cute+animals"
            )
            assert status == 200

    def test_probes_ignore_client_rate_limits(self):
        service = OpinionService(
            demo_table(), client_rate=0.001, client_burst=1.0
        )
        headers = {"X-Client-Id": "greedy"}
        with AsyncHarness(service) as served:
            assert http(
                served.port, "GET", "/query?q=cute+animals",
                headers=headers,
            )[0] == 200
            assert http(
                served.port, "GET", "/query?q=cute+animals&top=2",
                headers=headers,
            )[0] == 429
            # The exhausted client can still probe health and metrics.
            assert http(
                served.port, "GET", "/healthz", headers=headers
            )[0] == 200
            assert http(
                served.port, "GET", "/metrics", headers=headers
            )[0] == 200


# ---------------------------------------------------------------------------
# Worker runtime: epoch protocol + metrics merge
# ---------------------------------------------------------------------------

class TestWorkerRuntime:
    def test_epoch_publish_and_read(self, tmp_path):
        directory = str(tmp_path)
        assert read_epoch(directory) is None
        first = publish_epoch(directory, "reload")
        second = publish_epoch(directory, "ingest", path="/x.json")
        assert (first, second) == (1, 2)
        record = read_epoch(directory)
        assert record["epoch"] == 2
        assert record["kind"] == "ingest"
        assert record["path"] == "/x.json"

    def test_runtime_tracks_last_seen_epoch(self, tmp_path):
        runtime = WorkerRuntime(str(tmp_path), 0, 2, 12345)
        epoch = runtime.publish_epoch("reload")
        assert epoch == 1
        assert runtime.last_epoch == 1
        assert runtime.read_epoch()["epoch"] == 1

    def test_registry_dump_and_peer_roundtrip(self, tmp_path):
        directory = str(tmp_path)
        zero = WorkerRuntime(directory, 0, 2, 12345)
        one = WorkerRuntime(directory, 1, 2, 12345)
        registry = MetricsRegistry()
        registry.inc("repro_serve_requests_total", 7)
        zero.dump_registry(registry)
        peers = one.peer_registries()
        assert len(peers) == 1
        assert peers[0].counter_value(
            "repro_serve_requests_total"
        ) == 7
        # A torn/corrupt snapshot is skipped, not fatal.
        (tmp_path / "metrics" / "worker-0.pkl").write_bytes(b"junk")
        assert one.peer_registries() == []

    def test_render_metrics_merges_peers(self, tmp_path):
        directory = str(tmp_path)
        peer = WorkerRuntime(directory, 1, 2, 12345)
        peer_registry = MetricsRegistry()
        peer_registry.inc("repro_serve_requests_total", 5)
        peer.dump_registry(peer_registry)

        registry = MetricsRegistry()
        service = OpinionService(demo_table(), registry=registry)
        server = AsyncReproServer(
            service, runtime=WorkerRuntime(directory, 0, 2, 12345)
        )
        registry.inc("repro_serve_requests_total", 3)
        exposition = server.render_metrics()
        assert "repro_serve_requests_total 8" in exposition
        assert "repro_serve_workers 2" in exposition

    @pytest.mark.skipif(
        not hasattr(signal, "SIGHUP"), reason="POSIX signals required"
    )
    def test_fleet_that_never_gets_ready_is_not_advertised(self):
        """Workers that exit before their ready byte: the supervisor
        prints no banner for the dead address and exits 1."""
        banners = []
        handlers = {
            signum: signal.getsignal(signum)
            for signum in (
                signal.SIGTERM, signal.SIGINT, signal.SIGHUP, signal.SIGUSR1
            )
        }
        try:
            code = supervise(
                "127.0.0.1", 0, 2, 1.0, lambda *args: 1,
                banner=banners.append,
            )
        finally:
            for signum, handler in handlers.items():
                signal.signal(signum, handler)
        assert (code, banners) == (1, [])

    def test_reuseport_sockets_share_a_port(self):
        first = make_reuseport_socket("127.0.0.1", 0)
        try:
            port = first.getsockname()[1]
            second = make_reuseport_socket("127.0.0.1", port)
            second.close()
        finally:
            first.close()

    def test_worker_snapshot_is_a_plain_pickle(self, tmp_path):
        """The dump format is a pickled MetricsRegistry — the merge
        path depends on __getstate__/__setstate__ round-tripping."""
        runtime = WorkerRuntime(str(tmp_path), 0, 1, 12345)
        registry = MetricsRegistry()
        registry.set_gauge("repro_serve_index_opinions", 42)
        runtime.dump_registry(registry)
        path = tmp_path / "metrics" / "worker-0.pkl"
        with open(path, "rb") as handle:
            loaded = pickle.load(handle)
        assert isinstance(loaded, MetricsRegistry)
