"""Serving-path benchmarks: index vs. scan, cache, and HTTP load.

Two figures for the query-serving subsystem (docs/serving.md):

* ``bench_query_paths`` — the same query workload answered three ways:
  the one-shot :class:`QueryEngine` full-table scan (what ``repro ask``
  always did), the pre-built :class:`OpinionIndex`, and the warm
  :class:`OpinionService` LRU cache. The acceptance bar: the cached
  path must be at least 10x faster than the scan on the demo-scale
  world.
* ``bench_http_serving`` — a raw-socket keep-alive load generator
  against the in-process :class:`AsyncReproServer` (the ``repro
  serve`` default core). Connections are established before the timed
  window (a barrier separates the phases) and their setup cost is
  reported separately, so the figure measures the server, not TCP
  handshakes. Hard gates: QPS at least ``HTTP_SPEEDUP_FLOOR`` times
  the recorded thread-per-connection baseline, p99 at most
  ``HTTP_P99_CEILING_SECONDS``.
* ``bench_observability_overhead`` — the same HTTP load against a
  bare service and a fully instrumented one (streaming histogram with
  exemplars, SLO tracker, trace spans, JSONL access log), each on
  its own async server; the instrumented path must keep at least
  ``OVERHEAD_QPS_FLOOR`` of the bare QPS.

Timings use min-over-rounds (equivalently best-of-rounds QPS), the
stable estimator for same-machine comparisons; the overhead pair is
interleaved so drift hits both arms equally.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import socket
import threading
import time

from _report import emit, emit_json

from repro.core.query import QueryEngine
from repro.obs import MetricsRegistry, Tracer
from repro.serve import (
    AccessLog,
    AsyncReproServer,
    OpinionIndex,
    OpinionService,
)

ROUNDS = 5
#: The serving acceptance bar: warm cache vs. full-table scan.
CACHE_SPEEDUP_FLOOR = 10.0
#: PR-7 acceptance bar: instrumented serving keeps >= 95% of bare QPS.
OVERHEAD_QPS_FLOOR = 0.95
OVERHEAD_ROUNDS = 5
CLIENT_THREADS = 4
REQUESTS_PER_THREAD = 150

#: QPS the thread-per-connection core recorded on this workload before
#: the async rewrite.
HTTP_BASELINE_QPS = 1165.3
#: PR-10 acceptance bar: the async core must clear 8x that baseline...
HTTP_SPEEDUP_FLOOR = 8.0
HTTP_QPS_FLOOR = HTTP_BASELINE_QPS * HTTP_SPEEDUP_FLOOR
#: ...while holding tail latency under 2 ms.
HTTP_P99_CEILING_SECONDS = 0.002
#: Sustained window for the async figure (per client thread); the
#: warm-up round is shorter.
HTTP_REQUESTS_PER_THREAD = 3000
HTTP_WARMUP_PER_THREAD = 200

#: Demo-world workload: conjunctive and negated queries over every
#: entity type the evaluation harness mines.
WORKLOAD = [
    "cute animals",
    "big cute animals",
    "not deadly friendly animals",
    "calm cheap cities",
    "big not hectic cities",
    "multicultural cities",
    "young cool celebrities",
    "not quiet pretty celebrities",
    "exciting jobs",
    "not dangerous solid jobs",
    "fast popular sports",
    "addictive not boring games",
]


def _quantile(sorted_values, q):
    """Nearest-rank quantile of an already-sorted list."""
    index = min(
        len(sorted_values) - 1,
        max(0, round(q * (len(sorted_values) - 1))),
    )
    return sorted_values[index]


def bench_query_paths(benchmark, interpreted):
    table = interpreted["Surveyor"]
    engine = QueryEngine(table)

    def run_scan():
        for query in WORKLOAD:
            engine.answer(query, top=10)

    def run_indexed(index):
        for query in WORKLOAD:
            index.answer(query, top=10)

    def run_cached(service):
        for query in WORKLOAD:
            service.ask(query, top=10)

    def measure():
        build_started = time.perf_counter()
        index = OpinionIndex(table)
        build_seconds = time.perf_counter() - build_started
        service = OpinionService(table)
        run_cached(service)  # warm the cache
        best = {"scan": float("inf"), "indexed": float("inf"),
                "cached": float("inf")}
        for _ in range(ROUNDS):
            for label, runner, arg in (
                ("scan", run_scan, None),
                ("indexed", run_indexed, index),
                ("cached", run_cached, service),
            ):
                started = time.perf_counter()
                runner(arg) if arg is not None else runner()
                best[label] = min(
                    best[label], time.perf_counter() - started
                )
        return best, build_seconds, service

    (best, build_seconds, service) = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    index_speedup = best["scan"] / best["indexed"]
    cache_speedup = best["scan"] / best["cached"]
    per_query_us = {
        label: seconds / len(WORKLOAD) * 1e6
        for label, seconds in best.items()
    }
    stats = service.cache.stats()
    lines = [
        f"Query paths over the demo world ({len(table)} opinions, "
        f"{len(WORKLOAD)} queries, min of {ROUNDS})",
        f"full-table scan: {per_query_us['scan']:9.1f} us/query",
        f"indexed:         {per_query_us['indexed']:9.1f} us/query "
        f"({index_speedup:.1f}x)",
        f"warm cache:      {per_query_us['cached']:9.1f} us/query "
        f"({cache_speedup:.1f}x)",
        f"index build:     {build_seconds * 1000:9.2f} ms "
        f"(amortised over every query until the next reload)",
        f"cache: {stats['hits']} hits / {stats['misses']} misses",
    ]
    emit("serving_paths", lines)
    emit_json(
        "serving_paths",
        {
            "opinions": len(table),
            "queries": len(WORKLOAD),
            "scan_seconds": best["scan"],
            "indexed_seconds": best["indexed"],
            "cached_seconds": best["cached"],
            "index_build_seconds": build_seconds,
            "index_speedup": index_speedup,
            "cache_speedup": cache_speedup,
            "speedup_floor": CACHE_SPEEDUP_FLOOR,
        },
    )
    assert cache_speedup >= CACHE_SPEEDUP_FLOOR, (
        f"cached path is only {cache_speedup:.1f}x faster than the "
        f"full-table scan (floor {CACHE_SPEEDUP_FLOOR}x)"
    )


def _encode_request(query):
    return (
        "GET /query?q=" + query.replace(" ", "+")
        + " HTTP/1.1\r\nHost: bench\r\n\r\n"
    ).encode("ascii")


class _KeepAliveClient:
    """Minimal raw-socket HTTP/1.1 keep-alive client.

    ``http.client`` re-parses headers into objects on every response;
    at async-core throughput that client-side work dominates the
    figure. This parser does the minimum to frame responses: status
    code plus Content-Length.
    """

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
        )
        self.buffer = b""

    def request(self, data):
        self.sock.sendall(data)
        while b"\r\n\r\n" not in self.buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed mid-response")
            self.buffer += chunk
        head, _, rest = self.buffer.partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        lower = head.lower()
        marker = lower.index(b"content-length:")
        end = lower.find(b"\r\n", marker)
        length = int(
            lower[marker + 15 : end if end >= 0 else len(lower)]
        )
        while len(rest) < length:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed mid-body")
            rest += chunk
        body = rest[:length]
        self.buffer = rest[length:]
        return status, body

    def close(self):
        self.sock.close()


def _keepalive_load(port, requests_per_thread):
    """Drive the workload over persistent connections.

    Every client connects *before* the timed window — a barrier
    separates connection setup from the request phase — so the
    reported wall measures the server, not TCP handshakes. Returns
    ``(setup_seconds, wall_seconds, sorted_latencies)`` where
    ``setup_seconds`` is the slowest client's connect cost.
    """
    barrier = threading.Barrier(CLIENT_THREADS + 1)
    setup = [0.0] * CLIENT_THREADS
    buckets = [[] for _ in range(CLIENT_THREADS)]
    failures = []
    requests = [_encode_request(query) for query in WORKLOAD]

    def worker(offset):
        connect_started = time.perf_counter()
        client = _KeepAliveClient(port)
        setup[offset] = time.perf_counter() - connect_started
        try:
            barrier.wait()
            latencies = buckets[offset]
            for number in range(requests_per_thread):
                data = requests[(offset + number) % len(requests)]
                started = time.perf_counter()
                status, body = client.request(data)
                latencies.append(time.perf_counter() - started)
                if status != 200:
                    failures.append((status, body[:200]))
                    return
        finally:
            client.close()

    workers = [
        threading.Thread(target=worker, args=(offset,))
        for offset in range(CLIENT_THREADS)
    ]
    for t in workers:
        t.start()
    barrier.wait()
    started = time.perf_counter()
    for t in workers:
        t.join()
    wall = time.perf_counter() - started
    assert not failures, failures
    latencies = sorted(
        latency for bucket in buckets for latency in bucket
    )
    assert len(latencies) == CLIENT_THREADS * requests_per_thread
    return max(setup), wall, latencies


class _AsyncHarness:
    """:class:`AsyncReproServer` on a dedicated event-loop thread."""

    def __init__(self, service):
        self.server = AsyncReproServer(service)
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._stop = None
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        if not self._ready.wait(timeout=10):
            raise RuntimeError("async server failed to start")
        self.port = self.server.port

    def _run(self):
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_until_complete(self._main())
        finally:
            self.loop.close()

    async def _main(self):
        self._stop = asyncio.Event()
        await self.server.start("127.0.0.1", 0)
        self._ready.set()
        await self._stop.wait()
        self.server.close_listener()
        self.server.close_connections()
        await self.server.wait_closed()

    def shutdown(self):
        self.loop.call_soon_threadsafe(self._stop.set)
        self.thread.join(timeout=10)


def bench_http_serving(benchmark, interpreted):
    table = interpreted["Surveyor"]
    service = OpinionService(table)
    harness = _AsyncHarness(service)

    def measure():
        # Warm the query cache and every code path, then pin the
        # cyclic GC for the measured window (a gen-2 collection
        # traverses the whole interpreted world mid-run otherwise).
        _keepalive_load(harness.port, HTTP_WARMUP_PER_THREAD)
        gc.collect()
        gc.disable()
        try:
            return _keepalive_load(
                harness.port, HTTP_REQUESTS_PER_THREAD
            )
        finally:
            gc.enable()

    try:
        setup, wall, latencies = benchmark.pedantic(
            measure, rounds=1, iterations=1
        )
    finally:
        harness.shutdown()

    total = CLIENT_THREADS * HTTP_REQUESTS_PER_THREAD
    qps = total / wall
    p50 = _quantile(latencies, 0.50)
    p99 = _quantile(latencies, 0.99)
    p999 = _quantile(latencies, 0.999)
    stats = service.cache.stats()
    lines = [
        f"HTTP serving: async core ({CLIENT_THREADS} raw-socket "
        f"keep-alive clients x {HTTP_REQUESTS_PER_THREAD} requests)",
        f"throughput: {qps:9.0f} requests/s "
        f"(floor {HTTP_QPS_FLOOR:.0f} = "
        f"{HTTP_SPEEDUP_FLOOR:.0f}x threaded baseline "
        f"{HTTP_BASELINE_QPS:.0f})",
        f"latency:    p50 {p50 * 1e6:7.0f} us   "
        f"p99 {p99 * 1e6:7.0f} us   p99.9 {p999 * 1e6:7.0f} us",
        f"connection setup (slowest client, untimed window): "
        f"{setup * 1e6:.0f} us",
        f"cache: {stats['hits']} hits / {stats['misses']} misses",
    ]
    emit("serving_http", lines)
    emit_json(
        "serving_http",
        {
            "client_threads": CLIENT_THREADS,
            "requests": total,
            "wall_seconds": wall,
            "connection_setup_seconds": setup,
            "qps": qps,
            "p50_seconds": p50,
            "p99_seconds": p99,
            "p999_seconds": p999,
            "baseline_qps": HTTP_BASELINE_QPS,
            "qps_floor": HTTP_QPS_FLOOR,
            "p99_ceiling_seconds": HTTP_P99_CEILING_SECONDS,
            "cache_hits": stats["hits"],
            "cache_misses": stats["misses"],
        },
    )
    assert qps >= HTTP_QPS_FLOOR, (
        f"async serving reaches only {qps:.0f} requests/s "
        f"(floor {HTTP_QPS_FLOOR:.0f} = {HTTP_SPEEDUP_FLOOR:.0f}x "
        f"the {HTTP_BASELINE_QPS:.0f} threaded baseline)"
    )
    assert p99 <= HTTP_P99_CEILING_SECONDS, (
        f"p99 request latency {p99 * 1e3:.2f} ms exceeds the "
        f"{HTTP_P99_CEILING_SECONDS * 1e3:.0f} ms ceiling"
    )


def _drive_load(port):
    """Run the keep-alive workload against ``port``; return wall s."""

    def worker(offset):
        connection = http.client.HTTPConnection("127.0.0.1", port)
        try:
            for number in range(REQUESTS_PER_THREAD):
                query = WORKLOAD[(offset + number) % len(WORKLOAD)]
                connection.request(
                    "GET",
                    "/query?q=" + query.replace(" ", "+"),
                )
                response = connection.getresponse()
                response.read()
                assert response.status == 200, response.status
        finally:
            connection.close()

    threads = [
        threading.Thread(target=worker, args=(offset,))
        for offset in range(CLIENT_THREADS)
    ]
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - started


def bench_observability_overhead(
    benchmark, interpreted, tmp_path_factory
):
    """Instrumented serving must stay within a few percent of bare.

    Both arms serve the identical workload; the instrumented arm adds
    every PR-7 observability sink at once — streamhist latency
    recording with exemplars, the rolling latency window, the SLO
    tracker, full trace sampling, and a JSONL access log.
    """
    table = interpreted["Surveyor"]
    access_path = (
        tmp_path_factory.mktemp("overhead") / "access.jsonl"
    )
    access_log = AccessLog(access_path)
    bare = OpinionService(table)
    instrumented = OpinionService(
        table,
        registry=MetricsRegistry(),
        tracer=Tracer(enabled=True),
        access_log=access_log,
        trace_sample=1,
    )
    arms = {
        "bare": _AsyncHarness(bare),
        "instrumented": _AsyncHarness(instrumented),
    }

    def measure():
        best = {"bare": float("inf"), "instrumented": float("inf")}
        ratios = []
        for server in arms.values():
            _drive_load(server.port)  # warm caches and connections
        for _ in range(OVERHEAD_ROUNDS):
            # Interleave the arms so machine drift is shared, and
            # pin the cyclic GC: a gen-2 collection landing inside
            # one arm's window (it traverses the whole interpreted
            # world) would swamp the per-request delta under test.
            wall = {}
            for label, server in arms.items():
                gc.collect()
                gc.disable()
                try:
                    wall[label] = _drive_load(server.port)
                finally:
                    gc.enable()
                best[label] = min(best[label], wall[label])
            ratios.append(wall["bare"] / wall["instrumented"])
        return best, ratios

    try:
        best, ratios = benchmark.pedantic(
            measure, rounds=1, iterations=1
        )
    finally:
        for server in arms.values():
            server.shutdown()
        access_log.close()

    total = CLIENT_THREADS * REQUESTS_PER_THREAD
    qps = {label: total / wall for label, wall in best.items()}
    # The gate uses the best *paired* round: the two arms of a pair
    # ran back-to-back, so scheduler/machine drift cancels — the
    # two-arm analogue of min-over-rounds. (Best-of-each-arm walls
    # may come from different rounds and overstate the gap on a
    # noisy box.)
    ratio = max(ratios)
    logged = sum(1 for _ in open(access_path, encoding="utf-8"))
    spans = len(instrumented.tracer.export_spans())
    stream = instrumented.registry.stream_snapshot(
        "repro_serve_request_seconds"
    )
    lines = [
        f"Observability overhead ({CLIENT_THREADS} client threads x "
        f"{REQUESTS_PER_THREAD} requests, best of "
        f"{OVERHEAD_ROUNDS} interleaved rounds)",
        f"bare:         {qps['bare']:9.0f} requests/s",
        f"instrumented: {qps['instrumented']:9.0f} requests/s",
        f"best paired round: {ratio * 100:.1f}% of bare "
        f"(floor {OVERHEAD_QPS_FLOOR * 100:.0f}%)",
        f"sinks fed: {stream.count} histogram samples, "
        f"{spans} spans, {logged} access-log lines",
    ]
    emit("serving_overhead", lines)
    emit_json(
        "serving_overhead",
        {
            "requests_per_arm": total,
            "rounds": OVERHEAD_ROUNDS,
            "bare_seconds": best["bare"],
            "instrumented_seconds": best["instrumented"],
            "bare_qps": qps["bare"],
            "instrumented_qps": qps["instrumented"],
            "qps_ratio": ratio,
            "paired_ratios": ratios,
            "qps_floor": OVERHEAD_QPS_FLOOR,
            "histogram_samples": stream.count,
            "spans": spans,
            "access_log_lines": logged,
        },
    )
    # Every sink actually observed the load — a fast arm that silently
    # dropped its instrumentation would be a hollow win.
    expected = total * (OVERHEAD_ROUNDS + 1)
    assert stream.count >= expected, (stream.count, expected)
    assert logged >= expected, (logged, expected)
    assert ratio >= OVERHEAD_QPS_FLOOR, (
        f"instrumented serving reaches only {ratio:.1%} of bare QPS "
        f"in its best paired round (floor {OVERHEAD_QPS_FLOOR:.0%}, "
        f"rounds {[f'{r:.3f}' for r in ratios]})"
    )
