"""Chaos benchmark: goodput under injected serve-side faults.

``bench_serve_chaos`` drives a keep-alive load (4 client threads x 150
requests) against the async serving core over an
:class:`OpinionService` with a :class:`ServeFaultInjector` active and a
background reloader flipping the artefact under it:

* every 12th cache-missing query sleeps past the request deadline
  (clients see a 503 ``deadline_exceeded`` — shed, not broken),
* every 2nd hot reload delivers a truncated artefact (the validator
  quarantines it and the service keeps answering from the last good
  snapshot, stamped ``degraded_mode``),
* every 50th response is cut mid-flight (clients reconnect).

Classification: 200 is good (degraded counts — it is a correct answer
from the last good snapshot), 429/503 is shed (the server protected
itself), anything else — including mid-flight disconnects — is bad.
The acceptance bar is goodput >= 80% with all faults firing, and the
service must recover to ``healthy`` after one rollback at most.

The run also audits the observability trail: every fault-hit response
the clients saw (by ``X-Request-Id``) must appear in the JSONL access
log with the same status and error code — chaos is exactly when the
log has to be trustworthy.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

from _report import emit, emit_json
from bench_serving import _AsyncHarness

from repro.serve import (
    AccessLog,
    OpinionService,
    ServeFaultInjector,
    read_access_log,
)
from repro.serve.server import ServeError
from repro.storage import save

CLIENT_THREADS = 4
REQUESTS_PER_THREAD = 150
GOODPUT_FLOOR = 0.80
REQUEST_DEADLINE = 0.25
RELOAD_INTERVAL = 0.2

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


def bench_serve_chaos(benchmark, interpreted, tmp_path_factory):
    table = interpreted["Surveyor"]
    artefact = save(
        table, tmp_path_factory.mktemp("chaos") / "opinions.json"
    )
    injector = ServeFaultInjector(
        seed=2015,
        slow_every_nth=12,
        slow_seconds=REQUEST_DEADLINE + 0.1,
        corrupt_every_nth=2,
        corrupt_mode="truncate",
        disconnect_every_nth=50,
    )
    access_path = (
        tmp_path_factory.mktemp("chaos-log") / "access.jsonl"
    )
    access_log = AccessLog(access_path)
    service = OpinionService(
        table,
        source_path=artefact,
        request_deadline=REQUEST_DEADLINE,
        fault_injector=injector,
        access_log=access_log,
    )
    server = _AsyncHarness(service)

    stop_reloads = threading.Event()
    reload_outcomes = {"ok": 0, "rejected": 0}

    def reloader():
        # Keep swapping (and sometimes corrupting) the artefact under
        # live traffic; a rejected reload leaves the service degraded
        # until the next good one lands.
        while not stop_reloads.wait(RELOAD_INTERVAL):
            try:
                service.reload()
                reload_outcomes["ok"] += 1
            except ServeError:
                reload_outcomes["rejected"] += 1

    def worker(offset, tallies, latencies, faulted):
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port
        )
        try:
            for number in range(REQUESTS_PER_THREAD):
                query = WORKLOAD[(offset + number) % len(WORKLOAD)]
                started = time.perf_counter()
                try:
                    connection.request(
                        "GET",
                        "/query?q=" + query.replace(" ", "+"),
                    )
                    response = connection.getresponse()
                    body = response.read()
                    status = response.status
                except (
                    http.client.HTTPException,
                    ConnectionError,
                    OSError,
                ):
                    # Mid-flight disconnect: reconnect and move on.
                    tallies["bad"] += 1
                    connection.close()
                    connection = http.client.HTTPConnection(
                        "127.0.0.1", server.port
                    )
                    continue
                latencies.append(time.perf_counter() - started)
                if status == 200:
                    tallies["ok"] += 1
                elif status in (429, 503):
                    tallies["shed"] += 1
                else:
                    tallies["bad"] += 1
                if status != 200:
                    # Remember what the client saw so the access-log
                    # audit can cross-check it afterwards.
                    envelope = json.loads(body)
                    faulted.append(
                        (
                            response.headers["X-Request-Id"],
                            status,
                            envelope["code"],
                        )
                    )
        finally:
            connection.close()

    def measure():
        per_thread = [
            ({"ok": 0, "shed": 0, "bad": 0}, [], [])
            for _ in range(CLIENT_THREADS)
        ]
        reload_thread = threading.Thread(target=reloader)
        reload_thread.start()
        threads = [
            threading.Thread(
                target=worker,
                args=(offset,) + per_thread[offset],
            )
            for offset in range(CLIENT_THREADS)
        ]
        started = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - started
        stop_reloads.set()
        reload_thread.join()
        tallies = {"ok": 0, "shed": 0, "bad": 0}
        for bucket, _, _ in per_thread:
            for key in tallies:
                tallies[key] += bucket[key]
        latencies = sorted(
            latency
            for _, bucket, _ in per_thread
            for latency in bucket
        )
        faulted = [
            entry
            for _, _, bucket in per_thread
            for entry in bucket
        ]
        return wall, tallies, latencies, faulted

    try:
        wall, tallies, latencies, faulted = benchmark.pedantic(
            measure, rounds=1, iterations=1
        )
        # Recovery: one rollback at most clears any lingering
        # degraded state left by the final (possibly corrupt) reload.
        if service.degraded:
            service.rollback()
        recovered = service.health_state()
    finally:
        server.shutdown()

    # Observability audit: every fault the clients saw must have an
    # access-log line with the same request id, status, and code.
    # A request writes its log line after its response is on the
    # wire, so give stragglers a moment to land.
    wanted = {entry[0] for entry in faulted}
    logged = {}
    for _ in range(100):
        access_log.flush()
        logged = {
            record["request_id"]: record
            for record in read_access_log(access_path)
        }
        if wanted <= logged.keys():
            break
        time.sleep(0.02)
    access_log.close()
    missing = [
        entry
        for entry in faulted
        if entry[0] not in logged
        or logged[entry[0]]["status"] != entry[1]
        or logged[entry[0]]["code"] != entry[2]
    ]
    assert faulted and not missing, (
        f"{len(missing)} of {len(faulted)} fault-hit requests "
        f"missing or mismatched in the access log: {missing[:5]}"
    )

    total = CLIENT_THREADS * REQUESTS_PER_THREAD
    assert sum(tallies.values()) == total
    goodput = tallies["ok"] / total
    qps = total / wall
    p50 = _quantile(latencies, 0.50) if latencies else 0.0
    p99 = _quantile(latencies, 0.99) if latencies else 0.0
    fired = injector.fired_counts()
    lines = [
        f"Chaos serving ({CLIENT_THREADS} client threads x "
        f"{REQUESTS_PER_THREAD} requests, faults active)",
        f"goodput:    {goodput * 100:6.1f} % "
        f"({tallies['ok']} ok / {tallies['shed']} shed / "
        f"{tallies['bad']} bad)",
        f"throughput: {qps:9.0f} requests/s",
        f"latency:    p50 {p50 * 1e6:7.0f} us   "
        f"p99 {p99 * 1e6:7.0f} us",
        f"faults:     {fired}",
        f"reloads:    {reload_outcomes['ok']} swapped / "
        f"{reload_outcomes['rejected']} rejected",
        f"audit:      {len(faulted)} fault responses matched in "
        f"the access log ({len(logged)} lines)",
        f"health after rollback: {recovered}",
    ]
    emit("serve_chaos", lines)
    emit_json(
        "serve_chaos",
        {
            "client_threads": CLIENT_THREADS,
            "requests": total,
            "wall_seconds": wall,
            "goodput": goodput,
            "ok": tallies["ok"],
            "shed": tallies["shed"],
            "bad": tallies["bad"],
            "qps": qps,
            "p50_seconds": p50,
            "p99_seconds": p99,
            "faults_fired": fired,
            "reloads_ok": reload_outcomes["ok"],
            "reloads_rejected": reload_outcomes["rejected"],
            "goodput_floor": GOODPUT_FLOOR,
            "faults_audited": len(faulted),
            "access_log_lines": len(logged),
        },
    )
    assert recovered == "healthy", (
        f"service stuck {recovered} after rollback"
    )
    assert fired.get("corrupt", 0) > 0 and fired.get("slow", 0) > 0, (
        f"chaos run exercised no faults: {fired}"
    )
    assert goodput >= GOODPUT_FLOOR, (
        f"goodput {goodput:.1%} under injected faults is below the "
        f"{GOODPUT_FLOOR:.0%} floor ({tallies})"
    )
