"""Start ``repro serve``: one assembly for both run modes.

``--workers 1`` runs the asyncio core (:mod:`repro.serve.aio`) in this
process with no supervisor, so a benchmark wrapping the process sees
every request and reads the server's own RSS. ``--workers N`` forks N
asyncio workers on ``SO_REUSEPORT`` sockets under
:func:`~repro.serve.workers.supervise`; they serve the table loaded
here.

Flag values are range-checked when the command line is parsed; the
opinions artefact and the ingest knowledge base are read by
:func:`run` before any socket is bound or worker forked. Every serving
process then builds its service (:func:`build_service`), serves until
SIGTERM, and flushes its trace and access log after the drain. The
startup notices print once, from the lone process or worker 0; the
banner prints once, when the address accepts connections.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import socket
import sys
from typing import Callable

from ..core.result import OpinionTable
from ..kb.knowledge_base import KnowledgeBase
from ..kb.seeds import evaluation_kb
from ..obs import MetricsRegistry, Tracer
from ..storage import load
from .access_log import AccessLog
from .aio import serve_async
from .faults import ServeFaultInjector
from .server import OpinionService, load_provenance_sidecar
from .workers import WorkerRuntime, make_reuseport_socket, supervise


def run(args: argparse.Namespace) -> int:
    """Serve ``args.opinions`` until SIGTERM/Ctrl-C; the exit code."""
    table = load(args.opinions, "opinions")
    kb = None
    if args.ingest_journal:
        kb = (
            load(args.ingest_kb, "knowledge_base")
            if args.ingest_kb
            else evaluation_kb()
        )

    def banner(port: int) -> None:
        # Parsable by scripts (and tests): the bound port is
        # authoritative when --port 0 asked for an ephemeral one.
        print(
            f"repro serve: serving {len(table)} opinions "
            f"on http://{args.host}:{port}",
            file=sys.stderr,
            flush=True,
        )

    if args.workers == 1:
        return _serve_process(args, table, kb, on_started=banner)
    parent_pid = os.getpid()

    def child_main(
        index: int, port: int, runtime_dir: str, ready_fd: int
    ) -> int:
        return _serve_process(
            args, table, kb,
            index=index,
            runtime=WorkerRuntime(
                runtime_dir, index, args.workers, parent_pid
            ),
            sock=make_reuseport_socket(args.host, port),
            on_started=lambda _port: os.write(ready_fd, b"1"),
        )

    return supervise(
        args.host, args.port, args.workers, args.drain_timeout,
        child_main, banner=banner,
    )


def _serve_process(
    args: argparse.Namespace,
    table: OpinionTable,
    kb: KnowledgeBase | None,
    *,
    on_started: Callable[[int], object],
    index: int | None = None,
    runtime: WorkerRuntime | None = None,
    sock: socket.socket | None = None,
) -> int:
    """One serving process, from build to the shutdown flush."""
    service, ingest_factory = build_service(args, table, kb, index)
    try:
        return asyncio.run(
            serve_async(
                service,
                host=args.host,
                port=args.port,
                sock=sock,
                drain_timeout=args.drain_timeout,
                runtime=runtime,
                ingest_factory=ingest_factory,
                on_started=on_started,
            )
        )
    except KeyboardInterrupt:
        return 0
    finally:
        if service.tracer is not None:
            service.tracer.write_jsonl(_worker_path(args.trace, index))
        if service.access_log is not None:
            # After the drain: every in-flight request has logged its
            # line, so closing here flushes a complete record.
            service.access_log.close()
        if runtime is None:  # a supervisor says so for its workers
            print("repro serve: shut down cleanly", file=sys.stderr)


def _worker_path(path: str | None, index: int | None) -> str | None:
    """Per-worker sidecar path (worker 0 keeps the plain path)."""
    if path is None or not index:
        return path
    return f"{path}.w{index}"


def build_service(
    args: argparse.Namespace,
    table: OpinionTable,
    kb: KnowledgeBase | None = None,
    index: int | None = None,
) -> tuple[OpinionService, Callable[[], object] | None]:
    """One serving process's service over ``table``, and the factory
    that rebuilds its ingest pipeline over ``kb`` (None without a
    journal). Each process has its own metrics registry; worker
    ``index`` writes its access log and trace under ``.w<index>``."""
    notices = not index  # the lone process, or worker 0
    registry = MetricsRegistry()
    provenance = load_provenance_sidecar(args.opinions)
    if provenance is not None and notices:
        print(
            f"repro serve: loaded evidence lineage "
            f"({provenance.n_pairs} pairs) for /explain",
            file=sys.stderr,
        )
    pipeline = ingest_factory = None
    if args.ingest_journal:
        from ..ingest import CorpusJournal, IngestPipeline

        def ingest_factory() -> IngestPipeline:
            # Rebuilds pick their persisted state back up from the
            # journal directory (a sibling worker may have advanced
            # it; see AsyncReproServer._resync_pipeline).
            return IngestPipeline(
                kb=kb,
                journal=CorpusJournal(args.ingest_journal),
                occurrence_threshold=args.ingest_threshold,
                warm_start=args.ingest_warm_start,
                registry=registry,
            )

        pipeline = ingest_factory()
        if notices:
            _ingest_notice(pipeline)
    access_log = None
    if args.access_log:
        access_log = AccessLog(
            _worker_path(args.access_log, index),
            max_bytes=args.access_log_max_bytes,
        )
    service = OpinionService(
        table,
        source_path=args.opinions,
        provenance=provenance,
        ingest_pipeline=pipeline,
        drift_guard_fraction=args.drift_guard_fraction,
        cache_size=args.cache_size,
        max_inflight=args.max_inflight,
        registry=registry,
        # A server adopts one span per sampled request indefinitely,
        # so cap retention to the most recent spans (batch runs stay
        # uncapped — they want the full tree).
        tracer=(
            Tracer(enabled=True, max_spans=10_000) if args.trace else None
        ),
        request_deadline=args.request_deadline_ms / 1000.0,
        queue_depth=args.queue_depth,
        client_rate=args.client_rate,
        client_burst=args.client_burst,
        fault_injector=(
            ServeFaultInjector.parse(args.fault_inject)
            if args.fault_inject
            else None
        ),
        access_log=access_log,
        trace_sample=args.trace_sample,
        trace_slow_seconds=args.trace_slow_ms / 1000.0,
    )
    return service, ingest_factory


def _ingest_notice(pipeline) -> None:
    journal = pipeline.journal
    if pipeline.state.fresh:
        # Accepted batches publish tables built from *journaled*
        # evidence only; an empty journal would wipe the batch
        # answers on the first POST /admin/ingest.
        print(
            f"repro serve: ingest state under {journal.directory}"
            " is fresh — published generations will reflect only"
            " journaled documents; bootstrap the journal with"
            " 'repro ingest' over the full corpus first",
            file=sys.stderr,
        )
    else:
        print(
            f"repro serve: ingest journal at {journal.directory} "
            f"(offset {journal.last_offset}, generation "
            f"{pipeline.state.generation}); "
            "POST /admin/ingest accepts documents",
            file=sys.stderr,
        )
