"""Start ``repro serve``: one assembly for both run modes.

``--workers 1`` runs the asyncio core (:mod:`repro.serve.aio`) in this
process with no supervisor, so a benchmark wrapping the process sees
every request and reads the server's own RSS. ``--workers N`` forks N
asyncio workers on ``SO_REUSEPORT`` sockets under
:func:`~repro.serve.workers.supervise`; they serve the table loaded
here. An ingest journal has one writer: ``--ingest-journal`` needs
``--workers 1`` and is refused otherwise, before anything is opened.

Flag values are range-checked when the command line is parsed. What
the flags name on disk is opened by :func:`run` before any socket is
bound or worker forked: the opinions artefact and its lineage sidecar,
every serving process's ``--access-log`` file, and with
``--ingest-journal`` the knowledge base, the journal and its state. A
bad path is then one ``repro: error:`` line in both run
modes, and the workers inherit what was read. An ingest pipeline
catches up to the generation its last publish recorded before any
socket is bound (:meth:`~repro.ingest.IngestPipeline.catch_up`).
Every serving process then builds its service (:func:`build_service`),
serves until SIGTERM, and after the drain flushes its trace and
access log and checkpoints its ingest state (unless a ``repro ingest``
run has checkpointed the journal further). The startup
notices print once, from the lone process or worker 0; the banner
prints once, when the address accepts connections.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import socket
import sys
from typing import Callable

from ..core.errors import ReproError
from ..core.result import OpinionTable
from ..extraction.provenance import ProvenanceIndex
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
    if args.ingest_journal and args.workers > 1:
        raise ReproError(
            f"--ingest-journal needs --workers 1 (got {args.workers}): "
            "a journal takes one writer"
        )
    table = load(args.opinions, "opinions")
    provenance = load_provenance_sidecar(args.opinions)
    # One registry per process: each worker gets its own copy at fork.
    registry = MetricsRegistry()
    pipeline = None
    if args.ingest_journal:
        pipeline = _ingest_pipeline(args, registry)
        # Serve the published generation with the state behind it:
        # replay what the checkpoint lacks now, not in the first POST,
        # and checkpoint it so the next restart does not replay it.
        pipeline.catch_up()
        if pipeline.pending:
            pipeline.checkpoint()
    access_logs = {}
    if args.access_log:
        for index in (None,) if args.workers == 1 else range(args.workers):
            access_logs[index] = AccessLog(
                _worker_path(args.access_log, index),
                max_bytes=args.access_log_max_bytes,
            )

    def service_for(index: int | None) -> OpinionService:
        return build_service(
            args, table, provenance, registry, pipeline, index,
            access_logs.get(index),
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
        return _serve_process(args, service_for(None), on_started=banner)
    parent_pid = os.getpid()

    def child_main(
        index: int, port: int, runtime_dir: str, ready_fd: int
    ) -> int:
        return _serve_process(
            args, service_for(index),
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


def _ingest_pipeline(args: argparse.Namespace, registry: MetricsRegistry):
    """The pipeline over ``--ingest-journal``; it rebuilds itself from
    the journal directory when a ``repro ingest`` run has appended
    (:meth:`~repro.ingest.IngestPipeline.reopen`)."""
    from ..ingest import CorpusJournal, IngestPipeline

    return IngestPipeline(
        kb=(
            load(args.ingest_kb, "knowledge_base")
            if args.ingest_kb
            else evaluation_kb()
        ),
        journal=CorpusJournal(args.ingest_journal),
        occurrence_threshold=args.ingest_threshold,
        warm_start=args.ingest_warm_start,
        registry=registry,
        published=args.opinions,
    )


def _serve_process(
    args: argparse.Namespace,
    service: OpinionService,
    *,
    on_started: Callable[[int], object],
    index: int | None = None,
    runtime: WorkerRuntime | None = None,
    sock: socket.socket | None = None,
) -> int:
    """One serving process, from serving to the shutdown flush."""
    try:
        return asyncio.run(
            serve_async(
                service,
                host=args.host,
                port=args.port,
                sock=sock,
                drain_timeout=args.drain_timeout,
                runtime=runtime,
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
        # After the drain (asyncio.run has joined the ingest threads):
        # the next process starts from this checkpoint.
        _drain_checkpoint(service.ingest_pipeline)
        if runtime is None:  # a supervisor says so for its workers
            print("repro serve: shut down cleanly", file=sys.stderr)


def _drain_checkpoint(pipeline) -> None:
    """Checkpoint what ``pipeline`` applied since its last checkpoint,
    unless a ``repro ingest`` run has since checkpointed the journal
    further: an older state must not overwrite a newer one."""
    from ..ingest.state import load_state

    if pipeline is None or not pipeline.pending:
        return
    disk = load_state(pipeline.journal.directory)
    if disk.applied_offset <= pipeline.state.applied_offset:
        pipeline.checkpoint()


def _worker_path(path: str | None, index: int | None) -> str | None:
    """Per-worker sidecar path (worker 0 keeps the plain path)."""
    if path is None or not index:
        return path
    return f"{path}.w{index}"


def build_service(
    args: argparse.Namespace,
    table: OpinionTable,
    provenance: ProvenanceIndex | None,
    registry: MetricsRegistry,
    pipeline: object | None = None,
    index: int | None = None,
    access_log: AccessLog | None = None,
) -> OpinionService:
    """One serving process's service over ``table``, recording into
    ``registry``, ingesting through ``pipeline`` (None without a
    journal) and logging requests to ``access_log`` (opened before the
    fork, at ``.w<index>`` for worker ``index``, as its trace is)."""
    if not index:  # the lone process, or worker 0
        if provenance is not None:
            print(
                f"repro serve: loaded evidence lineage "
                f"({provenance.n_pairs} pairs) for /explain",
                file=sys.stderr,
            )
        if pipeline is not None:
            _ingest_notice(pipeline)
    return OpinionService(
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
