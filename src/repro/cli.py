"""Command-line interface.

Subcommands::

    python -m repro demo                      end-to-end demo run
    python -m repro mine  ...                 mine opinions from raw text
    python -m repro ingest ...                append docs to a journal, refit incrementally
    python -m repro query ...                 query a mined opinion table
    python -m repro explain ...               full lineage for one answer
    python -m repro diff  ...                 drift between two tables
    python -m repro serve ...                 HTTP query API over a table
    python -m repro top   ...                 live console over a server
    python -m repro eval                      reproduce the Table 3 comparison
    python -m repro stats trace.jsonl         inspect a recorded trace
    python -m repro calibrate ...             subjective->objective bridge

``mine`` reads documents from a file (one document per line) or a
directory of ``.txt`` files, against a knowledge base saved with
:mod:`repro.storage` (or the built-in evaluation KB). ``mine`` and
``ingest`` publish through one writer,
:func:`~repro.obs.manifest.publish_table`. ``query``, ``ask`` and
``explain`` answer through the HTTP routes' own methods in both output
modes, with the routes' exit codes: 2 for a rejected input, 1 for
nothing found.

``demo``, ``mine``, and ``reproduce`` accept the observability flags
``--trace`` (JSONL span trace), ``--metrics-out`` (metric registry as
JSON, EM convergence records included), ``--profile`` (per-stage
profile on stderr after the run), and ``--profile-mem`` (additionally
sample peak RSS and tracemalloc per span); ``stats`` renders a
recorded trace.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .core.errors import ReproError
from .core.types import PropertyTypeKey, SubjectiveProperty
from .corpus.document import Document, WebCorpus
from .kb.knowledge_base import KnowledgeBase
from .kb.seeds import evaluation_kb
from .obs import (
    CATALOG,
    MetricsRegistry,
    Tracer,
    load_convergence,
    load_metrics_file,
    publish_table,
    read_trace,
    records_to_payload,
    render_convergence,
    render_metrics,
    render_trace,
    validate_metrics_payload,
    validate_spans,
)
from .pipeline.mapreduce import EXECUTORS
from .storage import load, provenance_path_for, save

#: Exit code for operational failures (bad input files, corrupt
#: artefacts); distinct from 1, which subcommands use for "ran fine
#: but found nothing".
EXIT_USAGE = 2


def _fail(message: str) -> "SystemExit":
    """One-line operational failure: message on stderr, exit code 2."""
    print(f"repro: error: {message}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


def _read_corpus(path: Path, region: str = "") -> WebCorpus:
    """One document per line of a file, or one per .txt file of a dir."""
    if not path.exists():
        raise _fail(f"corpus not found: {path}")
    corpus = WebCorpus()
    source = path
    try:
        if path.is_dir():
            for source in sorted(path.glob("*.txt")):
                text = source.read_text(encoding="utf-8")
                corpus.add(Document(source.stem, text, region))
        else:
            with path.open(encoding="utf-8") as handle:
                for index, line in enumerate(handle):
                    line = line.strip()
                    if line:
                        corpus.add(Document(f"line-{index:06d}", line, region))
    except UnicodeDecodeError as error:
        raise ReproError(f"{source}: undecodable corpus: {error}") from error
    if not len(corpus):
        raise _fail(f"no documents found under {path}")
    return corpus


def _load_kb(path: str | None) -> KnowledgeBase:
    if path is None:
        return evaluation_kb()
    return load(path, "knowledge_base")


def _checked(cast, rule: str, holds):
    """An argparse ``type=``: cast the flag value and check ``holds``,
    so a bad value is a usage error naming the flag (exit 2) before
    anything is loaded, bound or forked. NaN holds no rule."""

    def parse(text: str):
        value = cast(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(
                f"must be {rule}, got {value}"
            )
        return value

    parse.__name__ = cast.__name__  # "invalid int value: 'x'"
    return parse


_AT_LEAST_1 = _checked(int, "at least 1", lambda v: v >= 1)
_COUNT = _checked(int, "non-negative", lambda v: v >= 0)
_PORT = _checked(int, "in [0, 65535]", lambda v: 0 <= v <= 65535)
_POSITIVE = _checked(float, "positive", lambda v: v > 0)
_NON_NEGATIVE = _checked(float, "non-negative", lambda v: v >= 0)
_BURST = _checked(float, "at least 1", lambda v: v >= 1)
_FRACTION = _checked(float, "in (0, 1]", lambda v: 0 < v <= 1)


def _fault_spec(text: str) -> str:
    """``--fault-inject``: parsed once here for its errors; each
    serving process parses its own injector from the spec."""
    from .serve.faults import ServeFaultInjector

    try:
        ServeFaultInjector.parse(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return text


# ---------------------------------------------------------------------------
# Observability plumbing shared by demo / mine / reproduce
# ---------------------------------------------------------------------------

def _build_obs(
    args: argparse.Namespace,
) -> tuple[Tracer | None, MetricsRegistry | None]:
    """Tracer/registry per the run's flags (None = stay on the fast
    path; ``--profile``/``--profile-mem`` need spans even without
    ``--trace``)."""
    profile_mem = getattr(args, "profile_mem", False)
    tracer = (
        Tracer(enabled=True, profile_memory=profile_mem)
        if (args.trace or args.profile or profile_mem)
        else None
    )
    registry = MetricsRegistry() if args.metrics_out else None
    return tracer, registry


def _finish_obs(
    args: argparse.Namespace,
    tracer: Tracer | None,
    registry: MetricsRegistry | None,
    convergence: list[ConvergenceRecord] | None = None,
) -> None:
    """Flush the run's telemetry to wherever the flags pointed."""
    if tracer is not None and args.trace:
        tracer.write_jsonl(args.trace)
        print(
            f"wrote trace ({len(tracer)} spans) to {args.trace}",
            file=sys.stderr,
        )
    if registry is not None and args.metrics_out:
        extra = (
            {"em_convergence": records_to_payload(convergence)}
            if convergence
            else None
        )
        registry.write_json(args.metrics_out, extra=extra)
        print(
            f"wrote {len(registry.names())} metrics to "
            f"{args.metrics_out}",
            file=sys.stderr,
        )
    if tracer is not None and (
        args.profile or getattr(args, "profile_mem", False)
    ):
        print(render_trace(tracer.export_spans()), file=sys.stderr)
        if convergence:
            print(render_convergence(convergence), file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_demo(args: argparse.Namespace) -> int:
    from .corpus.generator import CorpusGenerator
    from .evaluation.harness import EvaluationHarness
    from .pipeline.runner import SurveyorPipeline

    harness = EvaluationHarness(seed=args.seed)
    corpus = CorpusGenerator(seed=args.seed).generate(
        *harness.scenarios()
    )
    tracer, registry = _build_obs(args)
    pipeline = SurveyorPipeline(
        kb=harness.kb,
        occurrence_threshold=100,
        tracer=tracer,
        registry=registry,
    )
    report = pipeline.run(corpus)
    _finish_obs(args, tracer, registry, report.convergence)
    print(report.summary())
    cute = PropertyTypeKey(SubjectiveProperty("cute"), "animal")
    if cute in report.result.fits:
        print("\ncute animals, most confident first:")
        for opinion in report.opinions.entities_with(cute)[:8]:
            print(
                f"  {opinion.entity_id:24s} p={opinion.probability:.3f}"
            )
    return 0


def cmd_mine(args: argparse.Namespace) -> int:
    from .extraction.patterns import PATTERN_VERSIONS
    from .pipeline.resilience import RetryPolicy
    from .pipeline.runner import SurveyorPipeline

    kb = _load_kb(args.kb)
    corpus = _read_corpus(Path(args.corpus), region=args.region)
    tracer, registry = _build_obs(args)
    started_unix = time.time()
    started = time.perf_counter()
    pipeline = SurveyorPipeline(
        kb=kb,
        pattern_config=PATTERN_VERSIONS[args.patterns],
        occurrence_threshold=args.threshold,
        n_workers=args.workers,
        executor=args.executor,
        strict=args.strict,
        checkpoint_dir=args.checkpoint_dir,
        retry_policy=(
            RetryPolicy(max_attempts=args.retries)
            if args.retries is not None
            else None
        ),
        shard_timeout=args.shard_timeout,
        tracer=tracer,
        registry=registry,
        fast_path=not args.no_fast_path,
        strict_parity=args.strict_parity,
        provenance=not args.no_provenance,
    )
    report = pipeline.run(corpus)
    _finish_obs(args, tracer, registry, report.convergence)
    print(report.summary(), file=sys.stderr)
    manifest_path = publish_table(
        report.opinions,
        args.out,
        command="mine",
        config={
            "corpus": str(args.corpus),
            "kb": args.kb,
            "patterns": args.patterns,
            "threshold": args.threshold,
            "region": args.region,
            "workers": args.workers,
            "executor": args.executor,
            "strict": args.strict,
            "checkpoint_dir": args.checkpoint_dir,
            "retries": args.retries,
            "shard_timeout": args.shard_timeout,
            "fast_path": not args.no_fast_path,
            "strict_parity": args.strict_parity,
            "provenance": not args.no_provenance,
        },
        started_unix=started_unix,
        duration_seconds=time.perf_counter() - started,
        provenance=report.provenance,
        health=report.health,
        outputs={
            role: path
            for role, path in (
                ("trace", args.trace), ("metrics", args.metrics_out)
            )
            if path
        },
    )
    print(f"wrote {len(report.opinions)} opinions to {args.out}")
    if report.provenance is not None:
        print(
            f"wrote evidence lineage ({report.provenance.n_pairs} "
            f"pairs, {report.provenance.n_samples} samples) to "
            f"{provenance_path_for(args.out)}",
            file=sys.stderr,
        )
    print(f"wrote run manifest to {manifest_path}", file=sys.stderr)
    if args.params_out:
        save(
            {
                key: fit.parameters
                for key, fit in report.result.fits.items()
            },
            args.params_out,
        )
        print(f"wrote parameters to {args.params_out}")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    """Append documents to a corpus journal and publish a refitted
    opinion table incrementally (see docs/ingestion.md)."""
    from .ingest import IngestPipeline, CorpusJournal

    corpus = _read_corpus(Path(args.corpus), args.region)
    kb = _load_kb(args.kb)
    journal = CorpusJournal(args.journal)
    if journal.truncated_bytes:
        print(
            f"repro ingest: repaired a torn journal tail "
            f"({journal.truncated_bytes} bytes truncated)",
            file=sys.stderr,
        )
    pipeline = IngestPipeline(
        kb=kb,
        journal=journal,
        occurrence_threshold=args.threshold,
        fast_path=not args.no_fast_path,
        provenance=not args.no_provenance,
        warm_start=args.warm_start,
        published=args.out,
    )
    started_unix = time.time()
    started = time.perf_counter()
    report = pipeline.ingest(list(corpus.documents))
    out = pipeline.publish(
        report,
        args.out,
        started_unix=started_unix,
        duration_seconds=time.perf_counter() - started,
    )
    # The journal passes to whatever process opens it next.
    if pipeline.pending:
        pipeline.checkpoint()
    print(
        f"appended {report.documents} documents "
        f"(+{report.statements} statements; journal offset "
        f"{report.journal_offset}, generation {report.generation})"
    )
    print(
        f"refit {report.refitted} dirty combination(s), reused "
        f"{report.reused} cached fit(s) in "
        f"{report.refit_seconds:.3f}s"
    )
    print(f"published {len(report.table)} opinions to {out}")
    return 0


def _service(opinions: str, *, lineage: bool = False):
    """A plain :class:`~repro.serve.OpinionService` over the table: the
    CLI's answers come from the HTTP routes' own methods."""
    from .serve import OpinionService, load_provenance_sidecar

    return OpinionService(
        load(opinions, "opinions"),
        provenance=(
            load_provenance_sidecar(opinions) if lineage else None
        ),
    )


def _answer(args: argparse.Namespace, answer, text_lines) -> int:
    """Print the route's ``answer()``: its bytes (body or 4xx envelope)
    with ``--format json``, else ``text_lines(response)``, or one
    ``repro <cmd>: <message>`` stderr line for a rejected request."""
    from .serve import ServeError, error_response
    from .serve.schema import render

    as_json = args.format == "json"
    try:
        entry, _ = answer()
    except ServeError as error:
        if as_json:
            print(render(error_response(error.code, str(error))).decode())
        else:
            print(f"repro {args.command}: {error}", file=sys.stderr)
        return 1 if error.code == "not_found" else EXIT_USAGE
    response = entry.response
    if as_json:
        print(entry.body.decode())
    else:
        for line in text_lines(response):
            print(line)
    return 0 if response.get("hits", True) else 1


def _listing_lines(response: dict):
    if not response["hits"]:
        yield "no matching entities"
    for hit in response["hits"]:
        yield (
            f"{hit['entity']:30s} p={hit['probability']:.3f} "
            f"(+{hit['positive']}/-{hit['negative']})"
        )


def _ask_lines(response: dict):
    if not response["hits"]:
        yield "no answers"
    for hit in response["hits"]:
        marker = "*" if hit["confident"] else " "
        terms = " ".join(f"{p:.2f}" for p in hit["per_term"])
        yield (
            f"{marker} {hit['entity']:30s} score={hit['score']:.3f} "
            f"[{terms}]"
        )


def _explain_lines(payload: dict):
    lineage = payload["lineage"]
    evidence = payload["evidence"]
    yield (
        f"{payload['entity']} / {payload['property']} "
        f"({payload['entity_type']}): "
        f"p={payload['posterior']:.3f} "
        f"polarity={payload['polarity']} "
        f"(+{evidence['positive']}/-{evidence['negative']})"
        + ("  [degraded]" if payload["degraded"] else "")
    )
    model = payload["model"]
    if model is not None:
        yield (
            f"  model: pA={model['agreement']:.3f} "
            f"p+S={model['rate_positive']:.3f} "
            f"p-S={model['rate_negative']:.3f}"
        )
    conv = payload["convergence"]
    if conv is not None:
        yield (
            f"  em: {conv.get('verdict', 'unknown')} after "
            f"{conv.get('iterations', 0)} iteration(s)"
        )
    if not lineage["available"]:
        yield (
            "  lineage: unavailable (no provenance sidecar next to "
            "the opinion table)"
        )
        return
    yield (
        f"  lineage: {lineage['positive_seen'] or 0} positive / "
        f"{lineage['negative_seen'] or 0} negative statements seen"
    )
    for sample in lineage["samples"]:
        yield (
            f"    [{sample['polarity']}] {sample['doc_id']}#"
            f"{sample['sentence_index']} via {sample['pattern']}"
            + (
                f" ({sample['negations']} negation(s))"
                if sample["negations"]
                else ""
            )
        )
        if sample["sentence"]:
            yield f"      {sample['sentence']}"


def cmd_query(args: argparse.Namespace) -> int:
    service = _service(args.opinions)
    return _answer(
        args,
        lambda: service.listing_entry(
            args.property, args.type, negative=args.negative,
            min_probability=args.min_probability, top=args.top,
        ),
        _listing_lines,
    )


def cmd_ask(args: argparse.Namespace) -> int:
    service = _service(args.opinions)
    return _answer(
        args,
        lambda: service.ask_entry(args.query, top=args.top),
        _ask_lines,
    )


def cmd_explain(args: argparse.Namespace) -> int:
    """Full lineage for one (entity, property) answer."""
    service = _service(args.opinions, lineage=True)
    return _answer(
        args,
        lambda: service.explain_entry(args.entity, args.property, args.type),
        _explain_lines,
    )


def cmd_diff(args: argparse.Namespace) -> int:
    """Generation drift between two opinion tables.

    The same comparison the server runs on every reload/rollback.
    Exit codes: 0 no flipped decisions, 1 at least one flip.
    """
    from .obs.drift import compare_tables

    report = compare_tables(
        load(args.before, "opinions"), load(args.after, "opinions")
    )
    if args.format == "json":
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.render())
    return 1 if report.flips else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a table over HTTP (see :mod:`repro.serve.launch`)."""
    from .serve.launch import run

    return run(args)


def cmd_top(args: argparse.Namespace) -> int:
    """Live terminal dashboard over a running ``repro serve``."""
    from .obs.live import run_top

    try:
        return run_top(
            args.url, interval=args.interval, once=args.once
        )
    except KeyboardInterrupt:
        return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from .evaluation.harness import EvaluationHarness

    harness = EvaluationHarness(seed=args.seed)
    print("Table 3 — method comparison")
    for score in harness.table3():
        print("  " + score.row())
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    from .evaluation.report import full_report

    tracer, registry = _build_obs(args)
    report = full_report(
        seed=args.seed,
        fast=not args.full,
        tracer=tracer,
        registry=registry,
    )
    _finish_obs(args, tracer, registry)
    print(report.text())
    if args.out:
        Path(args.out).write_text(report.text() + "\n")
        print(f"\nwrote report to {args.out}", file=sys.stderr)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Render (and optionally validate) recorded telemetry artefacts."""
    trace_path = Path(args.trace)
    # A run that recorded nothing is an answer, not an error: say so
    # in one line and exit 0. Corrupt traces still exit 2.
    if not trace_path.exists() or trace_path.stat().st_size == 0:
        print(f"repro stats: no data in {trace_path}")
        return 0
    spans = read_trace(args.trace)
    if args.validate:
        problems = validate_spans(spans)
        if problems:
            for problem in problems:
                print(
                    f"repro: invalid trace: {problem}",
                    file=sys.stderr,
                )
            return EXIT_USAGE
    print(render_trace(spans, top=args.top))
    if args.metrics:
        payload = load_metrics_file(args.metrics)
        if args.validate:
            problems = validate_metrics_payload(payload, CATALOG)
            if problems:
                for problem in problems:
                    print(
                        f"repro: invalid metrics: {problem}",
                        file=sys.stderr,
                    )
                return EXIT_USAGE
        print()
        print(render_metrics(payload))
        embedded = payload.get("em_convergence")
        if embedded:
            print()
            print(render_convergence(embedded))
    if args.convergence:
        print()
        print(
            render_convergence(load_convergence(args.convergence))
        )
    if args.validate:
        print("telemetry artefacts valid", file=sys.stderr)
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    from .core.calibration import fit_link

    try:
        prop = SubjectiveProperty.parse(args.property)
    except ValueError as error:
        raise ReproError(str(error)) from None
    table = load(args.opinions, "opinions")
    kb = _load_kb(args.kb)
    key = PropertyTypeKey(property=prop, entity_type=args.type)
    link = fit_link(
        table, key, kb.entities_of_type(args.type), args.attribute
    )
    print(link.describe())
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="PATH",
        help="write a JSONL span trace of the run here",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH",
        help="write the metric registry (and EM convergence records) "
             "as JSON here",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print the per-stage profile on stderr after the run",
    )
    parser.add_argument(
        "--profile-mem", action="store_true",
        help="also sample peak RSS and tracemalloc per span (implies "
             "--profile output; tracemalloc slows the run)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Surveyor: mining subjective properties on the Web",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the end-to-end demo")
    demo.add_argument("--seed", type=int, default=2015)
    _add_obs_flags(demo)
    demo.set_defaults(func=cmd_demo)

    mine = sub.add_parser("mine", help="mine opinions from raw text")
    mine.add_argument("corpus", help="text file (one doc/line) or dir of .txt")
    mine.add_argument("--kb", help="knowledge-base JSON (default: built-in)")
    mine.add_argument("--out", default="opinions.json")
    mine.add_argument("--params-out", help="also save fitted parameters")
    mine.add_argument("--threshold", type=_AT_LEAST_1, default=100,
                      help="occurrence threshold rho (default 100)")
    mine.add_argument("--patterns", type=int, choices=(1, 2, 3, 4),
                      default=4, help="extraction pattern version")
    mine.add_argument("--region", default="",
                      help="tag documents with this region (kept in "
                           "the manifest)")
    mine.add_argument("--workers", type=_AT_LEAST_1, default=4)
    mine.add_argument("--strict", action="store_true",
                      help="fail fast: no retries, no document "
                           "quarantine, raw tracebacks")
    mine.add_argument("--checkpoint-dir",
                      help="persist per-shard checkpoints here and "
                           "resume from them on rerun")
    mine.add_argument("--retries", type=_AT_LEAST_1,
                      help="shard attempts before giving up "
                           "(default 3)")
    mine.add_argument("--shard-timeout", type=_POSITIVE,
                      help="per-shard wall-clock budget in seconds "
                           "(process executor only; the run still "
                           "waits for an abandoned attempt)")
    mine.add_argument("--executor", choices=EXECUTORS,
                      default="serial",
                      help="shard executor (default serial)")
    mine.add_argument("--no-fast-path", action="store_true",
                      help="run the reference extraction path instead "
                           "of the prefilter+memo fast path")
    mine.add_argument("--strict-parity", action="store_true",
                      help="run BOTH extraction paths and fail on any "
                           "output divergence (roughly doubles map "
                           "cost)")
    mine.add_argument("--no-provenance", action="store_true",
                      help="skip evidence-lineage capture and the "
                           "<out>.provenance.json sidecar")
    _add_obs_flags(mine)
    mine.set_defaults(func=cmd_mine)

    ingest = sub.add_parser(
        "ingest",
        help="append documents to a corpus journal and refit "
             "incrementally (see docs/ingestion.md)",
    )
    ingest.add_argument("corpus",
                        help="text file (one doc/line) or dir of .txt")
    ingest.add_argument("--journal", required=True, metavar="DIR",
                        help="journal directory (created if missing); "
                             "evidence totals and cached fits persist "
                             "alongside the segments")
    ingest.add_argument("--kb",
                        help="knowledge-base JSON (default: built-in)")
    ingest.add_argument("--out", default="opinions.json",
                        help="publish the refitted table here "
                             "(default opinions.json)")
    ingest.add_argument("--threshold", type=_AT_LEAST_1, default=100,
                        help="occurrence threshold rho (default 100)")
    ingest.add_argument("--region", default="",
                        help="tag appended documents with this region")
    ingest.add_argument("--no-fast-path", action="store_true",
                        help="run the reference extraction path")
    ingest.add_argument("--no-provenance", action="store_true",
                        help="skip evidence-lineage capture and the "
                             "<out>.provenance.json sidecar")
    ingest.add_argument("--warm-start", action="store_true",
                        help="seed dirty refits from cached "
                             "parameters: much faster on small "
                             "appends, but trades exact bit-parity "
                             "with a cold batch run for last-ulp "
                             "differences")
    ingest.set_defaults(func=cmd_ingest)

    query = sub.add_parser("query", help="query a mined opinion table")
    query.add_argument("opinions", help="opinions JSON from 'mine'")
    query.add_argument("property", help='e.g. "cute" or "very big"')
    query.add_argument("type", help="entity type, e.g. animal")
    query.add_argument("--negative", action="store_true",
                       help="list entities NOT having the property")
    query.add_argument("--top", type=int, default=10)
    query.add_argument("--min-probability", type=float, default=0.0)
    query.add_argument("--format", choices=("text", "json"),
                       default="text",
                       help="json emits the serve_query payload, "
                            "identical to the HTTP server's")
    query.set_defaults(func=cmd_query)

    ask = sub.add_parser(
        "ask", help='answer a free-text query like "calm cheap cities"'
    )
    ask.add_argument("opinions", help="opinions JSON from 'mine'")
    ask.add_argument("query", help='e.g. "calm cheap cities"')
    ask.add_argument("--top", type=int, default=10)
    ask.add_argument("--format", choices=("text", "json"),
                     default="text",
                     help="json emits the serve_ask payload, "
                          "identical to the HTTP server's")
    ask.set_defaults(func=cmd_ask)

    explain = sub.add_parser(
        "explain",
        help="full lineage for one answer: posterior, counts, model "
             "parameters, EM verdict, sampled evidence sentences",
    )
    explain.add_argument("opinions", help="opinions JSON from 'mine'")
    explain.add_argument("entity", help="entity id, e.g. kitten")
    explain.add_argument("property", help='e.g. "cute" or "very big"')
    explain.add_argument("--type",
                         help="entity type (needed only when the "
                              "entity has the property under several "
                              "types)")
    explain.add_argument("--format", choices=("text", "json"),
                         default="text",
                         help="json emits the serve_explain payload, "
                              "identical to GET /explain")
    explain.set_defaults(func=cmd_explain)

    diff = sub.add_parser(
        "diff",
        help="generation drift between two opinion tables (flipped "
             "decisions, posterior deltas, entity churn)",
    )
    diff.add_argument("before", help="older opinions JSON")
    diff.add_argument("after", help="newer opinions JSON")
    diff.add_argument("--format", choices=("text", "json"),
                      default="text",
                      help="json emits the generation_drift payload")
    diff.set_defaults(func=cmd_diff)

    serve = sub.add_parser(
        "serve",
        help="serve a mined opinion table over a JSON HTTP API",
    )
    serve.add_argument("opinions", help="opinions JSON from 'mine'")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_PORT, default=8080,
                       help="0 binds an ephemeral port (printed on "
                            "stderr)")
    serve.add_argument("--workers", type=_AT_LEAST_1, default=1,
                       help="forked asyncio worker processes sharing "
                            "the port via SO_REUSEPORT (default 1 = "
                            "single process, no supervisor)")
    serve.add_argument("--cache-size", type=_AT_LEAST_1, default=1024,
                       help="LRU result-cache entries (default 1024)")
    serve.add_argument("--max-inflight", type=_AT_LEAST_1, default=32,
                       help="concurrent requests admitted before "
                            "queueing/shedding (default 32)")
    serve.add_argument("--request-deadline-ms", type=_POSITIVE,
                       default=250.0,
                       help="per-request wall-clock budget; past it "
                            "the request is shed with 503 "
                            "deadline_exceeded (default 250)")
    serve.add_argument("--queue-depth", type=_COUNT, default=16,
                       help="requests allowed to wait briefly for an "
                            "in-flight slot before 503 (default 16)")
    serve.add_argument("--client-rate", type=_NON_NEGATIVE, default=0.0,
                       help="per-client sustained requests/second; "
                            "over it replies 429 (default 0 = "
                            "disabled)")
    serve.add_argument("--client-burst", type=_BURST, default=20.0,
                       help="per-client token-bucket burst "
                            "(default 20)")
    serve.add_argument("--drain-timeout", type=_NON_NEGATIVE,
                       default=5.0,
                       help="seconds to wait for in-flight requests "
                            "after SIGTERM (default 5)")
    serve.add_argument("--fault-inject", metavar="SPEC", type=_fault_spec,
                       help="chaos testing: e.g. 'slow_every=5,"
                            "slow_ms=300,corrupt_every=2,"
                            "corrupt_mode=truncate,"
                            "disconnect_every=50,seed=7'")
    serve.add_argument("--trace", metavar="PATH",
                       help="write serve.request spans here on "
                            "shutdown")
    serve.add_argument("--access-log", metavar="PATH",
                       help="append one JSONL line per request here "
                            "(flushed on drain)")
    serve.add_argument("--access-log-max-bytes", type=_AT_LEAST_1,
                       metavar="N",
                       help="rotate the access log when the live file "
                            "would exceed N bytes (rotated parts are "
                            "named <path>.<n>; default: no rotation)")
    serve.add_argument("--drift-guard-fraction", type=_FRACTION,
                       metavar="F",
                       help="warn (stderr + /healthz drift_alarm + "
                            "repro_serve_drift_alarms_total) when a "
                            "reload/rollback flips more than this "
                            "fraction of common answers, e.g. 0.2 "
                            "(default: disabled)")
    serve.add_argument("--trace-sample", type=_AT_LEAST_1, default=1,
                       help="head-sample spans: keep every Nth "
                            "request (default 1 = all; slow and "
                            "failed requests are always kept)")
    serve.add_argument("--trace-slow-ms", type=float, default=500.0,
                       help="requests at least this slow always keep "
                            "their span (default 500)")
    serve.add_argument("--ingest-journal", metavar="DIR",
                       help="attach a corpus journal and accept "
                            "documents on POST /admin/ingest; "
                            "accepted batches refit incrementally "
                            "and hot-swap the live table (needs "
                            "--workers 1)")
    serve.add_argument("--ingest-kb",
                       help="knowledge base for incremental "
                            "extraction (default: built-in)")
    serve.add_argument("--ingest-threshold", type=_AT_LEAST_1,
                       default=100,
                       help="occurrence threshold rho for ingest "
                            "refits (default 100)")
    serve.add_argument("--ingest-warm-start", action="store_true",
                       help="warm-start dirty refits from cached "
                            "parameters (faster, near-identical "
                            "posteriors)")
    serve.set_defaults(func=cmd_serve)

    top = sub.add_parser(
        "top",
        help="live terminal dashboard over a running repro serve "
             "(/metrics + /healthz)",
    )
    top.add_argument("--url", default="http://127.0.0.1:8080",
                     help="base URL of the server "
                          "(default http://127.0.0.1:8080)")
    top.add_argument("--interval", type=_POSITIVE, default=2.0,
                     help="seconds between refreshes (default 2)")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit (two "
                          "samples ~0.5s apart for rates)")
    top.set_defaults(func=cmd_top)

    evaluate = sub.add_parser("eval", help="run the Table 3 comparison")
    evaluate.add_argument("--seed", type=int, default=2015)
    evaluate.set_defaults(func=cmd_eval)

    reproduce = sub.add_parser(
        "reproduce",
        help="run the core experiments and print a paper-vs-measured report",
    )
    reproduce.add_argument("--seed", type=int, default=2015)
    reproduce.add_argument("--full", action="store_true",
                           help="full-size Table 5 (803 combinations)")
    reproduce.add_argument("--out", help="also write the report here")
    _add_obs_flags(reproduce)
    reproduce.set_defaults(func=cmd_reproduce)

    stats = sub.add_parser(
        "stats",
        help="render a recorded trace (timeline, shard latency, "
             "slowest documents)",
    )
    stats.add_argument("trace", help="JSONL trace from --trace")
    stats.add_argument("--metrics",
                       help="metrics JSON from --metrics-out")
    stats.add_argument("--convergence",
                       help="em-convergence.json from a checkpoint dir")
    stats.add_argument("--top", type=int, default=10,
                       help="how many slowest documents/combinations "
                            "to list (default 10)")
    stats.add_argument("--validate", action="store_true",
                       help="schema-check the artefacts; exit 2 on "
                            "violations")
    stats.set_defaults(func=cmd_stats)

    calibrate = sub.add_parser(
        "calibrate",
        help="fit the subjective-to-objective bridge (Section 9)",
    )
    calibrate.add_argument("opinions")
    calibrate.add_argument("property")
    calibrate.add_argument("type")
    calibrate.add_argument("attribute", help="e.g. population")
    calibrate.add_argument("--kb")
    calibrate.set_defaults(func=cmd_calibrate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ReproError,
        json.JSONDecodeError,
        OSError,
    ) as error:
        # Operational failures (missing/corrupt inputs, unreadable
        # checkpoints) become a one-line message and exit code 2
        # instead of a traceback; --strict restores the raw error.
        if getattr(args, "strict", False):
            raise
        print(f"repro: error: {error}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
