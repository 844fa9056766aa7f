"""Spans for the traced benchmark runs, recorded from outside ``src/``.

:class:`SpanRecorder` wraps the public calls of each layer (the table
in :data:`LAYERS`) and keeps one span per call in memory: id, parent
id, layer name, start, end, trace id (one per mining run or HTTP
request) and thread. :meth:`SpanRecorder.summary` turns them into
per-layer call counts and *self time* — a span's duration minus the
time covered by its child spans — and :meth:`SpanRecorder.dump` writes
the raw spans out once the run is over.

Because every span's self time excludes its children, the self times
of one thread's spans add up exactly to the duration of its root
spans; ``unattributed_s`` is the traced wall time minus that sum (time
spent outside any wrapped call).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
from collections import Counter, defaultdict

#: ``(target, layer)``: a module-level function (``module:function``)
#: or a method (``module:Class.method``). Functions are replaced in
#: every ``repro`` module that imported them by name.
LAYERS: tuple[tuple[str, str], ...] = (
    ("repro.nlp.prefilter:SentencePrefilter.alias_hit", "nlp.prefilter"),
    ("repro.nlp.annotate:Annotator.annotate", "nlp.annotate"),
    ("repro.nlp.tokenizer:split_sentences", "nlp.tokenizer"),
    ("repro.nlp.tokenizer:tokenize", "nlp.tokenizer"),
    ("repro.nlp.tokenizer:tokenize_document", "nlp.tokenizer"),
    ("repro.nlp.tagger:tag", "nlp.tagger"),
    ("repro.nlp.entity_linker:EntityLinker.scan", "nlp.entity_linker"),
    ("repro.nlp.entity_linker:EntityLinker.resolve", "nlp.entity_linker"),
    (
        "repro.nlp.entity_linker:EntityLinker.link_sentence",
        "nlp.entity_linker",
    ),
    ("repro.nlp.coref:PronounResolver.resolve_sentence", "nlp.coref"),
    ("repro.nlp.parser:DependencyParser.parse", "nlp.parser"),
    ("repro.extraction.patterns:find_matches", "extraction.patterns"),
    (
        "repro.extraction.extractor:EvidenceExtractor.extract_document",
        "extraction.extractor",
    ),
    (
        "repro.extraction.provenance:ProvenanceLedger.record",
        "extraction.provenance",
    ),
    (
        "repro.extraction.provenance:ProvenanceLedger.merge",
        "extraction.provenance",
    ),
    ("repro.pipeline.runner:SurveyorPipeline.run", "pipeline"),
    ("repro.pipeline.runner:SurveyorPipeline._map_shard", "pipeline"),
    ("repro.extraction.statement:EvidenceCounter.merge", "pipeline"),
    ("repro.extraction.statement:EvidenceCounter.as_evidence", "pipeline"),
    ("repro.core.em:EMLearner.fit", "core.em"),
    ("repro.core.surveyor:Surveyor.run", "core.surveyor"),
    ("repro.core.surveyor:Surveyor.fit_combination", "core.surveyor"),
    ("repro.serve.aio:HttpProtocol.data_received", "serve.aio"),
    ("repro.serve.aio:HttpProtocol._dispatch", "serve.aio"),
    (
        "repro.serve.admission:AsyncAdmissionController.poll",
        "serve.admission",
    ),
    (
        "repro.serve.admission:AsyncAdmissionController.release",
        "serve.admission",
    ),
    ("repro.serve.cache:QueryCache.get", "serve.cache"),
    ("repro.serve.cache:QueryCache.put", "serve.cache"),
    ("repro.serve.cache:QueryCache.purge_generations", "serve.cache"),
    ("repro.core.query:SubjectiveQuery.parse", "core.query"),
    ("repro.serve.index:OpinionIndex.answer", "serve.index"),
    ("repro.serve.index:OpinionIndex.__init__", "serve.index_build"),
    ("repro.serve.schema:ask_response", "serve.schema"),
    ("repro.serve.server:OpinionService.observe_request", "obs.metrics"),
    ("repro.serve.server:OpinionService.ingest", "serve.ingest"),
    ("repro.ingest.journal:CorpusJournal.append", "ingest.journal"),
    ("repro.ingest.incremental:IngestPipeline.advance", "ingest.incremental"),
    ("repro.ingest.state:save_state", "ingest.state"),
    ("repro.storage.serialize:save", "storage.serialize"),
    ("repro.obs.drift:compare_tables", "obs.drift"),
)

#: Layers whose calls start a new trace id (one per HTTP request).
NEW_TRACE = frozenset({"repro.serve.aio:HttpProtocol._dispatch"})

#: Extra per-call counters: target -> (counter, f(args, result)).
MEASURES = {
    "repro.storage.serialize:save": (
        "storage.serialize.bytes",
        lambda args, result: os.path.getsize(result),
    ),
}

#: Time the event loop blocks waiting for I/O, as its own layer, so
#: the loop thread's wall time is accounted for end to end.
IDLE_TARGET = ("selectors:EpollSelector.select", "serve.idle")

#: Awaited calls: counted with their total wait, never as spans (they
#: suspend, so they cannot nest on the loop thread's span stack).
WAITS = {
    "repro.serve.admission:AsyncAdmissionController.wait_for_slot": (
        "serve.admission.wait"
    ),
}


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.enabled = False
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._main = threading.main_thread().ident

    # -- wrappers -------------------------------------------------------
    def _wrap(self, fn, layer: str, new_trace: bool, measure):
        spans = self.spans
        local = self._local
        ids = self._ids
        traces = self._traces
        counters = self.counters
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
                local.thread = threading.get_ident()
            if stack and not new_trace:
                parent, trace = stack[-1]
            else:
                parent = stack[-1][0] if stack else 0
                trace = next(traces)
            span = next(ids)
            stack.append((span, trace))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (span, parent, layer, start, end, trace, local.thread)
                )
            if measure is not None:
                counters[measure[0]] += measure[1](args, result)
            return result

        return traced

    def _wrap_wait(self, fn, name: str):
        counters = self.counters
        recorder = self

        @functools.wraps(fn)
        async def waited(*args, **kwargs):
            if not recorder.enabled:
                return await fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                counters[name + "_s"] += time.perf_counter() - start
                counters[name + "_calls"] += 1

        return waited

    # -- installation -----------------------------------------------------
    def install(self, *, idle: bool = False) -> None:
        """Wrap every target in :data:`LAYERS` (and the event loop's
        selector when ``idle``); recording starts with ``enabled``."""
        targets = list(LAYERS) + ([IDLE_TARGET] if idle else [])
        for target, layer in targets:
            measure = MEASURES.get(target)
            self._patch(
                target,
                lambda fn, layer=layer, target=target, measure=measure: (
                    self._wrap(fn, layer, target in NEW_TRACE, measure)
                ),
            )
        for target, name in WAITS.items():
            self._patch(target, lambda fn, name=name: self._wrap_wait(fn, name))

    def _patch(self, target: str, make) -> None:
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            # Inherited methods (the selector's ``select``) are wrapped
            # on the subclass and deleted again on uninstall.
            raw = owner.__dict__.get(method) or getattr(owner, method)
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(raw.__func__))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(make(raw.__func__))
            else:
                wrapped = make(raw)
            self._patches.append(
                (owner, method, owner.__dict__.get(method))
            )
            setattr(owner, method, wrapped)
            return
        original = getattr(module, method)
        wrapped = make(original)
        for name, loaded in list(sys.modules.items()):
            if (name == module_name or name.startswith("repro")) and (
                getattr(loaded, method, None) is original
            ):
                self._patches.append((loaded, method, original))
                setattr(loaded, method, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------
    def summary(self, wall_s: float | None = None) -> dict:
        """Per-layer ``calls`` and ``self_s``, plus the accounting.

        ``wall_s`` is the traced wall time when the caller measured it
        (the mining runs); otherwise it is the main thread's span
        window plus the root spans of every other thread.
        """
        children: defaultdict[int, float] = defaultdict(float)
        for span, parent, _layer, start, end, _trace, _thread in self.spans:
            if parent:
                children[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict[str, float] = defaultdict(float)
        first = float("inf")
        last = float("-inf")
        other_roots = 0.0
        for span, parent, layer, start, end, _trace, thread in self.spans:
            calls[layer] += 1
            self_s[layer] += (end - start) - children[span]
            if not parent:
                if thread == self._main:
                    first = min(first, start)
                    last = max(last, end)
                else:
                    other_roots += end - start
        if wall_s is None:
            wall_s = max(last - first, 0.0) + other_roots
        attributed = sum(self_s.values())
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "counters": dict(self.counters),
            "traced_wall_s": wall_s,
            "attributed_s": attributed,
            "unattributed_s": wall_s - attributed,
            "spans": len(self.spans),
        }

    def dump(self, path: str) -> None:
        """Write every span as one tab-separated line."""
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as out:
            out.write("span\tparent\tlayer\tstart_s\tend_s\ttrace\tthread\n")
            for span, parent, layer, start, end, trace, thread in self.spans:
                out.write(
                    f"{span}\t{parent}\t{layer}\t{start - origin:.9f}\t"
                    f"{end - origin:.9f}\t{trace}\t{thread}\n"
                )
