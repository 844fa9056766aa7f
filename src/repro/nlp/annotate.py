"""Document annotation driver: tokenize, tag, link, parse.

Produces the "annotated Web snapshot" representation the extraction
stage consumes — each sentence carries its typed dependency parse (the
head and label columns of its :class:`~repro.nlp.tokens.Sentence`
record) plus its linked entity mentions, mirroring the preprocessed
corpus the paper's pipeline starts from.

Two execution paths produce bit-identical output:

* the **reference path** runs the full stack on every sentence, as the
  original implementation did;
* the **fast path** (default) screens each raw sentence with
  :mod:`repro.nlp.prefilter` and memoizes per-sentence work, so
  sentences that cannot yield evidence skip tagging, linking,
  coreference, and parsing entirely, and repeated sentences are
  annotated once per shard. A document without a coreference pronoun
  comes back as its memo lines only: each sentence's shared record and,
  where the sentence has alias matches, its link line (one flat tuple:
  extraction scratch, linked and dropped counts, then five fields per
  mention). Extraction counts straight from the lines; the
  per-sentence :class:`AnnotatedSentence` view is built only when a
  caller reads :attr:`AnnotatedDocument.sentences`. A document with a
  pronoun is resolved sentence by sentence and holds its sentences as
  built.

The skip decisions are proven sound case by case:

* *no alias hit* → the linker cannot match (every alias's longest word
  would appear as a substring of the raw text), so mentions, linker
  stats, and coreference antecedent state are untouched;
* *no possible adjective* → no extraction pattern can fire (they all
  anchor on an ``ADJ`` token), so the parse is never consulted and
  the record may stay unparsed;
* *no coreference pronoun* → coreference cannot add mentions, and it
  only updates antecedents from *linked* mentions, which requires an
  alias hit.

``strict_parity`` on the pipeline (or the differential tests) runs
both paths and asserts identical output.
"""

from __future__ import annotations

import weakref
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain

from ..core.errors import ExtractionError
from ..kb.knowledge_base import KnowledgeBase
from .coref import PronounResolver
from .entity_linker import EntityLinker, LinkerStats, document_type_context
from .parser import DependencyParser
from .prefilter import (
    COREF_PRONOUNS,
    DEFAULT_MEMO_SIZE,
    AnnotationMemo,
    FastPathStats,
    SentencePrefilter,
    could_be_adjective,
)
from .tagger import tag
from .tokenizer import split_sentences, tokenize, tokenize_document
from .tokens import EntityMention, Sentence


@dataclass(slots=True)
class AnnotatedSentence:
    """One sentence of one document: its record and its mentions.

    The record (tokens, tags, parse) may be shared with every other
    document repeating the sentence; the mentions belong to this
    document, because coreference depends on what came before. An
    unparsed record (``sentence.order is None``) means the fast path
    proved no extraction pattern could fire (no possible adjective);
    ``find_matches`` treats it as a tree without ``ADJ`` nodes.
    """

    sentence: Sentence
    mentions: Sequence[EntityMention] = ()
    #: Shared scratch dict for extractors, present only when the
    #: sentence's pattern matches are a pure function of (text, link
    #: context) — i.e. coreference cannot contribute mentions. Keyed by
    #: pattern config; see ``EvidenceExtractor.extract_sentence``.
    extraction_cache: dict | None = None

    def mention_at(self, index: int) -> EntityMention | None:
        """The mention covering a token index, if any."""
        for mention in self.mentions:
            if mention.start <= index < mention.end:
                return mention
        return None


def line_mentions(line: tuple) -> list[EntityMention]:
    """The mentions a memo link line holds (see the module docstring)."""
    return [EntityMention._make(line[i:i + 5]) for i in range(3, len(line), 5)]


@dataclass(slots=True)
class AnnotatedDocument:
    """One annotated document: its sentences as built (the reference
    path, or a fast-path document with a coreference pronoun), or a
    fast-path document's memo lines, each sentence's shared record in
    ``records`` and its link line in ``lines`` (``None`` without alias
    matches). Reading :attr:`sentences` builds the lines' view."""

    doc_id: str
    _sentences: list[AnnotatedSentence] | None = None
    records: list[Sentence] | None = None
    lines: list[tuple | None] | None = None

    def __len__(self) -> int:
        """The number of sentences, without building their view."""
        return len(self._sentences if self.lines is None else self.lines)

    @property
    def sentences(self) -> list[AnnotatedSentence]:
        if self._sentences is None:
            self._sentences = [
                AnnotatedSentence(record, [])
                if line is None
                else AnnotatedSentence(record, line_mentions(line), line[0])
                for record, line in zip(self.records, self.lines)
            ]
        return self._sentences

    def mention_count(self) -> int:
        return sum(len(s.mentions) for s in self.sentences)


#: Process-local share of memoized work between annotators over the
#: same (identical, by object identity) knowledge base. Entries are
#: pure functions of (kb contents, resolve_pronouns, sentence text),
#: so annotators created per shard by the pipeline reuse each other's
#: work when shards run in one process; pool workers simply get their
#: own registry per process. Assumes the KB is not mutated while
#: annotators built from it are in use (the pipeline never does).
_SHARED: "weakref.WeakKeyDictionary[KnowledgeBase, dict]" = (
    weakref.WeakKeyDictionary()
)


def reset_shared_annotation_state(
    kb: "KnowledgeBase | None" = None,
) -> None:
    """Drop the process-local shared memo/prefilter caches.

    Annotators built afterwards start cold, as a fresh process would.
    For benchmarks and tests that need run-to-run isolation (e.g.
    measuring the cold extraction path); never needed in production.
    Pass a knowledge base to drop only its share, ``None`` for all.
    """
    if kb is None:
        _SHARED.clear()
    else:
        _SHARED.pop(kb, None)


def _shared_cache(
    kb: KnowledgeBase, key: tuple, build
):
    per_kb = _SHARED.get(kb)
    if per_kb is None:
        per_kb = {}
        _SHARED[kb] = per_kb
    value = per_kb.get(key)
    if value is None:
        value = build()
        per_kb[key] = value
    return value


@dataclass
class Annotator:
    """Runs the full per-document NLP stack.

    ``resolve_pronouns`` adds conservative per-document pronoun
    coreference: "We visited Tokyo. It is hectic." links ``It`` to
    Tokyo before extraction.

    ``fast_path`` selects the prefilter+memo path (default on). A
    shared :class:`SentencePrefilter`
    may be injected so pool workers reuse the parent's automaton;
    otherwise one is compiled once per KB and shared process-locally.
    ``memo_size`` bounds the annotation memo, which ``share_memo``
    (default) shares between annotators over the same KB object —
    memoized work is a pure function of the sentence text, so sharing
    is sound and hit/miss accounting stays per-annotator.
    """

    kb: KnowledgeBase
    parser: DependencyParser = field(default_factory=DependencyParser)
    resolve_pronouns: bool = True
    fast_path: bool = True
    prefilter: SentencePrefilter | None = None
    memo_size: int = DEFAULT_MEMO_SIZE
    share_memo: bool = True
    linker: EntityLinker = field(init=False)
    memo: AnnotationMemo | None = field(
        init=False, default=None, repr=False
    )
    _stats: FastPathStats | None = field(
        init=False, default=None, repr=False
    )

    def __post_init__(self) -> None:
        self.linker = EntityLinker(self.kb)
        if self.fast_path:
            if self.prefilter is None:
                self.prefilter = _shared_cache(
                    self.kb,
                    ("prefilter",),
                    lambda: SentencePrefilter.from_kb(self.kb),
                )
            if self.share_memo:
                self.memo = _shared_cache(
                    self.kb,
                    ("memo", self.resolve_pronouns, self.memo_size),
                    lambda: AnnotationMemo(self.memo_size),
                )
            else:
                self.memo = AnnotationMemo(self.memo_size)
            self._stats = FastPathStats()

    @property
    def linker_stats(self) -> LinkerStats:
        return self.linker.stats

    @property
    def fastpath_stats(self) -> FastPathStats | None:
        """Prefilter/memo counters; ``None`` on the reference path."""
        return self._stats

    def annotate(self, doc_id: str, text: str) -> AnnotatedDocument:
        """Annotate one raw document.

        A failure anywhere in the per-document NLP stack is re-raised
        as :class:`ExtractionError` (chained onto its cause) carrying
        the document id, so the pipeline can quarantine the document
        instead of killing its shard.
        """
        try:
            if self.fast_path:
                return self._annotate_fast(doc_id, text)
            return AnnotatedDocument(doc_id, self._annotate_reference(text))
        except ExtractionError:
            raise
        except Exception as error:
            raise ExtractionError(
                f"annotation failed for document {doc_id!r}: {error}"
            ) from error

    # ------------------------------------------------------------------
    # Reference path
    # ------------------------------------------------------------------
    def _annotate_reference(self, text: str) -> list[AnnotatedSentence]:
        sentences = tokenize_document(text)
        for sentence in sentences:
            tag(sentence)
        context = document_type_context(sentences)
        resolver = (
            PronounResolver() if self.resolve_pronouns else None
        )
        annotated: list[AnnotatedSentence] = []
        for sentence in sentences:
            mentions = self.linker.link_sentence(sentence, context)
            if resolver is not None:
                resolver.resolve_sentence(sentence, mentions)
            self.parser.parse(sentence)
            annotated.append(AnnotatedSentence(sentence, mentions))
        return annotated

    # ------------------------------------------------------------------
    # Fast path
    # ------------------------------------------------------------------
    def _annotate_fast(self, doc_id: str, text: str) -> AnnotatedDocument:
        memo = self.memo
        stats = self._stats
        raws = split_sentences(text)
        records: list[Sentence] = []
        pronoun = ambiguous = False
        for raw in raws:
            record = memo.get(raw)
            if record is None:
                stats.memo_misses += 1
                record = self._build_record(raw)
                if memo.put(raw, record):
                    stats.memo_evictions += 1
            else:
                stats.memo_hits += 1
            records.append(record)
            pronoun = pronoun or record.pron_possible
            ambiguous = ambiguous or bool(record.ambiguous_types)
        stats.sentences += len(records)

        # The document type context must cover *all* sentences —
        # including skipped ones — because any sentence's
        # disambiguation may read it; only ambiguous matches do.
        context = document_type_context(records) if ambiguous else None

        lines: list[tuple | None] = []
        linker_stats = self.linker.stats
        for raw, record in zip(raws, records):
            line = None
            if record.matches:
                line = self._link_line(raw, record, context)
                linker_stats.linked += line[1]
                linker_stats.ambiguous_dropped += line[2]
            elif not record.pron_possible:
                # Nothing to link and no pronoun to resolve.
                stats.skipped += 1
            lines.append(line)
        document = AnnotatedDocument(doc_id, None, records, lines)
        if not pronoun:
            return document
        # Coreference runs whenever linked mentions may update the
        # antecedent state, or a resolvable pronoun could gain a
        # mention (which counts toward mention telemetry even when no
        # adjective pattern can use it). A sentence keeps its line's
        # extraction scratch only while coreference cannot add to its
        # mentions.
        resolver = PronounResolver()
        for annotated in document.sentences:
            record = annotated.sentence
            if record.pron_possible:
                annotated.extraction_cache = None
            if record.matches or record.pron_possible:
                resolver.resolve_sentence(record, annotated.mentions)
        return AnnotatedDocument(doc_id, document.sentences)

    def _build_record(self, raw: str) -> Sentence:
        """Do the text-determined annotation work for one sentence."""
        record = tokenize(raw)
        lemmas = record.lemmas
        pron_possible = self.resolve_pronouns and not (
            COREF_PRONOUNS.isdisjoint(lemmas)
        )
        matches = (
            self.linker.scan(record)
            if self.prefilter.alias_hit(raw)
            else ()
        )
        if matches or pron_possible:
            tag(record)
            # A parse only matters if an ADJ node could meet a mention.
            if any(map(could_be_adjective, lemmas)):
                self.parser.parse(record)
        if matches:
            record.matches = matches
            record.ambiguous_types = self.linker.context_types(matches)
        record.pron_possible = pron_possible
        return record

    def _link_line(
        self, raw: str, record: Sentence, context: Counter | None
    ) -> tuple:
        """The memo's link line for one sentence under one document
        context: ``(scratch, linked, dropped, *mention fields)``, the
        scratch dict keeping the line's extraction protos per pattern
        config.

        Keyed on the raw text plus the clamped context counts of the
        types disambiguation would actually consult, so documents with
        irrelevant context differences share cache lines; a sentence
        without ambiguous matches is keyed on its text alone (and
        disambiguation never reads the context).
        """
        key = (
            (
                raw,
                tuple(
                    min(context.get(entity_type, 0), 999)
                    for entity_type in record.ambiguous_types
                ),
            )
            if record.ambiguous_types
            else raw
        )
        line = self.memo.get_links(key)
        if line is None:
            mentions, linked, dropped = self.linker.resolve(
                record, record.matches, context
            )
            line = ({}, linked, dropped, *chain.from_iterable(mentions))
            if self.memo.put_links(key, line):
                self._stats.memo_evictions += 1
        return line
