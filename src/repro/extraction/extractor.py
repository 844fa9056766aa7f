"""Corpus-level evidence extraction driver.

Walks annotated documents, applies the configured extraction patterns,
computes statement polarity, and accumulates evidence counts — the
"Extraction & Filtering" box of Figure 1.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from ..core.errors import ExtractionError
from ..core.types import Polarity
from ..nlp.annotate import AnnotatedDocument, AnnotatedSentence, line_mentions
from .patterns import DEFAULT_PATTERNS, PatternConfig, find_matches
from .polarity import negation_count
from .provenance import ProvenanceLedger
from .statement import EvidenceCounter, EvidenceStatement


@dataclass(slots=True)
class ExtractionStats:
    """Per-run extraction accounting (Section 7.1-style reporting)."""

    documents: int = 0
    sentences: int = 0
    statements: int = 0
    positive: int = 0
    negative: int = 0

    def count(self, positive: int, negative: int) -> None:
        """Account extracted statements by polarity."""
        self.statements += positive + negative
        self.positive += positive
        self.negative += negative

    def merge(self, other: "ExtractionStats") -> None:
        self.documents += other.documents
        self.sentences += other.sentences
        self.statements += other.statements
        self.positive += other.positive
        self.negative += other.negative


@dataclass
class EvidenceExtractor:
    """Extracts evidence statements from annotated documents."""

    config: PatternConfig = DEFAULT_PATTERNS
    stats: ExtractionStats = field(default_factory=ExtractionStats)
    #: Optional lineage capture: when set, extraction samples each
    #: distinct sentence's statements (doc id, sentence
    #: index, pattern, polarity) into the ledger. ``None`` (the
    #: default) keeps extraction byte-identical to the pre-provenance
    #: behaviour at zero cost.
    provenance: ProvenanceLedger | None = None

    def extract_sentence(
        self,
        annotated: AnnotatedSentence,
        doc_id: str = "",
        sentence_index: int = 0,
    ) -> list[EvidenceStatement]:
        """All evidence statements in one sentence.

        Pattern-matching failures are re-raised as
        :class:`ExtractionError` with document/sentence context so the
        pipeline can quarantine the document.

        A sentence that carries its memo line's ``extraction_cache``
        (its matches are then a pure function of its text and link
        context) is matched once per line and pattern config, into the
        line's protos; every visit returns them re-stamped with its
        ``doc_id`` (:meth:`EvidenceStatement.restamp` keeps the proto's
        key).
        """
        cache = annotated.extraction_cache
        ledger = self.provenance
        if cache is None:
            found = self._match_sentence(annotated, doc_id)
            if ledger is not None:
                for statement in found:
                    ledger.record(statement, sentence_index)
            return found
        protos = cache.get(self.config)
        if protos is None:
            protos = tuple(self._match_sentence(annotated, doc_id))
            cache[self.config] = protos
        if (
            protos
            and ledger is not None
            and id(protos) not in ledger.seen_lines
        ):
            self._sample_line(protos, doc_id, sentence_index)
        return [s if s.doc_id == doc_id else s.restamp(doc_id) for s in protos]

    def _sample_line(self, protos: tuple, doc_id: str, index: int) -> None:
        """Sample a memo line's statements into the ledger, re-stamped
        to the first document of this ledger reaching the line; later
        visits cost only the ``seen_lines`` identity check. The ledger
        counts nothing, its readers take the totals from the evidence
        counter."""
        self.provenance.sample_line(protos, [
            s if s.doc_id == doc_id else s.restamp(doc_id) for s in protos
        ], index)

    def _match_sentence(
        self, annotated: AnnotatedSentence, doc_id: str
    ) -> list[EvidenceStatement]:
        statements = []
        try:
            sentence = annotated.sentence
            matches = find_matches(annotated, self.config)
            text = sentence.text() if matches else ""
            for match in matches:
                negations = negation_count(sentence, match.property_index)
                statements.append(
                    EvidenceStatement(
                        entity_id=match.mention.entity_id,
                        entity_type=match.mention.entity_type,
                        property=match.property,
                        polarity=(
                            Polarity.NEGATIVE
                            if negations % 2
                            else Polarity.POSITIVE
                        ),
                        pattern=match.pattern,
                        doc_id=doc_id,
                        sentence=text,
                        negations=negations,
                    )
                )
        except ExtractionError:
            raise
        except Exception as error:
            raise ExtractionError(
                f"extraction failed in document {doc_id!r} "
                f"(sentence {annotated.sentence.text()[:60]!r}): {error}"
            ) from error
        return statements

    def extract_document(
        self,
        document: AnnotatedDocument,
        counter: EvidenceCounter | None = None,
    ) -> list[EvidenceStatement] | int:
        """All evidence statements in one document, as a list; or, with
        ``counter``, counted into it (nothing if the document raises),
        returning their number. Counted statements are left for the
        caller to account by polarity, once per counter
        (:meth:`ExtractionStats.count`).

        A fast-path document held as memo lines is counted from its
        lines: a line's protos go straight into the counter, so no
        sentence or statement object is built once the line has been
        matched (its first visit runs :meth:`extract_sentence`).
        """
        stats = self.stats
        stats.documents += 1
        doc_id = document.doc_id
        lines = document.lines
        if counter is None or lines is None:
            statements: list[EvidenceStatement] = []
            for index, annotated in enumerate(document.sentences):
                stats.sentences += 1
                statements += self.extract_sentence(annotated, doc_id, index)
            if counter is not None:
                counter.add_all(statements)
                return len(statements)
            positive = sum(s.polarity is Polarity.POSITIVE for s in statements)
            stats.count(positive, len(statements) - positive)
            return statements
        stats.sentences += len(lines)
        config = self.config
        ledger = self.provenance
        found = []
        for index, line in enumerate(lines):
            if line is None:
                continue
            protos = line[0].get(config)
            if protos is None:
                protos = self.extract_sentence(AnnotatedSentence(
                    document.records[index], line_mentions(line), line[0]
                ), doc_id, index)
            elif (
                protos
                and ledger is not None
                and id(protos) not in ledger.seen_lines
            ):
                self._sample_line(protos, doc_id, index)
            if protos:
                found.append(protos)
        for protos in found:
            counter.add_all(protos)
        return sum(map(len, found))

    def extract_corpus(
        self, documents: Iterable[AnnotatedDocument]
    ) -> EvidenceCounter:
        """Run extraction over a corpus and aggregate counts."""
        counter = EvidenceCounter()
        for document in documents:
            counter.add_all(self.extract_document(document))
        return counter

