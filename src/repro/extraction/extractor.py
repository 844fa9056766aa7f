"""Corpus-level evidence extraction driver.

Walks annotated documents, applies the configured extraction patterns,
computes statement polarity, and accumulates evidence counts — the
"Extraction & Filtering" box of Figure 1.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field, replace

from ..core.errors import ExtractionError
from ..core.types import Polarity
from ..nlp.annotate import AnnotatedDocument, AnnotatedSentence, Annotator
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
    #: Optional lineage capture: when set, :meth:`extract_sentence`
    #: samples each distinct sentence's statements (doc id, sentence
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

        When the annotator attached an ``extraction_cache`` (the
        sentence's matches are a pure function of its text and link
        context), the pattern matching and polarity work runs once per
        cache line and later documents only re-stamp ``doc_id``. A
        ledger samples each cache line once (``seen_lines`` identity
        check), so repeat visits of a shared sentence pay no
        provenance cost beyond that check; the ledger counts nothing,
        its readers take the totals from the evidence counter.
        """
        cache = annotated.extraction_cache
        if cache is not None:
            protos = cache.get(self.config)
            if protos is None:
                protos = tuple(self._match_sentence(annotated, doc_id))
                cache[self.config] = protos
            if not protos:
                return []
            found = [
                s if s.doc_id == doc_id else replace(s, doc_id=doc_id)
                for s in protos
            ]
            ledger = self.provenance
            if (
                ledger is not None
                and id(protos) not in ledger.seen_lines
            ):
                ledger.sample_line(protos, found, sentence_index)
            return found
        found = self._match_sentence(annotated, doc_id)
        if found:
            ledger = self.provenance
            if ledger is not None:
                for statement in found:
                    ledger.record(statement, sentence_index)
        return found

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
        self, document: AnnotatedDocument
    ) -> list[EvidenceStatement]:
        """All evidence statements in one document."""
        statements: list[EvidenceStatement] = []
        self.stats.documents += 1
        doc_id = document.doc_id
        for sentence_index, annotated in enumerate(
            document.sentences
        ):
            self.stats.sentences += 1
            statements.extend(
                self.extract_sentence(
                    annotated, doc_id, sentence_index
                )
            )
        self._account(statements)
        return statements

    def extract_corpus(
        self, documents: Iterable[AnnotatedDocument]
    ) -> EvidenceCounter:
        """Run extraction over a corpus and aggregate counts."""
        counter = EvidenceCounter()
        for document in documents:
            counter.add_all(self.extract_document(document))
        return counter

    def _account(self, statements: list[EvidenceStatement]) -> None:
        self.stats.statements += len(statements)
        for statement in statements:
            if statement.polarity is Polarity.POSITIVE:
                self.stats.positive += 1
            else:
                self.stats.negative += 1


def extract_from_texts(
    annotator: Annotator,
    texts: Iterable[tuple[str, str]],
    config: PatternConfig = DEFAULT_PATTERNS,
) -> tuple[EvidenceCounter, ExtractionStats]:
    """Convenience path: raw ``(doc_id, text)`` pairs to evidence counts."""
    extractor = EvidenceExtractor(config=config)
    counter = EvidenceCounter()
    for doc_id, text in texts:
        document = annotator.annotate(doc_id, text)
        counter.add_all(extractor.extract_document(document))
    return counter, extractor.stats
