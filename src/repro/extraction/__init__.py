"""Evidence extraction: patterns, polarity, filters, and the driver."""

from .antonyms import ANTONYMS, antonym_of, expand_with_antonyms
from .extractor import EvidenceExtractor, ExtractionStats, extract_from_texts
from .patterns import (
    DEFAULT_PATTERNS,
    PATTERN_VERSIONS,
    PatternConfig,
    PatternMatch,
    find_matches,
)
from .polarity import negation_count, statement_polarity
from .provenance import (
    DEFAULT_SAMPLES_PER_POLARITY,
    PairProvenance,
    ProvenanceIndex,
    ProvenanceLedger,
    ProvenanceSample,
)
from .statement import EvidenceCounter, EvidenceStatement

__all__ = [
    "DEFAULT_SAMPLES_PER_POLARITY",
    "PairProvenance",
    "ProvenanceIndex",
    "ProvenanceLedger",
    "ProvenanceSample",
    "ANTONYMS",
    "DEFAULT_PATTERNS",
    "EvidenceCounter",
    "antonym_of",
    "expand_with_antonyms",
    "EvidenceExtractor",
    "EvidenceStatement",
    "ExtractionStats",
    "PATTERN_VERSIONS",
    "PatternConfig",
    "PatternMatch",
    "extract_from_texts",
    "find_matches",
    "negation_count",
    "statement_polarity",
]
