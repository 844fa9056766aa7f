"""Memo lines to counter: the fused fast path against its oracles.

A pronoun-free document on the fast path is counted straight from its
memo lines (``EvidenceExtractor.extract_document(document, counter)``).
These tests drive seeded random documents through that loop and
through the per-sentence path that ``strict_parity`` keeps (which
itself checks every document against the reference path), and require
the same evidence, statistics and lineage bytes.
"""

from __future__ import annotations

import random

import pytest

from repro.corpus import WebCorpus
from repro.corpus.document import Document
from repro.extraction.extractor import EvidenceExtractor
from repro.extraction.provenance import ProvenanceLedger
from repro.extraction.statement import EvidenceCounter, EvidenceStatement
from repro.nlp import Annotator
from repro.nlp.annotate import AnnotatedSentence
from repro.nlp.prefilter import DEFAULT_MEMO_SIZE
from repro.pipeline import FaultInjector, SurveyorPipeline
from repro.pipeline.runner import mine_documents
from repro.storage.canonical import encode
from repro.storage.serialize import provenance_to_dict

#: Sentence makers, by kind; ``{a}``/``{b}`` are animals, ``{c}`` a city.
SENTENCES = {
    "statement": [
        "{a}s are cute .",
        "I think that {a}s are very cute .",
        "The {a} is not dangerous .",
        "{c} is a big city .",
        "Golf is not boring .",
    ],
    "no alias": [
        "The weather is nice today .",
        "Nothing to see here .",
    ],
    # Buffalo names a city and an animal: the document's type context
    # (a city or animal noun elsewhere in it) decides.
    "ambiguous": [
        "Buffalo is cold .",
        "Buffalo is cute .",
    ],
    "context": [
        "{c} is a windy city .",
        "The {a} is a small animal .",
    ],
}
PRONOUN_PAIRS = [
    "We saw a {a} . It is dangerous .",
    "We visited {c} . It is not boring .",
]


def _documents(seed: int, count: int) -> list[Document]:
    rng = random.Random(seed)
    animals = ["kitten", "snake", "tiger"]
    cities = ["Chicago", "San Francisco", "Palo Alto"]
    documents = []
    for index in range(count):
        parts = []
        for _ in range(rng.choice((1, 1, 1, 2, 3))):
            if rng.random() < 0.15:
                template = rng.choice(PRONOUN_PAIRS)
            else:
                kind = rng.choice(list(SENTENCES))
                template = rng.choice(SENTENCES[kind])
            parts.append(template.format(
                a=rng.choice(animals), c=rng.choice(cities)
            ))
        documents.append(Document(f"d{index}", " ".join(parts)))
    return documents


@pytest.fixture(scope="module")
def documents():
    return _documents(seed=32, count=600)


@pytest.fixture()
def injector():
    return FaultInjector(seed=5, fail_every_nth=23)


def _mine(kb, documents, memo_size, injector, parity):
    annotator = Annotator(kb, memo_size=memo_size, share_memo=False)
    extractor = EvidenceExtractor(provenance=ProvenanceLedger())
    reference = (
        (
            Annotator(kb, fast_path=False),
            EvidenceExtractor(),
            EvidenceCounter(),
        )
        if parity
        else None
    )
    counter, dead = mine_documents(
        documents,
        annotator,
        extractor,
        strict=False,
        injector=injector,
        reference=reference,
    )
    return counter, dead, annotator, extractor, reference


@pytest.mark.parametrize("memo_size", [1, DEFAULT_MEMO_SIZE])
def test_fused_loop_matches_both_oracles(
    small_kb, documents, injector, memo_size
):
    fused, dead, annotator, extractor, _ = _mine(
        small_kb, documents, memo_size, injector, parity=False
    )
    listed, listed_dead, list_annotator, list_extractor, reference = (
        _mine(small_kb, documents, memo_size, injector, parity=True)
    )
    ref_annotator, ref_extractor, ref_counter = reference
    assert dead and [d.doc_id for d in dead] == [
        d.doc_id for d in listed_dead
    ]
    assert fused == listed == ref_counter
    assert fused.n_statements > 100
    assert extractor.stats == list_extractor.stats == ref_extractor.stats
    assert annotator.linker_stats == ref_annotator.linker_stats
    assert (
        annotator.fastpath_stats.as_counters()
        == list_annotator.fastpath_stats.as_counters()
    )
    # The corpus exercises what it claims to.
    counters = annotator.fastpath_stats.as_counters()
    assert counters["skipped"] > 0 and counters["memo_hits"] > 0
    if memo_size == 1:
        assert counters["memo_evictions"] > 0


@pytest.mark.parametrize("memo_size", [1, DEFAULT_MEMO_SIZE])
def test_fused_pipeline_writes_the_same_lineage(
    small_kb, documents, injector, memo_size
):
    sidecars = []
    for parity in (False, True):
        report = SurveyorPipeline(
            kb=small_kb,
            occurrence_threshold=1,
            annotation_memo_size=memo_size,
            fault_injector=injector,
            strict_parity=parity,
        ).run(WebCorpus(documents=list(documents)))
        assert report.health.quarantined
        sidecars.append((
            report.evidence,
            report.metrics.stage("map").counters,
            encode(provenance_to_dict(report.provenance)),
        ))
    assert sidecars[0] == sidecars[1]


def test_warm_pronoun_free_document_builds_no_per_sentence_objects(
    small_kb, monkeypatch
):
    annotator = Annotator(small_kb, share_memo=False)
    extractor = EvidenceExtractor(provenance=ProvenanceLedger())
    text = "Kittens are cute . Chicago is a windy city . Buffalo is cold ."
    counter = EvidenceCounter()
    extractor.extract_document(annotator.annotate("d0", text), counter)
    assert counter.n_statements == 3

    built = []
    for cls, name in (
        (AnnotatedSentence, "__init__"),
        (EvidenceStatement, "__init__"),
        (EvidenceStatement, "restamp"),
    ):
        original = getattr(cls, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            built.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    document = annotator.annotate("d1", text)
    assert extractor.extract_document(document, counter) == 3
    assert counter.n_statements == 6
    assert built == []
    # Reading the sentence view builds it, and the list path re-stamps.
    assert len(document.sentences) == 3
    assert [s.doc_id for s in extractor.extract_document(document)] == [
        "d1"
    ] * 3
    assert built.count("__init__") == 3 and built.count("restamp") == 3
