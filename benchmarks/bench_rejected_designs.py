"""Benchmarks for design alternatives the paper discusses.

* **Antonym expansion** (Section 4, rejected): treating "X is small"
  as a negation of "X is big". The bench builds a world with big,
  small, and mid-size cities — mid cities are neither big nor small —
  and shows the expansion fabricates positive 'small' evidence for
  mid cities, hurting precision, exactly the paper's argument.
* **Pronoun coreference** (extension): with a corpus where 40% of the
  claims ride on pronouns, resolution recovers them; disabling it
  loses the statements.
"""

from __future__ import annotations

from _report import emit

from repro.baselines import SurveyorInterpreter
from repro.core import Polarity, PropertyTypeKey, SubjectiveProperty
from repro.corpus import (
    CorpusGenerator,
    NoiseProfile,
    PropertySpec,
    Scenario,
    TrueParameters,
)
from repro.extraction import (
    EvidenceCounter,
    EvidenceExtractor,
    expand_with_antonyms,
)
from repro.kb import Entity, KnowledgeBase
from repro.nlp import Annotator

BIG = PropertyTypeKey(SubjectiveProperty("big"), "city")
SMALL = PropertyTypeKey(SubjectiveProperty("small"), "city")


def _three_class_world() -> tuple[KnowledgeBase, Scenario, dict]:
    """Cities that are big, small, or neither."""
    entities = []
    truth_class: dict[str, str] = {}
    for index in range(12):
        entity = Entity.create(f"Bigton{chr(97 + index)}", "city")
        entities.append(entity)
        truth_class[entity.id] = "big"
    for index in range(12):
        entity = Entity.create(f"Midville{chr(97 + index)}", "city")
        entities.append(entity)
        truth_class[entity.id] = "mid"
    for index in range(12):
        entity = Entity.create(f"Smallbury{chr(97 + index)}", "city")
        entities.append(entity)
        truth_class[entity.id] = "small"

    def truths(positive_class: str) -> dict[str, Polarity]:
        return {
            entity.id: (
                Polarity.POSITIVE
                if truth_class[entity.id] == positive_class
                else Polarity.NEGATIVE
            )
            for entity in entities
        }

    params = TrueParameters(
        agreement=0.88, rate_positive=25.0, rate_negative=4.0
    )
    scenario = Scenario(
        name="three-class-cities",
        entity_type="city",
        entities=tuple(entities),
        specs=(
            PropertySpec(
                property=SubjectiveProperty("big"),
                params=params,
                ground_truth=truths("big"),
            ),
            PropertySpec(
                property=SubjectiveProperty("small"),
                params=params,
                ground_truth=truths("small"),
            ),
        ),
    )
    return KnowledgeBase(entities), scenario, truth_class


def bench_antonym_expansion(benchmark):
    kb, scenario, truth_class = _three_class_world()
    corpus = CorpusGenerator(
        seed=2015, noise=NoiseProfile.CLEAN
    ).generate(scenario)
    annotator = Annotator(kb)
    extractor = EvidenceExtractor()
    statements = []
    for document in corpus:
        statements.extend(
            extractor.extract_document(
                annotator.annotate(document.doc_id, document.text)
            )
        )

    def interpret(expand: bool):
        counter = EvidenceCounter()
        counter.add_all(
            expand_with_antonyms(statements) if expand else statements
        )
        return SurveyorInterpreter(occurrence_threshold=1).interpret(
            counter.as_evidence(), kb
        )

    plain_table = benchmark(lambda: interpret(False))
    antonym_table = interpret(True)

    def small_accuracy(table) -> tuple[float, int]:
        correct = 0
        mid_false_positives = 0
        total = 0
        for entity_id, klass in truth_class.items():
            predicted = table.polarity(entity_id, SMALL)
            expected = (
                Polarity.POSITIVE if klass == "small" else Polarity.NEGATIVE
            )
            total += 1
            correct += predicted is expected
            if klass == "mid" and predicted is Polarity.POSITIVE:
                mid_false_positives += 1
        return correct / total, mid_false_positives

    plain_acc, plain_fp = small_accuracy(plain_table)
    antonym_acc, antonym_fp = small_accuracy(antonym_table)
    lines = [
        "Rejected design — antonym expansion ('small' from 'not big')",
        f"plain    : accuracy={plain_acc:.3f} "
        f"mid-city false positives={plain_fp}",
        f"antonyms : accuracy={antonym_acc:.3f} "
        f"mid-city false positives={antonym_fp}",
        "paper's argument: users who consider a city not big do not "
        "necessarily consider it small.",
    ]
    emit("rejected_antonym_expansion", lines)
    # The expansion must not help, and it fabricates mid-city
    # positives.
    assert antonym_acc <= plain_acc
    assert antonym_fp >= plain_fp


def bench_pronoun_coreference(benchmark, harness):
    """Extension: claims riding on pronouns need the resolver."""
    scenario = harness.scenarios()[0]
    noise = NoiseProfile(
        distractor_rate=0.2,
        non_intrinsic_rate=0.0,
        loose_only_rate=0.0,
        allow_broad_renderings=False,
        pronoun_statement_rate=0.4,
    )
    corpus = CorpusGenerator(seed=2015, noise=noise).generate(scenario)

    def statements_with(resolve: bool) -> int:
        annotator = Annotator(harness.kb, resolve_pronouns=resolve)
        counter = EvidenceExtractor().extract_corpus(
            annotator.annotate(d.doc_id, d.text) for d in corpus
        )
        return counter.n_statements

    with_coref = benchmark.pedantic(
        lambda: statements_with(True), rounds=1, iterations=1
    )
    without_coref = statements_with(False)
    truth_total = sum(
        pos + neg for pos, neg in corpus.truth.values()
    )
    lines = [
        "Extension — pronoun coreference recall",
        f"rendered statements: {truth_total}",
        f"extracted with resolver   : {with_coref}",
        f"extracted without resolver: {without_coref}",
    ]
    emit("extension_pronoun_coref", lines)
    assert with_coref == truth_total
    assert without_coref < 0.75 * with_coref
