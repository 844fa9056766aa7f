"""Seeded input worlds for the mining workloads.

Two worlds share the evaluation types and their 25 subjective
properties:

* ``template`` — the Section 7 evaluation world exactly as the
  repository's own experiments build it: ``EvaluationHarness``
  scenarios (its default seed, 2015) rendered by ``CorpusGenerator``
  with the default ``NoiseProfile`` (~28.5k documents over 100
  entities); the workload seed seeds the rendering. Most sentences
  repeat, so the annotation memo answers ~85% of lookups.
* ``longtail`` — built here: 600 uniquely named entities per type in a
  knowledge base of their own, rendered by the same generator. A
  quarter of the entities draw about 1.5 statements per (entity,
  property) pair; the rest are rarely mentioned, as in the template
  world's heavy tail. Most sentences are new, so tokenizing, tagging,
  linking and parsing do the work, and EM fits 600 entities per
  combination.

Both are pure functions of the seed. :func:`table_digest` fingerprints
a mined opinion table (the serialised artefact's bytes) so a run can be
checked against the reference-path digest stored in ``digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from repro.core.types import Polarity, SubjectiveProperty
from repro.corpus import CorpusGenerator, NoiseProfile, WebCorpus
from repro.corpus.scenario import PropertySpec, Scenario
from repro.crowd.ground_truth import truths_by_property
from repro.evaluation.harness import (
    EVALUATION_TYPES,
    EvaluationHarness,
    combination_parameters,
)
from repro.kb.entity import Entity
from repro.kb.knowledge_base import KnowledgeBase
from repro.nlp import lexicon
from repro.storage.serialize import opinions_to_dict

#: Occurrence threshold of every mining run (the Section 7.1 setting).
OCCURRENCE_THRESHOLD = 100
#: Uniquely named entities per evaluation type in the long-tail world.
LONGTAIL_ENTITIES_PER_TYPE = 600
#: Mean statements per (entity, property) pair of its talked-about
#: entities, the share of those, and the mean of the rarely mentioned.
LONGTAIL_STATEMENTS_PER_PAIR = 1.5
LONGTAIL_ACTIVE_SHARE = 0.25
LONGTAIL_RARE_STATEMENTS_PER_PAIR = 0.05
#: Long-tail statements written as a pronoun pair ("We visited X . It
#: is cute ."), so the coreference resolver has work.
LONGTAIL_PRONOUN_RATE = 0.1
#: Worlds are drawn from ``seed % WORLD_SEEDS``; ``digests.json`` holds
#: the reference digest of every one of them.
WORLD_SEEDS = 32

DIGESTS_PATH = Path(__file__).with_name("digests.json")

_ONSETS = "bdfgkmnprstvz"
_VOWELS = "aeiou"
#: Final letters no adjective/adverb suffix rule of the tagger ends on,
#: so every generated name tags as a noun.
_CODAS = "dkmnprt"


def world_seed(seed: int) -> int:
    return seed % WORLD_SEEDS


def template_world(seed: int) -> tuple[KnowledgeBase, WebCorpus]:
    """The Section 7 evaluation world, rendered with ``seed``."""
    harness = EvaluationHarness()
    corpus = CorpusGenerator(seed=seed, noise=NoiseProfile()).generate(
        *harness.scenarios()
    )
    return harness.kb, corpus


def _names(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    reserved = (
        lexicon.ADJECTIVES
        | lexicon.COMMON_NOUNS
        | set(lexicon.TYPE_NOUNS)
        | lexicon.ADVERBS
    )
    names: list[str] = []
    while len(names) < count:
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(3)
        ) + rng.choice(_CODAS)
        if word in taken or word in reserved:
            continue
        taken.add(word)
        names.append(word.capitalize())
    return names


def longtail_world(seed: int) -> tuple[KnowledgeBase, WebCorpus]:
    """Many uniquely named entities, few statements each.

    Each combination keeps the template world's positive share and
    generative parameters; each entity's popularity is scaled so its
    expected statement count per property is
    ``LONGTAIL_STATEMENTS_PER_PAIR`` for talked-about entities and
    ``LONGTAIL_RARE_STATEMENTS_PER_PAIR`` for the rest (times a uniform
    0.5-1.5 spread).
    """
    rng = random.Random(f"longtail/{seed}")
    taken: set[str] = set()
    kb = KnowledgeBase()
    scenarios = []
    for entity_type in EVALUATION_TYPES:
        entities = [
            Entity.create(name, entity_type)
            for name in _names(rng, LONGTAIL_ENTITIES_PER_TYPE, taken)
        ]
        kb.add_all(entities)
        mentions = {
            entity.id: (
                LONGTAIL_STATEMENTS_PER_PAIR
                if rng.random() < LONGTAIL_ACTIVE_SHARE
                else LONGTAIL_RARE_STATEMENTS_PER_PAIR
            )
            for entity in entities
        }
        specs = []
        for property_text, truth in truths_by_property(entity_type).items():
            positive_share = sum(truth.values()) / len(truth)
            params = combination_parameters(entity_type, property_text)
            ground_truth: dict[str, Polarity] = {}
            popularity: dict[str, float] = {}
            for entity in entities:
                positive = rng.random() < positive_share
                ground_truth[entity.id] = (
                    Polarity.POSITIVE if positive else Polarity.NEGATIVE
                )
                rate = sum(params.poisson_rates(positive))
                popularity[entity.id] = (
                    mentions[entity.id] * rng.uniform(0.5, 1.5) / rate
                )
            specs.append(
                PropertySpec(
                    property=SubjectiveProperty.parse(property_text),
                    params=params,
                    ground_truth=ground_truth,
                    popularity=popularity,
                )
            )
        scenarios.append(
            Scenario(
                name=f"longtail-{entity_type}",
                entity_type=entity_type,
                entities=tuple(entities),
                specs=tuple(specs),
            )
        )
    noise = NoiseProfile(pronoun_statement_rate=LONGTAIL_PRONOUN_RATE)
    corpus = CorpusGenerator(seed=seed, noise=noise).generate(*scenarios)
    return kb, corpus


WORLDS = {"mine_template": template_world, "mine_longtail": longtail_world}


def table_digest(table) -> str:
    """SHA-256 of the table's serialised artefact payload."""
    payload = json.dumps(opinions_to_dict(table), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def distinct_sentence_share(corpus: WebCorpus) -> float:
    """Distinct sentences over all sentences (memo-independent)."""
    from repro.nlp.tokenizer import split_sentences

    seen: set[str] = set()
    total = 0
    for document in corpus.documents:
        for raw in split_sentences(document.text):
            seen.add(raw)
            total += 1
    return len(seen) / max(total, 1)


def stored_digest(workload: str, seed: int) -> str | None:
    if not DIGESTS_PATH.exists():
        return None
    digests = json.loads(DIGESTS_PATH.read_text())
    return digests.get(workload, {}).get(str(world_seed(seed)))
