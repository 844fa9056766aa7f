"""Malformed artefacts: one mutated field never escapes as a raw error.

Each test takes a valid payload of one artefact kind, changes one field
(drops it, or swaps in a value of another JSON shape), and opens the
result with :func:`repro.storage.load`. It must either load or raise a
:class:`~repro.core.errors.ReproError` (the reader's ``FormatError``),
which the CLI reports as one ``repro: error:`` line. Valid payloads
round-trip unchanged.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EvidenceCounts,
    ModelParameters,
    Opinion,
    OpinionTable,
    PropertyTypeKey,
    SubjectiveProperty,
)
from repro.core.em import EMTrace
from repro.core.errors import ReproError
from repro.core.surveyor import FittedCombination
from repro.core.types import Polarity
from repro.corpus import CorpusGenerator
from repro.extraction import (
    EvidenceCounter,
    EvidenceStatement,
    ExtractionStats,
    ProvenanceIndex,
    ProvenanceLedger,
)
from repro.ingest.state import IngestState
from repro.kb import Entity, KnowledgeBase
from repro.obs import MetricsRegistry, build_manifest, records_to_payload
from repro.obs.convergence import ConvergenceRecord, convergence_to_dict
from repro.pipeline import SurveyorPipeline
from repro.storage import load
from repro.storage.serialize import (
    evidence_to_dict,
    kb_to_dict,
    opinions_to_dict,
    parameters_to_dict,
    provenance_to_dict,
    shard_checkpoint_to_dict,
)

CUTE = PropertyTypeKey(SubjectiveProperty("cute"), "animal")
VERY_BIG = PropertyTypeKey(SubjectiveProperty("big", ("very",)), "city")
FUZZ = settings(max_examples=30, deadline=None, derandomize=True)


def _statement(entity_id, key, polarity, doc_id="d1"):
    return EvidenceStatement(
        entity_id=entity_id,
        entity_type=key.entity_type,
        property=key.property,
        polarity=polarity,
        pattern="acomp",
        doc_id=doc_id,
        sentence=f"{entity_id} sentence",
    )


def _counter_and_ledger():
    counter = EvidenceCounter()
    ledger = ProvenanceLedger()
    for index, statement in enumerate([
        _statement("/animal/kitten", CUTE, Polarity.POSITIVE),
        _statement("/animal/kitten", CUTE, Polarity.NEGATIVE, "d2"),
        _statement("/city/tokyo", VERY_BIG, Polarity.POSITIVE),
    ]):
        counter.add(statement)
        ledger.record(statement, index)
    return counter, ledger


def _payloads():
    counter, ledger = _counter_and_ledger()
    model = ModelParameters(0.8, 5.0, 1.0)
    table = OpinionTable([
        Opinion("/animal/kitten", CUTE, 0.97, EvidenceCounts(9, 1)),
        Opinion("/city/tokyo", VERY_BIG, 0.12, EvidenceCounts(0, 4)),
    ])
    table.mark_degraded(VERY_BIG)
    pairs: dict = {}
    for key, entity_id, pair in ledger.pairs():
        pairs.setdefault(key, {})[entity_id] = pair
    lineage = ProvenanceIndex(
        pairs,
        {CUTE: model},
        {CUTE: {"verdict": "converged", "iterations": 4}},
    )
    kb = KnowledgeBase([
        Entity.create(
            "kitten", "animal", aliases=("kitty",), cuteness=0.9
        ),
        Entity.create("tokyo", "city"),
    ])
    letter = {"doc_id": "d9", "stage": "annotate", "error": "E: x"}
    record = ConvergenceRecord(
        key="cute animal",
        verdict="converged",
        iterations=2,
        converged=True,
        degraded=False,
        n_entities=1,
        n_statements=2,
        final_log_likelihood=-1.5,
        log_likelihoods=(-2.0, -1.5),
        agreement_path=(0.7, 0.8),
        rate_positive_path=(4.0, 5.0),
        rate_negative_path=(1.0, 1.0),
    )
    registry = MetricsRegistry()
    registry.inc("repro_opinions_total", 9)
    registry.observe("repro_shard_seconds", 0.25)
    registry.observe("repro_serve_request_seconds", 0.01, exemplar="t1")
    return {
        "opinions": opinions_to_dict(table),
        "parameters": parameters_to_dict({CUTE: model}),
        "kb": kb_to_dict(kb),
        "provenance": provenance_to_dict(lineage),
        "evidence": evidence_to_dict(counter),
        "checkpoint": shard_checkpoint_to_dict(
            3, counter, [letter], ledger
        ),
        "state": _state(counter, ledger).to_dict(),
        "convergence": convergence_to_dict([record]),
        "manifest": build_manifest(
            command="mine",
            config={"threshold": 1},
            started_unix=0.0,
            duration_seconds=1.0,
            outputs={"opinions": "opinions.json"},
        ),
        "metrics": {
            **registry.to_dict(),
            "em_convergence": records_to_payload([record]),
        },
    }


def _state(counter, ledger):
    fit = FittedCombination(
        key=CUTE,
        parameters=ModelParameters(0.8, 5.0, 1.0),
        trace=EMTrace(
            iterations=3,
            converged=True,
            log_likelihoods=(-2.0, -1.5),
            parameters_path=(),
        ),
        n_entities=1,
        n_statements=2,
    )
    return IngestState(
        applied_offset=7,
        generation=2,
        evidence=counter,
        ledger=ledger,
        stats=ExtractionStats(documents=2, sentences=3, statements=3),
        fits={CUTE: fit},
    )


PAYLOADS = _payloads()

#: Turns what :func:`load` returns for each codec back into its payload.
ENCODERS = {
    "opinions": opinions_to_dict,
    "parameters": parameters_to_dict,
    "kb": kb_to_dict,
    "provenance": provenance_to_dict,
    "evidence": evidence_to_dict,
    "checkpoint": lambda loaded: shard_checkpoint_to_dict(*loaded),
    "state": IngestState.to_dict,
    "convergence": convergence_to_dict,
    "manifest": dict,
    "metrics": lambda loaded: {
        **loaded,
        "em_convergence": records_to_payload(loaded["em_convergence"]),
    },
}


def _paths(node, prefix=()):
    """Every addressable field of a JSON tree (dict keys, list slots)."""
    found = []
    children = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list)
        else ()
    )
    for step, child in children:
        found.append((*prefix, step))
        found.extend(_paths(child, (*prefix, step)))
    return found


_REPLACEMENTS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.just("a|b"),
    st.just([]),
    st.just({}),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)


@st.composite
def _mutated(draw, payload):
    """``payload`` with one field dropped or given another value."""
    tree = json.loads(json.dumps(payload))
    path = draw(st.sampled_from(_paths(tree)))
    parent = tree
    for step in path[:-1]:
        parent = parent[step]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(_REPLACEMENTS)
    return tree


@pytest.mark.parametrize("codec", sorted(PAYLOADS))
def test_valid_payload_round_trips(codec, tmp_path):
    path = tmp_path / "artefact.json"
    path.write_text(json.dumps(PAYLOADS[codec]))
    loaded = load(path, PAYLOADS[codec]["format"])
    assert ENCODERS[codec](loaded) == PAYLOADS[codec]


@pytest.mark.parametrize("codec", sorted(PAYLOADS))
def test_one_mutated_field_loads_or_raises_repro_error(codec, tmp_path):
    path = tmp_path / "artefact.json"

    @FUZZ
    @given(_mutated(PAYLOADS[codec]))
    def check(mutated):
        path.write_text(json.dumps(mutated))
        try:
            load(path, PAYLOADS[codec]["format"])
        except ReproError:
            pass

    check()


def test_opinion_row_without_entity_is_a_format_error(tmp_path):
    payload = json.loads(json.dumps(PAYLOADS["opinions"]))
    del payload["opinions"][0]["entity"]
    path = tmp_path / "op.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ReproError, match="malformed opinions"):
        load(path)


def test_resume_recomputes_malformed_checkpoints(
    small_kb, cute_scenario, tmp_path
):
    """A checkpoint that parses as JSON but not as a checkpoint (here:
    ``combinations`` not an object, a dead letter without fields) is
    recomputed on resume instead of crashing the run."""
    corpus = CorpusGenerator(seed=21).generate(cute_scenario)
    run_dir = tmp_path / "run"

    def run():
        return SurveyorPipeline(
            kb=small_kb, occurrence_threshold=10, n_workers=3,
            checkpoint_dir=run_dir,
        ).run(corpus)

    first = run()
    for shard_id, damage in (
        (0, lambda payload: payload["evidence"].update(combinations=5)),
        (1, lambda payload: payload["dead_letters"].append({})),
    ):
        victim = run_dir / f"shard-{shard_id:05d}.json"
        payload = json.loads(victim.read_text())
        damage(payload)
        victim.write_text(json.dumps(payload))
    again = run()
    assert again.health.corrupt_checkpoints == 2
    assert again.health.resumed_shards == 1
    assert again.evidence == first.evidence
