"""Bounded-sample evidence lineage for extracted statements.

Every opinion Surveyor serves is a posterior distilled from ``<C+, C->``
counts; this module keeps enough raw material to answer *why* — for each
(entity, property-type) pair it keeps a handful of sampled statements
(doc id, sentence index, matched dependency pattern, polarity, negation
count, sentence text) and reads the exact positive/negative totals from
the :class:`~repro.extraction.statement.EvidenceCounter`, the one owner
of ``<C+, C->``.

The capture is deliberately bounded: at most ``samples_per_polarity``
sampled statements per polarity per pair, with sentence text truncated
to :data:`MAX_SENTENCE_CHARS`, so the ledger stays a small constant
factor of the evidence counter, never a copy of the corpus.

Cost model: the extraction fast path shares memoized statement protos
across every document containing the same sentence, so the ledger
samples *once per distinct sentence* (:meth:`ProvenanceLedger.sample_line`,
guarded by an identity check that costs two dict probes on repeats)
and counts nothing: the counter already counts every statement, and
every read takes the totals from it. The per-statement hot path stays
untouched; benchmarks/bench_provenance.py gates the residue.

Reading the ledger costs what changed since the last read: the ledger
keeps each pair's frozen :class:`PairProvenance` view, and a view
keeps its canonical JSON text once encoded. A read reuses a view while
its totals equal the counter's and its samples are unchanged (every
mutator drops the views of the pairs whose samples it changes), so a
live ingest cycle re-materializes and re-encodes only the pairs its
batch touched. A fresh ledger is the same path with every pair dirty.

Determinism: workers visit sentences in document order within a
shard, the seen-line marker is per-ledger (never shared state), and
the runner merges shard ledgers in ``shard_id`` order — exactly the
order the evidence counters merge in — so two runs over the same
corpus with the same shard count produce byte-identical sidecars
whether the annotation memo was cold or warm. Lineage samples are
kept in shard order, and documents are dealt to shards round-robin,
so a pair's samples, and the sidecar's bytes, depend on the shard
count (``repro mine --workers``); ``opinions.json`` does not.

The write side (:class:`ProvenanceLedger`) lives in the extraction
workers and merges across shards; the read side
(:class:`ProvenanceIndex`) additionally links each pair to its
combination's learned model parameters ``(pA, p+S, p-S)`` and EM
convergence verdict, and is what the sidecar file and the ``/explain``
surface serialize.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from ..core.params import ModelParameters
from ..core.types import Polarity, PropertyTypeKey
from ..storage.canonical import Encoded, encode
from .statement import EvidenceCounter, EvidenceStatement

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.surveyor import SurveyorResult
    from ..obs.convergence import ConvergenceRecord

#: Sampled statements kept per polarity per (entity, property) pair.
DEFAULT_SAMPLES_PER_POLARITY = 3

#: Sentence text is truncated to this many characters in samples.
MAX_SENTENCE_CHARS = 240


@dataclass(frozen=True, slots=True)
class ProvenanceSample:
    """One sampled statement supporting or refuting a pair."""

    doc_id: str
    sentence_index: int
    pattern: str
    polarity: str  # "positive" | "negative"
    negations: int
    sentence: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "doc_id": self.doc_id,
            "sentence_index": self.sentence_index,
            "pattern": self.pattern,
            "polarity": self.polarity,
            "negations": self.negations,
            "sentence": self.sentence,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ProvenanceSample":
        return cls(
            doc_id=str(payload["doc_id"]),
            sentence_index=int(payload["sentence_index"]),
            pattern=str(payload["pattern"]),
            polarity=str(payload["polarity"]),
            negations=int(payload.get("negations", 0)),
            sentence=str(payload.get("sentence", "")),
        )


@dataclass(frozen=True, slots=True)
class PairProvenance:
    """Lineage for one (entity, property-type) pair.

    ``positive_seen``/``negative_seen`` are the evidence counter's
    exact totals; ``samples`` is the bounded subset the ledger kept.
    """

    positive_seen: int
    negative_seen: int
    samples: tuple[ProvenanceSample, ...] = ()
    #: The canonical JSON text, encoded on first use (views are
    #: immutable, so it never goes stale).
    _json: Encoded | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def to_dict(self) -> dict[str, Any]:
        return {
            "positive": int(self.positive_seen),
            "negative": int(self.negative_seen),
            "samples": [sample.to_dict() for sample in self.samples],
        }

    @classmethod
    def from_dict(cls, row: dict[str, Any]) -> "PairProvenance":
        return cls(
            positive_seen=int(row["positive"]),
            negative_seen=int(row["negative"]),
            samples=tuple(
                ProvenanceSample.from_dict(sample)
                for sample in row.get("samples", ())
            ),
        )

    def to_json(self) -> Encoded:
        """:meth:`to_dict` as canonical JSON text, which the artefact
        writer splices in place of the row."""
        text = self._json
        if text is None:
            text = Encoded(encode(self.to_dict()))
            object.__setattr__(self, "_json", text)
        return text


def _raw_from_sample(sample: ProvenanceSample) -> tuple:
    """Internal slot entry for one sample (field order matches)."""
    return (
        sample.doc_id,
        sample.sentence_index,
        sample.pattern,
        sample.polarity,
        sample.negations,
        sample.sentence,
    )


def _empty_slot() -> list[Any]:
    """A pair's slot before any sample: ``[pos_samples, neg_samples,
    view]``."""
    return [[], [], None]


def _sample(
    statement: EvidenceStatement, sentence_index: int, polarity: str
) -> tuple:
    """Internal slot entry for one statement (field order matches)."""
    return (
        statement.doc_id,
        sentence_index,
        statement.pattern,
        polarity,
        statement.negations,
        statement.sentence[:MAX_SENTENCE_CHARS],
    )


class ProvenanceLedger:
    """Accumulates bounded per-pair statement samples during extraction.

    Mirrors :class:`~repro.extraction.statement.EvidenceCounter`'s
    shape (plain nested dicts, picklable across process-pool workers)
    with a ``merge`` that is associative given the runner's sorted
    shard order: the first ``samples_per_polarity`` statements per
    polarity in merge order win. The ledger counts nothing: every read
    takes the counter and reports exactly the counter's pairs, with the
    counter's totals.
    """

    def __init__(
        self,
        samples_per_polarity: int = DEFAULT_SAMPLES_PER_POLARITY,
    ) -> None:
        if samples_per_polarity < 1:
            raise ValueError(
                "samples_per_polarity must be >= 1, got "
                f"{samples_per_polarity}"
            )
        self.samples_per_polarity = int(samples_per_polarity)
        # One flat dict keyed by (property, entity_type, entity_id),
        # value [pos_samples, neg_samples, view], created empty on
        # first touch. The flat tuple key hashes several times cheaper
        # than constructing a PropertyTypeKey per statement, and the
        # split sample lists turn the per-polarity cap check into one
        # len(). Samples are held as plain field tuples
        # (:class:`ProvenanceSample` construction costs ~5x a tuple;
        # per-shard ledgers build several times more samples than
        # survive the merge cap) and materialized by the view: the
        # frozen PairProvenance of the pair's last read. A mutator that
        # changes a pair's samples drops its view; a read rebuilds one
        # whose totals the counter has since moved.
        self._slots: defaultdict[tuple[Any, str, str], list[Any]] = (
            defaultdict(_empty_slot)
        )
        # Memoized statement-proto tuples already sampled, keyed by
        # identity. The value keeps a strong reference so the id can
        # never be recycled for a different live line. Repeat visits
        # of a shared sentence cost two dict probes — the only work
        # provenance adds to the extraction hot path.
        self.seen_lines: dict[int, tuple] = {}

    def __getstate__(self) -> dict[str, Any]:
        # Shard ledgers cross process-pool boundaries; the seen-line
        # pins are identity-scoped (meaningless after unpickling) and
        # would drag full statement protos along — drop them, and the
        # views, which the receiving side rebuilds on first read.
        state = self.__dict__.copy()
        state["seen_lines"] = {}
        state["_slots"] = defaultdict(_empty_slot, {
            pair_key: [pos_s, neg_s, None]
            for pair_key, (pos_s, neg_s, _) in self._slots.items()
        })
        return state

    def record(
        self, statement: EvidenceStatement, sentence_index: int
    ) -> None:
        """Sample one statement if room remains.

        This is the non-memoized (reference/slow) extraction path,
        which visits every statement occurrence; the fast path samples
        each distinct sentence once through :meth:`sample_line`.
        """
        pair_key = (
            statement.property, statement.entity_type, statement.entity_id
        )
        slot = self._slots[pair_key]
        if statement.polarity is Polarity.POSITIVE:
            samples: list[tuple] = slot[0]
            polarity = "positive"
        else:
            samples = slot[1]
            polarity = "negative"
        if len(samples) < self.samples_per_polarity:
            samples.append(_sample(statement, sentence_index, polarity))
            slot[2] = None

    def sample_line(
        self,
        line: tuple,
        statements: list[EvidenceStatement],
        sentence_index: int,
    ) -> None:
        """Sample one memoized sentence's statements, once per ledger.

        ``line`` is the shared proto tuple (the identity marker);
        ``statements`` are the re-stamped copies carrying the current
        document's id. Sampling dedupes across the documents that
        share a sentence: samples are distinct sentences, each
        attributed to the first document (per shard) containing it.
        """
        self.seen_lines[id(line)] = line
        cap = self.samples_per_polarity
        slots = self._slots
        for statement in statements:
            pair_key = (
                statement.property,
                statement.entity_type,
                statement.entity_id,
            )
            slot = slots[pair_key]
            if statement.polarity is Polarity.POSITIVE:
                samples: list[tuple] = slot[0]
                polarity = "positive"
            else:
                samples = slot[1]
                polarity = "negative"
            if len(samples) < cap:
                samples.append(
                    _sample(statement, sentence_index, polarity)
                )
                slot[2] = None

    def seed_pair(
        self,
        key: PropertyTypeKey,
        entity_id: str,
        pair: PairProvenance,
    ) -> None:
        """Load one pair's persisted samples (checkpoint read path);
        its totals are the counter's, not the row's."""
        self._slots[key.property, key.entity_type, entity_id] = [
            [
                _raw_from_sample(s)
                for s in pair.samples
                if s.polarity == "positive"
            ],
            [
                _raw_from_sample(s)
                for s in pair.samples
                if s.polarity == "negative"
            ],
            None,
        ]

    def merge(self, other: "ProvenanceLedger") -> None:
        """Fold another ledger in (the reduce side of the pipeline).

        Samples concatenate in merge order and re-truncate per
        polarity, so the earliest-merged shards' samples win —
        deterministic because the runner merges shards sorted by id.
        """
        cap = self.samples_per_polarity
        for pair_key, (pos_s, neg_s, _) in other._slots.items():
            slot = self._slots[pair_key]
            room = cap - len(slot[0])
            if room > 0 and pos_s:
                slot[0].extend(pos_s[:room])
                slot[2] = None
            room = cap - len(slot[1])
            if room > 0 and neg_s:
                slot[1].extend(neg_s[:room])
                slot[2] = None

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def _view(
        self, pair_key: tuple[Any, str, str], totals: list[int]
    ) -> PairProvenance:
        """The pair's kept view while its totals still equal the
        counter's ``totals``; otherwise one built now."""
        positive, negative = totals
        slot = self._slots[pair_key]
        view = slot[2]
        if (
            view is None
            or view.positive_seen != positive
            or view.negative_seen != negative
        ):
            pos_s, neg_s, _ = slot
            view = slot[2] = PairProvenance(
                positive_seen=positive,
                negative_seen=negative,
                samples=tuple(
                    ProvenanceSample(
                        doc_id=raw[0],
                        sentence_index=int(raw[1]),
                        pattern=raw[2],
                        polarity=raw[3],
                        negations=raw[4],
                        sentence=raw[5],
                    )
                    for raw in (*pos_s, *neg_s)
                ),
            )
        return view

    def for_pair(
        self,
        key: PropertyTypeKey,
        entity_id: str,
        counter: EvidenceCounter,
    ) -> PairProvenance | None:
        """One pair's view, or ``None`` when ``counter`` lacks it."""
        totals = counter._counts.get(key, {}).get(entity_id)
        if totals is None:
            return None
        return self._view(
            (key.property, key.entity_type, entity_id), totals
        )

    def combinations(
        self, counter: EvidenceCounter
    ) -> dict[PropertyTypeKey, dict[str, PairProvenance]]:
        """A view of every pair ``counter`` holds, grouped by
        combination: the totals are the counter's, the samples the
        ledger's."""
        view = self._view
        return {
            key: {
                entity_id: view(
                    (key.property, key.entity_type, entity_id), totals
                )
                for entity_id, totals in per_entity.items()
            }
            for key, per_entity in counter._counts.items()
        }

    def pairs(
        self, counter: EvidenceCounter
    ) -> Iterator[tuple[PropertyTypeKey, str, PairProvenance]]:
        for key, per_entity in self.combinations(counter).items():
            for entity_id, pair in per_entity.items():
                yield key, entity_id, pair


class ProvenanceIndex:
    """Read-side lineage: pairs linked to their fitted model and
    convergence verdict — the object the sidecar file serializes and
    ``/explain`` reads."""

    def __init__(
        self,
        pairs: dict[PropertyTypeKey, dict[str, PairProvenance]],
        models: dict[PropertyTypeKey, ModelParameters] | None = None,
        convergence: dict[PropertyTypeKey, dict[str, Any]] | None = None,
        samples_per_polarity: int = DEFAULT_SAMPLES_PER_POLARITY,
    ) -> None:
        self._pairs = pairs
        self._models = models or {}
        self._convergence = convergence or {}
        self.samples_per_polarity = int(samples_per_polarity)

    @classmethod
    def from_run(
        cls,
        ledger: ProvenanceLedger,
        evidence: EvidenceCounter,
        result: "SurveyorResult | None" = None,
        convergence: "list[ConvergenceRecord] | None" = None,
    ) -> "ProvenanceIndex":
        """Link a run's ledger and evidence to its fits and
        convergence records."""
        pairs = ledger.combinations(evidence)
        models: dict[PropertyTypeKey, ModelParameters] = {}
        by_text: dict[str, PropertyTypeKey] = {}
        if result is not None:
            for key, fit in result.fits.items():
                models[key] = fit.parameters
                by_text[str(key)] = key
        summaries: dict[PropertyTypeKey, dict[str, Any]] = {}
        for record in convergence or ():
            # ConvergenceRecord carries the key flattened to text;
            # join it back through the fits it was built from.
            key = by_text.get(record.key)
            if key is None:
                continue
            summaries[key] = {
                "verdict": record.verdict,
                "iterations": record.iterations,
                "converged": record.converged,
                "degraded": record.degraded,
            }
        return cls(
            pairs,
            models,
            summaries,
            samples_per_polarity=ledger.samples_per_polarity,
        )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def for_pair(
        self, key: PropertyTypeKey, entity_id: str
    ) -> PairProvenance | None:
        return self._pairs.get(key, {}).get(entity_id)

    def model_for(self, key: PropertyTypeKey) -> ModelParameters | None:
        return self._models.get(key)

    def convergence_for(
        self, key: PropertyTypeKey
    ) -> dict[str, Any] | None:
        summary = self._convergence.get(key)
        return dict(summary) if summary is not None else None

    def keys(self) -> list[PropertyTypeKey]:
        return list(self._pairs)

    def entities_for(self, key: PropertyTypeKey) -> list[str]:
        return sorted(self._pairs.get(key, {}))

    def models(self) -> dict[PropertyTypeKey, ModelParameters]:
        return dict(self._models)

    def convergence(self) -> dict[PropertyTypeKey, dict[str, Any]]:
        return {k: dict(v) for k, v in self._convergence.items()}

    @property
    def n_pairs(self) -> int:
        return sum(len(v) for v in self._pairs.values())

    @property
    def n_samples(self) -> int:
        return sum(
            len(pair.samples)
            for per_entity in self._pairs.values()
            for pair in per_entity.values()
        )
