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

Reading the ledger costs what changed since the last read, one
combination at a time. Every mutator stamps the combinations whose
samples it changed, and :meth:`ProvenanceIndex.from_run` given the
previous index keeps a combination's lineage block (the very dict of
its pair views) while its evidence block
(:meth:`EvidenceCounter.blocks`) and its stamp are the ones that block
was built from. A live ingest cycle therefore rebuilds only the
combinations its batch touched, and the sidecar writer
(:class:`~repro.storage.LineageRows`) splices the kept text of the
others, and of the unchanged pairs of those. A fresh index is the same
path with every combination rebuilt.

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
from functools import partial
from typing import TYPE_CHECKING, Any, NamedTuple

from ..core.params import ModelParameters
from ..core.types import EvidenceBlock, Polarity, PropertyTypeKey
from .statement import EvidenceCounter, EvidenceStatement

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.surveyor import SurveyorResult
    from ..obs.convergence import ConvergenceRecord

#: Sampled statements kept per polarity per (entity, property) pair.
DEFAULT_SAMPLES_PER_POLARITY = 3

#: Sentence text is truncated to this many characters in samples.
MAX_SENTENCE_CHARS = 240


class ProvenanceSample(NamedTuple):
    """One sampled statement supporting or refuting a pair. A named
    tuple: the ledger keeps thousands of them per shard, and a read
    passes them on as they are."""

    doc_id: str
    sentence_index: int
    pattern: str
    polarity: str  # "positive" | "negative"
    negations: int
    sentence: str

    def to_dict(self) -> dict[str, Any]:
        return self._asdict()

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


class PairProvenance(NamedTuple):
    """Lineage for one (entity, property-type) pair.

    ``positive_seen``/``negative_seen`` are the evidence counter's
    exact totals; ``samples`` is the bounded subset the ledger kept.
    """

    positive_seen: int
    negative_seen: int
    samples: tuple[ProvenanceSample, ...] = ()

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


def _empty_slot() -> list[Any]:
    """A pair's slot before any sample: ``[pos_samples, neg_samples]``."""
    return [[], []]


def _empty_combination() -> list[Any]:
    """A combination's entry before any sample: ``[stamp, slots]``."""
    return [None, defaultdict(_empty_slot)]


#: Build a sample or a pair view from its field tuple, skipping the
#: named tuple's keyword-handling constructor (extraction and a
#: lineage read make one per statement or pair).
_new_sample = partial(tuple.__new__, ProvenanceSample)
_new_pair = partial(tuple.__new__, PairProvenance)


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
        # (property, entity_type) -> [stamp, {entity_id: [pos_samples,
        # neg_samples]}], created empty on first touch. The tuple key
        # hashes several times cheaper than constructing a
        # PropertyTypeKey per statement, and the split sample lists
        # turn the per-polarity cap check into one len(). The stamp is
        # a token replaced whenever a sample of the combination
        # changes (see ProvenanceIndex.from_run).
        self._slots: defaultdict[tuple[Any, str], list[Any]] = (
            defaultdict(_empty_combination)
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
        # would drag full statement protos along.
        state = self.__dict__.copy()
        state["seen_lines"] = {}
        return state

    def _add(self, statement: EvidenceStatement, index: int) -> None:
        """Sample one statement if its pair has room left."""
        combination = self._slots[statement.property, statement.entity_type]
        slot = combination[1][statement.entity_id]
        if statement.polarity is Polarity.POSITIVE:
            samples: list[tuple] = slot[0]
            polarity = "positive"
        else:
            samples = slot[1]
            polarity = "negative"
        if len(samples) < self.samples_per_polarity:
            samples.append(_new_sample((
                statement.doc_id, index, statement.pattern, polarity,
                statement.negations, statement.sentence[:MAX_SENTENCE_CHARS],
            )))
            combination[0] = object()

    def record(
        self, statement: EvidenceStatement, sentence_index: int
    ) -> None:
        """Sample one statement if room remains.

        This is the non-memoized (reference/slow) extraction path,
        which visits every statement occurrence; the fast path samples
        each distinct sentence once through :meth:`sample_line`.
        """
        self._add(statement, sentence_index)

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
        for statement in statements:
            self._add(statement, sentence_index)

    def seed_pair(
        self,
        key: PropertyTypeKey,
        entity_id: str,
        pair: PairProvenance,
    ) -> None:
        """Load one pair's persisted samples (checkpoint read path);
        its totals are the counter's, not the row's."""
        combination = self._slots[key.property, key.entity_type]
        combination[1][entity_id] = [
            [s for s in pair.samples if s.polarity == "positive"],
            [s for s in pair.samples if s.polarity == "negative"],
        ]
        combination[0] = object()

    def merge(self, other: "ProvenanceLedger") -> None:
        """Fold another ledger in (the reduce side of the pipeline).

        Samples concatenate in merge order and re-truncate per
        polarity, so the earliest-merged shards' samples win —
        deterministic because the runner merges shards sorted by id.
        """
        cap = self.samples_per_polarity
        stamp = object()
        for combination_key, (_, theirs) in other._slots.items():
            combination = self._slots[combination_key]
            slots = combination[1]
            for entity_id, (pos_s, neg_s) in theirs.items():
                slot = slots[entity_id]
                for mine, samples in ((slot[0], pos_s), (slot[1], neg_s)):
                    room = cap - len(mine)
                    if room > 0 and samples:
                        mine.extend(samples[:room])
                        combination[0] = stamp

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def stamp(self, key: PropertyTypeKey) -> object | None:
        """The token of the combination's samples as they are now
        (``None`` before any): equal tokens, unchanged samples."""
        combination = self._slots.get((key.property, key.entity_type))
        return None if combination is None else combination[0]

    def lineage(
        self, key: PropertyTypeKey, evidence: EvidenceBlock
    ) -> dict[str, PairProvenance]:
        """One combination's lineage block: a view per pair of its
        evidence block, with the block's totals and the ledger's
        samples."""
        combination = self._slots.get((key.property, key.entity_type))
        slots = {} if combination is None else combination[1]
        block = {}
        for entity_id, positive, negative in zip(
            evidence.ids, evidence.positive, evidence.negative
        ):
            slot = slots.get(entity_id)
            block[entity_id] = _new_pair((
                positive,
                negative,
                () if slot is None else (*slot[0], *slot[1]),
            ))
        return block

    def combinations(
        self, counter: EvidenceCounter
    ) -> dict[PropertyTypeKey, dict[str, PairProvenance]]:
        """The lineage block of every combination ``counter`` holds:
        the totals are the counter's, the samples the ledger's."""
        return {
            key: self.lineage(key, block)
            for key, block in counter.blocks().items()
        }


class ProvenanceIndex:
    """Read-side lineage: pairs linked to their fitted model and
    convergence verdict — the object the sidecar file serializes and
    ``/explain`` reads. Its pairs come in one block (a dict that is
    never changed) per combination."""

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
        # Per combination, the (evidence block, ledger stamp) its
        # block was built from (from_run's indexes only).
        self._sources: dict[PropertyTypeKey, tuple[Any, Any]] = {}

    @classmethod
    def from_run(
        cls,
        ledger: ProvenanceLedger,
        evidence: EvidenceCounter,
        result: "SurveyorResult | None" = None,
        convergence: "list[ConvergenceRecord] | None" = None,
        previous: "ProvenanceIndex | None" = None,
    ) -> "ProvenanceIndex":
        """Link a run's ledger and evidence to its fits and
        convergence records.

        ``previous`` is an earlier index of ``ledger``: a combination
        whose evidence block and sample stamp are still the very ones
        its block there was built from keeps that block, so only the
        combinations that changed since are built again."""
        carried = {} if previous is None else previous._sources
        pairs = {}
        sources = {}
        for key, block in evidence.blocks().items():
            # Blocks and stamps compare by identity.
            sources[key] = source = (block, ledger.stamp(key))
            if carried.get(key) == source:
                pairs[key] = previous._pairs[key]
            else:
                pairs[key] = ledger.lineage(key, block)
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
        index = cls(
            pairs,
            models,
            summaries,
            samples_per_polarity=ledger.samples_per_polarity,
        )
        index._sources = sources
        return index

    def block(self, key: PropertyTypeKey) -> dict[str, PairProvenance]:
        """One combination's pairs, ``{entity_id: pair}``; the same
        object while the combination is carried (do not change it)."""
        return self._pairs.get(key, {})

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
