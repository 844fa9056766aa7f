"""JSON (de)serialization for the library's durable artefacts.

A deployment mines opinions once and serves them for months; this
module provides stable, versioned JSON round-trips for the knowledge
base, aggregated evidence, fitted model parameters, and the opinion
table. Payloads are plain dicts (no custom classes), written as compact
JSON with sorted keys: deterministic, language-agnostic, and readable
through ``python -m json.tool``. Loaders ignore whitespace, so files
written in the older indented layout still load.

Every JSON artefact of the library, including the ones whose codecs
live in other layers (ingest state, EM convergence, run manifests,
metrics), is written by :func:`_atomic_write_json` and opened by
:func:`load`, which turns anything undecodable, malformed or of the
wrong kind into one :class:`FormatError` naming the file.

A writer that publishes one generation after another (the ingest
pipeline) passes a :class:`BlockText` per artefact:
:func:`opinions_to_dict` takes an :class:`OpinionRows` and
:func:`provenance_to_dict` a :class:`LineageRows`. Each keeps the
canonical text of every combination block it rendered, and a later
generation holding the very same block object splices that text. The
bytes are those of encoding the decoded payload whole.
"""

from __future__ import annotations

import importlib
import json
import os
from collections.abc import Iterable
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any

from ..core.errors import CheckpointError, FormatError
from ..core.params import ModelParameters
from ..core.result import OpinionTable
from ..core.types import (
    EvidenceCounts,
    Opinion,
    PropertyTypeKey,
    SubjectiveProperty,
)
from ..extraction.provenance import (
    PairProvenance,
    ProvenanceIndex,
    ProvenanceLedger,
)
from ..extraction.statement import EvidenceCounter
from ..kb.entity import Entity
from ..kb.knowledge_base import KnowledgeBase
from .canonical import Encoded, encode

#: The one envelope version every artefact kind is written with.
FORMAT_VERSION = 1

#: What a decoder raises when a field holds the wrong shape of value
#: (a missing key, a string where a number belongs, ...). :func:`load`
#: converts these to :class:`FormatError`.
_MALFORMED = (
    LookupError, TypeError, ValueError, AttributeError, ArithmeticError,
)


def _check_version(payload: dict, kind: str) -> None:
    """The ``format``/``version`` envelope check, for the payloads
    embedded inside another artefact; :func:`load` checks the outer
    one."""
    if not isinstance(payload, dict):
        raise FormatError(f"{kind}: expected a JSON object")
    if payload.get("format") != kind:
        raise FormatError(
            f"expected format {kind!r}, got {payload.get('format')!r}"
        )
    if payload.get("version") != FORMAT_VERSION:
        raise FormatError(
            f"{kind}: unsupported version {payload.get('version')!r}"
        )


def _key_from_str(text: str) -> PropertyTypeKey:
    property_text, _, entity_type = text.partition("|")
    if not entity_type:
        raise FormatError(f"malformed combination key {text!r}")
    return PropertyTypeKey(
        property=SubjectiveProperty.parse(property_text),
        entity_type=entity_type,
    )


# ---------------------------------------------------------------------------
# Knowledge base
# ---------------------------------------------------------------------------

def kb_to_dict(kb: KnowledgeBase) -> dict[str, Any]:
    return {
        "format": "knowledge_base",
        "version": FORMAT_VERSION,
        "entities": [
            {
                "id": entity.id,
                "name": entity.name,
                "type": entity.entity_type,
                "aliases": list(entity.aliases),
                "attributes": dict(entity.attributes),
            }
            for entity in kb
        ],
    }


def kb_from_dict(payload: dict[str, Any]) -> KnowledgeBase:
    entities = []
    for row in payload["entities"]:
        entities.append(
            Entity(
                id=row["id"],
                name=row["name"],
                entity_type=row["type"],
                aliases=tuple(row.get("aliases", ())),
                attributes={
                    k: float(v)
                    for k, v in row.get("attributes", {}).items()
                },
            )
        )
    return KnowledgeBase(entities)


# ---------------------------------------------------------------------------
# Evidence counts
# ---------------------------------------------------------------------------

def evidence_to_dict(counter: EvidenceCounter) -> dict[str, Any]:
    return {
        "format": "evidence",
        "version": FORMAT_VERSION,
        "combinations": {
            key.text: {
                entity_id: [positive, negative]
                for entity_id, positive, negative in zip(
                    block.ids, block.positive, block.negative
                )
            }
            for key, block in counter.blocks().items()
        },
    }


def _evidence_count(value: Any) -> int:
    # ``type(...) is int`` rather than isinstance: JSON true/false load
    # as bools, which are ints to isinstance but never a count.
    if type(value) is not int or value < 0:
        raise FormatError(
            f"evidence count must be a non-negative integer, "
            f"got {value!r}"
        )
    return value


def evidence_from_dict(payload: dict[str, Any]) -> EvidenceCounter:
    """Rebuild a counter in one step per pair (not per statement), so
    loading costs O(pairs) whatever the counts; malformed counts raise
    :class:`FormatError`. Checks its own envelope, since checkpoints
    and ingest state embed it."""
    _check_version(payload, "evidence")
    counter = EvidenceCounter()
    for key_text, per_entity in payload["combinations"].items():
        key = _key_from_str(key_text)
        if not isinstance(per_entity, dict):
            raise FormatError(
                f"evidence for {key_text!r}: expected an object"
            )
        for entity_id, pair in per_entity.items():
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise FormatError(
                    f"evidence for {key_text!r}/{entity_id!r}: "
                    f"expected a [positive, negative] pair, got {pair!r}"
                )
            counter.seed_pair(
                key,
                entity_id,
                _evidence_count(pair[0]),
                _evidence_count(pair[1]),
            )
    return counter


# ---------------------------------------------------------------------------
# Model parameters
# ---------------------------------------------------------------------------

def parameters_to_dict(
    parameters: dict[PropertyTypeKey, ModelParameters],
) -> dict[str, Any]:
    return {
        "format": "parameters",
        "version": FORMAT_VERSION,
        "combinations": {
            key.text: {
                "agreement": value.agreement,
                "rate_positive": value.rate_positive,
                "rate_negative": value.rate_negative,
            }
            for key, value in parameters.items()
        },
    }


def parameters_from_dict(
    payload: dict[str, Any],
) -> dict[PropertyTypeKey, ModelParameters]:
    return {
        _key_from_str(key_text): ModelParameters(
            agreement=row["agreement"],
            rate_positive=row["rate_positive"],
            rate_negative=row["rate_negative"],
        )
        for key_text, row in payload["combinations"].items()
    }


# ---------------------------------------------------------------------------
# Evidence provenance (the opinion table's lineage sidecar)
# ---------------------------------------------------------------------------
#
# A compact companion artefact written next to the opinion table: for
# every (entity, property-type) pair, the exact positive/negative
# statement totals plus a bounded sample of the statements behind them,
# linked to the combination's learned model parameters and convergence
# verdict. Powers `repro explain` and the server's `/explain`.

def provenance_to_dict(
    index: ProvenanceIndex, rows: LineageRows | None = None
) -> dict[str, Any]:
    """The sidecar payload; with ``rows``, each combination's pairs
    come as canonical text, which :func:`_atomic_write_json` splices
    into the same bytes."""
    keys = index.keys()
    if rows is None:
        blocks = [_lineage_row(index.block(key)) for key in keys]
    else:
        blocks = [
            Encoded(text)
            for text in rows((key.text, index.block(key)) for key in keys)
        ]
    return {
        "format": "provenance",
        "version": FORMAT_VERSION,
        "samples_per_polarity": index.samples_per_polarity,
        "pairs": dict(zip([key.text for key in keys], blocks)),
        "models": parameters_to_dict(index.models())["combinations"],
        "convergence": {
            key.text: summary
            for key, summary in index.convergence().items()
        },
    }


def _lineage_row(pairs: dict[str, PairProvenance]) -> dict[str, Any]:
    return {entity_id: pair.to_dict() for entity_id, pair in pairs.items()}


def provenance_from_dict(payload: dict[str, Any]) -> ProvenanceIndex:
    pairs: dict[PropertyTypeKey, dict[str, PairProvenance]] = {}
    for key_text, per_entity in payload.get("pairs", {}).items():
        key = _key_from_str(key_text)
        pairs[key] = {
            entity_id: PairProvenance.from_dict(row)
            for entity_id, row in per_entity.items()
        }
    models = parameters_from_dict(
        {"combinations": payload.get("models", {})}
    )
    convergence = {
        _key_from_str(key_text): dict(summary)
        for key_text, summary in payload.get(
            "convergence", {}
        ).items()
    }
    return ProvenanceIndex(
        pairs,
        models,
        convergence,
        samples_per_polarity=int(
            payload.get("samples_per_polarity", 3)
        ),
    )


def provenance_path_for(artefact: str | Path) -> Path:
    """Where the lineage sidecar for an artefact lives:
    ``opinions.json`` -> ``opinions.json.provenance.json``."""
    artefact = Path(artefact)
    return artefact.with_name(artefact.name + ".provenance.json")


def ledger_to_dict(
    ledger: ProvenanceLedger, evidence: EvidenceCounter
) -> dict[str, Any]:
    """A provenance ledger as checkpoint-embeddable primitives: a row
    per pair of ``evidence``, with its totals and the ledger's samples.

    Used by shard checkpoints and by the ingest subsystem's persisted
    running state; the payload is not a standalone artefact (no
    format/version envelope) — embed it inside one.
    """
    return {
        "samples_per_polarity": ledger.samples_per_polarity,
        "pairs": {
            key.text: _lineage_row(pairs)
            for key, pairs in ledger.combinations(evidence).items()
        },
    }


def ledger_from_dict(payload: dict[str, Any]) -> ProvenanceLedger:
    """The ledger of a :func:`ledger_to_dict` payload: each row is
    parsed whole, but only its samples are kept (the totals are the
    counter's, stored beside it)."""
    ledger = ProvenanceLedger(
        samples_per_polarity=int(
            payload.get("samples_per_polarity", 3)
        )
    )
    for key_text, per_entity in payload.get("pairs", {}).items():
        key = _key_from_str(key_text)
        for entity_id, row in per_entity.items():
            ledger.seed_pair(
                key, entity_id, PairProvenance.from_dict(row)
            )
    return ledger


# ---------------------------------------------------------------------------
# Shard checkpoints
# ---------------------------------------------------------------------------
#
# The fault-tolerant pipeline persists each completed shard's evidence
# counter (plus its quarantined documents, as plain dicts) so an
# interrupted run can resume without re-mapping finished shards. The
# payload stays primitive — no pipeline types — to keep this module
# free of circular imports.

def shard_checkpoint_to_dict(
    shard_id: int,
    counter: EvidenceCounter,
    dead_letters: list[dict[str, str]] | tuple = (),
    provenance: ProvenanceLedger | None = None,
) -> dict[str, Any]:
    payload = {
        "format": "shard_checkpoint",
        "version": FORMAT_VERSION,
        "shard_id": int(shard_id),
        "evidence": evidence_to_dict(counter),
        "dead_letters": [dict(letter) for letter in dead_letters],
    }
    if provenance is not None:
        payload["provenance"] = ledger_to_dict(provenance, counter)
    return payload


def shard_checkpoint_from_dict(
    payload: dict[str, Any],
) -> tuple[
    int,
    EvidenceCounter,
    list[dict[str, str]],
    ProvenanceLedger | None,
]:
    shard_id = int(payload["shard_id"])
    counter = evidence_from_dict(payload["evidence"])
    dead_letters = [
        _dead_letter(row) for row in payload.get("dead_letters", ())
    ]
    # Checkpoints written before lineage capture existed simply lack
    # the key; they load with no ledger and the resumed shard
    # contributes no samples.
    raw = payload.get("provenance")
    ledger = ledger_from_dict(raw) if raw is not None else None
    return shard_id, counter, dead_letters, ledger


def _dead_letter(row: dict[str, Any]) -> dict[str, str]:
    """A quarantined document's record, with the fields a resumed run
    needs to rebuild its ``DeadLetter``."""
    letter = {name: str(value) for name, value in row.items()}
    for name in ("doc_id", "stage", "error"):
        if name not in letter:
            raise FormatError(f"dead letter without {name!r}")
    return letter


def save_shard_checkpoint(
    path: str | Path,
    shard_id: int,
    counter: EvidenceCounter,
    dead_letters: list[dict[str, str]] | tuple = (),
    provenance: ProvenanceLedger | None = None,
) -> Path:
    """Atomically persist one shard's mapped output.

    Write-then-rename, so a run killed mid-write never leaves a
    half-written checkpoint behind — the next run sees either the
    complete file or nothing.
    """
    return _atomic_write_json(
        path,
        shard_checkpoint_to_dict(shard_id, counter, dead_letters, provenance),
    )


def load_shard_checkpoint(
    path: str | Path,
) -> tuple[
    int,
    EvidenceCounter,
    list[dict[str, str]],
    ProvenanceLedger | None,
]:
    """Load one shard checkpoint; an unreadable or corrupt file raises
    :class:`CheckpointError` (a :class:`FormatError`)."""
    try:
        return load(path, "shard_checkpoint")
    except (FormatError, OSError) as error:
        raise CheckpointError(str(error)) from error


# ---------------------------------------------------------------------------
# Opinion table
# ---------------------------------------------------------------------------

def _opinion_row(opinion: Opinion, key_text: str) -> dict[str, Any]:
    return {
        "entity": opinion.entity_id,
        "key": key_text,
        "probability": opinion.probability,
        "positive": opinion.evidence.positive,
        "negative": opinion.evidence.negative,
    }


class BlockText:
    """Canonical text per combination block, for a writer that
    publishes one generation after another (the ingest pipeline keeps
    one per artefact).

    Keeps the text of each block it rendered (a subclass's
    ``render(key_text, block)``) against the block object. A block is
    never changed, so a later generation that holds the very same
    object (an ingest carried it forward) splices the kept text.
    """

    def __init__(self) -> None:
        self._kept: dict[str, tuple[Any, str]] = {}

    def __call__(self, blocks: Iterable[tuple[str, Any]]) -> list[str]:
        """The text of each ``(key_text, block)``, in order; only
        these blocks are kept for the next call."""
        kept, self._kept = self._kept, {}
        texts = []
        for key_text, block in blocks:
            entry = kept.get(key_text)
            if entry is None or entry[0] is not block:
                entry = (block, self.render(key_text, block))
            self._kept[key_text] = entry
            texts.append(entry[1])
        return texts


class OpinionRows(BlockText):
    """An opinion block's rows, as items of the ``opinions`` list."""

    def render(self, key_text: str, block: tuple[Opinion, ...]) -> str:
        return encode([
            _opinion_row(opinion, key_text)
            for opinion in sorted(block, key=attrgetter("entity_id"))
        ])[1:-1]

    def table(self, table: OpinionTable) -> Encoded | None:
        """The ``opinions`` list of ``table`` as canonical text;
        ``None`` when two combinations share a key text, since their
        rows then interleave."""
        keys = sorted(
            ((key.text, key) for key in table.keys()), key=itemgetter(0)
        )
        if len({text for text, _ in keys}) < len(keys):
            return None
        return Encoded("[" + ",".join(self(
            (text, table.block(key)) for text, key in keys
        )) + "]")


class LineageRows(BlockText):
    """A lineage block's ``{entity_id: row}`` object of the sidecar.

    A batch rebuilds the lineage block of each combination it touched
    but changes few of its pairs (~6 of ~77 a cycle on the
    ``ingest_live`` world), so a pair equal to the one the
    combination's last render held splices that row's text.
    """

    def __init__(self) -> None:
        super().__init__()
        self._rows: dict[str, dict[str, tuple[PairProvenance, str]]] = {}

    def render(
        self, key_text: str, block: dict[str, PairProvenance]
    ) -> str:
        kept = self._rows.get(key_text, {})
        rows = {}
        for entity_id, pair in block.items():
            row = kept.get(entity_id)
            if row is None or row[0] != pair:
                row = (pair, Encoded(encode(pair.to_dict())))
            rows[entity_id] = row
        self._rows[key_text] = rows
        return encode({entity_id: row[1] for entity_id, row in rows.items()})


def opinions_to_dict(
    table: OpinionTable, rows: OpinionRows | None = None
) -> dict[str, Any]:
    """The ``opinions`` artefact: a row per opinion, sorted by
    combination key text, then entity. With ``rows``, the rows come as
    canonical text, block by block, which :func:`_atomic_write_json`
    splices into the same bytes."""
    opinions = None if rows is None else rows.table(table)
    if opinions is None:
        opinions = [
            _opinion_row(opinion, opinion.key.text)
            for opinion in table
        ]
        opinions.sort(key=lambda row: (row["key"], row["entity"]))
    return {
        "format": "opinions",
        "version": FORMAT_VERSION,
        "opinions": opinions,
        # Combinations whose EM fit fell back to majority vote; query
        # surfaces flag their answers as degraded.
        "degraded": sorted(
            key.text for key in table.degraded_keys
        ),
    }


def opinions_from_dict(payload: dict[str, Any]) -> OpinionTable:
    table = OpinionTable()
    for row in payload["opinions"]:
        table.add(
            Opinion(
                entity_id=row["entity"],
                key=_key_from_str(row["key"]),
                probability=float(row["probability"]),
                evidence=EvidenceCounts(
                    int(row["positive"]), int(row["negative"])
                ),
            )
        )
    # Files written before the flag existed simply have none.
    for key_text in payload.get("degraded", ()):
        table.mark_degraded(_key_from_str(key_text))
    return table


# ---------------------------------------------------------------------------
# File helpers
# ---------------------------------------------------------------------------

_SAVERS = {
    KnowledgeBase: kb_to_dict,
    EvidenceCounter: evidence_to_dict,
    OpinionTable: opinions_to_dict,
    ProvenanceIndex: provenance_to_dict,
}

#: Every artefact kind :func:`load` opens: its ``format`` tag, what an
#: error calls it, and its decoder. Decoders that live in layers above
#: this one (and import it for the writer) are named
#: ``"module:attribute"`` and imported on first use.
_KINDS: dict[str, tuple[str, Any]] = {
    "knowledge_base": ("a knowledge-base", kb_from_dict),
    "evidence": ("an evidence", evidence_from_dict),
    "parameters": ("a parameters", parameters_from_dict),
    "opinions": ("an opinions", opinions_from_dict),
    "shard_checkpoint": ("a shard checkpoint", shard_checkpoint_from_dict),
    "provenance": ("a provenance", provenance_from_dict),
    "ingest_state": (
        "an ingest state", "repro.ingest.state:IngestState.from_dict"
    ),
    "em_convergence": (
        "an EM convergence", "repro.obs.convergence:convergence_from_dict"
    ),
    # A manifest passes through whole, so newer writers stay readable.
    "run_manifest": ("a run manifest", dict),
    "metrics": ("a metrics", "repro.obs.metrics:metrics_from_dict"),
}


def _atomic_write_json(
    path: str | Path, payload: Any, *, durable: bool = False
) -> Path:
    """The one writer for durable machine artefacts.

    Writes the payload's canonical text
    (:func:`~repro.storage.canonical.encode`: compact, sorted keys,
    pre-encoded parts spliced) via a sibling temp file and rename, so
    readers never see a torn file even if the process dies mid-write.

    A failed step removes the temp file and leaves the old file in
    place. ``durable`` also survives an OS crash: the temp file is
    fsynced before the rename and the directory after it, so the name
    points at the old bytes or at the new ones, never at an empty file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    data = encode(payload).encode()
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if durable:
                os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    if durable:
        directory = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
    return path


def save(
    obj: Any, path: str | Path, rows: BlockText | None = None
) -> Path:
    """Serialize a KB, evidence counter, opinion table, lineage index,
    or a ``{key: ModelParameters}`` mapping to a JSON file. A table's
    or an index's blocks go through ``rows`` when given (a writer of
    one generation after another passes its own)."""
    if isinstance(obj, dict):
        payload = parameters_to_dict(obj)
    else:
        for cls, saver in _SAVERS.items():
            if isinstance(obj, cls):
                payload = (
                    saver(obj) if rows is None else saver(obj, rows)
                )
                break
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")
    return _atomic_write_json(path, payload)


def load(path: str | Path, kind: str | None = None) -> Any:
    """Open a JSON artefact: the one reader of every kind in
    :data:`_KINDS`.

    Decodes the file's bytes as UTF-8 JSON, checks the ``format`` /
    ``version`` envelope against ``kind`` (without one, dispatches on
    the embedded tag), and runs that kind's decoder. Anything
    undecodable, malformed or of the wrong kind raises
    :class:`FormatError` naming the path, never a bare
    ``KeyError``/``TypeError``; a missing file raises ``OSError``.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as error:
        raise FormatError(
            f"{path}: undecodable artefact: {error}"
        ) from error
    found = payload.get("format") if isinstance(payload, dict) else None
    if kind is None:
        if not isinstance(found, str) or found not in _KINDS:
            raise FormatError(f"{path}: not a repro artefact")
        kind = found
    label, decoder = _KINDS[kind]
    if found != kind:
        raise FormatError(
            f"{path}: not {label} artefact (format {found!r})"
        )
    if payload.get("version") != FORMAT_VERSION:
        raise FormatError(
            f"{path}: unsupported {kind} version "
            f"{payload.get('version')!r}"
        )
    if isinstance(decoder, str):
        module, _, name = decoder.partition(":")
        decoder = attrgetter(name)(importlib.import_module(module))
    try:
        return decoder(payload)
    except _MALFORMED as error:
        raise FormatError(
            f"{path}: malformed {kind} artefact: {error!r}"
        ) from error
