"""The checkpoint of the incremental ingest pipeline: ``state.json``.

One JSON file, a sibling of the journal segments, carries everything
the refitter needs to continue from a point in the journal:

* the **applied offset** — the journal watermark below which evidence
  has already been folded in;
* the running **evidence totals** (per-(entity,property) ⟨C+, C−⟩);
* the running **provenance ledger** (bounded statement samples; each
  row also carries its pair's totals, read from the evidence);
* cached **per-combination fits** — parameters and the convergence
  trace summary — so clean combinations republish byte-identically
  without re-running EM.

Contracts
---------

- **Exposes**: :func:`save_state`, the one writer of the checkpoint,
  and :func:`load_state`, which reads it back (a fresh state when
  there is none).
- **Guarantees**: a save is durable and atomic. The text goes to
  ``state.json.tmp``, which is fsynced, renamed over ``state.json``,
  and then the directory is fsynced. A failure at any step leaves the
  old file or the new one, whole and loadable; never an empty or torn
  file.
- **Expects**: the journal is the redo log. Every document above the
  applied offset is still in it, so a checkpoint older than the
  journal is a valid restart point:
  :meth:`~repro.ingest.IngestPipeline.advance` replays the gap.

Invariants
----------

- The state equals folding the journal's records up to the applied
  offset, in order. Folding is deterministic (counts add, ledger
  samples keep journal order, cold EM fits depend only on the
  evidence), so a replay of the gap reaches the bytes that cycles
  which were never checkpointed would have written.
- The checkpoint rule is a constant, not a flag
  (:data:`~repro.ingest.incremental.CHECKPOINT_SHARE`). An advance
  checkpoints once the documents applied since the last checkpoint
  reach 1/16 of the journal's records. Callers also checkpoint
  wherever the journal passes to another process: at the end of
  ``repro ingest``, after a server's drain (unless the file on disk is
  already further ahead), and before a worker of
  ``repro serve --workers N`` releases the cross-process ingest lock,
  whether or not its cycle succeeded.
- ``generation`` counts the advances that applied documents. A
  pipeline restarted on an older checkpoint resumes at the generation
  its last publish recorded in the run manifest, not at the
  checkpoint's generation + 1. A manifest that is unreadable or names
  another journal resumes nothing.

What survives, file by file
---------------------------

=====================  ==================  ============================
file                   process kill        OS crash
=====================  ==================  ============================
journal segments       every acked batch   every acked batch (fsync)
``state.json``         last checkpoint     last checkpoint (fsync)
opinions, sidecar,     last publish        old or new file; possibly
manifest                                   empty (rename only)
worker epoch file,     last write          old or new file; possibly
metrics snapshots                          empty (rename only)
=====================  ==================  ============================

After either, a restart replays the journal above the checkpoint. A
lost or empty published artefact is rebuilt by the next advance and
publish. A published artefact that a crash left empty still fails to
load at boot; fsync of the published artefacts and a checksum in the
journal frame are open work (ROADMAP direction 2).

Cached fits round-trip losslessly: JSON floats are ``repr``-exact, so
a reloaded :class:`~repro.core.params.ModelParameters` is bit-identical
to the fitted one, and opinions recomputed from it match a fresh batch
run byte for byte. The only lossy field is the EM ``parameters_path``
(recorded-path debugging data, empty by default), which is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..core.em import EMTrace
from ..core.params import ModelParameters
from ..core.surveyor import FittedCombination
from ..core.types import PropertyTypeKey
from ..extraction.extractor import ExtractionStats
from ..extraction.provenance import ProvenanceLedger
from ..extraction.statement import EvidenceCounter
from ..storage.serialize import (
    FORMAT_VERSION,
    _atomic_write_json,
    _key_from_str,
    evidence_from_dict,
    evidence_to_dict,
    ledger_from_dict,
    ledger_to_dict,
    load,
)

STATE_BASENAME = "state.json"


def _fit_to_dict(fit: FittedCombination) -> dict[str, Any]:
    return {
        "agreement": fit.parameters.agreement,
        "rate_positive": fit.parameters.rate_positive,
        "rate_negative": fit.parameters.rate_negative,
        "iterations": fit.trace.iterations,
        "converged": fit.trace.converged,
        "degraded": fit.trace.degraded,
        "log_likelihoods": list(fit.trace.log_likelihoods),
        "n_entities": fit.n_entities,
        "n_statements": fit.n_statements,
    }


def _fit_from_dict(
    key: PropertyTypeKey, row: dict[str, Any]
) -> FittedCombination:
    return FittedCombination(
        key=key,
        parameters=ModelParameters(
            agreement=float(row["agreement"]),
            rate_positive=float(row["rate_positive"]),
            rate_negative=float(row["rate_negative"]),
        ),
        trace=EMTrace(
            iterations=int(row["iterations"]),
            converged=bool(row["converged"]),
            log_likelihoods=tuple(
                float(v) for v in row["log_likelihoods"]
            ),
            parameters_path=(),
            degraded=bool(row["degraded"]),
        ),
        n_entities=int(row["n_entities"]),
        n_statements=int(row["n_statements"]),
    )


@dataclass
class IngestState:
    """Mutable running totals between ingest batches."""

    applied_offset: int = -1
    generation: int = 0
    evidence: EvidenceCounter = field(default_factory=EvidenceCounter)
    ledger: ProvenanceLedger | None = None
    stats: ExtractionStats = field(default_factory=ExtractionStats)
    fits: dict[PropertyTypeKey, FittedCombination] = field(
        default_factory=dict
    )

    @property
    def fresh(self) -> bool:
        """True before any document has ever been applied."""
        return self.applied_offset < 0 and self.generation == 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": "ingest_state",
            "version": FORMAT_VERSION,
            "applied_offset": int(self.applied_offset),
            "generation": int(self.generation),
            "stats": {
                "documents": self.stats.documents,
                "sentences": self.stats.sentences,
                "statements": self.stats.statements,
                "positive": self.stats.positive,
                "negative": self.stats.negative,
            },
            "evidence": evidence_to_dict(self.evidence),
            "ledger": (
                None
                if self.ledger is None
                else ledger_to_dict(self.ledger, self.evidence)
            ),
            "fits": {
                key.text: _fit_to_dict(fit)
                for key, fit in sorted(
                    self.fits.items(), key=lambda item: str(item[0])
                )
            },
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "IngestState":
        """Decode the payload :func:`~repro.storage.serialize.load`
        opens (it checks the envelope and reports malformed fields)."""
        stats_row = payload.get("stats", {})
        raw_ledger = payload.get("ledger")
        return cls(
            applied_offset=int(payload["applied_offset"]),
            generation=int(payload.get("generation", 0)),
            evidence=evidence_from_dict(payload["evidence"]),
            ledger=(
                None
                if raw_ledger is None
                else ledger_from_dict(raw_ledger)
            ),
            stats=ExtractionStats(
                documents=int(stats_row.get("documents", 0)),
                sentences=int(stats_row.get("sentences", 0)),
                statements=int(stats_row.get("statements", 0)),
                positive=int(stats_row.get("positive", 0)),
                negative=int(stats_row.get("negative", 0)),
            ),
            fits={
                (key := _key_from_str(key_text)): _fit_from_dict(
                    key, row
                )
                for key_text, row in payload.get("fits", {}).items()
            },
        )


def state_path_for(journal_dir: str | Path) -> Path:
    return Path(journal_dir) / STATE_BASENAME


def save_state(state: IngestState, journal_dir: str | Path) -> Path:
    """Checkpoint ``state`` into ``journal_dir`` (fsynced, atomic)."""
    return _atomic_write_json(
        state_path_for(journal_dir),
        state.to_dict(),
        durable=True,
    )


def load_state(journal_dir: str | Path) -> IngestState:
    """Load persisted state, or a fresh one when none exists yet."""
    path = state_path_for(journal_dir)
    if not path.exists():
        return IngestState()
    return load(path, "ingest_state")
