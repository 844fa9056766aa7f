"""Structured exception hierarchy for the reproduction.

The paper's pipeline ran on up to 5000 nodes where malformed documents
and worker failures are routine; errors therefore carry enough context
to be quarantined, retried, or reported rather than merely crashing.
Every library-originated failure derives from :class:`ReproError`, so
callers (the CLI, the pipeline runtime) can distinguish expected
operational failures from genuine bugs with one ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all operational errors raised by the library."""


class ExtractionError(ReproError):
    """Annotation or pattern extraction failed for a document/sentence.

    Raised (chained onto the original cause) by the NLP and extraction
    layers so the pipeline can quarantine the offending document into a
    dead-letter record instead of killing its shard.
    """


class ParityError(ExtractionError):
    """The extraction fast path diverged from the reference path.

    Raised only in ``strict_parity`` runs, where every shard is mapped
    by both paths and their evidence counters and statistics are
    compared. A raise here means a fast-path soundness invariant was
    violated — a bug, never an expected operational failure.
    """


class ModelFitError(ReproError, ValueError):
    """Model fitting received invalid input or produced no usable fit.

    Subclasses :class:`ValueError` for backwards compatibility: callers
    that guarded ``learner.fit`` with ``except ValueError`` keep
    working.
    """


class FormatError(ReproError, ValueError):
    """A JSON artefact is undecodable, malformed, or of the wrong kind.

    Raised by :func:`repro.storage.serialize.load`, the one reader of
    every artefact. Subclasses :class:`ValueError` for backwards
    compatibility, as :class:`ModelFitError` does.
    """


class CheckpointError(FormatError):
    """A shard checkpoint is missing fields, corrupt, or unreadable.

    The pipeline treats a corrupt checkpoint as absent (the shard is
    recomputed) and surfaces the event through the run's health report.
    """
