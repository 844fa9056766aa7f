"""Versioned JSON persistence for mined artefacts.

The re-exports resolve on first access, so importing
``repro.storage.canonical`` (as the lineage layer does, which
``serialize`` itself imports) runs no codec import and no cycle.
"""

from .._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".serialize": (
        "FORMAT_VERSION",
        "FormatError",
        "OpinionRows",
        "evidence_from_dict",
        "evidence_to_dict",
        "kb_from_dict",
        "kb_to_dict",
        "ledger_from_dict",
        "ledger_to_dict",
        "load",
        "load_shard_checkpoint",
        "opinions_from_dict",
        "opinions_to_dict",
        "parameters_from_dict",
        "parameters_to_dict",
        "provenance_from_dict",
        "provenance_path_for",
        "provenance_to_dict",
        "save",
        "save_shard_checkpoint",
        "shard_checkpoint_from_dict",
        "shard_checkpoint_to_dict",
    ),
})

__all__ = [
    "provenance_from_dict",
    "provenance_path_for",
    "provenance_to_dict",
    "FORMAT_VERSION",
    "FormatError",
    "OpinionRows",
    "evidence_from_dict",
    "evidence_to_dict",
    "kb_from_dict",
    "kb_to_dict",
    "ledger_from_dict",
    "ledger_to_dict",
    "load",
    "load_shard_checkpoint",
    "opinions_from_dict",
    "opinions_to_dict",
    "parameters_from_dict",
    "parameters_to_dict",
    "save",
    "save_shard_checkpoint",
    "shard_checkpoint_from_dict",
    "shard_checkpoint_to_dict",
]
