"""Run manifests: what produced this opinion table, exactly.

A deployment mines opinions once and serves them for months; when a
table misbehaves later, the first question is "what run made this?".
The manifest — written next to the opinion table — answers it: the
resolved configuration, the code version (``git describe`` when
available), wall-clock start and duration, and the run's health
summary. :func:`publish_table` writes a table, its sidecar and its
manifest, for ``repro mine`` and every ingest cycle alike.
"""

from __future__ import annotations

import functools
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from ..core.result import OpinionTable
from ..extraction.provenance import ProvenanceIndex
from ..storage import serialize
from ..storage.serialize import FORMAT_VERSION, _atomic_write_json, load


@functools.cache
def git_describe() -> str | None:
    """``git describe --always --dirty`` of the source tree, or None
    outside a checkout / without git.

    Run once per process and cached: a long-lived server publishing
    on every ingest would otherwise fork ``git`` per publish.
    """
    try:
        result = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def health_summary(health: Any) -> dict[str, Any]:
    """Flatten a ``PipelineHealth`` ledger to primitives (duck-typed)."""
    return {
        "healthy": bool(health.healthy),
        "retries": health.retries,
        "quarantined": len(health.quarantined),
        "failed_shards": len(health.failed_shards),
        "empty_shards": health.empty_shards,
        "resumed_shards": health.resumed_shards,
        "checkpointed_shards": health.checkpointed_shards,
        "corrupt_checkpoints": health.corrupt_checkpoints,
        "degraded_combinations": list(health.degraded_combinations),
    }


def build_manifest(
    *,
    command: str,
    config: dict[str, Any],
    started_unix: float,
    duration_seconds: float,
    health: Any = None,
    outputs: dict[str, str] | None = None,
) -> dict[str, Any]:
    """Assemble the manifest payload (pure; no filesystem access
    beyond ``git describe``)."""
    return {
        "format": "run_manifest",
        "version": FORMAT_VERSION,
        "command": command,
        "config": config,
        "git_describe": git_describe(),
        "python": sys.version.split()[0],
        "started_at": time.strftime(
            "%Y-%m-%dT%H:%M:%S%z", time.localtime(started_unix)
        ),
        "duration_seconds": round(duration_seconds, 6),
        "health": None if health is None else health_summary(health),
        "outputs": dict(outputs or {}),
    }


def manifest_path_for(artefact: str | Path) -> Path:
    """Manifest filename convention: ``<artefact>.manifest.json``."""
    artefact = Path(artefact)
    return artefact.with_name(artefact.name + ".manifest.json")


def write_manifest(
    path: str | Path, payload: dict[str, Any]
) -> Path:
    """Atomically write a manifest (temp file + rename), so a reader
    racing a publish never sees a torn file."""
    return _atomic_write_json(path, payload)


def publish_table(
    table: OpinionTable,
    out: str | Path,
    *,
    command: str,
    config: dict[str, Any],
    started_unix: float,
    duration_seconds: float,
    provenance: ProvenanceIndex | None = None,
    rows: serialize.OpinionRows | None = None,
    health: Any = None,
    outputs: dict[str, str] | None = None,
) -> Path:
    """Write ``table`` at ``out`` (through ``rows`` when given), its
    lineage sidecar when there is ``provenance``, and last the run
    manifest, whose ``outputs`` lists those files plus ``outputs``.
    Each write is atomic. Returns the manifest's path."""
    written = {"opinions": str(out)}
    serialize.save(table, out, rows=rows)
    if provenance is not None:
        sidecar = serialize.provenance_path_for(out)
        serialize.save(provenance, sidecar)
        written["provenance"] = str(sidecar)
    manifest = build_manifest(
        command=command,
        config=config,
        started_unix=started_unix,
        duration_seconds=duration_seconds,
        health=health,
        outputs={**written, **(outputs or {})},
    )
    return write_manifest(manifest_path_for(out), manifest)


def read_manifest(path: str | Path) -> dict[str, Any]:
    """Load a manifest written by :func:`write_manifest`; extra keys
    pass through untouched so newer writers stay readable."""
    return load(path, "run_manifest")
