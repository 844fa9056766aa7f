"""Shared reporting helper for the benchmark suite.

Every benchmark regenerates one table or figure of the paper. Besides
the pytest-benchmark timing table, the *content* of each artefact (the
rows/series the paper reports) is written to
``benchmarks/results/<name>.txt`` and echoed to stdout (visible with
``pytest -s``). EXPERIMENTS.md is assembled from these files.
Run-to-run performance is gated by the repository benchmark
(``perfbench/``, paired against the parent commit by
``scripts/perf_lane.py``), not by this suite.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.manifest import git_describe

RESULTS_DIR = Path(__file__).parent / "results"

#: Version stamp of the ``.json`` artefacts' ``meta`` block.
SCHEMA_VERSION = 1


def emit(name: str, lines: list[str]) -> None:
    """Persist and print one benchmark's artefact rows."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines) + "\n"
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    print(f"\n===== {name} =====")
    print(text)


def emit_json(name: str, payload: dict[str, Any]) -> None:
    """Persist one benchmark's machine-readable artefact.

    The payload is stamped with a ``meta`` block (benchmark name, git
    describe, schema version) and must be JSON-serialisable — a
    payload that is not fails with a clear error naming the benchmark
    instead of a raw ``TypeError`` from ``json.dumps``.
    """
    record = dict(payload)
    record["meta"] = {
        "benchmark": name,
        "git_describe": git_describe(),
        "schema_version": SCHEMA_VERSION,
    }
    try:
        text = json.dumps(record, indent=1, sort_keys=True)
    except TypeError as error:
        raise ValueError(
            f"emit_json({name!r}): payload is not JSON-serialisable "
            f"({error}); convert numpy scalars/paths to plain "
            "int/float/str first"
        ) from error
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.json").write_text(text + "\n")
