"""Derive the reference digests the mining workloads check against.

For every world seed (``0 .. WORLD_SEEDS-1``) of both mining worlds,
run ``SurveyorPipeline`` on the reference path (``fast_path=False``)
and store the SHA-256 of the mined opinion table in ``digests.json``.
Rerun after any change to the worlds or to what the pipeline mines;
name workloads to refresh only those::

    python3 perfbench/derive_digests.py [mine_template] [mine_longtail]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import worlds  # noqa: E402
from repro.pipeline import SurveyorPipeline  # noqa: E402


def main() -> None:
    digests: dict[str, dict[str, str]] = {}
    if worlds.DIGESTS_PATH.exists():
        digests = json.loads(worlds.DIGESTS_PATH.read_text())
    for workload in sys.argv[1:] or list(worlds.WORLDS):
        build = worlds.WORLDS[workload]
        digests[workload] = {}
        for seed in range(worlds.WORLD_SEEDS):
            kb, corpus = build(seed)
            report = SurveyorPipeline(
                kb=kb,
                occurrence_threshold=worlds.OCCURRENCE_THRESHOLD,
                fast_path=False,
            ).run(corpus)
            digests[workload][str(seed)] = worlds.table_digest(
                report.opinions
            )
            print(workload, seed, digests[workload][str(seed)], flush=True)
    worlds.DIGESTS_PATH.write_text(json.dumps(digests, indent=1) + "\n")


if __name__ == "__main__":
    main()
