"""The mining workloads: ``mine_template`` and ``mine_longtail``.

One run is one ``SurveyorPipeline.run`` (defaults: serial executor,
fast path on; occurrence threshold 100) over the workload's world,
started cold: the process-local annotation memo is dropped before each
run, outside the timed window. Runs repeat until the measuring time is
used up; the reported rates are medians over runs. The operation of
``ops_per_s`` is one document mined.
Every run's opinion table must hash to the digest the reference path
(``fast_path=False``) produced for the same world (``digests.json``).
"""

from __future__ import annotations

import gc
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import spans
import speed
import worlds
from repro.nlp.annotate import reset_shared_annotation_state
from repro.pipeline import SurveyorPipeline

HERE = Path(__file__).resolve().parent

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: mine_longtail fails unless its memo hit ratio stays below this
#: (mine_template reads about 0.85).
LONGTAIL_MAX_MEMO_HIT_RATIO = 0.5


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _cold_import() -> None:
    """Import the program in a fresh interpreter, as a new process
    starting this workload would."""
    path = os.pathsep.join([str(HERE.parent / "src"), str(HERE)])
    subprocess.run(
        [sys.executable, "-c", "import mining"],
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )


def setup(workload: str, seed: int, probe: speed.Probe):
    """Set up ``SETUP_REPEATS`` times, each a cold import of the program
    plus a world build; (kb, corpus, median scaled seconds)."""
    build = worlds.WORLDS[workload]
    times = []
    for _ in range(SETUP_REPEATS):
        watch = speed.Stopwatch(probe)
        _cold_import()
        watch.lap()
        kb, corpus = build(worlds.world_seed(seed))
        watch.lap()
        times.append(watch.seconds)
    return kb, corpus, median(times)


def mine_once(kb, corpus):
    """One cold pipeline run: (report, wall seconds, CPU seconds)."""
    reset_shared_annotation_state(kb)
    gc.collect()
    pipeline = SurveyorPipeline(
        kb=kb, occurrence_threshold=worlds.OCCURRENCE_THRESHOLD
    )
    wall = time.perf_counter()
    cpu = _cpu_seconds()
    report = pipeline.run(corpus)
    return report, time.perf_counter() - wall, _cpu_seconds() - cpu


def memo_hit_ratio(report) -> float:
    health = report.health
    lookups = health.memo_hits + health.memo_misses
    return health.memo_hits / lookups if lookups else 0.0


class MineRuns:
    """Repeated pipeline runs with their output checks."""

    def __init__(
        self, workload: str, seed: int, kb, corpus, probe: speed.Probe
    ) -> None:
        self.workload = workload
        self.probe = probe
        self.kb = kb
        self.corpus = corpus
        self.expected = worlds.stored_digest(workload, seed)
        if self.expected is None:
            raise SystemExit(
                f"no reference digest for {workload} world "
                f"{worlds.world_seed(seed)}; run derive_digests.py"
            )
        #: Wall and CPU seconds per run, scaled to the reference speed.
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.raw_walls: list[float] = []
        self.failed = 0
        self.report = None

    def run_for(self, seconds: float) -> None:
        """Run until ``seconds`` have passed (at least once)."""
        deadline = time.perf_counter() + seconds
        runs = 0
        while runs == 0 or time.perf_counter() < deadline:
            scaled = speed.Scaled(self.probe)
            report, wall, cpu = mine_once(self.kb, self.corpus)
            ratio = scaled.end()
            self.raw_walls.append(wall)
            self.walls.append(wall / ratio)
            self.cpus.append(cpu / ratio)
            if worlds.table_digest(report.opinions) != self.expected:
                self.failed += 1
            self.report = report
            runs += 1

    def memo_ok(self) -> bool:
        if self.workload != "mine_longtail":
            return True
        return memo_hit_ratio(self.report) < LONGTAIL_MAX_MEMO_HIT_RATIO

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        docs = len(self.corpus)
        return {
            "setup_s": setup_s,
            "ops_per_s": median(docs / w for w in self.walls),
            "mine_docs_per_cpu_s": median(docs / c for c in self.cpus),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss / 1024.0,
        }


def layer_metrics(report, traced_runs: int, summary: dict) -> dict:
    """Per-run per-layer numbers of the traced runs."""
    health = report.health
    fits = report.result.fits
    per_run = {
        "nlp.prefilter.skip_ratio": health.prefilter_skip_rate,
        "nlp.annotate.memo_hit_ratio": memo_hit_ratio(report),
        "extraction.statements": report.evidence.n_statements,
        "pipeline.retries": health.retries,
        "pipeline.quarantined": len(health.quarantined),
        "core.em.fits": len(fits),
        "core.em.iterations": sum(f.trace.iterations for f in fits.values()),
    }
    for layer, calls in summary["calls"].items():
        per_run[f"{layer}.calls"] = calls / traced_runs
    for layer, seconds in summary["self_s"].items():
        per_run[f"{layer}.self_s"] = seconds / traced_runs
    return per_run


def mine(workload: str, seed: int, seconds: float, trace: bool, workdir):
    """Run one mining workload; (metrics, attempted, failed, correct,
    notes). Traced runs split the time between untraced and traced
    pipeline runs and report per-run layer numbers."""
    probe = speed.Probe()
    kb, corpus, setup_s = setup(workload, seed, probe)
    runs = MineRuns(workload, seed, kb, corpus, probe)
    if not trace:
        runs.run_for(seconds)
        metrics = runs.end_to_end(setup_s)
        attempted, failed = len(runs.walls), runs.failed
    else:
        runs.run_for(seconds / 2)
        recorder = spans.SpanRecorder()
        recorder.install()
        traced = MineRuns(workload, seed, kb, corpus, probe)
        recorder.enabled = True
        try:
            traced.run_for(seconds / 2)
        finally:
            recorder.enabled = False
            recorder.uninstall()
        n = len(traced.walls)
        summary = recorder.summary(wall_s=sum(traced.raw_walls))
        recorder.dump(str(workdir / "spans.tsv"))
        metrics = layer_metrics(traced.report, n, summary)
        metrics.update({
            "trace.wall_s": summary["traced_wall_s"] / n,
            "trace.unattributed_s": summary["unattributed_s"] / n,
            "trace.overhead": median(traced.walls) / median(runs.walls),
            "trace.spans": summary["spans"] / n,
        })
        attempted = len(runs.walls) + n
        failed = runs.failed + traced.failed
    hit_ratio = memo_hit_ratio(runs.report)
    notes = [
        f"documents: {len(corpus)}, distinct-sentence share: "
        f"{worlds.distinct_sentence_share(corpus):.3f}, memo hit "
        f"ratio: {hit_ratio:.3f}",
    ]
    correct = runs.memo_ok()
    if not correct:
        notes.append(
            f"memo hit ratio {hit_ratio:.3f} is not below "
            f"{LONGTAIL_MAX_MEMO_HIT_RATIO}: the long tail is not long"
        )
    return metrics, attempted, failed, correct, notes
