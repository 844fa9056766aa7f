"""The paired performance lane: this checkout against its parent commit.

Usage (from anywhere inside a checkout)::

    python3 scripts/perf_lane.py

Checks out ``HEAD^`` into a temporary git worktree, copies this
checkout's ``perfbench/`` and ``BENCHMARK.json`` into it (both sides run
the same benchmark code), and runs every workload of ``BENCHMARK.json``
with ``perfbench/run.py --trace 0`` on both sides: the same seeds on
each side, with the side that runs first alternating from pair to pair
so machine drift lands on both. The working tree is the ``HEAD`` side.

The lane fails (exit 1) when any run reads ``correct: false``, when
``HEAD``'s summed ``failed / attempted`` is higher than the parent's,
when a workload or metric is missing from either side, or when, on any
workload, ``HEAD``'s median of a declared end-to-end metric is worse
than the parent's by more than that metric's ``bound`` (a fraction of
the parent's median; "worse" follows the metric's ``better`` field).
It prints one row per workload and metric. A checkout whose ``HEAD^``
cannot be resolved (a shallow clone, say) fails too.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Seeds run on each side, and ``--seconds`` per run. A run's three
#: cold set-ups cost ~9-11 s whatever ``--seconds`` is, so more seeds
#: buy more steadiness per second of lane time than longer windows.
#: On a 2-vCPU VM an unchanged commit passed 11 lanes of 11 (~10-12
#: min each). Resampling their 110 runs per workload puts its chance of
#: failing at ~7% with one seed, ~0.6% with three and ~0.05% with five.
#: The lanes' own median ratios spread wider than that predicts
#: (``ops_per_s`` on ``query_mix`` read 0.85-1.24, sd 0.12, so ~2% of
#: lanes would fall below 0.75 if normal), hence five seeds, not three.
SEEDS = (101, 102, 103, 104, 105)
SECONDS = 4


def _fail(message: str) -> None:
    print(f"perf-lane: {message}", file=sys.stderr)
    sys.exit(1)


def decide(
    declared: dict,
    parent: dict[str, list[dict]],
    head: dict[str, list[dict]],
) -> tuple[list[tuple], list[str]]:
    """Judge ``head`` against ``parent``; (rows, failures).

    ``parent`` and ``head`` map each workload to the parsed result lines
    of its runs. A row is ``(workload, metric, parent median, HEAD
    median, ratio, bound, verdict)``; the lane passes when ``failures``
    is empty.
    """
    failures: list[str] = []
    shares = {}
    for side, results in (("parent", parent), ("HEAD", head)):
        runs = [run for batch in results.values() for run in batch]
        for workload, batch in results.items():
            if any(run.get("correct") is not True for run in batch):
                failures.append(f"{side} {workload}: a run read correct false")
        attempted = sum(run["attempted"] for run in runs)
        shares[side] = sum(run["failed"] for run in runs) / max(attempted, 1)
    if shares["HEAD"] > shares["parent"]:
        failures.append(
            f"failed share rose: {shares['parent']:.4g} -> {shares['HEAD']:.4g}"
        )
    rows = []
    for workload in (spec["name"] for spec in declared["workloads"]):
        for metric in declared["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for side, results in (("parent", parent), ("HEAD", head)):
                values = [
                    run["metrics"][name]["value"]
                    for run in results.get(workload, [])
                    if name in run.get("metrics", {})
                ]
                if not values or len(values) < len(results[workload]):
                    failures.append(f"{side} {workload}: {name} missing")
                    break
                medians.append(statistics.median(values))
            else:
                before, after = medians
                ratio = after / before if before else float("inf")
                change = ratio - 1 if metric["better"] == "lower" else 1 - ratio
                verdict = "FAIL" if change > bound else "ok"
                if verdict == "FAIL":
                    failures.append(
                        f"{workload} {name}: {before:.6g} -> {after:.6g} "
                        f"(ratio {ratio:.3f}, bound {bound})"
                    )
                rows.append((workload, name, before, after, ratio, bound, verdict))
    return rows, failures


def render(rows: list[tuple]) -> str:
    lines = [
        f"{'workload':<15}{'metric':<13}{'parent':>12}{'HEAD':>12}"
        f"{'ratio':>8}{'bound':>7}  verdict"
    ]
    for workload, name, before, after, ratio, bound, verdict in rows:
        lines.append(
            f"{workload:<15}{name:<13}{before:>12.6g}{after:>12.6g}"
            f"{ratio:>8.3f}{bound:>7.2f}  {verdict}"
        )
    return "\n".join(lines)


def _run(root: Path, workload: str, seed: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True
    )


def main() -> None:
    if _git("rev-parse", "--verify", "--quiet", "HEAD^{commit}").returncode:
        _fail("cannot resolve HEAD^ (shallow clone or first commit?); "
              "fetch the parent commit and rerun")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [spec["name"] for spec in declared["workloads"]]
    scratch = Path(tempfile.mkdtemp(prefix="perf-lane-"))
    base = scratch / "parent"
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        added = _git("worktree", "add", "--detach", "--quiet", str(base), "HEAD^")
        if added.returncode:
            _fail(f"git worktree add failed: {added.stderr.strip()}")
        shutil.rmtree(base / "perfbench", ignore_errors=True)
        shutil.copytree(
            ROOT / "perfbench", base / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        shutil.copy(ROOT / "BENCHMARK.json", base / "BENCHMARK.json")
        sides = {"parent": base, "HEAD": ROOT}
        results: dict[str, dict[str, list]] = {side: {} for side in sides}
        for i, seed in enumerate(SEEDS):
            for j, workload in enumerate(workloads):
                # Each workload's first side flips from seed to seed.
                order = list(sides)[:: 1 if (i + j) % 2 == 0 else -1]
                for side in order:
                    result = _run(sides[side], workload, seed)
                    results[side].setdefault(workload, []).append(result)
                    values = " ".join(
                        f"{name}={metric['value']:.6g}"
                        for name, metric in result["metrics"].items()
                    )
                    print(f"{workload} seed {seed} {side}: correct "
                          f"{result['correct']} failed {result['failed']}/"
                          f"{result['attempted']} {values}", flush=True)
    finally:
        _git("worktree", "remove", "--force", str(base))
        shutil.rmtree(scratch, ignore_errors=True)
        _git("worktree", "prune")
    rows, failures = decide(declared, results["parent"], results["HEAD"])
    print(render(rows))
    for failure in failures:
        print(f"perf-lane: FAIL {failure}")
    if failures:
        sys.exit(1)
    print("perf-lane: OK")


if __name__ == "__main__":
    main()
