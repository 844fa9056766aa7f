"""The repository benchmark: one workload per invocation.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``mine_template``, ``mine_longtail``, ``query_mix`` and
``ingest_live`` (see ``perfbench/README.md``). With ``--trace 0`` the run
measures every end-to-end metric of ``BENCHMARK.json`` with no tracing
(each workload defines its own operation for ``ops_per_s``); with
``--trace 1`` it records spans around each layer's public calls and
reports every per-layer metric instead (zero for layers the workload
does not touch). Each metric is printed on its own line with its unit;
the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``failed / attempted`` is the run's ``failed_frac``. The exit code is 0
when the run completed, whatever the checks found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

#: String hashing is seeded per process unless fixed; a fixed seed gives
#: every run the same dict and set layouts (the benchmark re-executes
#: itself once to set it).
HASH_SEED = "0"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("mine_template", "mine_longtail", "query_mix", "ingest_live")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main() -> None:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no program sources under {ROOT / 'src'}; run from a checkout")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        metric["name"]: metric["unit"]
        for metric in declared["end_to_end"] + declared["per_layer"]
    }
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import loadgen
    import mining
    import serving

    out = ROOT / ".perfbench"
    workdir = out / f"{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    trace = bool(args.trace)
    server_cpu, conns = loadgen.pin_cpus()
    try:
        if args.workload.startswith("mine_"):
            result = mining.mine(
                args.workload, args.seed, args.seconds, trace, workdir
            )
        else:
            run = getattr(serving, args.workload)
            result = run(
                args.seed, args.seconds, trace, workdir, server_cpu, conns
            )
        measured, attempted, failed, correct, notes = result
        if trace:
            for name in ("spans.tsv", "spans.json"):
                if (workdir / name).exists():
                    shutil.copy(
                        workdir / name, out / f"{args.workload}-{name}"
                    )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        names = [metric["name"] for metric in declared["per_layer"]]
        metrics = {name: measured.get(name, 0) for name in names}
    else:
        names = [metric["name"] for metric in declared["end_to_end"]]
        metrics = {name: measured[name] for name in names}
    correct = correct and failed == 0
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(line)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if not trace:
        # Measured too, but undeclared: workload-specific views of the
        # same runs, or too unsteady to bound (see README.md).
        for name in sorted(set(measured) - set(metrics)):
            print(f"{name} = {measured[name]:.6g} (not bounded)")
    print(f"failed_frac = {failed / max(attempted, 1):.6g} fraction "
          f"({failed} of {attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))


if __name__ == "__main__":
    main()
