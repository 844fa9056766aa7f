"""CPU speed probes: scale measurements to a reference CPU speed.

On a 2-vCPU virtual machine the CPUs changed speed by up to 2x within
seconds, independently of each other: a fixed pure-Python loop took
0.13-0.24 s on one CPU over 45 s, and two CPUs' timings were nearly
uncorrelated. Such drift swamps most changes to the program. So every
timed operation is bracketed by timings of a fixed loop on the CPU that
did the work, and each result is scaled to what it would read on a CPU
that runs the loop in the probe's ``reference`` seconds:

* a rate is multiplied by ``probe / reference``;
* a duration is multiplied by ``reference / probe``.

On this benchmark's own mining runs that took the spread of ten-second
medians from 30% to 3% (interquartile range over median).

Two loops, each the one that tracked its workload best:

* :class:`Probe` times integer arithmetic in this process, beside the
  mining runs and the set-ups. Over 16 mining runs its speed
  correlated with the runs' throughput at 0.82 and scaling took their
  coefficient of variation from 0.124 to 0.077; the dict/JSON loop
  below reached 0.75 and 0.115.
* :class:`RemoteProbe` times dict, string and JSON work (standard
  library only) in a child pinned to the server's CPU, between load
  phases, so it never competes with the server for it. Over 40
  saturation probes of one ``repro serve`` process its speed
  correlated with the server's throughput at 0.71, against 0.46 for
  the integer loop, and scaling took the coefficient of variation from
  0.21 to 0.14 (0.18 with the integer loop).
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time
from statistics import median

#: Loop timings per probe sample; the sample is their median.
SAMPLES = 3

ARITHMETIC_LOOP = 300_000
#: Arithmetic loop time of the reference CPU.
ARITHMETIC_REFERENCE = 0.025

#: Rows the server-like loop works on, and passes over them per timing.
ROWS = [
    {"entity": f"e{i}", "p": i * 0.37, "tags": [str(i % 7), "x" * (i % 13)]}
    for i in range(4000)
]
PASSES = 2
#: Server-like loop time of the reference CPU.
SERVER_REFERENCE = 0.030


def arithmetic_seconds() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(ARITHMETIC_LOOP):
        total += i * i
    return time.perf_counter() - started


def server_seconds() -> float:
    # The loop allocates enough to trigger the cyclic collector, whose
    # cost grows with the caller's heap and has nothing to do with the
    # CPU's speed; the loop makes no cycles.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(PASSES):
            index = {}
            for row in ROWS:
                index[row["entity"] + "/" + row["tags"][0]] = (
                    row["p"], len(row["tags"][1])
                )
            json.loads(json.dumps(ROWS))
            sorted(index.items(), key=lambda item: item[1])
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


class Probe:
    """Arithmetic loop timings on this process's CPU."""

    reference = ARITHMETIC_REFERENCE

    def sample(self) -> float:
        return median(arithmetic_seconds() for _ in range(SAMPLES))

    def close(self) -> None:
        pass


class RemoteProbe(Probe):
    """Server-like loop timings in a child process pinned to ``cpu``."""

    reference = SERVER_REFERENCE

    def __init__(self, cpu: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        os.sched_setaffinity(self.proc.pid, {cpu})

    def sample(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Scaled:
    """Brackets one measurement with probe samples."""

    def __init__(self, probe: Probe) -> None:
        self.probe = probe
        self.before = probe.sample()

    def end(self) -> float:
        """The measurement's speed ratio: probe time over reference."""
        after = self.probe.sample()
        return (self.before + after) / 2 / self.probe.reference


class Stopwatch:
    """Scaled seconds of an operation made of stages, with a probe
    sample at every stage boundary, so drift within a long operation is
    followed stage by stage. The samples themselves are not timed."""

    def __init__(self, probe: Probe) -> None:
        self.probe = probe
        self.seconds = 0.0
        self._sample = probe.sample()
        self._started = time.perf_counter()

    def lap(self) -> None:
        """End the current stage and start the next."""
        elapsed = time.perf_counter() - self._started
        sample = self.probe.sample()
        ratio = (self._sample + sample) / 2 / self.probe.reference
        self.seconds += elapsed / ratio
        self._sample = sample
        self._started = time.perf_counter()


if __name__ == "__main__":
    for _line in sys.stdin:
        print(median(server_seconds() for _ in range(SAMPLES)), flush=True)
