"""Performance telemetry: memory probes.

Cheap samplers for process peak RSS (``resource.getrusage``; no extra
cost) and Python-heap peaks (``tracemalloc``; opt-in because tracing
allocations slows the interpreter). :class:`MemoryProbe` brackets a
region of work and reports both; the tracer (``--profile-mem``), the
``--profile`` report and the pipeline's resource counters read them.
Run-to-run performance is measured by the repository benchmark
(``perfbench/``), not here.
"""

from __future__ import annotations

import sys
import tracemalloc
from dataclasses import dataclass


def rss_peak_bytes() -> int:
    """Process peak RSS in bytes (the kernel's high-watermark).

    Monotone over the process lifetime — useful as "how big did this
    run get", not as a per-region delta. Returns 0 on platforms
    without ``resource`` (Windows).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return int(peak)
    return int(peak) * 1024


def start_tracemalloc() -> None:
    """Start allocation tracing if not already on (idempotent)."""
    if not tracemalloc.is_tracing():
        tracemalloc.start()


@dataclass
class MemorySample:
    """What a :class:`MemoryProbe` saw over its bracket."""

    peak_rss_bytes: int
    #: Python-heap peak *above the bracket's starting level*; ``None``
    #: when tracemalloc was not tracing (the probe never starts it —
    #: that is the harness's opt-in decision).
    tracemalloc_peak_bytes: int | None
    #: Net Python-heap growth across the bracket (can be negative).
    tracemalloc_net_bytes: int | None


class MemoryProbe:
    """Bracket a region of work and report its memory profile.

    ``tracemalloc`` numbers are relative to the heap level at
    :meth:`start`; the global peak counter is *not* reset, so nested
    probes compose (an outer probe's peak includes its children, which
    is the truthful reading).
    """

    __slots__ = ("_traced_start",)

    def __init__(self) -> None:
        self._traced_start: int | None = None

    def start(self) -> "MemoryProbe":
        if tracemalloc.is_tracing():
            self._traced_start = tracemalloc.get_traced_memory()[0]
        else:
            self._traced_start = None
        return self

    def stop(self) -> MemorySample:
        peak = rss_peak_bytes()
        if self._traced_start is None or not tracemalloc.is_tracing():
            return MemorySample(peak, None, None)
        current, traced_peak = tracemalloc.get_traced_memory()
        return MemorySample(
            peak_rss_bytes=peak,
            tracemalloc_peak_bytes=max(
                0, traced_peak - self._traced_start
            ),
            tracemalloc_net_bytes=current - self._traced_start,
        )


def format_bytes(n: float | int | None) -> str:
    """Human-readable byte count for reports (``None`` → ``-``)."""
    if n is None:
        return "-"
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024.0 or unit == "GiB":
            return (
                f"{value:.0f}{unit}"
                if unit == "B"
                else f"{value:.1f}{unit}"
            )
        value /= 1024.0
    return f"{value:.1f}GiB"  # pragma: no cover - unreachable
