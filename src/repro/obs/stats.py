"""Render a recorded trace as a terminal report (``repro stats``).

Consumes the JSONL span stream written by :class:`repro.obs.trace.Tracer`
and produces the Section 7.1-style view: a per-stage timeline, the
per-shard latency spread, the top-k slowest documents, and — when a
metrics/convergence file is supplied — per-combination EM convergence
sparklines.

The heavy lifting (bars, sparklines) reuses
:mod:`repro.evaluation.ascii_plots`, imported inside the functions that
draw, as :mod:`repro.obs.live` does: ``repro.obs`` never imports
``repro.evaluation`` at module level, because the evaluation harness
imports the pipeline, which imports ``repro.obs``.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from .convergence import ConvergenceRecord
from .perf import format_bytes


def _by_kind(spans: list[dict[str, Any]]) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = {}
    for span in spans:
        grouped.setdefault(span.get("kind", "span"), []).append(span)
    return grouped


def _duration(span: dict[str, Any]) -> float:
    """A span's duration, 0.0 when absent (in-flight/crashed spans)."""
    value = span.get("duration")
    return value if isinstance(value, (int, float)) else 0.0


def _mem_cell(span: dict[str, Any]) -> str:
    """Memory column for a ``--profile-mem`` span ('' when unprofiled)."""
    attrs = span.get("attrs", {})
    rss = attrs.get("rss_peak_bytes")
    traced = attrs.get("tracemalloc_peak_bytes")
    if rss is None and traced is None:
        return ""
    parts = []
    if rss is not None:
        parts.append(f"rss={format_bytes(rss)}")
    if traced is not None:
        parts.append(f"heap+={format_bytes(traced)}")
    return "  " + " ".join(parts)


def _timeline_rows(
    spans: list[dict[str, Any]], origin: float
) -> list[str]:
    """One row per span: offset, duration, name, memory, error flag.

    A span with no ``duration`` never closed — it was in flight when
    the trace was written, or its process died (a quarantined shard).
    Those render as ``RUNNING`` (status ok) or ``ABORTED`` (status
    error) instead of raising ``KeyError``.
    """
    rows = []
    for span in sorted(
        spans, key=lambda s: s.get("start_unix", 0.0)
    ):
        offset = span.get("start_unix", origin) - origin
        flag = (
            ""
            if span.get("status") == "ok"
            else f"  ERROR={span.get('error', '?')}"
        )
        duration = span.get("duration")
        if isinstance(duration, (int, float)):
            duration_cell = f"{duration:9.4f}s"
        elif span.get("status") == "ok":
            duration_cell = f"{'RUNNING':>10}"
        else:
            duration_cell = f"{'ABORTED':>10}"
        rows.append(
            f"  +{offset:8.3f}s  {duration_cell}"
            f"  {span['name']}{_mem_cell(span)}{flag}"
        )
    return rows


def render_trace(
    spans: list[dict[str, Any]], top: int = 10
) -> str:
    """The full ``repro stats`` report for one trace."""
    from ..evaluation.ascii_plots import bar_chart

    if not spans:
        return "(empty trace)"
    grouped = _by_kind(spans)
    origin = min(
        span.get("start_unix", 0.0) for span in spans
    )
    lines: list[str] = []

    counts = Counter(span.get("kind", "span") for span in spans)
    errors = [s for s in spans if s.get("status") != "ok"]
    runs = grouped.get("run", [])
    total = (
        max(_duration(r) for r in runs)
        if runs
        else sum(_duration(s) for s in grouped.get("stage", []))
    )
    lines.append(
        f"trace: {len(spans)} spans "
        f"({', '.join(f'{k}={v}' for k, v in sorted(counts.items()))})"
    )
    lines.append(f"run wall time: {total:.3f}s  errors: {len(errors)}")

    stages = grouped.get("stage", [])
    if stages:
        lines.append("")
        lines.append("stage timeline (offset, duration):")
        lines.extend(_timeline_rows(stages, origin))
        lines.append("")
        lines.append("stage durations:")
        lines.append(
            bar_chart(
                [
                    (span["name"], _duration(span))
                    for span in sorted(
                        stages,
                        key=lambda s: s.get("start_unix", 0.0),
                    )
                ]
            )
        )

    shards = grouped.get("shard", [])
    if shards:
        lines.append("")
        lines.append("per-shard latency:")
        lines.append(
            bar_chart(
                [
                    (
                        f"shard-{span['attrs'].get('shard_id', '?')}",
                        _duration(span),
                    )
                    for span in sorted(
                        shards,
                        key=lambda s: s["attrs"].get("shard_id", 0),
                    )
                ]
            )
        )

    prefilter_totals: Counter[str] = Counter()
    for span in shards:
        counters = span.get("attrs", {}).get("prefilter")
        if isinstance(counters, dict):
            for key in (
                "sentences",
                "skipped",
                "memo_hits",
                "memo_misses",
                "memo_evictions",
            ):
                value = counters.get(key)
                if isinstance(value, (int, float)):
                    prefilter_totals[key] += int(value)
    if prefilter_totals.get("sentences"):
        sentences = prefilter_totals["sentences"]
        skipped = prefilter_totals["skipped"]
        lookups = (
            prefilter_totals["memo_hits"] + prefilter_totals["memo_misses"]
        )
        hit_rate = prefilter_totals["memo_hits"] / lookups if lookups else 0.0
        lines.append("")
        lines.append("extraction fast path:")
        lines.append(
            f"  sentences={sentences}  skipped={skipped}"
            f" ({skipped / sentences:.1%})"
        )
        lines.append(
            f"  annotation memo: hits={prefilter_totals['memo_hits']}"
            f"  misses={prefilter_totals['memo_misses']}"
            f"  hit rate={hit_rate:.1%}"
            f"  evictions={prefilter_totals['memo_evictions']}"
        )

    documents = grouped.get("document", [])
    if documents:
        slowest = sorted(
            documents, key=_duration, reverse=True
        )[:top]
        lines.append("")
        lines.append(f"top {len(slowest)} slowest documents:")
        for span in slowest:
            attrs = span.get("attrs", {})
            lines.append(
                f"  {_duration(span):9.4f}s"
                f"  {attrs.get('doc_id', '?'):30s}"
                f" statements={attrs.get('statements', '?')}"
                f"{_mem_cell(span)}"
            )

    combos = grouped.get("combination", [])
    if combos:
        lines.append("")
        lines.append("EM combinations:")
        for span in sorted(
            combos, key=_duration, reverse=True
        )[:top]:
            attrs = span.get("attrs", {})
            lines.append(
                f"  {_duration(span):9.4f}s  {attrs.get('key', '?')}"
                f"{_mem_cell(span)}"
            )

    if errors:
        lines.append("")
        lines.append("error spans:")
        for span in errors[:top]:
            lines.append(
                f"  {span['name']} [{span.get('kind')}]"
                f" error={span.get('error', '?')}"
            )
    return "\n".join(lines)


def render_metrics(payload: dict[str, Any]) -> str:
    """Human view of a ``--metrics-out`` payload.

    Counters and gauges print as name/value rows; non-empty histograms
    get a bucket panel. Ordering follows the file (already sorted).
    """
    from ..evaluation.ascii_plots import histogram_panel

    metrics = payload.get("metrics", {})
    if not metrics:
        return "(no metrics recorded)"
    lines: list[str] = ["metrics:"]
    scalar_width = max(len(name) for name in metrics)
    for name, row in metrics.items():
        kind = row.get("type")
        if kind in ("counter", "gauge"):
            lines.append(
                f"  {name:<{scalar_width}}  {row['value']:g}"
                f"  ({kind})"
            )
    for name, row in metrics.items():
        kind = row.get("type")
        if kind not in ("histogram", "streamhist") or not row.get(
            "count"
        ):
            continue
        lines.append("")
        lines.append(
            f"  {name}  count={row['count']}  sum={row['sum']:g}"
        )
        counts = list(row["counts"])
        if kind == "streamhist":
            # Log-bucketed histograms serialize only occupied buckets
            # (no overflow slot); the panel wants one per edge + +Inf.
            counts.append(0)
        panel = histogram_panel(row["buckets"], counts)
        lines.extend("    " + line for line in panel.splitlines())
    return "\n".join(lines)


def render_convergence(
    records: list[ConvergenceRecord],
) -> str:
    """Per-combination convergence panel with sparkline trajectories."""
    from ..evaluation.ascii_plots import sparkline

    if not records:
        return "(no EM convergence records)"
    lines = ["EM convergence per combination:"]
    width = max(len(record.key) for record in records)
    for record in records:
        trend = sparkline(record.log_likelihoods)
        lines.append(
            f"  {record.key:<{width}}  {record.verdict:<17}"
            f" iters={record.iterations:<3}"
            f" ll={record.final_log_likelihood:.4g}  {trend}"
        )
        if record.agreement_path:
            lines.append(
                f"  {'':<{width}}  pA "
                f"{record.agreement_path[0]:.2f}→"
                f"{record.agreement_path[-1]:.2f} "
                f"{sparkline(record.agreement_path)}  np+S "
                f"{sparkline(record.rate_positive_path)}  np-S "
                f"{sparkline(record.rate_negative_path)}"
            )
    return "\n".join(lines)
