"""``repro top`` — a live terminal console over a running server.

Polls ``GET /metrics`` (Prometheus text exposition, exemplars
included) and ``GET /healthz`` (JSON) and renders one frame per
interval: QPS and error rate from counter deltas, p50/p95/p99 from
the server's rolling latency window, cache hit rate, admission
pressure, health and SLO state, and burn-rate sparklines over the
frames seen so far. Stdlib only — the same ``urllib`` the tests use.

The module splits into three testable layers:

* :func:`parse_exposition` — a small Prometheus text parser (handles
  the ``# {trace_id="..."} value`` exemplar suffix);
* :class:`ServeSampler` / :func:`render_frame` — pure sampling and
  rendering over two samples (no terminal, no sleeps);
* :func:`run_top` — the loop: clear screen, render, sleep. With
  ``--once`` it takes two samples ~0.5 s apart and prints a single
  frame, which is also what CI runs against the ephemeral server.

:func:`validate_serve_observability` is the CI golden schema: it
checks a ``/metrics`` exposition and a ``/healthz`` payload for every
field this console (and the ISSUE's acceptance criteria) relies on.
"""

from __future__ import annotations

import json
import re
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from typing import Any

#: Seconds between the two samples of a --once frame: long enough for
#: a counter delta to mean something, short enough for CI.
ONCE_SPACING = 0.5

#: Burn-rate history kept for the sparklines (frames, not seconds).
HISTORY_FRAMES = 60

#: One exposition sample line:
#:   name{labels} value [# {exemplar-labels} exemplar-value]
_SAMPLE_RE = re.compile(
    r"^(?P<name>[A-Za-z_:][A-Za-z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s#]+)"
    r"(?:\s+#\s+\{(?P<ex_labels>[^}]*)\}\s+(?P<ex_value>\S+))?\s*$"
)

_LABEL_RE = re.compile(r'(\w+)="([^"]*)"')


def _parse_labels(raw: str | None) -> dict[str, str]:
    if not raw:
        return {}
    return dict(_LABEL_RE.findall(raw))


def parse_exposition(text: str) -> dict[str, Any]:
    """Parse a Prometheus text exposition into
    ``{series_name: [(labels, value, exemplar | None), ...]}``.

    ``series_name`` is the full sample name (``foo_bucket`` stays
    ``foo_bucket``). Exemplars come back as
    ``(labels_dict, value)`` tuples. ``# HELP``/``# TYPE`` comment
    lines are collected under the ``"#types"`` key as
    ``{metric_name: type}``.
    """
    series: dict[str, Any] = {"#types": {}}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                series["#types"][parts[2]] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(
                f"line {lineno}: cannot parse exposition sample: "
                f"{line!r}"
            )
        exemplar = None
        if match.group("ex_value") is not None:
            exemplar = (
                _parse_labels(match.group("ex_labels")),
                float(match.group("ex_value")),
            )
        series.setdefault(match.group("name"), []).append(
            (
                _parse_labels(match.group("labels")),
                float(match.group("value")),
                exemplar,
            )
        )
    return series


def scalar(series: dict[str, Any], name: str, default: float = 0.0) -> float:
    """The value of an unlabelled sample (counters, gauges)."""
    rows = series.get(name)
    if not rows:
        return default
    return rows[0][1]


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    """One synchronized pull of /metrics + /healthz."""

    at: float
    series: dict[str, Any]
    health: dict[str, Any]


class ServeSampler:
    """Fetches and parses the two observability endpoints."""

    def __init__(self, base_url: str, timeout: float = 5.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _fetch(self, path: str) -> bytes:
        with urllib.request.urlopen(
            self.base_url + path, timeout=self.timeout
        ) as response:
            return response.read()

    def sample(self) -> Sample:
        series = parse_exposition(self._fetch("/metrics").decode())
        health = json.loads(self._fetch("/healthz"))
        return Sample(
            at=time.monotonic(), series=series, health=health
        )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _rate(
    prev: Sample, curr: Sample, name: str
) -> float:
    elapsed = max(curr.at - prev.at, 1e-9)
    delta = scalar(curr.series, name) - scalar(prev.series, name)
    return max(delta, 0.0) / elapsed


def _fmt_seconds(value: Any) -> str:
    if value is None:
        return "    -"
    if value < 0.001:
        return f"{value * 1e6:4.0f}us"
    if value < 1.0:
        return f"{value * 1e3:4.1f}ms"
    return f"{value:4.2f}s"


def _fmt_burn(value: float) -> str:
    return f"{value:6.2f}"


@dataclass
class BurnHistory:
    """Rolling burn-rate series behind the sparklines."""

    values: dict[str, list[float]] = field(default_factory=dict)

    def push(self, health: dict[str, Any]) -> None:
        slo = health.get("slo", {})
        for name in ("availability", "latency"):
            for window in ("fast", "slow"):
                rates = slo.get(name, {}).get("burn_rates", {})
                key = f"{name}.{window}"
                history = self.values.setdefault(key, [])
                history.append(float(rates.get(window, 0.0)))
                del history[:-HISTORY_FRAMES]

    def spark(self, key: str) -> str:
        from ..evaluation.ascii_plots import sparkline

        history = self.values.get(key, [])
        return sparkline(history) if history else ""


def _stream_quantile(
    series: dict[str, Any], name: str, q: float
) -> float | None:
    """Approximate a quantile from a histogram's cumulative
    ``<name>_bucket`` samples (upper bound of the first bucket whose
    cumulative count covers the target rank)."""
    buckets = series.get(f"{name}_bucket")
    if not buckets:
        return None
    rows = []
    for labels, value, _ in buckets:
        bound = labels.get("le", "")
        if bound == "+Inf":
            continue
        try:
            rows.append((float(bound), value))
        except ValueError:
            continue
    rows.sort()
    total = scalar(series, f"{name}_count")
    if not rows or total <= 0:
        return None
    rank = q * total
    for bound, cumulative in rows:
        if cumulative >= rank:
            return bound
    return rows[-1][0]


def render_ingest_panel(prev: Sample, curr: Sample) -> list[str]:
    """The ``ingest`` panel lines, or ``[]`` when the server has no
    ingest subsystem attached (the repro_ingest_* series absent)."""
    if "repro_ingest_documents_total" not in curr.series:
        return []
    docs = scalar(curr.series, "repro_ingest_documents_total")
    docs_rate = _rate(prev, curr, "repro_ingest_documents_total")
    dirty = scalar(curr.series, "repro_ingest_dirty_combinations")
    offset = scalar(curr.series, "repro_ingest_journal_offset")
    freshness_p50 = _stream_quantile(
        curr.series, "repro_ingest_freshness_seconds", 0.5
    )
    return [
        (
            f"  ingest: {int(docs)} docs "
            f"({docs_rate:5.1f}/s)   "
            f"journal offset {int(offset)}   "
            f"dirty combos {int(dirty)}   "
            f"freshness p50 {_fmt_seconds(freshness_p50)}"
        ),
    ]


def render_frame(
    prev: Sample, curr: Sample, history: BurnHistory
) -> str:
    """One console frame from two samples (pure; no I/O)."""
    health = curr.health
    qps = _rate(prev, curr, "repro_serve_requests_total")
    eps = _rate(prev, curr, "repro_serve_errors_total")
    hit_rate_num = _rate(
        prev, curr, "repro_serve_cache_hits_total"
    )
    miss_rate = _rate(
        prev, curr, "repro_serve_cache_misses_total"
    )
    lookups = hit_rate_num + miss_rate
    hit_pct = 100.0 * hit_rate_num / lookups if lookups else 0.0
    latency = health.get("latency", {})
    slo = health.get("slo", {})
    admission = health.get("admission", {})
    lines = [
        (
            f"repro top — {health.get('status', '?'):<9} "
            f"gen {health.get('generation', '?')} "
            f"({health.get('opinions', '?')} opinions)   "
            f"slo: {slo.get('state', '?')}"
        ),
        (
            f"  qps {qps:8.1f}   errors/s {eps:6.2f}   "
            f"cache hit {hit_pct:5.1f}%   "
            f"inflight {admission.get('inflight', 0)}"
        ),
        (
            f"  latency ({int(latency.get('window_seconds', 0))}s "
            f"window, n={latency.get('count', 0)}):  "
            f"p50 {_fmt_seconds(latency.get('p50'))}   "
            f"p95 {_fmt_seconds(latency.get('p95'))}   "
            f"p99 {_fmt_seconds(latency.get('p99'))}"
        ),
    ]
    for name in ("availability", "latency"):
        entry = slo.get(name, {})
        rates = entry.get("burn_rates", {})
        lines.append(
            f"  {name:<13} burn "
            f"fast {_fmt_burn(rates.get('fast', 0.0))} "
            f"{history.spark(f'{name}.fast'):<12} "
            f"slow {_fmt_burn(rates.get('slow', 0.0))} "
            f"{history.spark(f'{name}.slow'):<12} "
            f"[{entry.get('state', '?')}]"
        )
    lines.extend(render_ingest_panel(prev, curr))
    degraded = health.get("degraded_reason")
    if degraded:
        lines.append(f"  degraded: {degraded}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------

def run_top(
    url: str,
    *,
    interval: float = 2.0,
    once: bool = False,
    out: Any = None,
) -> int:
    """Render the console until interrupted (or once).

    ``--once`` takes two samples :data:`ONCE_SPACING` seconds apart so
    the frame's rates are real deltas, prints one frame with no
    screen-clearing escape codes, and exits 0 — that is also the CI
    smoke path.
    """
    out = out if out is not None else sys.stdout
    sampler = ServeSampler(url)
    history = BurnHistory()
    prev = sampler.sample()
    if once:
        time.sleep(ONCE_SPACING)
        curr = sampler.sample()
        history.push(curr.health)
        print(render_frame(prev, curr, history), file=out)
        return 0
    while True:
        time.sleep(interval)
        curr = sampler.sample()
        history.push(curr.health)
        # ANSI clear + home keeps the frame in place like top(1).
        print(
            "\x1b[2J\x1b[H" + render_frame(prev, curr, history),
            file=out,
            flush=True,
        )
        prev = curr


# ---------------------------------------------------------------------------
# CI golden schema
# ---------------------------------------------------------------------------

def validate_serve_observability(
    health: dict[str, Any], exposition: str
) -> list[str]:
    """Check the two observability surfaces against the fields this
    console and the CI serve lane rely on. Returns violations."""
    problems: list[str] = []
    try:
        series = parse_exposition(exposition)
    except ValueError as error:
        return [f"/metrics: {error}"]

    def need_series(name: str) -> None:
        if name not in series:
            problems.append(f"/metrics: missing series {name}")

    for name in (
        "repro_serve_requests_total",
        "repro_serve_request_seconds_bucket",
        "repro_serve_request_seconds_sum",
        "repro_serve_request_seconds_count",
        "repro_serve_availability_burn_fast",
        "repro_serve_availability_burn_slow",
        "repro_serve_latency_burn_fast",
        "repro_serve_latency_burn_slow",
        "repro_serve_slo_state",
    ):
        need_series(name)
    types = series.get("#types", {})
    if types.get("repro_serve_request_seconds") != "histogram":
        problems.append(
            "/metrics: repro_serve_request_seconds must expose as "
            "TYPE histogram"
        )
    buckets = series.get("repro_serve_request_seconds_bucket", [])
    if buckets and not any(
        exemplar is not None and "trace_id" in exemplar[0]
        for _, _, exemplar in buckets
    ):
        problems.append(
            "/metrics: repro_serve_request_seconds_bucket has no "
            "trace_id exemplar"
        )

    slo = health.get("slo")
    if not isinstance(slo, dict):
        problems.append("/healthz: missing 'slo' object")
    else:
        if slo.get("state") not in ("ok", "warn", "page"):
            problems.append(
                f"/healthz: bad slo.state {slo.get('state')!r}"
            )
        for name in ("availability", "latency"):
            entry = slo.get(name)
            if not isinstance(entry, dict):
                problems.append(f"/healthz: missing slo.{name}")
                continue
            rates = entry.get("burn_rates")
            if not isinstance(rates, dict) or not {
                "fast", "slow"
            } <= set(rates):
                problems.append(
                    f"/healthz: slo.{name}.burn_rates needs "
                    "fast and slow windows"
                )
            if not isinstance(entry.get("objective"), float):
                problems.append(
                    f"/healthz: slo.{name}.objective missing"
                )
    latency = health.get("latency")
    if not isinstance(latency, dict):
        problems.append("/healthz: missing 'latency' object")
    else:
        for key in ("window_seconds", "count", "p50", "p95", "p99"):
            if key not in latency:
                problems.append(f"/healthz: latency.{key} missing")
    return problems
