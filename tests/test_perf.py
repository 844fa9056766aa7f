"""Tests for performance telemetry: the memory probes."""

from __future__ import annotations

import tracemalloc

from repro.obs import MemoryProbe, format_bytes, rss_peak_bytes


class TestMemoryProbe:
    def test_rss_peak_is_positive_and_monotone(self):
        first = rss_peak_bytes()
        assert first > 0
        blob = bytearray(4 << 20)
        assert rss_peak_bytes() >= first
        del blob

    def test_probe_without_tracemalloc_reports_none(self):
        # Another test (e.g. Tracer(profile_memory=True)) may have left
        # the global tracer on; this test is about the off-path.
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        probe = MemoryProbe().start()
        result = probe.stop()
        assert result.peak_rss_bytes > 0
        assert result.tracemalloc_peak_bytes is None
        assert result.tracemalloc_net_bytes is None

    def test_probe_with_tracemalloc_sees_allocation(self):
        tracemalloc.start()
        try:
            probe = MemoryProbe().start()
            blob = bytearray(2 << 20)
            result = probe.stop()
            del blob
        finally:
            tracemalloc.stop()
        assert result.tracemalloc_peak_bytes >= 2 << 20
        assert result.tracemalloc_net_bytes >= 2 << 20

    def test_format_bytes(self):
        assert format_bytes(None) == "-"
        assert format_bytes(512) == "512B"
        assert format_bytes(2048) == "2.0KiB"
        assert format_bytes(3 << 20) == "3.0MiB"
        assert format_bytes(5 << 30) == "5.0GiB"
