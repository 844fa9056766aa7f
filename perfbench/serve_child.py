"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 serve_child.py SPANS_PREFIX <repro serve arguments>``

The wrappers from :mod:`spans` go in before the CLI builds the server.
Recording is off until a SIGUSR1 and each further SIGUSR1 flips it, so
the benchmark can time the same server with and without tracing. When
``repro serve`` returns after its SIGTERM drain, the spans are written
to ``SPANS_PREFIX.tsv`` and their per-layer summary to
``SPANS_PREFIX.json``.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from repro.cli import main  # noqa: E402


def run(prefix: str, argv: list[str]) -> int:
    recorder = spans.SpanRecorder()
    recorder.install(idle=True)

    def toggle(_signum, _frame) -> None:
        recorder.enabled = not recorder.enabled

    signal.signal(signal.SIGUSR1, toggle)
    try:
        return main(argv)
    finally:
        recorder.enabled = False
        Path(prefix + ".json").write_text(json.dumps(recorder.summary()))
        recorder.dump(prefix + ".tsv")


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], ["serve", *sys.argv[2:]]))
