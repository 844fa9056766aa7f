"""Import budget: each command imports only the code it runs.

``repro serve`` and every ``repro`` command's parse step load no numpy
or scipy; the mining path loads ``scipy.special`` for EM and nothing
of ``scipy.optimize`` (calibration) or ``scipy.stats`` (evaluation).
Each check runs in a fresh interpreter, since this test session has
imported everything already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh(code: str):
    """Run ``code`` in a new interpreter; the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _loaded(first_import: str, prefixes: tuple[str, ...]) -> list[str]:
    return _fresh(
        f"""
        import json, sys
        {first_import}
        print(json.dumps(sorted(
            name for name in sys.modules
            if name.startswith({prefixes!r})
        )))
        """
    )


@pytest.mark.parametrize("module", ["repro.cli", "repro.serve.launch"])
def test_cli_and_serve_import_no_numpy_or_scipy(module):
    assert _loaded(f"import {module}", ("numpy", "scipy")) == []


def test_pipeline_first_import_skips_optimize_and_stats():
    """`repro.pipeline` imported before anything else resolves (no
    circular import through obs and evaluation) and loads only the
    scipy EM needs."""
    loaded = _loaded(
        "from repro.pipeline import SurveyorPipeline",
        ("scipy.optimize", "scipy.stats"),
    )
    assert loaded == []


def test_every_export_resolves():
    missing = _fresh(
        """
        import importlib, json
        missing = []
        for name in ("repro", "repro.core", "repro.pipeline"):
            package = importlib.import_module(name)
            namespace = {}
            exec(f"from {name} import *", namespace)
            for export in package.__all__:
                if export not in namespace or export not in dir(package):
                    missing.append(f"{name}.{export}")
        print(json.dumps(missing))
        """
    )
    assert missing == []


def test_subpackages_are_attributes_of_the_package():
    """`import repro; repro.serve` works without importing it first."""
    names = _fresh(
        """
        import json, repro
        print(json.dumps([
            repro.serve.__name__, repro.core.em.__name__,
            hasattr(repro, "no_such_name"),
        ]))
        """
    )
    assert names == ["repro.serve", "repro.core.em", False]


def test_top_sparkline_loads_no_numpy_or_pipeline():
    """Drawing `repro top`'s first burn-rate sparkline imports the
    plot helper alone, not the evaluation harness behind the package."""
    loaded = _loaded(
        """
        from repro.obs.live import BurnHistory
        history = BurnHistory()
        history.push({"slo": {"latency": {"burn_rates": {"fast": 2.0}}}})
        assert history.spark("latency.fast")
        """,
        ("numpy", "scipy", "repro.pipeline"),
    )
    assert loaded == []
