"""The paired performance lane's decision rule, on synthetic result lines.

No benchmark runs here: each case feeds ``decide`` perfbench-style
result lines (the JSON object ``perfbench/run.py`` prints last) for a
parent and a HEAD side.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "perf_lane.py"
_spec = importlib.util.spec_from_file_location("perf_lane", SCRIPT)
perf_lane = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_lane)

DECLARED = {
    "workloads": [{"name": "mine"}, {"name": "serve"}],
    "end_to_end": [
        {"name": "ops_per_s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    ],
}


def line(ops=100.0, rss=50.0, correct=True, attempted=10, failed=0):
    """One perfbench result line (the last line ``run.py`` prints)."""
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "ops_per_s": {"value": ops, "unit": "ops/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    })


def side(**overrides):
    """Three parsed runs per workload; ``overrides`` maps a workload to
    its keyword arguments for :func:`line`."""
    return {
        workload: [
            json.loads(line(**overrides.get(workload, {})))
            for _ in range(3)
        ]
        for workload in ("mine", "serve")
    }


def failures(parent, head):
    return perf_lane.decide(DECLARED, parent, head)[1]


def test_identical_sides_pass_with_a_row_per_workload_and_metric():
    rows, problems = perf_lane.decide(DECLARED, side(), side())
    assert problems == []
    assert [(row[0], row[1], row[-1]) for row in rows] == [
        ("mine", "ops_per_s", "ok"),
        ("mine", "peak_rss_mb", "ok"),
        ("serve", "ops_per_s", "ok"),
        ("serve", "peak_rss_mb", "ok"),
    ]


@pytest.mark.parametrize("ops, rss", [(76.0, 50.0), (100.0, 54.9)])
def test_changes_inside_the_bound_pass(ops, rss):
    assert failures(side(), side(mine={"ops": ops, "rss": rss})) == []


def test_higher_is_better_metric_falling_past_its_bound_fails():
    problems = failures(side(), side(serve={"ops": 74.0}))
    assert len(problems) == 1 and "serve ops_per_s" in problems[0]


def test_lower_is_better_metric_rising_past_its_bound_fails():
    problems = failures(side(), side(mine={"rss": 55.5}))
    assert len(problems) == 1 and "mine peak_rss_mb" in problems[0]


def test_improvements_never_fail():
    assert failures(side(), side(mine={"ops": 400.0, "rss": 10.0})) == []


def test_the_median_decides_not_one_outlier():
    head = side()
    head["mine"][0] = json.loads(line(ops=10.0))
    assert failures(side(), head) == []


@pytest.mark.parametrize("which", ["parent", "head"])
def test_a_run_reading_correct_false_fails(which):
    broken = side(serve={"correct": False})
    parent, head = (broken, side()) if which == "parent" else (side(), broken)
    problems = failures(parent, head)
    assert any("correct false" in problem for problem in problems)


def test_a_higher_failed_share_fails():
    problems = failures(side(), side(serve={"failed": 1}))
    assert any("failed share" in problem for problem in problems)
    # The same share on both sides is not a regression.
    assert failures(side(serve={"failed": 1}), side(serve={"failed": 1})) == []


def test_a_workload_missing_from_one_side_fails():
    head = side()
    del head["serve"]
    problems = failures(side(), head)
    assert any("HEAD serve: ops_per_s missing" in p for p in problems)


def test_a_metric_missing_from_one_side_fails():
    parent = side()
    for run in parent["mine"]:
        del run["metrics"]["peak_rss_mb"]
    problems = failures(parent, side())
    assert any("parent mine: peak_rss_mb missing" in p for p in problems)
