"""Figure 10 — worker votes for "cute" across the 20 animals.

Paper: strong agreement on clear-cut animals (kitten, puppy near 20/20;
scorpion, spider near 0/20) with a controversial middle.
"""

from __future__ import annotations

from _report import emit

from repro.kb.seeds import FIGURE_10_ANIMALS


def bench_fig10_votes(benchmark, survey):
    def collect():
        return survey.votes_for("animal", "cute")

    votes = benchmark(collect)
    lines = ["Figure 10 — 'how many of 20 workers call the animal cute?'"]
    for name in FIGURE_10_ANIMALS:
        bar = "#" * votes[name]
        lines.append(f"{name:14s} {votes[name]:2d} {bar}")
    emit("fig10_cute_animals", lines)

    assert len(votes) == 20
    assert votes["kitten"] >= 17
    assert votes["puppy"] >= 17
    assert votes["scorpion"] <= 3
    assert votes["spider"] <= 3
    # A controversial middle exists (paper: frog, octopus, ...).
    assert any(6 <= count <= 14 for count in votes.values())
