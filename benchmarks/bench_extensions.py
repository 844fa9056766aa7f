"""Benchmarks for the extension features beyond the paper's tables.

* the Section 3 precision/recall tradeoff (confidence margins);
* the Section 9 subjective-to-objective calibration;
* the O(m) EM scaling claim (Section 6), measured directly;
* NLP annotation throughput (the substrate the extraction hour
  depended on).
"""

from __future__ import annotations

import random
import time

import pytest
from _report import emit

from repro.core import EMLearner, EvidenceCounts, Polarity, fit_link
from repro.corpus import TrueParameters, sample_statement_counts
from repro.evaluation import tradeoff_curve


def bench_tradeoff_curve(benchmark, interpreted, survey):
    """Section 3: trading coverage for precision via the margin."""
    table = interpreted["Surveyor"]
    cases = survey.without_ties()

    points = benchmark(lambda: tradeoff_curve(table, cases))
    lines = ["Confidence-margin tradeoff (Surveyor, Section 3)"]
    lines += [point.row() for point in points]
    lines.append(
        "finding: posteriors are strongly bimodal (Poisson likelihoods "
        "saturate), so the margin trades little — errors are "
        "confidently wrong (silent positive-truth entities), which a "
        "confidence threshold cannot filter."
    )
    emit("extension_tradeoff", lines)

    coverages = [point.coverage for point in points]
    assert coverages == sorted(coverages, reverse=True)
    # The most confident slice never does worse than deciding all.
    assert points[-1].precision >= points[0].precision - 1e-9


def bench_calibration_population_bound(benchmark):
    """Section 9: recover the population bound for 'big city'."""
    from repro.baselines import SurveyorInterpreter
    from repro.corpus import CorpusGenerator
    from repro.evaluation import BIG_CITIES
    from repro.kb import KnowledgeBase

    scenario = BIG_CITIES.scenario()
    kb = KnowledgeBase(scenario.entities)
    evidence = CorpusGenerator(seed=2015).probe(scenario).as_evidence()
    table = SurveyorInterpreter(occurrence_threshold=1).interpret(
        evidence, kb
    )

    link = benchmark(
        lambda: fit_link(
            table, BIG_CITIES.key(), list(scenario.entities), "population"
        )
    )
    lines = [
        "Subjective-to-objective bridge (Section 9 outlook)",
        link.describe(),
        f"generative bound: 250,000 — recovered within "
        f"x{link.threshold / 250_000:.2f}",
    ]
    emit("extension_calibration", lines)
    assert 120_000 <= link.threshold <= 500_000
    assert link.accuracy > 0.95


@pytest.mark.parametrize("n_entities", [200, 2_000, 20_000])
def bench_em_scaling(benchmark, n_entities):
    """Section 6's O(m) claim: per-entity fit cost stays flat."""
    params = TrueParameters(0.88, 30.0, 3.0)
    rng = random.Random(3)
    evidence = []
    for index in range(n_entities):
        truth = Polarity.POSITIVE if index % 3 == 0 else Polarity.NEGATIVE
        pos, neg = sample_statement_counts(truth, params, rng)
        evidence.append(EvidenceCounts(pos, neg))
    learner = EMLearner(max_iterations=10, tolerance=0.0)

    result, seconds = _timed(benchmark, lambda: learner.fit(evidence))
    assert len(result.responsibilities) == n_entities
    _SCALING.setdefault("times", {})[n_entities] = seconds
    if len(_SCALING["times"]) == 3:
        times = _SCALING["times"]
        lines = ["EM scaling (10 iterations, fixed grid)"]
        for n, seconds in sorted(times.items()):
            lines.append(
                f"entities={n:6d}  {seconds * 1e3:8.2f} ms  "
                f"({seconds / n * 1e6:6.2f} us/entity)"
            )
        emit("extension_em_scaling", lines)
        # Linear-ish: 100x entities must cost far less than 1000x time
        # (allows constant overhead and cache effects).
        assert times[20_000] < 300 * times[200]


_SCALING: dict = {}


def _timed(benchmark, fn):
    """``benchmark(fn)`` and the mean seconds of a call. Under
    ``--benchmark-disable`` the fixture calls ``fn`` once and keeps no
    stats, so that one call is timed here."""
    started = time.perf_counter()
    result = benchmark(fn)
    if benchmark.stats is None:
        return result, time.perf_counter() - started
    return result, benchmark.stats.stats.mean


def bench_nlp_throughput(benchmark, harness):
    """Annotation throughput over rendered Web documents."""
    from repro.corpus import CorpusGenerator
    from repro.nlp import Annotator

    corpus = CorpusGenerator(seed=5).generate(harness.scenarios()[0])
    docs = [(doc.doc_id, doc.text) for doc in corpus][:2000]
    annotator = Annotator(harness.kb)

    def annotate_all():
        return sum(
            annotator.annotate(doc_id, text).mention_count()
            for doc_id, text in docs
        )

    mentions, seconds = _timed(benchmark, annotate_all)
    lines = [
        "NLP annotation throughput",
        f"documents: {len(docs)}  mentions linked: {mentions}",
        f"{len(docs) / seconds:,.0f} documents/second",
    ]
    emit("extension_nlp_throughput", lines)
    assert mentions > 0
    assert len(docs) / seconds > 500
