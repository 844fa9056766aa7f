"""A mining run leaves no cyclic garbage, and its collector pause
always restores the caller's collector state."""

from __future__ import annotations

import gc
import pickle
import sys
import threading

import pytest

from repro.corpus import CorpusGenerator
from repro.evaluation.harness import EvaluationHarness
from repro.extraction import EvidenceExtractor, find_matches
from repro.kb.seeds import evaluation_kb
from repro.nlp import (
    AnnotatedSentence,
    Annotator,
    DependencyParser,
    tag,
    tokenize,
)
from repro.pipeline import FaultInjector, InjectedFault, SurveyorPipeline
from repro.pipeline.runner import _COLLECTOR_PAUSE

SENTENCES = (
    "Kittens are cute.",
    "Kittens are very cute and friendly.",
    "I don't think that snakes are never dangerous.",
    "I find kittens cute.",
    "Tokyo, a big city, is hectic.",
    "Snakes are dangerous animals.",
    "The cute cat purrs.",
    "San Francisco is bad for parking.",
    "Soccer is a fast and exciting sport.",
    "Honestly, tigers seem like fierce creatures.",
    "If only Chicago were warm.",
    "Nobody goes there not ever anyway",
    "Chicago is a big city in winter.",
    "!",
)


@pytest.fixture()
def collector_disabled():
    """Disable the collector for the test, restoring it afterwards."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture()
def collections():
    """(generation, collected) of every collection while installed."""
    seen: list[tuple[int, int]] = []

    def record(phase, info):
        if phase == "stop":
            seen.append((info["generation"], info["collected"]))

    gc.callbacks.append(record)
    try:
        yield seen
    finally:
        gc.callbacks.remove(record)


class TestAcyclicTrees:
    def test_dropped_parses_leave_no_cyclic_garbage(
        self, collector_disabled
    ):
        parser = DependencyParser()
        parsed = [
            parser.parse(tag(tokenize(text)))
            for _ in range(5)
            for text in SENTENCES
        ]
        assert all(sentence.order for sentence in parsed)
        del parsed
        assert gc.collect() == 0

    def test_parent_map_matches_children(self, parser):
        for text in SENTENCES:
            sentence = parser.parse(tag(tokenize(text)))
            tree = sentence.tree()
            for node in tree.all_nodes():
                for child in node.children:
                    assert tree.parent_of(child) is node
                    assert sentence.heads[child.token.index] == (
                        node.token.index
                    )
            assert tree.parent_of(tree.root) is None
            assert sum(h >= 0 for h in sentence.heads) == (
                len(tree.nodes) - 1
            )


class TestMemoFootprint:
    """A memoized sentence is one flat record: the annotation memo
    holds a few tracked objects per sentence, not a graph of tokens
    and tree nodes (which cost ~30 per sentence)."""

    @pytest.fixture(scope="class")
    def documents(self):
        harness = EvaluationHarness()
        corpus = CorpusGenerator(seed=13).generate(harness.scenarios()[0])
        return corpus.documents[:2000]

    @pytest.mark.parametrize("extract", [False, True])
    def test_tracked_objects_per_memo_entry(self, documents, extract):
        kb = evaluation_kb()
        # Warm the process-wide caches (regexes, the shared prefilter)
        # outside the count.
        EvidenceExtractor().extract_document(
            Annotator(kb, share_memo=False).annotate("warm", "Kittens.")
        )
        annotator = Annotator(kb, share_memo=False)
        extractor = EvidenceExtractor()
        gc.collect()
        before = len(gc.get_objects())
        for document in documents:
            annotated = annotator.annotate(document.doc_id, document.text)
            if extract:
                extractor.extract_document(annotated)
        del annotated
        gc.collect()
        added = len(gc.get_objects()) - before
        assert added / len(annotator.memo) <= 9

    def test_pickled_record_matches_alike(self, documents):
        annotator = Annotator(evaluation_kb(), share_memo=False)
        checked = 0
        for document in documents[:300]:
            for annotated in annotator.annotate(
                document.doc_id, document.text
            ).sentences:
                copy = pickle.loads(pickle.dumps(annotated.sentence))
                matches = find_matches(annotated)
                assert find_matches(
                    AnnotatedSentence(copy, annotated.mentions)
                ) == matches
                checked += bool(matches)
        assert checked > 100


class TestClosingCollection:
    def test_run_frees_nothing_cyclic(
        self, small_kb, cute_scenario, collections
    ):
        corpus = CorpusGenerator(seed=41).generate(cute_scenario)
        pipeline = SurveyorPipeline(
            kb=small_kb,
            occurrence_threshold=10,
            annotation_memo_size=8,
            fault_injector=FaultInjector(seed=3, fail_every_nth=7),
        )
        gc.collect()
        collections.clear()
        report = pipeline.run(corpus)
        assert report.health.quarantined
        assert report.health.memo_evictions > 0
        # The automatic collector stayed out of the run: the closing
        # collection of the young generations is the only one, and it
        # finds no cycles; nothing a run made escaped it into the old
        # generation, where only a full collection would find it.
        assert collections == [(1, 0)]
        assert gc.collect() == 0

    def test_overlapping_runs_collect_once_on_last_exit(
        self, small_kb, cute_scenario, collections
    ):
        """Two runs in threads overlap inside the pause: only the one
        that leaves last collects, for both, and neither leaves
        anything for a later full collection."""
        corpus = CorpusGenerator(seed=45).generate(cute_scenario)
        both_inside = threading.Barrier(2, timeout=60)

        class MeetInside(FaultInjector):
            def on_shard_start(self, shard_id: int, attempt: int) -> None:
                if shard_id == 0:
                    both_inside.wait()

        errors: list[BaseException] = []

        def run() -> None:
            try:
                SurveyorPipeline(
                    kb=small_kb,
                    occurrence_threshold=10,
                    fault_injector=MeetInside(),
                ).run(corpus)
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        gc.collect()
        collections.clear()
        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert collections == [(1, 0)]
        assert gc.isenabled()
        assert gc.collect() == 0

    def test_overlapping_runs_keep_a_disabled_collector_disabled(
        self, collector_disabled, collections
    ):
        with _COLLECTOR_PAUSE:
            with _COLLECTOR_PAUSE:
                pass
            assert collections == []
        assert collections == [(1, 0)]
        assert not gc.isenabled()


class TestCollectorPause:
    @pytest.fixture()
    def pipeline_and_corpus(self, small_kb, cute_scenario):
        corpus = CorpusGenerator(seed=42).generate(cute_scenario)
        return (
            SurveyorPipeline(kb=small_kb, occurrence_threshold=10),
            corpus,
        )

    def test_restored_after_a_run(self, pipeline_and_corpus):
        pipeline, corpus = pipeline_and_corpus
        assert gc.isenabled()
        pipeline.run(corpus)
        assert gc.isenabled()

    def test_restored_after_a_strict_run_raises(
        self, small_kb, cute_scenario
    ):
        corpus = CorpusGenerator(seed=43).generate(cute_scenario)
        pipeline = SurveyorPipeline(
            kb=small_kb,
            strict=True,
            fault_injector=FaultInjector(fail_every_nth=1),
        )
        with pytest.raises(InjectedFault):
            pipeline.run(corpus)
        assert gc.isenabled()

    def test_caller_disabled_collector_stays_disabled(
        self, pipeline_and_corpus, collector_disabled
    ):
        pipeline, corpus = pipeline_and_corpus
        pipeline.run(corpus)
        assert not gc.isenabled()

    def test_overlapping_pauses_resume_on_last_exit(self):
        assert gc.isenabled()
        with _COLLECTOR_PAUSE:
            with _COLLECTOR_PAUSE:
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_pause_count_survives_thread_contention(self):
        """More threads than cores enter and leave the pause with a
        tiny switch interval; a lost update to the shared count would
        re-enable the collector under a thread still inside, or leave
        it disabled at the end."""
        inside_enabled: list[bool] = []
        start = threading.Barrier(8)

        def churn() -> None:
            start.wait()
            for _ in range(300):
                with _COLLECTOR_PAUSE:
                    if gc.isenabled():
                        inside_enabled.append(True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert inside_enabled == []
        assert gc.isenabled()

    def test_restored_after_concurrent_runs(
        self, small_kb, cute_scenario
    ):
        corpus = CorpusGenerator(seed=44).generate(cute_scenario)
        start = threading.Barrier(2)
        errors: list[BaseException] = []

        def run() -> None:
            try:
                start.wait()
                SurveyorPipeline(
                    kb=small_kb, occurrence_threshold=10
                ).run(corpus)
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert gc.isenabled()
