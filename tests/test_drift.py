"""Tests for generation drift: compare_tables, CLI, and serve wiring."""

from __future__ import annotations

import json
import random
import urllib.request
from typing import Any

import pytest

import repro.obs.drift as drift_module
from repro.cli import main
from repro.core import (
    EvidenceCounts,
    Opinion,
    OpinionTable,
    PropertyTypeKey,
    SubjectiveProperty,
)
from repro.obs import MetricsRegistry, parse_exposition
from repro.obs.drift import (
    DRIFT_FORMAT,
    MAX_FLIP_EXAMPLES,
    DriftReport,
    PropertyDrift,
    compare_tables,
)
from repro.obs.histogram import StreamingHistogram
from repro.serve import OpinionService
from repro.storage import save

from .conftest import AsyncHarness

CUTE = PropertyTypeKey(SubjectiveProperty("cute"), "animal")
BIG = PropertyTypeKey(SubjectiveProperty("big"), "animal")


def table_from(entries) -> OpinionTable:
    return OpinionTable(
        [
            Opinion(entity, key, p, EvidenceCounts(2, 1))
            for entity, key, p in entries
        ]
    )


BEFORE = table_from(
    [
        ("/animal/kitten", CUTE, 0.95),
        ("/animal/shark", CUTE, 0.10),
        ("/animal/pony", CUTE, 0.80),
        ("/animal/shark", BIG, 0.90),
    ]
)


class TestCompareTables:
    def test_identical_tables_report_nothing(self):
        report = compare_tables(BEFORE, BEFORE)
        assert report.flips == 0
        assert report.common == 4
        assert report.added == report.removed == 0
        assert report.entity_churn == 0
        assert report.delta_max == 0.0
        assert report.flip_fraction == 0.0

    def test_flip_detected_with_example(self):
        after = table_from(
            [
                ("/animal/kitten", CUTE, 0.95),
                ("/animal/shark", CUTE, 0.75),  # flipped - to +
                ("/animal/pony", CUTE, 0.80),
                ("/animal/shark", BIG, 0.90),
            ]
        )
        report = compare_tables(BEFORE, after)
        assert report.flips == 1
        assert report.flip_fraction == 0.25
        assert report.delta_max == pytest.approx(0.65)
        (example,) = report.flip_examples
        assert example["entity"] == "/animal/shark"
        assert example["key"] == "cute|animal"
        assert example["before"] == 0.1
        assert example["after"] == 0.75
        assert example["before_polarity"] == "-"
        assert example["after_polarity"] == "+"

    def test_churn_counts_added_removed_entities(self):
        after = table_from(
            [
                ("/animal/kitten", CUTE, 0.95),
                ("/animal/pony", CUTE, 0.80),
                ("/animal/slug", CUTE, 0.40),  # new entity
            ]
        )
        report = compare_tables(BEFORE, after)
        assert report.pairs_before == 4
        assert report.pairs_after == 3
        assert report.common == 2
        assert report.added == 1
        assert report.removed == 2  # shark's two pairs
        assert report.entity_churn == 2  # shark out, slug in

    def test_per_property_rollup(self):
        after = table_from(
            [
                ("/animal/kitten", CUTE, 0.05),  # flip
                ("/animal/shark", CUTE, 0.10),
                ("/animal/pony", CUTE, 0.80),
                ("/animal/shark", BIG, 0.70),
            ]
        )
        report = compare_tables(BEFORE, after)
        cute = report.per_property["cute|animal"]
        big = report.per_property["big|animal"]
        assert (cute.common, cute.flips) == (3, 1)
        assert cute.mean_abs_delta == pytest.approx(0.9 / 3)
        assert (big.common, big.flips) == (1, 0)
        assert big.mean_abs_delta == pytest.approx(0.2)

    def test_histogram_observes_every_common_pair(self):
        report = compare_tables(BEFORE, BEFORE)
        assert report.delta_histogram.count == 4

    def test_flip_examples_bounded(self):
        before = table_from(
            [(f"/animal/e{i:02d}", CUTE, 0.9) for i in range(20)]
        )
        after = table_from(
            [(f"/animal/e{i:02d}", CUTE, 0.1) for i in range(20)]
        )
        report = compare_tables(before, after)
        assert report.flips == 20
        assert len(report.flip_examples) == MAX_FLIP_EXAMPLES
        report = compare_tables(before, after, max_examples=2)
        assert len(report.flip_examples) == 2

    def test_to_dict_shape(self):
        payload = compare_tables(BEFORE, BEFORE).to_dict()
        assert payload["format"] == DRIFT_FORMAT
        assert payload["version"] == 1
        assert set(payload) >= {
            "flips", "flip_fraction", "common", "added", "removed",
            "entity_churn", "delta_max", "flip_examples",
            "per_property", "delta_histogram",
        }
        assert list(payload["per_property"]) == sorted(
            payload["per_property"]
        )

    def test_render_readable(self):
        after = table_from(
            [
                ("/animal/kitten", CUTE, 0.05),
                ("/animal/shark", CUTE, 0.10),
                ("/animal/pony", CUTE, 0.80),
                ("/animal/shark", BIG, 0.90),
            ]
        )
        text = compare_tables(BEFORE, after).render()
        assert "generation drift" in text
        assert "flips: 1" in text
        assert "flip: /animal/kitten" in text
        assert "cute|animal" in text

    def test_deterministic_for_same_inputs(self):
        after = table_from(
            [
                ("/animal/kitten", CUTE, 0.05),
                ("/animal/pony", CUTE, 0.95),
            ]
        )
        first = compare_tables(BEFORE, after).to_dict()
        second = compare_tables(BEFORE, after).to_dict()
        assert first == second


def reference_compare(
    before: OpinionTable,
    after: OpinionTable,
    max_examples: int = MAX_FLIP_EXAMPLES,
) -> DriftReport:
    """``compare_tables`` as it was before shared blocks: every pair
    of both tables diffed one by one. The shortcut must agree."""
    before_pairs = {
        (opinion.key, opinion.entity_id): opinion
        for opinion in before
    }
    after_pairs = {
        (opinion.key, opinion.entity_id): opinion for opinion in after
    }
    histogram = StreamingHistogram()
    per_property: dict[str, PropertyDrift] = {}

    def rollup(key: PropertyTypeKey) -> PropertyDrift:
        text = f"{key.property.text}|{key.entity_type}"
        drift = per_property.get(text)
        if drift is None:
            drift = PropertyDrift()
            per_property[text] = drift
        return drift

    def order(pair):
        key, entity = pair
        return (f"{key.property.text}|{key.entity_type}", entity)

    common = flips = 0
    delta_max = 0.0
    flip_examples: list[dict[str, Any]] = []
    for pair in sorted(after_pairs, key=order):
        old = before_pairs.get(pair)
        new = after_pairs[pair]
        drift = rollup(pair[0])
        if old is None:
            drift.added += 1
            continue
        common += 1
        drift.common += 1
        delta = abs(new.probability - old.probability)
        drift.delta_sum += delta
        histogram.observe(delta)
        if delta > delta_max:
            delta_max = delta
        if new.polarity is not old.polarity:
            flips += 1
            drift.flips += 1
            if len(flip_examples) < max_examples:
                flip_examples.append(
                    {
                        "entity": pair[1],
                        "key": order(pair)[0],
                        "before": round(old.probability, 6),
                        "after": round(new.probability, 6),
                        "before_polarity": str(old.polarity),
                        "after_polarity": str(new.polarity),
                    }
                )
    removed = 0
    for pair in sorted(before_pairs, key=order):
        if pair not in after_pairs:
            removed += 1
            rollup(pair[0]).removed += 1
    before_entities = {pair[1] for pair in before_pairs}
    after_entities = {pair[1] for pair in after_pairs}
    return DriftReport(
        pairs_before=len(before_pairs),
        pairs_after=len(after_pairs),
        common=common,
        added=len(after_pairs) - common,
        removed=removed,
        flips=flips,
        entity_churn=len(
            before_entities.symmetric_difference(after_entities)
        ),
        delta_max=delta_max,
        delta_histogram=histogram,
        flip_examples=flip_examples,
        per_property=per_property,
    )


KEYS = [
    PropertyTypeKey(SubjectiveProperty(adjective), entity_type)
    for adjective in ("cute", "big", "calm", "young")
    for entity_type in ("animal", "city")
]


def block_of(key, entries) -> tuple[Opinion, ...]:
    return tuple(
        Opinion(entity, key, p, EvidenceCounts(1, 0))
        for entity, p in entries
    )


def carried(before: OpinionTable, changes) -> OpinionTable:
    """The next generation of ``before``: each key in ``changes`` gets
    the given block (``()`` empties it), every other block is shared."""
    after = OpinionTable()
    for key in before.keys():
        if key not in changes:
            after.add_block(key, before.block(key))
    for key, block in changes.items():
        after.add_block(key, block)
    return after


def random_entries(rng: random.Random, n: int) -> list[tuple[str, float]]:
    entities = rng.sample(range(40), n)
    return [
        (f"/e/{entity:02d}", rng.choice((0.1, 0.3, 0.7, 0.9, 1.0)))
        for entity in entities
    ]


class TestSharedBlockShortcut:
    """``compare_tables`` counts a block both tables share in bulk;
    its report must equal the pair-by-pair reference's."""

    def assert_matches_reference(self, before, after):
        report = compare_tables(before, after)
        reference = reference_compare(before, after)
        assert report.to_dict() == reference.to_dict()
        assert report.summary() == reference.summary()
        assert report.render() == reference.render()
        return report

    def table(self) -> OpinionTable:
        table = OpinionTable()
        for i, key in enumerate(KEYS):
            table.add_block(
                key,
                block_of(
                    key,
                    [(f"/e/{j:02d}", 0.9 if (i + j) % 3 else 0.2)
                     for j in range(i, i + 6)],
                ),
            )
        return table

    def test_every_block_shared(self):
        before = self.table()
        report = self.assert_matches_reference(before, carried(before, {}))
        assert report.common == len(before)

    def test_no_block_shared(self):
        before = self.table()
        after = carried(
            before,
            {key: block_of(key, [("/e/07", 0.6)]) for key in KEYS},
        )
        self.assert_matches_reference(before, after)

    def test_some_blocks_shared_with_adds_removes_and_empties(self):
        before = self.table()
        cute, big = KEYS[0], KEYS[2]
        fresh = PropertyTypeKey(SubjectiveProperty("loud"), "city")
        after = carried(
            before,
            {
                cute: block_of(cute, [("/e/00", 0.1), ("/e/99", 0.8)]),
                big: (),  # emptied: every pair removed
                fresh: block_of(fresh, [("/e/50", 0.7)]),  # added
            },
        )
        report = self.assert_matches_reference(before, after)
        assert report.added and report.removed and report.entity_churn
        assert "big|animal" in report.per_property

    def test_many_flips_pin_the_example_order(self):
        before = self.table()
        changes = {
            key: tuple(
                Opinion(op.entity_id, key, 1.0 - op.probability)
                for op in before.block(key)
            )
            for key in KEYS[::2]
        }
        report = self.assert_matches_reference(
            before, carried(before, changes)
        )
        assert report.flips > MAX_FLIP_EXAMPLES
        assert len(report.flip_examples) == MAX_FLIP_EXAMPLES

    def test_equal_blocks_that_are_not_shared_go_pair_by_pair(
        self, monkeypatch
    ):
        observed = []

        class Spy(StreamingHistogram):
            def observe(self, value, exemplar=None, count=1):
                observed.append(count)
                super().observe(value, exemplar, count)

        monkeypatch.setattr(drift_module, "StreamingHistogram", Spy)
        before = self.table()
        # Equal blocks, but rebuilt: no object is shared.
        rebuilt = OpinionTable(list(before))
        assert all(
            rebuilt.block(key) == before.block(key)
            and rebuilt.block(key) is not before.block(key)
            for key in KEYS
        )
        self.assert_matches_reference(before, rebuilt)
        assert observed == [1] * len(before)
        observed.clear()
        # A carried table shares every block: one bulk count each.
        self.assert_matches_reference(before, carried(before, {}))
        assert observed == [len(before.block(key)) for key in KEYS]

    def test_tables_built_by_add_compare_as_before(self):
        before = self.table()
        after = carried(before, {})
        # add copies the shared block first, so only after changes.
        after.add(Opinion("/e/00", KEYS[0], 0.95))
        assert before.get("/e/00", KEYS[0]).probability == 0.2
        assert after.block(KEYS[0]) is not before.block(KEYS[0])
        report = self.assert_matches_reference(before, after)
        assert report.flips == 1

    @pytest.mark.parametrize("seed", range(40))
    def test_random_generations_match_the_reference(self, seed):
        rng = random.Random(seed)
        before = OpinionTable()
        for key in rng.sample(KEYS, 6):
            before.add_block(
                key,
                block_of(key, random_entries(rng, rng.randint(1, 12))),
            )
        changes = {}
        for key in rng.sample(KEYS, rng.randint(0, len(KEYS))):
            if rng.random() < 0.2:
                changes[key] = ()
            else:
                changes[key] = block_of(
                    key, random_entries(rng, rng.randint(1, 12))
                )
        after = carried(before, changes)
        self.assert_matches_reference(before, after)
        self.assert_matches_reference(after, before)


class TestDiffCLI:
    def test_self_diff_exits_zero(self, tmp_path, capsys):
        path = save(BEFORE, tmp_path / "a.json")
        rc = main(["diff", str(path), str(path), "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == DRIFT_FORMAT
        assert payload["flips"] == 0

    def test_flips_exit_one_and_text_render(self, tmp_path, capsys):
        a = save(BEFORE, tmp_path / "a.json")
        flipped = table_from(
            [
                ("/animal/kitten", CUTE, 0.05),
                ("/animal/shark", CUTE, 0.10),
                ("/animal/pony", CUTE, 0.80),
                ("/animal/shark", BIG, 0.90),
            ]
        )
        b = save(flipped, tmp_path / "b.json")
        rc = main(["diff", str(a), str(b)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "flips: 1" in out

    def test_rejects_non_opinion_artefacts(self, tmp_path, capsys):
        a = save(BEFORE, tmp_path / "a.json")
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"format": "nonsense", "version": 1}')
        rc = main(["diff", str(a), str(bogus)])
        assert rc != 0
        assert "error" in capsys.readouterr().err


FLIPPED = table_from(
    [
        ("/animal/kitten", CUTE, 0.95),
        ("/animal/shark", CUTE, 0.75),  # the flip
        ("/animal/pony", CUTE, 0.80),
        ("/animal/shark", BIG, 0.90),
    ]
)


def gauge(registry: MetricsRegistry, name: str) -> float:
    series = parse_exposition(registry.exposition())
    ((_, value, _),) = series[name]
    return value


class TestServeDriftWiring:
    def test_swap_publishes_gauges_and_healthz_line(self):
        service = OpinionService(BEFORE)
        service.swap(FLIPPED)
        registry = service.registry
        assert gauge(registry, "repro_serve_generation_flips") == 1.0
        assert gauge(
            registry, "repro_serve_generation_flip_fraction"
        ) == pytest.approx(0.25)
        health = service.healthz()
        assert health["drift"]["trigger"] == "reload"
        assert health["drift"]["flips"] == 1
        assert health["drift_alarm"] is None

    def test_reload_response_carries_drift_summary(self, tmp_path):
        path = save(BEFORE, tmp_path / "op.json")
        service = OpinionService(BEFORE, source_path=path)
        save(FLIPPED, path)
        summary = service.reload()
        assert summary["generation"] == 2
        assert summary["drift"]["flips"] == 1

    def test_rollback_emits_drift(self, tmp_path):
        path = save(BEFORE, tmp_path / "op.json")
        service = OpinionService(BEFORE, source_path=path)
        save(FLIPPED, path)
        service.reload()
        summary = service.rollback()
        assert summary["drift"]["flips"] == 1
        health = service.healthz()
        assert health["drift"]["trigger"] == "rollback"

    def test_guard_alarm_fires_above_fraction(self):
        service = OpinionService(BEFORE, drift_guard_fraction=0.1)
        service.swap(FLIPPED)  # 25% of common answers flipped
        health = service.healthz()
        assert health["drift_alarm"] is not None
        assert "flipped 1 of 4" in health["drift_alarm"]
        assert service.registry.counter_value(
            "repro_serve_drift_alarms_total"
        ) == 1
        # A quiet swap clears the alarm.
        service.swap(FLIPPED)
        assert service.healthz()["drift_alarm"] is None

    def test_guard_quiet_below_fraction(self):
        service = OpinionService(BEFORE, drift_guard_fraction=0.5)
        service.swap(FLIPPED)
        assert service.healthz()["drift_alarm"] is None
        assert service.registry.counter_value(
            "repro_serve_drift_alarms_total"
        ) == 0

    def test_guard_fraction_validated(self):
        with pytest.raises(ValueError):
            OpinionService(BEFORE, drift_guard_fraction=0.0)
        with pytest.raises(ValueError):
            OpinionService(BEFORE, drift_guard_fraction=1.5)

    def test_http_reload_of_differing_generation_surfaces_flips(
        self, tmp_path
    ):
        """Two differing generations end to end: boot on A, reload B
        over HTTP, and the non-zero flip gauge lands in /metrics."""
        path = save(BEFORE, tmp_path / "op.json")
        service = OpinionService(BEFORE, source_path=path)
        with AsyncHarness(service) as harness:
            base = harness.url
            save(FLIPPED, path)
            request = urllib.request.Request(
                f"{base}/admin/reload", data=b"{}", method="POST"
            )
            with urllib.request.urlopen(request, timeout=10) as r:
                payload = json.loads(r.read())
            assert payload["generation"] == 2
            assert payload["drift"]["flips"] == 1
            with urllib.request.urlopen(
                f"{base}/metrics", timeout=10
            ) as r:
                series = parse_exposition(r.read().decode())
            ((_, flips, _),) = series["repro_serve_generation_flips"]
            assert flips == 1.0
            with urllib.request.urlopen(
                f"{base}/healthz", timeout=10
            ) as r:
                health = json.loads(r.read())
            assert health["drift"]["flips"] == 1
