"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.storage import load, save


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "docs.txt"
    path.write_text(
        "\n".join(
            [
                "Kittens are cute.",
                "I think that kittens are cute.",
                "The kitten is a cute animal.",
                "Tigers are not cute.",
                "I don't think that tigers are cute.",
                "Tigers are dangerous animals.",
            ]
        )
    )
    return path


@pytest.fixture()
def corpus_dir(tmp_path):
    directory = tmp_path / "pages"
    directory.mkdir()
    (directory / "a.txt").write_text("Kittens are cute.")
    (directory / "b.txt").write_text("Tigers are dangerous animals.")
    return directory


class TestMine:
    def test_mine_from_file_and_query(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "opinions.json"
        rc = main(
            [
                "mine", str(corpus_file),
                "--out", str(out),
                "--threshold", "1",
            ]
        )
        assert rc == 0
        assert out.exists()

        rc = main(["query", str(out), "cute", "animal", "--top", "3"])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "/animal/kitten" in captured

    def test_mine_from_directory(self, corpus_dir, tmp_path):
        out = tmp_path / "opinions.json"
        rc = main(
            ["mine", str(corpus_dir), "--out", str(out), "--threshold", "1"]
        )
        assert rc == 0
        table = load(out)
        assert len(table) > 0

    def test_mine_saves_parameters(self, corpus_file, tmp_path):
        out = tmp_path / "opinions.json"
        params_out = tmp_path / "params.json"
        main(
            [
                "mine", str(corpus_file),
                "--out", str(out),
                "--params-out", str(params_out),
                "--threshold", "1",
            ]
        )
        params = load(params_out)
        assert params
        for value in params.values():
            assert 0.5 < value.agreement < 1.0

    def test_mine_empty_corpus_fails(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("\n")
        with pytest.raises(SystemExit):
            main(["mine", str(empty)])

    def test_mine_with_custom_kb(self, corpus_file, tmp_path):
        from repro.kb import Entity, KnowledgeBase

        kb_path = tmp_path / "kb.json"
        save(
            KnowledgeBase(
                [
                    Entity.create("kitten", "animal"),
                    Entity.create("tiger", "animal"),
                ]
            ),
            kb_path,
        )
        out = tmp_path / "opinions.json"
        rc = main(
            [
                "mine", str(corpus_file),
                "--kb", str(kb_path),
                "--out", str(out),
                "--threshold", "1",
            ]
        )
        assert rc == 0


class TestQuery:
    def test_query_negative_listing(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "opinions.json"
        main(
            ["mine", str(corpus_file), "--out", str(out), "--threshold", "1"]
        )
        rc = main(["query", str(out), "cute", "animal", "--negative"])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "/animal/tiger" in captured

    def test_query_no_matches_returns_one(self, tmp_path, capsys):
        from repro.core import OpinionTable

        out = tmp_path / "empty.json"
        save(OpinionTable(), out)
        rc = main(["query", str(out), "cute", "animal"])
        assert rc == 1

    def test_query_wrong_artefact_fails(self, tmp_path, small_kb):
        path = save(small_kb, tmp_path / "kb.json")
        with pytest.raises(SystemExit):
            main(["query", str(path), "cute", "animal"])

    def test_query_json_format(self, corpus_file, tmp_path, capsys):
        import json

        out = tmp_path / "opinions.json"
        main(
            ["mine", str(corpus_file), "--out", str(out), "--threshold", "1"]
        )
        capsys.readouterr()
        rc = main(
            ["query", str(out), "cute", "animal", "--format", "json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "serve_query"
        assert payload["version"] == 2
        assert payload["property"] == "cute"
        assert payload["degraded"] is False
        assert payload["hits"][0]["entity"] == "/animal/kitten"
        assert set(payload["hits"][0]) == {
            "entity", "probability", "positive", "negative",
        }


class TestAsk:
    def test_ask_free_text_query(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "opinions.json"
        main(
            ["mine", str(corpus_file), "--out", str(out), "--threshold", "1"]
        )
        capsys.readouterr()
        rc = main(["ask", str(out), "cute animals", "--top", "25"])
        assert rc == 0
        output = capsys.readouterr().out
        assert "/animal/kitten" in output
        # kitten ranks above tiger for cuteness.
        assert output.index("/animal/kitten") < output.index(
            "/animal/tiger"
        )

    def test_ask_unparseable_query_fails(self, tmp_path):
        from repro.core import OpinionTable

        out = save(OpinionTable(), tmp_path / "empty.json")
        with pytest.raises(SystemExit):
            main(["ask", str(out), "blorp gadgets"])

    def test_ask_no_answers_returns_one(self, tmp_path):
        from repro.core import OpinionTable

        out = save(OpinionTable(), tmp_path / "empty.json")
        rc = main(["ask", str(out), "cute animals"])
        assert rc == 1

    def test_ask_json_format(self, corpus_file, tmp_path, capsys):
        import json

        out = tmp_path / "opinions.json"
        main(
            ["mine", str(corpus_file), "--out", str(out), "--threshold", "1"]
        )
        capsys.readouterr()
        rc = main(
            ["ask", str(out), "cute animals", "--top", "25",
             "--format", "json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "serve_ask"
        assert payload["generation"] == 1
        assert payload["terms"] == [
            {"property": "cute", "negated": False, "degraded": False}
        ]
        entities = [h["entity"] for h in payload["hits"]]
        assert entities.index("/animal/kitten") < entities.index(
            "/animal/tiger"
        )


class TestCalibrate:
    def test_calibrate_prints_threshold(self, tmp_path, capsys):
        from repro.baselines import SurveyorInterpreter
        from repro.corpus import CorpusGenerator
        from repro.evaluation import BIG_CITIES
        from repro.kb import KnowledgeBase

        scenario = BIG_CITIES.scenario()
        kb = KnowledgeBase(scenario.entities)
        evidence = CorpusGenerator(seed=1).probe(scenario).as_evidence()
        table = SurveyorInterpreter(occurrence_threshold=1).interpret(
            evidence, kb
        )
        opinions_path = save(table, tmp_path / "op.json")
        kb_path = save(kb, tmp_path / "kb.json")
        rc = main(
            [
                "calibrate", str(opinions_path), "big", "city",
                "population", "--kb", str(kb_path),
            ]
        )
        assert rc == 0
        assert "applies above" in capsys.readouterr().out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestObservabilityFlags:
    def mine_with_telemetry(self, corpus_file, tmp_path):
        out = tmp_path / "opinions.json"
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        rc = main(
            [
                "mine", str(corpus_file),
                "--out", str(out),
                "--threshold", "1",
                "--trace", str(trace),
                "--metrics-out", str(metrics),
            ]
        )
        assert rc == 0
        return out, trace, metrics

    @pytest.mark.trace
    def test_mine_writes_valid_telemetry(self, corpus_file, tmp_path):
        from repro.obs import (
            load_metrics_file,
            validate_metrics_payload,
            validate_trace,
        )

        out, trace, metrics = self.mine_with_telemetry(
            corpus_file, tmp_path
        )
        assert validate_trace(trace) == []
        payload = load_metrics_file(metrics)
        assert validate_metrics_payload(payload) == []
        assert len(payload["metrics"]) >= 12
        assert payload["em_convergence"]  # records ride along

    @pytest.mark.trace
    def test_mine_writes_manifest(self, corpus_file, tmp_path):
        import json

        out, _, _ = self.mine_with_telemetry(corpus_file, tmp_path)
        manifest = json.loads(
            (tmp_path / "opinions.json.manifest.json").read_text()
        )
        assert manifest["format"] == "run_manifest"
        assert manifest["command"] == "mine"
        assert manifest["config"]["threshold"] == 1
        assert manifest["health"]["healthy"] is True
        assert manifest["outputs"]["opinions"] == str(out)

    @pytest.mark.trace
    def test_stats_renders_trace_and_metrics(
        self, corpus_file, tmp_path, capsys
    ):
        _, trace, metrics = self.mine_with_telemetry(
            corpus_file, tmp_path
        )
        capsys.readouterr()
        rc = main(
            [
                "stats", str(trace),
                "--metrics", str(metrics),
                "--validate",
            ]
        )
        assert rc == 0
        output = capsys.readouterr().out
        assert "stage timeline" in output
        assert "per-shard latency" in output
        assert "repro_statements_total" in output
        assert "EM convergence per combination" in output

    def test_stats_rejects_corrupt_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            '{"trace_schema": 1, "n_spans": 1}\n'
            '{"span_id": 0, "parent_id": null, "name": "x", '
            '"kind": "warp", "start_unix": 0.0, "duration": 0.0, '
            '"attrs": {}, "status": "ok"}\n'
        )
        rc = main(["stats", str(trace), "--validate"])
        assert rc == 2
        assert "invalid trace" in capsys.readouterr().err

    def test_demo_profile_prints_stages(self, capsys):
        rc = main(["demo", "--profile"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "stage timeline" in err
        assert "EM convergence per combination" in err

    @pytest.mark.trace
    def test_profile_mem_renders_memory_columns(
        self, corpus_file, tmp_path, capsys
    ):
        from repro.obs import read_trace

        trace = tmp_path / "trace.jsonl"
        rc = main(
            [
                "mine", str(corpus_file),
                "--out", str(tmp_path / "opinions.json"),
                "--threshold", "1",
                "--trace", str(trace),
                "--profile-mem",
            ]
        )
        assert rc == 0
        spans = read_trace(trace)
        stages = [s for s in spans if s["kind"] == "stage"]
        assert stages
        assert all(
            s["attrs"]["rss_peak_bytes"] > 0 for s in stages
        )
        capsys.readouterr()
        assert main(["stats", str(trace), "--validate"]) == 0
        output = capsys.readouterr().out
        assert "rss=" in output
        assert "heap+=" in output
