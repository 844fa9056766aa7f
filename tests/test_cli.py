"""Tests for the command-line interface."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import (
    OpinionTable,
    Polarity,
    PropertyTypeKey,
    QueryEngine,
    SubjectiveProperty,
)
from repro.nlp.lexicon import TYPE_NOUNS
from repro.obs import manifest_path_for, read_manifest
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

    def test_query_wrong_artefact_fails(self, tmp_path, small_kb, capsys):
        path = save(small_kb, tmp_path / "kb.json")
        assert main(["query", str(path), "cute", "animal"]) == 2
        assert "not an opinions artefact" in capsys.readouterr().err

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
        assert main(["ask", str(out), "blorp gadgets"]) == 2

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


def reference_query_text(
    table: OpinionTable,
    property_text: str,
    entity_type: str,
    *,
    negative: bool,
    min_probability: float,
    top: int,
) -> tuple[str, int]:
    """`repro query`'s text mode as it was written before it answered
    through the HTTP route: stdout and exit code."""
    key = PropertyTypeKey(
        SubjectiveProperty.parse(property_text), entity_type
    )
    polarity = Polarity.NEGATIVE if negative else Polarity.POSITIVE
    hits = table.entities_with(
        key, polarity, min_probability=min_probability
    )
    if not hits:
        return "no matching entities\n", 1
    return "".join(
        f"{opinion.entity_id:30s} p={opinion.probability:.3f} "
        f"(+{opinion.evidence.positive}/-{opinion.evidence.negative})\n"
        for opinion in hits[:top]
    ), 0


def reference_ask_text(
    table: OpinionTable, query: str, top: int
) -> tuple[str, int]:
    """`repro ask`'s text mode as it was written before it answered
    through the HTTP route: stdout and exit code."""
    hits = QueryEngine(table).answer(query, top=top)
    if not hits:
        return "no answers\n", 1
    lines = []
    for hit in hits:
        marker = "*" if hit.confident else " "
        terms = " ".join(f"{p:.2f}" for p in hit.per_term)
        lines.append(
            f"{marker} {hit.entity_id:30s} score={hit.score:.3f} "
            f"[{terms}]\n"
        )
    return "".join(lines), 0


class TestTextAnswersMatchReference:
    """The text modes print the route's answer; on valid input that
    is the same stdout the table-scanning renderers printed."""

    @pytest.fixture()
    def mined(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "opinions.json"
        main(
            ["mine", str(corpus_file), "--out", str(out), "--threshold", "1"]
        )
        capsys.readouterr()
        return out, load(out, "opinions")

    def run(self, capsys, argv) -> tuple[str, int]:
        rc = main(argv)
        out, err = capsys.readouterr()
        assert err == ""
        return out, rc

    def test_query_text_identical(self, mined, capsys):
        path, table = mined
        keys = sorted(table.keys(), key=str)
        assert len(keys) >= 2
        for key in keys:
            for negative in (False, True):
                for min_probability in (0.0, 0.5):
                    for top in (1, 10, 1000):
                        argv = [
                            "query", str(path), key.property.text,
                            key.entity_type,
                            "--min-probability", str(min_probability),
                            "--top", str(top),
                        ]
                        if negative:
                            argv.append("--negative")
                        assert self.run(capsys, argv) == (
                            reference_query_text(
                                table,
                                key.property.text,
                                key.entity_type,
                                negative=negative,
                                min_probability=min_probability,
                                top=top,
                            )
                        ), argv

    def test_ask_text_identical(self, mined, capsys):
        path, table = mined
        by_type: dict[str, list[str]] = {}
        for key in sorted(table.keys(), key=str):
            by_type.setdefault(key.entity_type, []).append(
                key.property.text
            )
        queries = []
        for entity_type, properties in by_type.items():
            noun = next(
                noun
                for noun, kind in TYPE_NOUNS.items()
                if kind == entity_type and noun != entity_type
            )
            terms = [
                f"{negation}{prop}"
                for prop in properties
                for negation in ("", "not ")
            ]
            queries += [f"{term} {noun}" for term in terms]
            queries += [
                f"{first} {second} {noun}"
                for first in terms
                for second in terms
                if first.split()[-1] != second.split()[-1]
            ]
        assert len(queries) >= 8
        for query in queries:
            for top in (1, 10, 1000):
                argv = ["ask", str(path), query, "--top", str(top)]
                assert self.run(capsys, argv) == reference_ask_text(
                    table, query, top
                ), argv


class TestPublishedOutputs:
    """The manifest's ``outputs`` lists exactly the files a publish
    wrote: each listed file exists, and each file is listed."""

    def assert_outputs_complete(self, directory: Path, out: Path):
        manifest_path = manifest_path_for(out)
        outputs = read_manifest(manifest_path)["outputs"]
        listed = {Path(path) for path in outputs.values()}
        assert all(path.is_file() for path in listed)
        published = {
            path for path in directory.iterdir() if path.is_file()
        }
        assert published == listed | {manifest_path}
        return outputs

    def test_mine_lists_every_output(self, corpus_file, tmp_path):
        directory = tmp_path / "published"
        out = directory / "opinions.json"
        rc = main(
            [
                "mine", str(corpus_file), "--out", str(out),
                "--threshold", "1",
                "--trace", str(directory / "trace.jsonl"),
                "--metrics-out", str(directory / "metrics.json"),
            ]
        )
        assert rc == 0
        outputs = self.assert_outputs_complete(directory, out)
        assert set(outputs) == {
            "opinions", "provenance", "trace", "metrics",
        }

    def test_ingest_lists_every_output(self, corpus_file, tmp_path):
        directory = tmp_path / "published"
        out = directory / "opinions.json"
        rc = main(
            [
                "ingest", str(corpus_file),
                "--journal", str(tmp_path / "journal"),
                "--out", str(out), "--threshold", "1",
            ]
        )
        assert rc == 0
        outputs = self.assert_outputs_complete(directory, out)
        assert set(outputs) == {"opinions", "provenance"}

    def test_mine_without_lineage_lists_no_sidecar(
        self, corpus_file, tmp_path
    ):
        directory = tmp_path / "published"
        out = directory / "opinions.json"
        main(
            [
                "mine", str(corpus_file), "--out", str(out),
                "--threshold", "1", "--no-provenance",
            ]
        )
        outputs = self.assert_outputs_complete(directory, out)
        assert set(outputs) == {"opinions"}


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


class TestUsageErrors:
    """Bad arguments that argparse cannot see are one stderr line and
    exit 2, never a traceback."""

    @pytest.fixture()
    def opinions(self):
        return str(
            Path(__file__).parent / "data" / "ingest_v1" / "opinions.json"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["calibrate", "{op}", " ", "animal", "population"],
                "repro: error: property text must be non-empty\n",
            ),
            (
                ["calibrate", "{op}", "cute", "animal", "population"],
                "repro: error: need both polarities to calibrate cute "
                "animal; got 0+ / 0-\n",
            ),
        ],
    )
    def test_calibrate_error_is_one_line(
        self, opinions, capsys, argv, message
    ):
        argv = [arg.replace("{op}", opinions) for arg in argv]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == message

    @pytest.mark.parametrize("threshold", ["0", "-5"])
    def test_mine_threshold_below_one_is_a_usage_error(
        self, corpus_file, tmp_path, capsys, threshold
    ):
        out = tmp_path / "opinions.json"
        with pytest.raises(SystemExit) as exit_:
            main(
                [
                    "mine", str(corpus_file), "--out", str(out),
                    "--threshold", threshold,
                ]
            )
        assert exit_.value.code == 2
        assert (
            "argument --threshold: must be at least 1"
            in capsys.readouterr().err
        )
        assert not out.exists()


class TestArtefactErrors:
    """An undecodable, malformed or wrong-kind artefact is one
    ``repro: error:`` line and exit code 2, never a traceback (exit 1
    means "ran fine, found nothing")."""

    @pytest.fixture()
    def files(self, tmp_path, small_kb):
        from repro.core import (
            EvidenceCounts,
            Opinion,
            OpinionTable,
            PropertyTypeKey,
            SubjectiveProperty,
        )

        key = PropertyTypeKey(SubjectiveProperty("cute"), "animal")
        opinion = Opinion("/animal/kitten", key, 0.9, EvidenceCounts(3, 0))
        save(OpinionTable([opinion]), tmp_path / "opinions.json")
        save(small_kb, tmp_path / "kb.json")
        (tmp_path / "latin1.json").write_bytes(b'{"format": "caf\xe9"}')
        (tmp_path / "trace.jsonl").write_text(
            '{"trace_schema": 1, "n_spans": 0}\n'
        )
        (tmp_path / "list-span.jsonl").write_text(
            '{"trace_schema": 1, "n_spans": 1}\n[1, 2]\n'
        )
        (tmp_path / "no-combinations.json").write_text(
            '{"format": "em_convergence", "version": 1}'
        )
        (tmp_path / "list-metrics.json").write_text(
            '{"format": "metrics", "version": 1, "metrics": {"a": [1]}}'
        )
        (tmp_path / "valueless-metrics.json").write_text(
            '{"format": "metrics", "version": 1, "metrics": '
            '{"repro_opinions_total": {"type": "counter"}}}'
        )
        (tmp_path / "latin1.txt").write_bytes(
            b"Kittens are cute.\n\xe9t\xe9 kittens are cute.\n"
        )
        return tmp_path

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["query", "kb.json", "cute", "animal"],
                "not an opinions",
                id="query-kb",
            ),
            pytest.param(
                ["diff", "opinions.json", "kb.json"],
                "not an opinions",
                id="diff-kb",
            ),
            pytest.param(
                ["calibrate", "kb.json", "cute", "animal", "population"],
                "not an opinions",
                id="calibrate-kb",
            ),
            pytest.param(
                ["serve", "kb.json", "--port", "0"],
                "not an opinions",
                id="serve-kb",
            ),
            pytest.param(
                ["query", "latin1.json", "cute", "animal"],
                "undecodable",
                id="query-non-utf8",
            ),
            pytest.param(
                ["stats", "trace.jsonl", "--convergence", "opinions.json"],
                "not an EM convergence",
                id="stats-convergence-wrong-kind",
            ),
            pytest.param(
                [
                    "stats", "trace.jsonl",
                    "--convergence", "no-combinations.json",
                ],
                "malformed em_convergence",
                id="stats-convergence-no-combinations",
            ),
            pytest.param(
                ["stats", "trace.jsonl", "--metrics", "list-metrics.json"],
                "malformed metrics",
                id="stats-metrics-not-objects",
            ),
            pytest.param(
                [
                    "stats", "trace.jsonl",
                    "--metrics", "valueless-metrics.json",
                ],
                "counter 'repro_opinions_total' lacks",
                id="stats-metrics-counter-without-value",
            ),
            pytest.param(
                ["mine", "latin1.txt"],
                "undecodable corpus",
                id="mine-non-utf8-corpus",
            ),
            pytest.param(
                ["stats", "list-span.jsonl"],
                "list-span.jsonl:2:",
                id="stats-trace-list-span",
            ),
            pytest.param(
                ["stats", "latin1.json"],
                "unreadable trace",
                id="stats-trace-non-utf8",
            ),
        ],
    )
    def test_bad_artefact_exits_2(self, files, capsys, argv, message):
        argv = [argv[0]] + [
            str(files / arg) if (files / arg).exists() else arg
            for arg in argv[1:]
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert err.count("\n") == 1
        assert message in err
        assert "Traceback" not in err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_help_matches_golden(self, monkeypatch, capsys):
        """`repro --help` and every `repro <cmd> --help` at 80 columns
        are pinned byte for byte by tests/data/cli_help.golden."""
        monkeypatch.setenv("COLUMNS", "80")
        rendered = []
        for argv in [[]] + [[command] for command in HELP_COMMANDS]:
            with pytest.raises(SystemExit) as exit_:
                main([*argv, "--help"])
            assert exit_.value.code == 0
            rendered.append(
                f"$ repro {' '.join([*argv, '--help'])}\n"
                + capsys.readouterr().out
            )
        assert "".join(rendered) == HELP_GOLDEN.read_text()


HELP_GOLDEN = Path(__file__).parent / "data" / "cli_help.golden"
HELP_COMMANDS = (
    "demo", "mine", "ingest", "query", "ask", "explain", "diff", "serve",
    "top", "eval", "reproduce", "stats", "calibrate",
)


class TestServeFlagValues:
    """A bad `repro serve` flag value is a usage error naming the flag,
    exit 2, raised while parsing: no traceback, no banner, nothing
    loaded, bound or forked, in either run mode."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--max-inflight", "0"),
            ("--cache-size", "0"),
            ("--trace-sample", "0"),
            ("--request-deadline-ms", "0"),
            ("--queue-depth", "-1"),
            ("--client-rate", "-1"),
            ("--drift-guard-fraction", "2"),
            ("--access-log-max-bytes", "0"),
        ],
    )
    def test_bad_value_exits_2_before_serving(
        self, monkeypatch, capsys, flag, value, workers
    ):
        import repro.serve.launch

        def launched(*args, **kwargs):
            raise AssertionError("serve started on a bad flag value")

        monkeypatch.setattr(repro.serve.launch, "run", launched)
        monkeypatch.setattr(os, "fork", launched)
        with pytest.raises(SystemExit) as exit_:
            main(
                [
                    "serve", "missing.json", "--port", "0",
                    "--workers", workers, flag, value,
                ]
            )
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be" in err
        assert "Traceback" not in err
        assert "serving" not in err

    @pytest.mark.parametrize("workers", ["1"])
    def test_unusable_ingest_journal_exits_2_before_forking(
        self, tmp_path, monkeypatch, capsys, workers
    ):
        """An `--ingest-journal` path that is a regular file is opened
        before the server starts: one error line, exit 2, no banner."""
        from repro.core import OpinionTable

        def forked():
            raise AssertionError("a worker forked before the journal")

        monkeypatch.setattr(os, "fork", forked)
        table = save(OpinionTable(), tmp_path / "op.json")
        journal = tmp_path / "journal"
        journal.write_text("not a directory\n")
        rc = main(
            [
                "serve", str(table), "--port", "0", "--workers", workers,
                "--ingest-journal", str(journal),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert err.count("\n") == 1
        assert "File exists" in err

    def test_ingest_journal_with_workers_2_exits_2_before_opening_it(
        self, tmp_path, monkeypatch, capsys
    ):
        """A journal takes one writer: `--ingest-journal` with
        `--workers 2` is refused before the journal is opened or a
        worker forks: one error line, exit 2, no banner, nothing
        written under the journal directory."""
        from repro.core import OpinionTable

        def forked():
            raise AssertionError("a worker forked")

        monkeypatch.setattr(os, "fork", forked)
        table = save(OpinionTable(), tmp_path / "op.json")
        journal = tmp_path / "journal"
        journal.mkdir()
        rc = main(
            [
                "serve", str(table), "--port", "0", "--workers", "2",
                "--ingest-journal", str(journal),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: --ingest-journal needs")
        assert err.count("\n") == 1
        assert "serving" not in err
        assert list(journal.iterdir()) == []

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_unopenable_access_log_exits_2_before_forking(
        self, tmp_path, monkeypatch, capsys, workers
    ):
        """Every process's `--access-log` file is opened before any
        worker forks: one error line, exit 2, no banner."""
        from repro.core import OpinionTable

        def forked():
            raise AssertionError("a worker forked before its log")

        monkeypatch.setattr(os, "fork", forked)
        table = save(OpinionTable(), tmp_path / "op.json")
        rc = main(
            [
                "serve", str(table), "--port", "0", "--workers", workers,
                "--access-log", str(tmp_path / "missing" / "a.log"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert err.count("\n") == 1
        assert "No such file or directory" in err


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
