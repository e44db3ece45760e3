import csv
import json
import logging
import os
import re
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest
import yaml

import seedrank
from seedrank import cli
from seedrank.cli import RunConfig, _load_resources, load_config, main, validate_config
from seedrank.errors import ConfigError
from synth import (
    mixed_case,
    mixed_case_embedding_terms,
    synth_collection,
    write_collection_files,
    write_embeddings_file,
    write_lexicon_file,
)


@pytest.fixture
def collection(tmp_path):
    topics, corpus = synth_collection(
        seed=99, n_topics=3, n_docs=24, vocab_size=120, n_relevant=4, irrelevant_overlap=0.3
    )
    corpus_path, topics_path, qrels_path = write_collection_files(tmp_path, topics, corpus)
    return {
        "corpus": str(corpus_path),
        "topics": str(topics_path),
        "qrels": str(qrels_path),
    }


def write_config(tmp_path, **keys):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(keys), encoding="utf-8")
    return str(path)


def read_metrics(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestConfigLoading:
    def test_defaults(self):
        config = load_config(None, {})
        assert config.method == "sdr" and config.jm_lambda == 0.7

    def test_file_values(self, tmp_path):
        path = write_config(tmp_path, method="qlm", rng_seed=7)
        config = load_config(path, {})
        assert config.method == "qlm" and config.rng_seed == 7

    def test_env_overrides_file(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, method="qlm")
        monkeypatch.setenv("SEEDRANK_METHOD", "bm25")
        assert load_config(path, {}).method == "bm25"

    def test_flags_override_env(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, method="qlm")
        monkeypatch.setenv("SEEDRANK_METHOD", "bm25")
        assert load_config(path, {"method": "aes"}).method == "aes"

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, no_such_key=1)
        with pytest.raises(ConfigError):
            load_config(path, {})

    def test_bool_coercion(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEEDRANK_INCLUDE_TITLE", "false")
        assert load_config(None, {}).include_title is False

    @pytest.mark.parametrize("content, line, detail", [
        (b"method: [sdr\n", 2, "invalid YAML: expected ',' or ']', but got '<stream end>' (while parsing a flow sequence from line 1)"),
        (b"method: sdr\nrng_seed: 1\n  jm_lambda: 0.5\n", 3, "invalid YAML: mapping values are not allowed here"),
        (b"method: sdr\nvariant: a\x07b\n", 2, "invalid YAML: special characters are not allowed '\\x07'"),
        (b"method: sdr\n# caf\xe9\n", 2, "byte 0xe9 is not valid UTF-8"),
        (b"method: sdr\nrng_seed: 1\nmethod: bm25\n", 3, "key 'method' repeats (first at line 1)"),
        (b"{method: sdr, method: bm25}\n", 1, "key 'method' repeats (first at line 1)"),
    ])
    def test_unreadable_file_names_its_line(self, tmp_path, content, line, detail):
        path = tmp_path / "config.yaml"
        path.write_bytes(content)
        with pytest.raises(ConfigError) as err:
            load_config(str(path), {})
        assert err.value.field == "config" and str(err.value) == f"config: {path}:{line}: {detail}"

    def test_merged_keys_may_be_overridden(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("<<: {method: sdr, rng_seed: 3}\nmethod: bm25\n", encoding="utf-8")
        config = load_config(str(path), {})
        assert config.method == "bm25" and config.rng_seed == 3

    def test_bad_number(self, tmp_path):
        path = write_config(tmp_path, jm_lambda="not-a-number")
        with pytest.raises(ConfigError) as err:
            load_config(path, {})
        assert err.value.field == "jm_lambda"

    @pytest.mark.parametrize("text, field", [
        ("undersample_cap: 2.7", "undersample_cap"),
        ("rng_seed: 1.9", "rng_seed"),
        ("rng_seed: .inf", "rng_seed"),
        ("workers: true", "workers"),
        ("aes_alpha: yes", "aes_alpha"),
        ("jm_lambda: false", "jm_lambda"),
    ])
    def test_wrong_type_is_not_coerced(self, tmp_path, text, field):
        path = tmp_path / "config.yaml"
        path.write_text(text + "\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(str(path), {})
        assert err.value.field == field and str(err.value).endswith(f"(from config file {path})")

    def test_whole_numbers_and_integer_strings_load(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, rng_seed=3.0, aes_alpha=1, undersample_cap=20)
        monkeypatch.setenv("SEEDRANK_WORKERS", "2")
        config = load_config(path, {"repetitions": "4"})
        assert (config.rng_seed, config.aes_alpha, config.undersample_cap) == (3, 1.0, 20)
        assert (config.workers, config.repetitions) == (2, 4)
        assert type(config.rng_seed) is int and type(config.aes_alpha) is float


class TestValidation:
    def test_missing_embeddings_for_interpolation(self, collection):
        config = RunConfig(**collection, method="sdr+aes")
        with pytest.raises(ConfigError) as err:
            validate_config(config)
        assert err.value.field == "embeddings"

    def test_missing_lexicon_for_boc(self, collection):
        config = RunConfig(**collection, representation="boc")
        with pytest.raises(ConfigError) as err:
            validate_config(config)
        assert err.value.field == "lexicon"

    def test_bad_lambda(self, collection):
        config = RunConfig(**collection, jm_lambda=1.5)
        with pytest.raises(ConfigError) as err:
            validate_config(config)
        assert err.value.field == "jm_lambda"

    def test_missing_corpus_file(self, collection, tmp_path):
        config = RunConfig(**{**collection, "corpus": str(tmp_path / "absent.jsonl")})
        with pytest.raises(ConfigError) as err:
            validate_config(config)
        assert err.value.field == "corpus"

    def test_stopwords_file_uses_the_lexicon_parser(self, tmp_path, collection, capsys):
        stopwords = tmp_path / "stopwords.txt"
        stopwords.write_text("The\n\nOF\n", encoding="utf-8")
        config = RunConfig(**collection, stopwords=str(stopwords))
        assert _load_resources(config, 2).pipeline.stopwords == frozenset({"the", "of"})

        # A line of two tokens could never match a token; it fails at its line.
        stopwords.write_text("the\nof and\n", encoding="utf-8")
        argv = [
            "-q", "rank", "--corpus", collection["corpus"], "--topics", collection["topics"],
            "--qrels", collection["qrels"], "--stopwords", str(stopwords), "--output-dir", str(tmp_path / "out"),
        ]
        assert main(argv) == 1
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["error"] == "ParseError" and summary["detail"].startswith(f"{stopwords}:2:")

    @pytest.mark.parametrize("content, line", [
        (b"method: [sdr\n", 2), (b"method: sdr\n# caf\xe9\n", 2), (b"method: sdr\nmethod: bm25\n", 2),
    ])
    def test_unreadable_config_exit_code_and_summary(self, tmp_path, capsys, content, line):
        path = tmp_path / "config.yaml"
        path.write_bytes(content)
        assert main(["-q", "rank", "--config", str(path)]) == 2
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["error"] == "ConfigError" and summary["field"] == "config"
        assert summary["detail"].startswith(f"config: {path}:{line}: ")

    def test_undecodable_corpus_exit_code_and_summary(self, tmp_path, collection, capsys):
        corpus = Path(collection["corpus"])
        lines = corpus.read_bytes().splitlines(keepends=True)
        corpus.write_bytes(b"".join(lines[:4]) + lines[4].replace(b'"title": "', b'"title": "caf\xe9 ', 1) + b"".join(lines[5:]))
        argv = [
            "-q", "rank", "--corpus", str(corpus), "--topics", collection["topics"],
            "--qrels", collection["qrels"], "--output-dir", str(tmp_path / "out"),
        ]
        assert main(argv) == 1
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary == {"error": "ParseError", "detail": f"{corpus}:5: byte 0xe9 is not valid UTF-8"}

    def test_config_error_exit_code_and_summary(self, tmp_path, capsys):
        code = main(["rank", "--config", write_config(tmp_path, method="nope")])
        assert code == 2
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["error"] == "ConfigError" and summary["field"] == "method"

    @pytest.mark.parametrize("keys, field", [
        ({"undersample_cap": 2.7}, "undersample_cap"), ({"workers": True}, "workers"), ({"aes_alpha": True}, "aes_alpha"),
    ])
    def test_wrong_type_exit_code_and_summary(self, tmp_path, collection, capsys, keys, field):
        path = write_config(tmp_path, **collection, **keys)
        assert main(["-q", "rank", "--config", path, "--output-dir", str(tmp_path / "out")]) == 2
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["error"] == "ConfigError" and summary["field"] == field
        assert not (tmp_path / "out").exists()


def run_rank(tmp_path, collection, out_name, extra=()):
    out_dir = tmp_path / out_name
    argv = [
        "-q", "rank",
        "--corpus", collection["corpus"],
        "--topics", collection["topics"],
        "--qrels", collection["qrels"],
        "--method", "sdr",
        "--representation", "bow",
        "--output-dir", str(out_dir),
        *extra,
    ]
    assert main(argv) == 0
    return out_dir


class TestCmdRank:
    def test_outputs_exist_and_parse(self, tmp_path, collection):
        out = run_rank(tmp_path, collection, "out")
        run_files = sorted((out / "runs" / "sdr-bow").glob("*.run"))
        assert len(run_files) == 3
        rows = read_metrics(out / "metrics.csv")
        assert {r["metric"] for r in rows} >= {"map", "p@10", "ndcg@1000", "wss"}
        all_means = [r for r in rows if r["topic_id"] == "ALL"]
        assert all_means and all(0.0 <= float(r["value"]) <= 1.0 for r in all_means)

    def test_byte_identical_across_runs_and_workers(self, tmp_path, collection):
        out1 = run_rank(tmp_path, collection, "o1")
        out2 = run_rank(tmp_path, collection, "o2")
        out3 = run_rank(tmp_path, collection, "o3", extra=("--workers", "4"))
        for name in ["metrics.csv"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
            assert (out1 / name).read_bytes() == (out3 / name).read_bytes()
        for f1 in sorted((out1 / "runs" / "sdr-bow").glob("*.run")):
            data = f1.read_bytes()
            assert data == (out2 / "runs" / "sdr-bow" / f1.name).read_bytes()
            assert data == (out3 / "runs" / "sdr-bow" / f1.name).read_bytes()

    def test_boc_and_interpolation_paths(self, tmp_path, collection):
        lexicon = write_lexicon_file(tmp_path, [f"term{i:04d}" for i in range(0, 60)])
        embeddings = write_embeddings_file(tmp_path, [f"term{i:04d}" for i in range(120)])
        out_dir = tmp_path / "boc"
        argv = [
            "-q", "rank",
            "--corpus", collection["corpus"],
            "--topics", collection["topics"],
            "--qrels", collection["qrels"],
            "--method", "sdr+aes",
            "--representation", "boc",
            "--lexicon", str(lexicon),
            "--embeddings", str(embeddings),
            "--output-dir", str(out_dir),
        ]
        assert main(argv) == 0
        assert (out_dir / "runs" / "sdr+aes-boc").is_dir()


class TestEmbeddingKeepRule:
    """The CLI loads only the embedding rows its tokenizer can look up; the outputs do not change."""

    @pytest.fixture
    def inputs(self, tmp_path):
        topics, corpus = synth_collection(seed=5, n_topics=2, n_docs=24, vocab_size=120, n_relevant=4, irrelevant_overlap=0.3)
        corpus_path, topics_path, qrels_path = write_collection_files(tmp_path, topics, mixed_case(corpus))
        lexicon = write_lexicon_file(tmp_path, [f"term{i:04d}" for i in range(60)] + ["the", "study"])
        embeddings = write_embeddings_file(tmp_path, mixed_case_embedding_terms(120))
        return [
            "--corpus", str(corpus_path), "--topics", str(topics_path), "--qrels", str(qrels_path),
            "--lexicon", str(lexicon), "--embeddings", str(embeddings),
        ]

    @staticmethod
    def outputs(out_dir):
        return {str(p.relative_to(out_dir)): p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()}

    @pytest.mark.parametrize("method, representation", [("sdr+aes", "boc"), ("aes", "boc"), ("sdr+aes", "bow")])
    def test_outputs_identical_to_a_full_table(self, tmp_path, inputs, monkeypatch, method, representation):
        def run(name):
            out_dir = tmp_path / name
            for command in ("rank", "multi"):
                argv = ["-q", command, *inputs, "--method", method, "--representation", representation]
                assert main(argv + ["--output-dir", str(out_dir / command)]) == 0
            return self.outputs(out_dir)

        kept = run("kept")
        monkeypatch.setattr(cli, "load_embeddings", lambda path, keep: seedrank.load_embeddings(path))
        full = run("full")
        assert kept.keys() == full.keys() and len(kept) == 9
        assert all(kept[name] == full[name] for name in kept)

    @pytest.mark.parametrize("representation, rule", [
        ("boc", "not a stopword and is in the lexicon"), ("bow", "not a stopword"),
    ])
    def test_kept_rows_are_logged_once(self, inputs, caplog, representation, rule):
        flags = dict(zip(inputs[::2], inputs[1::2]))
        config = RunConfig(**{k[2:]: v for k, v in flags.items()}, method="sdr+aes", representation=representation)
        with caplog.at_level("INFO", logger="seedrank"):
            res = _load_resources(config, 2)
        kept = [r.getMessage() for r in caplog.records if "embedding rows" in r.getMessage()]
        read = len(mixed_case_embedding_terms(120))
        assert kept == [f"kept {len(res.embeddings.matrix)} of {read} embedding rows: those whose token's lowercase is {rule}"]
        assert 0 < len(res.embeddings.matrix) < read


class TestCmdMulti:
    def test_multi_and_oracle_outputs(self, tmp_path, collection):
        out_dir = tmp_path / "multi"
        argv = [
            "-q", "multi",
            "--corpus", collection["corpus"],
            "--topics", collection["topics"],
            "--qrels", collection["qrels"],
            "--method", "sdr",
            "--representation", "bow",
            "--output-dir", str(out_dir),
        ]
        assert main(argv) == 0
        assert sorted((out_dir / "runs" / "sdr-bow-multi").glob("*.run"))
        assert sorted((out_dir / "runs" / "sdr-bow-oracle").glob("*.run"))
        with open(out_dir / "oracle_comparison.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        summary = [r for r in rows if r["topic_id"] == "ALL" and r["metric"] == "map"]
        assert len(summary) == 1
        # multi and oracle runs rank identical doc sets, so both sides evaluate
        windows = [r for r in rows if r["topic_id"] != "ALL"]
        assert all(r["single"] and r["multi"] for r in windows)


    def test_whole_pool_window_fails_before_any_run(self, tmp_path, collection, capsys):
        out_dir = tmp_path / "multi"
        argv = [
            "-q", "multi",
            "--corpus", collection["corpus"],
            "--topics", collection["topics"],
            "--qrels", collection["qrels"],
            "--fraction", "1.0",
            "--output-dir", str(out_dir),
        ]
        assert main(argv) == 1
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["error"] == "InsufficientSeedsError" and "'T000'" in summary["detail"]
        assert not list(tmp_path.rglob("*.run"))


class TestTopicFailures:
    """A topic that fails costs only its own outputs."""

    def argv(self, command, files, out_dir):
        return [
            "-q", command,
            "--corpus", files["corpus"], "--topics", files["topics"], "--qrels", files["qrels"],
            "--method", "sdr", "--output-dir", str(out_dir),
        ]

    @pytest.mark.parametrize("command", ["rank", "multi", "analyze"])
    def test_ghost_document_fails_only_its_topic(self, tmp_path, collection, capsys, command):
        # The last of three topics judges a document the corpus lacks.
        ghost_qrels = tmp_path / "qrels_ghost.txt"
        qrels = Path(collection["qrels"]).read_text(encoding="utf-8")
        ghost_qrels.write_text(qrels + "T002 0 ghost 0\n", encoding="utf-8")
        out_dir = tmp_path / "ghost"
        assert main(self.argv(command, {**collection, "qrels": str(ghost_qrels)}, out_dir)) == 1
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert [t["topic_id"] for t in summary["topics"]] == ["T002"]
        assert summary["topics"][0]["error"] == "ContractError" and "ghost" in summary["topics"][0]["detail"]
        clean_dir = tmp_path / "clean"
        assert main(self.argv(command, collection, clean_dir)) == 0

        if command == "analyze":
            # The finished topics' rows are the clean run's rows for them.
            for name in ("intra_similarity.csv", "term_commonality.csv"):
                rows = read_metrics(out_dir / "analysis" / name)
                assert {r["topic_id"] for r in rows} == {"T000", "T001"}
                assert rows == [r for r in read_metrics(clean_dir / "analysis" / name) if r["topic_id"] != "T002"]
            return
        assert {r["topic_id"] for r in read_metrics(out_dir / "metrics.csv")} == {"T000", "T001", "ALL"}
        if command == "multi":
            rows = read_metrics(out_dir / "oracle_comparison.csv")
            assert {r["topic_id"] for r in rows} == {"T000", "T001", "ALL"}
        run_files = sorted(p.relative_to(out_dir) for p in out_dir.rglob("*.run"))
        assert {p.name for p in run_files} == {"T000.run", "T001.run"}
        for rel in run_files:
            assert (out_dir / rel).read_bytes() == (clean_dir / rel).read_bytes()


class TestTopicOrder:
    """Outputs do not depend on the order of the topics in the topics file."""

    def test_reversed_topic_blocks_give_identical_csvs(self, tmp_path, collection):
        blocks: dict[str, list[str]] = {}
        for line in Path(collection["topics"]).read_text(encoding="utf-8").splitlines(keepends=True):
            blocks.setdefault(line.split()[0], []).append(line)
        reversed_topics = tmp_path / "topics_reversed.txt"
        reversed_topics.write_text("".join("".join(b) for b in reversed(blocks.values())), encoding="utf-8")
        assert len(blocks) == 3

        for command, names in (("rank", ["metrics.csv"]), ("multi", ["metrics.csv", "oracle_comparison.csv"])):
            outputs = []
            for label, topics in (("file", collection["topics"]), ("reversed", str(reversed_topics))):
                out_dir = tmp_path / f"{command}-{label}"
                argv = [
                    "-q", command, "--corpus", collection["corpus"], "--topics", topics,
                    "--qrels", collection["qrels"], "--method", "sdr", "--output-dir", str(out_dir),
                ]
                assert main(argv) == 0
                outputs.append([(out_dir / name).read_bytes() for name in names])
            assert outputs[0] == outputs[1], command


class TestCmdEval:
    def test_map_of_example_run(self, tmp_path, capsys):
        run = tmp_path / "r.run"
        run.write_text(
            "T1 Q0 d1 1 3.0 x\nT1 Q0 d2 2 2.0 x\nT1 Q0 d3 3 1.0 x\n", encoding="utf-8"
        )
        qrels = tmp_path / "q.txt"
        qrels.write_text("T1 0 d1 1\nT1 0 d2 0\nT1 0 d3 1\n", encoding="utf-8")
        assert main(["-q", "eval", "--run", str(run), "--qrels", str(qrels)]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        by_key = {(r["topic_id"], r["metric"]): float(r["value"]) for r in rows}
        assert by_key[("T1", "map")] == pytest.approx(0.8333333, abs=1e-6)

    def test_disjoint_topics_fail(self, tmp_path, capsys):
        run = tmp_path / "r.run"
        run.write_text("T1 Q0 d1 1 1.0 x\n", encoding="utf-8")
        qrels = tmp_path / "q.txt"
        qrels.write_text("T2 0 d1 1\n", encoding="utf-8")
        assert main(["-q", "eval", "--run", str(run), "--qrels", str(qrels)]) == 2

    def test_topic_without_relevant_judgment_is_skipped(self, tmp_path, capsys, caplog):
        run = tmp_path / "r.run"
        run.write_text("T1 Q0 d1 1 2.0 x\nT1 Q0 d2 2 1.0 x\nT2 Q0 d1 1 1.0 x\nT3 Q0 d1 1 1.0 x\n", encoding="utf-8")
        qrels = tmp_path / "q.txt"
        qrels.write_text("T1 0 d2 1\nT2 0 d1 0\nT3 0 d1 0\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="seedrank"):
            assert main(["-q", "eval", "--run", str(run), "--qrels", str(qrels)]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert {r["topic_id"] for r in rows} == {"T1", "ALL"}
        assert {(r["metric"], r["value"]) for r in rows if r["topic_id"] == "T1" and r["metric"] == "map"} == {("map", "0.5")}
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and "T2" in warnings[0] and "T3" in warnings[0]

    def test_no_topic_with_relevant_judgment_fails(self, tmp_path, capsys):
        run = tmp_path / "r.run"
        run.write_text("T2 Q0 d1 1 1.0 x\n", encoding="utf-8")
        qrels = tmp_path / "q.txt"
        qrels.write_text("T2 0 d1 0\n", encoding="utf-8")
        assert main(["-q", "eval", "--run", str(run), "--qrels", str(qrels)]) == 2
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["error"] == "ConfigError" and summary["field"] == "qrels"

    @pytest.mark.parametrize("k", ["0", "-3", "ten"])
    def test_cutoff_below_one_rejected_when_parsed(self, tmp_path, capsys, k):
        # The files do not exist: the arguments are refused before anything is loaded.
        missing = str(tmp_path / "missing")
        with pytest.raises(SystemExit) as exit_info:
            main(["-q", "eval", "--run", missing, "--qrels", missing, "--k", "10", k])
        assert exit_info.value.code == 2
        assert "--k" in capsys.readouterr().err


class TestCmdAnalyze:
    def test_analysis_csvs(self, tmp_path, collection):
        out_dir = tmp_path / "analysis_out"
        argv = [
            "-q", "analyze",
            "--corpus", collection["corpus"],
            "--topics", collection["topics"],
            "--qrels", collection["qrels"],
            "--output-dir", str(out_dir),
        ]
        assert main(argv) == 0
        sim_rows = read_metrics(out_dir / "analysis" / "intra_similarity.csv")
        assert len(sim_rows) == 3
        assert all(float(r["rel_mean"]) > float(r["irrel_mean"]) for r in sim_rows)
        common_rows = read_metrics(out_dir / "analysis" / "term_commonality.csv")
        assert common_rows and all(int(r["docs_containing"]) >= 1 for r in common_rows)

    def test_embedding_table_is_not_loaded(self, tmp_path, collection, monkeypatch):
        # The analyses read term counts only, whatever ranking method the config names.
        def refuse(path):
            raise AssertionError(f"analyze loaded {path}")

        monkeypatch.setattr(cli, "load_embeddings", refuse)
        embeddings = write_embeddings_file(tmp_path, [f"term{i:04d}" for i in range(120)])
        argv = [
            "-q", "analyze", "--corpus", collection["corpus"], "--topics", collection["topics"],
            "--qrels", collection["qrels"], "--method", "sdr+aes", "--embeddings", str(embeddings),
            "--output-dir", str(tmp_path / "out"),
        ]
        assert main(argv) == 0


class TestCmdCompare:
    def test_significance_csv(self, tmp_path, collection, capsys):
        out_a = run_rank(tmp_path, collection, "cmp_a")
        out_dir = tmp_path / "cmp_b"
        argv = [
            "-q", "rank",
            "--corpus", collection["corpus"],
            "--topics", collection["topics"],
            "--qrels", collection["qrels"],
            "--method", "bm25",
            "--output-dir", str(out_dir),
        ]
        assert main(argv) == 0
        sig = tmp_path / "sig.csv"
        code = main([
            "-q", "compare",
            "--metrics-a", str(out_a / "metrics.csv"),
            "--metrics-b", str(out_dir / "metrics.csv"),
            "--name-a", "sdr", "--name-b", "bm25",
            "--output", str(sig),
        ])
        assert code == 0
        rows = read_metrics(sig)
        assert {r["metric"] for r in rows} >= {"map", "wss"}
        for row in rows:
            assert row["method_a"] == "sdr" and row["method_b"] == "bm25"
            assert row["significant"] in ("true", "false")


@pytest.mark.slow
class TestSubprocessDeterminism:
    def test_bytes_stable_across_hash_seeds(self, tmp_path, collection):
        lexicon = write_lexicon_file(tmp_path, [f"term{i:04d}" for i in range(0, 60)])
        embeddings = write_embeddings_file(tmp_path, [f"term{i:04d}" for i in range(120)])
        inputs = {
            "bm25-bow": ["--method", "bm25"],
            "sdr+aes-boc": [
                "--method", "sdr+aes", "--representation", "boc",
                "--lexicon", str(lexicon), "--embeddings", str(embeddings),
            ],
        }
        for run_name, flags in inputs.items():
            outputs = []
            for hash_seed in ("1", "2"):
                out_dir = tmp_path / f"{run_name}-hs{hash_seed}"
                env = dict(os.environ, PYTHONHASHSEED=hash_seed)
                cmd = [
                    sys.executable, "-m", "seedrank.cli", "-q", "rank",
                    "--corpus", collection["corpus"],
                    "--topics", collection["topics"],
                    "--qrels", collection["qrels"],
                    *flags,
                    "--output-dir", str(out_dir),
                ]
                result = subprocess.run(cmd, env=env, capture_output=True, text=True)
                assert result.returncode == 0, result.stderr
                content = (out_dir / "metrics.csv").read_bytes()
                run_files = sorted((out_dir / "runs" / run_name).glob("*.run"))
                assert run_files, run_name
                for run_file in run_files:
                    content += run_file.read_bytes()
                outputs.append(content)
            assert outputs[0] == outputs[1], run_name


@pytest.mark.slow
class TestMultiDeterminism:
    def test_bytes_stable_across_workers_and_hash_seeds(self, tmp_path, collection):
        # multi: two CSVs plus a multi and an oracle run file per topic; analyze: two CSVs.
        for command, n_files in (("multi", 2 + 2 * 3), ("analyze", 2)):
            outputs = []
            for hash_seed, workers in (("1", "1"), ("2", "1"), ("1", "3")):
                out_dir = tmp_path / f"{command}-hs{hash_seed}-w{workers}"
                cmd = [
                    sys.executable, "-m", "seedrank.cli", "-q", command,
                    "--corpus", collection["corpus"],
                    "--topics", collection["topics"],
                    "--qrels", collection["qrels"],
                    "--method", "sdr",
                    "--workers", workers,
                    "--output-dir", str(out_dir),
                ]
                env = dict(os.environ, PYTHONHASHSEED=hash_seed)
                result = subprocess.run(cmd, env=env, capture_output=True, text=True)
                assert result.returncode == 0, result.stderr
                files = sorted(f for f in out_dir.rglob("*") if f.is_file())
                assert len(files) == n_files
                outputs.append([(str(f.relative_to(out_dir)), f.read_bytes()) for f in files])
            assert outputs[0] == outputs[1], f"{command} outputs differ between hash seeds"
            assert outputs[0] == outputs[2], f"{command} outputs differ between worker counts"


class TestTopicDriver:
    """Topics run one at a time on the calling thread; workers is validated but has no effect."""

    def test_one_topic_index_alive_at_a_time(self, tmp_path, collection, monkeypatch):
        built = []

        def build_index(*args, **kwargs):
            assert all(ref() is None for ref in built), "an earlier topic's index is still alive"
            index = real_build_index(*args, **kwargs)
            built.append(weakref.ref(index))
            return index

        real_build_index = cli.build_index
        monkeypatch.setattr(cli, "build_index", build_index)
        run_rank(tmp_path, collection, "out")
        assert len(built) == 3

    def test_multi_starts_no_thread(self, tmp_path, collection, monkeypatch, caplog):
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        outputs = {}
        for workers in ("1", "3"):
            out_dir = tmp_path / f"w{workers}"
            argv = [
                "multi", "--corpus", collection["corpus"], "--topics", collection["topics"],
                "--qrels", collection["qrels"], "--method", "sdr", "--workers", workers,
                "--output-dir", str(out_dir),
            ]
            with caplog.at_level(logging.INFO, logger="seedrank"):
                assert main(argv) == 0
            outputs[workers] = {
                str(f.relative_to(out_dir)): f.read_bytes() for f in sorted(out_dir.rglob("*")) if f.is_file()
            }
        assert len(outputs["1"]) == 2 + 2 * 3 and outputs["3"] == outputs["1"]
        assert caplog.messages.count("workers=3 has no effect: topics run one at a time") == 1
        assert not any(m.startswith("workers=1 ") for m in caplog.messages)

    def test_commands_make_no_run_entry(self, tmp_path, collection, monkeypatch):
        made = []
        real_init = seedrank.RunEntry.__init__

        def counting_init(self, *args, **kwargs):
            made.append(args)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(seedrank.RunEntry, "__init__", counting_init)
        for command in ("rank", "multi"):
            out_dir = tmp_path / command
            argv = [
                "-q", command, "--corpus", collection["corpus"], "--topics", collection["topics"],
                "--qrels", collection["qrels"], "--method", "sdr", "--output-dir", str(out_dir),
            ]
            assert main(argv) == 0
            assert len(list(out_dir.rglob("*.run"))) == 3 * (1 if command == "rank" else 2)
        assert made == []
        seedrank.RunEntry("T", "d", 1, 1.0, "x")
        assert len(made) == 1  # the count does see a RunEntry being made

    def test_zero_workers_is_refused(self, tmp_path, collection, capsys):
        # A bool is refused by test_wrong_type_exit_code_and_summary.
        path = write_config(tmp_path, **collection, workers=0)
        assert main(["-q", "multi", "--config", path, "--output-dir", str(tmp_path / "out")]) == 2
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["error"] == "ConfigError" and summary["field"] == "workers"
        assert not (tmp_path / "out").exists()


class TestDependencies:
    @staticmethod
    def after_cli_import(expression):
        """What a fresh interpreter prints for ``expression`` once it has imported seedrank.cli."""
        src = str(Path(seedrank.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", f"import sys, seedrank.cli; print({expression})"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
        )
        return result.stdout.strip()

    def test_cli_import_leaves_out_requests(self):
        assert self.after_cli_import("'requests' in sys.modules") == "False"

    def test_cli_import_leaves_out_yaml(self):
        # Only a --config file needs PyYAML; load_config imports it then.
        assert self.after_cli_import("'yaml' in sys.modules") == "False"

    def test_cli_import_leaves_out_concurrent_futures(self):
        # Topics run on the calling thread; no executor is imported.
        assert self.after_cli_import("'concurrent.futures' in sys.modules") == "False"

    def test_cli_import_leaves_out_scipy_stats(self):
        assert self.after_cli_import("sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')") == "[]"

    def test_runtime_dependencies(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
        names = {re.split(r"[<>=!~ \[;]", dep, maxsplit=1)[0].lower() for dep in project["dependencies"]}
        assert names == {"numpy", "scipy", "pyyaml"}
