import csv
import dataclasses
import json
import logging
import os
import re
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml

import seedrank
from seedrank import cli
from seedrank.cli import RunConfig, _load_resources, load_config, main, validate_config
from seedrank.errors import ConfigError
from seedrank.scoring import METHODS
from seedrank.vectors import REPRESENTATIONS
from synth import (
    mixed_case,
    mixed_case_embedding_terms,
    synth_collection,
    synth_topic,
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

    def test_byte_order_mark_is_accepted(self, tmp_path):
        # Unlike the data files, a YAML config may start with U+FEFF: PyYAML skips it.
        path = Path(write_config(tmp_path, method="qlm"))
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_config(str(path), {}).method == "qlm"

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
        ("include_title: ~", "include_title"),
        ("jm_lambda: ~", "jm_lambda"),
        ("min_relevant: null", "min_relevant"),
        ("output_dir: ~", "output_dir"),
        ("output_dir: yes", "output_dir"),
        ("method: [sdr]", "method"),
        ("variant: {ours: 1}", "variant"),
        ("corpus: 2024-01-01", "corpus"),
    ])
    def test_wrong_type_is_not_coerced(self, tmp_path, text, field):
        path = tmp_path / "config.yaml"
        path.write_text(text + "\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(str(path), {})
        assert err.value.field == field and str(err.value).endswith(f"(from config file {path})")

    def test_null_path_means_not_set_and_numbers_name_paths(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("lexicon: ~\noutput_dir: 2024\n", encoding="utf-8")
        config = load_config(str(path), {})
        assert config.lexicon is None and config.output_dir == "2024"

    def test_whole_numbers_and_integer_strings_load(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, rng_seed=3.0, aes_alpha=1, undersample_cap=20)
        monkeypatch.setenv("SEEDRANK_WORKERS", "2")
        config = load_config(path, {"repetitions": "4"})
        assert (config.rng_seed, config.aes_alpha, config.undersample_cap) == (3, 1.0, 20)
        assert (config.workers, config.repetitions) == (2, 4)
        assert type(config.rng_seed) is int and type(config.aes_alpha) is float


    def test_readme_config_names_every_knob_with_its_default(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```yaml\n(.*?)```", readme, re.S).group(1)
        path = tmp_path / "config.yaml"
        path.write_text(block, encoding="utf-8")
        config, defaults = load_config(str(path), {}), RunConfig()
        fields = [f.name for f in dataclasses.fields(RunConfig)]
        assert sorted(yaml.safe_load(block)) == sorted(fields)
        # The paths have no default; every other value is RunConfig's.
        assert {f: getattr(config, f) for f in fields if getattr(defaults, f) is not None} == {
            f: getattr(defaults, f) for f in fields if getattr(defaults, f) is not None
        }


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

    def test_non_finite_bm25_k1_is_refused_before_any_file(self, tmp_path, capsys):
        # The paths do not exist: the scoring knobs are checked before the files are looked for.
        argv = ["-q", "rank", "--method", "bm25", "--bm25-k1", "nan", "--corpus", str(tmp_path / "absent.jsonl"),
                "--output-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary == {"error": "ConfigError", "detail": "bm25_k1: must be in [0, inf), got nan", "field": "bm25_k1"}
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("content", [None, ""])
    def test_lexicon_is_not_read_under_bow(self, tmp_path, collection, caplog, content):
        lexicon = tmp_path / "lexicon.txt"
        if content is not None:
            lexicon.write_text(content, encoding="utf-8")
        argv = [
            "-q", "rank", "--corpus", collection["corpus"], "--topics", collection["topics"],
            "--qrels", collection["qrels"], "--lexicon", str(lexicon), "--output-dir", str(tmp_path / "out"),
        ]
        with caplog.at_level("WARNING", logger="seedrank"):
            assert main(argv) == 0
        assert not [r for r in caplog.records if "lexicon" in r.getMessage()]
        assert _load_resources(RunConfig(**collection, lexicon=str(lexicon)), 2).lexicon is None

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
        ({"include_title": None}, "include_title"),
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
        # Every topic's window covers its pool of 4 seeds: each fails on its own, and the summary names them all.
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["error"] == "TopicFailure"
        assert [t["topic_id"] for t in summary["topics"]] == ["T000", "T001", "T002"]
        for failure in summary["topics"]:
            assert failure["error"] == "InsufficientSeedsError" and "covers the whole pool" in failure["detail"]
        assert not list(tmp_path.rglob("*.run"))

    def test_whole_pool_window_fails_only_its_topic(self, tmp_path, capsys):
        # Under --fraction 0.7 a window covers 3 of 4 seeds, but the whole pool of T900's 3.
        topics, corpus = synth_collection(
            seed=99, n_topics=3, n_docs=24, vocab_size=120, n_relevant=4, irrelevant_overlap=0.3
        )
        short, short_docs = synth_topic(np.random.default_rng(5), "T900", 24, 120, n_relevant=3, irrelevant_overlap=0.3)
        outputs = {}
        for name, kept in (("clean", topics), ("mixed", [topics[0], short, *topics[1:]])):
            base = tmp_path / name
            base.mkdir()
            corpus_path, topics_path, qrels_path = write_collection_files(base, kept, corpus | short_docs)
            argv = [
                "-q", "multi", "--corpus", str(corpus_path), "--topics", str(topics_path), "--qrels", str(qrels_path),
                "--method", "sdr", "--fraction", "0.7", "--output-dir", str(base / "out"),
            ]
            outputs[name] = main(argv), base / "out"
        (mixed_code, mixed), (clean_code, clean) = outputs["mixed"], outputs["clean"]
        assert (mixed_code, clean_code) == (1, 0)
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["error"] == "TopicFailure"
        assert [(t["topic_id"], t["error"]) for t in summary["topics"]] == [("T900", "InsufficientSeedsError")]
        files = sorted(p.relative_to(clean) for p in clean.rglob("*") if p.is_file())
        assert len(files) == 8  # two CSVs, and a multi and an oracle run per topic
        assert sorted(p.relative_to(mixed) for p in mixed.rglob("*") if p.is_file()) == files
        for rel in files:
            assert (mixed / rel).read_bytes() == (clean / rel).read_bytes()

    def test_topic_below_min_relevant_is_dropped_with_an_info_line(self, tmp_path, caplog):
        # multi needs 3 relevant studies per topic; T900 has 2.
        topics, corpus = synth_collection(
            seed=99, n_topics=3, n_docs=24, vocab_size=120, n_relevant=4, irrelevant_overlap=0.3
        )
        short, short_docs = synth_topic(np.random.default_rng(5), "T900", 24, 120, n_relevant=2, irrelevant_overlap=0.3)
        outputs, notes = {}, {}
        for name, kept in (("full", topics), ("with-short", [topics[0], short, *topics[1:]])):
            base = tmp_path / name
            base.mkdir()
            corpus_path, topics_path, qrels_path = write_collection_files(base, kept, corpus | short_docs)
            argv = [
                "multi", "--corpus", str(corpus_path), "--topics", str(topics_path), "--qrels", str(qrels_path),
                "--method", "sdr", "--output-dir", str(base / "out"),
            ]
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="seedrank"):
                assert main(argv) == 0
            outputs[name] = {f: (base / "out" / f).read_bytes() for f in ("metrics.csv", "oracle_comparison.csv")}
            notes[name] = [r.getMessage() for r in caplog.records if "fewer than" in r.getMessage()]
        assert outputs["with-short"] == outputs["full"]
        assert notes["full"] == []
        assert notes["with-short"] == ["skipped topics with fewer than 3 relevant studies: T900"]
        assert not (tmp_path / "with-short" / "out" / "runs" / "sdr-bow-multi" / "T900.run").exists()


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

    def test_corpus_changed_after_the_first_build_fails_the_later_topics(self, tmp_path, collection, capsys, monkeypatch):
        # The corpus is read again as each topic is built; a rewritten file is refused, not read.
        def build_index(*args, **kwargs):
            index = real_build_index(*args, **kwargs)
            if not built:
                corpus = Path(collection["corpus"])
                corpus.write_text(corpus.read_text(encoding="utf-8") + "\n", encoding="utf-8")
            built.append(index.topic_id)
            return index

        built, real_build_index = [], cli.build_index
        clean_dir = tmp_path / "clean"
        assert main(self.argv("rank", collection, clean_dir)) == 0
        monkeypatch.setattr(cli, "build_index", build_index)
        out_dir = tmp_path / "changed"
        assert main(self.argv("rank", collection, out_dir)) == 1
        assert built == ["T000"]
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["error"] == "TopicFailure"
        assert [(t["topic_id"], t["error"]) for t in summary["topics"]] == [("T001", "ParseError"), ("T002", "ParseError")]
        for failure in summary["topics"]:
            assert failure["detail"].startswith(f"{collection['corpus']}:") and "changed since it was loaded" in failure["detail"]
        assert [p.name for p in out_dir.rglob("*.run")] == ["T000.run"]
        rel = Path("runs", "sdr-bow", "T000.run")
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

    def test_topic_missing_from_qrels_is_skipped_with_a_warning(self, tmp_path, capsys, caplog):
        qrels = tmp_path / "q.txt"
        qrels.write_text("T1 0 d1 1\nT1 0 d2 0\n", encoding="utf-8")
        outputs, warnings = [], []
        for name, extra in (("judged.run", ""), ("extra.run", "T8 Q0 d1 1 1.0 x\nT9 Q0 d1 1 1.0 x\n")):
            run = tmp_path / name
            run.write_text("T1 Q0 d2 1 2.0 x\n" + extra + "T1 Q0 d1 2 1.0 x\n", encoding="utf-8")
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="seedrank"):
                assert main(["-q", "eval", "--run", str(run), "--qrels", str(qrels)]) == 0
            outputs.append(capsys.readouterr().out)
            warnings.append([r.getMessage() for r in caplog.records if r.levelno == logging.WARNING])
        assert outputs[0] == outputs[1]
        assert warnings[0] == [] and len(warnings[1]) == 1
        assert "T8" in warnings[1][0] and "T9" in warnings[1][0] and "T1" not in warnings[1][0]

    def test_shuffled_run_gives_the_same_csv(self, tmp_path, capsys):
        # Interleaved topics, exact score ties (ordered by doc id) and rank gaps, against the same run sorted by rank.
        ranked = [
            "T1 Q0 a 1 5.0 x", "T1 Q0 b 3 4.0 x", "T1 Q0 c 3 4.0 x", "T1 Q0 d 7 2.0 x", "T1 Q0 e 9 1.0 x",
            "T2 Q0 a 2 3.0 y", "T2 Q0 f 2 3.0 y", "T2 Q0 b 5 2.0 y", "T2 Q0 c 6 0.5 y",
        ]
        shuffled = [ranked[i] for i in (8, 3, 5, 1, 0, 6, 4, 7, 2)]
        qrels = tmp_path / "q.txt"
        qrels.write_text("T1 0 c 1\nT1 0 e 1\nT1 0 b 0\nT2 0 f 1\nT2 0 c 2\n", encoding="utf-8")
        outputs = []
        for name, lines in (("ranked.run", ranked), ("shuffled.run", shuffled)):
            run = tmp_path / name
            run.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            output = tmp_path / f"{name}.csv"
            assert main(["-q", "eval", "--run", str(run), "--qrels", str(qrels), "--output", str(output)]) == 0
            outputs.append(output.read_bytes())
        assert outputs[0] == outputs[1]
        by_key = {(r["topic_id"], r["metric"]): float(r["value"]) for r in read_metrics(tmp_path / "ranked.run.csv")}
        assert by_key[("T1", "map")] == pytest.approx((1 / 3 + 2 / 5) / 2)

    def test_scores_order_the_run_not_its_rank_column(self, tmp_path, capsys):
        # trec_eval sorts a topic by score and ignores the rank column; d2, the relevant one, scores highest.
        run = tmp_path / "r.run"
        run.write_text("T1 Q0 d1 1 1.0 x\nT1 Q0 d2 2 3.0 x\n", encoding="utf-8")
        qrels = tmp_path / "q.txt"
        qrels.write_text("T1 0 d2 1\n", encoding="utf-8")
        assert main(["-q", "eval", "--run", str(run), "--qrels", str(qrels), "--k", "1"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        by_key = {(r["topic_id"], r["metric"]): r["value"] for r in rows}
        assert by_key[("T1", "map")] == "1.0" and by_key[("T1", "p@1")] == "1.0"

    def test_no_topic_with_relevant_judgment_fails(self, tmp_path, capsys):
        run = tmp_path / "r.run"
        run.write_text("T2 Q0 d1 1 1.0 x\n", encoding="utf-8")
        qrels = tmp_path / "q.txt"
        qrels.write_text("T2 0 d1 0\n", encoding="utf-8")
        assert main(["-q", "eval", "--run", str(run), "--qrels", str(qrels)]) == 2
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["error"] == "ConfigError" and summary["field"] == "qrels"

    @pytest.mark.parametrize("command, run_dir", [("rank", "sdr-bow"), ("multi", "sdr-bow-multi")])
    def test_run_units_point_to_metrics_csv(self, tmp_path, collection, capsys, command, run_dir):
        # rank and multi key each run line by unit (T000.<seed_id>, T000.w0), which no qrels topic is.
        out_dir = tmp_path / command
        argv = [
            "-q", command, "--corpus", collection["corpus"], "--topics", collection["topics"],
            "--qrels", collection["qrels"], "--method", "sdr", "--output-dir", str(out_dir),
        ]
        assert main(argv) == 0
        run = out_dir / "runs" / run_dir / "T000.run"
        capsys.readouterr()
        assert main(["-q", "eval", "--run", str(run), "--qrels", collection["qrels"]]) == 2
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["error"] == "ConfigError" and summary["field"] == "run" and set(summary) == {"error", "detail", "field"}
        assert summary["detail"].startswith("run: no run topic has judgments in the qrels file; ")
        assert f"{run} holds run units" in summary["detail"] and "metrics.csv" in summary["detail"]

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

    @staticmethod
    def write_means(path, rows):
        """A metrics CSV holding only the per-topic mean rows ``(topic_id, metric, value text)``."""
        lines = ["topic_id,seed_or_window,metric,value"] + [f"{t},mean,{m},{v}" for t, m, v in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("bad_row", ["T3,mean,map,abc", "T3,mean,map", "T3,mean,map,nan"])
    def test_bad_value_names_its_line(self, tmp_path, capsys, bad_row):
        path = tmp_path / "a.csv"
        path.write_text(
            "topic_id,seed_or_window,metric,value\nT1,mean,map,0.5\nT2,mean,map,0.25\n" + bad_row + "\n", encoding="utf-8"
        )
        good = self.write_means(tmp_path / "b.csv", [("T1", "map", 0.5), ("T2", "map", 0.5), ("T3", "map", 0.5)])
        output = tmp_path / "sig.csv"
        argv = ["-q", "compare", "--metrics-a", str(path), "--metrics-b", good, "--output", str(output)]
        assert main(argv) == 2
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["error"] == "ConfigError" and summary["field"] == "metrics"
        assert f"{path}:4:" in summary["detail"]
        assert not output.exists()

    @pytest.mark.parametrize("bad_row, detail", [
        (b"T3,mean,map,0.\xe9", "byte 0xe9 is not valid UTF-8"),
        (b"T3,mean,map," + b"1" * 200_000, "field larger than field limit"),
    ], ids=["non-utf8-byte", "oversized-field"])
    def test_unreadable_line_names_its_line(self, tmp_path, capsys, bad_row, detail):
        path = tmp_path / "a.csv"
        path.write_bytes(b"topic_id,seed_or_window,metric,value\nT1,mean,map,0.5\nT2,mean,map,0.25\n" + bad_row + b"\n")
        good = self.write_means(tmp_path / "b.csv", [("T1", "map", 0.5), ("T2", "map", 0.5), ("T3", "map", 0.5)])
        output = tmp_path / "sig.csv"
        argv = ["-q", "compare", "--metrics-a", str(path), "--metrics-b", good, "--output", str(output)]
        assert main(argv) == 2
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["error"] == "ConfigError" and summary["field"] == "metrics"
        assert f"{path}:4:" in summary["detail"] and detail in summary["detail"]
        assert not output.exists()

    def test_byte_order_mark_fails_at_line_one(self, tmp_path, capsys):
        # Read as text, the mark would join the first column's name and the file would lack "topic_id".
        path = tmp_path / "a.csv"
        self.write_means(path, [("T1", "map", 0.5), ("T2", "map", 0.25)])
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        good = self.write_means(tmp_path / "b.csv", [("T1", "map", 0.5), ("T2", "map", 0.5)])
        output = tmp_path / "sig.csv"
        argv = ["-q", "compare", "--metrics-a", str(path), "--metrics-b", good, "--output", str(output)]
        assert main(argv) == 2
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["error"] == "ConfigError" and summary["field"] == "metrics"
        assert f"{path}:1:" in summary["detail"] and "byte-order mark" in summary["detail"]
        assert not output.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--alpha", "7"), ("--alpha", "1"), ("--alpha", "0"), ("--alpha", "-1"), ("--alpha", "nan"), ("--alpha", "x"),
        ("--family-size", "0"), ("--family-size", "-2"), ("--family-size", "1.5"), ("--family-size", "two"),
    ])
    def test_bad_alpha_or_family_size_rejected_when_parsed(self, tmp_path, capsys, flag, value):
        # The files do not exist: the arguments are refused before anything is read.
        missing = str(tmp_path / "missing")
        with pytest.raises(SystemExit) as exit_info:
            main(["-q", "compare", "--metrics-a", missing, "--metrics-b", missing, flag, value])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err

    def test_metric_with_one_shared_topic_is_an_input_error(self, tmp_path, capsys):
        a = self.write_means(tmp_path / "a.csv", [("T1", "map", 0.5), ("T2", "map", 0.25), ("T1", "wss", 0.1)])
        b = self.write_means(tmp_path / "b.csv", [("T1", "map", 0.5), ("T2", "map", 0.5), ("T1", "wss", 0.2)])
        output = tmp_path / "sig.csv"
        argv = ["-q", "compare", "--metrics-a", a, "--metrics-b", b, "--output", str(output)]
        assert main(argv) == 2
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["error"] == "ConfigError" and summary["field"] == "metrics"
        assert "'wss'" in summary["detail"] and "fewer than two shared topics" in summary["detail"]
        assert not output.exists()

    def test_same_bytes_without_scipy(self, tmp_path):
        # The t distribution is computed in evaluation.py; scipy is a test dependency only.
        topics = [f"T{i}" for i in range(1, 8)]
        a = self.write_means(
            tmp_path / "a.csv",
            [(t, "map", 0.1 * i + 0.05 * (i % 3)) for i, t in enumerate(topics, 1)]
            + [(t, "wss", 0.5) for t in topics],
        )
        b = self.write_means(
            tmp_path / "b.csv",
            [(t, "map", 0.1 * i) for i, t in enumerate(topics, 1)] + [(t, "wss", 0.5) for t in topics],
        )
        argv = ["-q", "compare", "--metrics-a", a, "--metrics-b", b, "--name-a", "x", "--name-b", "y"]
        assert main(argv + ["--output", str(tmp_path / "in_process.csv")]) == 0
        src = str(Path(seedrank.__file__).resolve().parents[1])
        script = "import sys; sys.modules['scipy'] = None; import seedrank.cli; sys.exit(seedrank.cli.main(sys.argv[1:]))"
        subprocess.run(
            [sys.executable, "-c", script, *argv, "--output", str(tmp_path / "no_scipy.csv")],
            env=dict(os.environ, PYTHONPATH=src), check=True,
        )
        in_process = (tmp_path / "in_process.csv").read_bytes()
        assert (tmp_path / "no_scipy.csv").read_bytes() == in_process
        assert b",map," in in_process and b",wss,nan,nan,nan,false" in in_process


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


class TestBlockBytes:
    """No output depends on ``vectors.BLOCK_BYTES``, which only bounds the memory of temporaries."""

    def test_outputs_identical_under_a_small_block(self, tmp_path, collection, monkeypatch):
        lexicon = write_lexicon_file(tmp_path, [f"term{i:04d}" for i in range(0, 60)])
        embeddings = write_embeddings_file(tmp_path, [f"term{i:04d}" for i in range(120)])
        inputs = [
            "--corpus", collection["corpus"], "--topics", collection["topics"], "--qrels", collection["qrels"],
            "--lexicon", str(lexicon), "--embeddings", str(embeddings),
        ]
        runs = [("rank", method, representation) for method in METHODS for representation in REPRESENTATIONS]
        # A cap of 5 makes multi's windows draw, so phi's draw loop runs.
        runs += [("multi", "sdr", "bow", "--undersample-cap", "5"), ("analyze", "sdr", "bow")]
        # The most blocks one call of vectors.blocks yielded: in _row_totals and in phi's draw loop.
        most = {}

        def counted(module):
            def blocks(items, widths):
                count = 0
                for count, block in enumerate(real_blocks(items, widths), start=1):
                    yield block
                most[module] = max(most.get(module, 0), count)
            return blocks

        real_blocks = seedrank.vectors.blocks
        for module in (seedrank.vectors, seedrank.scoring):
            monkeypatch.setattr(module, "blocks", counted(module.__name__))

        def outputs(name):
            for command, method, representation, *extra in runs:
                out_dir = tmp_path / name / f"{command}-{method}-{representation}"
                argv = ["-q", command, *inputs, "--method", method, "--representation", representation, *extra]
                assert main([*argv, "--output-dir", str(out_dir)]) == 0
            files = sorted(f for f in (tmp_path / name).rglob("*") if f.is_file())
            return [(f.relative_to(tmp_path / name).as_posix(), f.read_bytes()) for f in files]

        default = outputs("default")
        assert most == {"seedrank.vectors": 1, "seedrank.scoring": 1}
        monkeypatch.setattr(seedrank.vectors, "BLOCK_BYTES", 2**10)
        small = outputs("small")
        assert min(most.values()) > 10, most
        assert [name for name, _ in small] == [name for name, _ in default]
        assert [name for (name, data), (_, other) in zip(default, small) if data != other] == []


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

    @pytest.mark.parametrize("command", ["rank", "multi", "analyze"])
    def test_corpus_closed_after_the_topics(self, tmp_path, collection, monkeypatch, command):
        loaded = []

        def load_corpus(path):
            loaded.append(real_load_corpus(path))
            return loaded[-1]

        real_load_corpus = cli.load_corpus
        monkeypatch.setattr(cli, "load_corpus", load_corpus)
        argv = [
            "-q", command, "--corpus", collection["corpus"], "--topics", collection["topics"],
            "--qrels", collection["qrels"], "--method", "sdr", "--output-dir", str(tmp_path / "out"),
        ]
        assert main(argv) == 0
        assert len(loaded) == 1 and loaded[0]._fd is None

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
        """What a fresh interpreter prints for ``expression`` once it has imported ``seedrank.cli``."""
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
        # Neither importing the cli (and with it the package) nor a paired t-test loads any scipy module.
        expression = (
            "seedrank.evaluation.paired_t_test([0.2, 0.5, 0.9], [0.1, 0.1, 0.3])"
            " and sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')"
        )
        assert self.after_cli_import(expression) == "[]"

    def test_runtime_dependencies(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]

        def names(deps):
            return {re.split(r"[<>=!~ \[;]", dep, maxsplit=1)[0].lower() for dep in deps}

        assert names(project["dependencies"]) == {"numpy", "pyyaml"}
        assert "scipy" in names(project["optional-dependencies"]["test"])
