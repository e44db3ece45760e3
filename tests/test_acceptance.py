"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines even when everything is green.
"""

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    ref_average_precision,
    ref_ndcg_at,
    ref_precision_at,
    ref_recall_at,
    sort_scored,
)
from seedrank import (
    PipelineConfig,
    ScoringParams,
    SeedGroup,
    build_index,
    build_stats,
    intra_similarity,
    loocv_single,
    make_groups,
    metric_set,
    multi_sdr,
    oracle_single,
    phi_weights,
    rank,
    sdr_score,
    write_run,
)
from synth import by_term, count_index, synth_collection, synth_topic, write_collection_files

from conftest import unit_lines

import math


def _report(number, description, status):
    print(f"[criterion {number}] {status}: {description}")


class _Criterion:
    """Prints the pass/fail line even when an assert aborts the test."""

    def __init__(self, number, description):
        self.number = number
        self.description = description

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            _report(self.number, self.description, "PASS")
        elif exc_type is pytest.skip.Exception:
            _report(self.number, self.description, "SKIP")
        else:
            _report(self.number, self.description, "FAIL")
        return False


def test_criterion_1_reduction_identity(pipeline, params):
    with _Criterion(1, "phi==1 seed-driven ranking orders exactly like QLM on 50 random topics"):
        rng = np.random.default_rng(1)
        started = time.perf_counter()
        for t in range(50):
            n_docs = int(rng.integers(20, 201))
            vocab = int(rng.integers(50, 501))
            topic, corpus = synth_topic(rng, f"R{t:02d}", n_docs, vocab_size=vocab, n_relevant=3)
            seed_id = topic.relevant_ids[0]
            index = build_index(topic, corpus, "bow", pipeline)
            qlm_order = [doc_id for doc_id, _, _ in unit_lines(rank(index, [seed_id], "qlm", params))]

            stats = build_stats(index, [seed_id])
            unit_weights = np.ones(len(stats.seed_terms))
            scores = sdr_score(stats, params, unit_weights)
            candidates = [index.doc_ids[row] for row in stats.candidates]
            scores = dict(zip(candidates, scores.tolist()))
            forced_order = [d for d, _ in sort_scored(scores)]
            assert forced_order == qlm_order, f"ordering diverged on topic {topic.topic_id}"
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"reduction check took {elapsed:.1f}s (budget 10s)"


def test_criterion_2_metric_oracle_equivalence():
    with _Criterion(2, "metrics match a brute-force reference to 1e-9 on 100 random small runs"):
        rng = np.random.default_rng(22)
        checked = 0
        while checked < 100:
            n = int(rng.integers(1, 9))
            run = [f"d{i}" for i in range(n)]
            pool = run + [f"m{i}" for i in range(int(rng.integers(0, 3)))]
            qrels = {d: (1 if rng.random() < 0.4 else 0) for d in pool}
            if sum(qrels.values()) == 0:
                continue
            checked += 1
            out = metric_set(run, qrels, (1, 5, 10))
            assert abs(out["map"] - ref_average_precision(run, qrels)) < 1e-9
            for k in (1, 5, 10):
                assert abs(out[f"p@{k}"] - ref_precision_at(run, qrels, k)) < 1e-9
                assert abs(out[f"r@{k}"] - ref_recall_at(run, qrels, k)) < 1e-9
                assert abs(out[f"ndcg@{k}"] - ref_ndcg_at(run, qrels, k)) < 1e-9
            if any(qrels.get(d, 0) >= 1 for d in run):
                assert abs(out["wss"] + out["lastrel%"] - 1.0) < 1e-12
        if shutil.which("trec_eval") is None:
            print("  (trec_eval binary not installed; skipping the binary cross-check)")
        else:
            _cross_check_against_trec_eval()


def _cross_check_against_trec_eval():
    """Compare MAP/P@k/recall/nDCG against the trec_eval binary if present."""
    import tempfile

    from seedrank import Run, RunUnit

    rng = np.random.default_rng(99)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        units = []
        qrels_lines = []
        for t in range(5):
            topic = f"Q{t}"
            n = int(rng.integers(4, 9))
            docs = [f"d{i}" for i in range(n)]
            scores = sorted(rng.random(n), reverse=True)
            units.append(RunUnit(topic, "t", tuple(docs), np.arange(n), np.array(scores)))
            for d in docs:
                qrels_lines.append(f"{topic} 0 {d} {1 if rng.random() < 0.4 else 0}\n")
        run_path = tmp / "run.txt"
        qrels_path = tmp / "qrels.txt"
        write_run(Run(tuple(units)), run_path)
        qrels_path.write_text("".join(qrels_lines), encoding="utf-8")
        out = subprocess.run(
            ["trec_eval", "-q", "-m", "map", "-m", "P.5", "-m", "ndcg_cut.5", str(qrels_path), str(run_path)],
            capture_output=True, text=True, check=True,
        ).stdout
        from seedrank import load_qrels

        judged = load_qrels(qrels_path)
        by_topic = {u.topic_id: [doc_id for doc_id, _, _ in unit_lines(u)] for u in units}
        for line in out.splitlines():
            metric, topic, value = line.split()
            if topic == "all" or topic not in by_topic:
                continue
            key = {"map": "map", "P_5": "p@5", "ndcg_cut_5": "ndcg@5"}.get(metric)
            if key is None:
                continue
            mine = metric_set(by_topic[topic], judged[topic], (5,))[key]
            assert abs(mine - float(value)) < 5e-5, f"{metric} on {topic}: {mine} vs {value}"


def test_criterion_3_hand_corpus_formula_check(params):
    with _Criterion(3, "hand-worked term-weight and QLM-addend values reproduce to 1e-9"):
        # Seed {a, b} against candidates {a} and {b}: both partitions have
        # similarity 1/sqrt(2) to the seed, so the weight is exactly ln 2.
        stats = build_stats(
            count_index(s={"a": 1, "b": 1}, d1={"a": 1}, d2={"b": 1}),
            ["s"],
        )
        weight = by_term(stats, phi_weights(stats, params))["a"]
        assert abs(weight - math.log(2)) < 1e-9

        # c(term, cand)=2, L=10, p(term|C)=0.1, lambda=0.5 -> ln 3.
        stats2 = build_stats(
            count_index(s={"a": 1}, cand={"a": 2, "x": 8}, other={"x": 10}),
            ["s"],
        )
        score = sdr_score(stats2, ScoringParams(jm_lambda=0.5), np.ones(1))[0]
        assert abs(score - math.log(3)) < 1e-9


def test_criterion_4_multi_seed_structure(pipeline, params):
    with _Criterion(4, "singleton groups reduce to single runs; window counts and doc sets line up"):
        assert len(make_groups("T", [f"d{i}" for i in range(10)])) == 9
        assert len(make_groups("T", [f"d{i}" for i in range(20)])) == 17
        assert len(make_groups("T", [f"d{i}" for i in range(5)])) == 4

        rng = np.random.default_rng(4)
        topic, corpus = synth_topic(rng, "M0", 40, vocab_size=80, n_relevant=6)

        seed_id = topic.relevant_ids[0]
        index = build_index(topic, corpus, "bow", pipeline)
        single = rank(index, [seed_id], "sdr", params)
        singleton = SeedGroup("M0", (seed_id,), 0)
        multi_one = multi_sdr(index, singleton, "sdr", params)
        # The same (doc_id, rank, score) lines and tag; only the run key differs.
        assert unit_lines(multi_one) == unit_lines(single) and multi_one.tag == single.tag

        groups = make_groups("M0", topic.relevant_ids)
        assert len(groups) == len(topic.relevant_ids) - len(groups[0].member_ids) + 1
        report, singles = loocv_single(index, "sdr", params)
        for group in groups:
            multi = multi_sdr(index, group, "sdr", params)
            oracle = oracle_single(report, group, singles)
            assert {doc_id for doc_id, _, _ in unit_lines(multi)} == {doc_id for doc_id, _, _ in unit_lines(oracle)}


def test_criterion_5_byte_determinism(tmp_path):
    with _Criterion(5, "same config and seed give byte-identical outputs across executions and workers"):
        topics, corpus = synth_collection(seed=55, n_topics=3, n_docs=25, vocab_size=100, n_relevant=4)
        corpus_path, topics_path, qrels_path = write_collection_files(tmp_path, topics, corpus)

        def collect(out_dir):
            blob = (out_dir / "metrics.csv").read_bytes()
            for run_file in sorted((out_dir / "runs").rglob("*.run")):
                blob += run_file.name.encode() + run_file.read_bytes()
            return blob

        blobs = []
        for hash_seed in ("101", "202"):
            out_dir = tmp_path / f"exec{hash_seed}"
            cmd = [
                sys.executable, "-m", "seedrank.cli", "-q", "rank",
                "--corpus", str(corpus_path), "--topics", str(topics_path),
                "--qrels", str(qrels_path), "--method", "sdr",
                "--rng-seed", "7", "--output-dir", str(out_dir),
            ]
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            result = subprocess.run(cmd, env=env, capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            blobs.append(collect(out_dir))
        assert blobs[0] == blobs[1], "outputs differ between executions"

        from seedrank.cli import main

        out_dir = tmp_path / "threaded"
        argv = [
            "-q", "rank",
            "--corpus", str(corpus_path), "--topics", str(topics_path),
            "--qrels", str(qrels_path), "--method", "sdr",
            "--rng-seed", "7", "--workers", "4", "--output-dir", str(out_dir),
        ]
        assert main(argv) == 0
        assert collect(out_dir) == blobs[0], "outputs differ across thread counts"


def test_criterion_6_observation_replication(pipeline):
    with _Criterion(6, "shared-vocabulary relevant docs are mutually closer than disjoint irrelevant ones"):
        topics, corpus = synth_collection(seed=66, n_topics=8, n_docs=30, vocab_size=200, n_relevant=5)
        for topic in topics:
            rel_mean, irrel_mean = intra_similarity(build_index(topic, corpus, "bow", pipeline), rng_seed=3)
            assert rel_mean > irrel_mean, f"topic {topic.topic_id}: {rel_mean} <= {irrel_mean}"

        # A lexicon covering only part of the vocabulary must shrink it strictly.
        lexicon = frozenset(f"term{i:04d}" for i in range(0, 150, 2))
        bow_vocab = set()
        boc_vocab = set()
        for topic in topics:
            bow_vocab |= set(build_index(topic, corpus, "bow", pipeline).terms)
            boc_vocab |= set(build_index(topic, corpus, "boc", pipeline, lexicon=lexicon).terms)
        assert boc_vocab < bow_vocab


def test_criterion_7_dataset_reproduction():
    description = "qualitative reproduction against the public review-screening dataset"
    clef_dir = os.environ.get("SEEDRANK_CLEF_DIR")
    with _Criterion(7, description):
        if not clef_dir:
            pytest.skip(
                "set SEEDRANK_CLEF_DIR to a directory holding corpus.jsonl, topics.txt, "
                "qrels.txt, lexicon.txt and embeddings_pubmed.txt to run this criterion"
            )
        from seedrank import ExperimentReport, filter_topics, load_corpus, load_embeddings, load_lexicon, load_topics

        base = Path(clef_dir)
        corpus = load_corpus(base / "corpus.jsonl")
        topics = filter_topics(load_topics(base / "topics.txt", base / "qrels.txt"), 2)
        lexicon = load_lexicon(base / "lexicon.txt")
        embeddings = load_embeddings(base / "embeddings_pubmed.txt")
        pipeline = PipelineConfig()
        params = ScoringParams()

        indexes = [
            build_index(topic, corpus, "boc", pipeline, lexicon=lexicon, embeddings=embeddings) for topic in topics
        ]

        def mean_map(method):
            master = ExperimentReport()
            for index in indexes:
                report, _ = loocv_single(index, method, params)
                master.merge(report)
            return master.cross_topic_means()["map"]

        qlm_map = mean_map("qlm")
        sdr_map = mean_map("sdr")
        combined_map = mean_map("sdr+aes")
        assert sdr_map >= qlm_map, f"SDR {sdr_map} < QLM {qlm_map}"
        assert combined_map >= qlm_map
        assert abs(combined_map - 0.1984) <= 0.02, f"interpolated MAP {combined_map} outside band"


def test_criterion_8_desk_scale_runtime(pipeline, params):
    with _Criterion(8, "30 topics x 2000 candidates of single-seed leave-one-out under 5 minutes"):
        rng = np.random.default_rng(88)
        started = time.perf_counter()
        total_runs = 0
        for t in range(30):
            topic, corpus = synth_topic(
                rng, f"P{t:02d}", 2000, vocab_size=500, n_relevant=3, doc_len=(25, 50)
            )
            _, runs = loocv_single(build_index(topic, corpus, "bow", pipeline), "sdr", params)
            total_runs += len(runs)
        elapsed = time.perf_counter() - started
        print(f"  ({total_runs} leave-one-out runs in {elapsed:.1f}s)")
        assert elapsed < 300.0, f"took {elapsed:.1f}s (budget 300s)"
