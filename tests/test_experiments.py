import math
from collections import Counter

import numpy as np
import pytest

from oracles import ref_cosine, ref_counts, ref_seed_driven_scores, ref_tfidf, reference_derive_rng
from seedrank import (
    ContractError,
    Document,
    ExperimentReport,
    InsufficientDocumentsError,
    InsufficientSeedsError,
    RunUnit,
    SeedGroup,
    Topic,
    build_index,
    evaluate_unit,
    idf,
    intra_similarity,
    loocv_single,
    make_groups,
    multi_sdr,
    oracle_single,
    rank,
    term_commonality,
)
from hypothesis import given, strategies as st

from seedrank.experiments import _pairwise_mean_cosine
from synth import count_index, synth_collection

from conftest import unit_lines


class TestLoocvSingle:
    def test_one_run_per_seed_and_mean(self, params, pipeline, hand_corpus, hand_topic):
        report, runs = loocv_single(build_index(hand_topic, hand_corpus, "bow", pipeline), "qlm", params)
        assert set(runs) == {"s", "c1", "c3"}
        units = report.values["T1"]
        aps = [units[seed]["map"] for seed in runs]
        per_topic = report.per_topic_means()["map"]["T1"]
        assert per_topic == pytest.approx(sum(aps) / len(aps), abs=1e-12)
        for seed_id, unit in runs.items():
            assert unit.topic_id == f"T1.{seed_id}"
            assert {doc_id for doc_id, _, _ in unit_lines(unit)} == set(hand_corpus) - {seed_id}

    def test_single_relevant_is_error(self, params, pipeline, hand_corpus):
        topic = Topic("T1", list(hand_corpus), {"s": 1})
        with pytest.raises(InsufficientSeedsError):
            loocv_single(build_index(topic, hand_corpus, "bow", pipeline), "qlm", params)

    def test_cross_topic_mean_is_unweighted(self):
        report = ExperimentReport()
        report.add("T1", "a", {"map": 0.3})
        report.add("T1", "b", {"map": 0.5})
        report.add("T2", "a", {"map": 0.6})
        assert report.per_topic_means()["map"] == {"T1": 0.4, "T2": 0.6}
        assert report.cross_topic_means()["map"] == pytest.approx(0.5)


class TestMakeGroups:
    def pool(self, n):
        return [f"d{i}" for i in range(n)]

    def test_window_counts(self):
        assert len(make_groups("T", self.pool(10))) == 9      # w = 2
        assert len(make_groups("T", self.pool(20))) == 17     # w = 4
        assert len(make_groups("T", self.pool(5))) == 4       # w = max(2, 1)

    def test_window_width(self):
        groups = make_groups("T", self.pool(20))
        assert all(len(g.member_ids) == 4 for g in groups)
        assert groups[0].member_ids == ("d0", "d1", "d2", "d3")
        assert groups[-1].member_ids == ("d16", "d17", "d18", "d19")

    def test_too_few_seeds(self):
        with pytest.raises(InsufficientSeedsError):
            make_groups("T", self.pool(2))

    @pytest.mark.parametrize("n, fraction", [(3, 0.9), (10, 1.0)])
    def test_window_covering_whole_pool(self, n, fraction):
        with pytest.raises(InsufficientSeedsError, match=f"'T7'.* width {n} .* of {n} "):
            make_groups("T7", self.pool(n), fraction)

    @pytest.mark.parametrize("n", [3, 5, 10, 23])
    def test_every_seed_in_one_to_w_groups(self, n):
        groups = make_groups("T", self.pool(n))
        w = len(groups[0].member_ids)
        membership = Counter(m for g in groups for m in g.member_ids)
        assert set(membership) == set(self.pool(n))
        assert all(1 <= c <= w for c in membership.values())

    def test_window_indices_are_offsets(self):
        groups = make_groups("T", self.pool(6))
        assert [g.window_index for g in groups] == list(range(len(groups)))


MULTI_DOCS = [
    Document("s1", "anticoagulant therapy", "warfarin stroke prevention trial"),
    Document("s2", "atrial fibrillation", "anticoagulant stroke risk"),
    Document("c1", "warfarin trial", "stroke prevention anticoagulant"),
    Document("c2", "atrial fibrillation management", "heart rhythm control"),
    Document("c3", "stroke rehabilitation", "motor recovery exercise"),
    Document("c4", "diabetes screening", "glucose tolerance test"),
    Document("c5", "warfarin dosing", "bleeding risk anticoagulant"),
]


@pytest.fixture
def multi_corpus():
    return {d.doc_id: d for d in MULTI_DOCS}


@pytest.fixture
def multi_topic(multi_corpus):
    judgments = {"s1": 1, "s2": 1, "c1": 1, "c5": 1}
    return Topic("T9", list(multi_corpus), judgments)


class TestMultiSdr:
    def test_singleton_group_equals_single(self, params, pipeline, multi_corpus, multi_topic):
        group = SeedGroup("T9", ("s1",), 0)
        index = build_index(multi_topic, multi_corpus, "bow", pipeline)
        multi = multi_sdr(index, group, "sdr", params)
        single = rank(index, ["s1"], "sdr", params)
        # The same (doc_id, rank, score) lines and tag; only the run key differs.
        assert unit_lines(multi) == unit_lines(single) and multi.tag == single.tag

    def test_group_excludes_all_members(self, params, pipeline, multi_corpus, multi_topic):
        group = SeedGroup("T9", ("s1", "s2"), 0)
        unit = multi_sdr(build_index(multi_topic, multi_corpus, "bow", pipeline), group, "sdr", params)
        assert {doc_id for doc_id, _, _ in unit_lines(unit)} == {"c1", "c2", "c3", "c4", "c5"}
        assert unit.topic_id == "T9.w0"

    def test_pseudo_seed_vocabulary_is_union(self, params, pipeline):
        corpus = {
            "s1": Document("s1", "", "alpha alpha"),
            "s2": Document("s2", "", "beta"),
            "c1": Document("c1", "", "alpha"),
            "c2": Document("c2", "", "beta gamma"),
        }
        topic = Topic("T", list(corpus), {"s1": 1, "s2": 1, "c1": 1})
        group = SeedGroup("T", ("s1", "s2"), 0)
        unit = multi_sdr(build_index(topic, corpus, "bow", pipeline), group, "qlm", params)
        # both candidates score > 0 because the pseudo-seed covers both vocabularies
        assert all(score > 0 for _, _, score in unit_lines(unit))

    def test_two_seed_group_matches_reference(self, params, pipeline, multi_corpus, multi_topic):
        group = SeedGroup("T9", ("s1", "s2"), 0)
        entries = unit_lines(multi_sdr(build_index(multi_topic, multi_corpus, "bow", pipeline), group, "sdr", params))
        assert [doc_id for doc_id, _, _ in entries] == ["c1", "c5", "c3", "c2", "c4"]  # frozen from the oracle

        counts = {d: ref_counts(doc, pipeline) for d, doc in multi_corpus.items()}
        seed = dict(Counter(counts.pop("s1")) + Counter(counts.pop("s2")))
        expected = ref_seed_driven_scores(seed, counts, params.jm_lambda)
        for doc_id, _, score in entries:
            assert score == pytest.approx(expected[doc_id], abs=1e-9)


def hand_unit(key, names, doc_ids, scores):
    """The unit ranking ``doc_ids`` with ``scores``, over the name table ``names``."""
    rows = np.array([names.index(d) for d in doc_ids])
    return RunUnit(key, "x", names, rows, np.array(scores, dtype=float))


def relevance(topic, names):
    """Whether each name is judged relevant in ``topic``, as ``TopicIndex.relevant`` flags its rows."""
    return np.array([topic.judgments.get(d, 0) >= 1 for d in names])


class TestOracleSingle:
    names = ("s1", "s2", "d1", "d3", "d4")

    def runs(self):
        # Winner selection fodder: s1's run places relevants earlier.
        s1 = hand_unit("T.s1", self.names, ["d1", "s2", "d3", "d4"], [4.0, 3.0, 2.0, 1.0])
        s2 = hand_unit("T.s2", self.names, ["d3", "d4", "s1", "d1"], [4.0, 3.0, 2.0, 1.0])
        return {"s1": s1, "s2": s2}

    def topic(self):
        judgments = {"s1": 1, "s2": 1, "d1": 1, "d4": 1, "d3": 0}
        return Topic("T", ["s1", "s2", "d1", "d3", "d4"], judgments)

    def report(self, topic, runs):
        """The leave-one-out report of ``runs``, as loocv_single builds it."""
        report = ExperimentReport()
        for seed_id, unit in runs.items():
            report.add(topic.topic_id, seed_id, evaluate_unit(unit, relevance(topic, unit.doc_ids)))
        return report

    def test_picks_best_and_removes_group_mates(self):
        group = SeedGroup("T", ("s1", "s2"), 0)
        unit = oracle_single(self.report(self.topic(), self.runs()), group, self.runs())
        assert [doc_id for doc_id, _, _ in unit_lines(unit)] == ["d1", "d3", "d4"]
        assert [rank for _, rank, _ in unit_lines(unit)] == [1, 2, 3]
        assert unit.topic_id == "T.w0"
        assert unit.tag == "x-oracle"

    def test_ap_changes_after_midrank_removal(self):
        # Hand recomputation: before removal (restricted to the 4 ranked docs)
        # R=3 with hits at 1, 2, 4 -> AP = (1 + 1 + 3/4)/3.
        topic = self.topic()
        relevant = relevance(topic, self.names)
        before = evaluate_unit(self.runs()["s1"], relevant)
        assert before["map"] == pytest.approx((1.0 + 1.0 + 0.75) / 3, abs=1e-12)
        # After removing s2 and compacting: R=2 with hits at 1 and 3.
        group = SeedGroup("T", ("s1", "s2"), 0)
        after = evaluate_unit(oracle_single(self.report(topic, self.runs()), group, self.runs()), relevant)
        assert after["map"] == pytest.approx((1.0 + 2.0 / 3.0) / 2, abs=1e-12)

    def test_tie_breaks_to_smallest_seed_id(self):
        names = ("s1", "s2", "d1")
        entries = {
            "s1": hand_unit("T.s1", names, ["d1", "s2"], [1.0, 0.5]),
            "s2": hand_unit("T.s2", names, ["d1", "s1"], [1.0, 0.5]),
        }
        topic = Topic("T", ["s1", "s2", "d1"], {"s1": 1, "s2": 1, "d1": 1})
        group = SeedGroup("T", ("s2", "s1"), 0)
        out = oracle_single(self.report(topic, entries), group, entries)
        # both runs have AP 1.0 on their restricted qrels; s1 wins the tie
        assert (out.topic_id, out.tag, unit_lines(out)) == ("T.w0", "x-oracle", [("d1", 1, 1.0)])

    def test_missing_member_run(self):
        group = SeedGroup("T", ("s1", "missing"), 0)
        with pytest.raises(ContractError):
            oracle_single(self.report(self.topic(), self.runs()), group, self.runs())

    def test_oracle_and_multi_cover_same_docs(self, params, pipeline, multi_corpus, multi_topic):
        index = build_index(multi_topic, multi_corpus, "bow", pipeline)
        report, singles = loocv_single(index, "sdr", params)
        for group in make_groups("T9", multi_topic.relevant_ids):
            multi = multi_sdr(index, group, "sdr", params)
            oracle = oracle_single(report, group, singles)
            assert {doc_id for doc_id, _, _ in unit_lines(multi)} == {doc_id for doc_id, _, _ in unit_lines(oracle)}
            assert len(multi) == len(oracle)


class TestIntraSimilarity:
    def make_topic_corpus(self, rel_texts, irrel_texts):
        corpus = {}
        judgments = {}
        for i, text in enumerate(rel_texts):
            doc_id = f"r{i}"
            corpus[doc_id] = Document(doc_id, "", text)
            judgments[doc_id] = 1
        for i, text in enumerate(irrel_texts):
            doc_id = f"i{i}"
            corpus[doc_id] = Document(doc_id, "", text)
            judgments[doc_id] = 0
        return Topic("T", list(corpus), judgments), corpus

    def test_identical_relevant_docs(self, pipeline):
        topic, corpus = self.make_topic_corpus(
            ["aspirin heart unique1", "aspirin heart unique1"],
            ["stroke brain", "glucose insulin", "kidney renal"],
        )
        rel_mean, _ = intra_similarity(build_index(topic, corpus, "bow", pipeline), rng_seed=1)
        assert rel_mean == pytest.approx(1.0)

    def test_pairwise_mean_hand_example(self):
        # Under idf (2, 1, 3) on (a, b, c) the rows are (2, 0, 0), (2, 1, 0) and (0, 1, 3).
        index = count_index(d0=dict(a=1), d1=dict(a=1, b=1), d2=dict(b=1, c=1))
        mean = _pairwise_mean_cosine(index, np.array([2.0, 1.0, 3.0]), np.arange(3))
        assert mean == pytest.approx((2 / math.sqrt(5) + 0.0 + 1 / math.sqrt(50)) / 3, abs=1e-15)

    @given(
        st.lists(
            st.dictionaries(st.sampled_from("abcdefgh"), st.integers(1, 9), max_size=8),
            min_size=2, max_size=8,
        ),
        st.data(),
    )
    def test_pairwise_mean_adds_each_row_in_stored_order(self, docs, data):
        index = count_index(**{f"d{i}": d for i, d in enumerate(docs)})
        counts = index.counts
        term_idf = np.sqrt(np.arange(1.0, len(index.terms) + 1)) / 3
        weights = counts.data * term_idf[counts.indices]
        norms = []
        for row in range(len(docs)):
            squares = 0.0
            for e in range(counts.indptr[row], counts.indptr[row + 1]):
                squares += weights[e] * weights[e]
            norms.append(math.sqrt(squares))
        rows = np.array(data.draw(st.permutations(range(len(docs)))))[: data.draw(st.integers(2, len(docs)))]
        sims = []
        for a, i in enumerate(rows):
            for k in rows[a + 1:]:
                row_k = dict(zip(counts.indices[counts.indptr[k]:counts.indptr[k + 1]], weights[counts.indptr[k]:]))
                dot = 0.0
                for e in range(counts.indptr[i], counts.indptr[i + 1]):
                    dot += weights[e] * row_k.get(counts.indices[e], 0.0)
                sims.append(dot / (norms[i] * norms[k]) if norms[i] * norms[k] else 0.0)
        assert _pairwise_mean_cosine(index, term_idf, rows) == float(np.mean(sims))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_relevant_mean_matches_reference(self, pipeline, seed):
        """The relevant mean is the mean over relevant pairs of ref_tfidf cosines over all candidates."""
        topics, corpus = synth_collection(seed, 2, 40, vocab_size=120, n_relevant=5, irrelevant_overlap=0.3)
        for topic in topics:
            rel_mean, _ = intra_similarity(build_index(topic, corpus, "bow", pipeline))
            collection = [ref_counts(corpus[d], pipeline) for d in topic.candidate_ids]
            vectors = [ref_tfidf(ref_counts(corpus[d], pipeline), collection) for d in topic.relevant_ids]
            sims = [ref_cosine(u, v) for i, u in enumerate(vectors) for v in vectors[i + 1:]]
            assert rel_mean == pytest.approx(sum(sims) / len(sims), abs=1e-12)

    @pytest.mark.parametrize("rng_seed", [0, 7])
    def test_irrelevant_sample_draws_from_the_topics_keyed_stream(self, pipeline, rng_seed):
        """Each repetition draws the next sample from the one stream keyed (rng_seed, topic_id, "intra-similarity")."""
        topics, corpus = synth_collection(3, 2, 40, vocab_size=120, n_relevant=5, irrelevant_overlap=0.3)
        for topic in topics:
            index = build_index(topic, corpus, "bow", pipeline)
            _, irrel_mean = intra_similarity(index, repetitions=4, rng_seed=rng_seed)
            term_idf = idf(len(index.doc_ids), index.doc_freq)
            irrelevant = index.row_numbers(topic.irrelevant_ids)
            rng = reference_derive_rng(rng_seed, topic.topic_id, "intra-similarity")
            means = []
            for _ in range(4):
                drawn = np.sort(rng.choice(len(irrelevant), size=len(topic.relevant_ids), replace=False))
                means.append(_pairwise_mean_cosine(index, term_idf, irrelevant[drawn]))
            assert irrel_mean == sum(means) / len(means)

    def test_single_relevant_is_error(self, pipeline):
        topic, corpus = self.make_topic_corpus(["one doc"], ["a", "b"])
        with pytest.raises(InsufficientDocumentsError, match="relevant"):
            intra_similarity(build_index(topic, corpus, "bow", pipeline))

    def test_too_few_irrelevant_is_error(self, pipeline):
        topic, corpus = self.make_topic_corpus(["a b", "a c", "a d"], ["x y"])
        with pytest.raises(InsufficientDocumentsError, match="irrelevant"):
            intra_similarity(build_index(topic, corpus, "bow", pipeline))

    def test_deterministic_and_rel_mean_seed_free(self, pipeline):
        rng = np.random.default_rng(11)
        words = [f"w{i}" for i in range(30)]
        rel = [" ".join(rng.choice(words[:10], size=8)) for _ in range(3)]
        irrel = [" ".join(rng.choice(words, size=8)) for _ in range(8)]
        topic, corpus = self.make_topic_corpus(rel, irrel)
        index = build_index(topic, corpus, "bow", pipeline)
        a = intra_similarity(index, rng_seed=5)
        b = intra_similarity(index, rng_seed=5)
        c = intra_similarity(index, rng_seed=6)
        assert a == b
        assert a[0] == c[0]  # relevant side never sampled


class TestTermCommonality:
    def test_fractions(self, pipeline):
        corpus = {
            "r0": Document("r0", "", "shared alpha"),
            "r1": Document("r1", "", "shared beta"),
            "r2": Document("r2", "", "shared gamma"),
            "r3": Document("r3", "", "shared delta"),
        }
        topic = Topic("T", list(corpus), {d: 1 for d in corpus})
        fractions, histogram = term_commonality(build_index(topic, corpus, "bow", pipeline))
        assert fractions["shared"] == 1.0
        assert fractions["alpha"] == 0.25
        assert histogram == {1: 4, 4: 1}

    def test_boc_fractions_over_restricted_vocab(self, pipeline):
        corpus = {
            "r0": Document("r0", "", "heart noise1"),
            "r1": Document("r1", "", "heart noise2"),
        }
        topic = Topic("T", list(corpus), {d: 1 for d in corpus})
        lex = frozenset({"heart"})
        fractions, _ = term_commonality(build_index(topic, corpus, "boc", pipeline, lexicon=lex))
        assert fractions == {"heart": 1.0}

    def test_no_relevant_is_error(self, pipeline):
        corpus = {"d": Document("d", "", "x")}
        topic = Topic("T", ["d"], {"d": 0})
        with pytest.raises(InsufficientDocumentsError):
            term_commonality(build_index(topic, corpus, "bow", pipeline))
