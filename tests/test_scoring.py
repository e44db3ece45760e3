import math

import pytest

from oracles import ref_gamma, ref_phi, ref_qlm_scores, ref_seed_driven_scores
from seedrank import (
    ConfigError,
    ContractError,
    EmbeddingTable,
    EmptyTopicError,
    ScoringParams,
    TermCounts,
    Topic,
    aes_score,
    bm25_score,
    build_stats,
    interpolate,
    minmax,
    phi_weights,
    rank,
    sdr_score,
    tfidf,
)
from seedrank.scoring import derive_rng, sort_scored
from seedrank.vectors import TfIdfVector

import numpy as np


def tc(**counts):
    return TermCounts(dict(counts), sum(counts.values()))


def vec(**weights):
    return TfIdfVector(dict(weights), math.sqrt(sum(w * w for w in weights.values())))


class TestScoringParams:
    @pytest.mark.parametrize("field, value", [
        ("jm_lambda", 1.0), ("aes_alpha", 1.5), ("bm25_k1", -0.1), ("bm25_b", 2.0), ("undersample_cap", 0),
    ])
    def test_out_of_range_is_config_error(self, field, value):
        with pytest.raises(ConfigError) as err:
            ScoringParams(**{field: value})
        assert err.value.field == field


class TestGamma:
    """The reference gamma that phi_weights is checked against."""

    def test_self_similarity(self):
        seed = {"a": 1.0, "b": 2.0}
        assert ref_gamma([seed], seed) == pytest.approx(1.0)

    def test_empty_subset(self):
        assert ref_gamma([], {"a": 1.0}) == 0.0

    def test_mean_of_cosines(self):
        seed = {"a": 1.0, "b": 1.0}
        d1 = {"a": 1.0}            # cosine 1/sqrt(2)
        d2 = {"c": 1.0}            # cosine 0
        assert ref_gamma([d1, d2], seed) == pytest.approx(0.35355339, abs=1e-6)


class TestPhi:
    # Two single-term candidates and a two-term seed: both partitions see the
    # same similarity, so the weight must be exactly neutral.
    def hand_setup(self):
        stats = build_stats({"d1": tc(a=1), "d2": tc(b=1)})
        seed_counts = tc(a=1, b=1)
        seed_vec = tfidf(seed_counts, stats)
        candidates = [
            (tc(a=1), tfidf(tc(a=1), stats)),
            (tc(b=1), tfidf(tc(b=1), stats)),
        ]
        return seed_counts, seed_vec, candidates

    def test_balanced_partitions_give_ln2(self, params):
        seed_counts, seed_vec, candidates = self.hand_setup()
        assert phi_weights(seed_counts, seed_vec, candidates, params)["a"] == pytest.approx(
            math.log(2), abs=1e-9
        )

    def test_empty_present_partition_gives_zero(self, params):
        seed_counts = tc(a=1, b=1)
        seed_vec = vec(a=1.0, b=1.0)
        candidates = [(tc(b=1), vec(b=1.0))]  # no candidate contains "a"
        assert phi_weights(seed_counts, seed_vec, candidates, params)["a"] == 0.0

    def test_double_similarity_gives_ln3(self, params):
        seed_counts = tc(a=1)
        seed_vec = vec(a=1.0)
        candidates = [
            (tc(a=1), vec(a=1.0)),                      # cosine 1.0
            (tc(b=1), vec(a=1.0, b=math.sqrt(3.0))),    # cosine 0.5
        ]
        result = phi_weights(seed_counts, seed_vec, candidates, params)["a"]
        assert result == pytest.approx(math.log(3), abs=1e-12)

    def test_term_in_every_candidate_is_neutral(self, params):
        seed_counts = tc(a=1)
        seed_vec = vec(a=1.0)
        candidates = [(tc(a=1), vec(a=1.0)), (tc(a=2), vec(a=2.0))]
        assert phi_weights(seed_counts, seed_vec, candidates, params)["a"] == pytest.approx(math.log(2))

    def test_phi_weights_matches_per_term_phi(self, params):
        rng = np.random.default_rng(7)
        terms = [f"t{i}" for i in range(12)]
        candidates = []
        for _ in range(30):
            chosen = rng.choice(terms, size=rng.integers(2, 6), replace=False)
            counts = tc(**{t: int(rng.integers(1, 4)) for t in chosen})
            candidates.append(counts)
        stats = build_stats({f"d{i}": c for i, c in enumerate(candidates)})
        pairs = [(c, tfidf(c, stats)) for c in candidates]
        seed_counts = tc(t0=2, t1=1, t5=1, t11=3)
        seed_vec = tfidf(seed_counts, stats)
        bulk = phi_weights(seed_counts, seed_vec, pairs, params)
        ref_pairs = [(c.counts, v.weights) for c, v in pairs]
        for term in seed_counts.counts:
            single = ref_phi(term, seed_vec.weights, ref_pairs)
            assert bulk[term] == pytest.approx(single, abs=1e-9)

    def test_undersampling_is_deterministic(self):
        params = ScoringParams(undersample_cap=5, rng_seed=42)
        candidates = []
        for i in range(40):
            term = "a" if i % 2 == 0 else "b"
            counts = tc(**{term: 1, f"u{i}": 1 + i % 5})  # varied weights, varied cosines
            candidates.append(counts)
        stats = build_stats({f"d{i}": c for i, c in enumerate(candidates)})
        pairs = [(c, tfidf(c, stats)) for c in candidates]
        seed_counts = tc(a=1, b=1)
        seed_vec = tfidf(seed_counts, stats)
        w1 = phi_weights(seed_counts, seed_vec, pairs, params, undersample=True, rng_key=("T", "g"))
        w2 = phi_weights(seed_counts, seed_vec, pairs, params, undersample=True, rng_key=("T", "g"))
        assert w1 == w2
        w3 = phi_weights(seed_counts, seed_vec, pairs, params, undersample=True, rng_key=("T", "other"))
        assert w3 != w1  # different sampling context, different samples


class TestQlmScore:
    """QLM is sdr_score with every seed term weighted 1."""

    def test_hand_example_ln3(self):
        # c(a, cand)=2, L=10, p(a|C)=0.1, lambda=0.5 -> ln 3
        params = ScoringParams(jm_lambda=0.5)
        cand = tc(a=2, x=8)
        stats = build_stats({"cand": cand, "other": tc(x=10)})
        assert stats.p_collection("a") == pytest.approx(0.1)
        score = sdr_score(tc(a=1), cand, stats, params, {"a": 1.0})
        assert score == pytest.approx(math.log(3), abs=1e-9)

    def test_empty_intersection(self, params):
        stats = build_stats({"d": tc(a=1)})
        assert sdr_score(tc(b=1), tc(a=1), stats, params, {"b": 1.0}) == 0.0

    def test_lambda_near_one_vanishes(self):
        stats = build_stats({"d": tc(a=3, b=2)})
        cand = tc(a=3, b=2)
        score = sdr_score(tc(a=1), cand, stats, ScoringParams(jm_lambda=0.999999), {"a": 1.0})
        assert abs(score) < 1e-4

    def test_monotone_in_candidate_count(self, params):
        seed = tc(a=1)
        scores = []
        for c in (1, 2, 3, 4):
            cand = tc(a=c, x=10 - c)
            stats = build_stats({"cand": cand, "o": tc(a=1, x=9)})
            scores.append(sdr_score(seed, cand, stats, params, {"a": 1.0}))
        assert scores == sorted(scores)


class TestSdrScore:
    def setup_scores(self, params):
        cands = {"d1": tc(a=2, b=1), "d2": tc(b=3), "d3": tc(a=1, c=4)}
        stats = build_stats(cands)
        seed = tc(a=1, b=2, c=1)
        return seed, cands, stats

    def test_unit_weights_reduce_to_qlm(self, params):
        seed, cands, stats = self.setup_scores(params)
        weights = {t: 1.0 for t in seed.counts}
        expected = ref_qlm_scores(seed.counts, {d: c.counts for d, c in cands.items()}, params.jm_lambda)
        for d, cand in cands.items():
            assert sdr_score(seed, cand, stats, params, weights) == pytest.approx(expected[d], abs=1e-9)

    def test_single_term_product(self, params):
        cand = tc(a=2, x=8)
        stats = build_stats({"cand": cand, "other": tc(x=10)})
        p = ScoringParams(jm_lambda=0.5)
        addend = sdr_score(tc(a=1), cand, stats, p, {"a": 1.0})
        weight = math.log(2)
        score = sdr_score(tc(a=1), cand, stats, p, {"a": weight})
        assert score == pytest.approx(weight * addend, abs=1e-9)
        assert score == pytest.approx(0.7614, abs=2e-4)  # ln2 * ln3

    def test_zero_weights_zero_score(self, params):
        seed, cands, stats = self.setup_scores(params)
        weights = {t: 0.0 for t in seed.counts}
        assert sdr_score(seed, cands["d1"], stats, params, weights) == 0.0

    def test_missing_weight_is_contract_error(self, params):
        seed, cands, stats = self.setup_scores(params)
        with pytest.raises(ContractError):
            sdr_score(seed, cands["d1"], stats, params, {"a": 1.0})


class TestBm25Score:
    def test_hand_example(self, params):
        # N=2, df=1 -> idf = ln 2; c=1 and L = avg_L make the tf factor 1.
        cand = tc(a=1, x=1)
        stats = build_stats({"cand": cand, "other": tc(y=1, z=1)})
        assert stats.avg_doc_length == cand.length
        assert bm25_score(tc(a=1), cand, stats, params) == pytest.approx(math.log(2), abs=1e-9)

    def test_empty_intersection(self, params):
        stats = build_stats({"d": tc(a=1)})
        assert bm25_score(tc(b=1), tc(a=1), stats, params) == 0.0

    def test_b_zero_removes_length_dependence(self):
        params = ScoringParams(bm25_b=0.0)
        short = tc(a=1, x=1)
        long = tc(a=1, **{f"y{i}": 1 for i in range(20)})
        stats = build_stats({"s": short, "l": long})
        assert bm25_score(tc(a=1), short, stats, params) == pytest.approx(
            bm25_score(tc(a=1), long, stats, params)
        )


class TestAesScore:
    TABLE = EmbeddingTable(2, {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])})

    def test_identical_token_lists(self):
        assert aes_score(["a", "b"], ["a", "b"], self.TABLE) == pytest.approx(1.0)

    def test_seed_all_oov(self):
        assert aes_score(["zz"], ["a"], self.TABLE) == 0.0

    def test_hand_example(self):
        assert aes_score(["a"], ["a", "b"], self.TABLE) == pytest.approx(0.7071067811, abs=1e-9)


class TestMinMax:
    def test_linear_rescale(self):
        out = dict(minmax([("d1", 2.0), ("d2", 4.0), ("d3", 6.0)]))
        assert out == {"d1": 0.0, "d2": 0.5, "d3": 1.0}

    def test_constant_scores(self):
        assert dict(minmax([("d1", 3.0), ("d2", 3.0)])) == {"d1": 0.0, "d2": 0.0}

    def test_singleton(self):
        assert minmax([("d1", 5.0)]) == [("d1", 0.0)]

    def test_empty_is_error(self):
        with pytest.raises(ContractError):
            minmax([])


class TestInterpolate:
    def test_alpha_mixes(self):
        out = dict(interpolate([("d", 1.0), ("e", 0.0)], [("d", 0.0), ("e", 1.0)], 0.3))
        assert out["d"] == pytest.approx(0.7)
        assert out["e"] == pytest.approx(0.3)

    def test_alpha_zero_keeps_first_ordering(self):
        sdr = [("d1", 1.0), ("d2", 0.4), ("d3", 0.0)]
        aes = [("d3", 1.0), ("d2", 0.5), ("d1", 0.0)]
        assert [d for d, _ in interpolate(sdr, aes, 0.0)] == [d for d, _ in sdr]
        assert [d for d, _ in interpolate(sdr, aes, 1.0)] == [d for d, _ in aes]

    def test_mismatched_doc_sets(self):
        with pytest.raises(ContractError):
            interpolate([("d1", 1.0)], [("d2", 1.0)], 0.3)


class TestSortScored:
    def test_tie_break_by_doc_id(self):
        assert sort_scored({"b": 1.0, "a": 1.0, "c": 2.0}) == [("c", 2.0), ("a", 1.0), ("b", 1.0)]


class TestDeriveRng:
    def test_stable_and_distinct(self):
        a = derive_rng(1, "T", "x").integers(0, 1_000_000, size=5)
        b = derive_rng(1, "T", "x").integers(0, 1_000_000, size=5)
        c = derive_rng(1, "T", "y").integers(0, 1_000_000, size=5)
        assert list(a) == list(b)
        assert list(a) != list(c)


class TestRank:
    def test_only_shared_terms_rank_first(self, params, pipeline):
        from seedrank import Document

        corpus = {
            "s": Document("s", "", "aspirin heart"),
            "d1": Document("d1", "", "aspirin trial"),
            "d2": Document("d2", "", "unrelated words"),
        }
        topic = Topic("T1", ["s", "d1", "d2"], {"s": 1, "d1": 1})
        entries = rank(topic, corpus, ["s"], "qlm", "bow", params, pipeline)
        assert entries[0].doc_id == "d1" and entries[0].rank == 1
        assert {e.doc_id for e in entries} == {"d1", "d2"}

    def test_sdr_matches_reference_script(self, params, pipeline, hand_corpus, hand_topic):
        from seedrank.text import bow

        entries = rank(hand_topic, hand_corpus, ["s"], "sdr", "bow", params, pipeline)
        assert [e.doc_id for e in entries] == ["c1", "c3", "c2", "c4"]  # frozen from the oracle

        counts = {d: bow(doc, pipeline).counts for d, doc in hand_corpus.items()}
        seed_counts = counts.pop("s")
        expected = ref_seed_driven_scores(seed_counts, counts, params.jm_lambda)
        for entry in entries:
            assert entry.score == pytest.approx(expected[entry.doc_id], abs=1e-9)

    def test_qlm_matches_reference_script(self, params, pipeline, hand_corpus, hand_topic):
        from seedrank.text import bow

        entries = rank(hand_topic, hand_corpus, ["s"], "qlm", "bow", params, pipeline)
        counts = {d: bow(doc, pipeline).counts for d, doc in hand_corpus.items()}
        seed_counts = counts.pop("s")
        expected = ref_qlm_scores(seed_counts, counts, params.jm_lambda)
        for entry in entries:
            assert entry.score == pytest.approx(expected[entry.doc_id], abs=1e-9)

    def test_runs_are_reproducible(self, params, pipeline, hand_corpus, hand_topic):
        a = rank(hand_topic, hand_corpus, ["s"], "sdr", "bow", params, pipeline)
        b = rank(hand_topic, hand_corpus, ["s"], "sdr", "bow", params, pipeline)
        assert a == b

    def test_empty_topic_after_exclusion(self, params, pipeline):
        from seedrank import Document

        corpus = {"s": Document("s", "", "x")}
        topic = Topic("T1", ["s"], {"s": 1})
        with pytest.raises(EmptyTopicError):
            rank(topic, corpus, ["s"], "qlm", "bow", params, pipeline)

    def test_candidate_missing_from_corpus(self, params, pipeline, hand_corpus):
        topic = Topic("T1", ["s", "c1", "ghost"], {"s": 1, "c1": 1})
        with pytest.raises(ContractError, match="ghost"):
            rank(topic, hand_corpus, ["s"], "qlm", "bow", params, pipeline)

    def test_boc_requires_lexicon(self, params, pipeline, hand_corpus, hand_topic):
        with pytest.raises(ContractError):
            rank(hand_topic, hand_corpus, ["s"], "qlm", "boc", params, pipeline)

    def test_aes_requires_embeddings(self, params, pipeline, hand_corpus, hand_topic):
        with pytest.raises(ContractError):
            rank(hand_topic, hand_corpus, ["s"], "aes", "bow", params, pipeline)

    def test_interpolated_ranking_runs(self, params, pipeline, hand_corpus, hand_topic):
        dim = 3
        vocab = {"heart": [1.0, 0, 0], "aspirin": [0, 1.0, 0], "stroke": [0, 0, 1.0]}
        table = EmbeddingTable(dim, {t: np.array(v) for t, v in vocab.items()})
        entries = rank(
            hand_topic, hand_corpus, ["s"], "sdr+aes", "bow", params, pipeline, embeddings=table
        )
        assert len(entries) == 4
        scores = [e.score for e in entries]
        assert scores == sorted(scores, reverse=True)
