import hashlib
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    ref_counts,
    ref_gamma,
    ref_phi,
    ref_qlm_scores,
    ref_seed_driven_scores,
    ref_tfidf,
    reference_choice,
    reference_derive_rng,
    reference_u32,
    sort_scored,
)
from seedrank import (
    ConfigError,
    ContractError,
    Document,
    EmbeddingTable,
    EmptyTopicError,
    PipelineConfig,
    ScoringParams,
    Topic,
    aes_score,
    bm25_score,
    build_index,
    build_stats,
    interpolate,
    minmax,
    phi_weights,
    rank,
    sdr_score,
)
from seedrank.corpus import doc_order, rank_order
from seedrank.scoring import (
    _keyed_states,
    _phi_from_gammas,
    _seed_sequence_states,
    keyed_samples,
)
import seedrank.scoring
from seedrank.vectors import seed_similarities
from synth import by_term, count_index, synth_collection, tokenize

from conftest import unit_lines


def tc(**counts):
    return dict(counts)


def unit(seed_ids=("s",), **docs):
    """Statistics of the unit ranking the hand-built docs against ``seed_ids``."""
    return build_stats(count_index(**docs), list(seed_ids))


def per_doc(stats, scores):
    return {stats.index.doc_ids[row]: score for row, score in zip(stats.candidates.tolist(), scores)}


class TestScoringParams:
    @pytest.mark.parametrize("field, value", [
        ("jm_lambda", 1.0), ("aes_alpha", 1.5), ("bm25_k1", -0.1), ("bm25_b", 2.0), ("undersample_cap", 0),
        ("bm25_k1", math.nan), ("bm25_k1", math.inf),
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
    def test_balanced_partitions_give_ln2(self, params):
        # Two single-term candidates and a two-term seed: both partitions see
        # the same similarity, so the weight must be exactly neutral.
        stats = unit(s=tc(a=1, b=1), d1=tc(a=1), d2=tc(b=1))
        assert by_term(stats, phi_weights(stats, params))["a"] == pytest.approx(math.log(2), abs=1e-9)

    def test_empty_present_partition_gives_zero(self, params):
        # No candidate holds "a"; d1 shares "b" with the seed, so the rest is seed-like.
        stats = unit(s=tc(a=1, b=1), d1=tc(b=1), d2=tc(c=1))
        assert by_term(stats, phi_weights(stats, params))["a"] == 0.0

    def test_double_similarity_gives_ln3(self, params):
        # d1 and d2 have cosine 1/sqrt(2) to the seed, d3 has 0: "a" splits
        # {d1} (mean 1/sqrt(2)) from {d2, d3} (mean half that).
        stats = unit(s=tc(a=1, b=1), d1=tc(a=1), d2=tc(b=1), d3=tc(x=1))
        result = by_term(stats, phi_weights(stats, params))["a"]
        assert result == pytest.approx(math.log(3), abs=1e-12)

    def test_term_in_every_candidate_is_neutral(self, params):
        stats = unit(s=tc(a=1), d1=tc(a=1), d2=tc(a=2))
        assert by_term(stats, phi_weights(stats, params))["a"] == pytest.approx(math.log(2))

    def test_phi_weights_matches_per_term_phi(self, params):
        rng = np.random.default_rng(7)
        terms = [f"t{i}" for i in range(12)]
        candidates = []
        for _ in range(30):
            chosen = rng.choice(terms, size=rng.integers(2, 6), replace=False)
            candidates.append(tc(**{t: int(rng.integers(1, 4)) for t in chosen}))
        seed = tc(t0=2, t1=1, t5=1, t11=3)
        stats = unit(s=seed, **{f"d{i}": c for i, c in enumerate(candidates)})
        bulk = by_term(stats, phi_weights(stats, params))
        seed_vec = ref_tfidf(seed, candidates)
        ref_pairs = [(c, ref_tfidf(c, candidates)) for c in candidates]
        for term in seed:
            assert bulk[term] == pytest.approx(ref_phi(term, seed_vec, ref_pairs), abs=1e-9)

    def test_undersampling_is_deterministic(self):
        params = ScoringParams(undersample_cap=5, rng_seed=42)
        candidates = {}
        for i in range(40):
            term = "a" if i % 2 == 0 else "b"
            candidates[f"d{i}"] = tc(**{term: 1, f"u{i}": 1 + i % 5})  # varied weights, varied cosines
        stats = unit(s=tc(a=1, b=1), **candidates)
        w1 = phi_weights(stats, params, undersample=True, rng_key=("T", "g"))
        w2 = phi_weights(stats, params, undersample=True, rng_key=("T", "g"))
        assert list(w1) == list(w2)
        w3 = phi_weights(stats, params, undersample=True, rng_key=("T", "other"))
        assert list(w3) != list(w1)  # different sampling context, different samples

    def test_unit_of_2_23_candidates_is_contract_error(self, params):
        # A complement's hi part is exact only for sums of fewer than 2**23 cosines.
        stats = unit(s=tc(a=1), d1=tc(a=1), d2=tc(b=1))
        with pytest.raises(ContractError, match=r"'T'.*2\*\*23"):
            phi_weights(replace(stats, num_docs=2**23), params)


def qlm(stats, params):
    return per_doc(stats, sdr_score(stats, params, np.ones(len(stats.seed_terms))))


class TestQlmScore:
    """QLM is sdr_score with every seed term weighted 1."""

    def test_hand_example_ln3(self):
        # c(a, cand)=2, L=10, p(a|C)=0.1, lambda=0.5 -> ln 3
        stats = unit(s=tc(a=1), cand=tc(a=2, x=8), other=tc(x=10))
        assert by_term(stats, stats.collection_counts)["a"] / stats.total_tokens == pytest.approx(0.1)
        assert qlm(stats, ScoringParams(jm_lambda=0.5))["cand"] == pytest.approx(math.log(3), abs=1e-9)

    def test_empty_intersection(self, params):
        assert qlm(unit(s=tc(b=1), d=tc(a=1)), params)["d"] == 0.0

    def test_lambda_near_one_vanishes(self):
        score = qlm(unit(s=tc(a=1), d=tc(a=3, b=2)), ScoringParams(jm_lambda=0.999999))["d"]
        assert abs(score) < 1e-4

    def test_monotone_in_candidate_count(self, params):
        scores = []
        for c in (1, 2, 3, 4):
            scores.append(qlm(unit(s=tc(a=1), cand=tc(a=c, x=10 - c), o=tc(a=1, x=9)), params)["cand"])
        assert scores == sorted(scores)


class TestSdrScore:
    CANDIDATES = {"d1": tc(a=2, b=1), "d2": tc(b=3), "d3": tc(a=1, c=4)}
    SEED = tc(a=1, b=2, c=1)

    def test_unit_weights_reduce_to_qlm(self, params):
        stats = unit(s=self.SEED, **self.CANDIDATES)
        expected = ref_qlm_scores(self.SEED, self.CANDIDATES, params.jm_lambda)
        for d, score in qlm(stats, params).items():
            assert score == pytest.approx(expected[d], abs=1e-9)

    def test_single_term_product(self):
        stats = unit(s=tc(a=1), cand=tc(a=2, x=8), other=tc(x=10))
        p = ScoringParams(jm_lambda=0.5)
        addend = qlm(stats, p)["cand"]
        weight = math.log(2)
        score = per_doc(stats, sdr_score(stats, p, np.array([weight])))["cand"]
        assert score == pytest.approx(weight * addend, abs=1e-9)
        assert score == pytest.approx(0.7614, abs=2e-4)  # ln2 * ln3

    def test_zero_weights_zero_score(self, params):
        stats = unit(s=self.SEED, **self.CANDIDATES)
        assert per_doc(stats, sdr_score(stats, params, np.zeros(3)))["d1"] == 0.0

    def test_missing_weight_is_contract_error(self, params):
        stats = unit(s=self.SEED, **self.CANDIDATES)
        with pytest.raises(ContractError):
            sdr_score(stats, params, np.ones(1))


class TestBm25Score:
    def test_hand_example(self, params):
        # N=2, df=1 -> idf = ln 2; c=1 and L = avg_L make the tf factor 1.
        stats = unit(s=tc(a=1), cand=tc(a=1, x=1), other=tc(y=1, z=1))
        assert stats.total_tokens / stats.num_docs == 2
        assert per_doc(stats, bm25_score(stats, params))["cand"] == pytest.approx(math.log(2), abs=1e-9)

    def test_empty_intersection(self, params):
        stats = unit(s=tc(b=1), d=tc(a=1))
        assert per_doc(stats, bm25_score(stats, params))["d"] == 0.0

    def test_b_zero_removes_length_dependence(self):
        params = ScoringParams(bm25_b=0.0)
        stats = unit(s=tc(a=1), short=tc(a=1, x=1), long=tc(a=1, **{f"y{i}": 1 for i in range(20)}))
        scores = per_doc(stats, bm25_score(stats, params))
        assert scores["short"] == pytest.approx(scores["long"])


class TestAesScore:
    TABLE = EmbeddingTable(np.array([[1.0, 0.0], [0.0, 1.0]]), {"alpha": 0, "beta": 1})

    def aes(self, seed_ids, **texts):
        corpus = {d: Document(d, "", text) for d, text in texts.items()}
        index = build_index(Topic("T", list(corpus)), corpus, "bow", PipelineConfig(), embeddings=self.TABLE)
        stats = build_stats(index, seed_ids)
        return per_doc(stats, aes_score(stats))

    def mean_of(self, tokens):
        """The mean of the tokens' vectors, one occurrence at a time."""
        vectors = [self.TABLE.matrix[self.TABLE.row(t)] for t in tokens if self.TABLE.row(t) is not None]
        return sum(vectors) / len(vectors)

    def test_identical_token_lists(self):
        assert self.aes(["s"], s="alpha beta", c="alpha beta")["c"] == pytest.approx(1.0)

    def test_seed_all_oov(self):
        assert self.aes(["s"], s="zz", c="alpha")["c"] == 0.0

    def test_hand_example(self):
        assert self.aes(["s"], s="alpha", c="alpha beta")["c"] == pytest.approx(0.7071067811, abs=1e-9)

    def test_seed_group_is_mean_over_concatenated_tokens(self):
        score = self.aes(["s1", "s2"], s1="alpha", s2="beta beta zz", c="alpha beta")["c"]
        seed_vec = self.mean_of(tokenize("alpha beta beta zz", PipelineConfig()))
        cand_vec = self.mean_of(["alpha", "beta"])
        expected = seed_vec @ cand_vec / (np.linalg.norm(seed_vec) * np.linalg.norm(cand_vec))
        assert score == pytest.approx(expected, abs=1e-12)


class TestMinMax:
    def test_linear_rescale(self):
        assert list(minmax(np.array([2.0, 4.0, 6.0]))) == [0.0, 0.5, 1.0]

    def test_constant_scores(self):
        assert list(minmax(np.array([3.0, 3.0]))) == [0.0, 0.0]

    def test_singleton(self):
        assert list(minmax(np.array([5.0]))) == [0.0]

    def test_empty_is_error(self):
        with pytest.raises(ContractError):
            minmax(np.array([]))


class TestInterpolate:
    def test_alpha_mixes(self):
        out = interpolate(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.3)
        assert out[0] == pytest.approx(0.7)
        assert out[1] == pytest.approx(0.3)

    def test_alpha_zero_keeps_first_ordering(self):
        sdr = np.array([1.0, 0.4, 0.0])
        aes = np.array([0.0, 0.5, 1.0])
        assert list(interpolate(sdr, aes, 0.0)) == list(sdr)
        assert list(interpolate(sdr, aes, 1.0)) == list(aes)

    def test_mismatched_doc_sets(self):
        with pytest.raises(ContractError):
            interpolate(np.array([1.0]), np.array([1.0, 0.0]), 0.3)


class TestSortScored:
    def test_tie_break_by_doc_id(self):
        # The oracle's rule, and rank_order's on the same scores.
        scores = {"b": 1.0, "a": 1.0, "c": 2.0}
        assert sort_scored(scores) == [("c", 2.0), ("a", 1.0), ("b", 1.0)]
        doc_ids = tuple(scores)
        rows, ranked = rank_order(np.arange(3), np.array(list(scores.values())), doc_order(doc_ids))
        assert [(doc_ids[r], s) for r, s in zip(rows.tolist(), ranked.tolist())] == sort_scored(scores)


def reference_phi_weights(stats, params, *, undersample=False, rng_key=(), cos=None):
    """phi_weights as a per-term loop: one generator, mask copy and 1-D sum per term.

    A term no candidate holds derives no generator: its complement, every candidate, is not sampled.
    ``cos`` stands in for the unit's seed cosines when given.
    """
    cos = seed_similarities(stats) if cos is None else cos
    n = stats.num_docs
    cap = params.undersample_cap
    terms = stats.index.terms
    bounds = np.searchsorted(stats.posting_terms, np.arange(len(stats.seed_terms) + 1))
    weights = np.empty(len(stats.seed_terms))
    for k, column in enumerate(stats.seed_terms.tolist()):
        present = stats.posting_positions[bounds[k] : bounds[k + 1]]
        n_present = len(present)
        n_absent = n - n_present
        rng = None
        if undersample and n_present and (n_present > cap or n_absent > cap):
            rng = reference_derive_rng(params.rng_seed, *rng_key, terms[column])
        if rng is not None and n_present > cap:
            chosen = rng.choice(n_present, size=cap, replace=False)
            g_present = float(cos[present[chosen]].sum()) / cap
        elif n_present:
            g_present = float(cos[present].sum()) / n_present
        else:
            g_present = 0.0
        if n_absent:
            # Sum the complement directly: deriving it from the total cancels
            # catastrophically and can turn an exact zero into noise.
            mask = np.ones(n, dtype=bool)
            mask[present] = False
            absent = np.flatnonzero(mask)
            if rng is not None and n_absent > cap:
                chosen = rng.choice(n_absent, size=cap, replace=False)
                g_absent = float(cos[absent[chosen]].sum()) / cap
            else:
                g_absent = float(cos[absent].sum()) / n_absent
        else:
            g_absent = 0.0
        weights[k] = _phi_from_gammas(g_present, g_absent)
    return weights


def synth_units(seed, n_docs, overlap):
    """Single-seed and seed-group units over a tests/synth.py collection."""
    topics, corpus = synth_collection(seed, 2, n_docs, vocab_size=300, n_relevant=6, irrelevant_overlap=overlap)
    for topic in topics:
        index = build_index(topic, corpus, "bow", PipelineConfig())
        relevant = topic.relevant_ids
        for seeds in (relevant[:1], relevant[1:4], [topic.candidate_ids[-1]]):
            yield build_stats(index, seeds), (topic.topic_id, "+".join(seeds))


def edge_unit():
    """A term in every candidate (c), one in none (b), and one whose complement has cosine 0 everywhere (a)."""
    docs = {"s": tc(a=1, b=1, c=1)}
    docs.update({f"d{i}": tc(a=1, c=1, **{f"u{i}": 1 + i % 3}) for i in range(8)})
    docs.update({f"e{i}": tc(c=1, x=1) for i in range(4)})
    return build_stats(count_index(**docs), ["s"])


# phi_weights against the per-term loop. A sampled partition draws and adds the same cosines in the
# same order, so a term with both sides sampled matches bit for bit. An unsampled partition's sum comes
# from per-term totals. A present sum is within m units of 2**-53 of the loop's, relative, over m
# candidates. A complement's lo part cancels against at most n * 2**-31 of |lo| over the unit's n
# candidates, so a complement above 2**-31 is within about 2 * n**2 units, relative; one with no
# cosine above 2**-31 is summed as the loop sums it. phi = ln(1 + r) moves by at most r's relative
# error, plus one rounding of 1 + r. 2**-45 is 256 units: it holds every unit of at most 8
# candidates, and the synth units (90 to 160 candidates) measured 6.4e-16 at most.
PHI_RTOL = 2.0**-45


def fully_sampled(stats, cap):
    """The seed terms whose present side and complement are both sampled down to ``cap``."""
    present = np.bincount(stats.posting_terms, minlength=len(stats.seed_terms))
    return (present > cap) & (stats.num_docs - present > cap)


def assert_phi_matches(got, expected, sampled):
    """Bit for bit on the ``sampled`` terms, within PHI_RTOL on the others."""
    assert got[sampled].tobytes() == expected[sampled].tobytes()
    assert np.all((got == expected) | (np.abs(got - expected) <= PHI_RTOL * np.abs(expected) + 2.0**-52))


# A cosine is 0, below 2**-31 (hi is 0 and lo is not) or up to 1. 2**-900 keeps every sum and ratio
# clear of subnormals and overflow, where relative rounding bounds do not hold.
COSINES = st.one_of(st.just(0.0), st.floats(2.0**-900, 2.0**-31), st.floats(2.0**-31, 1.0))


@st.composite
def hand_units(draw):
    """(holds, cosines): which of up to 4 seed terms each of 1 to 8 candidates holds, and its seed cosine."""
    n, k = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    holds = draw(st.lists(st.lists(st.booleans(), min_size=k, max_size=k), min_size=n, max_size=n))
    return holds, draw(st.lists(COSINES, min_size=n, max_size=n))


class TestPhiBitIdentity:
    """phi_weights gives the per-term loop's weights: bit for bit where both sides are sampled, else within PHI_RTOL."""

    @pytest.mark.parametrize("cap", [1, 5, 50])
    @pytest.mark.parametrize("undersample", [False, True])
    @pytest.mark.parametrize("seed, n_docs, overlap", [(11, 90, 0.3), (12, 160, 0.1)])
    def test_synth_collections(self, seed, n_docs, overlap, undersample, cap):
        params = ScoringParams(undersample_cap=cap, rng_seed=seed)
        for stats, key in synth_units(seed, n_docs, overlap):
            got = phi_weights(stats, params, undersample=undersample, rng_key=key)
            expected = reference_phi_weights(stats, params, undersample=undersample, rng_key=key)
            sampled = fully_sampled(stats, cap) & undersample
            if undersample and cap == 1:
                assert sampled.any()
            assert_phi_matches(got, expected, sampled)
            assert np.array_equal(got == 0.0, expected == 0.0)
            assert np.array_equal(got == math.log(2), expected == math.log(2))

    @pytest.mark.parametrize("cap", [1, 5, 50])
    @pytest.mark.parametrize("undersample", [False, True])
    def test_edge_partitions(self, undersample, cap):
        stats = edge_unit()
        params = ScoringParams(undersample_cap=cap)
        got = phi_weights(stats, params, undersample=undersample, rng_key=("T", "s"))
        expected = reference_phi_weights(stats, params, undersample=undersample, rng_key=("T", "s"))
        assert_phi_matches(got, expected, fully_sampled(stats, cap) & undersample)
        weights = by_term(stats, got)
        assert weights["a"] == weights["c"] == math.log(2)  # zero-cosine complement; no complement
        assert weights["b"] == 0.0  # no candidate holds it

    @given(hand_units(), st.booleans(), st.integers(1, 3))
    @example(([[True], [True], [False], [False]], [0.5, 0.3, 0.0, 0.0]), False, 1)  # an all-zero complement
    @example(([[True], [True], [True], [False]], [0.2, 0.7, 0.1, 0.4]), False, 1)  # held by all but one
    @example(([[True, False]], [0.6]), True, 1)  # one candidate
    @example(([[True], [True], [False], [False]], [0.3, 0.7, 1e-12, 3e-20]), False, 1)  # complement below 2**-31
    @example(([[True], [False]], [0.3, 1e-200]), False, 1)  # ... that the total absorbs
    @example(([[True], [False]], [0.9, 1e-9]), False, 1)  # a complement far below the total
    @example(([[False, True], [False, False], [False, True]], [0.3, 2e-10, 0.0]), True, 1)  # unheld term
    def test_hand_made_units(self, unit_spec, undersample, cap):
        # The same cosines go to both, so only the summation differs.
        holds, cos = unit_spec
        cos = np.array(cos)
        docs = {"s": {f"t{j}": 1 for j in range(len(holds[0]))}}
        docs.update({f"d{i}": {**{f"t{j}": 1 for j, h in enumerate(row) if h}, f"u{i}": 1} for i, row in enumerate(holds)})
        stats = build_stats(count_index(**docs), ["s"])
        params = ScoringParams(undersample_cap=cap)
        with mock.patch.object(seedrank.scoring, "seed_similarities", lambda _: cos):
            got = phi_weights(stats, params, undersample=undersample, rng_key=("T", "s"))
        expected = reference_phi_weights(stats, params, undersample=undersample, rng_key=("T", "s"), cos=cos)
        assert_phi_matches(got, expected, fully_sampled(stats, cap) & undersample)
        # With neither side sampled, the 0 and ln 2 rules hold exactly.
        weights = by_term(stats, got)
        for j, column in enumerate(zip(*holds)):
            held = np.array(column)
            m = np.count_nonzero(held)
            if undersample and (m > cap or (m and len(cos) - m > cap)):
                continue
            if not cos[~held].any():
                assert weights[f"t{j}"] == math.log(2)
            elif not cos[held].any():
                assert weights[f"t{j}"] == 0.0


class TestNoDrawForUnheldTerms:
    """A seed term that no candidate holds derives no keyed state and draws nothing."""

    def test_no_name_derived_for_a_term_no_candidate_holds(self):
        names = []

        def keyed_states(prefix, batch):
            names.extend(batch)
            return real_keyed_states(prefix, batch)

        real_keyed_states = seedrank.scoring._keyed_states
        params = ScoringParams(undersample_cap=1)
        with mock.patch.object(seedrank.scoring, "_keyed_states", keyed_states):
            for stats, key in synth_units(11, 90, 0.3):
                names.clear()
                phi_weights(stats, params, undersample=True, rng_key=key)
                held = set(stats.posting_terms.tolist())
                unheld = {stats.index.terms[c] for k, c in enumerate(stats.seed_terms.tolist()) if k not in held}
                assert unheld and names and unheld.isdisjoint(names)
                assert len(names) == len(held)  # with a cap of 1, every held term draws

    def test_one_keyed_state_call_per_unit_across_blocks(self):
        calls = []

        def keyed_states(prefix, batch):
            calls.append(len(batch))
            return real_keyed_states(prefix, batch)

        real_keyed_states = seedrank.scoring._keyed_states
        params = ScoringParams(undersample_cap=1)
        for stats, key in synth_units(11, 90, 0.3):
            whole = phi_weights(stats, params, undersample=True, rng_key=key)
            calls.clear()
            with mock.patch.object(seedrank.vectors, "BLOCK_BYTES", 2**10), \
                    mock.patch.object(seedrank.scoring, "_keyed_states", keyed_states):
                blocked = phi_weights(stats, params, undersample=True, rng_key=key)
            # With a cap of 1, every held term draws; 2**10 bytes hold fewer than 10 of them.
            assert calls == [len(set(stats.posting_terms.tolist()))] and calls[0] > 10
            assert blocked.tobytes() == whole.tobytes()

    def test_edge_unit_unheld_term_is_zero(self):
        stats = edge_unit()
        for undersample in (False, True):
            weights = by_term(stats, phi_weights(stats, ScoringParams(undersample_cap=1), undersample=undersample))
            assert weights["b"] == 0.0

    def test_zero_cosines_give_an_unheld_term_ln2(self):
        # "c" is in every candidate, so its idf is 0 and every cosine is 0; nobody holds "a".
        stats = unit(s=tc(a=1, c=1), **{f"d{i}": tc(c=1, **{f"u{i}": 1}) for i in range(6)})
        assert not seed_similarities(stats).any()
        weights = by_term(stats, phi_weights(stats, ScoringParams(undersample_cap=2), undersample=True))
        assert weights["a"] == math.log(2)


class TestKeyedStreams:
    PREFIX = (7, "CD008", "s1+s2")

    @staticmethod
    def words(*parts):
        digest = hashlib.blake2b("\x1f".join(str(p) for p in parts).encode("utf-8"), digest_size=16)
        return np.frombuffer(digest.digest(), dtype=np.uint64)

    @pytest.fixture(scope="class")
    def names(self):
        rng = np.random.default_rng(5)
        names = ["i\u0307stanbul", "İstanbul", "", "0", "007", "12345678901234567890", "x" * 500, "a b\x1fc", "β-blocker"]
        names += [f"term{i}" for i in range(600)] + [str(int(v)) for v in rng.integers(0, 10**12, 300)]
        names += ["".join(map(chr, rng.integers(0x20, 0x3000, int(rng.integers(1, 40))))) for _ in range(200)]
        return names

    def test_states_equal_seed_sequence(self, names):
        expected = [np.random.SeedSequence(self.words(*self.PREFIX, name)).generate_state(4, np.uint64) for name in names]
        assert np.array_equal(_keyed_states(self.PREFIX, names), np.array(expected))

    def test_short_words_pad_as_seed_sequence_does(self):
        # SeedSequence drops a zero high half of a uint64 word, which shifts the later words.
        words = np.array([[0, 0], [5, 1 << 40], [1 << 40, 3], [7, 9], [0, 1 << 63], [2**64 - 1, 1]], dtype=np.uint64)
        expected = [np.random.SeedSequence(w).generate_state(4, np.uint64) for w in words]
        assert np.array_equal(_seed_sequence_states(words), np.array(expected))

    def test_draws_equal_derive_rng(self, names):
        sizes = [120, 7, 500]
        for name, samples in zip(names, keyed_samples(self.PREFIX, names, [sizes] * len(names), 7)):
            rng = reference_derive_rng(*self.PREFIX, name)
            assert [s.tolist() for s in samples] == [rng.choice(size, size=7, replace=False).tolist() for size in sizes]

    def test_no_names(self):
        assert list(keyed_samples(self.PREFIX, [], [], 3)) == []

    def test_states_mixed_once_and_each_name_drawn_when_taken(self, names):
        # phi reads the samples block by block: a name's draws wait for it, the keyed states do not.
        calls, taken = [], []

        def keyed_states(prefix, batch):
            calls.append(len(batch))
            return real_keyed_states(prefix, batch)

        def populations():
            for i in range(len(names)):
                taken.append(i)
                yield [10]

        real_keyed_states = seedrank.scoring._keyed_states
        with mock.patch.object(seedrank.scoring, "_keyed_states", keyed_states):
            samples = keyed_samples(self.PREFIX, names, populations(), 2)
            assert calls == [] and taken == []
            next(samples)
            assert calls == [len(names)] and taken == [0]
            assert len(list(samples)) == len(names) - 1
        assert calls == [len(names)]


@st.composite
def sample_shapes(draw):
    """A sample size k and population sizes of at least k, some above 10000: Floyd's and the tail-shuffle branch."""
    k = draw(st.integers(1, 300))
    sizes = draw(st.lists(st.one_of(st.integers(k, k + 80), st.integers(max(k, 10001), 16000)), min_size=1, max_size=4))
    return k, sizes


class TestReferenceChoice:
    """``keyed_samples`` draws what ``oracles.reference_choice`` writes out, on the oracle's keyed stream."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.lists(st.text(max_size=6), min_size=1, max_size=3), sample_shapes())
    @example(0, ["x"], (250, [12000, 300, 10049]))  # tail, Floyd, tail: 10049 // 50 = 200 < 250
    @example(3, ["y"], (201, [10050, 10049, 201]))  # Floyd at 10050 // 50 = 201, tail one below; k = size
    def test_keyed_samples_equal_reference_choice(self, rng_seed, names, shape):
        k, sizes = shape
        for name, samples in zip(names, keyed_samples((rng_seed, "T"), names, [sizes] * len(names), k)):
            next_u32 = reference_u32(rng_seed, "T", name)
            assert [s.tolist() for s in samples] == [reference_choice(next_u32, size, k) for size in sizes]

    def test_rejected_words_are_drawn_again(self):
        # Near 2**32, Lemire's method rejects about half of the words: the oracle must redraw as numpy does.
        sizes = [2**32 - 1, 3 * 2**30, 2**31 + 1]
        samples = next(keyed_samples((5,), ["z"], [sizes], 3))
        words = []
        stream = reference_u32(5, "z")

        def next_u32():
            words.append(stream())
            return words[-1]

        assert [s.tolist() for s in samples] == [reference_choice(next_u32, size, 3) for size in sizes]
        assert len(words) > len(sizes) * (3 + 2)  # k Floyd draws and k - 1 shuffle draws per size, plus redraws


class TestDeriveRng:
    """The streams ``keyed_samples`` draws from for the key (*prefix, name)."""

    @staticmethod
    def sample(*parts, size=100, k=5):
        (picks,) = next(keyed_samples(parts[:-1], parts[-1:], [[size]], k))
        return picks.tolist()

    def test_stable_and_distinct(self):
        a = self.sample(1, "T", "x", size=1_000_000)
        assert a == self.sample(1, "T", "x", size=1_000_000)
        assert a != self.sample(1, "T", "y", size=1_000_000)

    @pytest.mark.parametrize("parts, integers, chosen", [
        ((1, "T", "x"), [679203, 804149, 601159, 750288, 783538], [78, 58, 65, 74, 99]),
        ((1, "T", "y"), [420377, 812303, 596878, 666254, 110202], [78, 11, 58, 40, 65]),
        ((0, "T000", "a+b", "i\u0307stanbul"), [511950, 123012, 873798, 350820, 253311], [49, 25, 11, 34, 85]),
        ((42, ""), [326644, 815275, 962663, 830262, 612185], [61, 82, 79, 94, 31]),
    ])
    def test_golden_streams(self, parts, integers, chosen):
        # Recorded from the blake2b -> np.random.default_rng derivation; a change here changes every sample.
        assert self.sample(*parts) == chosen
        assert reference_choice(reference_u32(*parts), 100, 5) == chosen
        assert reference_derive_rng(*parts).integers(0, 1_000_000, size=5).tolist() == integers


class TestRank:
    def test_only_shared_terms_rank_first(self, params, pipeline):
        corpus = {
            "s": Document("s", "", "aspirin heart"),
            "d1": Document("d1", "", "aspirin trial"),
            "d2": Document("d2", "", "unrelated words"),
        }
        topic = Topic("T1", ["s", "d1", "d2"], {"s": 1, "d1": 1})
        entries = unit_lines(rank(build_index(topic, corpus, "bow", pipeline), ["s"], "qlm", params))
        assert entries[0][:2] == ("d1", 1)
        assert {doc_id for doc_id, _, _ in entries} == {"d1", "d2"}

    def test_sdr_matches_reference_script(self, params, pipeline, hand_corpus, hand_topic):
        entries = unit_lines(rank(build_index(hand_topic, hand_corpus, "bow", pipeline), ["s"], "sdr", params))
        assert [doc_id for doc_id, _, _ in entries] == ["c1", "c3", "c2", "c4"]  # frozen from the oracle

        counts = {d: ref_counts(doc, pipeline) for d, doc in hand_corpus.items()}
        seed_counts = counts.pop("s")
        expected = ref_seed_driven_scores(seed_counts, counts, params.jm_lambda)
        for doc_id, _, score in entries:
            assert score == pytest.approx(expected[doc_id], abs=1e-9)

    def test_qlm_matches_reference_script(self, params, pipeline, hand_corpus, hand_topic):
        entries = unit_lines(rank(build_index(hand_topic, hand_corpus, "bow", pipeline), ["s"], "qlm", params))
        counts = {d: ref_counts(doc, pipeline) for d, doc in hand_corpus.items()}
        seed_counts = counts.pop("s")
        expected = ref_qlm_scores(seed_counts, counts, params.jm_lambda)
        for doc_id, _, score in entries:
            assert score == pytest.approx(expected[doc_id], abs=1e-9)

    def test_runs_are_reproducible(self, params, pipeline, hand_corpus, hand_topic):
        index = build_index(hand_topic, hand_corpus, "bow", pipeline)

        def lines(unit):
            return unit.topic_id, unit.tag, unit_lines(unit)

        a = lines(rank(index, ["s"], "sdr", params))
        rank(index, ["c1"], "sdr", params)
        b = lines(rank(index, ["s"], "sdr", params))
        assert a == b == lines(rank(build_index(hand_topic, hand_corpus, "bow", pipeline), ["s"], "sdr", params))

    def test_empty_topic_after_exclusion(self, params, pipeline):
        corpus = {"s": Document("s", "", "x")}
        topic = Topic("T1", ["s"], {"s": 1})
        with pytest.raises(EmptyTopicError):
            rank(build_index(topic, corpus, "bow", pipeline), ["s"], "qlm", params)

    def test_candidate_missing_from_corpus(self, pipeline, hand_corpus):
        topic = Topic("T1", ["s", "c1", "ghost"], {"s": 1, "c1": 1})
        with pytest.raises(ContractError, match="ghost"):
            build_index(topic, hand_corpus, "bow", pipeline)

    def test_seed_outside_the_topic(self, params, pipeline, hand_corpus):
        topic = Topic("T1", ["c1", "c2"], {"c1": 1})
        with pytest.raises(ContractError, match="'s'"):
            rank(build_index(topic, hand_corpus, "bow", pipeline), ["s"], "qlm", params)

    def test_boc_requires_lexicon(self, pipeline, hand_corpus, hand_topic):
        with pytest.raises(ContractError):
            build_index(hand_topic, hand_corpus, "boc", pipeline)

    def test_aes_requires_embeddings(self, params, pipeline, hand_corpus, hand_topic):
        with pytest.raises(ContractError):
            rank(build_index(hand_topic, hand_corpus, "bow", pipeline), ["s"], "aes", params)

    def test_interpolated_ranking_runs(self, params, pipeline, hand_corpus, hand_topic):
        table = EmbeddingTable(np.eye(3), {"heart": 0, "aspirin": 1, "stroke": 2})
        index = build_index(hand_topic, hand_corpus, "bow", pipeline, embeddings=table)
        entries = rank(index, ["s"], "sdr+aes", params)
        assert len(entries) == 4
        scores = [score for _, _, score in unit_lines(entries)]
        assert scores == sorted(scores, reverse=True)
