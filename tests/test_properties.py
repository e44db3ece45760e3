"""Property tests: the indexed rankers against the literal references in ``oracles``.

Random small topics with one to four seeds (a seed group when more than
one), empty documents, a term held by every candidate and a seed term no
candidate holds.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from oracles import ref_bm25_scores, ref_qlm_scores, ref_seed_driven_scores, sort_scored
from seedrank import EmbeddingTable, PipelineConfig, Run, ScoringParams, build_index, load_run, rank, scoring, write_run
from seedrank.scoring import METHODS
from synth import count_index, synth_collection

from conftest import unit_lines

TERMS = [f"t{i}" for i in range(6)]

documents = st.dictionaries(st.sampled_from(TERMS), st.integers(1, 4), max_size=4)


@st.composite
def topics(draw):
    candidates = draw(st.lists(documents, min_size=1, max_size=8))
    seeds = draw(st.lists(documents, min_size=1, max_size=4))
    if draw(st.booleans()):
        for counts in candidates:
            counts["everywhere"] = draw(st.integers(1, 3))
    if draw(st.booleans()):
        seeds[0]["nowhere"] = 1
    docs = {f"c{i}": c for i, c in enumerate(candidates)} | {f"s{i}": c for i, c in enumerate(seeds)}
    order = draw(st.permutations(sorted(docs)))
    return {d: docs[d] for d in order}, [f"s{i}" for i in range(len(seeds))]


def indexed(docs):
    return count_index(**docs)


def seed_counts(docs, seed_ids):
    """The seeds' counts summed, terms in order of first occurrence."""
    summed = {}
    for seed_id in seed_ids:
        for term, count in docs[seed_id].items():
            summed[term] = summed.get(term, 0) + count
    return summed


def assert_same_ranking(unit, expected):
    """Every score within 1e-12 of its reference, ranked as the references rank wherever they differ by more.

    Scores that tie mathematically may differ in the last bits on one side
    and not on the other, so such candidates may come in either order.
    """
    entries = unit_lines(unit)
    assert sorted(doc_id for doc_id, _, _ in entries) == sorted(expected)
    for entry in entries:
        doc_id, _, score = entry
        assert math.isclose(score, expected[doc_id], rel_tol=1e-12), (entry, expected[doc_id])
    references = [expected[doc_id] for doc_id, _, _ in entries]
    for i, earlier in enumerate(references):
        for later in references[i + 1 :]:
            assert earlier > later or math.isclose(earlier, later, rel_tol=1e-12), (entries, expected)


@settings(max_examples=300, deadline=None)
@given(topics())
# sdr scores c2 one ulp above c1, whose references tie exactly.
@example((
    {"c0": {}, "c1": {"t2": 2, "t5": 2}, "c2": {"t2": 3, "t0": 3}, "c3": {"t0": 3, "t1": 1, "t5": 4, "t2": 1},
     "s0": {"t0": 3, "t5": 1}, "s1": {"t0": 2, "t1": 1, "t5": 4}},
    ["s0", "s1"],
))
def test_indexed_rankers_match_references(topic):
    docs, seed_ids = topic
    index = indexed(docs)
    seed = seed_counts(docs, seed_ids)
    candidates = {d: c for d, c in docs.items() if d not in seed_ids}
    params = ScoringParams(undersample_cap=len(docs))
    assert_same_ranking(
        rank(index, seed_ids, "sdr", params, undersample=True),
        ref_seed_driven_scores(seed, candidates, params.jm_lambda),
    )
    assert_same_ranking(rank(index, seed_ids, "qlm", params), ref_qlm_scores(seed, candidates, params.jm_lambda))
    assert_same_ranking(
        rank(index, seed_ids, "bm25", params), ref_bm25_scores(seed, candidates, params.bm25_k1, params.bm25_b)
    )


@settings(max_examples=100, deadline=None)
@given(topics(), st.data())
def test_undersampled_runs_do_not_depend_on_unit_order(topic, data):
    docs, seed_ids = topic
    groups = [seed_ids[:i] for i in range(1, len(seed_ids) + 1)] + [[d] for d in docs if d not in seed_ids][:2]
    groups = data.draw(st.permutations(groups))
    params = ScoringParams(undersample_cap=1, rng_seed=9)
    shared = indexed(docs)

    def lines(unit):
        return unit.topic_id, unit.tag, unit_lines(unit)

    forward = [lines(rank(shared, g, "sdr", params, undersample=True)) for g in groups]
    backward = [lines(rank(shared, g, "sdr", params, undersample=True)) for g in reversed(groups)][::-1]
    fresh = [lines(rank(indexed(docs), g, "sdr", params, undersample=True)) for g in groups]
    assert forward == backward == fresh


# Doc ids that differ only in case, by a non-ASCII character or by a numeric-looking suffix.
TIE_IDS = ["d9", "d10", "d1", "D1", "d01", "d9a", "de", "dé", "dE", "dz", "Ω", "a", "A", "é", "e", "10", "9"]
TIE_SCORES = [0.0, -0.0, 1.0, -1.0, 2.5, 5e-324, -5e-324, 1e300]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TIE_IDS), min_size=1, unique=True), st.data())
def test_rank_breaks_ties_as_sort_scored(doc_ids, data):
    scores = data.draw(st.lists(st.sampled_from(TIE_SCORES), min_size=len(doc_ids), max_size=len(doc_ids)))
    index = indexed({"seed": {"t": 1}} | {d: {"t": 1} for d in doc_ids})
    # The unit's candidates are the rows after the seed, in doc_ids order.
    with mock.patch.object(scoring, "bm25_score", lambda stats, params: np.array(scores)):
        unit = rank(index, ["seed"], "bm25", ScoringParams())
    expected = sort_scored(dict(zip(doc_ids, scores)))
    assert [(doc_id, score.hex()) for doc_id, _, score in unit_lines(unit)] == [(d, s.hex()) for d, s in expected]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**16), st.sampled_from(METHODS), st.sampled_from([0.0, 0.3]), st.booleans(), st.data(),
)
def test_ranked_units_round_trip_through_a_run_file(tmp_path_factory, seed, method, overlap, undersample, data):
    # Abstracts only, and embeddings for the relevant sub-vocabulary only: with no overlap every irrelevant
    # candidate is all-OOV and shares no term with a seed, so each unit ends in a tail of exactly tied scores.
    topics, corpus = synth_collection(seed, 2, n_docs=14, vocab_size=40, n_relevant=3, irrelevant_overlap=overlap)
    vocabulary = [f"term{i:04d}" for i in range(10)]  # synth_topic's relevant share of a 40-term vocabulary
    table = EmbeddingTable(np.random.default_rng(seed).normal(size=(10, 4)), {t: i for i, t in enumerate(vocabulary)})
    params = ScoringParams(rng_seed=seed)
    units = []
    for topic in topics:
        topic.candidate_ids = data.draw(st.permutations(topic.candidate_ids))
        index = build_index(topic, corpus, "bow", PipelineConfig(include_title=False), embeddings=table)
        for seed_id in topic.relevant_ids:
            key = f"{topic.topic_id}.{seed_id}"
            units.append(rank(index, [seed_id], method, params, undersample=undersample, run_key=key))
    if overlap == 0.0:
        assert all(len(set(unit.scores.tolist())) < len(unit) for unit in units)
    path = tmp_path_factory.mktemp("runs") / "r.run"
    write_run(Run(tuple(units)), path)

    def lines(unit):
        return unit.topic_id, unit.tag, [(doc_id, rank, score.hex()) for doc_id, rank, score in unit_lines(unit)]

    assert [lines(unit) for unit in load_run(path).units] == [lines(unit) for unit in units]
