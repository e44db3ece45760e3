"""Property tests: the indexed rankers against the literal references in ``oracles``.

Random small topics with one to four seeds (a seed group when more than
one), empty documents, a term held by every candidate and a seed term no
candidate holds.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from oracles import ref_bm25_scores, ref_qlm_scores, ref_seed_driven_scores
from seedrank import ScoringParams, rank, scoring
from seedrank.scoring import sort_scored
from synth import count_index

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


def assert_same_ranking(entries, expected):
    assert [e.doc_id for e in entries] == [d for d, _ in sort_scored(expected)]
    for entry in entries:
        assert math.isclose(entry.score, expected[entry.doc_id], rel_tol=1e-12), (entry, expected[entry.doc_id])


@settings(max_examples=300, deadline=None)
@given(topics())
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
    forward = [list(rank(shared, g, "sdr", params, undersample=True)) for g in groups]
    backward = [list(rank(shared, g, "sdr", params, undersample=True)) for g in reversed(groups)][::-1]
    fresh = [list(rank(indexed(docs), g, "sdr", params, undersample=True)) for g in groups]
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
    assert [(e.doc_id, e.score.hex()) for e in unit] == [(d, s.hex()) for d, s in expected]
