"""Property tests: the indexed rankers against the literal references in ``oracles``.

Random small topics with one to four seeds (a seed group when more than
one), empty documents, a term held by every candidate and a seed term no
candidate holds.
"""

import math

from hypothesis import given, settings, strategies as st

from oracles import ref_bm25_scores, ref_qlm_scores, ref_seed_driven_scores
from seedrank import ScoringParams, rank
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
    forward = [rank(shared, g, "sdr", params, undersample=True) for g in groups]
    backward = [rank(shared, g, "sdr", params, undersample=True) for g in reversed(groups)][::-1]
    fresh = [rank(indexed(docs), g, "sdr", params, undersample=True) for g in groups]
    assert forward == backward == fresh
