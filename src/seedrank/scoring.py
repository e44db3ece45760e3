"""Ranking functions: QLM-JM, seed-driven term weighting, BM25, AES.

The seed-driven ranker scores a candidate d against a seed study d_s as

    score(d, d_s) = sum over shared terms t of
        phi(t, d_s) * c(t, d_s) * ln(1 + (1-lambda)/lambda * c(t, d) / (L_d * p(t|C)))

where phi(t, d_s) = ln(1 + gamma(D_t, d_s) / gamma(D_not_t, d_s)) weighs a
seed term by how sharply it splits candidates into seed-like and seed-unlike
halves (gamma = mean tf-idf cosine to the seed over a candidate subset).
Setting every phi to 1 recovers plain query-likelihood scoring, which is
how the ``qlm`` method is computed.

Every scorer takes one run unit's statistics over a topic index
(``vectors.build_stats``) and returns one score per candidate, in the
unit's candidate order. The lexical scorers read only the postings of the
seed terms and add each candidate's addends in seed-term order.

All logarithms are natural. Every function here is pure; rankings are fully
determined by the inputs and ``ScoringParams.rng_seed``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import RunEntry
from .errors import ConfigError, ContractError
from .vectors import (
    CollectionStats,
    TopicIndex,
    build_stats,
    cosine,
    seed_embedding,
    seed_similarities,
)

METHODS = ("bm25", "qlm", "sdr", "aes", "sdr+aes")
AES_METHODS = ("aes", "sdr+aes")

ScoredList = list[tuple[str, float]]

LN2 = math.log(2.0)


@dataclass(frozen=True)
class ScoringParams:
    """Knobs shared by all ranking functions.

    jm_lambda        Jelinek-Mercer smoothing weight in (0, 1).
    aes_alpha        weight of the AES side in the SDR+AES interpolation.
    undersample_cap  partition size above which phi samples candidates.
    rng_seed         root seed for every stochastic choice.
    """

    jm_lambda: float = 0.7
    aes_alpha: float = 0.3
    bm25_k1: float = 1.2
    bm25_b: float = 0.75
    undersample_cap: int = 50
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.jm_lambda < 1.0:
            raise ConfigError("jm_lambda", f"must be in (0, 1), got {self.jm_lambda}")
        if not 0.0 <= self.aes_alpha <= 1.0:
            raise ConfigError("aes_alpha", f"must be in [0, 1], got {self.aes_alpha}")
        if self.bm25_k1 < 0.0:
            raise ConfigError("bm25_k1", f"must be >= 0, got {self.bm25_k1}")
        if not 0.0 <= self.bm25_b <= 1.0:
            raise ConfigError("bm25_b", f"must be in [0, 1], got {self.bm25_b}")
        if self.undersample_cap < 1:
            raise ConfigError("undersample_cap", f"must be positive, got {self.undersample_cap}")


def derive_rng(*parts) -> np.random.Generator:
    """A generator keyed by arbitrary identifiers, stable across processes."""
    digest = hashlib.blake2b("\x1f".join(str(p) for p in parts).encode("utf-8"), digest_size=16)
    words = np.frombuffer(digest.digest(), dtype=np.uint64)
    return np.random.default_rng(words)


def _phi_from_gammas(gamma_present: float, gamma_absent: float) -> float:
    # A term present in every candidate (or one whose complement looks nothing
    # like the seed) carries no separation signal: neutral weight ln 2.
    if gamma_absent == 0.0:
        return LN2
    if gamma_present == 0.0:
        return 0.0
    return math.log(1.0 + gamma_present / gamma_absent)


def phi_weights(
    stats: CollectionStats,
    params: ScoringParams,
    *,
    undersample: bool = False,
    rng_key: tuple = (),
) -> np.ndarray:
    """Separation weight phi of every seed term, in seed-term order.

    One pass of seed-candidate tf-idf cosines is shared across all terms.
    A term splits the candidates into those holding it (its postings) and
    the rest. With ``undersample`` on, a partition larger than
    ``params.undersample_cap`` is sampled down to the cap (uniformly,
    without replacement, from the partition in candidate order) before the
    mean similarity is taken. Each term's sampling RNG is derived from
    (rng_seed, *rng_key, term), so results do not depend on evaluation
    order or scheduling.
    """
    cos = seed_similarities(stats)
    n = stats.num_docs
    cap = params.undersample_cap
    terms = stats.index.terms
    bounds = np.searchsorted(stats.posting_terms, np.arange(len(stats.seed_terms) + 1))
    weights = np.empty(len(stats.seed_terms))
    for k, column in enumerate(stats.seed_terms.tolist()):
        present = stats.posting_rows[bounds[k] : bounds[k + 1]]
        n_present = len(present)
        n_absent = n - n_present
        rng = None
        if undersample and (n_present > cap or n_absent > cap):
            rng = derive_rng(params.rng_seed, *rng_key, terms[column])
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
            mask = stats.is_candidate.copy()
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


def _per_candidate(stats: CollectionStats, addends: np.ndarray) -> np.ndarray:
    """Sum each posting's addend into its row, in posting order, for the unit's candidates."""
    totals = np.bincount(stats.posting_rows, weights=addends, minlength=len(stats.is_candidate))
    return totals[stats.candidates]


def sdr_score(stats: CollectionStats, params: ScoringParams, weights: np.ndarray) -> np.ndarray:
    """QLM score of every candidate with each shared term's addend multiplied by its weight.

    ``weights`` follows the seed terms; all ones gives plain QLM.
    """
    if len(weights) != len(stats.seed_terms):
        raise ContractError(f"{len(weights)} weights for {len(stats.seed_terms)} seed terms")
    if not len(stats.posting_rows):
        # No candidate shares a seed term; the candidates may hold no token at all.
        return np.zeros(stats.num_docs)
    coef = (1.0 - params.jm_lambda) / params.jm_lambda
    k = stats.posting_terms
    p_collection = stats.collection_counts[stats.seed_terms] / stats.total_tokens
    lengths = stats.index.doc_lengths[stats.posting_rows]
    addends = (weights * stats.seed_counts)[k] * np.log(
        1.0 + coef * stats.posting_counts / (lengths * p_collection[k])
    )
    return _per_candidate(stats, addends)


def bm25_score(stats: CollectionStats, params: ScoringParams) -> np.ndarray:
    """Okapi BM25 of every candidate with the seed as the query and non-negative idf."""
    k1, b = params.bm25_k1, params.bm25_b
    df = stats.doc_freq[stats.seed_terms]
    idf = np.log(1.0 + (stats.num_docs - df + 0.5) / (df + 0.5))
    c = stats.posting_counts
    lengths = stats.index.doc_lengths[stats.posting_rows]
    norm = k1 * (1.0 - b + b * lengths / stats.avg_doc_length)
    return _per_candidate(stats, idf[stats.posting_terms] * c * (k1 + 1.0) / (c + norm))


def aes_score(stats: CollectionStats) -> np.ndarray:
    """Cosine between the seeds' mean embedding and every candidate's."""
    embeddings = stats.index.embeddings
    seed = seed_embedding(stats)
    scores = cosine(embeddings @ seed, np.linalg.norm(embeddings, axis=1), float(np.linalg.norm(seed)))
    return scores[stats.candidates]


def sort_scored(scores: Mapping[str, float]) -> ScoredList:
    """Scores sorted descending, ties broken by doc_id ascending."""
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


def minmax(scores: np.ndarray) -> np.ndarray:
    """Min-max normalize to [0, 1]; a constant array maps to all zeros."""
    if not len(scores):
        raise ContractError("cannot min-max normalize an empty score list")
    lo, hi = scores.min(), scores.max()
    if hi == lo:
        return np.zeros(len(scores))
    return (scores - lo) / (hi - lo)


def interpolate(sdr: np.ndarray, aes: np.ndarray, alpha: float) -> np.ndarray:
    """(1 - alpha) * sdr + alpha * aes over one candidate order."""
    if sdr.shape != aes.shape:
        raise ContractError("interpolation inputs score different candidate sets")
    return (1.0 - alpha) * sdr + alpha * aes


def rank(
    index: TopicIndex,
    seed_ids: Sequence[str],
    method: str,
    params: ScoringParams,
    *,
    undersample: bool = False,
    run_key: str | None = None,
) -> list[RunEntry]:
    """Rank a topic's candidates against one seed or a group of seeds.

    The seeds are removed from the candidate pool before collection
    statistics are computed (they are judged, not screened). Multiple seeds
    form one pseudo-seed, their texts concatenated in order. Returns TREC
    run entries keyed by ``run_key`` (default: the topic id).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method in AES_METHODS and index.embeddings is None:
        raise ContractError(f"method {method!r} requires an index built with an embedding table")
    stats = build_stats(index, seed_ids)

    if method == "bm25":
        scores = bm25_score(stats, params)
    elif method == "aes":
        scores = aes_score(stats)
    else:
        if method == "qlm":
            weights = np.ones(len(stats.seed_terms))
        else:
            weights = phi_weights(
                stats, params, undersample=undersample, rng_key=(index.topic_id, "+".join(seed_ids))
            )
        scores = sdr_score(stats, params, weights)
        if method == "sdr+aes":
            scores = interpolate(minmax(scores), minmax(aes_score(stats)), params.aes_alpha)

    key = run_key if run_key is not None else index.topic_id
    run_tag = f"{method}-{index.representation}"
    doc_ids = [index.doc_ids[row] for row in stats.candidates.tolist()]
    return [
        RunEntry(key, doc_id, i, score, run_tag)
        for i, (doc_id, score) in enumerate(sort_scored(dict(zip(doc_ids, scores.tolist()))), start=1)
    ]
