"""Ranking functions: QLM-JM, seed-driven term weighting, BM25, AES.

The seed-driven ranker scores a candidate d against a seed study d_s as

    score(d, d_s) = sum over shared terms t of
        phi(t, d_s) * c(t, d_s) * ln(1 + (1-lambda)/lambda * c(t, d) / (L_d * p(t|C)))

where phi(t, d_s) = ln(1 + gamma(D_t, d_s) / gamma(D_not_t, d_s)) weighs a
seed term by how sharply it splits candidates into seed-like and seed-unlike
halves (gamma = mean tf-idf cosine to the seed over a candidate subset).
Setting every phi to 1 recovers plain query-likelihood scoring, which is
how the ``qlm`` method is computed.

All logarithms are natural. Every function here is pure; rankings are fully
determined by the inputs and ``ScoringParams.rng_seed``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import Document, EmbeddingTable, RunEntry, Topic
from .errors import ConfigError, ContractError, EmptyTopicError
from .text import Lexicon, PipelineConfig, TermCounts, boc, doc_counts, document_text, tokenize
from .vectors import CollectionStats, TfIdfVector, aes_vector, build_stats, cosine, dense_cosine, tfidf

METHODS = ("bm25", "qlm", "sdr", "aes", "sdr+aes")
REPRESENTATIONS = ("bow", "boc")

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
    seed_counts: TermCounts,
    seed_vector: TfIdfVector,
    candidates: Sequence[tuple[TermCounts, TfIdfVector]],
    params: ScoringParams,
    *,
    undersample: bool = False,
    rng_key: tuple = (),
) -> dict[str, float]:
    """Separation weight phi of every seed term over a candidate collection.

    ``candidates`` holds (counts, tf-idf vector) pairs for every candidate.
    One pass of seed-candidate cosines is shared across all terms. With
    ``undersample`` on, a partition larger than ``params.undersample_cap``
    is sampled down to the cap (uniformly, without replacement) before the
    mean similarity is taken. Each term's sampling RNG is derived from
    (rng_seed, *rng_key, term), so results do not depend on evaluation
    order or scheduling.
    """
    n = len(candidates)
    cos = np.empty(n, dtype=np.float64)
    postings: dict[str, list[int]] = {}
    seed_terms = seed_counts.counts.keys()
    for j, (counts, vec) in enumerate(candidates):
        cos[j] = cosine(vec, seed_vector)
        for term in counts.counts.keys() & seed_terms:
            postings.setdefault(term, []).append(j)
    cap = params.undersample_cap

    weights: dict[str, float] = {}
    for term in seed_terms:
        present = np.asarray(postings.get(term, []), dtype=np.intp)
        n_present = len(present)
        n_absent = n - n_present
        rng = None
        if undersample and (n_present > cap or n_absent > cap):
            rng = derive_rng(params.rng_seed, *rng_key, term)
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
            mask = np.zeros(n, dtype=bool)
            mask[present] = True
            absent = np.nonzero(~mask)[0]
            if rng is not None and n_absent > cap:
                chosen = rng.choice(n_absent, size=cap, replace=False)
                g_absent = float(cos[absent[chosen]].sum()) / cap
            else:
                g_absent = float(cos[absent].sum()) / n_absent
        else:
            g_absent = 0.0
        weights[term] = _phi_from_gammas(g_present, g_absent)
    return weights


def sdr_score(
    seed: TermCounts,
    cand: TermCounts,
    stats: CollectionStats,
    params: ScoringParams,
    weights: Mapping[str, float],
) -> float:
    """QLM score with each shared term's addend multiplied by its phi weight."""
    coef = (1.0 - params.jm_lambda) / params.jm_lambda
    length = cand.length
    score = 0.0
    for term, c_seed in seed.counts.items():
        c_cand = cand.counts.get(term)
        if not c_cand:
            continue
        w = weights.get(term)
        if w is None:
            raise ContractError(f"no phi weight supplied for shared term {term!r}")
        score += w * c_seed * math.log(1.0 + coef * c_cand / (length * stats.p_collection(term)))
    return score


def bm25_score(seed: TermCounts, cand: TermCounts, stats: CollectionStats, params: ScoringParams) -> float:
    """Okapi BM25 with the seed as the query and non-negative idf."""
    k1, b = params.bm25_k1, params.bm25_b
    n = stats.num_docs
    norm = k1 * (1.0 - b + b * cand.length / stats.avg_doc_length) if cand.counts else 0.0
    score = 0.0
    # Iterate the smaller side in dict order: float addition order must not
    # depend on the process hash seed or rankings lose byte determinism.
    smaller, other = (seed, cand) if len(seed.counts) <= len(cand.counts) else (cand, seed)
    for term in smaller.counts:
        if term not in other.counts:
            continue
        df = stats.doc_freq.get(term, 0)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        c = cand.counts[term]
        score += idf * c * (k1 + 1.0) / (c + norm)
    return score


def aes_score(seed_tokens: Sequence[str], cand_tokens: Sequence[str], table: EmbeddingTable) -> float:
    """Cosine between the mean embeddings of two token streams."""
    seed_vec, _ = aes_vector(seed_tokens, table)
    cand_vec, _ = aes_vector(cand_tokens, table)
    return dense_cosine(seed_vec, cand_vec)


def sort_scored(scores: Mapping[str, float]) -> ScoredList:
    """Scores sorted descending, ties broken by doc_id ascending."""
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


def minmax(scores: ScoredList) -> ScoredList:
    """Min-max normalize to [0, 1]; a constant list maps to all zeros."""
    if not scores:
        raise ContractError("cannot min-max normalize an empty score list")
    values = [s for _, s in scores]
    lo, hi = min(values), max(values)
    if hi == lo:
        return sort_scored({d: 0.0 for d, _ in scores})
    span = hi - lo
    return sort_scored({d: (s - lo) / span for d, s in scores})


def interpolate(sdr: ScoredList, aes: ScoredList, alpha: float) -> ScoredList:
    """(1 - alpha) * sdr + alpha * aes over an identical document set."""
    sdr_map = dict(sdr)
    aes_map = dict(aes)
    if sdr_map.keys() != aes_map.keys():
        raise ContractError("interpolation inputs rank different document sets")
    return sort_scored({d: (1.0 - alpha) * s + alpha * aes_map[d] for d, s in sdr_map.items()})


def rank(
    topic: Topic,
    corpus: Mapping[str, Document],
    seed_ids: Sequence[str],
    method: str,
    representation: str,
    params: ScoringParams,
    pipeline: PipelineConfig,
    *,
    lexicon: Lexicon | None = None,
    embeddings: EmbeddingTable | None = None,
    undersample: bool = False,
    run_key: str | None = None,
    tag: str | None = None,
) -> list[RunEntry]:
    """Rank a topic's candidates against one seed or a group of seeds.

    The seeds are removed from the candidate pool before collection
    statistics are computed (they are judged, not screened). Multiple seeds
    are concatenated, in order, into one pseudo-seed. Returns TREC run
    entries keyed by ``run_key`` (default: the topic id).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if representation not in REPRESENTATIONS:
        raise ValueError(f"unknown representation {representation!r}")
    if representation == "boc" and lexicon is None:
        raise ContractError("the boc representation requires a lexicon")
    if method in ("aes", "sdr+aes") and embeddings is None:
        raise ContractError(f"method {method!r} requires an embedding table")
    missing = [s for s in seed_ids if s not in corpus]
    if missing:
        raise ContractError(f"seed documents not in corpus: {missing}")

    seed_set = set(seed_ids)
    candidate_ids = [d for d in topic.candidate_ids if d not in seed_set]
    if not candidate_ids:
        raise EmptyTopicError(f"topic {topic.topic_id!r} has no candidates after seed exclusion")
    absent = [d for d in candidate_ids if d not in corpus]
    if absent:
        raise ContractError(
            f"topic {topic.topic_id!r}: {len(absent)} candidates missing from the corpus "
            f"(first: {absent[:3]})"
        )

    seed_text = " ".join(document_text(corpus[s], pipeline) for s in seed_ids)
    seed_counts = TermCounts.from_tokens(tokenize(seed_text, pipeline))
    if representation == "boc":
        seed_counts = boc(seed_counts, lexicon)

    cand_counts = {d: doc_counts(corpus[d], pipeline, representation, lexicon) for d in candidate_ids}

    scores: dict[str, float]
    if method in ("bm25", "qlm", "sdr", "sdr+aes"):
        stats = build_stats(cand_counts)
        if method == "bm25":
            scores = {d: bm25_score(seed_counts, c, stats, params) for d, c in cand_counts.items()}
        else:
            if method == "qlm":
                weights = dict.fromkeys(seed_counts.counts, 1.0)
            else:
                seed_vec = tfidf(seed_counts, stats)
                pairs = [(cand_counts[d], tfidf(cand_counts[d], stats)) for d in candidate_ids]
                weights = phi_weights(
                    seed_counts,
                    seed_vec,
                    pairs,
                    params,
                    undersample=undersample,
                    rng_key=(topic.topic_id, "+".join(seed_ids)),
                )
            scores = {d: sdr_score(seed_counts, c, stats, params, weights) for d, c in cand_counts.items()}

    if method in ("aes", "sdr+aes"):
        aes_pipeline = PipelineConfig(
            variant=pipeline.variant,
            stopwords=pipeline.stopwords,
            lowercase=False,
            include_title=pipeline.include_title,
        )
        seed_tokens = tokenize(seed_text, aes_pipeline)
        if representation == "boc":
            seed_tokens = [t for t in seed_tokens if t.lower() in lexicon]
        aes_scores = {}
        for d in candidate_ids:
            cand_tokens = tokenize(document_text(corpus[d], aes_pipeline), aes_pipeline)
            if representation == "boc":
                cand_tokens = [t for t in cand_tokens if t.lower() in lexicon]
            aes_scores[d] = aes_score(seed_tokens, cand_tokens, embeddings)
        if method == "aes":
            scores = aes_scores
        else:
            combined = interpolate(minmax(sort_scored(scores)), minmax(sort_scored(aes_scores)), params.aes_alpha)
            scores = dict(combined)

    key = run_key if run_key is not None else topic.topic_id
    run_tag = tag if tag is not None else f"{method}-{representation}"
    return [
        RunEntry(key, doc_id, i, score, run_tag)
        for i, (doc_id, score) in enumerate(sort_scored(scores), start=1)
    ]
