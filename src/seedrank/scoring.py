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
seed terms and add each candidate's addends in seed-term order. ``rank``
returns the unit as arrays (``corpus.RunUnit``): its candidate rows and
their scores in rank order, from ``corpus.rank_order``.

All logarithms are natural. Every function here is pure; rankings are fully
determined by the inputs and ``ScoringParams.rng_seed``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .corpus import RunUnit, rank_order
from .errors import ConfigError, ContractError
from .vectors import (
    CollectionStats,
    TopicIndex,
    blocks,
    build_stats,
    cosine,
    seed_embedding,
    seed_similarities,
)

METHODS = ("bm25", "qlm", "sdr", "aes", "sdr+aes")
AES_METHODS = ("aes", "sdr+aes")

LN2 = math.log(2.0)

@dataclass(frozen=True)
class ScoringParams:
    """Knobs shared by all ranking functions.

    jm_lambda        Jelinek-Mercer smoothing weight in (0, 1).
    aes_alpha        weight of the AES side in the SDR+AES interpolation.
    bm25_k1, bm25_b  BM25 term-frequency saturation in [0, inf) and length normalisation.
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
        if not 0.0 <= self.bm25_k1 < math.inf:
            raise ConfigError("bm25_k1", f"must be in [0, inf), got {self.bm25_k1}")
        if not 0.0 <= self.bm25_b <= 1.0:
            raise ConfigError("bm25_b", f"must be in [0, 1], got {self.bm25_b}")
        if self.undersample_cap < 1:
            raise ConfigError("undersample_cap", f"must be positive, got {self.undersample_cap}")


# numpy.random.SeedSequence's hash constants; NEP 19 keeps its streams and PCG64's stable.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = (2549297995355413924 << 64) | 4865540595714422341
_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1


def _seed_sequence_states(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row of a (T, 2) uint64 array.

    SeedSequence's mixing, run on uint32 columns (which wrap as its C code
    does). It reads a uint64 word as its low 32 bits followed by its high 32
    bits, the high half only when it is not zero; such short keys are moved
    to the front and padded with zeros as it pads them.
    """
    halves = np.empty((len(words), 4), dtype=np.uint32)
    halves[:, 0::2] = words & np.uint64(_MASK32)
    halves[:, 1::2] = words >> np.uint64(32)
    kept = np.ones(halves.shape, dtype=bool)
    kept[:, 1::2] = halves[:, 1::2] != 0
    order = np.argsort(~kept, axis=1, kind="stable")
    entropy = np.where(np.take_along_axis(kept, order, 1), np.take_along_axis(halves, order, 1), np.uint32(0))

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    pool = [hashmix(entropy[:, i]) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = np.uint32(_MIX_L) * pool[dst] - np.uint32(_MIX_R) * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    state = np.empty((len(words), 8), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> np.uint32(16))
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _keyed_states(prefix: tuple, names: Sequence) -> np.ndarray:
    """``SeedSequence(words).generate_state(4, np.uint64)`` for the key (*prefix, name) of each name.

    The key's text, its parts joined by U+001F, is hashed to 128 bits
    (blake2b), read as two native uint64 words. The prefix is hashed once.
    """
    head = hashlib.blake2b(digest_size=16)
    if prefix:
        head.update(("\x1f".join(map(str, prefix)) + "\x1f").encode("utf-8"))
    digests = []
    for name in names:
        digest = head.copy()
        digest.update(str(name).encode("utf-8"))
        digests.append(digest.digest())
    return _seed_sequence_states(np.frombuffer(b"".join(digests), dtype=np.uint64).reshape(-1, 2))


def keyed_generators(prefix: tuple, names: Sequence) -> Iterator[np.random.Generator]:
    """For each name, a generator in the state ``np.random.default_rng`` seeds from the key (*prefix, name).

    The keys are hashed and mixed for all names at once (``_keyed_states``).
    One generator is re-seeded for each name by setting its PCG64 state, so
    use each yielded generator before taking the next.
    """
    if not len(names):
        return
    rng = np.random.default_rng(0)
    for row in _keyed_states(prefix, names):
        seed_hi, seed_lo, inc_hi, inc_lo = row.tolist()
        # PCG64's seeding: inc = 2 * initseq + 1, then two LCG steps around adding initstate.
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        state = (((inc + (seed_hi << 64 | seed_lo)) & _MASK128) * _PCG64_MULT + inc) & _MASK128
        rng.bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0,
        }
        yield rng


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
    the rest, its complement. With ``undersample`` on, a partition larger
    than ``params.undersample_cap`` is sampled down to the cap (uniformly,
    without replacement, from the partition in candidate order) before the
    mean similarity is taken. Each term's sampling RNG is derived from
    (rng_seed, *rng_key, term), so results do not depend on evaluation
    order or scheduling; a term draws its present side first. A seed term
    that no candidate holds derives no RNG and draws nothing: its present
    side is empty and its complement is every candidate, unsampled, so all
    such terms share one mean. Their weights multiply no posting, so no
    score depends on them.

    Only the draws loop over terms. Every partition's sum starts from
    per-term totals, one ``np.bincount`` over all the unit's postings, and
    the draws overwrite the sampled ones. Each cosine c is split into
    hi = rint(c * 2**30) / 2**30 and lo = c - hi, both exact, with
    |lo| <= 2**-31. A sum of fewer than 2**23 hi values is exact in any
    order, so a complement's hi part, total minus present, is exact, and
    only lo, at most 2**-31 per candidate, cancels. The unit must hold fewer
    than 2**23 candidates. A complement with no cosine above 2**-31 (its hi
    part is 0) is summed directly, so an all-zero complement gives exactly 0
    and ``_phi_from_gammas``' ln 2 rule still holds. A present side is
    summed without cancellation. Against sums of each partition's cosines on
    their own, phi moves in the last digits (6.4e-16 relative at most on the
    synthetic collections). phi itself is ``math.log`` per term, which
    ``np.log`` does not match in the last bit.

    A sampled complement's pick p is the candidate at position
    p + #{i : e_i - i <= p}, where e are the term's present positions
    among the candidates; one ``searchsorted`` per block finds every pick.
    The draws go in blocks of terms of at most ``vectors.BLOCK_BYTES``, a
    few 8-byte temporaries per pick and posting, never terms x cap; each
    term draws from its own generator and sums its own picks, so no phi
    depends on where a block ends.
    """
    cos = seed_similarities(stats)
    # Each posting's position among the candidates, which is where its cosine is.
    positions = (np.cumsum(stats.is_candidate) - 1)[stats.posting_rows]
    n, cap = stats.num_docs, params.undersample_cap
    n_terms = len(stats.seed_terms)
    bounds = np.searchsorted(stats.posting_terms, np.arange(n_terms + 1))
    present_len = np.diff(bounds)
    absent_len = n - present_len

    # cos = hi + lo, both exact: hi on a grid of 2**-30, |lo| <= 2**-31. Sums of
    # fewer than 2**23 hi values are exact in any order, so only lo cancels.
    hi = np.rint(cos * 2.0**30) / 2.0**30
    lo = cos - hi
    present_hi = np.bincount(stats.posting_terms, weights=hi[positions], minlength=n_terms)
    present_lo = np.bincount(stats.posting_terms, weights=lo[positions], minlength=n_terms)
    absent_hi = hi.sum() - present_hi
    present_sums = present_hi + present_lo
    absent_sums = absent_hi + (lo.sum() - present_lo)
    # A complement with no cosine above 2**-31 would keep only lo's rounding
    # error, of either sign: sum it directly (all zeros give exactly 0).
    for k in np.flatnonzero(absent_hi == 0).tolist():
        absent_sums[k] = np.delete(cos, positions[bounds[k] : bounds[k + 1]]).sum()

    sample_present = undersample & (present_len > cap)
    sample_absent = undersample & (absent_len > cap) & (present_len > 0)
    drawn = np.flatnonzero(sample_present | sample_absent)
    names = [stats.index.terms[column] for column in stats.seed_terms[drawn].tolist()]
    generators = keyed_generators((params.rng_seed, *rng_key), names)
    for block in blocks(drawn, 64 * cap + 32 * present_len[drawn]):
        present_picks = np.empty((np.count_nonzero(sample_present[block]), cap), dtype=np.intp)
        absent_picks = np.empty((np.count_nonzero(sample_absent[block]), cap), dtype=np.intp)
        i = j = 0
        for size, rng in zip(present_len[block].tolist(), generators):
            if size > cap:
                present_picks[i] = rng.choice(size, size=cap, replace=False)
                i += 1
            if n - size > cap:
                absent_picks[j] = rng.choice(n - size, size=cap, replace=False)
                j += 1
        terms = block[sample_present[block]]
        present_sums[terms] = cos[positions[bounds[terms][:, None] + present_picks]].sum(axis=1)
        # Each posting of the block gets a key: its term's base plus how many of
        # the term's absent candidates precede it. Keys ascend, as postings do.
        start, stop = bounds[block[0]], bounds[block[-1] + 1]
        posting_terms = stats.posting_terms[start:stop]
        keys = posting_terms * (n + 1) + positions[start:stop] - np.arange(start, stop) + bounds[posting_terms]
        terms = block[sample_absent[block]]
        found = np.searchsorted(keys, (terms * (n + 1))[:, None] + absent_picks, side="right")
        found += absent_picks + start - bounds[terms][:, None]
        absent_sums[terms] = cos[found].sum(axis=1)

    gammas = []
    for sums, lengths, sampled in ((present_sums, present_len, sample_present), (absent_sums, absent_len, sample_absent)):
        counts = np.where(sampled, cap, lengths)
        gammas.append(np.divide(sums, counts, out=np.zeros(n_terms), where=counts > 0).tolist())
    return np.array(list(map(_phi_from_gammas, *gammas)), dtype=float)


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
    index = stats.index
    seed = seed_embedding(stats)
    scores = cosine(index.embeddings @ seed, index.embedding_norms, float(np.linalg.norm(seed)))
    return scores[stats.candidates]


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


def check_method(method: str) -> None:
    """Raise ConfigError unless ``method`` is one of ``METHODS``."""
    if method not in METHODS:
        raise ConfigError("method", f"must be one of {METHODS}, got {method!r}")


def rank(
    index: TopicIndex,
    seed_ids: Sequence[str],
    method: str,
    params: ScoringParams,
    *,
    undersample: bool = False,
    run_key: str | None = None,
) -> RunUnit:
    """Rank a topic's candidates against one seed or a group of seeds.

    The seeds are removed from the candidate pool before collection
    statistics are computed (they are judged, not screened). Multiple seeds
    form one pseudo-seed, their texts concatenated in order. Returns the
    unit keyed by ``run_key`` (default: the topic id): its candidate rows
    and their scores, by score descending with ties broken by doc_id
    ascending, from ``corpus.rank_order`` with ``index.doc_order``.
    """
    check_method(method)
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
    rows, scores = rank_order(stats.candidates, scores, index.doc_order)
    return RunUnit(key, f"{method}-{index.representation}", index.doc_ids, rows, scores)
