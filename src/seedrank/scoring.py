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
their scores in rank order, from one ``np.lexsort``.

All logarithms are natural. Every function here is pure; rankings are fully
determined by the inputs and ``ScoringParams.rng_seed``.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .corpus import RunUnit
from .errors import ConfigError, ContractError
from .vectors import (
    CollectionStats,
    TopicIndex,
    build_stats,
    cosine,
    line_entries,
    seed_embedding,
    seed_similarities,
)

METHODS = ("bm25", "qlm", "sdr", "aes", "sdr+aes")
AES_METHODS = ("aes", "sdr+aes")

LN2 = math.log(2.0)

# Bytes of temporaries per block of terms in phi_weights, which bounds its memory.
_PHI_BLOCK_BYTES = 1 << 17


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


def derive_rng(*parts) -> np.random.Generator:
    """A generator keyed by arbitrary identifiers (at least one), stable across processes."""
    *prefix, name = parts
    return next(keyed_generators(tuple(prefix), [name]))


def _phi_from_gammas(gamma_present: float, gamma_absent: float) -> float:
    # A term present in every candidate (or one whose complement looks nothing
    # like the seed) carries no separation signal: neutral weight ln 2.
    if gamma_absent == 0.0:
        return LN2
    if gamma_present == 0.0:
        return 0.0
    return math.log(1.0 + gamma_present / gamma_absent)


def _blocks(terms: np.ndarray, widths) -> Iterator[np.ndarray]:
    """Consecutive slices of ``terms`` whose ``widths`` (bytes) add up to at most ``_PHI_BLOCK_BYTES``, or one term."""
    ends = np.cumsum(np.broadcast_to(widths, terms.shape))
    start = 0
    while start < len(terms):
        limit = (ends[start - 1] if start else 0) + _PHI_BLOCK_BYTES
        stop = max(start + 1, int(np.searchsorted(ends, limit, side="right")))
        yield terms[start:stop]
        start = stop


def _row_sums(values: np.ndarray, lengths: Sequence[int]) -> np.ndarray:
    """Sums of the consecutive rows of ``values``, of ascending ``lengths``, each added as a 1-D ``sum`` adds it.

    The rows of one length are summed as one C-contiguous block, whose row
    sums match the 1-D sums bit for bit (numpy's pairwise summation);
    ``np.add.reduceat`` and ``np.bincount`` add sequentially and round
    differently.
    """
    sums = np.empty(len(lengths))
    first = offset = 0
    for length, run in itertools.groupby(lengths):
        count = len(list(run))
        sums[first : first + count] = np.add.reduce(values[offset : offset + count * length].reshape(count, length), 1)
        first += count
        offset += count * length
    return sums


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
    order or scheduling; a term draws its present side first.

    Only the draws loop over terms; everything else runs over blocks of
    terms. Each partition's cosines are summed as a 1-D ``sum`` would sum
    them, as rows of blocks (``_row_sums``): sampled partitions are rows of
    width cap, the others are grouped by length. phi itself is ``math.log``
    per term, which ``np.log`` does not match in the last bit.

    The complement is summed directly: deriving it from the total cancels
    catastrophically and can turn an exact zero into noise. A sampled
    complement's pick p is the candidate at position p + #{i : e_i - i <= p},
    where e are the term's present positions among the candidates; one
    ``searchsorted`` per block finds every pick. Unsampled complements are
    read through a row mask per block of terms. Beyond the unit's postings
    and a few arrays of one value per candidate, memory is one block of
    ``_PHI_BLOCK_BYTES`` (or one row of candidates), never terms x
    candidates. Block widths count a few 8-byte temporaries per pick,
    posting and candidate.
    """
    cos = seed_similarities(stats)
    candidate_cos = cos[stats.candidates]
    ranks = np.cumsum(stats.is_candidate) - 1  # each candidate row's position among the candidates
    n, cap = stats.num_docs, params.undersample_cap
    n_terms = len(stats.seed_terms)
    rows = stats.posting_rows
    bounds = np.searchsorted(stats.posting_terms, np.arange(n_terms + 1))
    present_len = np.diff(bounds)
    absent_len = n - present_len
    present_sums = np.zeros(n_terms)
    absent_sums = np.zeros(n_terms)

    sample_present = undersample & (present_len > cap)
    sample_absent = undersample & (absent_len > cap)
    drawn = np.flatnonzero(sample_present | sample_absent)
    names = [stats.index.terms[column] for column in stats.seed_terms[drawn].tolist()]
    generators = keyed_generators((params.rng_seed, *rng_key), names)
    for block in _blocks(drawn, 64 * cap + 32 * present_len[drawn]):
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
        present_sums[terms] = cos[rows[bounds[terms][:, None] + present_picks]].sum(axis=1)
        # Each posting of the block gets a key: its term's base plus how many of
        # the term's absent candidates precede it. Keys ascend, as postings do.
        start, stop = bounds[block[0]], bounds[block[-1] + 1]
        posting_terms = stats.posting_terms[start:stop]
        keys = posting_terms * (n + 1) + ranks[rows[start:stop]] - np.arange(start, stop) + bounds[posting_terms]
        terms = block[sample_absent[block]]
        found = np.searchsorted(keys, (terms * (n + 1))[:, None] + absent_picks, side="right")
        found += absent_picks + start - bounds[terms][:, None]
        absent_sums[terms] = candidate_cos[found].sum(axis=1)

    terms = np.flatnonzero(~sample_present & (present_len > 0))
    terms = terms[np.argsort(present_len[terms], kind="stable")]
    for block in _blocks(terms, 24 * present_len[terms]):
        present_sums[block] = _row_sums(cos[rows[line_entries(bounds, block)[0]]], present_len[block].tolist())
    terms = np.flatnonzero(~sample_absent & (absent_len > 0))
    terms = terms[np.argsort(absent_len[terms], kind="stable")]
    repeated = np.broadcast_to(candidate_cos, (max(1, _PHI_BLOCK_BYTES // (9 * n)), n))
    for block in _blocks(terms, 9 * n + 24 * present_len[terms]):
        entries, df = line_entries(bounds, block)
        mask = np.ones((len(block), n), dtype=bool)
        mask[np.repeat(np.arange(len(block)), df), ranks[rows[entries]]] = False
        absent_sums[block] = _row_sums(repeated[: len(block)][mask], absent_len[block].tolist())

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
    embeddings = stats.index.embeddings
    seed = seed_embedding(stats)
    scores = cosine(embeddings @ seed, np.linalg.norm(embeddings, axis=1), float(np.linalg.norm(seed)))
    return scores[stats.candidates]


def sort_scored(scores: Mapping[str, float]) -> list[tuple[str, float]]:
    """Scores sorted descending, ties broken by doc_id ascending: the tie rule ``rank`` follows."""
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
) -> RunUnit:
    """Rank a topic's candidates against one seed or a group of seeds.

    The seeds are removed from the candidate pool before collection
    statistics are computed (they are judged, not screened). Multiple seeds
    form one pseudo-seed, their texts concatenated in order. Returns the
    unit keyed by ``run_key`` (default: the topic id): its candidate rows
    and their scores, by score descending with ties broken by doc_id
    ascending (``sort_scored``'s order), from one ``np.lexsort`` on
    (``index.doc_order``, -score).
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
    order = np.lexsort((index.doc_order[stats.candidates], -scores))
    return RunUnit(key, f"{method}-{index.representation}", index.doc_ids, stats.candidates[order], scores[order])
