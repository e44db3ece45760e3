"""The per-topic term matrix, run-unit statistics, tf-idf weights and embedding averages.

A topic's candidates are counted once, into a ``TopicIndex``: one copy of
the doc-term counts, stored row by row as numpy arrays, each row keeping its
document's terms in order of first occurrence; and integer document
lengths, document frequencies and collection counts. Each candidate's
counts are appended to flat 32-bit buffers as soon as it is counted, so the
build never holds a mapping per candidate; column numbers and counts stay
32-bit, so a stored count takes 8 bytes; line offsets and totals are
64-bit. An entry's row is not stored: it is the line of the row offsets the
entry falls in.
For AES it also holds every candidate's mean embedding. Every run unit of
the topic (one seed, or one seed group) ranks against that one index. The
index also holds three sums per row, taken once per build over blocks of
whole rows (``blocks``), from which a unit takes its candidates' tf-idf
norms; its seed dots come from its seed terms' postings, so a unit's
cosines cost time in its postings, not in the topic's stored counts.

A unit's statistics are the index's minus its seed rows, which is exact in
integers: seeds are judged, not screened, so they are not part of the
collection. Background probabilities use maximum likelihood over the
unit's candidates: p(t|C) = collection_count(t) / total_tokens.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import Document, EmbeddingTable, Topic, doc_order, is_relevant
from .errors import ConfigError, ContractError, EmptyTopicError
from .text import PipelineConfig, SurfaceForms, document_text, split

REPRESENTATIONS = ("bow", "boc")

# Bytes of temporaries per block of drawn terms (phi), rows or entries (an index's totals), which
# bounds their memory. No result depends on it: each block's sums are exact or whole per row or term.
BLOCK_BYTES = 1 << 17


@dataclass(frozen=True, eq=False)
class Compressed:
    """A sparse matrix stored line by line: line i holds ``indices[indptr[i]:indptr[i + 1]]``
    with ``data`` at the same positions.

    A ``TopicIndex`` keeps its counts as lines of rows (indices are columns).
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def line_entries(indptr: np.ndarray, lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the entries of ``lines``, line after line in the given order, and each line's length."""
    starts = indptr[lines]
    lengths = indptr[lines + 1] - starts
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1] if len(ends) else 0), lengths


def blocks(items: np.ndarray, widths) -> Iterator[np.ndarray]:
    """Consecutive slices of ``items`` whose ``widths`` (bytes) add up to at most ``BLOCK_BYTES``, or one item."""
    ends = np.cumsum(np.broadcast_to(widths, items.shape))
    start = 0
    while start < len(items):
        limit = (ends[start - 1] if start else 0) + BLOCK_BYTES
        stop = max(start + 1, int(np.searchsorted(ends, limit, side="right")))
        yield items[start:stop]
        start = stop


def _column_totals(counts: Compressed, n_columns: int) -> tuple[np.ndarray, np.ndarray]:
    """Each column's number of entries (its df) and the int64 total of its counts.

    Taken over consecutive blocks of entries, about 24 bytes of temporaries
    per entry and at most ``BLOCK_BYTES`` per block, plus the two totals.
    The float sums of integer counts are exact below 2**53.
    """
    doc_freq, totals = np.zeros(n_columns, dtype=np.int64), np.zeros(n_columns)
    step = BLOCK_BYTES // 24
    for start in range(0, len(counts.indices), step):
        columns = counts.indices[start : start + step]
        doc_freq += np.bincount(columns, minlength=n_columns)
        totals += np.bincount(columns, weights=counts.data[start : start + step], minlength=n_columns)
    return doc_freq, totals.astype(np.int64)


def _row_totals(counts: Compressed, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's int64 total of its counts c, and the 3 x N row sums of c², c²·x and c²·x², x read per column.

    Taken over consecutive blocks of whole rows, about 40 bytes of
    temporaries per stored count and at most ``BLOCK_BYTES`` per block (or
    one row); ``np.bincount`` adds each row's products one by one in stored
    order from 0. The float sums of integer counts are exact below 2**53.
    """
    lengths = np.diff(counts.indptr)
    totals, sums = np.empty(len(lengths)), np.empty((3, len(lengths)))
    for block in blocks(np.arange(len(lengths)), 40 * lengths):
        start, stop = block[0], block[-1] + 1
        entries = slice(counts.indptr[start], counts.indptr[stop])
        values = counts.data[entries].astype(float)
        weights = values * x[counts.indices[entries]]
        rows = np.repeat(np.arange(len(block)), lengths[start:stop])
        totals[start:stop] = np.bincount(rows, weights=values, minlength=len(block))
        sums[0, start:stop] = np.bincount(rows, weights=values * values, minlength=len(block))
        sums[1, start:stop] = np.bincount(rows, weights=weights * values, minlength=len(block))
        sums[2, start:stop] = np.bincount(rows, weights=weights * weights, minlength=len(block))
    return totals.astype(np.int64), sums


@dataclass(frozen=True, eq=False)
class TopicIndex:
    """One topic's candidates, counted once and shared by all its run units.

    Rows follow ``doc_ids`` (the topic's candidate order), columns follow
    ``terms`` (order of first occurrence). ``counts`` holds the rows, each
    in order of first occurrence of its terms; an entry's row is the line of
    ``counts.indptr`` it falls in, and is not stored. ``counts`` is the
    index's one copy of the counts: a unit finds its seed terms' postings
    in it (``build_stats``). Column numbers (``counts.indices``) and counts
    (``counts.data``) are int32, so a stored count takes 8 bytes; the line
    offsets (``indptr``) and the totals ``doc_lengths``, ``doc_freq`` and
    ``collection_counts`` are int64. Sums over the int32 arrays are
    exact: float sums of integers below 2**53, taken over blocks of entries
    or rows within ``BLOCK_BYTES`` and cast to int64.
    ``doc_order`` is each row's position in ``sorted(doc_ids)``
    (``corpus.doc_order``, which breaks score ties in a ranking); ``relevant``
    marks the rows judged relevant (``corpus.is_relevant``). ``embeddings``
    is the N x d matrix of mean embeddings, None when built without an
    embedding table; ``embedding_hits`` counts the tokens each row's mean is
    over. ``embedding_norms`` holds each mean's Euclidean norm, taken from
    ``embeddings`` whenever an index is made (``replace`` included), so every
    AES unit divides by the same norms without taking them again.
    ``norm_sums`` holds three sums per row over its counts c, with x the
    topic's idf ln(N/df) per column: Σc², Σc²·x and Σc²·x² (``_row_totals``).
    They are taken once, by ``from_rows``; ``replace`` copies them. A unit
    with N' candidates gives a term no seed holds the idf x + δ, δ =
    ln(N'/N), so a row's squared tf-idf norm over those terms is
    Σc²·x² + 2δ·Σc²·x + δ²·Σc² (``seed_similarities``).
    """

    topic: Topic
    representation: str
    doc_ids: tuple[str, ...]
    rows: dict[str, int]
    terms: tuple[str, ...]
    counts: Compressed
    doc_lengths: np.ndarray
    doc_freq: np.ndarray
    collection_counts: np.ndarray
    doc_order: np.ndarray
    relevant: np.ndarray
    norm_sums: np.ndarray
    embeddings: np.ndarray | None = None
    embedding_hits: np.ndarray | None = None
    embedding_norms: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        norms = None if self.embeddings is None else np.linalg.norm(self.embeddings, axis=1)
        object.__setattr__(self, "embedding_norms", norms)

    @classmethod
    def from_rows(
        cls,
        topic: Topic,
        doc_ids: tuple[str, ...],
        rows: Iterable[Mapping[int, int]],
        terms: Iterable[str],
        representation: str,
    ) -> "TopicIndex":
        """Index one column -> count mapping per document, in ``doc_ids`` order; ``terms`` names the columns.

        Each row's length, columns and counts are appended to flat 32-bit
        buffers as the row arrives, so ``rows`` may make each mapping on
        demand and no list of them is ever held. ``terms`` is read after the
        last row: it may grow while the rows are made.
        """
        lengths, indices, data = array("i"), array("i"), array("i")
        for row in rows:
            lengths.append(len(row))
            indices.fromlist(list(row))
            data.fromlist(list(row.values()))
        terms = tuple(terms)
        # The arrays view the buffers; typecode "i" is a C int, 32 bits wide.
        lengths, indices, data = (np.frombuffer(buffer, np.int32) for buffer in (lengths, indices, data))
        counts = Compressed(np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))), indices, data)
        doc_freq, collection_counts = _column_totals(counts, len(terms))
        doc_lengths, norm_sums = _row_totals(counts, idf(len(doc_ids), doc_freq))
        judgments = topic.judgments
        return cls(
            topic=topic,
            representation=representation,
            doc_ids=doc_ids,
            rows={doc_id: i for i, doc_id in enumerate(doc_ids)},
            terms=terms,
            counts=counts,
            doc_lengths=doc_lengths,
            doc_freq=doc_freq,
            collection_counts=collection_counts,
            doc_order=doc_order(doc_ids),
            relevant=np.fromiter((is_relevant(judgments.get(d, 0)) for d in doc_ids), bool, len(doc_ids)),
            norm_sums=norm_sums,
        )

    @property
    def topic_id(self) -> str:
        return self.topic.topic_id

    def row_numbers(self, doc_ids: Iterable[str]) -> np.ndarray:
        """Rows of ``doc_ids`` in the given order; ContractError for a non-candidate."""
        doc_ids = list(doc_ids)
        missing = [d for d in doc_ids if d not in self.rows]
        if missing:
            raise ContractError(f"topic {self.topic_id!r}: documents not among its candidates: {missing}")
        return np.array([self.rows[d] for d in doc_ids], dtype=np.intp)


def check_representation(representation: str) -> None:
    """Raise ConfigError unless ``representation`` is one of ``REPRESENTATIONS``."""
    if representation not in REPRESENTATIONS:
        raise ConfigError("representation", f"must be one of {REPRESENTATIONS}, got {representation!r}")


def build_index(
    topic: Topic,
    corpus: Mapping[str, Document],
    representation: str,
    pipeline: PipelineConfig,
    *,
    lexicon: frozenset[str] | None = None,
    embeddings: EmbeddingTable | None = None,
) -> TopicIndex:
    """Count every candidate of ``topic`` once; with ``embeddings``, average its token vectors once.

    Each candidate is looked up in ``corpus`` when its row is made, split
    once and dropped; with a ``corpus.Corpus``, which reads each lookup from
    its file, the build holds one candidate's text at a time and the index
    none. Each distinct surface form is normalised once per call, into its
    column and embedding row (``text.SurfaceForms``), so a document's counts
    and its embedding rows are lookups of its tokens.
    """
    check_representation(representation)
    if representation == "boc" and lexicon is None:
        raise ContractError("the boc representation requires a lexicon")
    absent = [d for d in topic.candidate_ids if d not in corpus]
    if absent:
        raise ContractError(
            f"topic {topic.topic_id!r}: {len(absent)} candidates missing from the corpus "
            f"(first: {absent[:3]})"
        )
    doc_ids = tuple(dict.fromkeys(topic.candidate_ids))
    means = hits = None
    if embeddings is not None:
        means = np.zeros((len(doc_ids), embeddings.dimension))
        hits = np.zeros(len(doc_ids), dtype=np.int64)

    terms: list[str] = []

    # Made one at a time as from_rows stores them; each also fills its row's embedding mean.
    # The form table lives in the generator's frame, so it is freed once the last row is
    # made and its terms are handed over, before from_rows takes the index's arrays and totals.
    def rows():
        forms = SurfaceForms(pipeline.stopwords, lexicon if representation == "boc" else None, embeddings)
        for i, doc_id in enumerate(doc_ids):
            tokens = split(document_text(corpus[doc_id], pipeline), pipeline.variant)
            counts = Counter(map(forms.__getitem__, tokens))
            counts.pop(-1, None)
            if embeddings is not None:
                embedding_rows = np.fromiter(map(forms.embedding_rows.__getitem__, tokens), np.intp, len(tokens))
                means[i], hits[i] = aes_vector(embedding_rows[embedding_rows >= 0], embeddings)
            yield counts
        terms.extend(forms.columns)

    index = TopicIndex.from_rows(topic, doc_ids, rows(), terms, representation)
    return replace(index, embeddings=means, embedding_hits=hits)


@dataclass(frozen=True, eq=False)
class CollectionStats:
    """One run unit's view of a topic index: its seeds and its candidates' statistics.

    Its only row numbers are ``seed_rows`` and ``candidates`` (the other rows, in
    topic order); ``candidate_lengths`` follows the candidates, and a position is an
    index into them. ``seed_terms`` are the summed seed rows' columns in order of first
    occurrence in the seed texts; ``seed_counts``, ``doc_freq`` and ``collection_counts``
    (over the candidates) follow them. The seed terms' postings among the candidates
    are grouped by seed term, positions ascending: ``posting_terms`` holds each posting's
    seed-term position, ``posting_positions`` its candidate position and ``posting_counts`` its count.
    """

    index: TopicIndex
    seed_rows: np.ndarray
    candidates: np.ndarray
    num_docs: int
    candidate_lengths: np.ndarray
    total_tokens: int
    seed_terms: np.ndarray
    seed_counts: np.ndarray
    doc_freq: np.ndarray
    collection_counts: np.ndarray
    posting_terms: np.ndarray
    posting_positions: np.ndarray
    posting_counts: np.ndarray


def build_stats(index: TopicIndex, seed_ids: Sequence[str]) -> CollectionStats:
    """Statistics of the unit that ranks ``index`` against ``seed_ids``, each listed once (seeds are not candidates).

    A seed term's df and collection count are the index's minus the seed rows', which hold a term at most once each.
    """
    seed_rows = index.row_numbers(seed_ids)
    if len(set(seed_ids)) < len(seed_ids):
        raise ContractError(f"topic {index.topic_id!r}: a seed is listed more than once: {list(seed_ids)}")
    candidates = np.delete(np.arange(len(index.doc_ids)), seed_rows)
    if not len(candidates):
        raise EmptyTopicError(f"topic {index.topic_id!r} has no candidates after seed exclusion")
    counts = index.counts
    candidate_lengths = index.doc_lengths[candidates]

    seed_entries, _ = line_entries(counts.indptr, seed_rows)
    terms = counts.indices[seed_entries]
    # Sorted stably by term, each term's run starts at its first occurrence.
    by_term = np.argsort(terms, kind="stable")
    firsts = by_term[np.flatnonzero(np.diff(terms[by_term], prepend=-1))]
    seed_terms = terms[np.sort(firsts)]
    position = np.full(len(index.terms), -1, dtype=np.int32)
    position[seed_terms] = np.arange(len(seed_terms), dtype=np.int32)
    # The float sums of integer counts are exact below 2**53.
    seed_keys = position[terms]
    seed_counts = np.bincount(seed_keys, weights=counts.data[seed_entries], minlength=len(seed_terms)).astype(np.int64)

    # Each entry's seed-term position, or -1: for other terms and for the seed rows' entries.
    keys = position[counts.indices]
    keys[seed_entries] = -1
    entries = np.flatnonzero(keys >= 0)
    # Rebinding frees the key of every entry. numpy's stable sort radix-sorts keys of
    # 16 bits or fewer, so the kept keys take the narrowest unsigned type.
    keys = keys[entries].astype(np.min_scalar_type(len(seed_terms)))
    # Each entry's candidate position: every candidate repeated as often as it holds entries, which ascend.
    held = np.diff(np.searchsorted(entries, counts.indptr))[candidates]
    positions = np.repeat(np.arange(len(candidates), dtype=np.int32), held)
    # Sorted stably on their keys, each term's entries keep their candidate order. Each array is
    # gathered in entry order first, which is several times faster than through the sort.
    order = np.argsort(keys, kind="stable")
    return CollectionStats(
        index=index,
        seed_rows=seed_rows,
        candidates=candidates,
        num_docs=len(candidates),
        candidate_lengths=candidate_lengths,
        total_tokens=int(candidate_lengths.sum()),
        seed_terms=seed_terms,
        seed_counts=seed_counts,
        doc_freq=index.doc_freq[seed_terms] - np.bincount(seed_keys, minlength=len(seed_terms)),
        collection_counts=index.collection_counts[seed_terms] - seed_counts,
        posting_terms=keys[order].astype(np.intp),
        posting_positions=positions[order],
        posting_counts=counts.data[entries][order],
    )


def idf(num_docs: int, doc_freq: np.ndarray) -> np.ndarray:
    """ln(N/df) per column; 0 where df = 0 (no defined idf) or df = N (weight exactly 0)."""
    weights = np.zeros(len(doc_freq))
    defined = (doc_freq > 0) & (doc_freq < num_docs)
    weights[defined] = np.log(num_docs / doc_freq[defined])
    return weights


def cosine(dots: np.ndarray, norms: np.ndarray, other_norms) -> np.ndarray:
    """dots / (norms * other_norms) elementwise; 0 where either norm vanishes."""
    denominators = norms * other_norms
    return np.divide(dots, denominators, out=np.zeros(len(dots)), where=denominators != 0.0)


def seed_similarities(stats: CollectionStats) -> np.ndarray:
    """tf-idf cosine between the summed seed rows and each of the unit's candidates, in candidate order.

    A term no seed holds keeps its df, so its idf under the unit is the
    topic's x plus δ = ln(N'/N), and a candidate's squared norm over such
    terms is C + 2δB + δ²A from the index's per-row sums (``TopicIndex``).
    Only the seed terms' df changed: ``np.bincount`` over their postings
    swaps their (x + δ)² for their idf under the unit, and takes the dots,
    in one pass over all the postings (a few 8-byte temporaries each), so
    no cosine depends on ``BLOCK_BYTES``. A unit costs time in its postings
    and candidates, never in the topic's stored counts, and reads no seed
    row. The sums are centred on the topic's idf, not on ln df, so the
    rounding of a norm is a few ulps of Σc²(x + |δ|)², close to the norm
    itself unless a row is mostly terms held by nearly every candidate.
    """
    index, n, n_rows = stats.index, stats.num_docs, len(stats.index.doc_ids)
    delta = math.log(n / n_rows)
    term_idf = idf(n, stats.doc_freq)
    shifted = idf(n_rows, index.doc_freq[stats.seed_terms]) + delta
    seed_weights = stats.seed_counts * term_idf
    # Per seed term: what a squared count adds to a norm, and what a count adds to a dot.
    norm_changes, dot_weights = term_idf * term_idf - shifted * shifted, term_idf * seed_weights
    k, positions, counts = stats.posting_terms, stats.posting_positions, stats.posting_counts.astype(float)
    changes = np.bincount(positions, weights=counts * counts * norm_changes[k], minlength=n)
    dots = np.bincount(positions, weights=counts * dot_weights[k], minlength=n)
    a, b, c = index.norm_sums[:, stats.candidates]
    norms = np.sqrt(np.maximum(c + 2.0 * delta * b + delta * delta * a + changes, 0.0))
    return cosine(dots, norms, math.sqrt(float((seed_weights * seed_weights).sum())))


def seed_embedding(stats: CollectionStats) -> np.ndarray:
    """Mean embedding over the seeds' concatenated tokens, from their rows."""
    index = stats.index
    if len(stats.seed_rows) == 1:
        # The row itself, not (hits * mean) / hits, which may round differently.
        return index.embeddings[stats.seed_rows[0]]
    hits = index.embedding_hits[stats.seed_rows]
    total = int(hits.sum())
    if total == 0:
        return np.zeros(index.embeddings.shape[1])
    return hits @ index.embeddings[stats.seed_rows] / total


def aes_vector(rows: np.ndarray, table: EmbeddingTable) -> tuple[np.ndarray, int]:
    """Mean of the embedding ``rows``, one per matched token occurrence, summed in token order.

    Returns the mean vector and the number of rows; no rows (an empty or
    all-out-of-vocabulary text) yields (zero vector, 0).
    """
    if not len(rows):
        return np.zeros(table.dimension), 0
    return table.matrix[rows].sum(axis=0) / len(rows), len(rows)
