"""The per-topic term matrix, run-unit statistics, tf-idf weights and embedding averages.

A topic's candidates are counted once, into a ``TopicIndex``: doc-term
counts stored row by row as numpy arrays, each row keeping its document's
terms in order of first occurrence; a column-by-column copy whose columns
are postings in candidate order; and integer document lengths, document
frequencies and collection counts. Each candidate's counts are appended to
flat 32-bit buffers as soon as it is counted, so the build never holds a
mapping per candidate; column numbers, row numbers and counts stay 32-bit,
line offsets and totals are 64-bit.
For AES it also holds every candidate's mean embedding. Every run unit of
the topic (one seed, or one seed group) ranks against that one index.

A unit's statistics are the index's minus its seed rows, which is exact in
integers: seeds are judged, not screened, so they are not part of the
collection. Background probabilities use maximum likelihood over the
unit's candidates: p(t|C) = collection_count(t) / total_tokens.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Document, EmbeddingTable, Lexicon, Topic
from .errors import ContractError, EmptyTopicError
from .text import PipelineConfig, SurfaceForms, document_text, split

REPRESENTATIONS = ("bow", "boc")


@dataclass(frozen=True, eq=False)
class Compressed:
    """A sparse matrix stored line by line: line i holds ``indices[indptr[i]:indptr[i + 1]]``
    with ``data`` at the same positions.

    A ``TopicIndex`` keeps its counts as lines of rows (indices are columns)
    and its postings as lines of columns (indices are rows).
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


def _line_sums(matrix: Compressed) -> np.ndarray:
    """Exact int64 total of each line's data; 0 for an empty line."""
    # reduceat gives an empty line the next entry (or the appended 0 at the end).
    totals = np.add.reduceat(np.append(matrix.data, 0), matrix.indptr[:-1], dtype=np.int64)
    totals[matrix.indptr[1:] == matrix.indptr[:-1]] = 0
    return totals


def _postings(counts: Compressed, entry_rows: np.ndarray, doc_freq: np.ndarray) -> Compressed:
    """The column-by-column copy of ``counts``: each column's rows ascending, with their counts.

    The entries are sorted by column, stably, so rows stay in order: a
    least-significant-digit radix sort over 16-bit digits (the uint16 cast
    keeps the low 16 bits). numpy's stable sort of uint16 keys is itself a
    radix sort, and much faster than a stable sort of the full-width keys.
    """
    indices = counts.indices
    order = np.argsort(indices.astype(np.uint16), kind="stable")
    shift = 16
    while len(doc_freq) > 1 << shift:
        order = order[np.argsort((indices[order] >> shift).astype(np.uint16), kind="stable")]
        shift += 16
    return Compressed(np.concatenate(([0], np.cumsum(doc_freq))), entry_rows[order], counts.data[order])


@dataclass(frozen=True, eq=False)
class TopicIndex:
    """One topic's candidates, counted once and shared by all its run units.

    Rows follow ``doc_ids`` (the topic's candidate order), columns follow
    ``terms`` (order of first occurrence). ``counts`` holds the rows, each
    in order of first occurrence of its terms, and ``entry_rows`` the row of
    each of its entries; ``postings`` holds the columns, rows ascending.
    Column numbers (``counts.indices``), row numbers (``entry_rows``,
    ``postings.indices``) and counts (both ``data``) are int32; the line
    offsets (``indptr``) and the totals ``doc_lengths``, ``doc_freq`` and
    ``collection_counts`` are int64. Sums over the int32 arrays, and
    products of a row number with a column number, are taken in int64.
    ``doc_order`` is each row's position in ``sorted(doc_ids)`` (Python
    ``str`` order, which breaks score ties in a ranking); ``relevant`` marks
    the rows judged relevant (grade >= 1). ``embeddings`` is the N x d
    matrix of mean embeddings, None when built without an embedding table;
    ``embedding_hits`` counts the tokens each row's mean is over.
    """

    topic: Topic
    representation: str
    doc_ids: tuple[str, ...]
    rows: dict[str, int]
    terms: tuple[str, ...]
    counts: Compressed
    entry_rows: np.ndarray
    postings: Compressed
    doc_lengths: np.ndarray
    doc_freq: np.ndarray
    collection_counts: np.ndarray
    doc_order: np.ndarray
    relevant: np.ndarray
    embeddings: np.ndarray | None = None
    embedding_hits: np.ndarray | None = None

    @classmethod
    def from_counts(
        cls, topic: Topic, counts: Mapping[str, Mapping[str, int]], representation: str = "bow"
    ) -> "TopicIndex":
        """Index doc_id -> term -> count; the mapping's order is the row order."""
        vocabulary: dict[str, int] = {}
        rows = (
            {vocabulary.setdefault(term, len(vocabulary)): count for term, count in doc.items()}
            for doc in counts.values()
        )
        return cls.from_rows(topic, tuple(counts), rows, vocabulary, representation)

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
        entry_rows = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)
        doc_freq = np.bincount(indices, minlength=len(terms)).astype(np.int64)
        counts = Compressed(np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))), indices, data)
        postings = _postings(counts, entry_rows, doc_freq)
        doc_order = np.empty(len(doc_ids), dtype=np.intp)
        doc_order[sorted(range(len(doc_ids)), key=doc_ids.__getitem__)] = np.arange(len(doc_ids))
        judgments = topic.judgments
        return cls(
            topic=topic,
            representation=representation,
            doc_ids=doc_ids,
            rows={doc_id: i for i, doc_id in enumerate(doc_ids)},
            terms=terms,
            counts=counts,
            entry_rows=entry_rows,
            postings=postings,
            doc_lengths=_line_sums(counts),
            doc_freq=doc_freq,
            collection_counts=_line_sums(postings),
            doc_order=doc_order,
            relevant=np.fromiter((judgments.get(d, 0) >= 1 for d in doc_ids), bool, len(doc_ids)),
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


def build_index(
    topic: Topic,
    corpus: Mapping[str, Document],
    representation: str,
    pipeline: PipelineConfig,
    *,
    lexicon: Lexicon | None = None,
    embeddings: EmbeddingTable | None = None,
) -> TopicIndex:
    """Count every candidate of ``topic`` once; with ``embeddings``, average its token vectors once.

    Each candidate is split once. Each distinct surface form is normalised
    once per call, into its column and embedding row (``text.SurfaceForms``),
    so a document's counts and its embedding rows are lookups of its tokens.
    """
    if representation not in REPRESENTATIONS:
        raise ValueError(f"unknown representation {representation!r}")
    if representation == "boc" and lexicon is None:
        raise ContractError("the boc representation requires a lexicon")
    absent = [d for d in topic.candidate_ids if d not in corpus]
    if absent:
        raise ContractError(
            f"topic {topic.topic_id!r}: {len(absent)} candidates missing from the corpus "
            f"(first: {absent[:3]})"
        )
    docs = {d: corpus[d] for d in topic.candidate_ids}
    forms = SurfaceForms(pipeline.stopwords, lexicon if representation == "boc" else None, embeddings)
    means = hits = None
    if embeddings is not None:
        means = np.zeros((len(docs), embeddings.dimension))
        hits = np.zeros(len(docs), dtype=np.int64)

    # Made one at a time as from_rows stores them; each also fills its row's embedding mean.
    def rows():
        for i, doc in enumerate(docs.values()):
            tokens = split(document_text(doc, pipeline), pipeline.variant)
            counts = Counter(map(forms.__getitem__, tokens))
            counts.pop(-1, None)
            if embeddings is not None:
                embedding_rows = np.fromiter(map(forms.embedding_rows.__getitem__, tokens), np.intp, len(tokens))
                means[i], hits[i] = aes_vector(embedding_rows[embedding_rows >= 0], embeddings)
            yield counts

    index = TopicIndex.from_rows(topic, tuple(docs), rows(), forms.columns, representation)
    return replace(index, embeddings=means, embedding_hits=hits)


@dataclass(frozen=True, eq=False)
class CollectionStats:
    """One run unit's view of a topic index: its seeds and its candidates' statistics.

    ``candidates`` are the index rows left after removing the seed rows, in
    topic order. ``seed_terms`` are the columns of the summed seed rows in
    order of first occurrence in the concatenated seed texts, with
    ``seed_counts``. The postings of the seed terms among the candidates are
    grouped by seed term in that order, ascending rows within a term:
    ``posting_terms`` holds each posting's seed-term position k,
    ``posting_rows`` its row and ``posting_counts`` its count.
    """

    index: TopicIndex
    seed_rows: np.ndarray
    candidates: np.ndarray
    is_candidate: np.ndarray
    num_docs: int
    doc_freq: np.ndarray
    collection_counts: np.ndarray
    total_tokens: int
    avg_doc_length: float
    seed_terms: np.ndarray
    seed_counts: np.ndarray
    posting_terms: np.ndarray
    posting_rows: np.ndarray
    posting_counts: np.ndarray


def build_stats(index: TopicIndex, seed_ids: Sequence[str]) -> CollectionStats:
    """Statistics of the unit that ranks ``index`` against ``seed_ids`` (the seeds are not candidates)."""
    seed_rows = index.row_numbers(seed_ids)
    is_candidate = np.ones(len(index.doc_ids), dtype=bool)
    is_candidate[seed_rows] = False
    candidates = np.flatnonzero(is_candidate)
    if not len(candidates):
        raise EmptyTopicError(f"topic {index.topic_id!r} has no candidates after seed exclusion")
    counts, n_terms = index.counts, len(index.terms)
    total = int(index.doc_lengths[candidates].sum())

    # The float sums of integer counts are exact below 2**53.
    removed, _ = line_entries(counts.indptr, np.flatnonzero(~is_candidate))
    removed_terms = counts.indices[removed]
    removed_counts = np.bincount(removed_terms, weights=counts.data[removed], minlength=n_terms).astype(np.int64)

    seed_entries, _ = line_entries(counts.indptr, seed_rows)
    terms = counts.indices[seed_entries]
    # Sorted stably by term, each term's run starts at its first occurrence.
    by_term = np.argsort(terms, kind="stable")
    firsts = by_term[np.flatnonzero(np.diff(terms[by_term], prepend=-1))]
    seed_terms = terms[np.sort(firsts)]
    seed_counts = np.bincount(terms, weights=counts.data[seed_entries], minlength=n_terms)[seed_terms].astype(np.int64)

    positions, df = line_entries(index.postings.indptr, seed_terms)
    rows = index.postings.indices[positions]
    kept = is_candidate[rows]
    return CollectionStats(
        index=index,
        seed_rows=seed_rows,
        candidates=candidates,
        is_candidate=is_candidate,
        num_docs=len(candidates),
        doc_freq=index.doc_freq - np.bincount(removed_terms, minlength=n_terms),
        collection_counts=index.collection_counts - removed_counts,
        total_tokens=total,
        avg_doc_length=total / len(candidates),
        seed_terms=seed_terms,
        seed_counts=seed_counts,
        posting_terms=np.repeat(np.arange(len(seed_terms)), df)[kept],
        posting_rows=rows[kept],
        posting_counts=index.postings.data[positions][kept],
    )


def tfidf(stats: CollectionStats) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw-count tf times ln(N/df) for every index row, under the unit's statistics.

    Returns the weights, one per entry of ``stats.index.counts``, their row
    norms and the idf per column. Terms no candidate holds (df = 0) have no
    defined idf, and df = N terms weigh exactly zero; both get idf 0.
    """
    n, df = stats.num_docs, stats.doc_freq
    idf = np.zeros(len(df))
    defined = (df > 0) & (df < n)
    idf[defined] = np.log(n / df[defined])
    index = stats.index
    weights = index.counts.data * idf[index.counts.indices]
    norms = np.sqrt(np.bincount(index.entry_rows, weights=weights * weights, minlength=len(index.doc_ids)))
    return weights, norms, idf


def cosine(dots: np.ndarray, norms: np.ndarray, other_norms) -> np.ndarray:
    """dots / (norms * other_norms) elementwise; 0 where either norm vanishes."""
    denominators = norms * other_norms
    return np.divide(dots, denominators, out=np.zeros(len(dots)), where=denominators != 0.0)


def seed_similarities(stats: CollectionStats) -> np.ndarray:
    """tf-idf cosine between the summed seed rows and every index row."""
    weights, norms, idf = tfidf(stats)
    seed_weights = stats.seed_counts * idf[stats.seed_terms]
    seed = np.zeros(len(idf))
    seed[stats.seed_terms] = seed_weights
    index = stats.index
    # bincount adds each row's products one by one, in stored order.
    dots = np.bincount(index.entry_rows, weights=weights * seed[index.counts.indices], minlength=len(index.doc_ids))
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
