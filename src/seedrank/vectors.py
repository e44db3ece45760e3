"""Per-topic collection statistics, tf-idf vectors and embedding averages.

Statistics are always built over exactly one topic's candidate set, after
seed exclusion. Background probabilities use maximum likelihood over that
set: p(t|C) = collection_count(t) / total_tokens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .corpus import EmbeddingTable
from .errors import EmptyCollectionError
from .text import TermCounts


@dataclass(frozen=True)
class CollectionStats:
    """Aggregate counts over one candidate collection; immutable once built."""

    num_docs: int
    doc_freq: dict[str, int]
    collection_counts: dict[str, int]
    total_tokens: int
    doc_lengths: dict[str, int]
    avg_doc_length: float

    def p_collection(self, term: str) -> float:
        """Maximum-likelihood background probability of ``term``."""
        if self.total_tokens == 0:
            return 0.0
        return self.collection_counts.get(term, 0) / self.total_tokens


@dataclass(frozen=True)
class TfIdfVector:
    """Sparse tf-idf weights with the Euclidean norm cached."""

    weights: dict[str, float]
    norm: float


def build_stats(candidates: Mapping[str, TermCounts]) -> CollectionStats:
    """Build collection statistics from doc_id -> TermCounts."""
    if not candidates:
        raise EmptyCollectionError("cannot build statistics over zero candidates")
    doc_freq: dict[str, int] = {}
    collection_counts: dict[str, int] = {}
    doc_lengths: dict[str, int] = {}
    total = 0
    for doc_id, tc in candidates.items():
        doc_lengths[doc_id] = tc.length
        total += tc.length
        for term, count in tc.counts.items():
            doc_freq[term] = doc_freq.get(term, 0) + 1
            collection_counts[term] = collection_counts.get(term, 0) + count
    n = len(candidates)
    return CollectionStats(
        num_docs=n,
        doc_freq=doc_freq,
        collection_counts=collection_counts,
        total_tokens=total,
        doc_lengths=doc_lengths,
        avg_doc_length=total / n,
    )


def tfidf(doc: TermCounts, stats: CollectionStats) -> TfIdfVector:
    """Raw-count tf times ln(N/df) idf.

    Terms unseen in the collection (df = 0) have no defined idf and are
    dropped, as are df = N terms whose weight is exactly zero.
    """
    weights: dict[str, float] = {}
    n = stats.num_docs
    sq = 0.0
    for term, count in doc.counts.items():
        df = stats.doc_freq.get(term, 0)
        if df == 0 or df == n:
            continue
        w = count * math.log(n / df)
        weights[term] = w
        sq += w * w
    return TfIdfVector(weights, math.sqrt(sq))


def dot(u: TfIdfVector, v: TfIdfVector) -> float:
    a, b = u.weights, v.weights
    if len(b) < len(a):
        a, b = b, a
    return sum(w * b[t] for t, w in a.items() if t in b)


def cosine(u: TfIdfVector, v: TfIdfVector) -> float:
    """Cosine similarity in [0, 1]; zero-norm vectors compare as 0."""
    if u.norm == 0.0 or v.norm == 0.0:
        return 0.0
    return dot(u, v) / (u.norm * v.norm)


def aes_vector(tokens: Iterable[str], table: EmbeddingTable) -> tuple[np.ndarray, int]:
    """Mean embedding over token occurrences; each occurrence contributes.

    Lookup tries the raw token, then its lowercase form. Returns the mean
    vector and the number of occurrences matched; an all-out-of-vocabulary
    input yields (zero vector, 0).
    """
    acc = np.zeros(table.dimension, dtype=np.float64)
    hits = 0
    for token in tokens:
        vec = table.lookup(token)
        if vec is not None:
            acc += vec
            hits += 1
    if hits == 0:
        return acc, 0
    return acc / hits, hits


def dense_cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine for dense vectors, 0.0 when either norm vanishes."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v)) / (nu * nv)
