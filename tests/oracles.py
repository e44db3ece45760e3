"""Independent reference implementations used to cross-check the library.

Everything here is written from the definitions, in the most literal way
possible (quadratic slicing, explicit ideal rankings, no shared helpers),
so agreement with the library is meaningful.
"""

import hashlib
import json
import math
import re
import unicodedata
from collections import Counter

import numpy as np

from seedrank import Document


def ref_average_precision(ranked, qrels):
    """AP by definition: mean of precision@r over relevant ranks, over total R."""
    relevant = {d for d, g in qrels.items() if g >= 1}
    total = len(relevant)
    precisions = []
    for r in range(1, len(ranked) + 1):
        if ranked[r - 1] in relevant:
            precisions.append(len([d for d in ranked[:r] if d in relevant]) / r)
    return sum(precisions) / total


def ref_precision_at(ranked, qrels, k):
    relevant = {d for d, g in qrels.items() if g >= 1}
    return len([d for d in ranked[:k] if d in relevant]) / k


def ref_recall_at(ranked, qrels, k):
    relevant = {d for d, g in qrels.items() if g >= 1}
    return len([d for d in ranked[:k] if d in relevant]) / len(relevant)


def _dcg(gains):
    return sum(g / math.log2(r + 1) for r, g in enumerate(gains, start=1))


def ref_ndcg_at(ranked, qrels, k):
    relevant = {d for d, g in qrels.items() if g >= 1}
    gains = [1.0 if d in relevant else 0.0 for d in ranked[:k]]
    # Ideal ranking: every judged-relevant document first, then the rest.
    ideal = [1.0] * len(relevant)
    idcg = _dcg(ideal[:k])
    if idcg == 0.0:
        return 0.0
    return _dcg(gains) / idcg


def ref_tfidf(counts, collection):
    """tf * ln(N/df) vectors computed from scratch over a list of count dicts."""
    n = len(collection)
    vec = {}
    for term, c in counts.items():
        df = sum(1 for other in collection if term in other)
        if df == 0 or df == n:
            continue
        vec[term] = c * math.log(n / df)
    return vec


def ref_cosine(u, v):
    num = sum(w * v[t] for t, w in u.items() if t in v)
    nu = math.sqrt(sum(w * w for w in u.values()))
    nv = math.sqrt(sum(w * w for w in v.values()))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return num / (nu * nv)


def ref_gamma(subset, seed_vector):
    """Mean cosine between a seed and a subset of weight dicts; 0.0 when empty."""
    if not subset:
        return 0.0
    return sum(ref_cosine(v, seed_vector) for v in subset) / len(subset)


def ref_phi(term, seed_vector, candidates):
    """Separation weight of one seed term over full partitions (no undersampling).

    candidates: (term count dict, tf-idf weight dict) pairs.
    """
    g_with = ref_gamma([v for c, v in candidates if term in c], seed_vector)
    g_without = ref_gamma([v for c, v in candidates if term not in c], seed_vector)
    if g_without == 0.0:
        return math.log(2.0)
    if g_with == 0.0:
        return 0.0
    return math.log(1.0 + g_with / g_without)


def ref_seed_driven_scores(seed_counts, candidates, lam):
    """Literal transcription of the seed-driven scoring formula.

    candidates: dict doc_id -> term count dict (seed already excluded).
    Returns doc_id -> score with phi computed from full partitions.
    """
    count_dicts = list(candidates.values())
    total_tokens = sum(sum(c.values()) for c in count_dicts)
    vectors = {d: ref_tfidf(c, count_dicts) for d, c in candidates.items()}
    seed_vec = ref_tfidf(seed_counts, count_dicts)

    pairs = [(c, vectors[d]) for d, c in candidates.items()]
    phi = {term: ref_phi(term, seed_vec, pairs) for term in seed_counts}

    scores = {}
    for doc_id, cand in candidates.items():
        length = sum(cand.values())
        s = 0.0
        for term, c_seed in seed_counts.items():
            if term not in cand:
                continue
            p_c = sum(c.get(term, 0) for c in count_dicts) / total_tokens
            s += phi[term] * c_seed * math.log(1.0 + (1.0 - lam) / lam * cand[term] / (length * p_c))
        scores[doc_id] = s
    return scores


def ref_qlm_scores(seed_counts, candidates, lam):
    """Same transcription with every term weight pinned to one."""
    count_dicts = list(candidates.values())
    total_tokens = sum(sum(c.values()) for c in count_dicts)
    scores = {}
    for doc_id, cand in candidates.items():
        length = sum(cand.values())
        s = 0.0
        for term, c_seed in seed_counts.items():
            if term not in cand:
                continue
            p_c = sum(c.get(term, 0) for c in count_dicts) / total_tokens
            s += c_seed * math.log(1.0 + (1.0 - lam) / lam * cand[term] / (length * p_c))
        scores[doc_id] = s
    return scores


def ref_bm25_scores(seed_counts, candidates, k1, b):
    """Okapi BM25 with each seed term as one query term and idf ln(1 + (N - df + 0.5) / (df + 0.5)).

    candidates: dict doc_id -> term count dict (seed already excluded).
    """
    count_dicts = list(candidates.values())
    n = len(count_dicts)
    avg_length = sum(sum(c.values()) for c in count_dicts) / n
    scores = {}
    for doc_id, cand in candidates.items():
        length = sum(cand.values())
        s = 0.0
        for term in seed_counts:
            if term not in cand:
                continue
            df = sum(1 for c in count_dicts if term in c)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            tf = cand[term]
            s += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * length / avg_length))
        scores[doc_id] = s
    return scores


_REF_WORD = re.compile(r"[^\W_]+")


def ref_tokenize(text, config):
    """Tokens of one text, the pipeline written out literally.

    ``ours``: Unicode punctuation (category P*) to spaces, then the
    ``[^\\W_]+`` runs; ``lee``: whitespace-separated chunks. Each token is
    lowercased on its own and dropped when that is a stopword.
    """
    if config.variant == "ours":
        punctuation = {ord(ch): " " for ch in set(text) if unicodedata.category(ch).startswith("P")}
        raw = _REF_WORD.findall(text.translate(punctuation))
    else:
        raw = text.split()
    return [t.lower() for t in raw if t.lower() not in config.stopwords]


def ref_counts(doc, config, lexicon=None):
    """Term counts of one document in order of first occurrence; with a lexicon, only its terms."""
    text = f"{doc.title} {doc.abstract}" if config.include_title else doc.abstract
    return {t: c for t, c in Counter(ref_tokenize(text, config)).items() if lexicon is None or t in lexicon}


def sort_scored(scores):
    """Scores sorted descending, ties broken by doc_id ascending: the tie rule ``corpus.rank_order`` implements."""
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


def reference_derive_rng(*parts):
    """default_rng over the blake2b words of ``parts`` joined by U+001F.

    phi's undersampling and intra_similarity's irrelevant sample draw from this stream.
    """
    digest = hashlib.blake2b("\x1f".join(str(p) for p in parts).encode("utf-8"), digest_size=16)
    return np.random.default_rng(np.frombuffer(digest.digest(), dtype=np.uint64))


def reference_u32(*parts):
    """The 32-bit words of ``reference_derive_rng(*parts)``'s stream: each 64-bit output's low half, then its high half."""
    bit_generator = reference_derive_rng(*parts).bit_generator

    def words():
        while True:
            word = int(bit_generator.random_raw())
            yield word & 0xFFFFFFFF
            yield word >> 32

    return words().__next__


def reference_choice(next_u32, size, k):
    """numpy's ``Generator.choice(size, k, replace=False)``, written out over ``next_u32()``'s 32-bit words.

    Every draw of an integer in [0, high] is Lemire's: multiply one word by
    high + 1, keep the high 32 bits, and draw again while the low 32 bits fall
    below 2**32 mod (high + 1) (tested only when they fall below high + 1).
    A population above 10000 of which more than a fiftieth is taken is
    tail-shuffled: a Fisher-Yates pass over range(size) from its end that
    stops once k places are drawn, which are the sample. Otherwise Floyd's
    algorithm draws the j-th value from [0, j] for j = size - k .. size - 1,
    putting j in place of a value already taken, and a Fisher-Yates pass over
    the k picks shuffles them. ``size`` is below 2**32.
    """

    def bounded(high):
        if high == 0:
            return 0
        product = next_u32() * (high + 1)
        if product % 2**32 < high + 1:
            while product % 2**32 < 2**32 % (high + 1):
                product = next_u32() * (high + 1)
        return product >> 32

    def shuffle(values, first):
        for i in range(len(values) - 1, first - 1, -1):
            j = bounded(i)
            values[i], values[j] = values[j], values[i]

    if size > 10000 and k > size // 50:
        values = list(range(size))
        shuffle(values, max(size - k, 1))
        return values[size - k :]
    picks = []
    for j in range(size - k, size):
        value = bounded(j)
        picks.append(j if value in picks else value)
    shuffle(picks, 1)
    return picks


def eager_corpus(data: bytes):
    """doc_id -> Document of every line of a corpus file's bytes, all parsed up front.

    Lines end at ``\\r\\n``, ``\\r`` or ``\\n``, where a text-mode file splits
    them (not at the other breaks ``str.splitlines`` knows); each is stripped,
    and blank ones are skipped.
    """
    docs = {}
    for line in re.split(r"\r\n|\r|\n", data.decode("utf-8")):
        line = line.strip()
        if line:
            record = json.loads(line)
            docs[record["doc_id"]] = Document(record["doc_id"], record["title"] or "", record["abstract"] or "")
    return docs


def unit_doc_freq(stats):
    """Every column's df over a unit's candidates, counted row by row from the index."""
    counts = stats.index.counts
    df = np.zeros(len(stats.index.terms), dtype=np.int64)
    for row in stats.candidates.tolist():
        df[counts.indices[counts.indptr[row] : counts.indptr[row + 1]]] += 1
    return df


def reference_seed_similarities(stats):
    """tf-idf cosine between the summed seed rows and every index row, seeds included, in row order.

    Each weight is its count times ln(N/df) under the unit (0 where df is 0
    or N, with df counted over the candidates by ``unit_doc_freq``), taken
    entry by entry; each row's squares and seed products are added one by one
    in stored order from 0 (``np.bincount``), so this is, bit for bit, the
    row-block path ``seed_similarities`` took before the index kept per-row
    sums.
    """
    n, df = stats.num_docs, unit_doc_freq(stats)
    term_idf = np.zeros(len(df))
    defined = (df > 0) & (df < n)
    term_idf[defined] = np.log(n / df[defined])
    seed = np.zeros(len(df))
    seed[stats.seed_terms] = stats.seed_counts * term_idf[stats.seed_terms]
    counts = stats.index.counts
    lengths = np.diff(counts.indptr)
    rows = np.repeat(np.arange(len(lengths)), lengths)
    weights = counts.data * term_idf[counts.indices]
    squares = np.bincount(rows, weights=weights * weights, minlength=len(lengths))
    dots = np.bincount(rows, weights=weights * seed[counts.indices], minlength=len(lengths))
    denominators = np.sqrt(squares) * math.sqrt(float((seed[stats.seed_terms] ** 2).sum()))
    return np.divide(dots, denominators, out=np.zeros(len(dots)), where=denominators != 0.0)
