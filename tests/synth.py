"""Synthetic corpora/topics for tests (random but fully seed-determined) and hand-built topic indexes."""

import numpy as np

from seedrank import Document, Topic, TopicIndex
from seedrank.text import SurfaceForms, split

_WORDS = None


def tokenize(text, config):
    """The terms of one text, in text order, as ``build_index`` counts them under ``config``. Empty text -> []."""
    forms = SurfaceForms(config.stopwords)
    columns = list(map(forms.__getitem__, split(text, config.variant)))
    terms = list(forms.columns)
    return [terms[column] for column in columns if column >= 0]


def _vocabulary(size):
    global _WORDS
    if _WORDS is None or len(_WORDS) < size:
        _WORDS = [f"term{i:04d}" for i in range(max(size, 500))]
    return _WORDS[:size]


def synth_topic(
    rng,
    topic_id,
    n_docs,
    vocab_size=500,
    n_relevant=4,
    doc_len=(20, 60),
    relevant_vocab_fraction=0.25,
    irrelevant_overlap=0.0,
):
    """One topic whose relevant docs draw terms from a narrower sub-vocabulary.

    Relevant documents share a sampling distribution over the first
    ``relevant_vocab_fraction`` of the vocabulary; irrelevant ones draw from
    the remainder (disjoint by default). ``irrelevant_overlap`` mixes that
    fraction of relevant-vocabulary words into irrelevant docs, which makes
    rankings imperfect and method-dependent.
    """
    vocab = _vocabulary(vocab_size)
    split = max(5, int(vocab_size * relevant_vocab_fraction))
    rel_vocab = vocab[:split]
    irrel_vocab = vocab[split:] if vocab_size > split else vocab

    corpus = {}
    candidate_ids = []
    judgments = {}
    for i in range(n_docs):
        doc_id = f"{topic_id}-d{i:04d}"
        relevant = i < n_relevant
        length = int(rng.integers(doc_len[0], doc_len[1] + 1))
        words = []
        for _ in range(length):
            if relevant:
                pool = rel_vocab
            else:
                pool = rel_vocab if rng.random() < irrelevant_overlap else irrel_vocab
            words.append(pool[int(rng.integers(0, len(pool)))])
        corpus[doc_id] = Document(doc_id, f"study {i}", " ".join(words))
        candidate_ids.append(doc_id)
        judgments[doc_id] = 1 if relevant else 0
    topic = Topic(topic_id, candidate_ids, judgments)
    return topic, corpus


def synth_collection(seed, n_topics, n_docs, vocab_size=500, n_relevant=4, irrelevant_overlap=0.0):
    """Independent topics with disjoint doc_id spaces sharing one corpus dict."""
    rng = np.random.default_rng(seed)
    corpus = {}
    topics = []
    for t in range(n_topics):
        topic, docs = synth_topic(
            rng, f"T{t:03d}", n_docs, vocab_size, n_relevant,
            irrelevant_overlap=irrelevant_overlap,
        )
        corpus.update(docs)
        topics.append(topic)
    return topics, corpus


def mixed_case(corpus):
    """``corpus`` with every third abstract word title-cased and every fifth upper-cased."""
    def recase(i, word):
        return word.upper() if i % 5 == 0 else word.title() if i % 3 == 0 else word

    return {
        doc_id: Document(doc_id, doc.title.title(), " ".join(recase(i, w) for i, w in enumerate(doc.abstract.split())))
        for doc_id, doc in corpus.items()
    }


def mixed_case_embedding_terms(vocab_size):
    """Lowercase vocabulary terms, title- and upper-cased variants of some, and a few stopwords."""
    terms = [f"term{i:04d}" for i in range(vocab_size)]
    return (
        terms + [t.title() for t in terms[::3]] + [t.upper() for t in terms[::7]]
        + ["the", "The", "of", "study", "Study"]
    )


def write_lexicon_file(tmp_path, terms):
    path = tmp_path / "lexicon.txt"
    path.write_text("".join(t + "\n" for t in terms), encoding="utf-8")
    return path


def write_embeddings_file(tmp_path, terms, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    path = tmp_path / "embeddings.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(terms)} {dim}\n")
        for term in terms:
            values = " ".join(f"{v:.6f}" for v in rng.normal(size=dim))
            fh.write(f"{term} {values}\n")
    return path


def write_collection_files(tmp_path, topics, corpus):
    """Materialize corpus/topics/qrels files the CLI can consume."""
    import json

    corpus_path = tmp_path / "corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for doc in corpus.values():
            fh.write(json.dumps({"doc_id": doc.doc_id, "title": doc.title, "abstract": doc.abstract}) + "\n")
    topics_path = tmp_path / "topics.txt"
    with open(topics_path, "w", encoding="utf-8") as fh:
        for topic in topics:
            for doc_id in topic.candidate_ids:
                fh.write(f"{topic.topic_id} {doc_id}\n")
    qrels_path = tmp_path / "qrels.txt"
    with open(qrels_path, "w", encoding="utf-8") as fh:
        for topic in topics:
            for doc_id, grade in topic.judgments.items():
                fh.write(f"{topic.topic_id} 0 {doc_id} {grade}\n")
    return corpus_path, topics_path, qrels_path


def index_from_counts(topic, counts):
    """A bow topic index over doc_id -> term -> count, through ``TopicIndex.from_rows``.

    The mapping's order is the row order; terms are numbered in order of first occurrence.
    """
    vocabulary = {}
    rows = (
        {vocabulary.setdefault(term, len(vocabulary)): count for term, count in doc.items()}
        for doc in counts.values()
    )
    return TopicIndex.from_rows(topic, tuple(counts), rows, vocabulary, "bow")


def count_index(**docs):
    """A topic index over doc_id -> term counts, rows in keyword order."""
    return index_from_counts(Topic("T", list(docs)), docs)


def entry_rows(counts):
    """The row of each entry of ``counts`` (a ``Compressed`` of rows): the line of ``counts.indptr`` it falls in.

    int32, the width the index stores row numbers in.
    """
    lengths = np.diff(counts.indptr)
    return np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)


def dense(index, values=None):
    """The N x V matrix of ``values`` (default: the counts), one per entry of ``index.counts``, read row by row."""
    values = index.counts.data if values is None else values
    out = np.zeros((len(index.doc_ids), len(index.terms)), dtype=values.dtype)
    for row in range(len(index.doc_ids)):
        start, end = index.counts.indptr[row], index.counts.indptr[row + 1]
        out[row, index.counts.indices[start:end]] = values[start:end]
    return out


def by_term(stats, values):
    """Per-seed-term values of a unit (phi weights, say) keyed by term."""
    return {stats.index.terms[col]: value for col, value in zip(stats.seed_terms.tolist(), values)}
