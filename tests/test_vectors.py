import math
import weakref
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import ref_cosine, ref_tfidf, reference_seed_similarities, unit_doc_freq
from seedrank import (
    ContractError,
    Document,
    EmbeddingTable,
    EmptyTopicError,
    PipelineConfig,
    Topic,
    aes_vector,
    build_index,
    build_stats,
    cosine,
    load_embeddings,
    idf,
    load_corpus,
    rank,
)
from seedrank.corpus import rank_order
from seedrank.text import document_text, kept_term
import seedrank.vectors
from seedrank.vectors import seed_similarities
from synth import (
    by_term,
    count_index,
    dense,
    entry_rows,
    index_from_counts,
    mixed_case,
    mixed_case_embedding_terms,
    synth_collection,
    tokenize,
    write_collection_files,
    write_embeddings_file,
)
from conftest import traced_peak


def tc(**counts):
    return dict(counts)


def check_against_counts(index, counts):
    """Every array of ``index`` against the doc_id -> term -> count dicts it was built from."""
    docs = list(counts.values())
    column = {term: col for col, term in enumerate(index.terms)}
    for row, doc in enumerate(docs):
        start, end = index.counts.indptr[row], index.counts.indptr[row + 1]
        assert index.counts.indices[start:end].tolist() == [column[t] for t in doc]
        assert index.counts.data[start:end].tolist() == list(doc.values())
        assert entry_rows(index.counts)[start:end].tolist() == [row] * len(doc)
        assert index.doc_lengths[row] == sum(doc.values())
    for col, term in enumerate(index.terms):
        assert index.doc_freq[col] == sum(1 for doc in docs if term in doc)
        assert index.collection_counts[col] == sum(doc.get(term, 0) for doc in docs)
    rows = index.counts
    for values in (rows.indices, rows.data, entry_rows(rows)):
        assert values.dtype == np.int32
    for values in (rows.indptr, index.doc_lengths, index.doc_freq, index.collection_counts):
        assert values.dtype == np.int64


def check_postings(stats, counts, seeds):
    """A unit's posting arrays against doc_id -> term -> count dicts: the kept candidates holding each
    seed term, in seed-term order, candidate positions ascending within a term."""
    kept = [doc for doc_id, doc in counts.items() if doc_id not in seeds]
    expected = [
        (k, position, doc[stats.index.terms[col]])
        for k, col in enumerate(stats.seed_terms.tolist())
        for position, doc in enumerate(kept)
        if stats.index.terms[col] in doc
    ]
    postings = zip(stats.posting_terms.tolist(), stats.posting_positions.tolist(), stats.posting_counts.tolist())
    assert list(postings) == expected


STOPWORDS = ("the", "The", "AND", "of", "i", "I", "with")
# ASCII words in mixed case, and words whose case rules are not ASCII's: U+0130 (two
# codepoints in lowercase), capital sigmas word-final and before a case-ignorable full
# stop, sharp s, combining marks, a titlecase digraph and a ligature.
WORDS = (
    "heart", "Heart", "HEART", "aspirin", "Stroke", "stroke", "co-op", "x2", "42", "3.5%", "(risk)",
    "\u0130stanbul", "\u0130", "\u039f\u0394\u039f\u03a3", "\u039f\u0394\u039f\u03a3.\u0391", "\u03a3\u039f\u03a6\u039f\u03a3",
    "Stra\u00dfe", "STRASSE", "cafe\u0301", "Nai\u0308ve", "\u01c4emal", "\ufb01ber",
)
LEXICON = frozenset({
    "heart", "stroke", "co", "op", "x2", "42", "the", "i\u0307stanbul", "\u03bf\u03b4\u03bf\u03c2", "\u03bf\u03b4\u03bf\u03c3",
    "\u03c3\u03bf\u03c6\u03bf\u03c2", "stra\u00dfe", "strasse", "cafe\u0301", "\u01c6emal",
})
TEXTS = st.one_of(
    st.lists(st.sampled_from(WORDS + STOPWORDS), max_size=12).map(" ".join),
    st.lists(st.sampled_from(STOPWORDS), max_size=4).map(" ".join),  # empty or stopwords only
    st.text(st.sampled_from("aBZz09i\u0130\u0131\u03a3\u00df\u0301 .-%"), max_size=20),
)


@pytest.fixture(scope="module")
def zipf_corpus():
    """1100 candidates of 150-250 tokens drawn from a Zipf law over 20,000 words: the benchmark's loocv topic shape."""
    rng = np.random.default_rng(12)
    words = [f"w{i}" for i in range(20_000)]
    zipf = 1.0 / np.arange(1, len(words) + 1)
    lengths = rng.integers(150, 250, size=1100)
    tokens = rng.choice(len(words), size=int(lengths.sum()), p=zipf / zipf.sum())
    corpus = {}
    for i, doc in enumerate(np.split(tokens, np.cumsum(lengths)[:-1])):
        corpus[f"d{i}"] = Document(f"d{i}", "", " ".join(words[t] for t in doc.tolist()))
    return corpus


class TestTopicIndex:
    def test_rows_keep_first_occurrence_order(self):
        index = count_index(d1=tc(b=1, a=2), d2=tc(c=1, a=1))
        assert index.terms == ("b", "a", "c")
        assert dense(index).tolist() == [[1, 2, 0], [0, 1, 1]]
        assert list(index.counts.indptr) == [0, 2, 4]
        assert list(index.counts.indices) == [0, 1, 2, 1]  # not sorted: d2 holds c before a
        assert list(entry_rows(index.counts)) == [0, 0, 1, 1]
        assert list(index.doc_lengths) == [3, 2]

    def test_postings_in_candidate_order(self):
        # Seed terms b then a; each term's candidates in candidate order, the seed's own row left out.
        counts = {"d1": tc(a=1), "s": tc(b=2, a=1), "d2": tc(b=1), "d3": tc(a=4)}
        stats = build_stats(count_index(**counts), ["s"])
        assert [stats.index.terms[c] for c in stats.seed_terms] == ["b", "a"]
        assert stats.posting_terms.tolist() == [0, 1, 1]
        assert stats.posting_positions.tolist() == [1, 0, 2]
        assert stats.posting_counts.tolist() == [1, 1, 4]
        check_postings(stats, counts, {"s"})

    @given(st.lists(
        st.dictionaries(st.sampled_from("abcdefgh"), st.integers(1, 9), max_size=8),
        min_size=1, max_size=12,
    ))
    def test_columns_and_counts_match_per_term_reference(self, docs):
        counts = {f"d{i}": d for i, d in enumerate(docs)}
        check_against_counts(index_from_counts(Topic("T", list(counts)), counts), counts)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(TEXTS, TEXTS), max_size=8),
        st.sampled_from(["ours", "lee"]),
        st.booleans(),
        st.booleans(),
    )
    def test_build_index_counts_each_documents_terms(self, docs, variant, boc, include_title):
        # The reference counts the terms synth.tokenize gives each document (under boc, those in the lexicon).
        pipeline = PipelineConfig(variant=variant, include_title=include_title)
        corpus = {f"d{i}": Document(f"d{i}", title, abstract) for i, (title, abstract) in enumerate(docs)}
        lexicon = LEXICON if boc else None
        index = build_index(Topic("T", list(corpus)), corpus, "boc" if boc else "bow", pipeline, lexicon=lexicon)
        terms = {doc_id: tokenize(document_text(doc, pipeline), pipeline) for doc_id, doc in corpus.items()}
        counts = {doc_id: Counter(t for t in doc if not boc or t in LEXICON) for doc_id, doc in terms.items()}
        assert index.terms == tuple(dict.fromkeys(t for doc in counts.values() for t in doc))
        check_against_counts(index, counts)

    def test_form_table_is_freed_after_the_last_row(self, pipeline, monkeypatch):
        # The form table's last reference is the counting generator's, which ends with the last row,
        # before from_rows views its buffers as arrays (its first numpy call after the rows).
        tables, alive = [], []

        class Forms(seedrank.vectors.SurfaceForms):
            def __init__(self, *args):
                super().__init__(*args)
                tables.append(weakref.ref(self))

        def frombuffer(*args, **kwargs):
            alive.append(any(table() is not None for table in tables))
            return real_frombuffer(*args, **kwargs)

        real_frombuffer = np.frombuffer
        monkeypatch.setattr(seedrank.vectors, "SurfaceForms", Forms)
        monkeypatch.setattr(np, "frombuffer", frombuffer)
        corpus = {d: Document(d, "Heart", f"word{d} \u0130stanbul shared") for d in ("a", "b", "c")}
        for embeddings in (None, TABLE):
            index = build_index(Topic("T", list(corpus)), corpus, "bow", pipeline, embeddings=embeddings)
            assert index.terms == ("heart", "worda", "i\u0307stanbul", "shared", "wordb", "wordc")
        assert len(tables) == 2 and alive == [False] * 6

    def test_build_holds_one_candidate_document_at_a_time(self, tmp_path, pipeline, monkeypatch):
        # With a loaded corpus, each row reads its candidate, and no document outlives its row or the build.
        topics, docs = synth_collection(seed=3, n_topics=2, n_docs=40)
        corpus = load_corpus(write_collection_files(tmp_path, topics, docs)[0])
        refs, alive = [], []

        def document_text(doc, config):
            refs.append(weakref.ref(doc))
            alive.append(sum(ref() is not None for ref in refs))
            return real_document_text(doc, config)

        real_document_text = seedrank.vectors.document_text
        monkeypatch.setattr(seedrank.vectors, "document_text", document_text)
        for embeddings in (None, TABLE):
            index = build_index(topics[0], corpus, "bow", pipeline, embeddings=embeddings)
            assert all(ref() is None for ref in refs)
        assert len(alive) == 80 and max(alive) == 1
        monkeypatch.undo()
        eager = build_index(topics[0], docs, "bow", pipeline, embeddings=TABLE)
        assert index.terms == eager.terms and np.array_equal(index.embeddings, eager.embeddings)
        assert all(np.array_equal(getattr(index.counts, a), getattr(eager.counts, a)) for a in ("indptr", "indices", "data"))

    def test_more_columns_than_one_radix_digit(self):
        # A seed of 70,000 terms: its postings are sorted on seed-term positions wider than 16 bits.
        rng = np.random.default_rng(5)
        words = [f"w{i}" for i in range(70_000)]
        counts = {}
        for doc_id in ("d1", "s", "d2"):
            held = rng.permutation(len(words)) if doc_id == "s" else rng.choice(len(words), size=20_000, replace=False)
            counts[doc_id] = {words[i]: int(c) for i, c in zip(held, rng.integers(1, 5, size=len(held)))}
        index = index_from_counts(Topic("T", list(counts)), counts)
        assert len(index.terms) == 70_000
        check_against_counts(index, counts)
        stats = build_stats(index, ["s"])
        assert len(stats.seed_terms) == 70_000 and len(stats.posting_positions) == 40_000
        check_postings(stats, counts, {"s"})

    def test_build_holds_one_candidates_counts_at_a_time(self, pipeline, zipf_corpus):
        """tracemalloc peak of build_index on 1100 candidates of 150-250 Zipf tokens, the benchmark's loocv shape, < 6.5 MiB.

        The build appends each candidate's counts to flat 32-bit buffers and
        drops its Counter; holding every candidate's Counter took 17 MiB here.
        The index keeps one copy of the counts, and the form table is freed
        with the last row, before the totals are taken. The totals and the
        per-row norm sums are taken over blocks of entries or rows, and the
        peak measured 3.5 MiB; it was 5.1 MiB while the column totals took
        int64 and float64 copies of all the columns and counts at once, 5.7
        MiB while a column copy of the counts was sorted, and 7.9 MiB while
        the form table lived through that sort.
        """
        index, peak = traced_peak(lambda: build_index(Topic("T", list(zipf_corpus)), zipf_corpus, "bow", pipeline))
        assert len(index.counts.data) > 150_000 and len(index.terms) > 15_000
        assert peak < 6.5 * 2**20

    def test_unit_memory_does_not_grow_with_the_topic(self, pipeline, params, zipf_corpus):
        """tracemalloc peak of one sdr run unit on the same 1100-candidate index, < 3 MiB.

        The seed cosines read the index's per-row sums and the seed terms'
        postings (27k here, summed in one pass), and the unit measured 1.8 MiB
        here, most of it ``build_stats``; float copies of all 154k stored
        counts at once took 4.5 MiB.
        """
        index = build_index(Topic("T", list(zipf_corpus)), zipf_corpus, "bow", pipeline)
        unit, peak = traced_peak(lambda: rank(index, ["d0"], "sdr", params))
        assert len(unit.rows) == len(zipf_corpus) - 1
        assert peak < 3 * 2**20

    def test_aes_unit_holds_no_candidates_by_dimensions_temporary(self, pipeline, params, zipf_corpus):
        """tracemalloc peak of one sdr+aes run unit on the 1100-candidate index with d = 300, below one N x d matrix.

        The candidates' embedding norms are taken once, by build_index, and the
        unit measured 1.8 MiB here; taking them in every unit squared all N x d
        means first and peaked at 3.3 MiB.
        """
        words = [f"w{i}" for i in range(2000)]
        table = EmbeddingTable(np.random.default_rng(6).normal(size=(len(words), 300)), {w: i for i, w in enumerate(words)})
        index = build_index(Topic("T", list(zipf_corpus)), zipf_corpus, "bow", pipeline, embeddings=table)
        unit, peak = traced_peak(lambda: rank(index, ["d0"], "sdr+aes", params))
        assert len(unit.rows) == len(zipf_corpus) - 1
        assert peak < index.embeddings.nbytes

    def test_each_candidate_counted_once(self, pipeline, monkeypatch):
        import seedrank.vectors

        calls = []
        real_split = seedrank.vectors.split

        def counting_split(text, variant):
            calls.append(text)
            return real_split(text, variant)

        monkeypatch.setattr(seedrank.vectors, "split", counting_split)
        corpus = {d: Document(d, "", f"word{d} shared") for d in ("a", "b", "c")}
        index = build_index(Topic("T", ["a", "b", "c", "b"]), corpus, "bow", pipeline, embeddings=TABLE)
        assert calls == [" worda shared", " wordb shared", " wordc shared"]
        assert index.doc_ids == ("a", "b", "c")


class TestBuildStats:
    def test_hand_example(self):
        stats = build_stats(count_index(s=tc(b=1, a=1), d1=tc(a=1), d2=tc(a=2, b=1)), ["s"])
        assert stats.num_docs == 2
        assert by_term(stats, stats.doc_freq) == {"a": 2, "b": 1}
        assert by_term(stats, stats.collection_counts) == {"a": 3, "b": 1}
        assert stats.total_tokens == 4
        assert by_term(stats, stats.collection_counts)["a"] / stats.total_tokens == pytest.approx(0.75)

    def test_seed_rows_are_removed(self):
        stats = build_stats(count_index(s=tc(a=5, c=1, b=2), d1=tc(a=1), d2=tc(a=2, b=1)), ["s"])
        assert list(stats.candidates) == [1, 2]
        assert by_term(stats, stats.doc_freq) == {"a": 2, "c": 0, "b": 1}
        assert by_term(stats, stats.collection_counts) == {"a": 3, "c": 0, "b": 1}
        assert stats.candidate_lengths.tolist() == [1, 3]
        assert stats.total_tokens == 4 and stats.total_tokens / stats.num_docs == 2.0

    def test_seed_rows_between_candidates(self):
        # Rows d1 s1 d2 d3 s2 d4: a candidate's position skips the seed rows before it.
        counts = {"d1": tc(a=1, x=2), "s1": tc(a=2), "d2": tc(x=1), "d3": tc(b=3, a=1), "s2": tc(b=1), "d4": tc(a=2, b=1, y=1)}
        stats = build_stats(count_index(**counts), ["s2", "s1"])
        assert stats.candidates.tolist() == [0, 2, 3, 5] and stats.seed_rows.tolist() == [4, 1]
        assert stats.candidate_lengths.tolist() == [3, 1, 4, 4]
        assert [stats.index.terms[c] for c in stats.seed_terms] == ["b", "a"]
        assert stats.seed_counts.tolist() == [1, 2]
        assert stats.doc_freq.tolist() == [2, 3] and stats.collection_counts.tolist() == [4, 4]
        assert stats.posting_terms.tolist() == [0, 0, 1, 1, 1]
        assert stats.posting_positions.tolist() == [2, 3, 0, 2, 3]
        assert stats.posting_counts.tolist() == [3, 1, 1, 1, 2]
        check_postings(stats, counts, {"s1", "s2"})

    def test_repeated_seed_is_contract_error(self, params):
        # Counted twice, the seed would double its seed counts; its row is removed once.
        index = count_index(s=tc(a=1), d1=tc(a=1), d2=tc(b=1))
        with pytest.raises(ContractError, match="'T'.*listed more than once.*'s'"):
            rank(index, ["s", "s"], "sdr", params)

    def test_seed_terms_in_order_of_first_occurrence(self):
        index = count_index(s1=tc(b=1, a=1), s2=tc(c=2, a=3), d=tc(a=1))
        stats = build_stats(index, ["s1", "s2"])
        assert [index.terms[c] for c in stats.seed_terms] == ["b", "a", "c"]
        assert list(stats.seed_counts) == [1, 4, 2]
        # A group's seed counts are the sum of its members' counts, whatever the member order.
        swapped = build_stats(index, ["s2", "s1"])
        assert [index.terms[c] for c in swapped.seed_terms] == ["c", "a", "b"]
        assert list(swapped.seed_counts) == [2, 4, 1]
        single = build_stats(index, ["s2"])
        assert [index.terms[c] for c in single.seed_terms] == ["c", "a"] and list(single.seed_counts) == [2, 3]

    def test_single_doc(self):
        stats = build_stats(count_index(s=tc(a=2), d1=tc(a=1)), ["s"])
        assert stats.collection_counts[0] / stats.total_tokens == 1.0

    def test_empty_collection(self):
        with pytest.raises(EmptyTopicError):
            build_stats(count_index(d1=tc(a=1)), ["d1"])

    @given(st.lists(
        st.dictionaries(st.sampled_from("abcdef"), st.integers(1, 9), min_size=1, max_size=6),
        min_size=1, max_size=10,
    ))
    def test_background_probabilities_sum_to_one(self, docs):
        # The seed holds every term, so the seed terms are every candidate's terms.
        counts = {"s": dict.fromkeys("abcdef", 1)} | {f"d{i}": tc(**d) for i, d in enumerate(docs)}
        stats = build_stats(count_index(**counts), ["s"])
        total = sum(stats.collection_counts[k] / stats.total_tokens for k in range(len(stats.seed_terms)))
        assert total == pytest.approx(1.0, abs=1e-9)
        assert stats.total_tokens == sum(stats.candidate_lengths)
        assert all(stats.doc_freq <= stats.num_docs)
        assert all(stats.collection_counts >= stats.doc_freq)

    @given(
        st.lists(
            st.dictionaries(st.sampled_from("abcdef"), st.integers(1, 9), max_size=6),
            min_size=2, max_size=10,
        ),
        st.data(),
    )
    def test_subtraction_equals_recount(self, docs, data):
        counts = {f"d{i}": tc(**d) for i, d in enumerate(docs)}
        seeds = data.draw(st.lists(st.sampled_from(sorted(counts)), min_size=1, max_size=len(docs) - 1, unique=True))
        index = count_index(**counts)
        stats = build_stats(index, seeds)
        kept = [c for d, c in counts.items() if d not in seeds]
        assert stats.num_docs == len(kept)
        assert stats.total_tokens == sum(sum(c.values()) for c in kept)
        # The seed terms' statistics, the lengths and the postings from a dense recount over the candidates' rows.
        rows = dense(index)[[row for row, d in enumerate(counts) if d not in seeds]]
        assert stats.candidate_lengths.tolist() == rows.sum(axis=1).tolist()
        held = rows[:, stats.seed_terms].T
        assert stats.doc_freq.tolist() == (held > 0).sum(axis=1).tolist()
        assert stats.collection_counts.tolist() == held.sum(axis=1).tolist()
        terms, positions = np.nonzero(held)
        assert stats.posting_terms.tolist() == terms.tolist()
        assert stats.posting_positions.tolist() == positions.tolist()
        assert stats.posting_counts.tolist() == held[terms, positions].tolist()
        check_postings(stats, counts, seeds)


def unit_idf(stats):
    """The per-column idf under a unit's statistics, with df counted over its candidates."""
    return idf(stats.num_docs, unit_doc_freq(stats))


class TestTfidf:
    """The idf rule (``vectors.idf``) and the seed cosines weighted by it."""

    def test_hand_example(self):
        stats = build_stats(count_index(s=tc(a=1), d1=tc(a=1), d2=tc(b=1)), ["s"])
        term_idf = unit_idf(stats)
        assert term_idf[stats.index.terms.index("a")] == pytest.approx(math.log(2), abs=1e-12)
        assert term_idf[stats.index.terms.index("b")] == pytest.approx(math.log(2), abs=1e-12)

    def test_df_equals_n_dropped(self):
        stats = build_stats(count_index(s=tc(a=3), d1=tc(a=1), d2=tc(a=1)), ["s"])
        assert unit_idf(stats).tolist() == [0.0]
        # Every weight is 0, so every norm is, and each candidate's cosine is 0, not NaN.
        assert seed_similarities(stats).tolist() == [0.0, 0.0]

    def test_unseen_term_dropped(self):
        stats = build_stats(count_index(s=tc(z=5, a=1), d1=tc(a=1), d2=tc(b=1)), ["s"])
        assert unit_idf(stats)[stats.index.terms.index("z")] == 0.0

    def test_no_documents(self):
        assert idf(0, np.zeros(2, dtype=np.int64)).tolist() == [0.0, 0.0]

    def test_matches_reference(self):
        counts = {"s": tc(a=2, b=1, c=3), "d1": tc(a=1, b=2), "d2": tc(b=1), "d3": tc(c=1)}
        stats = build_stats(count_index(**counts), ["s"])
        matrix = dense(stats.index) * unit_idf(stats)
        collection = [counts[d] for d in ("d1", "d2", "d3")]
        for row, doc_id in enumerate(stats.index.doc_ids):
            expected = ref_tfidf(counts[doc_id], collection)
            got = {t: matrix[row, col] for col, t in enumerate(stats.index.terms) if matrix[row, col]}
            assert got == pytest.approx(expected, abs=1e-12)

    def test_norm_is_consistent(self):
        """A candidate that copies the single seed has cosine 1: its norm comes from the row sums, the seed's from its weights."""
        counts = {"s": tc(a=2, b=1, c=3), "d1": tc(a=1, b=2), "d2": tc(b=1), "d3": tc(c=1), "d4": tc(a=2, b=1, c=3)}
        stats = build_stats(count_index(**counts), ["s"])
        matrix = dense(stats.index) * unit_idf(stats)
        assert (matrix >= 0).all()
        norms = np.sqrt((matrix * matrix).sum(axis=1))
        expected = matrix @ matrix[0] / (norms * norms[0])
        cos = seed_similarities(stats)
        assert cos == pytest.approx(expected[stats.candidates], abs=1e-12)
        assert cos[-1] == pytest.approx(1.0, abs=1e-15)

    def test_seed_similarities_match_reference(self):
        counts = {"s": tc(a=1, b=1), "d1": tc(a=1, c=2), "d2": tc(b=3), "d3": tc(c=1), "d4": tc(a=1, b=1, c=1)}
        stats = build_stats(count_index(**counts), ["s"])
        collection = [c for d, c in counts.items() if d != "s"]
        seed_vec = ref_tfidf(counts["s"], collection)
        cos = seed_similarities(stats)
        for position, row in enumerate(stats.candidates):
            expected = ref_cosine(ref_tfidf(counts[stats.index.doc_ids[row]], collection), seed_vec)
            assert cos[position] == pytest.approx(expected, abs=1e-12)

    @given(st.data())
    def test_seed_similarities_match_block_path(self, data):
        """Hand-made units of 1-10 seeds against the block path, over the cases where the row sums cancel.

        Each candidate holds "z", a term no seed holds with df = N'; the
        seeds hold "y", which no candidate holds. With two candidates or
        more, one row is made only of "p" and "q", which every candidate
        but one holds, and some seeds may hold "p" too; the one without them
        may be emptied, which leaves "z" in every candidate but one. Seed
        rows may be empty, and a unit may have one candidate.
        """
        documents = st.dictionaries(st.sampled_from("abcdef"), st.integers(1, 9), max_size=5)
        seeds = data.draw(st.lists(documents, min_size=1, max_size=10))
        candidates = data.draw(st.lists(documents, min_size=1, max_size=8))
        for doc in candidates:
            doc["z"] = data.draw(st.integers(1, 9))
        if len(candidates) > 1:
            row, without = data.draw(st.permutations(range(len(candidates))))[:2]
            candidates[row] = {}
            for i, doc in enumerate(candidates):
                if i != without:
                    doc.update(p=data.draw(st.integers(1, 9)), q=data.draw(st.integers(1, 9)))
            if data.draw(st.booleans()):
                candidates[without] = {}
            for doc in data.draw(st.lists(st.sampled_from(seeds), max_size=len(seeds))):
                doc.setdefault("p", 1)
        seeds[0]["y"] = data.draw(st.integers(1, 9))
        counts = {f"s{i}": doc for i, doc in enumerate(seeds)}
        counts.update({f"d{i}": doc for i, doc in enumerate(candidates)})
        topic = Topic("T", list(counts))
        index = index_from_counts(topic, counts)
        check_seed_similarities(build_stats(index, list(counts)[: len(seeds)]))
        # The row sums are the same, bit for bit, whichever rows share a block: under budgets of
        # 1, 2 and 3 counts' worth (40 bytes each) a wider row is a block of its own.
        for budget in (40, 80, 120):
            with mock.patch.object(seedrank.vectors, "BLOCK_BYTES", budget):
                blocked = index_from_counts(topic, counts)
            assert blocked.norm_sums.tobytes() == index.norm_sums.tobytes()

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 60), st.integers(10, 300), st.floats(0.0, 1.0), st.data())
    def test_seed_similarities_match_block_path_on_synth(self, seed, n_docs, vocab_size, overlap, data):
        topics, corpus = synth_collection(seed, 1, n_docs, vocab_size, min(4, n_docs), overlap)
        index = build_index(topics[0], corpus, "bow", PipelineConfig())
        n_seeds = data.draw(st.integers(1, min(10, n_docs - 1)))
        check_seed_similarities(build_stats(index, list(index.doc_ids[:n_seeds])))


# seed_similarities' cosines differ from the block path's by at most this much relative to
# kappa = 1 + S / |w|^2, with S = sum c^2 (x + |delta|)^2 and |w|^2 the row's squared norm.
SIMILARITY_RTOL = 1e-14


def check_seed_similarities(stats):
    """``seed_similarities`` against the block path: within ``SIMILARITY_RTOL``, and ranked the same.

    A row's squared norm is C + 2δB + δ²A plus the seed terms' correction,
    sums of magnitude S; rounding leaves a few ulps of S, so the relative
    difference of a cosine is bounded by ``SIMILARITY_RTOL`` times kappa,
    which is 2 to 4 for most rows and larger for a row made mostly of terms
    held by nearly every candidate. The two rankings (``corpus.rank_order``)
    are identical but for pairs whose block-path cosines lie within their
    bounds of each other, which rounding may order either way.
    """
    index = stats.index
    got = seed_similarities(stats)
    expected = reference_seed_similarities(stats)[stats.candidates]
    delta = math.log(stats.num_docs / len(index.doc_ids))
    squares = dense(index).astype(float)[stats.candidates] ** 2
    magnitudes = squares @ (idf(len(index.doc_ids), index.doc_freq) + abs(delta)) ** 2
    norms = squares @ unit_idf(stats) ** 2
    # A row of zero norm has zero dots: its cosine is 0 on both paths.
    kappa = 1.0 + np.divide(magnitudes, norms, out=np.zeros(len(norms)), where=norms > 0)
    tolerance = SIMILARITY_RTOL * kappa * expected
    assert got.shape == expected.shape
    assert (np.abs(got - expected) <= tolerance).all()
    order = index.doc_order[stats.candidates]
    places = [np.argsort(rank_order(np.arange(len(got)), cosines, order)[0]) for cosines in (got, expected)]
    swapped = np.not_equal(*(place[:, None] < place[None, :] for place in places))
    gaps = np.abs(expected[:, None] - expected[None, :])
    assert (gaps[swapped] <= (tolerance[:, None] + tolerance[None, :])[swapped]).all()


def cos(wu, wv):
    """Cosine of two term -> weight dicts through ``cosine``."""
    terms = sorted(set(wu) | set(wv))
    u = np.array([wu.get(t, 0.0) for t in terms])
    v = np.array([wv.get(t, 0.0) for t in terms])
    return cosine(np.array([u @ v]), np.array([np.linalg.norm(u)]), np.linalg.norm(v))[0]


class TestCosine:
    def test_self_similarity(self):
        assert cos({"a": 1.0, "b": 1.0}, {"a": 1.0, "b": 1.0}) == pytest.approx(1.0)

    def test_disjoint_supports(self):
        assert cos({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_hand_example(self):
        assert cos({"a": 1.0, "b": 1.0}, {"a": 1.0, "c": 1.0}) == pytest.approx(0.5)

    def test_zero_vector(self):
        assert cos({}, {"a": 1.0}) == 0.0

    def test_elementwise_with_zero_norms(self):
        assert list(cosine(np.array([1.0, 2.0, 0.0]), np.array([2.0, 4.0, 0.0]), 0.5)) == [1.0, 1.0, 0.0]

    @given(
        st.dictionaries(st.sampled_from("abcd"), st.floats(0.01, 10), max_size=4),
        st.dictionaries(st.sampled_from("abcd"), st.floats(0.01, 10), max_size=4),
        st.floats(0.1, 10),
    )
    def test_symmetry_and_scale_invariance(self, wu, wv, k):
        assert cos(wu, wv) == pytest.approx(cos(wv, wu), abs=1e-12)
        assert cos(wu, wv) == pytest.approx(ref_cosine(wu, wv), abs=1e-9)
        assert cos({t: k * w for t, w in wu.items()}, wv) == pytest.approx(cos(wu, wv), abs=1e-9)
        if wu:
            assert cos(wu, wu) == pytest.approx(1.0, abs=1e-9)


TABLE = EmbeddingTable(np.array([[1.0, 0.0], [0.0, 1.0]]), {"a": 0, "b": 1})


def aes_row(text, table=TABLE, representation="bow", lexicon=None):
    """Mean embedding and hits of a one-document index over ``text``, without stopwords."""
    corpus = {"d": Document("d", "", text)}
    pipeline = PipelineConfig(stopwords=frozenset())
    index = build_index(Topic("T", ["d"]), corpus, representation, pipeline, lexicon=lexicon, embeddings=table)
    return index.embeddings[0], int(index.embedding_hits[0])


class TestAesVector:
    def test_mean(self):
        vec, hits = aes_row("a b")
        assert list(vec) == [0.5, 0.5] and hits == 2

    def test_occurrence_multiplicity(self):
        vec, hits = aes_row("a a b")
        assert vec == pytest.approx([2 / 3, 1 / 3]) and hits == 3

    def test_all_oov_flagged(self):
        vec, hits = aes_row("x y")
        assert hits == 0 and not vec.any()

    def test_dense_cosine_zero_vector(self):
        zero, _ = aes_row("x")
        assert list(cosine(np.array([0.0]), np.array([np.linalg.norm(zero)]), 1.0)) == [0.0]

    def test_sum_in_token_order(self):
        rng = np.random.default_rng(3)
        table = EmbeddingTable(rng.normal(size=(5, 7)), {f"w{i}": i for i in range(5)})
        tokens = [f"w{i}" for i in rng.integers(0, 6, size=40)]  # w5 is out of vocabulary
        acc = np.zeros(7)
        hits = 0
        for token in tokens:
            if table.row(token) is not None:
                acc += table.matrix[table.row(token)]
                hits += 1
        vec, got_hits = aes_row(" ".join(tokens), table)
        assert got_hits == hits and vec.tobytes() == (acc / hits).tobytes()
        vec, got_hits = aes_vector(np.array([table.rows[t] for t in tokens if t in table.rows]), table)
        assert got_hits == hits and vec.tobytes() == (acc / hits).tobytes()

    def test_raw_form_before_lowercase(self):
        table = EmbeddingTable(np.array([[1.0, 0.0], [0.0, 1.0]]), {"MRI": 0, "mri": 1})
        vec, hits = aes_row("MRI Mri mri MRI", table)
        assert list(vec) == [0.5, 0.5] and hits == 4

    @pytest.mark.parametrize("representation", ["bow", "boc"])
    def test_kept_rows_give_identical_vectors(self, tmp_path, representation):
        (topic,), corpus = synth_collection(seed=4, n_topics=1, n_docs=30, vocab_size=120, irrelevant_overlap=0.3)
        corpus = mixed_case(corpus)
        path = write_embeddings_file(tmp_path, mixed_case_embedding_terms(120))
        lexicon = frozenset([f"term{i:04d}" for i in range(60)] + ["the", "study"])
        pipeline = PipelineConfig()
        full = load_embeddings(path)
        kept = load_embeddings(path, kept_term(pipeline.stopwords, lexicon if representation == "boc" else None))
        assert len(kept.matrix) < len(full.matrix)
        a, b = (build_index(topic, corpus, representation, pipeline, lexicon=lexicon, embeddings=t) for t in (full, kept))
        assert a.embeddings.tobytes() == b.embeddings.tobytes()
        assert a.embedding_hits.tobytes() == b.embedding_hits.tobytes() and a.embedding_hits.any()

    def test_embedding_norms_are_the_means_norms(self, tmp_path):
        (topic,), corpus = synth_collection(seed=5, n_topics=1, n_docs=40, vocab_size=120, irrelevant_overlap=0.3)
        table = load_embeddings(write_embeddings_file(tmp_path, mixed_case_embedding_terms(120), dim=16))
        pipeline = PipelineConfig()
        index = build_index(topic, mixed_case(corpus), "bow", pipeline, embeddings=table)
        assert index.embedding_norms.tobytes() == np.linalg.norm(index.embeddings, axis=1).tobytes()
        assert index.embedding_norms.all()
        # The norms follow the means into any index made from them, replace included.
        plain = build_index(topic, corpus, "bow", pipeline)
        assert plain.embedding_norms is None
        assert replace(plain, embeddings=index.embeddings).embedding_norms.tobytes() == index.embedding_norms.tobytes()
        reversed_means = index.embeddings[::-1].copy()
        assert replace(index, embeddings=reversed_means).embedding_norms.tobytes() == index.embedding_norms[::-1].tobytes()
        assert replace(index, embeddings=None).embedding_norms is None

    def test_boc_rows_only_for_lexicon_terms(self):
        vec, hits = aes_row("A b B", representation="boc", lexicon=frozenset({"b"}))
        assert list(vec) == [0.0, 1.0] and hits == 2

    def test_index_rows_are_candidate_means(self):
        corpus = {"d1": Document("d1", "", "a b b"), "d2": Document("d2", "", "zz")}
        pipeline = PipelineConfig(stopwords=frozenset())
        index = build_index(Topic("T", ["d1", "d2"]), corpus, "bow", pipeline, embeddings=TABLE)
        assert index.embeddings.tolist() == [[1 / 3, 2 / 3], [0.0, 0.0]]
        assert list(index.embedding_hits) == [3, 0]
