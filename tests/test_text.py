import re
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import ref_counts, ref_tokenize
from seedrank import (
    ConfigError,
    Document,
    EmbeddingTable,
    PipelineConfig,
    Topic,
    build_index,
    default_stopwords,
)
from seedrank.text import LEE, _NonWordToSpace
from synth import tokenize


@pytest.fixture
def lee():
    return PipelineConfig(variant=LEE)


def index_counts(texts, config, representation="bow", lexicon=None):
    """doc_id -> term -> count of each index row, in row order, and the index; ``texts`` are abstracts or Documents."""
    docs = [t if isinstance(t, Document) else Document(f"d{i}", "", t) for i, t in enumerate(texts)]
    corpus = {d.doc_id: d for d in docs}
    index = build_index(Topic("T", list(corpus)), corpus, representation, config, lexicon=lexicon)
    rows = {}
    for row, doc_id in enumerate(index.doc_ids):
        start, end = index.counts.indptr[row], index.counts.indptr[row + 1]
        columns = index.counts.indices[start:end].tolist()
        rows[doc_id] = dict(zip((index.terms[c] for c in columns), index.counts.data[start:end].tolist()))
    return rows, index


# Characters where a per-token rule and a whole-text rule differ: U+0130 lowercases to
# two codepoints, a final sigma depends on its neighbours, U+203F is connector
# punctuation that \w leaves out, NBSP is whitespace, U+FF01 is fullwidth punctuation,
# combining marks are neither alphanumeric nor punctuation, U+216B is a numeric letter.
EXAMPLES = [
    "\u0130stanbul", "ΟΔΟΣ.Α", "_", "a\u203fb", "heart\u00a0rate", "stop\uff01go", "cafe\u0301 nai\u0308ve",
    "\u216b trials", "_under_score_", "ΣΟΦΟΣ ΟΔΟΣ", "heart\u0300\u0301lung",
]


class TestTokenize:
    def test_ours_strips_punctuation(self, pipeline):
        assert tokenize("Heart-rate, variability!", pipeline) == ["heart", "rate", "variability"]

    def test_lee_keeps_punctuation_glued(self, lee):
        assert tokenize("Heart-rate, variability!", lee) == ["heart-rate,", "variability!"]

    def test_ours_removes_stopwords(self, pipeline):
        assert tokenize("the test of accuracy", pipeline) == ["test", "accuracy"]

    def test_empty_text(self, pipeline, lee):
        assert tokenize("", pipeline) == []
        assert tokenize("", lee) == []

    def test_unicode_punctuation(self, pipeline):
        assert tokenize("renal—failure… “study”", pipeline) == ["renal", "failure", "study"]

    def test_no_stemming(self, pipeline):
        assert tokenize("studies studied studying", pipeline) == ["studies", "studied", "studying"]

    def test_case_preserving_mode_still_drops_stopwords(self, pipeline):
        # The embedding lookup sees the case-preserved forms; "The" is still a stopword and contributes no row.
        table = EmbeddingTable(np.eye(3), {"The": 0, "MRI": 1, "Scan": 2})
        corpus = {"d": Document("d", "", "The MRI Scan")}
        index = build_index(Topic("T", ["d"]), corpus, "bow", pipeline, embeddings=table)
        assert index.terms == ("mri", "scan")
        assert list(index.embedding_hits) == [2]
        assert index.embeddings.tolist() == [[0.0, 0.5, 0.5]]

    # U+0130 lowercases to "i" and U+0307, a combining mark, which a second pass splits off.
    @given(st.text(st.characters(exclude_characters="\u0130"), max_size=200))
    def test_ours_idempotent_on_own_output(self, text):
        config = PipelineConfig()
        once = tokenize(text, config)
        again = tokenize(" ".join(once), config)
        assert once == again

    def test_dotted_capital_i_is_not_idempotent(self, pipeline):
        # The term keeps U+0307; tokenizing it again leaves "stanbul", and the bare "i" is a stopword.
        once = tokenize("\u0130stanbul x", pipeline)
        assert once == ["i\u0307stanbul", "x"]
        assert tokenize(" ".join(once), pipeline) == ["stanbul", "x"]

    def test_dotted_capital_i_is_the_only_word_character_lowercased_to_a_non_word_one(self):
        word = re.compile(r"[^\W_]")
        lowered = [
            cp for cp in range(sys.maxunicode + 1)
            if word.fullmatch(chr(cp)) and not all(word.fullmatch(ch) for ch in chr(cp).lower())
        ]
        assert lowered == [0x130]

    @given(st.text(max_size=200))
    def test_deterministic(self, text):
        config = PipelineConfig()
        assert tokenize(text, config) == tokenize(text, config)

    @given(st.text(max_size=200), st.sampled_from(["ours", "lee"]))
    def test_matches_reference(self, text, variant):
        config = PipelineConfig(variant=variant)
        assert tokenize(text, config) == ref_tokenize(text, config)

    @pytest.mark.parametrize("variant", ["ours", "lee"])
    def test_reference_examples(self, variant):
        config = PipelineConfig(variant=variant)
        for text in EXAMPLES:
            assert tokenize(text, config) == ref_tokenize(text, config), text
        assert tokenize("\u0130stanbul", config) == ["i\u0307stanbul"]

    def test_ours_examples(self, pipeline):
        text = "ΟΔΟΣ.Α _ a\u203fb heart\u00a0rate stop\uff01go"
        assert tokenize(text, pipeline) == ["οδος", "α", "b", "heart", "rate", "stop", "go"]
        assert tokenize("cafe\u0301 \u216b heart\u0300\u0301lung", pipeline) == ["cafe", "\u217b", "heart", "lung"]

    def test_translate_keeps_exactly_word_characters(self):
        # One plane at a time, each through a fresh table, so no table holds every codepoint at once.
        for start in range(0, sys.maxunicode + 1, 0x10000):
            codepoints = range(start, min(start + 0x10000, sys.maxunicode + 1))
            text = "".join(chr(cp) for cp in codepoints if not 0xD800 <= cp <= 0xDFFF)
            kept = re.sub(r"[\W_]", " ", text)  # every character that [^\W_] does not match
            assert text.translate(_NonWordToSpace()) == kept, hex(start)

    def test_unknown_variant_is_config_error(self):
        with pytest.raises(ConfigError) as err:
            PipelineConfig(variant="porter")
        assert err.value.field == "variant"


class TestBow:
    def test_counts_and_length(self, pipeline):
        rows, index = index_counts(["heart valve heart"], pipeline)
        assert rows["d0"] == {"heart": 2, "valve": 1}
        assert list(index.doc_lengths) == [3]

    def test_empty_document(self, pipeline):
        rows, index = index_counts([""], pipeline)
        assert rows["d0"] == {} and list(index.doc_lengths) == [0]

    def test_title_and_abstract_concatenated(self, pipeline):
        assert index_counts([Document("1", "aspirin", "aspirin")], pipeline)[0]["1"] == {"aspirin": 2}

    def test_title_can_be_excluded(self):
        config = PipelineConfig(include_title=False)
        assert index_counts([Document("1", "aspirin", "heart")], config)[0]["1"] == {"heart": 1}

    @given(st.lists(st.text(max_size=60), min_size=1, max_size=5), st.sampled_from(["ours", "lee"]))
    def test_rows_match_reference_counts(self, texts, variant):
        config = PipelineConfig(variant=variant)
        rows, index = index_counts(texts, config)
        expected = [ref_counts(Document(f"d{i}", "", t), config) for i, t in enumerate(texts)]
        assert [list(rows[f"d{i}"].items()) for i in range(len(texts))] == [list(c.items()) for c in expected]
        assert index.terms == tuple(dict.fromkeys(t for c in expected for t in c))


class TestBoc:
    LEX = frozenset({"heart", "rate"})
    NO_STOPWORDS = PipelineConfig(stopwords=frozenset())

    def test_restriction_preserves_counts(self):
        bow, _ = index_counts(["heart the Heart rate"], self.NO_STOPWORDS)
        boc, index = index_counts(["heart the Heart rate"], self.NO_STOPWORDS, "boc", self.LEX)
        assert bow["d0"] == {"heart": 2, "the": 1, "rate": 1}
        assert boc["d0"] == {"heart": 2, "rate": 1}
        assert list(index.doc_lengths) == [3]

    def test_empty_lexicon(self):
        assert index_counts(["heart heart"], self.NO_STOPWORDS, "boc", frozenset())[0]["d0"] == {}

    def test_superset_lexicon_is_identity(self):
        bow, _ = index_counts(["heart heart rate"], self.NO_STOPWORDS)
        assert index_counts(["heart heart rate"], self.NO_STOPWORDS, "boc", self.LEX)[0] == bow

    @given(st.lists(st.lists(st.sampled_from("abcdefgh"), max_size=8), min_size=1, max_size=4),
           st.sets(st.sampled_from("abcdefgh"), max_size=8))
    def test_subset_property(self, docs, lex_terms):
        texts = [" ".join(words) for words in docs]
        lexicon = frozenset(lex_terms)
        bow, _ = index_counts(texts, self.NO_STOPWORDS)
        boc, index = index_counts(texts, self.NO_STOPWORDS, "boc", lexicon)
        for i, text in enumerate(texts):
            doc_id = f"d{i}"
            assert boc[doc_id].items() <= bow[doc_id].items()
            expected = ref_counts(Document(doc_id, "", text), self.NO_STOPWORDS, lexicon)
            assert list(boc[doc_id].items()) == list(expected.items())
            assert index.doc_lengths[i] == sum(boc[doc_id].values())


class TestStopwords:
    def test_bundled_list_size(self):
        assert len(default_stopwords()) == 179

    def test_vocab_ordering_boc_le_bow(self, pipeline):
        docs = [Document(str(i), "heart rate study", "aspirin therapy outcome") for i in range(3)]
        lex = frozenset({"heart", "aspirin"})
        _, bow_index = index_counts(docs, pipeline)
        _, boc_index = index_counts(docs, pipeline, "boc", lex)
        assert set(boc_index.terms) <= set(bow_index.terms)
