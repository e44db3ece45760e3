import pytest
from hypothesis import given, strategies as st

from seedrank import ConfigError, Document, Lexicon, PipelineConfig, TermCounts, boc, bow, default_stopwords, tokenize
from seedrank.text import LEE


@pytest.fixture
def lee():
    return PipelineConfig(variant=LEE)


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

    def test_case_preserving_mode_still_drops_stopwords(self):
        config = PipelineConfig(lowercase=False)
        assert tokenize("The MRI Scan", config) == ["MRI", "Scan"]

    @given(st.text(max_size=200))
    def test_ours_idempotent_on_own_output(self, text):
        config = PipelineConfig()
        once = tokenize(text, config)
        again = tokenize(" ".join(once), config)
        assert once == again

    @given(st.text(max_size=200))
    def test_deterministic(self, text):
        config = PipelineConfig()
        assert tokenize(text, config) == tokenize(text, config)

    def test_unknown_variant_is_config_error(self):
        with pytest.raises(ConfigError) as err:
            PipelineConfig(variant="porter")
        assert err.value.field == "variant"


class TestBow:
    def test_counts_and_length(self, pipeline):
        doc = Document("1", "", "heart valve heart")
        counts = bow(doc, pipeline)
        assert counts.counts == {"heart": 2, "valve": 1}
        assert counts.length == 3

    def test_empty_document(self, pipeline):
        counts = bow(Document("1", "", ""), pipeline)
        assert counts.counts == {} and counts.length == 0

    def test_title_and_abstract_concatenated(self, pipeline):
        assert bow(Document("1", "aspirin", "aspirin"), pipeline).counts == {"aspirin": 2}

    def test_title_can_be_excluded(self):
        config = PipelineConfig(include_title=False)
        assert bow(Document("1", "aspirin", "heart"), config).counts == {"heart": 1}


class TestBoc:
    LEX = Lexicon(frozenset({"heart", "rate"}))

    def test_restriction_preserves_counts(self):
        counts = TermCounts({"heart": 2, "the": 1, "rate": 1}, 4)
        restricted = boc(counts, self.LEX)
        assert restricted.counts == {"heart": 2, "rate": 1}
        assert restricted.length == 3

    def test_empty_lexicon(self):
        counts = TermCounts({"heart": 2}, 2)
        assert boc(counts, Lexicon(frozenset())).counts == {}

    def test_superset_lexicon_is_identity(self):
        counts = TermCounts({"heart": 2, "rate": 1}, 3)
        assert boc(counts, self.LEX).counts == counts.counts

    @given(st.dictionaries(st.sampled_from("abcdefgh"), st.integers(1, 5), max_size=8),
           st.sets(st.sampled_from("abcdefgh"), max_size=8))
    def test_subset_property(self, counts, lex_terms):
        tc = TermCounts(dict(counts), sum(counts.values()))
        restricted = boc(tc, Lexicon(frozenset(lex_terms)))
        assert restricted.counts.items() <= tc.counts.items()
        assert restricted.length == sum(restricted.counts.values())


class TestStopwords:
    def test_bundled_list_size(self):
        assert len(default_stopwords()) == 179

    def test_vocab_ordering_boc_le_bow(self, pipeline):
        docs = [Document(str(i), "heart rate study", "aspirin therapy outcome") for i in range(3)]
        lex = Lexicon(frozenset({"heart", "aspirin"}))
        bow_vocab = set()
        boc_vocab = set()
        for doc in docs:
            counts = bow(doc, pipeline)
            bow_vocab |= counts.counts.keys()
            boc_vocab |= boc(counts, lex).counts.keys()
        assert boc_vocab <= bow_vocab
