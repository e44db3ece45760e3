import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from seedrank import (
    Document,
    DuplicateIdError,
    MissingTopicError,
    ParseError,
    PipelineConfig,
    RunEntry,
    RunValidationError,
    Topic,
    filter_topics,
    load_corpus,
    load_embeddings,
    load_lexicon,
    load_qrels,
    load_run,
    load_topics,
    tokenize,
    write_run,
)
from seedrank.text import document_text


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestLoadCorpus:
    def test_basic_record(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, ['{"doc_id":"123","title":"A","abstract":"B"}'])
        assert load_corpus(p) == {"123": Document("123", "A", "B")}

    def test_duplicate_doc_id(self, tmp_path):
        p = tmp_path / "c.jsonl"
        line = '{"doc_id":"123","title":"A","abstract":"B"}'
        write_lines(p, [line, line])
        with pytest.raises(DuplicateIdError):
            load_corpus(p)

    def test_empty_abstract_accepted(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, ['{"doc_id":"1","title":"T","abstract":""}'])
        assert load_corpus(p)["1"].abstract == ""

    def test_null_title_and_abstract_load_empty(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, ['{"doc_id":"1","title":null,"abstract":"aspirin trial"}',
                        '{"doc_id":"2","title":"T","abstract":null}'])
        docs = load_corpus(p)
        assert docs["1"] == Document("1", "", "aspirin trial")
        assert docs["2"] == Document("2", "T", "")
        config = PipelineConfig()
        assert "none" not in tokenize(document_text(docs["1"], config), config)

    @pytest.mark.parametrize("field", ["title", "abstract"])
    def test_non_string_text_field_is_parse_error(self, tmp_path, field):
        p = tmp_path / "c.jsonl"
        bad = json.dumps({"doc_id": "1", "title": "T", "abstract": "A", field: 5})
        write_lines(p, ['{"doc_id":"0","title":"T","abstract":"A"}', bad])
        with pytest.raises(ParseError, match=f"{p}:2: {field}"):
            load_corpus(p)

    def test_malformed_line_reports_line_number(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, ['{"doc_id":"1","title":"T","abstract":"A"}', "{broken"])
        with pytest.raises(ParseError) as err:
            load_corpus(p)
        assert err.value.lineno == 2

    def test_missing_field(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, ['{"doc_id":"1","title":"T"}'])
        with pytest.raises(ParseError):
            load_corpus(p)

    def test_loading_twice_is_equal(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, ['{"doc_id":"1","title":"T","abstract":"A"}',
                        '{"doc_id":"2","title":"U","abstract":"B"}'])
        assert load_corpus(p) == load_corpus(p)


class TestLoadTopics:
    def make_files(self, tmp_path, topic_lines, qrels_lines):
        t = tmp_path / "topics.txt"
        q = tmp_path / "qrels.txt"
        write_lines(t, topic_lines)
        write_lines(q, qrels_lines)
        return t, q

    def test_judgments_attached(self, tmp_path):
        t, q = self.make_files(tmp_path, ["T1 d1", "T1 d2"], ["T1 0 d1 1"])
        (topic,) = load_topics(t, q)
        assert topic.relevant_ids == ["d1"]
        assert topic.candidate_ids == ["d1", "d2"]

    def test_negative_grade_is_parse_error(self, tmp_path):
        t, q = self.make_files(tmp_path, ["T1 d1"], ["T1 0 d1 -1"])
        with pytest.raises(ParseError):
            load_topics(t, q)

    def test_unknown_topic_in_qrels(self, tmp_path):
        t, q = self.make_files(tmp_path, ["T1 d1"], ["T9 0 d1 1"])
        with pytest.raises(MissingTopicError):
            load_topics(t, q)

    def test_judged_doc_added_to_candidates(self, tmp_path):
        t, q = self.make_files(tmp_path, ["T1 d1"], ["T1 0 d9 1"])
        (topic,) = load_topics(t, q)
        assert topic.candidate_ids == ["d1", "d9"]

    def test_seed_pool_order_follows_qrels(self, tmp_path):
        t, q = self.make_files(
            tmp_path,
            ["T1 d1", "T1 d2", "T1 d3"],
            ["T1 0 d3 1", "T1 0 d1 1", "T1 0 d2 0"],
        )
        (topic,) = load_topics(t, q)
        assert topic.relevant_ids == ["d3", "d1"]

    def test_conflicting_grades_are_parse_error(self, tmp_path):
        t, q = self.make_files(tmp_path, ["T1 d1", "T1 d2"], ["T1 0 d1 1", "T1 0 d2 0", "T1 0 d1 0"])
        with pytest.raises(ParseError, match=f"{q}:3:"):
            load_topics(t, q)


class TestLoadQrels:
    def test_parse(self, tmp_path):
        q = tmp_path / "q.txt"
        write_lines(q, ["T1 0 d1 1", "T1 0 d2 0", "T2 0 d1 2"])
        assert load_qrels(q) == {"T1": {"d1": 1, "d2": 0}, "T2": {"d1": 2}}

    def test_exact_repeat_accepted(self, tmp_path):
        q = tmp_path / "q.txt"
        write_lines(q, ["T1 0 d1 1", "T1 0 d2 0", "T1 0 d1 1"])
        assert load_qrels(q) == {"T1": {"d1": 1, "d2": 0}}

    def test_conflicting_grades_are_parse_error(self, tmp_path):
        q = tmp_path / "q.txt"
        write_lines(q, ["T1 0 d1 1", "T2 0 d1 0", "T1 0 d1 2"])
        with pytest.raises(ParseError) as err:
            load_qrels(q)
        assert err.value.lineno == 3 and str(err.value).startswith(f"{q}:3:")


class TestFilterTopics:
    def make(self, n_relevant):
        judgments = {f"d{i}": 1 for i in range(n_relevant)}
        return Topic(f"T{n_relevant}", list(judgments), judgments)

    def test_threshold(self):
        topics = [self.make(n) for n in (0, 1, 2, 5)]
        assert [t.topic_id for t in filter_topics(topics, 2)] == ["T2", "T5"]
        assert [t.topic_id for t in filter_topics(topics, 3)] == ["T5"]

    def test_empty_input(self):
        assert filter_topics([], 2) == []

    @given(st.lists(st.integers(min_value=0, max_value=9)), st.integers(1, 5), st.integers(0, 5))
    def test_idempotent_and_monotone(self, counts, lo, extra):
        topics = [self.make(n) for n in counts]
        once = filter_topics(topics, lo)
        assert filter_topics(once, lo) == once
        stricter = filter_topics(topics, lo + extra)
        assert set(t.topic_id for t in stricter) <= set(t.topic_id for t in once)


class TestRunFiles:
    def entries(self):
        return [
            RunEntry("T1", "d1", 1, 2.5, "sdr"),
            RunEntry("T1", "d2", 2, 1.25, "sdr"),
            RunEntry("T1", "d3", 3, 0.5, "sdr"),
        ]

    def test_line_format(self, tmp_path):
        p = tmp_path / "r.run"
        write_run([RunEntry("T1", "d1", 1, 2.5, "sdr")], p)
        assert p.read_text().splitlines()[0] == "T1 Q0 d1 1 2.50000 sdr"

    def test_round_trip_identity(self, tmp_path):
        p = tmp_path / "r.run"
        entries = self.entries()
        write_run(entries, p)
        assert load_run(p) == entries

    def test_rank_gap_rejected(self, tmp_path):
        bad = [RunEntry("T1", "d1", 1, 2.0, "x"), RunEntry("T1", "d2", 3, 1.0, "x")]
        with pytest.raises(RunValidationError):
            write_run(bad, tmp_path / "r.run")

    def test_increasing_scores_rejected(self, tmp_path):
        bad = [RunEntry("T1", "d1", 1, 1.0, "x"), RunEntry("T1", "d2", 2, 2.0, "x")]
        with pytest.raises(RunValidationError):
            write_run(bad, tmp_path / "r.run")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_score_rejected(self, tmp_path, bad):
        entries = [RunEntry("T1", "d1", 1, 2.0, "x"), RunEntry("T1", "d2", 2, bad, "x")]
        with pytest.raises(RunValidationError, match="'T1'"):
            write_run(entries, tmp_path / "r.run")
        assert not (tmp_path / "r.run").exists()

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "r.run"
        p.write_text("T1 Q0 d1 1 2.5\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_run(p)

    def test_repeated_document_in_a_topic_rejected(self, tmp_path):
        p = tmp_path / "r.run"
        p.write_text("T1 Q0 d1 1 2.0 x\nT2 Q0 d1 1 2.0 x\nT1 Q0 d1 2 1.0 x\n", encoding="utf-8")
        with pytest.raises(ParseError, match="'d1'") as err:
            load_run(p)
        assert err.value.lineno == 3 and str(err.value).startswith(f"{p}:3:")

    def test_write_load_write_is_byte_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.run", tmp_path / "b.run"
        write_run(self.entries(), p1)
        write_run(load_run(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @given(st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1, max_size=20, unique=True,
    ))
    def test_round_trip_arbitrary_scores(self, tmp_path_factory, scores):
        scores = sorted(scores, reverse=True)
        entries = [RunEntry("T", f"d{i}", i + 1, s, "t") for i, s in enumerate(scores)]
        p = tmp_path_factory.mktemp("runs") / "r.run"
        write_run(entries, p)
        assert load_run(p) == entries


class TestLexiconAndEmbeddings:
    def test_lexicon_lowercase_dedup(self, tmp_path):
        p = tmp_path / "lex.txt"
        write_lines(p, ["Heart", "heart"])
        assert load_lexicon(p).terms == frozenset({"heart"})

    def test_empty_lexicon_ok(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text("", encoding="utf-8")
        assert len(load_lexicon(p)) == 0

    def test_embeddings(self, tmp_path):
        p = tmp_path / "e.txt"
        write_lines(p, ["2 2", "a 1 0", "b 0 1"])
        table = load_embeddings(p)
        assert table.dimension == 2
        assert list(table.lookup("a")) == [1.0, 0.0]

    def test_vectors_equal_a_per_value_parse(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = {f"w{i}": rng.normal(size=6) * 10.0 ** rng.integers(-8, 8) for i in range(300)}
        lines = [f"{len(rows)} 6"]
        for i, (token, vec) in enumerate(rows.items()):
            values = [repr(float(v)) if i % 2 else f"{v:.6f}" for v in vec]
            lines.append(f"{token} " + " ".join(values))
        p = tmp_path / "e.txt"
        write_lines(p, lines + ["w0 " + " ".join(["1e-3"] * 6)])  # a repeated token keeps its last vector
        table = load_embeddings(p)
        for line in lines[1:]:
            token, *values = line.split()
            expected = np.array([float(v) for v in values]) if token != "w0" else np.full(6, 1e-3)
            assert table.lookup(token).tobytes() == expected.tobytes()

    def test_unparsable_value_names_its_line(self, tmp_path):
        p = tmp_path / "e.txt"
        write_lines(p, ["3 2", "a 1 0", "", "b 0 x1", "c 1 1"])
        with pytest.raises(ParseError) as err:
            load_embeddings(p)
        assert err.value.lineno == 4 and str(err.value).startswith(f"{p}:4:")

    def test_token_without_values(self, tmp_path):
        p = tmp_path / "e.txt"
        write_lines(p, ["2 2", "a 1 0", "b"])
        with pytest.raises(ParseError) as err:
            load_embeddings(p)
        assert err.value.lineno == 3

    def test_header_only_file(self, tmp_path):
        p = tmp_path / "e.txt"
        write_lines(p, ["0 3"])
        table = load_embeddings(p)
        assert table.dimension == 3 and table.lookup("a") is None

    @pytest.mark.parametrize("vocab_size", ["abc", "-5", "2.0"])
    def test_bad_vocabulary_size_rejected(self, tmp_path, vocab_size):
        p = tmp_path / "e.txt"
        write_lines(p, [f"{vocab_size} 2", "a 1 0", "b 0 1"])
        with pytest.raises(ParseError) as err:
            load_embeddings(p)
        assert err.value.lineno == 1 and str(err.value).startswith(f"{p}:1:")

    def test_vocabulary_size_need_not_match_the_rows(self, tmp_path):
        p = tmp_path / "e.txt"
        write_lines(p, ["5 2", "a 1 0", "b 0 1"])
        assert len(load_embeddings(p).rows) == 2

    def test_wrong_arity(self, tmp_path):
        p = tmp_path / "e.txt"
        write_lines(p, ["2 3", "a 1 0 0", "b 0 1 0 9"])
        with pytest.raises(ParseError) as err:
            load_embeddings(p)
        assert err.value.lineno == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        p = tmp_path / "e.txt"
        write_lines(p, ["2 2", "a 1 0", f"b 0 {value}"])
        with pytest.raises(ParseError) as err:
            load_embeddings(p)
        assert err.value.lineno == 3 and str(err.value).startswith(f"{p}:3:")

    def test_raw_then_lowercase_lookup(self, tmp_path):
        p = tmp_path / "e.txt"
        write_lines(p, ["2 2", "MRI 1 0", "scan 0 1"])
        table = load_embeddings(p)
        assert list(table.lookup("MRI")) == [1.0, 0.0]
        assert list(table.lookup("SCAN")) == [0.0, 1.0]
        assert table.lookup("unknown") is None

