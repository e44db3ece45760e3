import io
import json
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seedrank import (
    Document,
    DuplicateIdError,
    Lexicon,
    MissingTopicError,
    ParseError,
    PipelineConfig,
    Run,
    RunEntry,
    RunUnit,
    RunValidationError,
    SeedRankError,
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
from seedrank import corpus
from seedrank.text import default_stopwords, document_text, kept_term


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

    @pytest.mark.parametrize("score", ["nan", "-inf", "1e999"])
    def test_non_finite_score_in_file_rejected(self, tmp_path, score):
        # write_run refuses these scores, so a file holding one was not written by it.
        p = tmp_path / "r.run"
        p.write_text(f"T1 Q0 d1 1 2.0 x\nT1 Q0 d2 2 {score} x\n", encoding="utf-8")
        with pytest.raises(ParseError, match="finite") as err:
            load_run(p)
        assert err.value.lineno == 2 and str(err.value).startswith(f"{p}:2:")

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


def reference_format_score(score: float) -> str:
    """The score text of a run line, one score at a time: the shortest >= 6 significant digits that read back."""
    padded = format(score, "#.6g")
    if float(padded) == score:
        return padded
    return repr(score)


finite_scores = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),  # subnormal
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]),
)


class TestRunUnitFiles:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(finite_scores, min_size=1, max_size=12), min_size=1, max_size=3), st.data())
    def test_units_round_trip(self, tmp_path_factory, unit_scores, data):
        units = []
        for u, scores in enumerate(unit_scores):
            scores = sorted(scores + data.draw(st.lists(st.sampled_from(scores), max_size=3)), reverse=True)  # ties
            names = tuple(f"d{i}" for i in range(len(scores)))
            rows = np.array(data.draw(st.permutations(range(len(scores)))))
            units.append(RunUnit(f"T.{u}", "t", names, rows, np.array(scores)))
        run = Run(tuple(units))
        p = tmp_path_factory.mktemp("runs") / "r.run"
        write_run(run, p)

        def lines(entries):
            return [(e.topic_id, e.doc_id, e.rank, e.score.hex(), e.tag) for e in entries]

        expected = [entry for unit in units for entry in unit]
        assert len(run) == len(expected) and lines(load_run(p)) == lines(expected)
        for unit in units:
            assert [e.rank for e in unit] == list(range(1, len(unit) + 1))
        texts = [line.split()[4] for line in p.read_text(encoding="utf-8").splitlines()]
        assert texts == [reference_format_score(e.score) for e in expected]

    def test_unit_and_entries_write_the_same_bytes(self, tmp_path):
        unit = RunUnit("T1", "sdr", ("d3", "d1", "d2"), np.array([1, 2, 0]), np.array([2.5, 1.25, 0.5]))
        write_run(Run((unit,)), tmp_path / "unit.run")
        write_run(list(unit), tmp_path / "entries.run")
        assert (tmp_path / "unit.run").read_bytes() == (tmp_path / "entries.run").read_bytes()
        assert load_run(tmp_path / "unit.run") == list(unit)

    @pytest.mark.parametrize("scores", [[1.0, 2.0], [2.0, float("nan")], [float("inf"), 1.0], [1.0, float("-inf")]])
    def test_bad_scores_rejected(self, tmp_path, scores):
        unit = RunUnit("T1", "x", ("a", "b"), np.arange(2), np.array(scores))
        with pytest.raises(RunValidationError, match="'T1'"):
            write_run(Run((unit,)), tmp_path / "r.run")
        assert not (tmp_path / "r.run").exists()

    def test_repeated_unit_key_rejected(self, tmp_path):
        unit = RunUnit("T1", "x", ("a",), np.arange(1), np.ones(1))
        with pytest.raises(RunValidationError, match="'T1'"):
            write_run(Run((unit, unit)), tmp_path / "r.run")


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
        assert list(table.matrix[table.row("a")]) == [1.0, 0.0]

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
            assert table.matrix[table.row(token)].tobytes() == expected.tobytes()

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
        assert table.dimension == 3 and table.row("a") is None

    @pytest.mark.parametrize("vocab_size", ["abc", "-5", "2.0"])
    def test_bad_vocabulary_size_rejected(self, tmp_path, vocab_size):
        p = tmp_path / "e.txt"
        write_lines(p, [f"{vocab_size} 2", "a 1 0", "b 0 1"])
        with pytest.raises(ParseError) as err:
            load_embeddings(p)
        assert err.value.lineno == 1 and str(err.value).startswith(f"{p}:1:")

    @pytest.mark.parametrize("body", [[], ["a 1 0"]])
    def test_dimension_numpy_cannot_hold_rejected(self, tmp_path, body):
        p = tmp_path / "e.txt"
        write_lines(p, [f"1 {2**63}", *body])
        with pytest.raises(ParseError, match="dimension must be at most") as err:
            load_embeddings(p)
        assert err.value.lineno == 1

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
        assert list(table.matrix[table.row("MRI")]) == [1.0, 0.0]
        assert list(table.matrix[table.row("SCAN")]) == [0.0, 1.0]
        assert table.row("unknown") is None



class TestUndecodableBytes:
    """A byte that is not UTF-8 fails at its line, whichever loader reads it."""

    GOOD = {
        "corpus": ['{"doc_id":"1","title":"T","abstract":"A"}', '{"doc_id":"2","title":"U","abstract":"B"}'],
        "topics": ["T1 d1", "T1 d2"],
        "qrels": ["T1 0 d1 1", "T1 0 d2 0"],
        "lexicon": ["heart", "attack"],
        "embeddings": ["2 2", "a 1 0", "b 0 1"],
        "run": ["T1 Q0 d1 1 2.0 x", "T1 Q0 d2 2 1.0 x"],
    }
    LOADERS = {
        "corpus": load_corpus,
        "topics": lambda p: load_topics(p, p.with_name("qrels")),
        "qrels": load_qrels,
        "lexicon": load_lexicon,
        "embeddings": load_embeddings,
        "run": load_run,
    }

    @pytest.mark.parametrize("kind", sorted(GOOD))
    @pytest.mark.parametrize("filler", [0, 20000])
    def test_bad_byte_names_its_line(self, tmp_path, kind, filler):
        # The blank filler lines push the bad byte past the text decoder's first read.
        write_lines(tmp_path / "qrels", self.GOOD["qrels"])
        p = tmp_path / kind
        first, second = (line.encode("utf-8") + b"\n" for line in self.GOOD[kind][:2])
        p.write_bytes(first + b"\n" * filler + b"\xe9" + second + b"\xff\n")
        with pytest.raises(ParseError, match="byte 0xe9 is not valid UTF-8") as err:
            self.LOADERS[kind](p)
        assert err.value.lineno == filler + 2 and str(err.value).startswith(f"{p}:{filler + 2}:")

    def test_utf8_text_still_loads(self, tmp_path):
        p = tmp_path / "lex.txt"
        write_lines(p, ["café", "İstanbul"])
        assert load_lexicon(p).terms == frozenset({"café", "i̇stanbul"})


class TestStreamedEmbeddings:
    """The body is parsed in chunks of ``_EMBEDDING_CHUNK_LINES`` lines; here 2 or 3."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(corpus, "_EMBEDDING_CHUNK_LINES", 2)

    def load(self, tmp_path, lines, newline="\n"):
        p = tmp_path / "e.txt"
        p.write_bytes("".join(line + newline for line in lines).encode("utf-8"))
        return p, load_embeddings(p)

    def test_malformed_line_in_a_later_chunk_names_its_line(self, tmp_path):
        with pytest.raises(ParseError) as err:
            self.load(tmp_path, ["5 2", "a 1 0", "b 0 1", "c 1 1", "d 1 x", "e 0 0"])
        assert err.value.lineno == 5 and "not a number" in str(err.value)

    def test_non_finite_row_before_a_malformed_row_reports_the_malformed_row(self, tmp_path):
        with pytest.raises(ParseError) as err:
            self.load(tmp_path, ["5 2", "a 1 nan", "b 0 1", "c 1 1", "d 1 0 7", "e 0 0"])
        assert err.value.lineno == 5 and "got 3 values" in str(err.value)

    def test_non_finite_row_in_a_later_chunk_is_reported(self, tmp_path):
        with pytest.raises(ParseError, match="'d'") as err:
            self.load(tmp_path, ["5 2", "a 1 0", "b 0 1", "c 1 1", "d 1 inf", "e nan 0"])
        assert err.value.lineno == 5

    @pytest.mark.parametrize("chunk", [2, 3])
    def test_blank_lines_and_crlf_across_chunk_boundaries(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(corpus, "_EMBEDDING_CHUNK_LINES", chunk)
        lines = ["4 2", "a 1 0", "", "b 0 1", "  ", "", "c 0.5 -2", "d 3 4", "", ""]
        _, table = self.load(tmp_path, lines, newline="\r\n")
        assert table.rows == {"a": 0, "b": 1, "c": 2, "d": 3}
        assert table.matrix.tolist() == [[1, 0], [0, 1], [0.5, -2], [3, 4]]
        with pytest.raises(ParseError) as err:
            self.load(tmp_path, lines[:6] + ["c 0.5"], newline="\r\n")
        assert err.value.lineno == 7

    @pytest.mark.parametrize("vocab_size", [0, 1, 7, 10**15])
    def test_header_row_count_need_not_hold(self, tmp_path, vocab_size):
        rows = [f"w{i} {i} {-i}" for i in range(7)]
        _, table = self.load(tmp_path, [f"{vocab_size} 2", *rows])
        assert table.matrix.tolist() == [[i, -i] for i in range(7)]
        assert table.matrix.base is None and table.matrix.flags.c_contiguous

    def test_empty_body(self, tmp_path):
        _, table = self.load(tmp_path, ["3 4", "", " "])
        assert table.matrix.shape == (0, 4) and table.rows == {}

    def test_repeated_token_keeps_its_last_row(self, tmp_path):
        _, table = self.load(tmp_path, ["4 1", "a 1", "b 2", "c 3", "a 4"])
        assert table.matrix[table.row("a")].tolist() == [4.0] and table.row("a") == 3
        assert table.matrix.tolist() == [[1], [2], [3], [4]] and table.rows_read == 4

    @settings(max_examples=200, deadline=None)
    @given(
        chunk=st.integers(1, 4),
        dimension=st.integers(1, 3),
        rows=st.lists(
            st.tuples(
                st.text(alphabet="abcXYZ019_-éİ中", min_size=1, max_size=4),
                st.lists(st.floats(-1e300, 1e300), min_size=3, max_size=3),
                st.sampled_from(["{!r}", "{:.3g}", "{:.0f}", "{:e}"]),
                st.integers(0, 2),
            ),
            max_size=12,
        ),
        vocab_size=st.one_of(st.none(), st.integers(0, 10**15)),
        newline=st.sampled_from(["\n", "\r\n"]),
    )
    def test_matrix_equals_one_loadtxt_over_the_body(self, tmp_path_factory, chunk, dimension, rows, vocab_size, newline):
        values = [" ".join(fmt.format(v) for v in vector[:dimension]) for _, vector, fmt, _ in rows]
        lines = [f"{len(rows) if vocab_size is None else vocab_size} {dimension}"]
        for (token, _, _, blanks), text in zip(rows, values):
            lines += [""] * blanks + [f"{token} {text}"]
        p = tmp_path_factory.mktemp("emb") / "e.txt"
        p.write_bytes(newline.join(lines).encode("utf-8"))
        with mock.patch.object(corpus, "_EMBEDDING_CHUNK_LINES", chunk):
            table = load_embeddings(p)
        if values:
            expected = np.loadtxt(values, dtype=np.float64, comments=None, ndmin=2).reshape(len(rows), dimension)
        else:
            expected = np.empty((0, dimension))
        assert table.matrix.shape == expected.shape and table.matrix.tobytes() == expected.tobytes()
        assert table.rows == {token: i for i, (token, *_) in enumerate(rows)}

    @settings(max_examples=300, deadline=None)
    @given(
        chunk=st.integers(1, 3),
        edits=st.lists(
            st.tuples(st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 10**6), st.binary(min_size=1, max_size=3)),
            min_size=1, max_size=4,
        ),
    )
    def test_mutated_files_raise_only_seedrank_errors(self, tmp_path_factory, chunk, edits):
        data = bytearray(b"4 3\na 1 0 -2.5\n\nb 0 1e-3 7\r\nc 1 1 1\nd 0.25 0 9\n")
        for op, at, payload in edits:
            at %= len(data) + 1
            if op == "insert":
                data[at:at] = payload
            elif op == "replace":
                data[at:at + len(payload)] = payload
            else:
                del data[at:at + len(payload)]
        p = tmp_path_factory.mktemp("emb") / "e.txt"
        p.write_bytes(bytes(data))
        try:
            with mock.patch.object(corpus, "_EMBEDDING_CHUNK_LINES", chunk):
                load_embeddings(p)
        except ParseError as exc:
            assert str(exc).startswith(f"{p}:{exc.lineno}: ")
        except SeedRankError:
            pass


class TestKeepRule:
    """With ``keep``, only the rows whose token's lowercase passes it are stored; every line is still checked."""

    # "the" is in the lexicon but is a stopword, so it is not kept.
    ASPIRIN = staticmethod(kept_term(default_stopwords(), Lexicon(frozenset({"aspirin", "the"}))))

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(corpus, "_EMBEDDING_CHUNK_LINES", 2)

    def write(self, tmp_path, lines):
        p = tmp_path / "e.txt"
        write_lines(p, lines)
        return p

    def test_both_cases_of_a_lexicon_term_stay(self, tmp_path):
        p = self.write(tmp_path, ["5 2", "Aspirin 1 0", "heart 0 1", "aspirin 2 2", "the 3 3", "The 4 4"])
        table = load_embeddings(p, self.ASPIRIN)
        assert table.rows == {"Aspirin": 0, "aspirin": 1} and table.rows_read == 5
        assert table.matrix.tolist() == [[1, 0], [2, 2]]
        assert table.row("ASPIRIN") == table.row("aspirin") == 1 and table.row("Aspirin") == 0
        assert table.row("heart") is None and table.row("the") is None

    @pytest.mark.parametrize("lines, lineno, detail", [
        (["3 2", "aspirin 1 0", "heart 0 1", "stroke 0 x1", "Aspirin 1 1"], 4, "not a number among the values"),
        (["3 2", "aspirin 1 0", "heart 0 1", "stroke 0 nan"], 4, "non-finite value in the vector of 'stroke'"),
        (["3 2", "heart nan 0", "aspirin 1 1", "stroke 1", "aspirin 0 0"], 4, "got 1 values"),
        (["3 2", "aspirin 1 0", "heart"], 3, "got 0 values"),
    ])
    def test_dropped_rows_are_still_checked(self, tmp_path, lines, lineno, detail):
        p = self.write(tmp_path, lines)
        with pytest.raises(ParseError) as unfiltered:
            load_embeddings(p)
        with pytest.raises(ParseError) as filtered:
            load_embeddings(p, self.ASPIRIN)
        assert filtered.value.lineno == unfiltered.value.lineno == lineno
        assert str(filtered.value) == str(unfiltered.value) and detail in str(filtered.value)

    def test_repeated_kept_token_keeps_its_last_row(self, tmp_path):
        p = self.write(tmp_path, ["6 1", "aspirin 1", "heart 2", "Aspirin 3", "aspirin 4", "heart 5", "aspirin 6"])
        table = load_embeddings(p, self.ASPIRIN)
        assert table.matrix[table.row("aspirin")].tolist() == [6.0]
        assert table.matrix[table.row("Aspirin")].tolist() == [3.0]
        assert table.row("heart") is None and table.rows_read == 6

    @settings(max_examples=200, deadline=None)
    @given(
        chunk=st.integers(1, 4),
        tokens=st.lists(st.text(alphabet="aAbBİıΣς", min_size=1, max_size=3), max_size=12),
        kept=st.sets(st.text(alphabet="abi̇ıσς", min_size=1, max_size=3)),
    )
    def test_every_kept_form_finds_its_unfiltered_vector(self, tmp_path_factory, chunk, tokens, kept):
        p = tmp_path_factory.mktemp("emb") / "e.txt"
        write_lines(p, [f"{len(tokens)} 2"] + [f"{token} {i} {-i}" for i, token in enumerate(tokens)])
        keep = kept_term(frozenset(), Lexicon(frozenset(kept)))
        with mock.patch.object(corpus, "_EMBEDDING_CHUNK_LINES", chunk):
            full = load_embeddings(p)
            table = load_embeddings(p, keep)
        assert set(table.rows) == {token for token in tokens if keep(token.lower())}
        forms = {f for token in tokens for f in (token, token.lower(), token.upper(), token.title())}
        for form in filter(lambda f: keep(f.lower()), forms):
            expected = full.row(form)
            got = table.row(form)
            assert (got is None) == (expected is None)
            if got is not None:
                assert table.matrix[got].tobytes() == full.matrix[expected].tobytes()


def test_filtered_embedding_load_holds_the_kept_rows(tmp_path):
    """tracemalloc peak of a 20000 x 100 load keeping 6097 rows, the benchmark's hybrid file shape, < 12 MiB."""
    rows, dimension, kept = 20000, 100, 6097
    rng = np.random.default_rng(9)
    body = io.StringIO()
    np.savetxt(body, rng.normal(size=(rows, dimension)), fmt="%.4f")
    p = tmp_path / "e.txt"
    write_lines(p, [f"{rows} {dimension}"] + [f"w{i} {values}" for i, values in enumerate(body.getvalue().splitlines())])
    lexicon = Lexicon(frozenset(f"w{i}" for i in rng.choice(rows, size=kept, replace=False)))
    tracemalloc.start()
    try:
        table = load_embeddings(p, kept_term(default_stopwords(), lexicon))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.matrix.shape == (kept, dimension) and table.rows_read == rows
    assert table.matrix.base is None and table.matrix.flags.c_contiguous
    assert peak < 12 * 2**20


def test_embedding_loader_holds_the_table_plus_one_chunk(tmp_path):
    """tracemalloc peak <= matrix + token map + a fixed allowance for one chunk of lines."""
    rows, dimension = 4000, 50
    vectors = np.random.default_rng(8).normal(size=(rows, dimension))
    p = tmp_path / "e.txt"
    lines = [f"{rows} {dimension}"] + [f"w{i} " + " ".join(f"{v:.6f}" for v in vec) for i, vec in enumerate(vectors)]
    write_lines(p, lines)
    line_bytes = max(map(len, lines))
    # Per chunk line, about three copies of it: its text and values string, the parsed row and np.loadtxt's buffers.
    allowance = corpus._EMBEDDING_CHUNK_LINES * 3 * (line_bytes + 8 * dimension) + 128 * 1024
    tracemalloc.start()
    try:
        table = load_embeddings(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    token_map = sys.getsizeof(table.rows) + sum(map(sys.getsizeof, table.rows))
    assert table.matrix.shape == (rows, dimension)
    assert peak < table.matrix.nbytes + token_map + allowance
