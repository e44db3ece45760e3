import io
import json
import os
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import eager_corpus, sort_scored
from seedrank import (
    Document,
    DuplicateIdError,
    MissingTopicError,
    ParseError,
    PipelineConfig,
    Run,
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
    write_run,
)
from seedrank import corpus
from seedrank.text import default_stopwords, document_text, kept_term
from synth import tokenize

from conftest import traced_peak, unit_lines


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

    @pytest.mark.parametrize("bad", [
        pytest.param("[" * 100_000, id="deep"),  # nested past the recursion limit
        pytest.param(
            '{"doc_id":"2","title":"T","abstract":"A","n":' + "1" * 5000 + "}", id="long-integer",
            marks=pytest.mark.skipif(
                not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() has no digit limit here"
            ),
        ),
    ])
    def test_json_the_decoder_refuses_is_parse_error(self, tmp_path, bad):
        p = tmp_path / "c.jsonl"
        write_lines(p, ['{"doc_id":"1","title":"T","abstract":"A"}', bad])
        with pytest.raises(ParseError) as err:
            load_corpus(p)
        assert err.value.lineno == 2 and str(err.value).startswith(f"{p}:2: invalid JSON")


# Multi-byte UTF-8, characters that str.strip or str.splitlines treat as whitespace or breaks
# (a text-mode file splits at neither), a quote, a backslash and a tab (escaped by json.dumps).
_FIELD_TEXT = st.text(st.sampled_from(list("ab z") + ["İ", "ß", "😀", "é", "\x85", " ", "\xa0", '"', "\\", "\t"]))


@st.composite
def corpus_bytes(draw):
    """A corpus file's bytes: mixed line breaks, blank and whitespace-only lines, padded lines, raw or ``\\u``-escaped text."""
    breaks = st.sampled_from(["\n", "\r\n", "\r"])
    padding = st.sampled_from(["", " ", "\t ", "\x0b\x0c", "　"])
    doc_ids = draw(st.lists(_FIELD_TEXT.filter(bool), max_size=8, unique=True))
    lines = []
    for doc_id in doc_ids:
        lines += [draw(padding) for _ in range(draw(st.integers(0, 2)))]
        record = {"doc_id": doc_id, "title": draw(st.none() | _FIELD_TEXT), "abstract": draw(st.none() | _FIELD_TEXT)}
        lines.append(draw(padding) + json.dumps(record, ensure_ascii=draw(st.booleans())) + draw(padding))
    text = "".join(line + draw(breaks) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode("utf-8")


class TestCorpusSpans:
    """A loaded corpus holds byte spans; each lookup re-reads and re-parses one line."""

    @settings(max_examples=300, deadline=None)
    @given(data=corpus_bytes())
    def test_lookups_equal_the_eager_parse(self, tmp_path_factory, data):
        p = tmp_path_factory.mktemp("spans") / "c.jsonl"
        p.write_bytes(data)
        docs = load_corpus(p)
        expected = eager_corpus(data)
        assert list(docs) == list(expected) and len(docs) == len(expected)
        for doc_id in expected:
            assert doc_id in docs and docs[doc_id] == expected[doc_id]
        assert docs == expected and "not a doc_id" not in docs

    def test_unknown_doc_id_is_a_key_error(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, ['{"doc_id":"1","title":"T","abstract":"A"}'])
        docs = load_corpus(p)
        with pytest.raises(KeyError):
            docs["2"]
        assert docs.get("2") is None


class TestChangedCorpus:
    """A lookup in a file that changed since it was loaded raises ParseError at the document's line."""

    LINES = ['{"doc_id":"1","title":"T","abstract":"aspirin"}', "", '{"doc_id":"2","title":"U","abstract":"statin"}']

    @pytest.fixture
    def loaded(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, self.LINES)
        return p, load_corpus(p)

    def test_rewritten_file(self, loaded):
        p, docs = loaded
        assert docs["2"].abstract == "statin"  # the first lookup opens the file, the later ones reuse it
        write_lines(p, [self.LINES[0], "", self.LINES[2].replace("statin", "statins")])
        with pytest.raises(ParseError, match="changed since it was loaded") as err:
            docs["2"]
        assert str(err.value).startswith(f"{p}:3:")

    def test_truncated_file(self, loaded):
        p, docs = loaded
        p.write_bytes(p.read_bytes()[:60])
        with pytest.raises(ParseError, match="changed since it was loaded") as err:
            docs["1"]
        assert str(err.value).startswith(f"{p}:1:")

    def test_same_size_and_mtime_with_another_doc_id(self, loaded):
        # As after a rewrite within one tick of a coarse file clock: only the line's doc_id tells.
        p, docs = loaded
        stat = p.stat()
        write_lines(p, [self.LINES[0].replace('"1"', '"3"'), "", self.LINES[2]])
        os.utime(p, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        with pytest.raises(ParseError) as err:
            docs["1"]
        assert str(err.value).startswith(f"{p}:1:") and "'3', not '1'" in str(err.value)

    def test_same_size_rewrite_with_a_new_mtime(self, loaded):
        p, docs = loaded
        mtime = p.stat().st_mtime_ns
        write_lines(p, [self.LINES[0].replace("aspirin", "placebo"), "", self.LINES[2]])
        os.utime(p, ns=(mtime + 10**9, mtime + 10**9))
        with pytest.raises(ParseError, match="changed since it was loaded") as err:
            docs["1"]
        assert str(err.value).startswith(f"{p}:1:")

    def test_deleted_file(self, loaded):
        p, docs = loaded
        p.unlink()
        with pytest.raises(ParseError, match="cannot open the file again") as err:
            docs["2"]
        assert str(err.value).startswith(f"{p}:3:")

    def test_file_replaced_after_the_first_lookup_is_still_read_as_loaded(self, loaded):
        # The open descriptor still reads the loaded file, unchanged.
        p, docs = loaded
        assert docs["1"].abstract == "aspirin"
        replacement = p.with_name("new.jsonl")
        write_lines(replacement, ['{"doc_id":"2","title":"V","abstract":"other"}'])
        os.replace(replacement, p)
        assert docs["2"] == Document("2", "U", "statin")

    def test_unchanged_file_still_reads(self, loaded):
        p, docs = loaded
        assert docs["2"] == Document("2", "U", "statin")

    def test_close_and_collection_close_the_descriptor(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, self.LINES)
        docs = load_corpus(p)
        docs.close()  # nothing open yet
        docs["1"]
        fd = docs._fd
        os.fstat(fd)
        docs.close()
        with pytest.raises(OSError):
            os.fstat(fd)
        assert docs["2"] == Document("2", "U", "statin")  # opened again
        fd = docs._fd
        del docs
        with pytest.raises(OSError):
            os.fstat(fd)


def _corpus_file(path, n, abstract_chars):
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            words = " ".join(f"w{(i * 7 + j) % 997}" for j in range(abstract_chars // 5))
            fh.write(json.dumps({"doc_id": f"PMID{i:06d}", "title": f"study {i}", "abstract": words[:abstract_chars]}) + "\n")
    return path


def test_load_corpus_memory_does_not_grow_with_the_abstracts(tmp_path):
    """tracemalloc peak of a 2,000-document load with abstracts of 1,200 characters, then 2,400.

    The corpus keeps three 8-byte numbers per document besides its doc_id,
    so doubling every abstract moves the peak by one line's text. Holding
    every Document made the peak grow by 80 % (2.8 to 5.0 MiB); it is 0.28 MiB
    either way now.
    """
    short = _corpus_file(tmp_path / "short.jsonl", 2000, 1200)
    long = _corpus_file(tmp_path / "long.jsonl", 2000, 2400)
    (docs, short_peak), (_, long_peak) = traced_peak(lambda: load_corpus(short)), traced_peak(lambda: load_corpus(long))
    assert len(docs) == 2000 and docs["PMID000007"].title == "study 7"
    assert long_peak / short_peak < 1.1, (short_peak, long_peak)


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


def ranked_unit(topic_id, tag, doc_ids, scores):
    """A RunUnit that ranks ``doc_ids`` in the order given."""
    return RunUnit(topic_id, tag, tuple(doc_ids), np.arange(len(doc_ids)), np.array(scores, dtype=float))


def run_lines(run):
    """A Run's lines as ``(topic_id, doc_id, rank, score, tag)``, in file order."""
    return [(unit.topic_id, *line, unit.tag) for unit in run.units for line in unit_lines(unit)]


class TestRunFiles:
    def entries(self):
        return [("T1", "d1", 1, 2.5, "sdr"), ("T1", "d2", 2, 1.25, "sdr"), ("T1", "d3", 3, 0.5, "sdr")]

    def run(self):
        return Run((ranked_unit("T1", "sdr", ["d1", "d2", "d3"], [2.5, 1.25, 0.5]),))

    def test_line_format(self, tmp_path):
        p = tmp_path / "r.run"
        write_run(Run((ranked_unit("T1", "sdr", ["d1"], [2.5]),)), p)
        assert p.read_text().splitlines()[0] == "T1 Q0 d1 1 2.50000 sdr"

    def test_round_trip_identity(self, tmp_path):
        p = tmp_path / "r.run"
        write_run(self.run(), p)
        assert run_lines(load_run(p)) == self.entries()

    def test_increasing_scores_rejected(self, tmp_path):
        bad = Run((ranked_unit("T1", "x", ["d1", "d2"], [1.0, 2.0]),))
        with pytest.raises(RunValidationError):
            write_run(bad, tmp_path / "r.run")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_score_rejected(self, tmp_path, bad):
        run = Run((ranked_unit("T1", "x", ["d1", "d2"], [2.0, bad]),))
        with pytest.raises(RunValidationError, match="'T1'"):
            write_run(run, tmp_path / "r.run")
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

    def test_tag_change_within_a_topic_rejected(self, tmp_path):
        # A unit holds one tag; another topic may carry another.
        p = tmp_path / "r.run"
        p.write_text("T1 Q0 d1 1 2.0 x\nT2 Q0 d1 1 2.0 y\nT1 Q0 d2 2 1.0 y\n", encoding="utf-8")
        with pytest.raises(ParseError, match="'y'") as err:
            load_run(p)
        assert err.value.lineno == 3 and str(err.value).startswith(f"{p}:3:")

    def test_units_in_first_appearance_order(self, tmp_path):
        p = tmp_path / "r.run"
        write_lines(p, ["T2 Q0 a 2 1.0 x", "T1 Q0 b 1 5.0 y", "T3 Q0 c 1 1.0 x", "T2 Q0 d 1 3.0 x"])
        run = load_run(p)
        assert [(u.topic_id, u.tag, tuple(u.doc_ids)) for u in run.units] == [
            ("T2", "x", ("a", "d")), ("T1", "y", ("b",)), ("T3", "x", ("c",)),
        ]
        assert len(run) == 4

    def test_equal_scores_order_by_doc_id_and_gaps_close(self, tmp_path):
        p = tmp_path / "r.run"
        write_lines(p, ["T1 Q0 d1 7 1.0 x", "T1 Q0 d2 2 3.0 x", "T1 Q0 d3 7 1.0 x", "T1 Q0 d4 2 3.0 x", "T1 Q0 d5 4 2.0 x"])
        (unit,) = load_run(p).units
        assert unit_lines(unit) == [("d2", 1, 3.0), ("d4", 2, 3.0), ("d5", 3, 2.0), ("d1", 4, 1.0), ("d3", 5, 1.0)]
        # Writing the loaded run numbers each topic's lines 1..n.
        write_run(load_run(p), tmp_path / "w.run")
        assert [line.split()[3] for line in (tmp_path / "w.run").read_text().splitlines()] == ["1", "2", "3", "4", "5"]

    def test_scores_order_a_topic_whatever_its_ranks_say(self, tmp_path):
        p = tmp_path / "r.run"
        write_lines(p, ["T1 Q0 d1 1 1.0 x", "T1 Q0 d2 2 3.0 x", "T1 Q0 d3 3 2.0 x"])
        (unit,) = load_run(p).units
        assert unit_lines(unit) == [("d2", 1, 3.0), ("d3", 2, 2.0), ("d1", 3, 1.0)]

    @settings(max_examples=50, deadline=None)
    @given(st.permutations(range(7)), st.lists(st.integers(1, 9), min_size=7, max_size=7))
    def test_exact_ties_order_by_doc_id_whatever_the_file_order(self, tmp_path_factory, order, ranks):
        # Python str order: "D1" < "a" < "d10" < "d9"; 0.0 and -0.0 tie.
        lines = [("d9", "1.0"), ("d10", "1.0"), ("D1", "1.0"), ("a", "2.0"), ("z", "0.0"), ("b", "-0.0"), ("y", "-0.0")]
        p = tmp_path_factory.mktemp("runs") / "r.run"
        write_lines(p, [f"T1 Q0 {lines[i][0]} {rank} {lines[i][1]} x" for i, rank in zip(order, ranks)])
        (unit,) = load_run(p).units
        assert [(doc_id, score.hex()) for doc_id, _, score in unit_lines(unit)] == [
            ("a", "0x1.0000000000000p+1"), ("D1", "0x1.0000000000000p+0"), ("d10", "0x1.0000000000000p+0"),
            ("d9", "0x1.0000000000000p+0"), ("b", "-0x0.0p+0"), ("y", "-0x0.0p+0"), ("z", "0x0.0p+0"),
        ]

    def test_write_load_write_is_byte_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.run", tmp_path / "b.run"
        write_run(self.run(), p1)
        write_run(load_run(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @given(st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1, max_size=20, unique=True,
    ))
    def test_round_trip_arbitrary_scores(self, tmp_path_factory, scores):
        scores = sorted(scores, reverse=True)
        entries = [("T", f"d{i}", i + 1, s, "t") for i, s in enumerate(scores)]
        p = tmp_path_factory.mktemp("runs") / "r.run"
        write_run(Run((ranked_unit("T", "t", [f"d{i}" for i in range(len(scores))], scores),)), p)
        assert run_lines(load_run(p)) == entries


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
            return [(topic_id, doc_id, rank, score.hex(), tag) for topic_id, doc_id, rank, score, tag in entries]

        # The file holds each unit's lines in the unit's order, ranked 1..n.
        written = run_lines(run)
        assert len(run) == len(written)
        fields = [line.split() for line in p.read_text(encoding="utf-8").splitlines()]
        assert [(f[0], f[2], int(f[3]), float(f[4]).hex(), f[5]) for f in fields] == lines(written)
        assert [f[4] for f in fields] == [reference_format_score(score) for _, _, _, score, _ in written]
        # Loading orders each topic by score, exact ties by doc id, whatever order the unit gave its ties.
        expected = [
            (unit.topic_id, doc_id, rank, score, unit.tag)
            for unit in units
            for rank, (doc_id, score) in enumerate(sort_scored({d: s for d, _, s in unit_lines(unit)}), start=1)
        ]
        assert lines(run_lines(load_run(p))) == lines(expected)

    def test_unit_and_entries_write_the_same_bytes(self, tmp_path):
        unit = RunUnit("T1", "sdr", ("d3", "d1", "d2"), np.array([1, 2, 0]), np.array([2.5, 1.25, 0.5]))
        write_run(Run((unit,)), tmp_path / "unit.run")
        assert run_lines(load_run(tmp_path / "unit.run")) == run_lines(Run((unit,)))

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
        assert load_lexicon(p) == frozenset({"heart"})

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
    """A byte that is not UTF-8 fails at its line, and a leading byte-order mark at line 1, whichever loader reads it."""

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

    @pytest.mark.parametrize("kind", sorted(GOOD))
    def test_byte_order_mark_fails_at_line_one(self, tmp_path, kind):
        # Read as text, the mark would join the first field: a topic "\ufeffT1" besides "T1", a token "\ufeffheart".
        write_lines(tmp_path / "qrels", self.GOOD["qrels"])
        p = tmp_path / kind
        write_lines(p, self.GOOD[kind])
        p.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
        with pytest.raises(ParseError, match="byte-order mark") as err:
            self.LOADERS[kind](p)
        assert err.value.lineno == 1 and str(err.value).startswith(f"{p}:1:")

    def test_utf8_text_still_loads(self, tmp_path):
        p = tmp_path / "lex.txt"
        write_lines(p, ["café", "İstanbul"])
        assert load_lexicon(p) == frozenset({"café", "i̇stanbul"})


def mutated_or_random(valid: bytes):
    """File contents: random bytes, or ``valid`` with one byte replaced."""
    replaced = st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)).map(
        lambda change: valid[:change[0]] + bytes([change[1]]) + valid[change[0] + 1:]
    )
    return st.one_of(st.binary(max_size=200), replaced)


class TestLoaderRobustness:
    """Whatever bytes a file holds, a loader returns or raises a SeedRankError; a ParseError names a line of the file."""

    GOOD = {
        **TestUndecodableBytes.GOOD,
        "corpus": ['{"doc_id":"1","title":"T","abstract":"A"}', '{"doc_id":"2","title":null,"abstract":"B c"}'],
        "run": ["T1 Q0 d1 1 2.0 x", "T1 Q0 d2 2 1.0 x", "T2 Q0 d1 1 -0.5 x"],
    }
    LOADERS = {
        "corpus": load_corpus,
        "topics": lambda p: load_topics(p, p.with_name("valid_qrels")),
        "qrels": lambda p: load_topics(p.with_name("valid_topics"), p),
        "lexicon": load_lexicon,
        "run": load_run,
    }

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_only_seedrank_errors_escape(self, tmp_path_factory, kind, data):
        valid = "".join(line + "\n" for line in self.GOOD[kind]).encode("utf-8")
        content = data.draw(mutated_or_random(valid))
        directory = tmp_path_factory.mktemp("robust")
        write_lines(directory / "valid_topics", self.GOOD["topics"])
        write_lines(directory / "valid_qrels", self.GOOD["qrels"])
        p = directory / kind
        p.write_bytes(content)
        try:
            self.LOADERS[kind](p)
        except ParseError as exc:
            # bytes.splitlines breaks lines where text-mode reading does: at \n, \r and \r\n.
            assert str(exc).startswith(f"{p}:{exc.lineno}:") and 1 <= exc.lineno <= len(content.splitlines())
        except SeedRankError:
            pass

    EMBEDDINGS = ["4 3", "a 1 0 0.5", "The 0 1 -2", "b -1.5 2e-3 3", "é 0 0 1"]

    @pytest.mark.parametrize("keep", [None, kept_term(frozenset({"the"}))], ids=["all-rows", "keep-rule"])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), chunk=st.integers(1, 3))
    def test_only_seedrank_errors_escape_embeddings(self, tmp_path_factory, keep, data, chunk):
        valid = "".join(line + "\n" for line in self.EMBEDDINGS).encode("utf-8")
        content = data.draw(mutated_or_random(valid))
        p = tmp_path_factory.mktemp("robust") / "embeddings"
        p.write_bytes(content)
        try:
            with mock.patch.object(corpus, "_EMBEDDING_CHUNK_LINES", chunk):
                load_embeddings(p, keep)
        except ParseError as exc:
            # A missing header is reported at line 1, where it belongs, even in an empty file.
            assert str(exc).startswith(f"{p}:{exc.lineno}:") and 1 <= exc.lineno <= max(1, len(content.splitlines()))
        except SeedRankError:
            pass


class TestFileHandles:
    """No loader leaves its file open, whether it returns or raises."""

    @pytest.mark.parametrize("loader, lines", [
        (load_corpus, ['{"doc_id":"1","title":"T","abstract":"A"}', "{broken"]),
        (lambda p: load_topics(p, p), ["T1 d1", "T1 d2 d3"]),
        (load_qrels, ["T1 0 d1 1", "T1 0 d2 x"]),
        (load_run, ["T1 Q0 d1 1 2.0 x", "T1 Q0 d2 2"]),
        (load_run, ["T1 Q0 d1 1 2.0 x", "T1 Q0 d1 2 1.0 x"]),
        (load_lexicon, ["heart", "heart attack"]),
        (load_embeddings, ["", "2 2", "a 1 0"]),
        (load_embeddings, ["2 2 2", "a 1 0"]),
        (load_embeddings, ["2 2", "a 1 0", "b 0"]),
        (load_embeddings, ["2 2", "a 1 0", "b 0 nan"]),
        (load_embeddings, ["2 2", "a 1 0", "b 0 1"]),
        (load_lexicon, ["heart", "attack"]),
        (load_run, ["T1 Q0 d1 1 2.0 x", "T1 Q0 d2 2 1.0 y"]),
    ])
    def test_no_file_left_open(self, tmp_path, monkeypatch, loader, lines):
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(corpus, "open", recording_open, raising=False)
        p = tmp_path / "f"
        write_lines(p, lines)
        try:
            loader(p)
        except ParseError:
            # The error being handled holds the loader's frames through its traceback.
            assert all(fh.closed for fh in opened)
        assert opened and all(fh.closed for fh in opened)


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
    ASPIRIN = staticmethod(kept_term(default_stopwords(), frozenset({"aspirin", "the"})))

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
        keep = kept_term(frozenset(), frozenset(kept))
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
    """tracemalloc peak of a 20000 x 100 load keeping 6097 rows, the benchmark's hybrid file shape, < 8.5 MiB.

    The kept-row matrix grows by a quarter, so it holds at most about 1.25 x
    the 4.7 MiB of kept rows while loading: 7.2 MiB in all here, 9.9 MiB
    when it grew by doubling.
    """
    rows, dimension, kept = 20000, 100, 6097
    rng = np.random.default_rng(9)
    body = io.StringIO()
    np.savetxt(body, rng.normal(size=(rows, dimension)), fmt="%.4f")
    p = tmp_path / "e.txt"
    write_lines(p, [f"{rows} {dimension}"] + [f"w{i} {values}" for i, values in enumerate(body.getvalue().splitlines())])
    lexicon = frozenset(f"w{i}" for i in rng.choice(rows, size=kept, replace=False))
    tracemalloc.start()
    try:
        table = load_embeddings(p, kept_term(default_stopwords(), lexicon))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.matrix.shape == (kept, dimension) and table.rows_read == rows
    assert table.matrix.base is None and table.matrix.flags.c_contiguous
    assert peak < 8.5 * 2**20


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
