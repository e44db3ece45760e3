"""Corpora, topics, qrels, lexicons, embeddings and TREC run files.

File formats:
  corpus      UTF-8 JSON lines, one document per line with exactly the
              fields ``doc_id``, ``title``, ``abstract``.
  topics      whitespace-separated ``topic_id doc_id``, one candidate per
              line; line order defines the candidate order of each topic.
  qrels       whitespace-separated ``topic_id 0 doc_id grade`` (TREC qrels).
  run         ``topic_id Q0 doc_id rank score tag`` (TREC run).
  lexicon     one token per line.
  embeddings  word2vec text format: header ``vocab_size dimension``, then
              ``token v1 ... vd`` per line.

All loaders are pure functions of the file contents; the returned objects
are treated as immutable afterwards.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import compress, count, repeat

import numpy as np

from .errors import DuplicateIdError, MissingTopicError, ParseError, RunValidationError


@dataclass(frozen=True)
class Document:
    """One candidate or seed study. Any document may serve either role."""

    doc_id: str
    title: str
    abstract: str


@dataclass
class Topic:
    """A review topic: ordered candidate pool plus relevance judgments.

    ``judgments`` preserves qrels file order, which fixes the order of the
    seed pool (``relevant_ids``) for the sliding-window grouping.
    """

    topic_id: str
    candidate_ids: list[str] = field(default_factory=list)
    judgments: dict[str, int] = field(default_factory=dict)

    @property
    def relevant_ids(self) -> list[str]:
        """Judged-relevant doc_ids in order of first appearance in the qrels."""
        return [d for d, g in self.judgments.items() if g >= 1]

    @property
    def irrelevant_ids(self) -> list[str]:
        """Candidates not judged relevant (explicit grade 0 or unjudged)."""
        relevant = set(self.relevant_ids)
        return [d for d in self.candidate_ids if d not in relevant]


@dataclass(frozen=True)
class Lexicon:
    """Set of lowercase single-token clinical terms."""

    terms: frozenset[str]

    def __contains__(self, token: str) -> bool:
        return token in self.terms

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class RunEntry:
    """One line of a TREC run file."""

    topic_id: str
    doc_id: str
    rank: int
    score: float
    tag: str


@dataclass(frozen=True, eq=False)
class RunUnit:
    """One run unit: its key, its tag, and its documents and their scores in rank order.

    Position i holds rank i + 1. A document is a row of ``doc_ids``, a name
    table that the units of one topic share, so a unit holds two numbers
    per ranked document (its row and its score). Iterating yields the
    unit's lines as RunEntry, each made on demand.
    """

    topic_id: str
    tag: str
    doc_ids: Sequence[str]
    rows: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[RunEntry]:
        for rank, (row, score) in enumerate(zip(self.rows.tolist(), self.scores.tolist()), start=1):
            yield RunEntry(self.topic_id, self.doc_ids[row], rank, score, self.tag)


@dataclass(frozen=True)
class Run:
    """The units of one run file, in file order; its length is its number of lines."""

    units: tuple[RunUnit, ...]

    def __len__(self) -> int:
        return sum(map(len, self.units))


@dataclass(frozen=True)
class EmbeddingTable:
    """Token -> row of a float64 matrix of the kept rows x d; a repeated token keeps its last row.

    ``rows_read`` counts the file's rows, kept or not (0 for a table built in memory).
    """

    matrix: np.ndarray
    rows: dict[str, int]
    rows_read: int = 0

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    def row(self, token: str) -> int | None:
        """Raw-cased lookup first, lowercase as fallback."""
        row = self.rows.get(token)
        if row is None:
            row = self.rows.get(token.lower())
        return row


@contextmanager
def _text_file(path):
    """``path`` opened as UTF-8 text; a byte that is not UTF-8 raises ParseError at its line.

    Decoding runs ahead of the line being read, so the line is found by
    reading the file again, only once it has failed.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise _undecodable_line(path) from None


def _undecodable_line(path) -> ParseError:
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                # surrogateescape maps each undecodable byte b to U+DC00 + b.
                byte = ord(line[exc.start]) - 0xDC00
                return ParseError(path, lineno, f"byte 0x{byte:02x} is not valid UTF-8")
    return ParseError(path, 1, "the file is not valid UTF-8")


def load_corpus(path) -> dict[str, Document]:
    """Load a JSON-lines corpus keyed by doc_id.

    Raises ParseError with the offending line number on malformed JSON,
    missing fields or a title or abstract that is neither a string nor
    null, DuplicateIdError when a doc_id repeats. Empty and null titles and
    abstracts load as "".
    """
    docs: dict[str, Document] = {}
    with _text_file(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(path, lineno, f"invalid JSON: {exc.msg}") from exc
            if not isinstance(record, dict):
                raise ParseError(path, lineno, "expected a JSON object")
            try:
                doc_id = record["doc_id"]
                title = record["title"]
                abstract = record["abstract"]
            except KeyError as exc:
                raise ParseError(path, lineno, f"missing field {exc.args[0]!r}") from exc
            if not isinstance(doc_id, str) or not doc_id:
                raise ParseError(path, lineno, "doc_id must be a non-empty string")
            if doc_id in docs:
                raise DuplicateIdError(path, lineno, f"duplicate doc_id {doc_id!r}")
            for name, value in (("title", title), ("abstract", abstract)):
                if value is not None and not isinstance(value, str):
                    raise ParseError(path, lineno, f"{name} must be a string or null")
            docs[doc_id] = Document(doc_id, title or "", abstract or "")
    return docs


def load_topics(topics_path, qrels_path) -> list[Topic]:
    """Load topics and attach qrels judgments.

    Judged doc_ids missing from a topic's candidate list are appended to it
    in qrels order (they were retrieved by the original search and must be
    rankable). A topic that appears only in the qrels raises
    MissingTopicError.
    """
    topics: dict[str, Topic] = {}
    seen: dict[str, set[str]] = {}
    with _text_file(topics_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise ParseError(
                    topics_path, lineno, f"expected 'topic_id doc_id', got {len(parts)} fields"
                )
            topic_id, doc_id = parts
            topic = topics.setdefault(topic_id, Topic(topic_id))
            ids = seen.setdefault(topic_id, set())
            if doc_id not in ids:
                ids.add(doc_id)
                topic.candidate_ids.append(doc_id)

    for topic_id, judgments in load_qrels(qrels_path).items():
        if topic_id not in topics:
            raise MissingTopicError(
                f"qrels reference topic {topic_id!r} which the topic file does not define"
            )
        topic = topics[topic_id]
        topic.judgments = judgments
        ids = seen[topic_id]
        topic.candidate_ids.extend(d for d in judgments if d not in ids)

    return list(topics.values())


def load_qrels(path) -> dict[str, dict[str, int]]:
    """Parse a qrels file alone: topic_id -> doc_id -> grade, in file order.

    A repeated ``topic_id doc_id`` pair must repeat its grade; a different
    grade raises ParseError at the repeat.
    """
    qrels: dict[str, dict[str, int]] = {}
    with _text_file(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise ParseError(
                    path, lineno, f"expected 'topic_id 0 doc_id grade', got {len(parts)} fields"
                )
            topic_id, _, doc_id, grade_str = parts
            try:
                grade = int(grade_str)
            except ValueError as exc:
                raise ParseError(path, lineno, f"grade {grade_str!r} is not an integer") from exc
            if grade < 0:
                raise ParseError(path, lineno, f"grade must be >= 0, got {grade}")
            first = qrels.setdefault(topic_id, {}).setdefault(doc_id, grade)
            if first != grade:
                raise ParseError(
                    path, lineno, f"{topic_id} {doc_id} judged {grade} here but {first} earlier"
                )
    return qrels


def filter_topics(topics: list[Topic], min_relevant: int) -> list[Topic]:
    """Keep topics with at least ``min_relevant`` relevant studies, order preserved."""
    return [t for t in topics if len(t.relevant_ids) >= min_relevant]


def _run_lines(topic_ids, doc_ids, ranks, scores: np.ndarray, tags) -> Iterator[str]:
    """The run-file lines of parallel columns, one per document; every run line is made here.

    A score is written with 6 significant digits (``%#.6g``) when that
    reads back as the same float, else as its shortest repr.
    """
    for topic_id, doc_id, rank, score, tag in zip(topic_ids, doc_ids, ranks, scores.tolist(), tags):
        text = "%#.6g" % score
        if float(text) != score:
            text = repr(score)
        yield f"{topic_id} Q0 {doc_id} {rank} {text} {tag}\n"


def _check_scores(topic_id: str, scores: np.ndarray) -> None:
    """Scores in rank order must be finite and non-increasing."""
    if not np.isfinite(scores).all():
        raise RunValidationError(f"topic {topic_id!r}: non-finite score")
    if (scores[1:] > scores[:-1]).any():
        raise RunValidationError(f"topic {topic_id!r}: scores increase with rank")


def write_run(run: Run | Sequence[RunEntry], path) -> None:
    """Write a TREC run file, validating the per-topic invariants first.

    A Run's units are written in order, each ranked 1..n; RunEntry lines
    are written in the given order. Within each topic, scores must be
    finite, ranks must be 1..n without gaps and scores must be
    non-increasing with rank; otherwise RunValidationError.
    """
    if isinstance(run, Run):
        seen = set()
        for unit in run.units:
            if unit.topic_id in seen:
                raise RunValidationError(f"topic {unit.topic_id!r}: more than one unit")
            seen.add(unit.topic_id)
            _check_scores(unit.topic_id, unit.scores)
        blocks = (
            (repeat(unit.topic_id), map(unit.doc_ids.__getitem__, unit.rows.tolist()), count(1), unit.scores, repeat(unit.tag))
            for unit in run.units
        )
    else:
        by_topic: dict[str, list[RunEntry]] = {}
        for entry in run:
            by_topic.setdefault(entry.topic_id, []).append(entry)
        for topic_id, group in by_topic.items():
            ordered = sorted(group, key=lambda e: e.rank)
            ranks = [e.rank for e in ordered]
            if ranks != list(range(1, len(ordered) + 1)):
                raise RunValidationError(f"topic {topic_id!r}: ranks are not 1..n without gaps: {ranks}")
            _check_scores(topic_id, np.array([e.score for e in ordered], dtype=float))
        columns = ([e.topic_id for e in run], [e.doc_id for e in run], [e.rank for e in run])
        blocks = [(*columns, np.array([e.score for e in run], dtype=float), [e.tag for e in run])]
    with open(path, "w", encoding="utf-8") as fh:
        for block in blocks:
            fh.writelines(_run_lines(*block))


def load_run(path) -> list[RunEntry]:
    """Load a TREC run file; malformed lines and a document repeated within a topic raise ParseError."""
    entries: list[RunEntry] = []
    seen: set[tuple[str, str]] = set()
    with _text_file(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 6:
                raise ParseError(path, lineno, f"expected 6 fields, got {len(parts)}")
            topic_id, _, doc_id, rank_str, score_str, tag = parts
            try:
                rank = int(rank_str)
                score = float(score_str)
            except ValueError as exc:
                raise ParseError(path, lineno, str(exc)) from exc
            if rank < 1:
                raise ParseError(path, lineno, f"rank must be positive, got {rank}")
            if not math.isfinite(score):
                raise ParseError(path, lineno, f"score must be finite, got {score_str}")
            if (topic_id, doc_id) in seen:
                raise ParseError(path, lineno, f"document {doc_id!r} is listed twice for topic {topic_id!r}")
            seen.add((topic_id, doc_id))
            entries.append(RunEntry(topic_id, doc_id, rank, score, tag))
    return entries


def load_lexicon(path) -> Lexicon:
    """One token per line; lowercased and deduplicated. Empty files are accepted."""
    terms = set()
    with _text_file(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            token = line.strip()
            if not token:
                continue
            if len(token.split()) > 1:
                raise ParseError(path, lineno, f"lexicon entries must be single tokens: {token!r}")
            terms.add(token.lower())
    return Lexicon(frozenset(terms))


# Lines of the embedding body parsed by one np.loadtxt call. Besides the
# matrix of kept rows and their token map, the loader holds one chunk of text and
# values; a call costs about 15 us on top of its lines.
_EMBEDDING_CHUNK_LINES = 512
# The widest float64 row numpy can describe.
_MAX_DIMENSION = np.iinfo(np.intp).max // 8


def load_embeddings(path, keep: Callable[[str], bool] | None = None) -> EmbeddingTable:
    """Load word2vec text-format embeddings; nan and inf values raise ParseError.

    The body is parsed in chunks of lines, each by one ``np.loadtxt``, into
    one matrix of the kept rows. Every row is kept when ``keep`` is None;
    otherwise only the rows whose token's lowercase passes ``keep``, which
    holds both rows ``EmbeddingTable.row`` can look up for a form whose
    lowercase passes. Without ``keep`` the matrix is sized from the header's
    vocabulary size, but to no more rows than the file's bytes can hold; with
    it the matrix starts empty. It grows, in place where the allocator can,
    when more rows are kept, and is cut to them at the end. Every line is
    checked, kept or not: a chunk that does not parse is checked one line at
    a time to name the first bad line, and a non-finite value is raised only
    after the whole body has parsed, so a malformed line anywhere is reported
    first.
    """
    with _text_file(path) as fh:
        vocab_size, dimension = _embedding_header(path, fh.readline())
        if keep is None:
            # A row takes at least 2d + 2 bytes: a token and d values of one character
            # each, a separator before each value and a line break (+ 1: the last
            # line may have none).
            fits = (os.fstat(fh.fileno()).st_size + 1) // (2 * dimension + 2)
            matrix = np.empty((min(vocab_size, fits), dimension))
        else:
            # How many rows pass is not known ahead.
            matrix = np.empty((0, dimension))
        rows: dict[str, int] = {}
        n = read = 0
        non_finite = None
        for tokens, linenos, block in _embedding_chunks(path, fh, dimension):
            read += len(block)
            if non_finite is None:
                finite = np.isfinite(block).all(axis=1)
                if not finite.all():
                    i = int(np.argmin(finite))
                    non_finite = (linenos[i], tokens[i])
            if keep is not None:
                kept = [keep(token.lower()) for token in tokens]
                tokens = list(compress(tokens, kept))
                block = block[np.array(kept, dtype=bool)]
            stop = n + len(block)
            if stop > len(matrix):
                # No view of the matrix outlives a statement, so it can be
                # reallocated in place.
                matrix.resize((max(stop, 2 * len(matrix)), dimension), refcheck=False)
            matrix[n:stop] = block
            rows.update(zip(tokens, range(n, stop)))
            n = stop
    if non_finite is not None:
        raise ParseError(path, non_finite[0], f"non-finite value in the vector of {non_finite[1]!r}")
    if n < len(matrix):
        matrix.resize((n, dimension), refcheck=False)
    return EmbeddingTable(matrix, rows, read)


def _embedding_header(path, line: str) -> tuple[int, int]:
    """``(vocab_size, dimension)`` from the header line."""
    header = line.split()
    if len(header) != 2:
        raise ParseError(path, 1, "expected header 'vocab_size dimension'")
    # The vocabulary size is checked but not held to the row count.
    try:
        vocab_size = int(header[0])
    except ValueError as exc:
        raise ParseError(path, 1, f"vocabulary size {header[0]!r} is not an integer") from exc
    if vocab_size < 0:
        raise ParseError(path, 1, f"vocabulary size must be non-negative, got {vocab_size}")
    try:
        dimension = int(header[1])
    except ValueError as exc:
        raise ParseError(path, 1, f"dimension {header[1]!r} is not an integer") from exc
    if dimension < 1:
        raise ParseError(path, 1, f"dimension must be positive, got {dimension}")
    if dimension > _MAX_DIMENSION:
        raise ParseError(path, 1, f"dimension must be at most {_MAX_DIMENSION}, got {dimension}")
    return vocab_size, dimension


def _embedding_chunks(path, lines, dimension: int):
    """``(tokens, line numbers, values)`` per chunk of the body; the values are a checked float64 block."""
    tokens: list[str] = []
    values: list[str] = []
    linenos: list[int] = []
    for lineno, line in enumerate(lines, start=2):
        parts = line.split(maxsplit=1)
        if not parts:
            continue
        if len(parts) == 1:
            raise ParseError(path, lineno, f"expected token plus {dimension} values, got 0 values")
        tokens.append(parts[0])
        values.append(parts[1])
        linenos.append(lineno)
        if len(values) == _EMBEDDING_CHUNK_LINES:
            yield tokens, linenos, _parse_chunk(path, values, linenos, dimension)
            tokens, values, linenos = [], [], []
    if values:
        yield tokens, linenos, _parse_chunk(path, values, linenos, dimension)


def _parse_chunk(path, values: list[str], linenos: list[int], dimension: int) -> np.ndarray:
    try:
        block = np.loadtxt(values, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        block = None
    if block is None or block.shape != (len(values), dimension):
        _raise_first_bad_line(path, values, linenos, dimension)
    return block


def _raise_first_bad_line(path, values: list[str], linenos: list[int], dimension: int) -> None:
    """ParseError for the first line that does not hold ``dimension`` numbers."""
    for lineno, line in zip(linenos, values):
        count = len(line.split())
        if count != dimension:
            raise ParseError(path, lineno, f"expected token plus {dimension} values, got {count} values")
        try:
            np.loadtxt([line], dtype=np.float64, comments=None)
        except ValueError:
            raise ParseError(path, lineno, f"not a number among the values {line.strip()[:60]!r}") from None
    raise ParseError(path, linenos[0], "the embedding values could not be parsed")
