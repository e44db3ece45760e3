"""Corpora, topics, qrels, lexicons, embeddings and TREC run files.

Every input file is read the same way: as UTF-8, line by line, each line
stripped of surrounding whitespace, blank lines skipped. A malformed line,
a non-UTF-8 byte or a leading byte-order mark raises ParseError naming
``file:line``. A whitespace-separated line holds exactly its format's columns.

File formats:
  corpus      JSON lines, one document per line with the fields ``doc_id``,
              ``title``, ``abstract``.
  topics      ``topic_id doc_id``, one candidate per line; line order
              defines the candidate order of each topic.
  qrels       ``topic_id 0 doc_id grade`` (TREC qrels); a grade of 1 or
              more marks a relevant document (``is_relevant``).
  run         ``topic_id Q0 doc_id rank score tag`` (TREC run), one tag
              per topic; a topic's lines are ordered by score descending,
              exact ties by doc_id (``rank_order``), whatever their ranks.
  lexicon     ``token``, one per line; stopword lists, the bundled one
              included, have this format.
  embeddings  word2vec text format: header ``vocab_size dimension`` on
              line 1, then ``token v1 ... vd`` per line.

The loaders of the whitespace-separated formats and of embeddings are pure
functions of the file contents; the returned objects are treated as
immutable afterwards. ``load_corpus`` reads and checks every line once too,
but keeps only each document's line number and byte span: a lookup reads
the document from the file again, and refuses a file that changed since it
was loaded (``Corpus``).
"""

from __future__ import annotations

import json
import math
import os
import weakref
from array import array
from collections.abc import Callable, Container, Iterator, Mapping, Sequence
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .errors import DuplicateIdError, MissingTopicError, ParseError, RunValidationError


def is_relevant(grade: int) -> bool:
    """Whether a qrels grade judges its document relevant: grade >= 1."""
    return grade >= 1


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
        return [d for d, g in self.judgments.items() if is_relevant(g)]

    @property
    def irrelevant_ids(self) -> list[str]:
        """Candidates not judged relevant (explicit grade 0 or unjudged)."""
        relevant = set(self.relevant_ids)
        return [d for d in self.candidate_ids if d not in relevant]


@dataclass(frozen=True, eq=False)
class RunUnit:
    """One run unit: its key, its tag, and its documents and their scores in rank order.

    Position i holds rank i + 1. A document is a row of ``doc_ids``, a name
    table that the units ranked from one topic index share, so a unit holds
    two numbers per ranked document (its row and its score).
    """

    topic_id: str
    tag: str
    doc_ids: Sequence[str]
    rows: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class Run:
    """A run file's units in file order, as ``write_run`` takes and ``load_run`` returns them; ``len`` counts lines."""

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
def _text_file(path, newline: str | None = None):
    """``path`` opened as UTF-8 text with ``newline``; a byte that is not UTF-8 raises ParseError at its line.

    Decoding runs ahead of the line being read, so the line is found by
    reading the file again, only once it has failed.
    """
    with open(path, encoding="utf-8", newline=newline) as fh:
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


def _refuse_byte_order_mark(path, fh) -> None:
    """ParseError at line 1 if ``fh``'s bytes start with a UTF-8 byte-order mark, which would join its first field."""
    if fh.buffer.peek(3).startswith(b"\xef\xbb\xbf"):
        raise ParseError(path, 1, "the file starts with a UTF-8 byte-order mark (U+FEFF); save it without one")


def _lines(path, spans: bool = False) -> Iterator[tuple]:
    """``(line number, line)`` for each non-blank line of ``path``, stripped, read through ``_text_file``.

    With ``spans`` each tuple also holds the line's byte offset and byte
    length in the file, its line break included. With ``newline=""`` lines
    still end at ``\\n``, ``\\r\\n`` and ``\\r``, but each keeps its break as
    written, so its UTF-8 encoding is its bytes in the file. The file closes
    when the generator ends, is closed or is dropped (as by a ``for`` loop
    that raises).
    """
    with _text_file(path, newline="") as fh:
        _refuse_byte_order_mark(path, fh)
        offset = 0
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if spans:
                length = len(raw.encode("utf-8"))
                if line:
                    yield lineno, line, offset, length
                offset += length
            elif line:
                yield lineno, line


def _records(path, columns: str) -> Iterator[tuple[int, list[str]]]:
    """``(line number, fields)`` of each ``_lines`` line, split on whitespace into the ``columns`` named.

    A line with another number of fields raises ParseError.
    """
    width = len(columns.split())
    for lineno, line in _lines(path):
        fields = line.split()
        if len(fields) != width:
            raise ParseError(path, lineno, f"expected {columns!r}, got {len(fields)} fields")
        yield lineno, fields


def _document(path, lineno: int, line: str, seen: Container[str] = ()) -> Document:
    """The document on a stripped corpus line; a doc_id in ``seen`` raises DuplicateIdError.

    Raises ParseError at ``path:lineno`` on malformed JSON, missing fields
    or a title or abstract that is neither a string nor null. Empty and null
    titles and abstracts load as "".
    """
    try:
        record = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # Besides a JSONDecodeError (its msg leaves out the position): an integer of more digits
        # than int() converts, or arrays nested past the recursion limit.
        raise ParseError(path, lineno, f"invalid JSON: {getattr(exc, 'msg', exc)}") from None
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
    if doc_id in seen:
        raise DuplicateIdError(path, lineno, f"duplicate doc_id {doc_id!r}")
    for name, value in (("title", title), ("abstract", abstract)):
        if value is not None and not isinstance(value, str):
            raise ParseError(path, lineno, f"{name} must be a string or null")
    return Document(doc_id, title or "", abstract or "")


def _signature(path) -> tuple[int, int]:
    """The size and modification time (ns) of ``path`` or of an open file descriptor."""
    stat = os.stat(path)
    return stat.st_size, stat.st_mtime_ns


class Corpus(Mapping[str, Document]):
    """A loaded JSON-lines corpus: doc_id -> Document, in file order, read from the file at each lookup.

    It holds each document's line number, byte offset and byte length, not
    its text. A lookup reads the line's bytes and parses them with the
    loader's record parser, so it makes a new Document each time. The first
    lookup opens the file; the later ones share its descriptor until
    ``close`` (or the corpus's collection) closes it. The file must be as it
    was loaded: if it cannot be opened, if its size or modification
    time changed, or if the line no longer holds the doc_id, the lookup
    raises ParseError at that line.
    """

    def __init__(self, path, signature: tuple[int, int], rows: dict[str, int], spans: array):
        self._path = path
        self._signature = signature
        # doc_id -> its number in file order; document i's line number, offset and length are spans[3i:3i + 3].
        self._rows = rows
        self._spans = spans
        self._fd: int | None = None
        self._closer: weakref.finalize | None = None

    def __getitem__(self, doc_id: str) -> Document:
        i = 3 * self._rows[doc_id]
        lineno, offset, length = self._spans[i:i + 3]
        if self._fd is None:
            # One descriptor for every lookup: opening the file for each one cost about as much as the parse.
            try:
                self._fd = os.open(self._path, os.O_RDONLY)
            except OSError as exc:
                raise ParseError(self._path, lineno, f"cannot open the file again: {exc.strerror}") from None
            self._closer = weakref.finalize(self, os.close, self._fd)
        if _signature(self._fd) != self._signature:
            raise ParseError(self._path, lineno, f"the file changed since it was loaded; {doc_id!r} is not read again")
        try:
            line = os.pread(self._fd, length, offset).decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ParseError(self._path, lineno, f"byte 0x{exc.object[exc.start]:02x} is not valid UTF-8") from None
        doc = _document(self._path, lineno, line)
        if doc.doc_id != doc_id:
            detail = f"holds {doc.doc_id!r}, not {doc_id!r}: the file changed since it was loaded"
            raise ParseError(self._path, lineno, detail)
        return doc

    def close(self) -> None:
        """Close the descriptor the lookups share, if one is open; a later lookup opens the file again."""
        if self._closer is not None:
            self._closer()
            self._fd = self._closer = None

    def __contains__(self, doc_id) -> bool:
        return doc_id in self._rows

    def __iter__(self) -> Iterator[str]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


def load_corpus(path) -> Corpus:
    """Load a JSON-lines corpus keyed by doc_id, checking every line once (``_document``).

    Raises ParseError with the offending line number on malformed JSON,
    missing fields or a title or abstract that is neither a string nor
    null, DuplicateIdError when a doc_id repeats. The result holds no text:
    each lookup reads its document from the file again and refuses a file
    that changed since this call (``Corpus``).
    """
    # Taken before the read: a file changed while it is read fails its lookups.
    signature = _signature(path)
    rows: dict[str, int] = {}
    spans = array("q")
    for lineno, line, offset, length in _lines(path, spans=True):
        rows[_document(path, lineno, line, rows).doc_id] = len(rows)
        spans.extend((lineno, offset, length))
    return Corpus(path, signature, rows, spans)


def load_topics(topics_path, qrels_path) -> list[Topic]:
    """Load topics and attach qrels judgments.

    Judged doc_ids missing from a topic's candidate list are appended to it
    in qrels order (they were retrieved by the original search and must be
    rankable). A topic that appears only in the qrels raises
    MissingTopicError.
    """
    # topic_id -> its candidates, as dict keys in first-occurrence order.
    candidates: dict[str, dict[str, None]] = {}
    for _, (topic_id, doc_id) in _records(topics_path, "topic_id doc_id"):
        candidates.setdefault(topic_id, {})[doc_id] = None
    qrels = load_qrels(qrels_path)
    for topic_id, judgments in qrels.items():
        if topic_id not in candidates:
            raise MissingTopicError(f"qrels reference topic {topic_id!r} which the topic file does not define")
        candidates[topic_id].update(dict.fromkeys(judgments))
    return [Topic(topic_id, list(ids), qrels.get(topic_id, {})) for topic_id, ids in candidates.items()]


def load_qrels(path) -> dict[str, dict[str, int]]:
    """Parse a qrels file alone: topic_id -> doc_id -> grade, in file order.

    A repeated ``topic_id doc_id`` pair must repeat its grade; a different
    grade raises ParseError at the repeat.
    """
    qrels: dict[str, dict[str, int]] = {}
    for lineno, (topic_id, _, doc_id, grade_str) in _records(path, "topic_id 0 doc_id grade"):
        try:
            grade = int(grade_str)
        except ValueError as exc:
            raise ParseError(path, lineno, f"grade {grade_str!r} is not an integer") from exc
        if grade < 0:
            raise ParseError(path, lineno, f"grade must be >= 0, got {grade}")
        first = qrels.setdefault(topic_id, {}).setdefault(doc_id, grade)
        if first != grade:
            raise ParseError(path, lineno, f"{topic_id} {doc_id} judged {grade} here but {first} earlier")
    return qrels


def doc_order(doc_ids: Sequence[str]) -> np.ndarray:
    """Each name's position in ``sorted(doc_ids)`` (Python ``str`` order), the tie rule of ``rank_order``."""
    order = np.empty(len(doc_ids), dtype=np.intp)
    order[sorted(range(len(doc_ids)), key=doc_ids.__getitem__)] = np.arange(len(doc_ids))
    return order


def rank_order(rows: np.ndarray, scores: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` and ``scores`` by score descending, exact ties (0.0 = -0.0) by ``order``, a ``doc_order``."""
    ranked = np.lexsort((order[rows], -scores))
    return rows[ranked], scores[ranked]


def filter_topics(topics: list[Topic], min_relevant: int) -> list[Topic]:
    """Keep topics with at least ``min_relevant`` relevant studies, order preserved."""
    return [t for t in topics if len(t.relevant_ids) >= min_relevant]


def _run_lines(unit: RunUnit) -> Iterator[str]:
    """The run-file lines of a unit, ranked 1..n; every run line is made here.

    A score is written with 6 significant digits (``%#.6g``) when that
    reads back as the same float, else as its shortest repr.
    """
    for rank, (row, score) in enumerate(zip(unit.rows.tolist(), unit.scores.tolist()), start=1):
        text = "%#.6g" % score
        if float(text) != score:
            text = repr(score)
        yield f"{unit.topic_id} Q0 {unit.doc_ids[row]} {rank} {text} {unit.tag}\n"


def write_run(run: Run, path) -> None:
    """Write a TREC run file, its units in order, each ranked 1..n.

    Two units may not share a key, and each unit's scores must be finite
    and non-increasing with rank; otherwise RunValidationError, before
    anything is written.
    """
    seen = set()
    for unit in run.units:
        if unit.topic_id in seen:
            raise RunValidationError(f"topic {unit.topic_id!r}: more than one unit")
        seen.add(unit.topic_id)
        if not np.isfinite(unit.scores).all():
            raise RunValidationError(f"topic {unit.topic_id!r}: non-finite score")
        if (unit.scores[1:] > unit.scores[:-1]).any():
            raise RunValidationError(f"topic {unit.topic_id!r}: scores increase with rank")
    with open(path, "w", encoding="utf-8") as fh:
        for unit in run.units:
            fh.writelines(_run_lines(unit))


def load_run(path) -> Run:
    """Load a TREC run file as one unit per topic, in order of first appearance.

    A unit's ``doc_ids`` are its topic's documents in file order; its rows
    order them by score (``rank_order``), as trec_eval does, whatever the
    rank column says. A malformed line (a rank below 1, a non-finite score)
    and, within a topic, a repeated document or a new tag raise ParseError.
    """
    # topic_id -> (its tag, doc_id -> score in file order).
    topics: dict[str, tuple[str, dict[str, float]]] = {}
    for lineno, (topic_id, _, doc_id, rank_str, score_str, tag) in _records(path, "topic_id Q0 doc_id rank score tag"):
        try:
            rank = int(rank_str)
            score = float(score_str)
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from exc
        if rank < 1:
            raise ParseError(path, lineno, f"rank must be positive, got {rank}")
        if not math.isfinite(score):
            raise ParseError(path, lineno, f"score must be finite, got {score_str}")
        first_tag, docs = topics.setdefault(topic_id, (tag, {}))
        if tag != first_tag:
            raise ParseError(path, lineno, f"tag {tag!r} differs from {first_tag!r}, the tag of topic {topic_id!r}")
        if doc_id in docs:
            raise ParseError(path, lineno, f"document {doc_id!r} is listed twice for topic {topic_id!r}")
        docs[doc_id] = score
    units = []
    for topic_id, (tag, docs) in topics.items():
        doc_ids = tuple(docs)
        rows, scores = rank_order(np.arange(len(doc_ids)), np.array(list(docs.values())), doc_order(doc_ids))
        units.append(RunUnit(topic_id, tag, doc_ids, rows, scores))
    return Run(tuple(units))


def load_lexicon(path) -> frozenset[str]:
    """One token per line; lowercased and deduplicated. Empty files are accepted."""
    return frozenset(token.lower() for _, (token,) in _records(path, "token"))


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
    lowercase passes. The matrix starts empty (the header's vocabulary size
    is checked but not trusted). When a chunk's kept rows do not fit, it grows
    by a quarter (or to fit them), in place where the allocator can, so it
    holds at most about a quarter more rows than it keeps, and is cut to them
    at the end. Every line is checked, kept or not: a chunk that does not
    parse is checked one line at a time to name the first bad line, and a
    non-finite value is raised only after the whole body has parsed, so a
    malformed line anywhere is reported first.
    """
    with closing(_lines(path)) as lines:
        # The header is line 1, so a blank first line is not one.
        lineno, header = next(lines, (1, ""))
        dimension = _embedding_dimension(path, header if lineno == 1 else "")
        matrix = np.empty((0, dimension))
        rows: dict[str, int] = {}
        n = read = 0
        non_finite = None
        for tokens, linenos, block in _embedding_chunks(path, lines, dimension):
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
                matrix.resize((max(stop, len(matrix) + len(matrix) // 4), dimension), refcheck=False)
            matrix[n:stop] = block
            rows.update(zip(tokens, range(n, stop)))
            n = stop
    if non_finite is not None:
        raise ParseError(path, non_finite[0], f"non-finite value in the vector of {non_finite[1]!r}")
    if n < len(matrix):
        matrix.resize((n, dimension), refcheck=False)
    return EmbeddingTable(matrix, rows, read)


def _embedding_dimension(path, line: str) -> int:
    """The dimension from the header line ``vocab_size dimension``, both checked."""
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
    return dimension


def _embedding_chunks(path, lines: Iterator[tuple[int, str]], dimension: int):
    """``(tokens, line numbers, values)`` per chunk of the body's ``_lines``; the values are a checked float64 block."""
    tokens: list[str] = []
    values: list[str] = []
    linenos: list[int] = []
    for lineno, line in lines:
        parts = line.split(maxsplit=1)
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
