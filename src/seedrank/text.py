"""Turn raw study text into the terms that bag-of-words / bag-of-clinical-words count.

Two tokenization pipelines are supported:

  ``ours``  split on every character that is not alphanumeric (Unicode
            punctuation included), lowercase, drop stopwords.
  ``lee``   split on whitespace only (punctuation stays glued to tokens),
            lowercase, drop stopwords.

Neither pipeline stems. A text is split once, case preserved, into surface
forms. Each surface form is then normalised on its own: its term is its
lowercase, and it is dropped when that term is a stopword (or, for the
``boc`` representation, outside the lexicon). Embedding lookup uses the
surface form itself, so only kept forms have embedding rows, and an
embedding table need hold only the rows whose token's lowercase is a kept
term (``kept_term``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

from .corpus import Document, EmbeddingTable, load_lexicon
from .errors import ConfigError

OURS = "ours"
LEE = "lee"


class _NonWordToSpace(dict):
    """str.translate table mapping every non-alphanumeric character to a space, filled lazily per codepoint.

    Alphanumeric is what the regex class ``[^\\W_]`` matches, so
    ``text.translate(table).split()`` gives the ``[^\\W_]+`` runs of ``text``.
    """

    def __missing__(self, codepoint: int) -> int:
        replacement = codepoint if chr(codepoint).isalnum() else 0x20
        self[codepoint] = replacement
        return replacement


_NON_WORD_TO_SPACE = _NonWordToSpace()


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    """The bundled 179-word English stopword list."""
    with resources.as_file(resources.files("seedrank.data") / "stopwords_english.txt") as path:
        return load_lexicon(path)


@dataclass(frozen=True)
class PipelineConfig:
    """Pre-processing settings, fixed for the duration of an experiment.

    ``include_title`` controls whether ranking text is title+abstract or
    abstract alone.
    """

    variant: str = OURS
    stopwords: frozenset[str] = field(default_factory=default_stopwords)
    include_title: bool = True

    def __post_init__(self):
        if self.variant not in (OURS, LEE):
            raise ConfigError("variant", f"must be '{OURS}' or '{LEE}', got {self.variant!r}")


def split(text: str, variant: str) -> list[str]:
    """The case-preserving surface forms of ``text`` under the ``ours`` or ``lee`` split."""
    if variant == OURS:
        return text.translate(_NON_WORD_TO_SPACE).split()
    return text.split()


def kept_term(stopwords: frozenset[str], lexicon: frozenset[str] | None = None) -> Callable[[str], bool]:
    """Whether a term (a lowercase surface form) is kept: not a stopword and, given a lexicon, in it."""
    if lexicon is None:
        return lambda term: term not in stopwords
    return lambda term: term not in stopwords and term in lexicon


class SurfaceForms(dict):
    """Surface form -> column of its term, or -1 for a dropped form; each form is normalised on its first lookup.

    A form's term is its lowercase. The form is dropped when its term is not
    a ``kept_term`` of the stopwords and lexicon. ``columns`` numbers the terms
    in order of first lookup. Given an embedding table, ``embedding_rows``
    maps every looked-up form to its row (raw form first, then lowercase),
    -1 when the form is dropped or out of vocabulary.

    One instance serves one text collection in one thread; it holds one
    entry per distinct surface form seen.
    """

    def __init__(
        self,
        stopwords: frozenset[str],
        lexicon: frozenset[str] | None = None,
        embeddings: EmbeddingTable | None = None,
    ):
        super().__init__()
        self.kept = kept_term(stopwords, lexicon)
        self.embeddings = embeddings
        self.columns: dict[str, int] = {}
        self.embedding_rows: dict[str, int] = {}

    def __missing__(self, form: str) -> int:
        term = form.lower()
        if term == form:
            # One string per term: the form's own, not an equal copy.
            term = form
        kept = self.kept(term)
        column = self.columns.setdefault(term, len(self.columns)) if kept else -1
        self[form] = column
        if self.embeddings is not None:
            row = self.embeddings.row(form) if kept else None
            self.embedding_rows[form] = -1 if row is None else row
        return column


def document_text(doc: Document, config: PipelineConfig) -> str:
    """The text a document is ranked by: title+abstract, or abstract only."""
    if config.include_title:
        return f"{doc.title} {doc.abstract}"
    return doc.abstract
