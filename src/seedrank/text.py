"""Turn raw study text into bag-of-words / bag-of-clinical-words counts.

Two tokenization pipelines are supported:

  ``ours``  strip every Unicode punctuation character, split on
            non-alphanumeric boundaries, lowercase, drop stopwords.
  ``lee``   split on whitespace only (punctuation stays glued to tokens),
            lowercase, drop stopwords.

Neither pipeline stems. Stopword matching always happens on the lowercased
token, so the case-preserving mode used for embedding lookup removes the
same stopwords as the default mode.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import lru_cache
from importlib import resources

from .corpus import Document, Lexicon
from .errors import ConfigError

OURS = "ours"
LEE = "lee"

_WORD_RE = re.compile(r"[^\W_]+")


class _PunctuationTable(dict):
    """str.translate table mapping punctuation to space, lazily per codepoint."""

    def __missing__(self, codepoint: int) -> int:
        replacement = 0x20 if unicodedata.category(chr(codepoint)).startswith("P") else codepoint
        self[codepoint] = replacement
        return replacement


_PUNCT_TO_SPACE = _PunctuationTable()


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    """The bundled 179-word English stopword list."""
    data = resources.files("seedrank.data").joinpath("stopwords_english.txt").read_text("utf-8")
    return frozenset(line.strip() for line in data.splitlines() if line.strip())


@dataclass(frozen=True)
class PipelineConfig:
    """Pre-processing settings, fixed for the duration of an experiment.

    ``lowercase=False`` is meant only for building embedding-lookup token
    streams; every counting representation lowercases.
    ``include_title`` controls whether ranking text is title+abstract or
    abstract alone.
    """

    variant: str = OURS
    stopwords: frozenset[str] = field(default_factory=default_stopwords)
    lowercase: bool = True
    include_title: bool = True

    def __post_init__(self):
        if self.variant not in (OURS, LEE):
            raise ConfigError("variant", f"must be '{OURS}' or '{LEE}', got {self.variant!r}")


@dataclass(frozen=True)
class TermCounts:
    """Sparse term -> count map plus the document length (sum of counts)."""

    counts: dict[str, int]
    length: int

    @classmethod
    def from_tokens(cls, tokens: list[str]) -> "TermCounts":
        counts = dict(Counter(tokens))
        return cls(counts, sum(counts.values()))

    def __contains__(self, term: str) -> bool:
        return term in self.counts


def tokenize(text: str, config: PipelineConfig) -> list[str]:
    """Tokenize one text under the configured pipeline. Empty text -> []."""
    if config.variant == OURS:
        raw = _WORD_RE.findall(text.translate(_PUNCT_TO_SPACE))
    else:
        raw = text.split()
    stopwords = config.stopwords
    if config.lowercase:
        return [lowered for t in raw if (lowered := t.lower()) not in stopwords]
    return [t for t in raw if t.lower() not in stopwords]


def document_text(doc: Document, config: PipelineConfig) -> str:
    """The text a document is ranked by: title+abstract, or abstract only."""
    if config.include_title:
        return f"{doc.title} {doc.abstract}"
    return doc.abstract


def bow(doc: Document, config: PipelineConfig) -> TermCounts:
    """Bag-of-words counts for one document."""
    return TermCounts.from_tokens(tokenize(document_text(doc, config), config))


def boc(bow_counts: TermCounts, lexicon: Lexicon) -> TermCounts:
    """Restrict bag-of-words counts to lexicon terms; counts are preserved."""
    counts = {t: c for t, c in bow_counts.counts.items() if t in lexicon}
    return TermCounts(counts, sum(counts.values()))


def doc_counts(doc: Document, config: PipelineConfig, representation: str, lexicon: Lexicon | None) -> TermCounts:
    """Counts of one document under the ``bow`` or ``boc`` representation."""
    counts = bow(doc, config)
    return boc(counts, lexicon) if representation == "boc" else counts


def embedding_tokens(doc: Document, config: PipelineConfig, lexicon: Lexicon | None = None) -> list[str]:
    """Case-preserving tokens for embedding lookup; with a lexicon, only its terms."""
    config = replace(config, lowercase=False)
    tokens = tokenize(document_text(doc, config), config)
    if lexicon is None:
        return tokens
    return [t for t in tokens if t.lower() in lexicon]
