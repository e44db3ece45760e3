"""Exception types raised across the library.

Every loader, scorer and experiment driver raises one of these instead of a
bare ValueError so callers (and the CLI) can tell data problems apart from
caller bugs.
"""

import copyreg


class SeedRankError(Exception):
    """Base class for all library errors."""

    def __reduce__(self):
        # args holds only the formatted message, not __init__'s arguments, so
        # rebuild without __init__ and restore path, lineno or field from __dict__.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ParseError(SeedRankError):
    """A file could not be parsed. Message carries path and line number."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = str(path)
        self.lineno = lineno


class DuplicateIdError(ParseError):
    """The same doc_id appeared twice in one corpus file."""


class MissingTopicError(SeedRankError):
    """Qrels reference a topic that the topic file does not define."""


class RunValidationError(SeedRankError):
    """Run entries violate the rank/score invariants on write."""


class EmptyTopicError(SeedRankError):
    """A topic has no candidates left after seed exclusion."""


class InsufficientSeedsError(SeedRankError):
    """A topic does not have enough relevant studies for the experiment."""


class InsufficientDocumentsError(SeedRankError):
    """Not enough documents on one side of an analysis; message names the side."""


class ContractError(SeedRankError):
    """A caller violated an inter-module contract (missing weight, id mismatch...)."""


class UndefinedMetricError(SeedRankError):
    """The metric is undefined for this run/qrels combination (e.g. no relevant)."""


class DegenerateTestError(SeedRankError):
    """A significance test cannot be computed (zero variance of differences)."""


class ConfigError(SeedRankError):
    """Invalid run configuration; message names the offending field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field
