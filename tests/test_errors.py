import copy
import inspect
import pickle

import pytest

from seedrank import errors

SUBCLASSES = sorted(
    (cls for _, cls in inspect.getmembers(errors, inspect.isclass) if issubclass(cls, errors.SeedRankError)),
    key=lambda cls: cls.__name__,
)


def make(cls):
    """An instance of ``cls`` built the way the library raises it."""
    if issubclass(cls, errors.ParseError):
        return cls("data/corpus.jsonl", 7, "expected a JSON object")
    if issubclass(cls, errors.ConfigError):
        return cls("workers", "must be positive, got 0")
    return cls("topic 'T1' has no candidates left")


def test_every_error_is_covered():
    assert {errors.SeedRankError, errors.ParseError, errors.DuplicateIdError, errors.ConfigError} <= set(SUBCLASSES)


@pytest.mark.parametrize("round_trip", [
    lambda exc: pickle.loads(pickle.dumps(exc)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
@pytest.mark.parametrize("cls", SUBCLASSES, ids=lambda cls: cls.__name__)
def test_round_trip_keeps_message_and_fields(cls, round_trip):
    exc = make(cls)
    back = round_trip(exc)
    assert type(back) is cls and back is not exc
    # vars() holds path and lineno of a ParseError and field of a ConfigError.
    assert str(back) == str(exc) and back.args == exc.args and vars(back) == vars(exc)
