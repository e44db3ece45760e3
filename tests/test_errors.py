import copy
import inspect
import pickle

import pytest

from seedrank import ScoringParams, build_index, errors, intra_similarity, rank

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


@pytest.mark.parametrize("call, field, detail", [
    (lambda index, corpus, topic, pipeline: rank(index, ["s"], "nope", ScoringParams()), "method",
     "must be one of ('bm25', 'qlm', 'sdr', 'aes', 'sdr+aes'), got 'nope'"),
    (lambda index, corpus, topic, pipeline: build_index(topic, corpus, "nope", pipeline), "representation",
     "must be one of ('bow', 'boc'), got 'nope'"),
    (lambda index, corpus, topic, pipeline: intra_similarity(index, repetitions=0), "repetitions",
     "must be positive, got 0"),
])
def test_bad_library_argument_is_config_error(hand_corpus, hand_topic, pipeline, call, field, detail):
    index = build_index(hand_topic, hand_corpus, "bow", pipeline)
    with pytest.raises(errors.ConfigError) as err:
        call(index, hand_corpus, hand_topic, pipeline)
    assert err.value.field == field and str(err.value) == f"{field}: {detail}"
