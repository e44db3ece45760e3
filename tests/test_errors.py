import copy
import inspect
import json
import math
import pickle

import pytest

from seedrank import PipelineConfig, ScoringParams, build_index, errors, intra_similarity, make_groups, rank
from seedrank.cli import load_config, main
from synth import synth_collection, write_collection_files

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
    (lambda index, corpus, topic, pipeline: make_groups("T1", ["a", "b", "c"], 0), "fraction",
     "must be in (0, 1], got 0"),
    (lambda index, corpus, topic, pipeline: make_groups("T1", ["a", "b", "c"], -1), "fraction",
     "must be in (0, 1], got -1"),
    (lambda index, corpus, topic, pipeline: make_groups("T1", ["a", "b", "c"], math.nan), "fraction",
     "must be in (0, 1], got nan"),
    (lambda index, corpus, topic, pipeline: ScoringParams(bm25_k1=math.nan), "bm25_k1",
     "must be in [0, inf), got nan"),
])
def test_bad_library_argument_is_config_error(hand_corpus, hand_topic, pipeline, call, field, detail):
    index = build_index(hand_topic, hand_corpus, "bow", pipeline)
    with pytest.raises(errors.ConfigError) as err:
        call(index, hand_corpus, hand_topic, pipeline)
    assert err.value.field == field and str(err.value) == f"{field}: {detail}"


# The library code that owns each knob's rule, called with one value of the knob.
OWNERS = {
    "method": lambda index, corpus, pipeline, value: rank(index, index.topic.relevant_ids[:1], value, ScoringParams()),
    "representation": lambda index, corpus, pipeline, value: build_index(index.topic, corpus, value, pipeline),
    "variant": lambda index, corpus, pipeline, value: PipelineConfig(variant=value),
    "jm_lambda": lambda index, corpus, pipeline, value: ScoringParams(jm_lambda=value),
    "aes_alpha": lambda index, corpus, pipeline, value: ScoringParams(aes_alpha=value),
    "bm25_k1": lambda index, corpus, pipeline, value: ScoringParams(bm25_k1=value),
    "bm25_b": lambda index, corpus, pipeline, value: ScoringParams(bm25_b=value),
    "undersample_cap": lambda index, corpus, pipeline, value: ScoringParams(undersample_cap=value),
    "fraction": lambda index, corpus, pipeline, value: make_groups(index.topic_id, index.topic.relevant_ids, value),
    "repetitions": lambda index, corpus, pipeline, value: intra_similarity(index, repetitions=value),
}


@pytest.mark.parametrize("field, raw", [
    ("method", "nope"), ("representation", "nope"), ("variant", "nope"), ("jm_lambda", "1"), ("aes_alpha", "nan"),
    ("bm25_k1", "-0.1"), ("bm25_k1", "nan"), ("bm25_k1", "inf"), ("bm25_k1", "1e309"), ("bm25_b", "2"),
    ("undersample_cap", "0"), ("fraction", "0"), ("fraction", "-1"), ("fraction", "nan"), ("repetitions", "0"),
])
def test_cli_refuses_what_the_library_refuses(tmp_path, capsys, pipeline, field, raw):
    """A flag value that its owner's rule refuses: the CLI exits 2 with that field and message and writes nothing."""
    topics, corpus = synth_collection(seed=5, n_topics=1, n_docs=12, vocab_size=60, n_relevant=4)
    paths = dict(zip(("corpus", "topics", "qrels"), write_collection_files(tmp_path, topics, corpus)))
    value = getattr(load_config(None, {field: raw}), field)
    index = build_index(topics[0], corpus, "bow", pipeline)
    with pytest.raises(errors.ConfigError) as err:
        OWNERS[field](index, corpus, pipeline, value)
    assert err.value.field == field

    out = tmp_path / "out"
    argv = ["-q", "multi", "--output-dir", str(out), f"--{field.replace('_', '-')}", raw]
    for name, path in paths.items():
        argv += [f"--{name}", str(path)]
    assert main(argv) == 2
    summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert summary == {"error": "ConfigError", "detail": str(err.value), "field": field}
    assert not out.exists()
