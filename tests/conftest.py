import sys
import tracemalloc
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from seedrank import Document, PipelineConfig, ScoringParams, Topic


def unit_lines(unit):
    """A run unit's lines as ``(doc_id, rank, score)``, ranked 1..n in the unit's order."""
    ranked = enumerate(zip(unit.rows.tolist(), unit.scores.tolist()), start=1)
    return [(unit.doc_ids[row], rank, score) for rank, (row, score) in ranked]


def traced_peak(fn):
    """``fn()``'s result and the peak bytes that ``tracemalloc`` saw allocated while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def pipeline():
    return PipelineConfig()


@pytest.fixture
def params():
    return ScoringParams()


@pytest.fixture
def hand_corpus():
    """Seed plus four candidates with an obvious similarity gradient."""
    docs = [
        Document("s", "heart attack risk", "aspirin therapy heart"),
        Document("c1", "heart attack treatment", "aspirin reduces heart attack risk"),
        Document("c2", "stroke prevention", "blood pressure medication stroke"),
        Document("c3", "heart rate variability", "exercise heart rate"),
        Document("c4", "diabetes management", "insulin glucose control diabetes"),
    ]
    return {d.doc_id: d for d in docs}


@pytest.fixture
def hand_topic(hand_corpus):
    return Topic(
        "T1",
        candidate_ids=list(hand_corpus),
        judgments={"s": 1, "c1": 1, "c3": 1, "c2": 0, "c4": 0},
    )
