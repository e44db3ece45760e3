"""Experiment drivers: leave-one-out runs, seed groups, oracle comparison,
and the two corpus observations (intra-similarity, term commonality).

Every driver takes a topic's ``TopicIndex`` (``vectors.build_index``), so
one topic is counted once however many runs and analyses use it.

Leave-one-out: every relevant study of a topic serves once as the seed;
the seed is excluded from the candidate pool and from the judgments used
to score its own run. Per-topic figures are means over seeds, cross-topic
figures are unweighted means over topics.

Multi-seed runs group the seed pool with a stride-1 sliding window (window
width = 20% of the pool, floored at 2) and concatenate each group into one
pseudo-seed. The comparison baseline is an oracle that picks the best
group member's single run and drops the other members from it, so both
runs rank exactly the same candidates.

Runs are ``corpus.RunUnit``s, candidate rows and scores in rank order:
they are evaluated from the index's relevance flags at their rows, and the
oracle drops rows with a mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .corpus import RunUnit
from .errors import ConfigError, ContractError, InsufficientDocumentsError, InsufficientSeedsError
from .evaluation import DEFAULT_CUTOFFS, ranked_metrics
from .scoring import ScoringParams, keyed_samples, rank
from .vectors import TopicIndex, cosine, idf, line_entries

FRACTION = 0.2  # seed-window width as a share of the pool
REPETITIONS = 10  # irrelevant samples drawn by intra_similarity
MIN_GROUP_SEEDS = 3  # a window of width >= 2 must leave a seed of the pool out


@dataclass(frozen=True)
class SeedGroup:
    """One sliding-window group of a topic's seed pool."""

    topic_id: str
    member_ids: tuple[str, ...]
    window_index: int

    @property
    def unit(self) -> str:
        """Key used for run files and metric rows."""
        return f"w{self.window_index}"


@dataclass
class ExperimentReport:
    """Metric values per (topic, seed-or-window) with mean aggregation."""

    values: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)

    def add(self, topic_id: str, unit: str, metrics: Mapping[str, float]) -> None:
        self.values.setdefault(topic_id, {})[unit] = dict(metrics)

    def merge(self, other: "ExperimentReport") -> None:
        for topic_id, units in other.values.items():
            for unit, metrics in units.items():
                self.add(topic_id, unit, metrics)

    def metric_names(self) -> list[str]:
        names: dict[str, None] = {}
        for _, units in sorted(self.values.items()):
            for metrics in units.values():
                for name in metrics:
                    names.setdefault(name)
        return list(names)

    def per_topic_means(self) -> dict[str, dict[str, float]]:
        """metric -> topic -> mean over the units where the metric is defined.

        Topics come in id order, whatever order they were added in, so the
        cross-topic means sum in the same order on every run.
        """
        out: dict[str, dict[str, float]] = {}
        for metric in self.metric_names():
            for topic_id, units in sorted(self.values.items()):
                vals = [m[metric] for m in units.values() if metric in m]
                if vals:
                    out.setdefault(metric, {})[topic_id] = sum(vals) / len(vals)
        return out

    def cross_topic_means(self) -> dict[str, float]:
        """Unweighted mean of the per-topic means."""
        out = {}
        for metric, topic_means in self.per_topic_means().items():
            out[metric] = sum(topic_means.values()) / len(topic_means)
        return out


def evaluate_unit(
    unit: RunUnit,
    relevant: np.ndarray,
    cutoffs: Sequence[int] = DEFAULT_CUTOFFS,
) -> dict[str, float]:
    """Metrics for one run unit, judged over its own candidates only.

    ``relevant`` flags the relevant rows of the unit's name table
    (``TopicIndex.relevant``). The relevant total is the relevant
    candidates the unit ranks: seeds and group members were removed from
    the pool, and a document that was never up for screening cannot count
    as missed.
    """
    judged = relevant[unit.rows]
    return ranked_metrics(judged, int(np.count_nonzero(judged)), cutoffs)


def loocv_single(
    index: TopicIndex,
    method: str,
    params: ScoringParams,
) -> tuple[ExperimentReport, dict[str, RunUnit]]:
    """One run per relevant study used as the seed, plus its metrics.

    Returns the per-seed report and the runs keyed by seed id (each run is
    keyed ``topic_id.seed_id``).
    """
    topic = index.topic
    seeds = topic.relevant_ids
    if len(seeds) < 2:
        raise InsufficientSeedsError(
            f"topic {topic.topic_id!r} has {len(seeds)} relevant studies; leave-one-out needs >= 2"
        )
    report = ExperimentReport()
    runs: dict[str, RunUnit] = {}
    for seed_id in seeds:
        unit = rank(index, [seed_id], method, params, run_key=f"{topic.topic_id}.{seed_id}")
        runs[seed_id] = unit
        report.add(topic.topic_id, seed_id, evaluate_unit(unit, index.relevant))
    return report, runs


def check_fraction(fraction: float) -> None:
    """Raise ConfigError unless the seed-window ``fraction`` is in (0, 1]."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigError("fraction", f"must be in (0, 1], got {fraction}")


def make_groups(topic_id: str, seed_pool: Sequence[str], fraction: float = FRACTION) -> list[SeedGroup]:
    """Stride-1 sliding-window groups over the seed pool.

    Window width w = max(2, ceil(fraction * N)) and the windows start at
    offsets 0 .. N - w, giving N - w + 1 groups; every seed lands in at
    least one and at most w groups. A window must leave at least one seed
    out, or its run has no relevant study left to find.
    """
    check_fraction(fraction)
    n = len(seed_pool)
    if n < MIN_GROUP_SEEDS:
        raise InsufficientSeedsError(f"topic {topic_id!r}: grouping needs >= {MIN_GROUP_SEEDS} seed studies, got {n}")
    w = max(2, math.ceil(fraction * n))
    if w >= n:
        raise InsufficientSeedsError(
            f"topic {topic_id!r}: a seed window of width {w} covers the whole pool of {n} seed studies"
        )
    return [
        SeedGroup(topic_id, tuple(seed_pool[i : i + w]), i)
        for i in range(n - w + 1)
    ]


def multi_sdr(
    index: TopicIndex,
    group: SeedGroup,
    method: str,
    params: ScoringParams,
) -> RunUnit:
    """Rank with a concatenated seed group; candidates exclude every member.

    Term-weight partitions larger than ``params.undersample_cap`` are
    randomly under-sampled, as in the paper. The exact sums over every
    candidate cost less than sampling does (``scoring.phi_weights``), so
    undersampling is kept for the paper's setting, not for speed.
    """
    return rank(index, group.member_ids, method, params, undersample=True, run_key=f"{index.topic_id}.{group.unit}")


def oracle_single(
    report: ExperimentReport,
    group: SeedGroup,
    single_runs: Mapping[str, RunUnit],
) -> RunUnit:
    """Best group member's single run, filtered to the multi candidate set.

    ``report`` and ``single_runs`` are what ``loocv_single`` returns. The
    member whose single run has the highest ``map`` in the report wins
    (ties: smallest seed doc_id); a row mask drops the other members from
    the winning run, whose ranks close up to 1..n, so the result ranks
    exactly the documents the group's multi run ranks.
    """
    seed_metrics = report.values.get(group.topic_id, {})
    missing = [m for m in group.member_ids if m not in single_runs or m not in seed_metrics]
    if missing:
        raise ContractError(f"no leave-one-out run and metrics for group members: {missing}")
    best_seed = max(sorted(group.member_ids), key=lambda seed_id: seed_metrics[seed_id]["map"])
    best = single_runs[best_seed]
    kept = np.ones(len(best.doc_ids), dtype=bool)
    kept[[best.doc_ids.index(m) for m in group.member_ids if m != best_seed]] = False
    kept = kept[best.rows]
    return RunUnit(f"{group.topic_id}.{group.unit}", f"{best.tag}-oracle", best.doc_ids, best.rows[kept], best.scores[kept])


def _pairwise_mean_cosine(index: TopicIndex, term_idf: np.ndarray, rows: np.ndarray) -> float:
    """Mean tf-idf cosine over the pairs i < j of ``rows``, under the per-column ``term_idf``.

    Each row's squared norm and each dot product add row i's products in its
    stored order, starting from 0, the dots against an m x V block of the rows.
    """
    positions, lengths = line_entries(index.counts.indptr, rows)
    columns = index.counts.indices[positions]
    weights = index.counts.data[positions] * term_idf[columns]
    m = len(rows)
    owner = np.repeat(np.arange(m), lengths)
    norms = np.sqrt(np.bincount(owner, weights=weights * weights, minlength=m))
    dense = np.zeros((m, len(index.terms)))
    dense[owner, columns] = weights
    # products[e, k] is entry e (of row i) times row k's weight on its term;
    # bincount adds them into gram[i, k] in entry order.
    products = weights[:, None] * dense[:, columns].T
    gram = np.bincount((owner[:, None] * m + np.arange(m)).ravel(), weights=products.ravel(), minlength=m * m)
    i, j = np.triu_indices(m, 1)
    return float(cosine(gram.reshape(m, m)[i, j], norms[i], norms[j]).mean())


def check_repetitions(repetitions: int) -> None:
    """Raise ConfigError unless ``repetitions`` is at least 1."""
    if repetitions < 1:
        raise ConfigError("repetitions", f"must be positive, got {repetitions}")


def intra_similarity(
    index: TopicIndex,
    *,
    repetitions: int = REPETITIONS,
    rng_seed: int = ScoringParams.rng_seed,
) -> tuple[float, float]:
    """Mean pairwise similarity among relevant vs sampled irrelevant studies.

    The irrelevant side is under-sampled ``repetitions`` times to the size
    of the relevant set and the per-sample means are averaged. The idf is
    taken over the topic's full candidate set.
    """
    check_repetitions(repetitions)
    topic = index.topic
    relevant = topic.relevant_ids
    if len(relevant) < 2:
        raise InsufficientDocumentsError(
            f"topic {topic.topic_id!r}: need >= 2 relevant studies, got {len(relevant)}"
        )
    irrelevant = topic.irrelevant_ids
    if len(irrelevant) < len(relevant):
        raise InsufficientDocumentsError(
            f"topic {topic.topic_id!r}: need >= {len(relevant)} irrelevant studies, got {len(irrelevant)}"
        )

    term_idf = idf(len(index.doc_ids), index.doc_freq)
    rel_mean = _pairwise_mean_cosine(index, term_idf, index.row_numbers(relevant))

    irrelevant_rows = index.row_numbers(irrelevant)
    sizes = [[len(irrelevant)] * repetitions]
    (samples,) = keyed_samples((rng_seed, topic.topic_id), ["intra-similarity"], sizes, len(relevant))
    sample_means = [_pairwise_mean_cosine(index, term_idf, irrelevant_rows[np.sort(picks)]) for picks in samples]
    return rel_mean, sum(sample_means) / len(sample_means)


def term_commonality(index: TopicIndex) -> tuple[dict[str, float], dict[int, int]]:
    """How widely each term is shared across a topic's relevant studies.

    Returns (term -> fraction of relevant docs containing it) over the
    union vocabulary, plus the histogram (number of docs containing a term
    -> number of such terms) behind the distribution plots.
    """
    topic = index.topic
    relevant = topic.relevant_ids
    if not relevant:
        raise InsufficientDocumentsError(f"topic {topic.topic_id!r} has no relevant studies")
    positions, _ = line_entries(index.counts.indptr, index.row_numbers(relevant))
    containing = np.bincount(index.counts.indices[positions], minlength=len(index.terms)).tolist()
    n = len(relevant)
    fractions = {index.terms[col]: c / n for col, c in enumerate(containing) if c}
    histogram: dict[int, int] = {}
    for c in containing:
        if c:
            histogram[c] = histogram.get(c, 0) + 1
    return fractions, {k: histogram[k] for k in sorted(histogram)}
