"""IR metrics over ranked lists plus the paired-significance protocol.

Metric semantics follow trec_eval: the AP and recall denominator is the
total number of relevant documents in the qrels (retrieved or not), nDCG
uses binary gains with a log2(rank+1) discount from rank 1, and runs
shorter than a cutoff are padded with non-relevant documents.

LastRel% is the rank of the last relevant document normalized by the run
length; WSS (work saved over sampling) is its complement, so
WSS + LastRel% = 1 on every evaluable run.

Every metric is computed from a ranking's 0/1 relevance vector in rank
order (``ranked_metrics``, as array-based evaluators such as ranx do),
visiting only the ranks of the relevant documents and adding their terms
one by one in rank order. The functions over doc-id lists build that
vector and call the same code.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Mapping, Sequence

import numpy as np

from .errors import ContractError, DegenerateTestError, UndefinedMetricError

DEFAULT_CUTOFFS = (10, 100, 1000)


def _num_relevant(qrels: Mapping[str, int]) -> int:
    return sum(1 for g in qrels.values() if g >= 1)


def _relevance(run: Sequence[str], qrels: Mapping[str, int]) -> np.ndarray:
    """Whether each document of a doc-id list is judged relevant, in rank order."""
    return np.fromiter((qrels.get(doc_id, 0) >= 1 for doc_id in run), bool, len(run))


def _hit_ranks(relevant: np.ndarray) -> list[int]:
    """The ranks (from 1) of the relevant documents, ascending."""
    return (np.flatnonzero(relevant) + 1).tolist()


def _check_cutoff(k: int) -> None:
    if k < 1:
        raise ContractError(f"cutoff must be >= 1, got {k}")


def _average_precision(hits: list[int], total_relevant: int) -> float:
    if total_relevant == 0:
        raise UndefinedMetricError("average precision is undefined without relevant documents")
    precision_sum = 0.0
    for found, r in enumerate(hits, start=1):
        precision_sum += found / r
    return precision_sum / total_relevant


def _precision_at(hits: list[int], k: int) -> float:
    _check_cutoff(k)
    return bisect_right(hits, k) / k


def _recall_at(hits: list[int], total_relevant: int, k: int) -> float:
    _check_cutoff(k)
    if total_relevant == 0:
        raise UndefinedMetricError("recall is undefined without relevant documents")
    return bisect_right(hits, k) / total_relevant


def _ndcg_at(hits: list[int], total_relevant: int, k: int) -> float:
    _check_cutoff(k)
    dcg = 0.0
    for r in hits[: bisect_right(hits, k)]:
        dcg += 1.0 / math.log2(r + 1)
    idcg = sum(1.0 / math.log2(r + 1) for r in range(1, min(k, total_relevant) + 1))
    if idcg == 0.0:
        return 0.0
    return dcg / idcg


def _last_rel_percent(hits: list[int], n: int) -> float:
    if not hits:
        raise UndefinedMetricError("no relevant document retrieved")
    return hits[-1] / n


def average_precision(run: Sequence[str], qrels: Mapping[str, int]) -> float:
    """AP with the qrels total as denominator; unretrieved relevants count 0."""
    return _average_precision(_hit_ranks(_relevance(run, qrels)), _num_relevant(qrels))


def precision_at(run: Sequence[str], qrels: Mapping[str, int], k: int) -> float:
    return _precision_at(_hit_ranks(_relevance(run, qrels)), k)


def recall_at(run: Sequence[str], qrels: Mapping[str, int], k: int) -> float:
    return _recall_at(_hit_ranks(_relevance(run, qrels)), _num_relevant(qrels), k)


def ndcg_at(run: Sequence[str], qrels: Mapping[str, int], k: int) -> float:
    """Binary-gain nDCG@k; 0.0 when the ideal DCG is zero."""
    return _ndcg_at(_hit_ranks(_relevance(run, qrels)), _num_relevant(qrels), k)


def last_rel_percent(run: Sequence[str], qrels: Mapping[str, int]) -> float:
    """Rank of the last relevant document, as a fraction of the run length."""
    return _last_rel_percent(_hit_ranks(_relevance(run, qrels)), len(run))


def wss(run: Sequence[str], qrels: Mapping[str, int]) -> float:
    """Work saved over sampling: the fraction of the run below the last relevant."""
    return 1.0 - last_rel_percent(run, qrels)


def ranked_metrics(
    relevant: np.ndarray,
    total_relevant: int,
    cutoffs: Sequence[int] = DEFAULT_CUTOFFS,
) -> dict[str, float]:
    """All reported metrics of one ranking, from whether each ranked document is relevant.

    ``relevant`` is in rank order; ``total_relevant`` is the AP and recall
    denominator. The ``lastrel%``/``wss`` keys are present only when at
    least one relevant document was retrieved; callers track the
    exclusions.
    """
    hits = _hit_ranks(relevant)
    out = {"map": _average_precision(hits, total_relevant)}
    for k in cutoffs:
        out[f"p@{k}"] = _precision_at(hits, k)
        out[f"r@{k}"] = _recall_at(hits, total_relevant, k)
        out[f"ndcg@{k}"] = _ndcg_at(hits, total_relevant, k)
    if hits:
        lr = _last_rel_percent(hits, len(relevant))
        out["lastrel%"] = lr
        out["wss"] = 1.0 - lr
    return out


def metric_set(
    run: Sequence[str],
    qrels: Mapping[str, int],
    cutoffs: Sequence[int] = DEFAULT_CUTOFFS,
) -> dict[str, float]:
    """All reported metrics for one run of doc ids (``ranked_metrics``)."""
    return ranked_metrics(_relevance(run, qrels), _num_relevant(qrels), cutoffs)


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-tailed paired Student t-test over per-topic values.

    Returns (t, p) with n-1 degrees of freedom. Zero variance of the
    differences (including a == b) is a degenerate test and raises.
    """
    # Imported here: only the compare command needs it, and it doubles import time.
    from scipy import stats as scipy_stats

    if len(a) != len(b):
        raise ContractError(f"paired samples differ in length: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise ContractError("paired t-test needs at least two pairs")
    diffs = [x - y for x, y in zip(a, b)]
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    if var == 0.0:
        raise DegenerateTestError("differences have zero variance")
    t = mean / math.sqrt(var / n)
    p = 2.0 * float(scipy_stats.t.sf(abs(t), df=n - 1))
    return t, p


def bonferroni(p: float, m: int) -> float:
    """Bonferroni-adjusted p-value for a family of m comparisons."""
    if m < 1:
        raise ContractError(f"family size must be >= 1, got {m}")
    return min(1.0, p * m)


def significance_rows(
    name_a: str,
    name_b: str,
    per_topic_a: Mapping[str, Mapping[str, float]],
    per_topic_b: Mapping[str, Mapping[str, float]],
    metrics: Sequence[str],
    alpha: float = 0.05,
    family_size: int | None = None,
) -> list[dict]:
    """Per-metric paired tests between two methods' per-topic means.

    ``per_topic_*`` map metric -> topic -> value. Topics are paired by id;
    only topics present on both sides enter the test. The Bonferroni family
    defaults to the number of metrics tested.
    """
    m = family_size if family_size is not None else len(metrics)
    rows = []
    for metric in metrics:
        topics_a = per_topic_a.get(metric, {})
        topics_b = per_topic_b.get(metric, {})
        shared = sorted(topics_a.keys() & topics_b.keys())
        if len(shared) < 2:
            raise ContractError(f"metric {metric!r}: fewer than two shared topics to pair")
        a_vals = [topics_a[t] for t in shared]
        b_vals = [topics_b[t] for t in shared]
        try:
            t, p = paired_t_test(a_vals, b_vals)
            adjusted = bonferroni(p, m)
            rows.append(
                {
                    "method_a": name_a,
                    "method_b": name_b,
                    "metric": metric,
                    "t": t,
                    "p": p,
                    "p_adjusted": adjusted,
                    "significant": adjusted < alpha,
                }
            )
        except DegenerateTestError:
            rows.append(
                {
                    "method_a": name_a,
                    "method_b": name_b,
                    "metric": metric,
                    "t": float("nan"),
                    "p": float("nan"),
                    "p_adjusted": float("nan"),
                    "significant": False,
                }
            )
    return rows
