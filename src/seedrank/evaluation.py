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
one by one in rank order. ``metric_set`` is its front end for a run of doc
ids and a topic's qrels.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Mapping, Sequence

import numpy as np

from .corpus import is_relevant
from .errors import ContractError, DegenerateTestError, UndefinedMetricError

DEFAULT_CUTOFFS = (10, 100, 1000)


def ranked_metrics(
    relevant: np.ndarray,
    total_relevant: int,
    cutoffs: Sequence[int] = DEFAULT_CUTOFFS,
) -> dict[str, float]:
    """All reported metrics of one ranking, from whether each ranked document is relevant.

    ``relevant`` is in rank order; ``total_relevant`` is the AP and recall
    denominator. A total of 0 raises ``UndefinedMetricError`` before any
    cutoff is checked; a cutoff below 1 raises ``ContractError``. The
    ``lastrel%``/``wss`` keys are present only when at least one relevant
    document was retrieved, which a run unit's own total guarantees.
    """
    if total_relevant == 0:
        raise UndefinedMetricError("average precision is undefined without relevant documents")
    # The ranks (from 1) of the relevant documents, ascending.
    hits = (np.flatnonzero(relevant) + 1).tolist()
    precision_sum = 0.0
    for found, r in enumerate(hits, start=1):
        precision_sum += found / r
    out = {"map": precision_sum / total_relevant}
    for k in cutoffs:
        if k < 1:
            raise ContractError(f"cutoff must be >= 1, got {k}")
        found = bisect_right(hits, k)
        dcg = 0.0
        for r in hits[:found]:
            dcg += 1.0 / math.log2(r + 1)
        # At least rank 1 enters, so the ideal DCG is positive.
        idcg = sum(1.0 / math.log2(r + 1) for r in range(1, min(k, total_relevant) + 1))
        out[f"p@{k}"] = found / k
        out[f"r@{k}"] = found / total_relevant
        out[f"ndcg@{k}"] = dcg / idcg
    if hits:
        lr = hits[-1] / len(relevant)
        out["lastrel%"] = lr
        out["wss"] = 1.0 - lr
    return out


def metric_set(
    run: Sequence[str],
    qrels: Mapping[str, int],
    cutoffs: Sequence[int] = DEFAULT_CUTOFFS,
) -> dict[str, float]:
    """All reported metrics for one run of doc ids: ``ranked_metrics`` with the qrels total as denominator."""
    relevant = np.fromiter((is_relevant(qrels.get(doc_id, 0)) for doc_id in run), bool, len(run))
    return ranked_metrics(relevant, sum(map(is_relevant, qrels.values())), cutoffs)


def _betacf(a: float, b: float, x: float) -> float:
    """The incomplete beta's continued fraction, evaluated by the modified Lentz method."""
    # 1e-300 stands in for a zero denominator.
    c, d = 1.0, 1.0 / ((1.0 - (a + b) * x / (a + 1.0)) or 1e-300)
    h = d
    for m in range(1, 1001):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 / ((1.0 + num * d) or 1e-300)
            c = (1.0 + num / c) or 1e-300
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})")


def _t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with ``df`` degrees of freedom; nan for a nan ``t``.

    This is I_x(df/2, 1/2), the regularized incomplete beta at x = df/(df+t^2),
    with y = 1 - x passed exactly as t^2/(df+t^2).
    """
    if math.isnan(t):
        return math.nan
    a, t2 = df / 2.0, t * t
    x, y = df / (df + t2), t2 / (df + t2)
    if x <= 0.0 or y <= 0.0:
        return 0.0 if x <= 0.0 else 1.0
    front = math.exp(math.lgamma(a + 0.5) - math.lgamma(a) - math.lgamma(0.5) + a * math.log(x) + 0.5 * math.log(y))
    # The fraction converges fast below this point; above it, use I_x(a, b) = 1 - I_y(b, a).
    if x < (a + 1.0) / (a + 2.5):
        return front * _betacf(a, 0.5, x) / a
    return 1.0 - front * _betacf(0.5, a, y) / 0.5


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-tailed paired Student t-test over per-topic values.

    Returns (t, p) with n-1 degrees of freedom. Zero variance of the
    differences (including a == b) is a degenerate test and raises.

    The p-value is the regularized incomplete beta I_x(v/2, 1/2) at
    x = v / (v + t^2), v = n - 1, from its continued fraction by the
    modified Lentz method with ``math.lgamma`` (Press et al., *Numerical
    Recipes*, section 6.4). Against scipy 1.17.1 it differs by less than
    1e-12 for v up to 1000 and |t| up to 100.
    """
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
    return t, _t_two_sided_p(t, n - 1)


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
        row = {
            "method_a": name_a,
            "method_b": name_b,
            "metric": metric,
            "t": math.nan,
            "p": math.nan,
            "p_adjusted": math.nan,
            "significant": False,
        }
        try:
            t, p = paired_t_test(a_vals, b_vals)
        except DegenerateTestError:
            pass
        else:
            adjusted = bonferroni(p, m)
            row.update(t=t, p=p, p_adjusted=adjusted, significant=adjusted < alpha)
        rows.append(row)
    return rows
