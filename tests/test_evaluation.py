import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import ref_average_precision, ref_ndcg_at, ref_precision_at, ref_recall_at
from seedrank import (
    ContractError,
    DegenerateTestError,
    UndefinedMetricError,
    average_precision,
    bonferroni,
    last_rel_percent,
    metric_set,
    ndcg_at,
    paired_t_test,
    precision_at,
    ranked_metrics,
    recall_at,
    wss,
)
from seedrank.evaluation import significance_rows


def qrels(relevant, irrelevant=()):
    out = {d: 1 for d in relevant}
    out.update({d: 0 for d in irrelevant})
    return out


class TestAveragePrecision:
    def test_relevant_at_ranks_one_and_three(self):
        # (1 + 2/3) / 2
        run = ["d1", "d2", "d3"]
        assert average_precision(run, qrels(["d1", "d3"])) == pytest.approx(0.8333333333, abs=1e-9)

    def test_perfect_ranking(self):
        run = ["a", "b", "c", "x"]
        assert average_precision(run, qrels(["a", "b", "c"])) == 1.0

    def test_unretrieved_relevant_contributes_zero(self):
        assert average_precision(["d1"], qrels(["d1", "missing"])) == pytest.approx(0.5)

    def test_no_relevant_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            average_precision(["d1"], qrels([], ["d1"]))


class TestPrecisionRecall:
    def test_precision_at_10(self):
        run = [f"d{i}" for i in range(10)]
        assert precision_at(run, qrels(["d0", "d5"]), 10) == pytest.approx(0.2)

    def test_full_recall(self):
        run = [f"d{i}" for i in range(100)]
        rel = [f"d{i}" for i in range(5)]
        assert recall_at(run, qrels(rel), 100) == 1.0

    def test_short_run_pads_with_nonrelevant(self):
        assert precision_at(["d1", "d2", "d3"], qrels(["d1"]), 10) == pytest.approx(0.1)

    def test_recall_without_relevant_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            recall_at(["d1"], qrels([]), 10)


class TestNdcg:
    def test_perfect_ranking(self):
        assert ndcg_at(["a", "b", "x"], qrels(["a", "b"]), 3) == pytest.approx(1.0)

    def test_hand_example(self):
        # gains [1,0,1]: DCG = 1 + 1/log2(4) = 1.5; IDCG = 1 + 1/log2(3)
        value = ndcg_at(["a", "x", "b"], qrels(["a", "b"]), 3)
        expected = 1.5 / (1.0 + 1.0 / math.log2(3))
        assert value == pytest.approx(expected, abs=1e-9)
        assert value == pytest.approx(0.9197, abs=1e-4)

    def test_no_relevant_in_top_k(self):
        assert ndcg_at(["x", "y"], qrels(["a"]), 2) == 0.0


class TestLastRelWss:
    def test_direct_formula(self):
        run = [f"d{i}" for i in range(10)]
        judged = qrels(["d0", "d2"])
        assert last_rel_percent(run, judged) == pytest.approx(0.3)
        assert wss(run, judged) == pytest.approx(0.7)

    def test_last_position(self):
        run = ["a", "b"]
        assert wss(run, qrels(["b"])) == 0.0

    def test_first_position_only(self):
        run = ["a", "b", "c", "d"]
        assert last_rel_percent(run, qrels(["a"])) == pytest.approx(0.25)
        assert wss(run, qrels(["a"])) == pytest.approx(0.75)

    def test_nothing_retrieved_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            last_rel_percent(["a"], qrels(["b"]))


def random_case(rng):
    n = int(rng.integers(1, 9))
    run = [f"d{i}" for i in range(n)]
    pool = run + [f"m{i}" for i in range(int(rng.integers(0, 3)))]
    relevant = [d for d in pool if rng.random() < 0.4]
    return run, qrels(relevant, [d for d in pool if d not in relevant])


class TestOracleEquivalence:
    def test_hundred_random_small_runs(self):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 100:
            run, judged = random_case(rng)
            if sum(judged.values()) == 0:
                continue
            checked += 1
            assert average_precision(run, judged) == pytest.approx(
                ref_average_precision(run, judged), abs=1e-9
            )
            for k in (1, 3, 10):
                assert precision_at(run, judged, k) == pytest.approx(
                    ref_precision_at(run, judged, k), abs=1e-9
                )
                assert recall_at(run, judged, k) == pytest.approx(
                    ref_recall_at(run, judged, k), abs=1e-9
                )
                assert ndcg_at(run, judged, k) == pytest.approx(
                    ref_ndcg_at(run, judged, k), abs=1e-9
                )

    def test_wss_lastrel_complement(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 50:
            run, judged = random_case(rng)
            if not any(judged.get(d, 0) >= 1 for d in run):
                continue
            checked += 1
            assert wss(run, judged) + last_rel_percent(run, judged) == pytest.approx(1.0, abs=1e-12)

    def test_reversal_minimizes_ap_and_ndcg(self):
        # A perfect ranking reversed is the worst permutation on binary gains.
        import itertools

        run = ["a", "b", "c", "x", "y"]
        judged = qrels(["a", "b", "c"])
        reversed_run = list(reversed(run))
        for perm in itertools.permutations(run):
            assert average_precision(list(perm), judged) >= average_precision(reversed_run, judged) - 1e-12
            assert ndcg_at(list(perm), judged, 5) >= ndcg_at(reversed_run, judged, 5) - 1e-12

    @given(st.integers(2, 200))
    def test_rank_invariance_under_score_transform(self, n):
        # Metrics read only the ordering, so they cannot change under any
        # positive monotone transformation of scores; asserting on the id
        # sequence is equivalent.
        run = [f"d{i}" for i in range(n)]
        judged = qrels(run[:2])
        assert average_precision(run, judged) == average_precision(list(run), judged)


class TestMetricSet:
    def test_keys_and_complement(self):
        run = [f"d{i}" for i in range(12)]
        out = metric_set(run, qrels(["d0", "d3"]))
        assert out["map"] == pytest.approx((1 + 2 / 4) / 2)
        assert set(out) == {
            "map",
            "p@10", "r@10", "ndcg@10",
            "p@100", "r@100", "ndcg@100",
            "p@1000", "r@1000", "ndcg@1000",
            "lastrel%", "wss",
        }
        assert out["wss"] + out["lastrel%"] == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= v <= 1.0 for v in out.values())

    def test_lastrel_omitted_when_undefined(self):
        out = metric_set(["d1"], qrels(["other"]))
        assert "wss" not in out and "lastrel%" not in out


def case(flags, missed=0):
    """A run whose i-th document is relevant when ``flags[i]``, plus ``missed`` relevant documents it does not retrieve."""
    run = [f"d{i}" for i in range(len(flags))]
    return run, {d: int(flag) for d, flag in zip(run, flags)} | {f"m{i}": 1 for i in range(missed)}


judged_runs = st.builds(case, st.lists(st.booleans(), min_size=1, max_size=30), st.integers(0, 4))


def loop_metric_set(run, judged, cutoffs):
    """The metrics as a loop over the whole run adds them: the bit-for-bit reference of the vector core."""
    total = sum(1 for g in judged.values() if g >= 1)
    flags = [judged.get(d, 0) >= 1 for d in run]
    hits, precision_sum = 0, 0.0
    for r, flag in enumerate(flags, start=1):
        if flag:
            hits += 1
            precision_sum += hits / r
    out = {"map": precision_sum / total}
    for k in cutoffs:
        found = sum(1 for flag in flags[:k] if flag)
        dcg = 0.0
        for r, flag in enumerate(flags[:k], start=1):
            if flag:
                dcg += 1.0 / math.log2(r + 1)
        idcg = sum(1.0 / math.log2(r + 1) for r in range(1, min(k, total) + 1))
        out |= {f"p@{k}": found / k, f"r@{k}": found / total, f"ndcg@{k}": dcg / idcg if idcg else 0.0}
    if any(flags):
        last = max(r for r, flag in enumerate(flags, start=1) if flag)
        out |= {"lastrel%": last / len(run), "wss": 1.0 - last / len(run)}
    return out


class TestMetricCore:
    """``ranked_metrics`` over a 0/1 vector is the one metric core; the list functions adapt to it."""

    @settings(max_examples=300, deadline=None)
    @given(judged_runs, st.lists(st.integers(1, 40), min_size=1, max_size=4))
    @example(case([True]), [1, 5])  # one-document run, k > n
    @example(case([False, False], missed=2), [1, 3])  # no relevant retrieved
    @example(case([False, True, False], missed=4), [2, 40])  # more relevant than retrieved
    def test_core_equals_list_functions_and_references(self, judged_case, cutoffs):
        run, judged = judged_case
        relevant = np.array([judged[d] >= 1 for d in run])
        total = sum(g >= 1 for g in judged.values())
        if total == 0:
            with pytest.raises(UndefinedMetricError):
                ranked_metrics(relevant, total, cutoffs)
            return
        core = ranked_metrics(relevant, total, cutoffs)
        # Bit for bit: the list functions go through the same code, and it adds as a loop over the run adds.
        bits = [(k, v.hex()) for k, v in core.items()]
        assert bits == [(k, v.hex()) for k, v in metric_set(run, judged, cutoffs).items()]
        assert bits == [(k, v.hex()) for k, v in loop_metric_set(run, judged, cutoffs).items()]
        assert core["map"].hex() == average_precision(run, judged).hex()
        assert abs(core["map"] - ref_average_precision(run, judged)) <= 1e-12
        for k in cutoffs:
            assert core[f"p@{k}"].hex() == precision_at(run, judged, k).hex()
            assert core[f"r@{k}"].hex() == recall_at(run, judged, k).hex()
            assert core[f"ndcg@{k}"].hex() == ndcg_at(run, judged, k).hex()
            assert abs(core[f"p@{k}"] - ref_precision_at(run, judged, k)) <= 1e-12
            assert abs(core[f"r@{k}"] - ref_recall_at(run, judged, k)) <= 1e-12
            assert abs(core[f"ndcg@{k}"] - ref_ndcg_at(run, judged, k)) <= 1e-12
        if relevant.any():
            last = max(i for i, flag in enumerate(relevant, start=1) if flag)
            assert core["lastrel%"].hex() == last_rel_percent(run, judged).hex()
            assert core["wss"].hex() == wss(run, judged).hex()
            assert core["lastrel%"] == last / len(run)
        else:
            assert "lastrel%" not in core and "wss" not in core
            with pytest.raises(UndefinedMetricError):
                last_rel_percent(run, judged)

    def test_cutoff_below_one(self):
        with pytest.raises(ContractError):
            ranked_metrics(np.array([True]), 1, (0,))


class TestPairedTTest:
    def test_identical_samples_degenerate(self):
        with pytest.raises(DegenerateTestError):
            paired_t_test([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])

    def test_table_example(self):
        # differences {1, 3}: mean 2, sd sqrt(2), t = 2, df = 1
        t, p = paired_t_test([2.0, 4.0], [1.0, 1.0])
        assert t == pytest.approx(2.0, abs=1e-12)
        assert p == pytest.approx(0.2952, abs=1e-4)

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            paired_t_test([1.0], [1.0, 2.0])

    def test_matches_scipy(self):
        from scipy import stats as sps

        rng = np.random.default_rng(5)
        a = rng.random(12)
        b = rng.random(12)
        t, p = paired_t_test(list(a), list(b))
        expected = sps.ttest_rel(a, b)
        assert t == pytest.approx(expected.statistic, abs=1e-9)
        assert p == pytest.approx(expected.pvalue, abs=1e-9)


class TestBonferroni:
    def test_scales_p(self):
        assert bonferroni(0.01, 5) == pytest.approx(0.05)

    def test_caps_at_one(self):
        assert bonferroni(0.4, 5) == 1.0


class TestSignificanceRows:
    def test_rows_schema(self):
        a = {"map": {"T1": 0.5, "T2": 0.7, "T3": 0.4}}
        b = {"map": {"T1": 0.3, "T2": 0.6, "T3": 0.35}}
        (row,) = significance_rows("m1", "m2", a, b, ["map"])
        assert row["method_a"] == "m1" and row["metric"] == "map"
        assert row["p_adjusted"] == pytest.approx(min(1.0, row["p"]))
        assert isinstance(row["significant"], bool)

    def test_degenerate_metric_yields_nan_row(self):
        a = {"map": {"T1": 0.5, "T2": 0.7}}
        (row,) = significance_rows("m1", "m2", a, a, ["map"])
        assert math.isnan(row["t"]) and row["significant"] is False
