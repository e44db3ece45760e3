"""The evaluation toolkit on a worked example.

A screening-prioritisation run is judged by where it puts the relevant
studies: MAP and nDCG reward early placement, recall@k measures coverage,
and WSS says how much of the candidate list a reviewer could skip after
finding the last relevant one.
"""

from seedrank import bonferroni, metric_set, paired_t_test

run = ["d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8"]
qrels = {"d1": 1, "d3": 1, "d6": 1, "d2": 0, "d4": 0, "d5": 0, "d7": 0, "d8": 0}

print("run:", " > ".join(run))
print("relevant:", sorted(d for d, g in qrels.items() if g))
metrics = metric_set(run, qrels, cutoffs=(5,))
print(f"\nAP      = {metrics['map']:.4f}   (hits at 1, 3, 6)")
print(f"nDCG@5  = {metrics['ndcg@5']:.4f}")
print(f"LastRel = {metrics['lastrel%']:.4f}   (last relevant at rank 6 of 8)")
print(f"WSS     = {metrics['wss']:.4f}   (a quarter of the screening saved)")

print("\nfull metric set:")
for name, value in metrics.items():
    print(f"  {name:8s} {value:.4f}")

# Paired comparison over per-topic scores of two methods.
method_a = [0.42, 0.55, 0.61, 0.38, 0.49, 0.58, 0.47, 0.52]
method_b = [0.35, 0.52, 0.50, 0.36, 0.41, 0.55, 0.40, 0.46]
t, p = paired_t_test(method_a, method_b)
adjusted = bonferroni(p, 12)  # as if 12 metrics were compared at once
print(f"\npaired t-test over 8 topics: t = {t:.3f}, p = {p:.4f}")
print(f"Bonferroni-adjusted for a family of 12: p = {adjusted:.4f}"
      f" -> {'significant' if adjusted < 0.05 else 'not significant'} at 0.05")
