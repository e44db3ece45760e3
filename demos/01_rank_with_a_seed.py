"""Rank a handful of candidate studies against one known-relevant seed.

Walks the core pipeline end to end on an inline corpus: tokenize and count
every candidate once into a topic index, take the seed's collection
statistics from it, weigh the seed's terms by how well they separate
seed-like from seed-unlike candidates, then score and rank.
"""

from seedrank import (
    Document,
    PipelineConfig,
    ScoringParams,
    Topic,
    build_index,
    build_stats,
    phi_weights,
    rank,
)

docs = [
    Document("seed", "heart attack risk", "aspirin therapy reduces heart attack recurrence"),
    Document("c1", "aspirin after myocardial infarction", "aspirin lowers heart attack risk in trials"),
    Document("c2", "stroke prevention", "blood pressure medication reduces stroke"),
    Document("c3", "heart rate variability", "exercise training improves heart rate recovery"),
    Document("c4", "diabetes screening", "glucose tolerance testing in primary care"),
]
corpus = {d.doc_id: d for d in docs}
topic = Topic("demo", list(corpus), {"seed": 1, "c1": 1, "c3": 1})

pipeline = PipelineConfig()
params = ScoringParams()

# Peek at the term weights the seed-driven ranker will use. Terms that only
# occur in candidates similar to the seed get boosted, terms spread evenly
# stay near the neutral ln 2 = 0.693.
index = build_index(topic, corpus, "bow", pipeline)
stats = build_stats(index, ["seed"])
weights = {index.terms[col]: w for col, w in zip(stats.seed_terms, phi_weights(stats, params))}

print("seed term weights (phi):")
for term, weight in sorted(weights.items(), key=lambda kv: -kv[1]):
    print(f"  {term:12s} {weight:.4f}")

for method in ("qlm", "sdr", "bm25"):
    # A unit holds the candidates' rows of the index and their scores, in rank order.
    unit = rank(index, ["seed"], method, params)
    ranked = enumerate(zip(unit.rows.tolist(), unit.scores.tolist()), start=1)
    ordering = "  ".join(f"{r}. {unit.doc_ids[row]} ({score:.3f})" for r, (row, score) in ranked)
    print(f"\n{method:>4s}: {ordering}")

print(
    "\nc1 shares the seed's vocabulary and ranks first everywhere; the "
    "seed-driven weights stretch its margin over the rest."
)
