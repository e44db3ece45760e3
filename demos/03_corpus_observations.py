"""Check the two corpus observations that motivate seed-driven ranking.

1. Relevant studies of a topic are more similar to each other than randomly
   sampled irrelevant ones are (pairwise tf-idf cosine; the irrelevant side
   is under-sampled ten times to the size of the relevant set).
2. Terms of relevant studies are heavily shared, and restricting to a
   curated lexicon concentrates that sharing further.
"""

import numpy as np

from seedrank import Document, PipelineConfig, Topic, build_index, intra_similarity, term_commonality

rng = np.random.default_rng(3)
clinical = [f"sign{i}" for i in range(15)]
misc = [f"word{i}" for i in range(150)]


def make_topic(topic_id):
    corpus = {}
    judgments = {}
    for i in range(36):
        doc_id = f"{topic_id}-{i:02d}"
        relevant = i < 6
        # Relevant docs are two-thirds clinical vocabulary, one-third noise;
        # irrelevant docs are noise only.
        words = []
        for _ in range(25):
            pool = clinical if relevant and rng.random() < 0.66 else misc
            words.append(str(rng.choice(pool)))
        corpus[doc_id] = Document(doc_id, "", " ".join(words))
        judgments[doc_id] = 1 if relevant else 0
    return Topic(topic_id, list(corpus), judgments), corpus


pipeline = PipelineConfig()

print(f"{'topic':>6s} {'relevant':>9s} {'irrelevant':>10s}")
for t in range(5):
    topic, corpus = make_topic(f"T{t}")
    rel_mean, irrel_mean = intra_similarity(build_index(topic, corpus, "bow", pipeline), rng_seed=1)
    print(f"{topic.topic_id:>6s} {rel_mean:>9.4f} {irrel_mean:>10.4f}")

# Term commonality on the last topic: how many relevant docs carry each term?
fractions, histogram = term_commonality(build_index(topic, corpus, "bow", pipeline))
print("\nterm spread across the 6 relevant docs (bag of words):")
for docs_containing, n_terms in histogram.items():
    print(f"  in {docs_containing} docs: {n_terms} terms")

lexicon = frozenset(clinical)
_, histogram_lex = term_commonality(build_index(topic, corpus, "boc", pipeline, lexicon=lexicon))
print("restricted to the curated lexicon:")
for docs_containing, n_terms in histogram_lex.items():
    print(f"  in {docs_containing} docs: {n_terms} terms")

widely_shared = sorted(t for t, f in fractions.items() if f == 1.0)
print(f"\nterms present in every relevant doc: {widely_shared}")
