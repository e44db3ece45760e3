"""Use several seed studies at once and compare against an oracle baseline.

The seed pool is windowed (width = 20% of the pool, floored at 2, stride 1)
and each window is concatenated into one pseudo-seed. Because leave-one-out
evaluation makes single- and multi-seed runs incomparable, the baseline for
each window is an oracle: take the best member's single run and delete the
other members from it, so both runs rank the same candidates.
"""

import numpy as np

from seedrank import (
    Document,
    PipelineConfig,
    ScoringParams,
    Topic,
    build_index,
    evaluate_unit,
    loocv_single,
    make_groups,
    multi_sdr,
    oracle_single,
)

rng = np.random.default_rng(7)
shared = [f"core{i}" for i in range(12)]          # vocabulary of the relevant docs
background = [f"noise{i}" for i in range(120)]    # everything else


def synth_doc(doc_id, relevant):
    # Relevant docs mix half shared and half background vocabulary, and some
    # irrelevant docs borrow shared words, so no ranking is trivially perfect.
    words = []
    for _ in range(30):
        if relevant:
            pool = shared if rng.random() < 0.5 else background
        else:
            pool = shared if rng.random() < 0.12 else background
        words.append(str(rng.choice(pool)))
    return Document(doc_id, f"study {doc_id}", " ".join(words))


corpus = {}
judgments = {}
for i in range(40):
    doc_id = f"d{i:02d}"
    relevant = i < 8
    corpus[doc_id] = synth_doc(doc_id, relevant)
    judgments[doc_id] = 1 if relevant else 0
topic = Topic("demo", list(corpus), judgments)

pipeline = PipelineConfig()
params = ScoringParams()

groups = make_groups(topic.topic_id, topic.relevant_ids)
width = len(groups[0].member_ids)
print(f"seed pool of {len(topic.relevant_ids)} -> {len(groups)} windows of width {width}")

# One index serves the single runs and every window's multi run.
index = build_index(topic, corpus, "bow", pipeline)
# The oracle picks each window's best member by the single runs' MAP in the
# leave-one-out report.
single_report, single_runs = loocv_single(index, "sdr", params)

print(f"\n{'window':>6s} {'members':<12s} {'oracle MAP':>10s} {'multi MAP':>10s}")
oracle_maps, multi_maps = [], []
for group in groups:
    multi_run = multi_sdr(index, group, "sdr", params)
    oracle_run = oracle_single(single_report, group, single_runs)
    # A run is its candidate rows in rank order; the index flags the relevant rows.
    o_map = evaluate_unit(oracle_run, index.relevant)["map"]
    m_map = evaluate_unit(multi_run, index.relevant)["map"]
    oracle_maps.append(o_map)
    multi_maps.append(m_map)
    members = "+".join(m[-2:] for m in group.member_ids)
    print(f"{group.unit:>6s} {members:<12s} {o_map:>10.4f} {m_map:>10.4f}")

o_mean = float(np.mean(oracle_maps))
m_mean = float(np.mean(multi_maps))
print(f"\nmeans: oracle {o_mean:.4f}, multi {m_mean:.4f} "
      f"({(m_mean - o_mean) / o_mean * 100:+.1f}% from pooling the seeds)")
