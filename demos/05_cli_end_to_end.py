"""Drive the command line end to end on a generated dataset.

Writes a small corpus/topics/qrels trio into a scratch directory, runs the
leave-one-out experiment for two methods, evaluates, analyzes, and finishes
with the paired significance comparison, exactly as one would from a shell:

    seedrank rank --config config.yaml
    seedrank multi --config config.yaml
    seedrank eval --run ... --qrels ...
    seedrank analyze --config config.yaml
    seedrank compare --metrics-a ... --metrics-b ...
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import yaml

from seedrank.cli import main

rng = np.random.default_rng(11)
base = Path(tempfile.mkdtemp(prefix="seedrank-demo-"))
print("working in", base)

# A corpus of 4 topics x 30 candidates; the first 4 per topic are relevant
# and lean on a narrow vocabulary that some irrelevant docs also borrow.
shared = [f"sign{i}" for i in range(20)]
misc = [f"word{i}" for i in range(200)]
with open(base / "corpus.jsonl", "w") as corpus_fh, \
     open(base / "topics.txt", "w") as topics_fh, \
     open(base / "qrels.txt", "w") as qrels_fh:
    for t in range(4):
        topic_id = f"T{t}"
        for i in range(30):
            doc_id = f"{topic_id}-d{i:02d}"
            relevant = i < 4
            words = []
            for _ in range(25):
                if relevant:
                    pool = shared if rng.random() < 0.6 else misc
                else:
                    pool = shared if rng.random() < 0.15 else misc
                words.append(str(rng.choice(pool)))
            record = {
                "doc_id": doc_id,
                "title": f"study {i}",
                "abstract": " ".join(words),
            }
            corpus_fh.write(json.dumps(record) + "\n")
            topics_fh.write(f"{topic_id} {doc_id}\n")
            qrels_fh.write(f"{topic_id} 0 {doc_id} {int(relevant)}\n")

config = {
    "corpus": str(base / "corpus.jsonl"),
    "topics": str(base / "topics.txt"),
    "qrels": str(base / "qrels.txt"),
    "method": "sdr",
    "representation": "bow",
    "rng_seed": 42,
    "output_dir": str(base / "sdr-out"),
}
(base / "config.yaml").write_text(yaml.safe_dump(config))

print("\n$ seedrank rank --config config.yaml")
assert main(["-q", "rank", "--config", str(base / "config.yaml")]) == 0

print("$ seedrank rank ... --method qlm   (baseline for the comparison)")
assert main(["-q", "rank", "--config", str(base / "config.yaml"),
             "--method", "qlm", "--output-dir", str(base / "qlm-out")]) == 0

print("$ seedrank multi --config config.yaml --output-dir multi-out")
assert main(["-q", "multi", "--config", str(base / "config.yaml"),
             "--output-dir", str(base / "multi-out")]) == 0

print("$ seedrank analyze --config config.yaml --output-dir analysis-out")
assert main(["-q", "analyze", "--config", str(base / "config.yaml"),
             "--output-dir", str(base / "analysis-out")]) == 0

# The leave-one-out files key each ranking as topic.seed, so for the plain
# eval command build one run per topic with the library and score it against
# the raw qrels (the excluded seed then counts as an unretrieved relevant).
from seedrank import PipelineConfig, Run, ScoringParams, build_index, load_corpus, load_topics, rank, write_run

corpus = load_corpus(base / "corpus.jsonl")
topics = load_topics(base / "topics.txt", base / "qrels.txt")
units = []
for topic in topics:
    index = build_index(topic, corpus, "bow", PipelineConfig())
    units.append(rank(index, [topic.relevant_ids[0]], "sdr", ScoringParams(rng_seed=42)))
write_run(Run(tuple(units)), base / "first_seed.run")

print("$ seedrank eval --run first_seed.run --qrels qrels.txt")
assert main(["-q", "eval", "--run", str(base / "first_seed.run"),
             "--qrels", str(base / "qrels.txt"),
             "--output", str(base / "eval.csv")]) == 0
for line in (base / "eval.csv").read_text().splitlines():
    if line.startswith("ALL,") or line.startswith("topic_id"):
        print("   ", line)

print("\n$ seedrank compare --metrics-a sdr --metrics-b qlm")
assert main(["-q", "compare",
             "--metrics-a", str(base / "sdr-out" / "metrics.csv"),
             "--metrics-b", str(base / "qlm-out" / "metrics.csv"),
             "--name-a", "sdr", "--name-b", "qlm"]) == 0

print("\nartifacts:")
for path in sorted(base.rglob("*.csv")):
    print(" ", path.relative_to(base))
