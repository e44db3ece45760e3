"""Benchmark workloads and the seeded generator of their input files.

Every input the program sees is written here from ``(workload, seed)``:
a JSON-lines corpus, a topics file, a qrels file and, for the hybrid
workload, a clinical lexicon and a word2vec text file. The same seed gives
byte-identical files; ``input_properties`` records what was generated
together with a sha256 over all files, so a change to the generator shows
in every result.

Text model: about 20k pseudo-words with Zipf frequencies, PubMed-like
titles (8-18 words) and abstracts (120-260 tokens), English stopwords,
sentence capitals, upper-case acronyms, hyphenated compounds, commas,
brackets and percentages. The ``ours`` and ``lee`` tokenizers therefore
give different tokens. Relevant studies draw extra tokens from a per-topic
sub-vocabulary; a minority of irrelevant studies does too, so rankings are
good but imperfect. Topics differ in size.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
GENERATOR_VERSION = 1

# All of these are in the program's bundled English stopword list, so the
# tokenizers drop them; they make up the function words of the text.
STOPWORDS = (
    "the of and in to a with for was were is are that this by on at from as be "
    "or an we than which these after between during not no our into their"
).split()

VOCAB_SIZE = 20_000
SUBVOCAB_SIZE = 150
TITLE_WORDS = (8, 18)
ABSTRACT_TOKENS = (120, 260)
STOPWORD_SHARE = 0.30
RELEVANT_TOPIC_SHARE = 0.30
NEAR_MISS_SHARE = 0.10
NEAR_MISS_TOPIC_SHARE = 0.12
IRRELEVANT_TOPIC_SHARE = 0.02
LEXICON_SHARE = 0.30
EMBEDDING_DIM = 100
# Seed-group size as a share of a topic's relevant studies. The command line
# never passes --fraction, so this mirrors RunConfig.fraction's default.
GROUP_FRACTION = 0.2


@dataclass(frozen=True)
class Workload:
    """One named CLI command over generated inputs.

    ``topics`` holds (candidates, relevant) per topic; ``units`` counts the
    ``rank()`` calls the command makes, which ``units_per_s`` is based on.
    """

    name: str
    why: str
    command: str
    method: str
    representation: str
    workers: int
    topics: tuple[tuple[int, int], ...]
    lexicon: bool = False
    embeddings: bool = False

    @property
    def units(self) -> int:
        total = 0
        for _, relevant in self.topics:
            total += relevant
            if self.command == "multi":
                total += len(group_windows(relevant))
        return total


def group_windows(n_relevant: int) -> list[tuple[int, int]]:
    """(start, width) of each sliding seed group, as ``make_groups`` defines them."""
    width = max(2, math.ceil(GROUP_FRACTION * n_relevant))
    return [(i, width) for i in range(n_relevant - width + 1)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="loocv-sdr-bow",
            why="single-seed leave-one-out sdr/bow on one worker, the criterion-8 shape: "
            "tokenize, collection stats, tf-idf and sdr_score per seed",
            command="rank",
            method="sdr",
            representation="bow",
            workers=1,
            topics=((1100, 3), (900, 3)),
        ),
        Workload(
            name="multi-sdr-w2",
            why="seed groups with undersampled phi, oracle runs and two evaluations per group "
            "on two workers; the only user of the pool and derive_rng; unequal topics",
            command="multi",
            method="sdr",
            representation="bow",
            workers=2,
            topics=((170, 12), (100, 10)),
        ),
        Workload(
            name="hybrid-aes-boc",
            why="sdr+aes over the clinical lexicon: case-preserving second tokenization, "
            "embedding averages per candidate and a 20k x 100 embedding file to load",
            command="rank",
            method="sdr+aes",
            representation="boc",
            workers=1,
            topics=((900, 3), (650, 3)),
            lexicon=True,
            embeddings=True,
        ),
    )
}


def _pseudo_words(rng: np.random.Generator, n: int) -> list[str]:
    onsets = "b c d f g h k l m n p r s t v z br cl dr fl gr pl pr st tr th ch".split()
    vowels = "a e i o u ae ia io".split()
    codas = ["", "", "n", "s", "l", "r", "x", "m"]
    stop = set(STOPWORDS)
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < n:
        k = int(rng.integers(2, 5))
        parts = [
            onsets[int(rng.integers(len(onsets)))] + vowels[int(rng.integers(len(vowels)))]
            for _ in range(k)
        ]
        word = "".join(parts) + codas[int(rng.integers(len(codas)))]
        if word not in seen and word not in stop:
            seen.add(word)
            words.append(word)
    return words


def _zipf_cdf(n: int) -> np.ndarray:
    weights = 1.0 / (np.arange(n) + 2.7) ** 1.05
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def _sample(rng: np.random.Generator, cdf: np.ndarray, size: int) -> np.ndarray:
    return np.minimum(np.searchsorted(cdf, rng.random(size)), len(cdf) - 1)


def _surface(rng: np.random.Generator, words: list[str], capitalize_first: bool) -> str:
    """Render content words and stopwords as punctuated, mixed-case prose."""
    out: list[str] = []
    start = True
    i = 0
    n = len(words)
    rolls = rng.random((n, 4))
    while i < n:
        word = words[i]
        roll = rolls[i]
        if roll[0] < 0.03 and i + 1 < n:
            word = f"{word}-{words[i + 1]}"
            i += 1
        if roll[1] < 0.02:
            word = word.upper()
        elif start and capitalize_first:
            word = word[:1].upper() + word[1:]
        if roll[2] < 0.015:
            word = f"({word})"
        elif roll[2] > 0.99:
            word = f"{int(roll[3] * 1000) / 10}%"
        start = False
        if roll[3] < 0.08:
            word += ","
        elif roll[3] > 0.93:
            word += "."
            start = True
        out.append(word)
        i += 1
    text = " ".join(out)
    return text if text.endswith(".") else text + "."


def _document_words(
    rng: np.random.Generator,
    vocab: list[str],
    cdf: np.ndarray,
    subvocab: np.ndarray,
    topic_share: float,
    length: int,
) -> list[str]:
    content = _sample(rng, cdf, length)
    from_topic = rng.random(length) < topic_share
    content[from_topic] = subvocab[rng.integers(len(subvocab), size=int(from_topic.sum()))]
    words = [vocab[j] for j in content]
    for pos in np.flatnonzero(rng.random(length) < STOPWORD_SHARE):
        words[pos] = STOPWORDS[int(rng.integers(len(STOPWORDS)))]
    return words


def generate(workload: Workload, seed: int, out_dir: Path) -> dict:
    """Write the workload's input files into ``out_dir`` and describe them."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, GENERATOR_VERSION, *workload.name.encode("utf-8")])
    vocab = _pseudo_words(rng, VOCAB_SIZE)
    cdf = _zipf_cdf(VOCAB_SIZE)

    doc_ids = rng.choice(90_000_000, size=sum(n for n, _ in workload.topics), replace=False) + 10_000_000
    docs: list[tuple[str, str, str]] = []
    topic_lines: list[str] = []
    qrel_lines: list[str] = []
    subvocabs = []
    relevant_per_topic = []
    next_id = 0
    for t, (n_docs, n_relevant) in enumerate(workload.topics):
        topic_id = f"CD{seed % 1000:03d}{t:03d}"
        subvocab = rng.choice(np.arange(200, 6000), size=SUBVOCAB_SIZE, replace=False)
        subvocabs.append(subvocab)
        relevant_at = set(rng.choice(n_docs, size=n_relevant, replace=False).tolist())
        relevant_per_topic.append(n_relevant)
        for i in range(n_docs):
            doc_id = str(int(doc_ids[next_id]))
            next_id += 1
            if i in relevant_at:
                share = RELEVANT_TOPIC_SHARE
            elif rng.random() < NEAR_MISS_SHARE:
                share = NEAR_MISS_TOPIC_SHARE
            else:
                share = IRRELEVANT_TOPIC_SHARE
            n_title = int(rng.integers(TITLE_WORDS[0], TITLE_WORDS[1] + 1))
            n_abstract = int(rng.integers(ABSTRACT_TOKENS[0], ABSTRACT_TOKENS[1] + 1))
            title = _surface(rng, _document_words(rng, vocab, cdf, subvocab, share, n_title), True)
            if rng.random() < 0.1:
                title = title.title()
            abstract = _surface(rng, _document_words(rng, vocab, cdf, subvocab, share, n_abstract), True)
            docs.append((doc_id, title.rstrip("."), abstract))
            topic_lines.append(f"{topic_id} {doc_id}\n")
            qrel_lines.append(f"{topic_id} 0 {doc_id} {1 if i in relevant_at else 0}\n")

    files = {
        "corpus": "".join(
            json.dumps({"doc_id": d, "title": ti, "abstract": ab}, ensure_ascii=False) + "\n"
            for d, ti, ab in docs
        ),
        "topics": "".join(topic_lines),
        "qrels": "".join(qrel_lines),
    }
    if workload.lexicon:
        in_topic = np.unique(np.concatenate(subvocabs))
        chosen = set(rng.choice(VOCAB_SIZE, size=int(LEXICON_SHARE * VOCAB_SIZE), replace=False).tolist())
        chosen.update(rng.choice(in_topic, size=len(in_topic) // 2, replace=False).tolist())
        files["lexicon"] = "".join(
            (vocab[j].upper() if j % 17 == 0 else vocab[j]) + "\n" for j in sorted(chosen)
        )
    if workload.embeddings:
        vectors = rng.normal(0.0, 1.0, size=(VOCAB_SIZE, EMBEDDING_DIM))
        for subvocab in subvocabs:
            vectors[subvocab] += rng.normal(0.0, 1.0, size=EMBEDDING_DIM)
        scaled = np.rint(vectors * 1e4).astype(np.int64)
        lines = [f"{VOCAB_SIZE} {EMBEDDING_DIM}\n"]
        for word, row in zip(vocab, scaled.tolist()):
            lines.append(word + " " + " ".join(f"{v / 1e4:.4f}" for v in row) + "\n")
        files["embeddings"] = "".join(lines)

    digest = hashlib.sha256()
    paths = {}
    for kind in sorted(files):
        data = files[kind].encode("utf-8")
        path = out_dir / f"{kind}.txt"
        path.write_bytes(data)
        paths[kind] = str(path)
        digest.update(kind.encode("utf-8") + b"\0" + data + b"\0")

    tokens = sum(len(ti.split()) + len(ab.split()) for _, ti, ab in docs)
    return {
        "paths": paths,
        "properties": {
            "generator_version": GENERATOR_VERSION,
            "seed": seed,
            "docs": len(docs),
            "tokens": tokens,
            "vocabulary": VOCAB_SIZE,
            "candidates_per_topic": [n for n, _ in workload.topics],
            "relevant_per_topic": relevant_per_topic,
            "lexicon_terms": files["lexicon"].count("\n") if "lexicon" in files else 0,
            "embedding_rows": VOCAB_SIZE if workload.embeddings else 0,
            "bytes": {kind: len(files[kind].encode("utf-8")) for kind in sorted(files)},
            "input_sha256": digest.hexdigest(),
        },
    }
