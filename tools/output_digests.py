"""Print the sha256 of every output file of ``rank``, ``multi``, ``analyze``, ``compare`` and ``eval`` on a generated collection.

The collection comes from ``tests/synth.py`` with fixed seeds: three topics of
60 documents and one of 800, whose ``bow`` run units hold several thousand
seed-term postings each, so a listing also sees a change in the order a
unit's postings are summed in. ``rank`` and ``multi`` run under every method
and representation, and ``analyze`` under every representation. ``compare``
tests the ``rank`` metrics of ``sdr-bow`` against those of ``qlm-bow``.
``eval`` scores one run per topic against the collection's qrels: the first
unit of the topic's ``sdr-bow`` ``rank`` run file, keyed by the topic id. Each output file gets one line, ``<sha256>  <path>``,
with the path relative to the output root, in sorted order. Run it against
two commits and diff the two listings: no difference means every run file
and CSV is byte-identical.

    mkdir -p /tmp/base && git archive <base-commit> | tar -x -C /tmp/base
    python tools/output_digests.py /tmp/base > before.txt
    python tools/output_digests.py > after.txt
    diff before.txt after.txt

The optional argument is the checkout whose ``src/seedrank`` runs (default:
the one that holds this file). The inputs always come from this file's
checkout, so both listings rank the same files.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CHECKOUT = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else ROOT
sys.path[:0] = [str(CHECKOUT / "src"), str(ROOT / "tests")]

from seedrank import cli  # noqa: E402
from seedrank.scoring import METHODS  # noqa: E402
from seedrank.vectors import REPRESENTATIONS  # noqa: E402
from synth import (  # noqa: E402
    mixed_case_embedding_terms,
    synth_collection,
    synth_topic,
    write_collection_files,
    write_embeddings_file,
    write_lexicon_file,
)

VOCAB_SIZE = 500


def write_inputs(base: Path) -> list[str]:
    """The collection's files under ``base``, as the command-line flags that name them."""
    topics, corpus = synth_collection(seed=7, n_topics=3, n_docs=60, vocab_size=VOCAB_SIZE, n_relevant=6, irrelevant_overlap=0.3)
    large, documents = synth_topic(np.random.default_rng(8), "T003", 800, VOCAB_SIZE, 6, irrelevant_overlap=0.3)
    topics.append(large)
    corpus.update(documents)
    corpus_path, topics_path, qrels_path = write_collection_files(base, topics, corpus)
    lexicon = write_lexicon_file(base, [f"term{i:04d}" for i in range(0, VOCAB_SIZE, 2)])
    embeddings = write_embeddings_file(base, mixed_case_embedding_terms(VOCAB_SIZE))
    return [
        "--corpus", str(corpus_path), "--topics", str(topics_path), "--qrels", str(qrels_path),
        "--lexicon", str(lexicon), "--embeddings", str(embeddings),
    ]


def first_units(run_dir: Path) -> str:
    """The first unit of each topic's run file in ``run_dir``, its key replaced by the topic id.

    ``rank`` keys a unit ``<topic_id>.<seed_id>``; ``eval`` of such a run finds
    no judged topic and exits 2.
    """
    lines = []
    for path in sorted(run_dir.glob("*.run")):
        fields = [line.split(maxsplit=1) for line in path.read_text(encoding="utf-8").splitlines()]
        lines += [f"{path.stem} {rest}\n" for key, rest in fields if key == fields[0][0]]
    return "".join(lines)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="seedrank-digests-") as tmp:
        base = Path(tmp)
        inputs = write_inputs(base)
        qrels = inputs[inputs.index("--qrels") + 1]
        out = base / "out"
        runs = [(command, method, representation)
                for command in ("rank", "multi") for method in METHODS for representation in REPRESENTATIONS]
        runs += [("analyze", "sdr", representation) for representation in REPRESENTATIONS]
        for command, method, representation in runs:
            target = out / f"{command}-{method}-{representation}"
            argv = ["-q", command, *inputs, "--method", method, "--representation", representation,
                    "--output-dir", str(target)]
            if cli.main(argv) != 0:
                print(f"seedrank {command} --method {method} --representation {representation} failed", file=sys.stderr)
                return 1
        run_path = base / "first-units.run"
        run_path.write_text(first_units(out / "rank-sdr-bow" / "runs" / "sdr-bow"), encoding="utf-8")
        for name, argv in [
            ("compare/rank-sdr-bow-vs-qlm-bow.csv",
             ["compare", "--metrics-a", str(out / "rank-sdr-bow" / "metrics.csv"), "--name-a", "sdr-bow",
              "--metrics-b", str(out / "rank-qlm-bow" / "metrics.csv"), "--name-b", "qlm-bow"]),
            ("eval/rank-sdr-bow-first-units.csv", ["eval", "--run", str(run_path), "--qrels", qrels]),
        ]:
            target = out / name
            target.parent.mkdir()
            if cli.main(["-q", *argv, "--output", str(target)]) != 0:
                print(f"seedrank {argv[0]} failed", file=sys.stderr)
                return 1
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
