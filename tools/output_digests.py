"""Print the sha256 of every output file of ``rank``, ``multi`` and ``analyze`` on a generated collection.

The collection comes from ``tests/synth.py`` with a fixed seed. ``rank`` and
``multi`` run under every method and representation, and ``analyze`` under
every representation. Each output file gets one line, ``<sha256>  <path>``,
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

ROOT = Path(__file__).resolve().parents[1]
CHECKOUT = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else ROOT
sys.path[:0] = [str(CHECKOUT / "src"), str(ROOT / "tests")]

from seedrank import cli  # noqa: E402
from seedrank.scoring import METHODS  # noqa: E402
from seedrank.vectors import REPRESENTATIONS  # noqa: E402
from synth import (  # noqa: E402
    mixed_case_embedding_terms,
    synth_collection,
    write_collection_files,
    write_embeddings_file,
    write_lexicon_file,
)

VOCAB_SIZE = 500


def write_inputs(base: Path) -> list[str]:
    """The collection's files under ``base``, as the command-line flags that name them."""
    topics, corpus = synth_collection(seed=7, n_topics=3, n_docs=60, vocab_size=VOCAB_SIZE, n_relevant=6, irrelevant_overlap=0.3)
    corpus_path, topics_path, qrels_path = write_collection_files(base, topics, corpus)
    lexicon = write_lexicon_file(base, [f"term{i:04d}" for i in range(0, VOCAB_SIZE, 2)])
    embeddings = write_embeddings_file(base, mixed_case_embedding_terms(VOCAB_SIZE))
    return [
        "--corpus", str(corpus_path), "--topics", str(topics_path), "--qrels", str(qrels_path),
        "--lexicon", str(lexicon), "--embeddings", str(embeddings),
    ]


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="seedrank-digests-") as tmp:
        base = Path(tmp)
        inputs = write_inputs(base)
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
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
