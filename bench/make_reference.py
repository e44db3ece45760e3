"""Store the reference outputs the benchmark compares default-seed runs with.

    python3 bench/make_reference.py [workload ...]

Runs each workload's command once on its default-seed inputs with
``--workers 1`` and writes ``bench/reference/<workload>.json``: the input
sha256, a sha256 of every unit's ranking, the sha256 of every output file
and the full ``metrics.csv`` / ``oracle_comparison.csv`` rows. Run it only
on a commit whose outputs are known to be right; the stored references
were made from the seed commit of the benchmark.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import BENCH, OUT, SampleServer, Session
from workloads import DEFAULT_SEED, WORKLOADS


def make(server: SampleServer, name: str) -> None:
    workload = WORKLOADS[name]
    session = Session(server, workload, DEFAULT_SEED, require_reference=False)
    record = session.command(workers=1, keep=True)
    if record.get("rc") != 0 or session.failures:
        raise SystemExit(f"{name}: reference command failed: {record.get('error') or session.failures}")
    reference = {
        "workload": name,
        "workers": 1,
        "input_sha256": session.info["properties"]["input_sha256"],
        **{k: record["summary"][k] for k in ("rankings", "files", "tables")},
    }
    path = BENCH / "reference" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(BENCH.parent)}")


if __name__ == "__main__":
    try:
        with SampleServer() as server:
            for name in sys.argv[1:] or list(WORKLOADS):
                make(server, name)
    finally:
        shutil.rmtree(OUT / "work", ignore_errors=True)
