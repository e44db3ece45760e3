"""Benchmark samples, each in a fresh process.

    python3 bench/child.py setup '<spec json>'   import seedrank.cli and run the loaders
    python3 bench/child.py serve '<spec json>'   fork one process per command sample

``setup`` starts a new interpreter per sample and prints the time from
before the import of ``seedrank.cli`` to after the last loader.

``serve`` imports ``seedrank.cli`` once, then reads one request per stdin
line, ``{"mode": "command" | "trace", "spec": {...}}``, forks a process
that runs ``seedrank.cli.main(spec["argv"])``, waits for it and prints one
JSON reply line: the wall time of ``main``, its return code and the
process's peak resident set size. The fork spares each command sample the
interpreter start and the imports, which ``setup`` measures on its own. In
``trace`` mode the forked process installs the tracer first, writes its
spans to ``spec["spans_out"]`` and adds the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter


def setup(spec: dict) -> dict:
    t0 = perf_counter()
    import seedrank.cli as cli

    cli.load_corpus(spec["corpus"])
    cli.load_topics(spec["topics"], spec["qrels"])
    if spec.get("lexicon"):
        cli.load_lexicon(spec["lexicon"])
    if spec.get("embeddings"):
        cli.load_embeddings(spec["embeddings"])
    return {"setup_s": perf_counter() - t0}


def command(spec: dict, traced: bool) -> dict:
    import seedrank.cli as cli

    tracer = root = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        root = tracer.open("bench.command", "bench")
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = perf_counter()
    rc = cli.main(spec["argv"])
    wall = perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    out = {"rc": rc, "wall_s": wall, "cpu_s": cpu, "maxrss_kb": after.ru_maxrss}
    if tracer is not None:
        from tracing import layer_metrics

        tracer.close(root)
        tracer.finish()
        spans = tracer.dump()
        Path(spec["spans_out"]).write_text(json.dumps(spans), encoding="utf-8")
        out["layers"] = layer_metrics(spans, len(tracer.bow_docs), spec["aes_candidates"])
    return out


def _sample(request: dict) -> dict:
    """Fork, run one command in the child, return its reply."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        os.dup2(2, 1)
        try:
            reply = command(request["spec"], request["mode"] == "trace")
        except BaseException:
            reply = {"rc": 1, "error": traceback.format_exc(limit=-3)}
        with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(reply))
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not data:
        return {"rc": code or 1, "error": f"sample process ended with status {code}"}
    return json.loads(data)


def serve() -> None:
    import seedrank.cli  # noqa: F401  (imported once; every sample forks from here)

    for line in sys.stdin:
        print(json.dumps(_sample(json.loads(line))), flush=True)


def main() -> int:
    mode, spec = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, spec["src"])
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    if mode == "setup":
        print(json.dumps(setup(spec)))
    elif mode == "serve":
        serve()
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
