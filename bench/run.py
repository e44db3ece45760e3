"""seedrank benchmark: CLI workloads on seeded synthetic review collections.

    python3 bench/run.py --workload loocv-sdr-bow --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Each sample runs the real CLI (``seedrank.cli.main``) in a fresh process
on files generated from ``--seed``. With ``--trace 0`` the run measures the
end-to-end metrics for ``--seconds``, alternating set-up and command
samples. With ``--trace 1`` it alternates untraced and traced samples and
reports per-layer metrics from the traced ones. Every sample's outputs are
checked (see ``check.py``); outputs from the default seed are compared with
the stored reference, and a run on another seed checks one extra
default-seed command first. ``--workload all`` runs every workload in both
modes and prints one table.

Human-readable lines go first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. A full record
of each run (inputs, environment, samples, checks, the seed commit's first
measurements) is written to ``bench/_out/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
sys.path.insert(0, str(BENCH))

from check import Checker, read_topics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload, generate  # noqa: E402

SETUP_SAMPLES = 7
MIN_COMMAND_SAMPLES = 3
MIN_COVERAGE = 0.9
CHILD_TIMEOUT_S = 100

E2E_UNITS = {"units_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark itself cannot run (missing program, broken child)."""


def _generator_digest() -> str:
    return hashlib.sha256((BENCH / "workloads.py").read_bytes()).hexdigest()[:16]


def inputs_for(workload: Workload, seed: int) -> dict:
    """Generated input files for (workload, seed).

    The default seed's files, which every run checks against the reference,
    are kept while the generator is unchanged; others go away with the run.
    """
    if seed == DEFAULT_SEED:
        directory = OUT / "inputs" / f"{workload.name}-{seed}-{_generator_digest()}"
    else:
        directory = OUT / "work" / f"inputs-{workload.name}-{seed}"
    record = directory / "inputs.json"
    if record.is_file():
        return json.loads(record.read_text(encoding="utf-8"))
    shutil.rmtree(directory, ignore_errors=True)
    info = generate(workload, seed, directory)
    record.write_text(json.dumps(info, indent=1), encoding="utf-8")
    return info


def load_reference(workload: Workload) -> dict | None:
    path = BENCH / "reference" / f"{workload.name}.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else None


def cli_argv(workload: Workload, paths: dict, out_dir: Path, workers: int) -> list[str]:
    argv = [
        "-q", workload.command,
        "--corpus", paths["corpus"], "--topics", paths["topics"], "--qrels", paths["qrels"],
        "--output-dir", str(out_dir),
        "--method", workload.method, "--representation", workload.representation,
        "--workers", str(workers),
    ]
    if workload.lexicon:
        argv += ["--lexicon", paths["lexicon"]]
    if workload.embeddings:
        argv += ["--embeddings", paths["embeddings"]]
    return argv


def setup_sample(spec: dict) -> dict:
    """One set-up sample in a new interpreter."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), "setup", json.dumps(dict(spec, src=str(SRC)))],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=str(ROOT),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"set-up sample took over {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("set-up sample failed: " + " | ".join(proc.stderr.strip().splitlines()[-3:]))
    return json.loads(lines[-1])


class SampleServer:
    """``child.py serve``: forks one fresh process per command sample."""

    def __enter__(self) -> "SampleServer":
        OUT.mkdir(parents=True, exist_ok=True)
        self._log = open(OUT / "server-stderr.txt", "w", encoding="utf-8")
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), "serve", json.dumps({"src": str(SRC)})],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log, text=True,
            cwd=str(ROOT), start_new_session=True,
        )
        return self

    def sample(self, mode: str, spec: dict) -> dict:
        self._proc.stdin.write(json.dumps({"mode": mode, "spec": spec}) + "\n")
        self._proc.stdin.flush()
        ready, _, _ = select.select([self._proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = self._proc.stdout.readline() if ready else ""
        if not line:
            raise BenchError(f"no reply from the sample server within {CHILD_TIMEOUT_S} s")
        return json.loads(line)

    def __exit__(self, *exc) -> None:
        try:
            self._proc.stdin.close()
            self._proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        if self._proc.poll() is None:
            os.killpg(self._proc.pid, signal.SIGKILL)
            self._proc.wait()
        self._log.close()


def aes_candidates(workload: Workload) -> int:
    """Candidates scored by AES in one command: each unit ranks its topic minus its seed."""
    if not workload.embeddings:
        return 0
    return sum(r * (n - 1) for n, r in workload.topics)


class Session:
    """One workload at one seed: inputs, checker and the samples taken."""

    def __init__(self, server: SampleServer, workload: Workload, seed: int, require_reference: bool = True):
        self.server = server
        self.workload = workload
        self.seed = seed
        self.info = inputs_for(workload, seed)
        self.paths = self.info["paths"]
        reference = None
        if seed == DEFAULT_SEED and require_reference:
            reference = load_reference(workload)
            if reference is None:
                raise BenchError(f"no stored reference for {workload.name}")
            if reference["input_sha256"] != self.info["properties"]["input_sha256"]:
                raise BenchError(f"reference for {workload.name} was made from other inputs")
        self.checker = Checker(workload, read_topics(self.paths["topics"], self.paths["qrels"]), reference)
        self.attempted = 0
        self.failures: dict = {}
        self.problems: list[str] = []
        self.byte_identical: list = []
        self.counter = 0

    def command(self, mode: str = "command", workers: int | None = None, keep: bool = False) -> dict:
        """One checked command sample; returns the child's record plus its check."""
        self.counter += 1
        out_dir = OUT / "work" / f"{self.workload.name}-{self.seed}-{self.counter}"
        shutil.rmtree(out_dir, ignore_errors=True)
        spec = {
            "argv": cli_argv(self.workload, self.paths, out_dir, workers or self.workload.workers),
            "spans_out": str(OUT / "results" / f"spans-{self.workload.name}-{self.seed}.json"),
            "aes_candidates": aes_candidates(self.workload),
        }
        (OUT / "results").mkdir(parents=True, exist_ok=True)
        record = self.server.sample(mode, spec)
        self.attempted += len(self.checker.units)
        if record.get("rc") != 0:
            reason = f"command exited {record.get('rc')}: {record.get('error', '')}"
            failed = {unit: reason for unit in self.checker.units}
        else:
            result = self.checker.check(out_dir)
            failed = result["failed"]
            if result["byte_identical"] is not None:
                self.byte_identical.append(result["byte_identical"])
            if keep:
                record["summary"] = result["summary"]
        for unit, reason in failed.items():
            self.failures.setdefault(f"{mode}#{self.counter} {unit[0]}/{unit[1]}", reason)
        record["failed_units"] = len(failed)
        shutil.rmtree(out_dir, ignore_errors=True)
        return record

    def setup(self) -> float:
        return setup_sample({k: self.paths.get(k) for k in ("corpus", "topics", "qrels", "lexicon", "embeddings")})["setup_s"]

    @property
    def failed(self) -> int:
        return len(self.failures)


def default_seed_check(server: SampleServer, workload: Workload) -> Session:
    """One command on the default-seed inputs, compared with the stored reference."""
    session = Session(server, workload, DEFAULT_SEED)
    session.command()
    return session


def measure(server: SampleServer, workload: Workload, seed: int, seconds: float) -> dict:
    """End-to-end metrics: set-up and command samples until the deadline."""
    extra = default_seed_check(server, workload) if seed != DEFAULT_SEED else None
    session = Session(server, workload, seed)
    deadline = time.perf_counter() + seconds
    setups: list[float] = []
    samples: list[dict] = []
    while len(samples) < MIN_COMMAND_SAMPLES or time.perf_counter() < deadline:
        if len(setups) < SETUP_SAMPLES:
            setups.append(session.setup())
        samples.append(session.command())
    while len(setups) < SETUP_SAMPLES:
        setups.append(session.setup())
    ok = [s for s in samples if s.get("rc") == 0]
    if not ok:
        raise BenchError("every command sample failed: " + samples[0].get("error", ""))
    units = workload.units
    metrics = {
        "units_per_s": [units / s["wall_s"] for s in ok],
        "setup_s": setups,
        "peak_rss_mb": [s["maxrss_kb"] / 1024.0 for s in ok],
    }
    sessions = [session] + ([extra] if extra else [])
    return {
        "session": session,
        "sessions": sessions,
        "values": metrics,
        "metrics": {k: {"value": statistics.median(v), "unit": E2E_UNITS[k]} for k, v in metrics.items()},
        "samples": {"setup_s": setups, "command": [{k: s.get(k) for k in ("rc", "wall_s", "cpu_s", "maxrss_kb", "failed_units")} for s in samples]},
    }


def per_layer(server: SampleServer, workload: Workload, seed: int, seconds: float) -> dict:
    """Per-layer metrics from traced samples, paired with untraced ones for the overhead.

    Each pair runs on the same inputs; which side runs first alternates.
    """
    session = Session(server, workload, seed)
    deadline = time.perf_counter() + seconds
    pairs = []
    problems: list[str] = []
    attempts = 0
    while attempts < MIN_COMMAND_SAMPLES and not pairs or time.perf_counter() < deadline:
        attempts += 1
        if attempts % 2:
            plain = session.command(keep=True)
            traced = session.command(mode="trace", keep=True)
        else:
            traced = session.command(mode="trace", keep=True)
            plain = session.command(keep=True)
        if not plain.get("summary") or not traced.get("summary"):
            continue
        if plain["summary"]["files"] != traced["summary"]["files"]:
            problems.append("traced outputs differ from untraced outputs")
        layers = traced["layers"]
        if layers["experiments.units"] != workload.units:
            problems.append(f"traced {layers['experiments.units']} rank() calls, expected {workload.units}")
        if layers["trace.coverage"] < MIN_COVERAGE:
            problems.append(f"layer self times cover {layers['trace.coverage']:.3f} of the command")
        layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        pairs.append(layers)
    if not pairs:
        raise BenchError("every traced pair failed: " + next(iter(session.failures.values()), ""))
    session.problems.extend(sorted(set(problems)))
    names = list(pairs[0])
    return {
        "session": session,
        "sessions": [session],
        "values": {n: [p[n] for p in pairs] for n in names},
        "metrics": {n: {"value": statistics.median(p[n] for p in pairs), "unit": layer_unit(n)} for n in names},
        "samples": {"pairs": len(pairs)},
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s") or "_s_" in name:
        return "s"
    if name.endswith(("_ratio", "_per_candidate", ".coverage")):
        return "ratio"
    if name.endswith("bytes_read"):
        return "bytes"
    return "count"


def environment() -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_one(server: SampleServer, name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    result = (per_layer if trace else measure)(server, workload, seed, seconds)
    sessions = result["sessions"]
    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    failures = {k: v for s in sessions for k, v in s.failures.items()}
    problems = [p for s in sessions for p in s.problems]
    byte_identical = [b for s in sessions for b in s.byte_identical]
    baseline_path = BENCH / "baseline.json"
    baseline = json.loads(baseline_path.read_text(encoding="utf-8")) if baseline_path.is_file() else {}
    record = {
        "workload": {"name": name, "why": workload.why, "command": workload.command,
                     "method": workload.method, "representation": workload.representation,
                     "workers": workload.workers, "units": workload.units},
        "inputs": result["session"].info["properties"],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "metrics": result["metrics"],
        "values": result["values"],
        "samples": result["samples"],
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 0.0,
        "failures": dict(list(failures.items())[:20]),
        "problems": problems,
        "correct": failed == 0 and not problems,
        "byte_identical": byte_identical,
        "baseline": baseline.get(name),
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def print_record(record: dict) -> None:
    name = record["workload"]["name"]
    n = record["samples"].get("pairs") or len(record["samples"].get("command", []))
    for metric, entry in record["metrics"].items():
        values = record["values"][metric]
        print(f"{name:16s} {metric:36s} {entry['value']:>14.6g} {entry['unit']:6s}"
              f" median of {len(values)} (min {min(values):.6g}, max {max(values):.6g})")
    print(f"{name:16s} {'error_rate':36s} {record['error_rate']:>14.6g} {'ratio':6s}"
          f" {record['failed']} of {record['attempted']} units failed; {n} samples")
    for key, reason in record["failures"].items():
        print(f"{name:16s} FAILED {key}: {reason}")
    for problem in record["problems"]:
        print(f"{name:16s} FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "seedrank" / "cli.py").is_file():
        print(f"seedrank sources not found under {SRC}", file=sys.stderr)
        return 2
    runs = [(w, t) for w in WORKLOADS for t in (False, True)] if args.workload == "all" else [(args.workload, bool(args.trace))]
    try:
        with SampleServer() as server:
            records = [run_one(server, w, args.seed, args.seconds, t) for w, t in runs]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(OUT / "work", ignore_errors=True)

    for record in records:
        print_record(record)
    metrics = (
        records[0]["metrics"] if len(records) == 1
        else {f"{r['workload']['name']}:{k}": v for r in records for k, v in r["metrics"].items()}
    )
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = all(r["correct"] for r in records)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
