"""Output checks for one command's outputs.

Every sample is checked for structure: each run unit ranks exactly its
topic's candidates minus its seeds (minus the group members for seed-group
and oracle runs), ranks run 1..n, scores are finite and non-increasing,
and every unit has finite rows in ``metrics.csv`` (and in
``oracle_comparison.csv`` for ``multi``).

Outputs made from the default seed are also compared with the reference
stored under ``bench/reference``: rankings must be identical and every
CSV value within ``TOLERANCE``. Byte identity of the run files and of the
CSVs is reported separately, for information.

A unit is one ``rank()`` call. A ``multi`` command's single-seed units
write no run file of their own; they fail when an oracle run of their
topic fails, because the oracle runs are cut from them.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

from workloads import Workload, group_windows

TOLERANCE = 1e-12


def read_topics(topics_path: str, qrels_path: str) -> dict[str, dict]:
    """topic -> {"candidates": [...], "relevant": [...]} in file order."""
    topics: dict[str, dict] = {}
    with open(topics_path, encoding="utf-8") as fh:
        for line in fh:
            topic_id, doc_id = line.split()
            topics.setdefault(topic_id, {"candidates": [], "relevant": []})["candidates"].append(doc_id)
    with open(qrels_path, encoding="utf-8") as fh:
        for line in fh:
            topic_id, _, doc_id, grade = line.split()
            if int(grade) >= 1:
                topics[topic_id]["relevant"].append(doc_id)
    return topics


def run_units(workload: Workload, topics: dict[str, dict]) -> dict[tuple[str, str], dict]:
    """Every run-file unit the command must write: (kind, run key) -> unit info."""
    units = {}
    tag = f"{workload.method}-{workload.representation}"
    for topic_id, topic in topics.items():
        candidates = topic["candidates"]
        relevant = topic["relevant"]
        if workload.command == "rank":
            for seed in relevant:
                units[(tag, f"{topic_id}.{seed}")] = {
                    "topic": topic_id, "unit": seed, "excluded": {seed}, "candidates": candidates,
                }
            continue
        for start, width in group_windows(len(relevant)):
            members = set(relevant[start : start + width])
            for kind in (f"{tag}-multi", f"{tag}-oracle"):
                units[(kind, f"{topic_id}.w{start}")] = {
                    "topic": topic_id, "unit": f"w{start}", "excluded": members, "candidates": candidates,
                }
    return units


def accounting_units(workload: Workload, topics: dict[str, dict]) -> list[tuple[str, str]]:
    """(topic, unit) for every rank() call; len() equals ``workload.units``."""
    out = []
    for topic_id, topic in topics.items():
        out.extend((topic_id, seed) for seed in topic["relevant"])
        if workload.command == "multi":
            windows = group_windows(len(topic["relevant"]))
            out.extend((topic_id, f"w{start}") for start, _ in windows)
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_run(path: Path) -> dict[str, list[tuple[str, int, float]]]:
    by_key: dict[str, list[tuple[str, int, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, doc_id, rank, score, _ = line.split()
            by_key.setdefault(key, []).append((doc_id, int(rank), float(score)))
    return by_key


def _run_problem(entries, candidates, excluded) -> str | None:
    entries = sorted(entries, key=lambda e: e[1])
    if [e[1] for e in entries] != list(range(1, len(entries) + 1)):
        return "ranks are not 1..n"
    docs = [e[0] for e in entries]
    expected = [d for d in candidates if d not in excluded]
    if len(docs) != len(expected) or set(docs) != set(expected):
        return "ranked documents are not the candidates minus the seeds"
    scores = [e[2] for e in entries]
    if not all(math.isfinite(s) for s in scores):
        return "non-finite score"
    if any(a < b for a, b in zip(scores, scores[1:])):
        return "scores increase with rank"
    return None


def summarize(out_dir: Path) -> dict:
    """Parsed runs, rankings, file digests and CSV rows of one command's outputs.

    Raises ValueError or IndexError on a malformed run file or CSV.
    """
    runs = {}
    rankings = {}
    files = {}
    for path in sorted(out_dir.glob("runs/*/*.run")):
        files[path.relative_to(out_dir).as_posix()] = _sha(path.read_bytes())
        for key, entries in _read_run(path).items():
            runs[(path.parent.name, key)] = entries
            order = "\n".join(d for d, _, _ in sorted(entries, key=lambda e: e[1]))
            rankings[f"{path.parent.name}/{key}"] = _sha(order.encode("utf-8"))
    tables = {}
    for name in ("metrics.csv", "oracle_comparison.csv"):
        path = out_dir / name
        if path.is_file():
            files[name] = _sha(path.read_bytes())
            with open(path, encoding="utf-8", newline="") as fh:
                tables[name] = list(csv.reader(fh))
            if any(len(row) < 4 for row in tables[name]):
                raise ValueError(f"{name}: row with fewer than 4 columns")
    return {"runs": runs, "rankings": rankings, "files": files, "tables": tables}


def _close(actual: str, expected: str) -> bool:
    if actual == expected:
        return True
    try:
        a, b = float(actual), float(expected)
    except ValueError:
        return False
    return math.isfinite(a) and abs(a - b) <= TOLERANCE * max(1.0, abs(b))


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


class Checker:
    """Checks one workload's outputs; collects failed units with a reason."""

    def __init__(self, workload: Workload, topics: dict[str, dict], reference: dict | None):
        self.workload = workload
        self.topics = topics
        self.reference = reference
        self.units = accounting_units(workload, topics)
        self.unit_set = set(self.units)
        self.run_units = run_units(workload, topics)

    def check(self, out_dir: Path) -> dict:
        """{"failed": {unit: reason}, "byte_identical": {...} or None, "summary": ... or None}."""
        failed: dict[tuple[str, str], str] = {}

        def fail(topic, unit, reason):
            if unit is None:
                for t, u in self.units:
                    if topic in (None, t):
                        failed.setdefault((t, u), reason)
            else:
                failed.setdefault((topic, unit), reason)

        try:
            summary = summarize(out_dir)
        except (ValueError, IndexError) as exc:
            fail(None, None, f"malformed output: {exc}")
            return {"failed": failed, "byte_identical": None, "summary": None}

        for (kind, key), info in self.run_units.items():
            entries = summary["runs"].get((kind, key))
            problem = "missing run" if entries is None else _run_problem(entries, info["candidates"], info["excluded"])
            if problem:
                fail(info["topic"], info["unit"], f"{kind}/{key}: {problem}")
                if kind.endswith("-oracle"):
                    for seed in self.topics[info["topic"]]["relevant"]:
                        fail(info["topic"], seed, f"{kind}/{key}: {problem}")

        csv_units = {(t, u) for t, u in self.units if self.workload.command == "rank" or u.startswith("w")}
        for name in ("metrics.csv", "oracle_comparison.csv"):
            if name == "oracle_comparison.csv" and self.workload.command != "multi":
                continue
            rows = summary["tables"].get(name)
            if rows is None:
                fail(None, None, f"{name} missing")
                continue
            seen = set()
            for row in rows[1:]:
                seen.add((row[0], row[1]))
                if not all(_finite(v) or v == "" for v in row[3:]):
                    topic = None if row[0] == "ALL" else row[0]
                    fail(topic, row[1] if (row[0], row[1]) in csv_units else None, f"{name}: non-finite value")
            for topic, unit in csv_units - seen:
                fail(topic, unit, f"{name}: no rows")

        identical = None
        if self.reference is not None:
            identical = self._compare(summary, fail)
        return {"failed": failed, "byte_identical": identical, "summary": summary}

    def _compare(self, summary: dict, fail) -> dict:
        ref = self.reference
        for name, digest in ref["rankings"].items():
            if summary["rankings"].get(name) != digest:
                kind, _, key = name.partition("/")
                info = self.run_units.get((kind, key))
                fail(info["topic"] if info else None, info["unit"] if info else None, f"ranking differs: {name}")
        for name, ref_rows in ref["tables"].items():
            rows = summary["tables"].get(name, [])
            actual = {tuple(r[:3]): r[3:] for r in rows[1:]}
            expected = {tuple(r[:3]): r[3:] for r in ref_rows[1:]}
            for key in actual.keys() | expected.keys():
                a, e = actual.get(key), expected.get(key)
                if a is None or e is None or len(a) != len(e) or not all(map(_close, a, e)):
                    topic, unit = key[0], key[1]
                    known = (topic, unit) in self.unit_set
                    fail(None if topic == "ALL" else topic, unit if known else None, f"{name}: {key} differs")
        runs = {k: v for k, v in summary["files"].items() if k.startswith("runs/")}
        ref_runs = {k: v for k, v in ref["files"].items() if k.startswith("runs/")}
        csvs = {k: v for k, v in summary["files"].items() if not k.startswith("runs/")}
        ref_csvs = {k: v for k, v in ref["files"].items() if not k.startswith("runs/")}
        return {"run_files": runs == ref_runs, "csvs": csvs == ref_csvs}
