"""Tests of the benchmark itself (not of seedrank): run with

    python3 -m pytest -q bench/tests
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from check import Checker, read_topics, summarize  # noqa: E402
from workloads import WORKLOADS, Workload, generate  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "rank": Workload(
        name="tiny-rank", why="", command="rank", method="sdr+aes", representation="boc",
        workers=1, topics=((40, 3), (30, 2)), lexicon=True, embeddings=True,
    ),
    "multi": Workload(
        name="tiny-multi", why="", command="multi", method="sdr", representation="bow",
        workers=2, topics=((60, 6), (70, 5)),
    ),
}


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generator_is_byte_deterministic(tmp_path):
    workload = TINY["rank"]
    first = generate(workload, 7, tmp_path / "a")
    second = generate(workload, 7, tmp_path / "b")
    other = generate(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert first["properties"] == second["properties"]
    assert other["properties"]["input_sha256"] != first["properties"]["input_sha256"]
    props = first["properties"]
    assert props["relevant_per_topic"] == [3, 2] and props["docs"] == 70


@pytest.fixture(scope="module")
def server():
    with run.SampleServer() as s:
        yield s


def _command(server, workload, paths, out_dir, mode, tmp_path):
    spec = {
        "argv": run.cli_argv(workload, paths, out_dir, workload.workers),
        "spans_out": str(tmp_path / f"spans-{mode}.json"),
        "aes_candidates": run.aes_candidates(workload),
    }
    record = server.sample(mode, spec)
    assert record["rc"] == 0, record
    return record


@pytest.mark.parametrize("kind", sorted(TINY))
def test_tracing_leaves_outputs_unchanged(server, tmp_path, kind):
    workload = TINY[kind]
    paths = generate(workload, 3, tmp_path / "in")["paths"]
    _command(server, workload, paths, tmp_path / "plain", "command", tmp_path)
    traced = _command(server, workload, paths, tmp_path / "traced", "trace", tmp_path)

    plain_files = summarize(tmp_path / "plain")["files"]
    assert plain_files and plain_files == summarize(tmp_path / "traced")["files"]
    checker = Checker(workload, read_topics(paths["topics"], paths["qrels"]), None)
    assert checker.check(tmp_path / "traced")["failed"] == {}

    layers = traced["layers"]
    assert layers["experiments.units"] == workload.units
    assert layers["trace.coverage"] >= run.MIN_COVERAGE
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(per_layer) == sorted([*layers, "trace.overhead_s"])


def _span(span_id, parent, name, thread, start, end, self_s, hot=None, attrs=None):
    return {
        "id": span_id, "parent": parent, "name": name, "layer": name.partition(".")[0],
        "thread": thread, "start": start, "end": end, "self_s": self_s, "hot": hot or {}, "attrs": attrs,
    }


def test_coverage_counts_only_named_functions_on_every_thread():
    hot = {"scoring.sdr_score": {"calls": 10, "busy_s": 0.5, "self_s": 0.5, "count": 0}}
    spans = [
        _span(1, None, "bench.command", 1, 0.0, 4.0, 0.1),
        _span(2, 1, "cli.cmd_multi", 1, 0.0, 4.0, 0.2),
        _span(3, 2, "cli._run_pool", 1, 0.5, 3.5, 0.1, attrs={"workers": 2}),
        _span(4, 3, "cli.topic", 2, 0.5, 3.5, 0.5),
        _span(5, 4, "scoring.rank", 2, 0.5, 3.0, 2.0, hot),
        _span(6, 3, "cli.topic", 3, 0.5, 2.5, 0.0),
        _span(7, 6, "scoring.rank", 3, 0.5, 2.5, 2.0),
        _span(8, 2, "corpus.load_corpus", 1, 0.0, 0.5, 0.5),
        _span(9, 2, "corpus.write_run", 1, 3.5, 3.7, 0.2, attrs={"lines": 3}),
    ]
    # Thread time: 4.0 on the command thread less its 3.0 s wait on the
    # workers, plus 3.0 and 2.0 on the two workers.
    assert tracing.thread_time(spans) == pytest.approx(6.0)
    layers = tracing.layer_metrics(spans, 0, 0)
    # Named self time: pool 0.1, two ranks 2.0 + 2.0, sdr_score 0.5, corpus 0.7.
    assert layers["trace.coverage"] == pytest.approx(5.3 / 6.0)
    assert layers["cli.self_s"] == pytest.approx(0.8)


def test_checker_catches_a_changed_ranking(server, tmp_path):
    workload = TINY["rank"]
    paths = generate(workload, 5, tmp_path / "in")["paths"]
    out = tmp_path / "out"
    _command(server, workload, paths, out, "command", tmp_path)
    topics = read_topics(paths["topics"], paths["qrels"])
    reference = summarize(out)
    assert Checker(workload, topics, reference).check(out)["failed"] == {}

    run_file = next(out.glob("runs/*/*.run"))
    lines = run_file.read_text(encoding="utf-8").splitlines()
    a, b = lines[0].split(), lines[1].split()
    a[2], b[2] = b[2], a[2]
    run_file.write_text("\n".join([" ".join(a), " ".join(b), *lines[2:]]) + "\n", encoding="utf-8")
    result = Checker(workload, topics, reference).check(out)
    assert result["failed"] and not result["byte_identical"]["run_files"]

    metrics_csv = out / "metrics.csv"
    table = metrics_csv.read_text(encoding="utf-8").splitlines()
    cross_topic = next(i for i, row in enumerate(table) if row.startswith("ALL,"))
    table[cross_topic] = table[cross_topic].rpartition(",")[0] + ",nan"
    metrics_csv.write_text("\n".join(table) + "\n", encoding="utf-8")
    failed = Checker(workload, topics, None).check(out)["failed"]
    assert len(failed) == workload.units and "non-finite" in next(iter(failed.values()))

    a[4], b[4] = "1.0", "2.0"
    run_file.write_text("\n".join([" ".join(a), " ".join(b), *lines[2:]]) + "\n", encoding="utf-8")
    failed = Checker(workload, topics, None).check(out)["failed"]
    assert any("scores increase" in reason for reason in failed.values())

    run_file.write_text("not a run line\n", encoding="utf-8")
    failed = Checker(workload, topics, None).check(out)["failed"]
    assert len(failed) == workload.units and "malformed" in next(iter(failed.values()))


def test_names_and_units_match_the_contract():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in SPEC["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
