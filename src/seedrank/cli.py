"""Command-line surface: rank, multi, eval, analyze, compare.

Every command is a thin composition of library calls driven by one
declarative config file (YAML or JSON). Config keys can be overridden by
``SEEDRANK_``-prefixed environment variables, and those in turn by command
line flags. All outputs are plain files written atomically; a fixed
``rng_seed`` makes them byte-reproducible. Topics run one at a time on the
calling thread; ``workers`` is accepted and validated but has no effect.
``rank`` and ``multi`` evaluate and write each run unit from its arrays
(``corpus.RunUnit``); only ``eval`` reads runs back as ``RunEntry`` lines.

Output layout under ``output_dir``:
    runs/<method>-<repr>/<topic>.run            leave-one-out runs
    runs/<method>-<repr>-multi/<topic>.run      seed-group runs
    runs/<method>-<repr>-oracle/<topic>.run     oracle-filtered single runs
    metrics.csv                                 topic_id,seed_or_window,metric,value
    oracle_comparison.csv                       single-vs-multi per window
    analysis/intra_similarity.csv               observation analyses
    analysis/term_commonality.csv
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from . import corpus as corpus_io
from .corpus import Run, filter_topics, load_corpus, load_embeddings, load_lexicon, load_run, load_topics
from .errors import ConfigError, InsufficientDocumentsError, SeedRankError
from .evaluation import DEFAULT_CUTOFFS, metric_set, significance_rows
from .experiments import (
    ExperimentReport,
    evaluate_unit,
    loocv_single,
    make_groups,
    multi_sdr,
    oracle_single,
    intra_similarity,
    term_commonality,
)
from .scoring import AES_METHODS, METHODS, ScoringParams
from .text import OURS, PipelineConfig, default_stopwords, kept_term
from .vectors import REPRESENTATIONS, build_index

log = logging.getLogger("seedrank")

ENV_PREFIX = "SEEDRANK_"

# Groups evaluated per topic for multi runs need at least one relevant study
# left over after removing a window of width max(2, ceil(0.2 N)), hence 3.
MULTI_MIN_RELEVANT = 3


@dataclasses.dataclass
class RunConfig:
    """Everything an experiment needs, mirrored 1:1 by config keys and flags."""

    corpus: str | None = None
    topics: str | None = None
    qrels: str | None = None
    lexicon: str | None = None
    embeddings: str | None = None
    stopwords: str | None = None
    output_dir: str = "out"
    method: str = "sdr"
    representation: str = "bow"
    variant: str = OURS
    include_title: bool = True
    jm_lambda: float = 0.7
    aes_alpha: float = 0.3
    bm25_k1: float = 1.2
    bm25_b: float = 0.75
    undersample_cap: int = 50
    fraction: float = 0.2
    repetitions: int = 10
    min_relevant: int = 2
    rng_seed: int = 0
    workers: int = 1  # validated but unused: topics run one at a time


_BOOL_STRINGS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _coerce(field: dataclasses.Field, raw, source: str):
    if raw is None:
        return None
    base = {str: str, int: int, float: float, bool: bool}
    target = None
    for t, conv in base.items():
        if field.type in (t.__name__, f"{t.__name__} | None"):
            target = t
            break
    if target is None:
        target = str
    if target is bool:
        if isinstance(raw, bool):
            return raw
        key = str(raw).strip().lower()
        if key not in _BOOL_STRINGS:
            raise ConfigError(field.name, f"expected a boolean, got {raw!r} (from {source})")
        return _BOOL_STRINGS[key]
    # int() and float() would take True for 1 and cut 2.7 to 2.
    truncated = target is int and isinstance(raw, float) and not raw.is_integer()
    if truncated or (isinstance(raw, bool) and target in (int, float)):
        raise ConfigError(field.name, f"expected {target.__name__}, got {raw!r} (from {source})")
    try:
        return target(raw)
    except (TypeError, ValueError):
        raise ConfigError(field.name, f"expected {target.__name__}, got {raw!r} (from {source})")


def _parse_yaml(path: str, raw: bytes):
    """The YAML document in ``raw``; undecodable bytes, bad YAML and a repeated key raise ConfigError at ``path:line``."""
    # Imported here: only a config file needs it, and it costs about 20 ms.
    import yaml

    class UniqueKeyLoader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):
            first_line = {}
            for key_node, _ in node.value:
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue  # merged keys may be overridden
                key = self.construct_object(key_node, deep=deep)
                line = key_node.start_mark.line + 1
                try:
                    first = first_line.get(key)
                except TypeError:
                    continue  # an unhashable key, which the base class reports
                if first is not None:
                    raise ConfigError("config", f"{path}:{line}: key {key!r} repeats (first at line {first})")
                first_line[key] = line
            return super().construct_mapping(node, deep=deep)

    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ConfigError("config", f"{path}:{line}: byte 0x{raw[exc.start]:02x} is not valid UTF-8") from None
    try:
        return yaml.load(text, Loader=UniqueKeyLoader)
    except yaml.MarkedYAMLError as exc:
        # YAML marks count lines from 0.
        detail = f"{path}:{exc.problem_mark.line + 1}: invalid YAML: {exc.problem}"
        if exc.context_mark is not None:
            detail += f" ({exc.context} from line {exc.context_mark.line + 1})"
        raise ConfigError("config", detail) from None
    except yaml.reader.ReaderError as exc:
        line = text.count("\n", 0, exc.position) + 1
        raise ConfigError("config", f"{path}:{line}: invalid YAML: {exc.reason} {chr(exc.character)!r}") from None


def load_config(path: str | None, flag_overrides: dict) -> RunConfig:
    """Build a RunConfig: defaults < config file < environment < flags."""
    values: dict = {}
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    if path:
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ConfigError("config", str(exc))
        data = _parse_yaml(path, raw) or {}
        if not isinstance(data, dict):
            raise ConfigError("config", "config file must hold a mapping")
        for key, raw in data.items():
            if key not in fields:
                raise ConfigError(key, "unknown config key")
            values[key] = _coerce(fields[key], raw, f"config file {path}")
    for name, field in fields.items():
        env_key = ENV_PREFIX + name.upper()
        if env_key in os.environ:
            values[name] = _coerce(field, os.environ[env_key], f"environment {env_key}")
    for name, raw in flag_overrides.items():
        if raw is not None:
            values[name] = _coerce(fields[name], raw, "command line")
    return RunConfig(**values)


def _require_file(config: RunConfig, field: str):
    value = getattr(config, field)
    if not value:
        raise ConfigError(field, "required path is not set")
    if not Path(value).is_file():
        raise ConfigError(field, f"file not found: {value}")


def _settings(config: RunConfig, stopwords: frozenset[str] | None = None) -> tuple[PipelineConfig, ScoringParams]:
    """The pre-processing and scoring knobs of a config; their classes range-check them."""
    pipeline = PipelineConfig(
        variant=config.variant,
        stopwords=default_stopwords() if stopwords is None else stopwords,
        include_title=config.include_title,
    )
    params = ScoringParams(
        jm_lambda=config.jm_lambda,
        aes_alpha=config.aes_alpha,
        bm25_k1=config.bm25_k1,
        bm25_b=config.bm25_b,
        undersample_cap=config.undersample_cap,
        rng_seed=config.rng_seed,
    )
    return pipeline, params


def validate_config(config: RunConfig) -> None:
    """Field-level validation; raises ConfigError naming the offending field."""
    if config.method not in METHODS:
        raise ConfigError("method", f"must be one of {METHODS}, got {config.method!r}")
    if config.representation not in REPRESENTATIONS:
        raise ConfigError("representation", f"must be one of {REPRESENTATIONS}, got {config.representation!r}")
    _settings(config)
    for field in ("corpus", "topics", "qrels"):
        _require_file(config, field)
    if config.representation == "boc":
        _require_file(config, "lexicon")
    if config.method in ("aes", "sdr+aes"):
        _require_file(config, "embeddings")
    if config.stopwords:
        _require_file(config, "stopwords")
    if not 0.0 < config.fraction <= 1.0:
        raise ConfigError("fraction", f"must be in (0, 1], got {config.fraction}")
    if config.repetitions < 1:
        raise ConfigError("repetitions", f"must be positive, got {config.repetitions}")
    if config.min_relevant < 2:
        raise ConfigError("min_relevant", f"must be >= 2, got {config.min_relevant}")
    if config.workers < 1:
        raise ConfigError("workers", f"must be positive, got {config.workers}")


@dataclasses.dataclass
class _Resources:
    corpus: dict
    topics: list
    pipeline: PipelineConfig
    params: ScoringParams
    lexicon: object | None
    embeddings: object | None


def _load_resources(config: RunConfig, min_relevant: int) -> _Resources:
    corpus = load_corpus(config.corpus)
    topics = filter_topics(load_topics(config.topics, config.qrels), min_relevant)
    if not topics:
        raise ConfigError("qrels", f"no topic has >= {min_relevant} relevant studies")
    stopwords = load_lexicon(config.stopwords).terms if config.stopwords else None
    pipeline, params = _settings(config, stopwords)
    lexicon = load_lexicon(config.lexicon) if config.lexicon else None
    if lexicon is not None and len(lexicon) == 0:
        log.warning("lexicon %s is empty; every boc representation degenerates", config.lexicon)
    embeddings = None
    if config.embeddings and config.method in AES_METHODS:
        # The terms build_index keeps: it reads the lexicon under boc only.
        term_lexicon = lexicon if config.representation == "boc" else None
        embeddings = load_embeddings(config.embeddings, kept_term(pipeline.stopwords, term_lexicon))
        log.info(
            "kept %d of %d embedding rows: those whose token's lowercase is not a stopword%s",
            len(embeddings.matrix), embeddings.rows_read, "" if term_lexicon is None else " and is in the lexicon",
        )
    return _Resources(corpus, topics, pipeline, params, lexicon, embeddings)


def _atomic_write_run(units: list, path: Path) -> None:
    tmp = path.with_name(path.name + ".tmp")
    corpus_io.write_run(Run(tuple(units)), tmp)
    os.replace(tmp, path)


def _atomic_write_csv(rows: list[list], header: list[str], path: Path) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    os.replace(tmp, path)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _metric_rows(report: ExperimentReport) -> list[list]:
    rows = []
    for topic_id in sorted(report.values):
        for unit, metrics in report.values[topic_id].items():
            for metric, value in metrics.items():
                rows.append([topic_id, unit, metric, _format_value(value)])
    per_topic = report.per_topic_means()
    for metric in report.metric_names():
        for topic_id, value in per_topic.get(metric, {}).items():
            rows.append([topic_id, "mean", metric, _format_value(value)])
    for metric, value in report.cross_topic_means().items():
        rows.append(["ALL", "mean", metric, _format_value(value)])
    return rows


def _comparison_row(topic_id: str, unit: str, metric: str, single: float, multi: float) -> list:
    pct = _format_value((multi - single) / single * 100.0) if single != 0 else ""
    return [topic_id, unit, metric, _format_value(single), _format_value(multi), pct]


def _run_topics(res: _Resources, config: RunConfig, work) -> tuple[list, list]:
    """work(topic, index) for every topic, one topic at a time on the calling thread.

    Each topic is counted once into the index that all its runs and
    analyses share. A SeedRankError, in the index or in the work, fails its
    own topic only. Returns the results of the topics that finished, in
    topic order, and (topic_id, error) for the others.
    """
    if config.workers > 1:
        log.info("workers=%d has no effect: topics run one at a time", config.workers)
    done, failed = [], []
    for topic in res.topics:
        try:
            # No name holds the index, so it is freed before the next topic's is built.
            done.append(work(topic, build_index(
                topic, res.corpus, config.representation, res.pipeline,
                lexicon=res.lexicon, embeddings=res.embeddings,
            )))
        except SeedRankError as exc:
            failed.append((topic.topic_id, exc))
    return done, failed


def _report_failures(failed: list, total: int) -> int:
    """Print one JSON summary naming every failed topic; the exit code."""
    if not failed:
        return 0
    summary = {
        "error": "TopicFailure",
        "detail": f"{len(failed)} of {total} topics failed; the outputs of the others were written",
        "topics": [{"topic_id": t, "error": type(exc).__name__, "detail": str(exc)} for t, exc in failed],
    }
    print(json.dumps(summary), file=sys.stderr)
    return 1


def cmd_rank(config: RunConfig) -> int:
    """Single-seed leave-one-out runs plus their metric table."""
    validate_config(config)
    res = _load_resources(config, config.min_relevant)
    out = Path(config.output_dir)
    run_dir = out / "runs" / f"{config.method}-{config.representation}"
    run_dir.mkdir(parents=True, exist_ok=True)

    total = len(res.topics)

    def work(topic, index):
        report, runs = loocv_single(index, config.method, res.params)
        _atomic_write_run(list(runs.values()), run_dir / f"{topic.topic_id}.run")
        log.info("ranked topic %s (%d seeds)", topic.topic_id, len(runs))
        return report

    reports, failed = _run_topics(res, config, work)
    master = ExperimentReport()
    for report in reports:
        master.merge(report)
    _atomic_write_csv(_metric_rows(master), ["topic_id", "seed_or_window", "metric", "value"], out / "metrics.csv")
    excluded = master.excluded_units()
    if excluded:
        log.warning("units without a retrieved relevant (excluded from means): %s", excluded)
    log.info("wrote %s and %d run files", out / "metrics.csv", total - len(failed))
    return _report_failures(failed, total)


def cmd_multi(config: RunConfig) -> int:
    """Seed-group runs with the oracle single-seed comparison."""
    validate_config(config)
    min_relevant = max(config.min_relevant, MULTI_MIN_RELEVANT)
    res = _load_resources(config, min_relevant)
    # Every topic's windows are checked before any topic is ranked.
    groups_of = {t.topic_id: make_groups(t.topic_id, t.relevant_ids, config.fraction) for t in res.topics}
    out = Path(config.output_dir)
    multi_dir = out / "runs" / f"{config.method}-{config.representation}-multi"
    oracle_dir = out / "runs" / f"{config.method}-{config.representation}-oracle"
    multi_dir.mkdir(parents=True, exist_ok=True)
    oracle_dir.mkdir(parents=True, exist_ok=True)

    def work(topic, index):
        single_report, single_runs = loocv_single(index, config.method, res.params)
        groups = groups_of[topic.topic_id]
        multi_report = ExperimentReport()
        oracle_report = ExperimentReport()
        multi_units = []
        oracle_units = []
        for group in groups:
            m_run = multi_sdr(index, group, config.method, res.params)
            o_run = oracle_single(single_report, group, single_runs)
            multi_units.append(m_run)
            oracle_units.append(o_run)
            multi_report.add(topic.topic_id, group.unit, evaluate_unit(m_run, index.relevant))
            oracle_report.add(topic.topic_id, group.unit, evaluate_unit(o_run, index.relevant))
        _atomic_write_run(multi_units, multi_dir / f"{topic.topic_id}.run")
        _atomic_write_run(oracle_units, oracle_dir / f"{topic.topic_id}.run")
        log.info("topic %s: %d seed groups", topic.topic_id, len(groups))
        return multi_report, oracle_report

    results, failed = _run_topics(res, config, work)
    multi_master = ExperimentReport()
    oracle_master = ExperimentReport()
    for multi_report, oracle_report in results:
        multi_master.merge(multi_report)
        oracle_master.merge(oracle_report)

    _atomic_write_csv(
        _metric_rows(multi_master), ["topic_id", "seed_or_window", "metric", "value"], out / "metrics.csv"
    )

    rows = []
    oracle_values = oracle_master.values
    for topic_id in sorted(multi_master.values):
        for unit, metrics in multi_master.values[topic_id].items():
            oracle_metrics = oracle_values.get(topic_id, {}).get(unit, {})
            for metric, m_value in metrics.items():
                if metric in oracle_metrics:
                    rows.append(_comparison_row(topic_id, unit, metric, oracle_metrics[metric], m_value))
    oracle_means = oracle_master.cross_topic_means()
    for metric, m_value in multi_master.cross_topic_means().items():
        if metric in oracle_means:
            rows.append(_comparison_row("ALL", "mean", metric, oracle_means[metric], m_value))
    _atomic_write_csv(
        rows, ["topic_id", "window", "metric", "single", "multi", "pct_change"], out / "oracle_comparison.csv"
    )
    return _report_failures(failed, len(res.topics))


def cmd_eval(run_path: str, qrels_path: str, cutoffs, output: str | None) -> int:
    """Evaluate any TREC run against a qrels file (no candidate restriction).

    A shared topic with no relevant judgment has no AP or recall; it is
    skipped with a warning that names it.
    """
    entries = load_run(run_path)
    qrels = corpus_io.load_qrels(qrels_path)
    by_topic: dict[str, list] = {}
    for entry in entries:
        by_topic.setdefault(entry.topic_id, []).append(entry)
    shared = [t for t in sorted(by_topic) if t in qrels]
    if not shared:
        raise ConfigError("run", "no run topic has judgments in the qrels file")
    unjudged = [t for t in shared if not any(g >= 1 for g in qrels[t].values())]
    if unjudged:
        log.warning("skipped topics without a relevant judgment: %s", ", ".join(unjudged))
        shared = [t for t in shared if t not in unjudged]
    if not shared:
        raise ConfigError("qrels", "no run topic has a relevant judgment in the qrels file")

    rows = []
    sums: dict[str, list[float]] = {}
    for topic_id in shared:
        run = [e.doc_id for e in sorted(by_topic[topic_id], key=lambda e: e.rank)]
        metrics = metric_set(run, qrels[topic_id], cutoffs)
        for metric, value in metrics.items():
            rows.append([topic_id, metric, _format_value(value)])
            sums.setdefault(metric, []).append(value)
    for metric, values in sums.items():
        rows.append(["ALL", metric, _format_value(sum(values) / len(values))])

    header = ["topic_id", "metric", "value"]
    if output:
        _atomic_write_csv(rows, header, Path(output))
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    return 0


def cmd_analyze(config: RunConfig) -> int:
    """Observation analyses: intra-similarity and term commonality CSVs."""
    validate_config(config)
    # The analyses read term counts only; an embedding table would be loaded and averaged for nothing.
    res = _load_resources(dataclasses.replace(config, embeddings=None), config.min_relevant)
    out = Path(config.output_dir) / "analysis"
    out.mkdir(parents=True, exist_ok=True)

    def work(topic, index):
        try:
            rel_mean, irrel_mean = intra_similarity(index, repetitions=config.repetitions, rng_seed=config.rng_seed)
        except InsufficientDocumentsError as exc:
            log.warning("skipped: %s", exc)
            return [], []
        sim_row = [topic.topic_id, config.representation, _format_value(rel_mean), _format_value(irrel_mean)]
        _, histogram = term_commonality(index)
        n_relevant = len(topic.relevant_ids)
        common_rows = [
            [topic.topic_id, config.representation, docs_containing, n_relevant, n_terms]
            for docs_containing, n_terms in histogram.items()
        ]
        log.info("analyzed topic %s", topic.topic_id)
        return [sim_row], common_rows

    results, failed = _run_topics(res, config, work)
    _atomic_write_csv(
        [row for sim_rows, _ in results for row in sim_rows],
        ["topic_id", "representation", "rel_mean", "irrel_mean"],
        out / "intra_similarity.csv",
    )
    _atomic_write_csv(
        [row for _, common_rows in results for row in common_rows],
        ["topic_id", "representation", "docs_containing", "n_relevant", "n_terms"],
        out / "term_commonality.csv",
    )
    return _report_failures(failed, len(res.topics))


def _per_topic_means_from_csv(path: str) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        expected = {"topic_id", "seed_or_window", "metric", "value"}
        if reader.fieldnames is None or not expected.issubset(reader.fieldnames):
            raise ConfigError("metrics", f"{path}: expected columns {sorted(expected)}")
        for row in reader:
            if row["seed_or_window"] == "mean" and row["topic_id"] != "ALL":
                out.setdefault(row["metric"], {})[row["topic_id"]] = float(row["value"])
    if not out:
        raise ConfigError("metrics", f"{path}: no per-topic mean rows found")
    return out


def cmd_compare(
    metrics_a: str, metrics_b: str, name_a: str, name_b: str,
    alpha: float, family_size: int | None, output: str | None,
) -> int:
    """Paired t-test with Bonferroni correction between two metric CSVs."""
    a = _per_topic_means_from_csv(metrics_a)
    b = _per_topic_means_from_csv(metrics_b)
    metrics = [m for m in a if m in b]
    if not metrics:
        raise ConfigError("metrics", "the two CSV files share no metrics")
    rows = significance_rows(name_a, name_b, a, b, metrics, alpha=alpha, family_size=family_size)
    out_rows = [
        [r["method_a"], r["method_b"], r["metric"], _format_value(r["t"]),
         _format_value(r["p"]), _format_value(r["p_adjusted"]), _format_value(r["significant"])]
        for r in rows
    ]
    header = ["method_a", "method_b", "metric", "t", "p", "p_adjusted", "significant"]
    if output:
        _atomic_write_csv(out_rows, header, Path(output))
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(out_rows)
    return 0


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML/JSON config file")
    for field in dataclasses.fields(RunConfig):
        parser.add_argument(f"--{field.name.replace('_', '-')}", dest=field.name, default=None)


def _flag_overrides(args: argparse.Namespace) -> dict:
    return {f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunConfig)}


def _cutoff(text: str) -> int:
    """A metric cutoff from the command line: an integer >= 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"cutoff must be an integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seedrank",
        description="Seed-driven screening prioritisation experiments",
    )
    parser.add_argument("-q", "--quiet", action="store_true", help="suppress progress logging")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("rank", "single-seed leave-one-out runs + metrics"),
        ("multi", "seed-group runs + oracle comparison"),
        ("analyze", "intra-similarity and term-commonality CSVs"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_config_flags(p)

    p = sub.add_parser("eval", help="evaluate a TREC run against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--k", type=_cutoff, nargs="+", default=list(DEFAULT_CUTOFFS))
    p.add_argument("--output", help="CSV path (default: stdout)")

    p = sub.add_parser("compare", help="significance test between two metric CSVs")
    p.add_argument("--metrics-a", required=True)
    p.add_argument("--metrics-b", required=True)
    p.add_argument("--name-a", default=None)
    p.add_argument("--name-b", default=None)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--family-size", type=int, default=None)
    p.add_argument("--output", help="CSV path (default: stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(message)s",
        stream=sys.stderr,
    )
    try:
        if args.command in ("rank", "multi", "analyze"):
            config = load_config(args.config, _flag_overrides(args))
            return {"rank": cmd_rank, "multi": cmd_multi, "analyze": cmd_analyze}[args.command](config)
        if args.command == "eval":
            return cmd_eval(args.run, args.qrels, tuple(args.k), args.output)
        return cmd_compare(
            args.metrics_a, args.metrics_b,
            args.name_a or args.metrics_a, args.name_b or args.metrics_b,
            args.alpha, args.family_size, args.output,
        )
    except (SeedRankError, OSError) as exc:
        summary = {"error": type(exc).__name__, "detail": str(exc)}
        if isinstance(exc, ConfigError):
            summary["field"] = exc.field
        print(json.dumps(summary), file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
