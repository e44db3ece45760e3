"""Span tracing of the seedrank package from outside its source.

``Tracer.install`` replaces every function defined in a ``seedrank.*``
module by a timing wrapper, in every module namespace that holds it (so
``seedrank.scoring.build_stats`` and ``seedrank.experiments.build_stats``
are both traced), and every method written in the body of a class that
such a module defines (``vectors.CollectionStats.idf``,
``corpus.EmbeddingTable.lookup``, ``text.TermCounts.from_tokens``; not the
methods ``dataclass`` generates). A function's layer is the module that
defines it.

Functions in ``SPANS`` record one span each, with the id of the span that
caused it. Every other function is a hot per-candidate call: it is counted
and timed into its nearest enclosing span (count, busy and self time),
which keeps the tracing cost to one small list per call. ``_run_pool``
also wraps the per-topic worker, so each topic gets a span whose parent is
the pool span even when it runs on a worker thread.

A frame's self time is its duration minus the time of the calls it made on
the same thread; a span's self time also excludes the union of the
intervals of its children on other threads. Times are wall-clock, so with
several worker threads the self times of concurrent topics add up to more
than the command's wall time.

``trace.coverage`` is the share of the traced thread time (each thread's
span time, less the time a span waits on children of other threads) that
is the self time of a named function. The self time of the containers
(the command root, ``cli.cmd_*`` and the per-topic worker spans) does not
count, so work done in code that no wrapper names lowers the figure.
"""

from __future__ import annotations

import importlib
import itertools
import os
import pkgutil
import statistics
import threading
from time import perf_counter

LAYERS = ("corpus", "text", "vectors", "scoring", "evaluation", "experiments", "cli")

SPANS = frozenset(
    {
        "cli.cmd_rank", "cli.cmd_multi", "cli.cmd_analyze", "cli.cmd_eval", "cli.cmd_compare",
        "cli.load_config", "cli.validate_config", "cli._load_resources", "cli._run_pool",
        "cli._atomic_write_run", "cli._atomic_write_csv", "cli._metric_rows",
        "corpus.load_corpus", "corpus.load_topics", "corpus.load_qrels", "corpus.load_lexicon",
        "corpus.load_embeddings", "corpus.load_run", "corpus.write_run", "corpus.filter_topics",
        "experiments.loocv_single", "experiments.multi_sdr", "experiments.oracle_single",
        "experiments.evaluate_entries", "experiments.make_groups",
        "experiments.intra_similarity", "experiments.term_commonality",
        "scoring.rank", "scoring.phi_weights", "scoring.minmax", "scoring.interpolate",
        "vectors.build_stats", "evaluation.metric_set",
    }
)

# Spans whose self time is glue around the named functions, not a layer's work.
CONTAINERS = frozenset({"bench.command", "cli.topic", *(n for n in SPANS if n.startswith("cli.cmd_"))})


class Span:
    __slots__ = ("id", "parent", "name", "layer", "thread", "start", "end", "self_s", "hot", "attrs")

    def __init__(self, span_id, parent, name, layer, start, attrs):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.layer = layer
        self.thread = threading.get_ident()
        self.start = start
        self.end = start
        self.self_s = 0.0
        self.hot: dict[str, list] = {}
        self.attrs = attrs

    def as_dict(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "name": self.name, "layer": self.layer,
            "thread": self.thread, "start": self.start, "end": self.end, "self_s": self.self_s,
            "hot": {k: {"calls": v[0], "busy_s": v[1], "self_s": v[2], "count": v[3]} for k, v in self.hot.items()},
            "attrs": self.attrs,
        }


def _topic_id(args) -> str:
    return str(getattr(args[0], "topic_id", "")) if args else ""


def _path_attrs(args) -> dict:
    paths = [str(a) for a in args if isinstance(a, (str, os.PathLike))]
    return {"paths": paths, "bytes": [os.path.getsize(p) for p in paths]}


# Per-call counts: summed into a hot call's aggregate, or a span's attrs["count"].
COUNTS = {
    "text.tokenize": lambda args, result: len(result),
    "scoring.phi_weights": lambda args, result: len(result),
}

ATTRS = {
    "corpus.load_corpus": _path_attrs,
    "corpus.load_topics": _path_attrs,
    "corpus.load_lexicon": _path_attrs,
    "corpus.load_embeddings": _path_attrs,
    "corpus.write_run": lambda args: {"lines": len(args[0])},
    "scoring.rank": lambda args: {"topic": _topic_id(args)},
}


class Tracer:
    """Collects spans and hot-call aggregates for one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.bow_docs: set[tuple[str, str]] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- frames -----------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def open(self, name: str, layer: str, attrs=None, parent: Span | None = None) -> list:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][1]
        span = Span(next(self._ids), parent.id if parent else None, name, layer, 0.0, attrs)
        frame = [0.0, span, parent]
        stack.append(frame)
        self.spans.append(span)
        span.start = perf_counter()
        return frame

    def close(self, frame: list) -> None:
        span = frame[1]
        span.end = perf_counter()
        stack = self._local.stack
        stack.pop()
        duration = span.end - span.start
        span.self_s = duration - frame[0]
        if stack and stack[-1][1] is frame[2]:
            stack[-1][0] += duration

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name, layer):
        attrs_of = ATTRS.get(name)
        count_of = COUNTS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.open(name, layer, attrs_of(args) if attrs_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if count_of:
                frame[1].attrs = {"count": count_of(args, result)}
            return result

        return traced

    def _pool_wrapper(self, fn, name, layer):
        tracer = self

        def traced(units, worker, max_workers):
            pool = tracer.open(name, layer, {"workers": int(max_workers)})

            def topic_worker(unit):
                frame = tracer.open("cli.topic", "cli", {"topic": _topic_id((unit,))}, parent=pool[1])
                tracer._local.topic = _topic_id((unit,))
                try:
                    return worker(unit)
                finally:
                    tracer.close(frame)

            try:
                return fn(units, topic_worker, max_workers)
            finally:
                tracer.close(pool)

        return traced

    def _hot_wrapper(self, fn, name):
        count_of = COUNTS.get(name)
        stack_of = self._stack
        local = self._local
        bow_docs = self.bow_docs
        is_bow = name == "text.bow"

        def traced(*args, **kwargs):
            stack = stack_of()
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent[0] += dt
                agg = frame[1].hot.get(name)
                if agg is None:
                    agg = frame[1].hot[name] = [0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[0]
            if count_of:
                agg[3] += count_of(args, result)
            elif is_bow:
                bow_docs.add((getattr(local, "topic", ""), args[0].doc_id))
            return result

        return traced

    def install(self, package: str = "seedrank") -> None:
        """Wrap every function of every ``package.*`` module, in every namespace holding it."""
        root = importlib.import_module(package)
        modules = [root] + [
            importlib.import_module(f"{package}.{info.name}")
            for info in pkgutil.iter_modules(root.__path__)
        ]
        wrappers = {}
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for attr, value in list(vars(module).items()):
                if isinstance(value, type) and value.__module__ == module.__name__:
                    self._wrap_methods(value, module, short)
                if not _defined_in(value, module) or attr != value.__name__ or attr == "main":
                    continue
                name = f"{short}.{attr}"
                if name == "cli._run_pool":
                    wrappers[id(value)] = (value, self._pool_wrapper(value, name, short))
                elif name in SPANS:
                    wrappers[id(value)] = (value, self._span_wrapper(value, name, short))
                else:
                    wrappers[id(value)] = (value, self._hot_wrapper(value, name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap_methods(self, cls: type, module, short: str) -> None:
        """Wrap the plain, class and static methods and property getters written in ``cls``."""
        for attr, value in list(vars(cls).items()):
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(value, (classmethod, staticmethod)):
                if _defined_in(value.__func__, module):
                    setattr(cls, attr, type(value)(self._hot_wrapper(value.__func__, name)))
            elif isinstance(value, property):
                if _defined_in(value.fget, module):
                    setattr(cls, attr, value.getter(self._hot_wrapper(value.fget, name)))
            elif _defined_in(value, module):
                setattr(cls, attr, self._hot_wrapper(value, name))

    # -- results ----------------------------------------------------------

    def finish(self) -> None:
        """Subtract the union of cross-thread child intervals from each parent."""
        spans = [s.as_dict() for s in self.spans]
        by_id = {s.id: s for s in self.spans}
        for parent_id, waited in _foreign_waits(spans).items():
            by_id[parent_id].self_s -= waited

    def dump(self) -> list[dict]:
        return [s.as_dict() for s in self.spans]


def _defined_in(fn, module) -> bool:
    """True for a Python function whose source is ``module``'s file."""
    code = getattr(fn, "__code__", None)
    return (
        code is not None
        and getattr(fn, "__module__", None) == module.__name__
        and code.co_filename == module.__file__
    )


def _foreign_waits(spans: list[dict]) -> dict[int, float]:
    """Span id -> length of the union of its children's intervals on other threads."""
    by_id = {s["id"]: s for s in spans}
    foreign: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None and parent["thread"] != span["thread"]:
            foreign.setdefault(parent["id"], []).append((span["start"], span["end"]))
    waits = {}
    for parent_id, intervals in foreign.items():
        covered = 0.0
        reach = float("-inf")
        for start, end in sorted(intervals):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        waits[parent_id] = covered
    return waits


def thread_time(spans: list[dict]) -> float:
    """Summed span time of every thread, less the time spent waiting on other threads.

    Each thread's outermost spans (no parent, or a parent on another thread)
    give its span time.
    """
    by_id = {s["id"]: s for s in spans}
    total = 0.0
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is None or parent["thread"] != span["thread"]:
            total += span["end"] - span["start"]
    return total - sum(_foreign_waits(spans).values())


def layer_metrics(spans: list[dict], bow_distinct: int, aes_candidates: int) -> dict[str, float]:
    """Per-layer metrics from finished spans; see the benchmark's README for each name."""
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    counts: dict[str, int] = {}
    layer_self: dict[str, float] = {}
    root = [s for s in spans if s["parent"] is None and s["layer"] == "bench"]
    for span in spans:
        name = span["name"]
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + span["end"] - span["start"]
        if span["attrs"] and "count" in span["attrs"]:
            counts[name] = counts.get(name, 0) + span["attrs"]["count"]
        layer_self[span["layer"]] = layer_self.get(span["layer"], 0.0) + span["self_s"]
        for hot_name, agg in span["hot"].items():
            calls[hot_name] = calls.get(hot_name, 0) + agg["calls"]
            busy[hot_name] = busy.get(hot_name, 0.0) + agg["busy_s"]
            counts[hot_name] = counts.get(hot_name, 0) + agg["count"]
            layer = hot_name.partition(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + agg["self_s"]

    def by_name(name):
        return [s for s in spans if s["name"] == name]

    topics = [s["end"] - s["start"] for s in by_name("cli.topic")]
    pools = by_name("cli._run_pool")
    pool_capacity = sum((s["end"] - s["start"]) * s["attrs"]["workers"] for s in pools)
    command_s = sum(s["end"] - s["start"] for s in root)
    containers = sum(s["self_s"] for s in spans if s["name"] in CONTAINERS)
    attributed = sum(layer_self.values()) - containers
    traced_s = thread_time(spans)
    bytes_read = 0
    for span in spans:
        if span["name"].startswith("corpus.load_") and span["attrs"]:
            bytes_read += sum(span["attrs"].get("bytes", []))
    c = calls.get
    b = busy.get
    rank_self = sum(s["self_s"] for s in by_name("scoring.rank"))
    out = {
        "corpus.load_s": sum(b(f"corpus.{f}", 0.0) for f in ("load_corpus", "load_topics", "load_lexicon", "load_embeddings")),
        "corpus.bytes_read": bytes_read,
        "corpus.write_run_s": b("corpus.write_run", 0.0),
        "corpus.run_lines_written": sum(s["attrs"]["lines"] for s in by_name("corpus.write_run")),
        "text.tokenize_calls": c("text.tokenize", 0),
        "text.tokens": counts.get("text.tokenize", 0),
        "text.tokenize_s": b("text.tokenize", 0.0),
        "text.bow_s": b("text.bow", 0.0),
        "text.boc_s": b("text.boc", 0.0),
        "text.recount_ratio": c("text.bow", 0) / bow_distinct if bow_distinct else 0.0,
        "vectors.build_stats_calls": c("vectors.build_stats", 0),
        "vectors.build_stats_s": b("vectors.build_stats", 0.0),
        "vectors.tfidf_calls": c("vectors.tfidf", 0),
        "vectors.tfidf_s": b("vectors.tfidf", 0.0),
        "vectors.cosine_calls": c("vectors.cosine", 0),
        "vectors.cosine_s": b("vectors.cosine", 0.0),
        "vectors.aes_vector_calls": c("vectors.aes_vector", 0),
        "vectors.aes_vector_s": b("vectors.aes_vector", 0.0),
        "vectors.aes_vectors_per_candidate": c("vectors.aes_vector", 0) / aes_candidates if aes_candidates else 0.0,
        "scoring.rank_self_s": rank_self,
        "scoring.phi_weights_s": b("scoring.phi_weights", 0.0),
        "scoring.phi_terms": counts.get("scoring.phi_weights", 0),
        "scoring.rng_derivations": c("scoring.derive_rng", 0),
        "scoring.score_calls": sum(c(f"scoring.{f}", 0) for f in ("sdr_score", "qlm_score", "bm25_score")),
        "scoring.score_s": sum(b(f"scoring.{f}", 0.0) for f in ("sdr_score", "qlm_score", "bm25_score")),
        "scoring.aes_score_s": b("scoring.aes_score", 0.0),
        "scoring.sort_s": b("scoring.sort_scored", 0.0),
        "evaluation.metric_set_calls": c("evaluation.metric_set", 0),
        "evaluation.metric_set_s": b("evaluation.metric_set", 0.0),
        "evaluation.average_precision_calls": c("evaluation.average_precision", 0),
        "experiments.units": c("scoring.rank", 0),
        "experiments.loocv_single_s": b("experiments.loocv_single", 0.0),
        "experiments.multi_sdr_s": b("experiments.multi_sdr", 0.0),
        "experiments.oracle_single_s": b("experiments.oracle_single", 0.0),
        "cli.topic_s_p50": statistics.median(topics) if topics else 0.0,
        "cli.topic_s_max": max(topics) if topics else 0.0,
        "cli.pool_busy_ratio": sum(topics) / pool_capacity if pool_capacity else 0.0,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    out["trace.command_s"] = command_s
    out["trace.coverage"] = attributed / traced_s if traced_s else 0.0
    return out
