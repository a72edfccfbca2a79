"""Span recorder for the traced benchmark run.

Wraps the public functions at each layer boundary, in the module namespace
where their callers look them up (``sqlbench.cli.select``,
``sqlbench.metrics.execute_sql``, ...), so nothing in ``src/`` changes. Each
span has a name, a start, an end, a parent and a thread; spans stay in memory
until the run ends. A span opened on a worker thread with no open span of its
own takes the innermost open span of the main thread as its parent, which is
the call that started the pool.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager

# (module where callers look the function up, attribute, span name)
BOUNDARIES = (
    ("sqlbench.cli", "validate_dataset", "datasets.validate_dataset"),
    ("sqlbench.cli", "load_bundle", "datasets.load_bundle"),
    ("sqlbench.sqlkit", "parse_sql", "sqlkit.parse_sql"),  # cli imports it per call
    ("sqlbench.metrics", "parse_sql", "sqlkit.parse_sql"),
    ("sqlbench.selection", "parse_sql", "sqlkit.parse_sql"),
    ("sqlbench.sqlkit.parser", "tokenize", "sqlkit.tokenize"),
    ("sqlbench.execution", "tokenize", "sqlkit.tokenize"),  # has_top_level_order_by
    ("sqlbench.metrics", "em_match", "sqlkit.em_match"),
    ("sqlbench.metrics", "classify_difficulty", "sqlkit.classify_difficulty"),
    ("sqlbench.metrics", "execute_sql", "execution.execute_sql"),
    ("sqlbench.metrics", "results_match", "execution.results_match"),
    ("sqlbench.cli", "score_run", "metrics.score_run"),
    ("sqlbench.metrics", "score_em", "metrics.score_em"),
    ("sqlbench.metrics", "score_ex", "metrics.score_ex"),
    ("sqlbench.cli", "write_eval_records", "metrics.write_eval_records"),
    ("sqlbench.cli", "build_index", "selection.build_index"),
    ("sqlbench.corpus", "build_index", "selection.build_index"),
    ("sqlbench.cli", "select", "selection.select"),
    ("sqlbench.corpus", "select", "selection.select"),
    ("sqlbench.selection", "sql_skeleton", "selection.sql_skeleton"),
    ("sqlbench.cli", "build_prompt", "prompts.build_prompt"),
    ("sqlbench.corpus", "build_prompt", "prompts.build_prompt"),
    ("sqlbench.prompts", "render_schema", "prompts.render_schema"),
    ("sqlbench.cli", "predict_batch", "inference.predict_batch"),
    ("sqlbench.cli", "append_prediction", "inference.persist"),
    ("sqlbench.cli", "read_predictions", "inference.persist"),
    ("sqlbench.cli", "write_predictions", "inference.persist"),
    ("sqlbench.cli", "export_corpus", "corpus.export_corpus"),
    ("sqlbench.cli", "summarize", "reporting.summarize"),
    ("sqlbench.cli", "render_summary", "reporting.render_summary"),
)

LAYERS = ("cli", "datasets", "sqlkit", "execution", "metrics", "selection", "prompts",
          "inference", "corpus", "reporting")
EXEC_FAILURE_KINDS = ("exec-error", "timeout", "db-unavailable")
STAGE_METRIC = {"ingest": "cli.ingest_s", "predict": "cli.predict_s",
                "evaluate": "cli.evaluate_s", "build-corpus": "cli.build_corpus_s"}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "attrs")

    def __init__(self, span_id: int, name: str, parent: int | None) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.attrs: dict = {}
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "thread": self.thread, "attrs": self.attrs}


def load_spans(paths: list[str]) -> list[Span]:
    """The spans of several processes (one file each), with ids renumbered so
    that they stay unique; their clock is the host's monotonic clock."""
    spans: list[Span] = []
    offset = 0
    for path in paths:
        with open(path, encoding="utf-8") as fp:
            records = json.load(fp)
        for record in records:
            span = Span(record["id"] + offset, record["name"],
                        None if record["parent"] is None else record["parent"] + offset)
            span.start, span.end = record["start"], record["end"]
            span.thread, span.attrs = record["thread"], record["attrs"]
            spans.append(span)
        offset += max((record["id"] for record in records), default=0)
    return spans


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = Span(next(self._ids), name, parent.id if parent else None)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def wrap(self, module_name: str, attr: str, name: str) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        observe = _OBSERVERS.get(name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                if name == "inference.predict_batch":
                    kwargs["on_result"] = _observing_sink(span, kwargs.get("on_result"))
                try:
                    result = original(*args, **kwargs)
                except Exception as exc:
                    span.attrs["error"] = getattr(exc, "kind", type(exc).__name__)
                    raise
                if observe is not None:
                    observe(span, args, kwargs, result)
                return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def install(self) -> None:
        for module_name, attr, name in BOUNDARIES:
            self.wrap(module_name, attr, name)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def _observing_sink(span: Span, sink):
    """Record each prediction before the CLI's sink can zero its latency."""
    outcomes = span.attrs.setdefault("outcomes", [])

    def observed(prediction) -> None:
        outcomes.append((prediction.latency_ms, prediction.attempt_count,
                         prediction.error is not None))
        if sink is not None:
            sink(prediction)

    return observed


def _observe_bundle(span, args, kwargs, result) -> None:
    bundle = result[0] if isinstance(result, tuple) else result
    if bundle is not None:
        span.attrs["examples"] = sum(len(rows) for rows in bundle.splits.values())


def _observe_prompt(span, args, kwargs, result) -> None:
    span.attrs["requested"] = len(args[1])
    span.attrs["kept"] = result.shots


def _observe_export(span, args, kwargs, result) -> None:
    out = args[5] if len(args) > 5 else kwargs["out"]
    span.attrs["records"] = result.records
    span.attrs["skipped"] = len(result.skipped)
    span.attrs["bytes"] = os.path.getsize(out)


def _observe_score_run(span, args, kwargs, result) -> None:
    span.attrs["examples"] = len(args[0])


def _observe_select(span, args, kwargs, result) -> None:
    span.attrs["k"] = args[2].k


_OBSERVERS = {
    "datasets.validate_dataset": _observe_bundle,
    "datasets.load_bundle": _observe_bundle,
    "prompts.build_prompt": _observe_prompt,
    "corpus.export_corpus": _observe_export,
    "metrics.score_run": _observe_score_run,
    "selection.select": _observe_select,
}


def _union(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered) + 0.5) - 1))]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = _union([(max(c.start, span.start), min(c.end, span.end))
                          for c in children.get(span.id, []) if c.end > span.start])
        out[span.id] = max(0.0, span.duration - covered)
    return out


def stage_coverage(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per stage, the wall time each layer's spans cover (overlaps counted once)."""
    stages = [s for s in spans if s.name.startswith("cli.")]
    out = {}
    for stage in stages:
        inside = [s for s in spans if s is not stage and stage.start <= s.start < stage.end]
        out[stage.name] = {
            layer: _union([(s.start, s.end) for s in inside if s.layer == layer])
            for layer in LAYERS if layer != "cli"
        }
        out[stage.name]["stage_s"] = stage.duration
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric the traced run reports, from its spans."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name: str) -> int:
        return len(by_name.get(name, []))

    def busy(*names: str) -> float:
        return sum(s.duration for n in names for s in by_name.get(n, []))

    selfs = self_times(spans)
    m: dict[str, float] = {}
    for stage, metric in STAGE_METRIC.items():
        m[metric] = busy(f"cli.{stage}")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(selfs[s.id] for s in spans if s.layer == layer)

    loads = by_name.get("datasets.validate_dataset", []) + by_name.get("datasets.load_bundle", [])
    m["datasets.load_s"] = busy("datasets.validate_dataset", "datasets.load_bundle")
    m["datasets.examples_loaded"] = sum(s.attrs.get("examples", 0) for s in loads)
    dataset_size = max((s.attrs.get("examples", 0) for s in loads), default=0)

    parses = by_name.get("sqlkit.parse_sql", [])
    m["sqlkit.parse_calls"] = len(parses)
    m["sqlkit.parse_s"] = busy("sqlkit.parse_sql")
    m["sqlkit.parse_per_example"] = len(parses) / dataset_size if dataset_size else 0.0
    m["sqlkit.parse_failures"] = sum(1 for s in parses if "error" in s.attrs)
    m["sqlkit.tokenize_calls"] = calls("sqlkit.tokenize")
    m["sqlkit.em_match_calls"] = calls("sqlkit.em_match")
    m["sqlkit.classify_calls"] = calls("sqlkit.classify_difficulty")

    execs = by_name.get("execution.execute_sql", [])
    scored = sum(s.attrs.get("examples", 0) for s in by_name.get("metrics.score_run", []))
    m["execution.exec_calls"] = len(execs)
    m["execution.exec_s"] = busy("execution.execute_sql")
    m["execution.exec_per_example"] = len(execs) / scored if scored else 0.0
    for kind in EXEC_FAILURE_KINDS:
        m[f"execution.exec_failures.{kind}"] = sum(
            1 for s in execs if s.attrs.get("error") == kind)
    m["execution.results_match_s"] = busy("execution.results_match")

    m["metrics.score_run_s"] = busy("metrics.score_run")
    m["metrics.score_em_s"] = busy("metrics.score_em")
    m["metrics.score_ex_s"] = busy("metrics.score_ex")

    # a select call with k = 0 returns before any work; only real selections count
    selects = [s for s in by_name.get("selection.select", []) if s.attrs.get("k")]
    select_ms = [s.duration * 1000.0 for s in selects]
    m["selection.build_index_s"] = busy("selection.build_index")
    m["selection.index_builds"] = calls("selection.build_index")
    m["selection.select_calls"] = len(selects)
    m["selection.select_s"] = busy("selection.select")
    m["selection.select_ms_p50"] = _percentile(select_ms, 0.50)
    m["selection.select_ms_p99"] = _percentile(select_ms, 0.99)
    m["selection.skeleton_calls"] = calls("selection.sql_skeleton")
    m["selection.skeleton_per_select"] = (
        m["selection.skeleton_calls"] / len(selects) if selects else 0.0)

    prompts = by_name.get("prompts.build_prompt", [])
    requested = sum(s.attrs.get("requested", 0) for s in prompts)
    m["prompts.build_prompt_calls"] = len(prompts)
    m["prompts.build_prompt_s"] = busy("prompts.build_prompt")
    m["prompts.render_schema_calls"] = calls("prompts.render_schema")
    # nothing requested means nothing shed
    m["prompts.shots_kept_share"] = (
        sum(s.attrs.get("kept", 0) for s in prompts) / requested if requested else 1.0)

    outcomes = [o for s in by_name.get("inference.predict_batch", [])
                for o in s.attrs.get("outcomes", [])]
    latencies = [latency for latency, _, _ in outcomes]
    m["inference.requests"] = sum(attempts for _, attempts, _ in outcomes)
    m["inference.request_ms_p50"] = _percentile(latencies, 0.50)
    m["inference.request_ms_p99"] = _percentile(latencies, 0.99)
    m["inference.retries"] = sum(attempts - 1 for _, attempts, _ in outcomes)
    m["inference.errors"] = sum(1 for _, _, failed in outcomes if failed)
    m["inference.predict_batch_s"] = busy("inference.predict_batch")
    m["inference.persist_s"] = busy("inference.persist")

    exports = by_name.get("corpus.export_corpus", [])
    m["corpus.export_s"] = busy("corpus.export_corpus")
    m["corpus.records"] = sum(s.attrs.get("records", 0) for s in exports)
    m["corpus.bytes"] = sum(s.attrs.get("bytes", 0) for s in exports)
    m["corpus.skipped"] = sum(s.attrs.get("skipped", 0) for s in exports)

    m["reporting.summarize_s"] = busy("reporting.summarize")
    m["reporting.render_s"] = busy("reporting.render_summary")
    return m
