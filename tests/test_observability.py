"""Observability subsystem: tracer, metrics exposition, EXPLAIN ANALYZE.

Four contracts, in the order the ISSUE states them:

* EXPLAIN / EXPLAIN ANALYZE render the optimized plan with pushdown
  decisions and (under ANALYZE) per-node actuals, for the paper's Q1/Q2;
* the tracer is deterministic under ``ExecutionPolicy.serial()`` and
  thread-aware under the parallel scheduler;
* the metrics registry speaks the Prometheus text exposition format with
  deterministic output;
* tracing on/off is *differential-transparent*: identical result rows.
"""

from __future__ import annotations

import json

import pytest

from repro import (
    ExecutionPolicy,
    MetricsRegistry,
    ResiliencePolicy,
    Tracer,
    record_execution,
)
from repro.core.algebra.stats import ExecutionStats
from repro.mediator.resilience import RetryPolicy
from repro.observability import collect_actuals, render_plan
from repro.observability.context import activate_tracer, current_tracer
from repro.observability.metrics import DURATION_BUCKETS

from tests.conftest import Q1, Q2, build_mediator


# ---------------------------------------------------------------------------
# EXPLAIN / EXPLAIN ANALYZE
# ---------------------------------------------------------------------------

def test_explain_q1_renders_plan_and_pushdown(cultural_mediator):
    explanation = cultural_mediator.explain(Q1)
    text = explanation.render()
    assert text.startswith("EXPLAIN\n")
    assert "ANALYZE" not in text
    assert "rewrites applied" in text
    assert "pushdown decisions:" in text
    assert "pushed to" in text
    assert explanation.report is None and explanation.tracer is None
    # Plan-only EXPLAIN must not touch the sources.
    assert str(explanation) == text


def test_explain_is_deterministic(cultural_sources):
    database, store = cultural_sources
    first = build_mediator(database, store).explain(Q2).render()
    second = build_mediator(database, store).explain(Q2).render()
    assert first == second


def test_explain_analyze_q2_annotates_actuals(cultural_mediator):
    explanation = cultural_mediator.explain(Q2, analyze=True)
    text = explanation.render()
    assert text.startswith("EXPLAIN ANALYZE\n")
    # Per-node actuals on the plan tree.
    assert "evals=" in text and "rows=" in text and "time=" in text
    # Pushed fragments show where their subtree runs and what was sent.
    assert "Pushed@" in text
    assert "runs at" in text
    assert "native" in text
    # The execution footer.
    assert "execution:" in text
    assert "native queries executed:" in text
    assert explanation.analyze
    assert explanation.report is not None and explanation.tracer is not None


def test_explain_analyze_actuals_cover_executed_nodes(cultural_mediator):
    explanation = cultural_mediator.explain(Q2, analyze=True)
    actuals = explanation.actuals()
    assert actuals, "ANALYZE produced no per-node actuals"
    root = actuals.get(id(explanation.plan))
    assert root is not None and root.evals == 1
    assert root.rows == len(explanation.report.tab)
    total_calls = sum(entry.calls for entry in actuals.values())
    assert total_calls == explanation.report.stats.total_source_calls


def test_explain_tells_the_truth_about_bind(cultural_mediator):
    # The static line is the engine's own description — a choice made
    # per target tree, not a promise — and ANALYZE says how it fell:
    # the Wais collection is indexed and twig-joined, the O2 extent
    # carries references and is scanned.
    explanation = cultural_mediator.explain(Q1, optimize=False, analyze=True)
    binds = [
        line for line in explanation.render().splitlines()
        if line.lstrip().startswith("Bind(")
    ]
    assert binds and all(
        "[bind: twig-join if indexed, else scan " in line for line in binds
    )
    artifacts = next(line for line in binds if "on=$artifacts" in line)
    assert "twig=0 scanned=1" in artifacts
    assert any("twig=1 scanned=0" in line for line in binds)
    assert "seeks=" not in explanation.render()
    stats = explanation.report.stats
    assert stats.twig_matches >= 1 and stats.twig_fallbacks == 1
    assert stats.bind_index_seeks == 0
    # The oracle scans everything, and EXPLAIN says so.
    reference = cultural_mediator.explain(
        Q1, optimize=False, execution=ExecutionPolicy.serial()
    )
    assert "[bind: scan]" in reference.render()
    assert "twig-join" not in reference.render()


def test_render_plan_without_actuals_matches_tree_shape(cultural_mediator):
    explanation = cultural_mediator.explain(Q1)
    bare = render_plan(explanation.plan)
    assert "(not evaluated)" not in bare  # plain EXPLAIN shows no actuals slot
    assert "runs at" in bare  # ...but pushdown annotations are structural
    annotated = render_plan(explanation.plan, {})
    assert "(not evaluated)" in annotated


# ---------------------------------------------------------------------------
# Tracer semantics
# ---------------------------------------------------------------------------

def test_tracer_determinism_under_serial_policy(cultural_sources):
    database, store = cultural_sources
    structures = []
    for _ in range(2):
        tracer = Tracer()
        mediator = build_mediator(database, store)
        mediator.query(Q2, execution=ExecutionPolicy.serial(), tracer=tracer)
        structures.append(tracer.structure())
    assert structures[0] == structures[1]
    assert len(structures[0]) == 1  # one root: the execute span


def test_tracing_differential_rows_identical(cultural_sources):
    database, store = cultural_sources
    plain = build_mediator(database, store).query(Q2)
    tracer = Tracer()
    traced = build_mediator(database, store).query(Q2, tracer=tracer)
    assert plain.report.tab.columns == traced.report.tab.columns
    assert [r.cells for r in plain.report.tab.rows] == [
        r.cells for r in traced.report.tab.rows
    ]
    assert len(tracer) > 0
    assert traced.report.trace is tracer
    assert plain.report.trace is None


@pytest.mark.usefixtures("deadlock_guard")
def test_thread_aware_parenting_under_parallel_policy(cultural_sources):
    database, store = cultural_sources
    tracer = Tracer()
    mediator = build_mediator(database, store)
    result = mediator.query(
        Q1, execution=ExecutionPolicy.parallel(4), tracer=tracer
    )
    assert len(result.report.tab) > 0
    roots = [s for s in tracer.spans if s.parent_id is None]
    assert len(roots) == 1 and roots[0].kind == "execution"
    # Every span finished, and every non-root parent id names a real span.
    ids = {s.span_id for s in tracer.spans}
    for span in tracer.spans:
        assert span.end is not None
        if span.parent_id is not None:
            assert span.parent_id in ids


def test_bind_carries_parent_into_other_threads():
    from concurrent.futures import ThreadPoolExecutor

    tracer = Tracer()
    with tracer.start("execute", kind="execution") as root:
        def branch():
            assert current_tracer() is tracer
            with tracer.start("child", kind="operator"):
                pass
            return tracer.current()

        with ThreadPoolExecutor(max_workers=1) as pool:
            leftover = pool.submit(tracer.bind(branch)).result()
    # The pool thread saw the dispatching thread's span as parent...
    child = next(s for s in tracer.spans if s.name == "child")
    assert child.parent_id == root.span_id
    assert child.thread_name != root.thread_name
    # ...and bind() restored both the stack and the active tracer.
    assert leftover is root
    assert current_tracer() is None
    assert tracer.current() is None


def test_span_context_manager_records_errors():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.start("boom", kind="operator"):
            raise ValueError("no")
    (span,) = tracer.spans
    assert span.attrs["error"] == "ValueError"
    assert span.end is not None
    assert tracer.current() is None


def test_activate_tracer_restores_previous():
    assert current_tracer() is None
    outer, inner = Tracer(), Tracer()
    with activate_tracer(outer):
        assert current_tracer() is outer
        with activate_tracer(inner):
            assert current_tracer() is inner
        assert current_tracer() is outer
    assert current_tracer() is None


def test_retry_spans_annotated():
    policy = ResiliencePolicy.default(
        retry=RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0,
                          jitter=0.0)
    )
    tracer = Tracer()
    runtime = policy.start(ExecutionStats(), tracer=tracer)
    from repro.errors import SourceTimeoutError

    failures = iter([SourceTimeoutError("flaky"), None])

    def thunk():
        error = next(failures)
        if error is not None:
            raise error
        return "ok"

    assert runtime.call("o2artifact", "query", thunk) == "ok"
    (span,) = [s for s in tracer.spans if s.kind == "source_call"]
    assert span.attrs["source"] == "o2artifact"
    assert span.attrs["attempts"] == 2
    assert span.attrs["retries"] == 1
    assert "error" not in span.attrs


def test_chrome_trace_export(cultural_mediator, tmp_path):
    tracer = Tracer()
    cultural_mediator.query(Q2, tracer=tracer)
    path = tmp_path / "q2.chrome-trace.json"
    tracer.write_chrome_trace(str(path))
    payload = json.loads(path.read_text())
    events = payload["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) == len(tracer.spans)
    for event in complete:
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert isinstance(event["args"]["span_id"], int)
    meta = [e for e in events if e["ph"] == "M"]
    assert any(e["name"] == "process_name" for e in meta)
    assert any(e["name"] == "thread_name" for e in meta)


# ---------------------------------------------------------------------------
# Metrics registry + Prometheus exposition
# ---------------------------------------------------------------------------

def test_counter_and_gauge_exposition():
    registry = MetricsRegistry()
    registry.counter("requests_total", "Requests served.", ("source",)) \
        .labels(source="o2artifact").inc(3)
    registry.gauge("pool_size", "Live worker threads.").set(4)
    text = registry.exposition()
    assert "# HELP requests_total Requests served." in text
    assert "# TYPE requests_total counter" in text
    assert 'requests_total{source="o2artifact"} 3' in text
    assert "# TYPE pool_size gauge" in text
    assert "pool_size 4" in text
    assert text.endswith("\n")


def test_counter_rejects_negative_and_schema_conflicts():
    registry = MetricsRegistry()
    counter = registry.counter("events_total")
    with pytest.raises(ValueError):
        counter.inc(-1)
    with pytest.raises(ValueError):
        registry.gauge("events_total")  # same name, different kind
    with pytest.raises(ValueError):
        registry.counter("events_total", labelnames=("source",))
    with pytest.raises(ValueError):
        registry.counter("bad-name")
    with pytest.raises(ValueError):
        registry.counter("ok_total", labelnames=("__reserved",))


def test_histogram_buckets_are_cumulative():
    registry = MetricsRegistry()
    histogram = registry.histogram(
        "latency_seconds", "Call latency.", buckets=(0.01, 0.1, 1.0)
    )
    for value in (0.005, 0.05, 0.5, 5.0):
        histogram.observe(value)
    child = histogram.labels()
    assert child.bucket_counts() == (1, 2, 3)
    assert child.count == 4
    assert child.sum == pytest.approx(5.555)
    text = registry.exposition()
    assert 'latency_seconds_bucket{le="0.01"} 1' in text
    assert 'latency_seconds_bucket{le="0.1"} 2' in text
    assert 'latency_seconds_bucket{le="1"} 3' in text
    assert 'latency_seconds_bucket{le="+Inf"} 4' in text
    assert "latency_seconds_count 4" in text


def test_exposition_is_sorted_and_escaped():
    registry = MetricsRegistry()
    family = registry.counter("zz_total", "Z.", ("q",))
    family.labels(q='say "hi"\nplease').inc()
    registry.counter("aa_total", "A.").inc()
    text = registry.exposition()
    assert text.index("aa_total") < text.index("zz_total")
    assert 'q="say \\"hi\\"\\nplease"' in text
    # Deterministic: same registry state, same bytes.
    assert registry.exposition() == text


def test_default_duration_buckets_are_fixed_and_sorted():
    assert DURATION_BUCKETS == tuple(sorted(DURATION_BUCKETS))
    assert DURATION_BUCKETS[0] == 0.0005 and DURATION_BUCKETS[-1] == 10.0


def test_record_execution_taxonomy(cultural_mediator):
    tracer = Tracer()
    result = cultural_mediator.query(Q2, tracer=tracer)
    registry = MetricsRegistry()
    record_execution(registry, result.report, query="q2")
    text = registry.exposition()
    assert 'yat_queries_total{query="q2"} 1' in text
    assert 'yat_query_rows_total{query="q2"}' in text
    assert 'yat_source_calls_total{source="o2artifact"}' in text
    assert 'yat_source_calls_total{source="xmlartwork"}' in text
    assert 'yat_source_bytes_transferred_total{source=' in text
    assert "yat_operator_evaluations_total{operator=" in text
    # Trace-derived per-operator histograms.
    assert "yat_operator_duration_seconds_bucket{operator=" in text
    assert "yat_operator_rows_total{operator=" in text
    # Happy path: no degradation counter appears.
    assert "yat_degraded_queries_total" not in text


def test_record_memo_stats_exports_every_number_once(cultural_mediator):
    from repro.observability import record_memo_stats

    cultural_mediator.query(Q1)
    cultural_mediator.query(Q2)
    registry = MetricsRegistry()
    record_memo_stats(registry, cultural_mediator)
    text = registry.exposition()
    # Uniform rows: every locked memo carries all six series.  (Which
    # memo names exist is checked against README in test_memo.py.)
    for memo in ("bind_engines", "predicate_kernels", "document_indexes",
                 "plan_cache", "plan_texts", "materialized_views",
                 "o2artifact.fragments", "o2artifact.prepared",
                 "xmlartwork.documents"):
        for series in ("entries", "capacity", "hits", "misses", "stale",
                       "evictions_total"):
            assert f'yat_memo_{series}{{memo="{memo}"}}' in text
    # Engines and predicates are separate rows, not one summed gauge, and
    # the engine memo actually held something for Q1/Q2.
    assert 'yat_memo_entries{memo="bind_engines"} 0' not in text
    # The result cache is off on this mediator: no row, no zeros.
    assert 'memo="result_cache"' not in text
    # Numbers with no memo-family row keep their own series ...
    for name in ("yat_plan_cache_rebinds", "yat_document_index_builds",
                 "yat_document_index_build_seconds"):
        assert f"\n{name} " in text
    # ... and the series that restated a memo row are gone.
    for name in ("yat_plan_cache_entries", "yat_plan_cache_hits",
                 "yat_kernel_cache_hits", "yat_kernel_compiles",
                 "yat_compiled_filter_kernels", "yat_document_indexes ",
                 "yat_document_index_hits", "yat_view_documents"):
        assert name not in text


# ---------------------------------------------------------------------------
# EXPLAIN CLI
# ---------------------------------------------------------------------------

def test_explain_cli_analyze(capsys, tmp_path):
    from repro.explain import main

    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.prom"
    code = main([
        "q2", "--analyze", "--n", "12",
        "--chrome-trace", str(trace_path),
        "--metrics", str(metrics_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "EXPLAIN ANALYZE" in out
    assert "pushdown decisions:" in out
    assert json.loads(trace_path.read_text())["traceEvents"]
    assert 'yat_queries_total{query="q2"} 1' in metrics_path.read_text()


def test_explain_cli_plan_only(capsys):
    from repro.explain import main

    assert main(["q1", "--n", "8"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("EXPLAIN\n")
    assert "execution:" not in out


def test_collect_actuals_skips_open_spans():
    tracer = Tracer()
    span = tracer.start("Select", kind="operator", node=123, rows=5)
    assert collect_actuals(tracer) == {}  # still open
    span.finish()
    actuals = collect_actuals(tracer)
    assert actuals[123].rows == 5 and actuals[123].evals == 1
