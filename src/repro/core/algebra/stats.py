"""Execution statistics: what the paper's optimizations actually save.

Capability-based pushdown exists "to minimize the communication costs
between the sources and the mediator, as well as the conversion costs to
the middleware model" (paper, Section 5.3).  :class:`ExecutionStats`
measures exactly those quantities during plan evaluation:

* ``rows_transferred`` / ``bytes_transferred`` — data crossing a wrapper
  boundary (whole documents for ``Source``, result Tabs for ``Pushed``),
  per source and in total;
* ``source_calls`` — round trips to each wrapper (a DJoin with
  information passing makes one call for all its distinct outer
  bindings, ``passed_keys`` of them; one call per outer row under the
  ``serial()`` oracle);
* ``mediator_rows`` — rows processed by mediator-side operators;
* ``operator_counts`` — evaluations per operator kind.

Benchmarks report these alongside wall-clock time, because the shape of
the paper's claims is about transfer and processing, not absolute speed.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Dict


class ExecutionStats:
    """Mutable counters filled in by the evaluator.

    All ``record_*`` methods are thread-safe: under an
    :class:`~repro.core.algebra.scheduling.ExecutionPolicy` with
    ``parallelism > 1``, branches of one plan accumulate into the same
    instance from pool threads.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.rows_transferred: Counter = Counter()
        self.bytes_transferred: Counter = Counter()
        self.source_calls: Counter = Counter()
        self.operator_counts: Counter = Counter()
        self.mediator_rows: int = 0
        #: ``(source, native text)`` for every query a wrapper executed,
        #: in execution order (one entry per call).
        self.native_queries: list = []
        #: Resilience counters (filled in only under a retrying
        #: :class:`~repro.mediator.resilience.ResiliencePolicy`).
        self.retries: Counter = Counter()
        self.failures: Counter = Counter()
        #: ``{source: last failure message}`` for every failed source call.
        self.last_errors: Dict[str, str] = {}
        #: ``{source: cause}`` for sources dropped by graceful degradation.
        self.dropped_sources: Dict[str, str] = {}
        #: True when any part of the answer was sacrificed to keep going.
        self.degraded: bool = False
        #: Round trips avoided by the per-execution source-call cache.
        self.cache_hits: Counter = Counter()
        #: Right-branch DJoin evaluations avoided against the per-row
        #: nested loop (duplicate or set-passed outer bindings re-expanded
        #: from a shared answer).
        self.batched_calls: int = 0
        #: Distinct outer binding tuples shipped *up* to sources inside
        #: set-valued pushed calls (information passing).  The transfer
        #: counters above price result bytes only; this is the upstream
        #: volume.
        self.passed_keys: int = 0
        #: Plan branches dispatched to the scheduler's thread pool.
        self.parallel_branches: int = 0
        #: Always zero since the index-seek matchers were removed; kept
        #: because ``benchmarks/e2e/layers.py`` reads it by name.
        self.bind_index_seeks: int = 0
        #: Holistic twig matching: targets matched via the positional
        #: twig join, binding tuples it produced, and targets of a
        #: twig-fragment filter that the scan kernel matched instead
        #: because their tree has no index (small / reference / shared).
        self.twig_matches: int = 0
        self.twig_bindings: int = 0
        self.twig_fallbacks: int = 0
        #: Vectorized execution: operator evaluations that ran on
        #: columnar batches and the rows they carried.
        self.batch_operators: int = 0
        self.batch_rows: int = 0
        #: Out-of-core document store: pushed Binds answered by SQL
        #: interval self-joins vs. hydrated scans, nodes materialized
        #: from shredded rows, and serialized bytes the pushdowns never
        #: transferred (untouched node share of the stored documents).
        self.store_pushdowns: int = 0
        self.store_scans: int = 0
        self.store_hydrated_nodes: int = 0
        self.store_bytes_avoided: int = 0
        #: Sharded sources: shard branches actually evaluated by
        #: scatter-gather, branches pruned away (statically by a
        #: constant partition-key restriction or per outer row under a
        #: DJoin), and shard calls routed to a fallback replica after
        #: the preferred one was unavailable.
        self.shard_scatter: int = 0
        self.shard_pruned: int = 0
        self.shard_failovers: int = 0

    # -- recording -----------------------------------------------------------

    def record_transfer(self, source: str, rows: int, size: int) -> None:
        """Record *rows* rows / *size* bytes received from *source*."""
        with self._lock:
            self.rows_transferred[source] += rows
            self.bytes_transferred[source] += size

    def record_call(self, source: str) -> None:
        """Record one round trip to *source*."""
        with self._lock:
            self.source_calls[source] += 1

    def record_native(self, source: str, native: str) -> None:
        """Record the native query text a wrapper executed."""
        with self._lock:
            self.native_queries.append((source, native))

    def distinct_native_queries(self):
        """Native queries with duplicates removed, order preserved."""
        seen = set()
        result = []
        for source, native in self.native_queries:
            if (source, native) not in seen:
                seen.add((source, native))
                result.append((source, native))
        return result

    def record_retry(self, source: str) -> None:
        """Record one retry (a repeated attempt) against *source*."""
        with self._lock:
            self.retries[source] += 1

    def record_failure(self, source: str, error: str) -> None:
        """Record one failed call to *source* with its cause."""
        with self._lock:
            self.failures[source] += 1
            self.last_errors[source] = error

    def record_dropped(self, source: str, cause: str) -> None:
        """Record that *source* was dropped from the answer (degradation).
        The first recorded cause wins — it names the original failure."""
        with self._lock:
            self.dropped_sources.setdefault(source, cause)
            self.degraded = True

    def record_operator(self, name: str, rows_out: int) -> None:
        """Record one evaluation of operator *name* producing *rows_out* rows."""
        with self._lock:
            self.operator_counts[name] += 1
            self.mediator_rows += rows_out

    def record_cache_hit(self, source: str) -> None:
        """Record one round trip to *source* avoided by the call cache."""
        with self._lock:
            self.cache_hits[source] += 1

    def record_batched(self, avoided: int) -> None:
        """Record *avoided* DJoin right-branch evaluations."""
        if avoided <= 0:
            return
        with self._lock:
            self.batched_calls += avoided

    def record_passed_keys(self, keys: int) -> None:
        """Record one set-valued pushed call carrying *keys* bindings."""
        with self._lock:
            self.passed_keys += keys

    def record_parallel(self, branches: int) -> None:
        """Record *branches* plan branches dispatched concurrently."""
        with self._lock:
            self.parallel_branches += branches

    def record_twig(self, matches: int, bindings: int, fallbacks: int) -> None:
        """Record one Bind's holistic twig-join usage."""
        with self._lock:
            self.twig_matches += matches
            self.twig_bindings += bindings
            self.twig_fallbacks += fallbacks

    def record_batch(self, rows: int) -> None:
        """Record one operator evaluation that ran on columnar batches."""
        with self._lock:
            self.batch_operators += 1
            self.batch_rows += rows

    def record_store(
        self,
        pushdowns: int = 0,
        scans: int = 0,
        hydrated_nodes: int = 0,
        bytes_avoided: int = 0,
    ) -> None:
        """Record a document-store counter delta (one wrapper call)."""
        with self._lock:
            self.store_pushdowns += pushdowns
            self.store_scans += scans
            self.store_hydrated_nodes += hydrated_nodes
            self.store_bytes_avoided += bytes_avoided

    def record_shard(
        self, scatter: int = 0, pruned: int = 0, failovers: int = 0
    ) -> None:
        """Record one scatter evaluation (or replica failover) over shards."""
        with self._lock:
            self.shard_scatter += scatter
            self.shard_pruned += pruned
            self.shard_failovers += failovers

    # -- totals ---------------------------------------------------------------

    @property
    def total_rows_transferred(self) -> int:
        return sum(self.rows_transferred.values())

    @property
    def total_bytes_transferred(self) -> int:
        return sum(self.bytes_transferred.values())

    @property
    def total_source_calls(self) -> int:
        return sum(self.source_calls.values())

    @property
    def total_retries(self) -> int:
        return sum(self.retries.values())

    @property
    def total_failures(self) -> int:
        return sum(self.failures.values())

    @property
    def total_cache_hits(self) -> int:
        return sum(self.cache_hits.values())

    def as_dict(self) -> Dict[str, object]:
        """Plain-dictionary summary, convenient for benchmark reports."""
        return {
            "rows_transferred": dict(self.rows_transferred),
            "bytes_transferred": dict(self.bytes_transferred),
            "source_calls": dict(self.source_calls),
            "operator_counts": dict(self.operator_counts),
            "mediator_rows": self.mediator_rows,
            "total_rows_transferred": self.total_rows_transferred,
            "total_bytes_transferred": self.total_bytes_transferred,
            "total_source_calls": self.total_source_calls,
            "retries": dict(self.retries),
            "failures": dict(self.failures),
            "dropped_sources": dict(self.dropped_sources),
            "degraded": self.degraded,
            "cache_hits": dict(self.cache_hits),
            "total_cache_hits": self.total_cache_hits,
            "batched_calls": self.batched_calls,
            "passed_keys": self.passed_keys,
            "parallel_branches": self.parallel_branches,
            "twig_matches": self.twig_matches,
            "twig_bindings": self.twig_bindings,
            "twig_fallbacks": self.twig_fallbacks,
            "batch_operators": self.batch_operators,
            "batch_rows": self.batch_rows,
            "store_pushdowns": self.store_pushdowns,
            "store_scans": self.store_scans,
            "store_hydrated_nodes": self.store_hydrated_nodes,
            "store_bytes_avoided": self.store_bytes_avoided,
            "shard_scatter": self.shard_scatter,
            "shard_pruned": self.shard_pruned,
            "shard_failovers": self.shard_failovers,
        }

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"transferred: {self.total_rows_transferred} rows, "
            f"{self.total_bytes_transferred} bytes over "
            f"{self.total_source_calls} source calls",
        ]
        for source in sorted(self.bytes_transferred):
            lines.append(
                f"  from {source}: {self.rows_transferred[source]} rows, "
                f"{self.bytes_transferred[source]} bytes, "
                f"{self.source_calls[source]} calls"
            )
        lines.append(f"mediator rows processed: {self.mediator_rows}")
        ops = ", ".join(
            f"{name}×{count}" for name, count in sorted(self.operator_counts.items())
        )
        lines.append(f"operators: {ops}")
        if self.total_cache_hits or self.batched_calls or self.parallel_branches:
            lines.append(
                f"scheduler: {self.total_cache_hits} cache hits, "
                f"{self.batched_calls} batched calls, "
                f"{self.parallel_branches} parallel branches"
                + (f", {self.passed_keys} passed keys" if self.passed_keys else "")
            )
        if self.twig_matches or self.twig_fallbacks:
            lines.append(
                f"twig join: {self.twig_matches} matches, "
                f"{self.twig_bindings} bindings, "
                f"{self.twig_fallbacks} fallbacks"
            )
        if self.batch_operators:
            lines.append(
                f"vectorized: {self.batch_operators} batch operators, "
                f"{self.batch_rows} batch rows"
            )
        if self.store_pushdowns or self.store_scans:
            lines.append(
                f"document store: {self.store_pushdowns} pushdowns, "
                f"{self.store_scans} scans, "
                f"{self.store_hydrated_nodes} nodes hydrated, "
                f"{self.store_bytes_avoided} bytes avoided"
            )
        if self.shard_scatter or self.shard_pruned or self.shard_failovers:
            lines.append(
                f"shards: {self.shard_scatter} scattered, "
                f"{self.shard_pruned} pruned, "
                f"{self.shard_failovers} failovers"
            )
        if self.total_failures or self.total_retries:
            lines.append(
                f"resilience: {self.total_failures} failed calls, "
                f"{self.total_retries} retries"
            )
        if self.degraded:
            dropped = ", ".join(
                f"{source} ({cause})"
                for source, cause in sorted(self.dropped_sources.items())
            )
            lines.append(f"DEGRADED — dropped: {dropped}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"ExecutionStats(rows={self.total_rows_transferred}, "
            f"bytes={self.total_bytes_transferred}, "
            f"calls={self.total_source_calls})"
        )
