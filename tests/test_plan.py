"""Plan-layer tests: batch-plan shape and factorised-execution parity.

Two halves, mirroring the two promises of :mod:`repro.engine.plan`:

* **Plan shape** — deterministic unit tests over what :func:`plan_batch`
  produces: one group per ``(component, k)``, duplicates resolved at plan
  time, cache hits pruned from the groups before execution, empty and
  fully-cached batches short-circuiting cleanly, errors and no-community
  vertices classified per occurrence.
* **Execution parity** — hypothesis properties asserting the factorised
  pipeline returns answers *bit-identical* (member sets, circle floats,
  stats) to the per-query oracle (:func:`repro.testing.oracles.search_many`),
  across the serial engine, the sharded executor, and the answer-cached
  service, including while
  incremental check-ins and edge flips interleave with planned batches.
"""

from collections import Counter

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import IncrementalEngine, QueryEngine
from repro.engine.plan import plan_batch
from repro.exceptions import VertexNotFoundError
from repro.graph.builder import GraphBuilder
from repro.service import SACService
from repro.testing import oracles
from repro.testing.strategies import random_spatial_graph


def _assert_identical(first, second, context=()):
    assert (first is None) == (second is None), context
    if first is None:
        return
    assert first.members == second.members, context
    assert first.circle.radius == second.circle.radius, context
    assert first.circle.center.x == second.circle.center.x, context
    assert first.circle.center.y == second.circle.center.y, context
    assert first.stats == second.stats, context


def _two_component_graph():
    """Two disjoint 5-cliques (two k=2 components) plus a degree-1 outcast."""
    rng = np.random.default_rng(3)
    builder = GraphBuilder()
    for vertex in range(11):
        builder.add_vertex(vertex, float(rng.uniform()), float(rng.uniform()))
    left = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    right = [(u, v) for u in range(5, 10) for v in range(u + 1, 10)]
    builder.add_edges(left + right + [(0, 10)])  # vertex 10 is in no 2-core
    graph = builder.build()
    labels, count = QueryEngine(graph).component_labels(2)
    assert count == 2 and labels[10] < 0
    return graph, labels


def _queries_per_component(labels, count, per_component=2):
    queries = []
    for component in range(count):
        members = np.flatnonzero(labels == component)[:per_component]
        queries.extend(int(q) for q in members)
    return queries


class TestPlanShape:
    def test_groups_queries_by_component(self):
        graph, labels = _two_component_graph()
        engine = QueryEngine(graph)
        count = int(labels.max()) + 1
        queries = _queries_per_component(labels, count)

        plan = plan_batch(engine, queries, 2)

        assert len(plan.groups) == count
        assert plan.order == queries
        assert plan.planned == len(queries)
        for group in plan.groups:
            assert group.queries  # empty groups are dropped at plan time
            for query in group.queries:
                assert labels[query] == group.component
            assert group.representative == min(
                int(v) for v in np.flatnonzero(labels == group.component)
            )
            assert group.version == engine.component_version(
                2, group.representative
            )

    def test_duplicates_resolved_at_plan_time(self):
        graph, labels = _two_component_graph()
        engine = QueryEngine(graph)
        distinct = _queries_per_component(labels, int(labels.max()) + 1)
        queries = distinct * 3  # every query occurs three times

        plan = plan_batch(engine, queries, 2)

        assert plan.deduped == 2 * len(distinct)
        assert plan.planned == len(distinct)
        assert plan.order == queries  # per-occurrence order survives dedupe
        assert engine.stats.queries_deduped == 2 * len(distinct)
        assert sorted(q for group in plan.groups for q in group.queries) == sorted(
            distinct
        )

    def test_results_fan_out_to_every_occurrence(self):
        graph, labels = _two_component_graph()
        engine = QueryEngine(graph)
        distinct = _queries_per_component(labels, int(labels.max()) + 1)
        queries = distinct * 3

        fanned = engine.search_many(queries, 2)
        serial = oracles.search_many(engine, distinct, 2)

        assert set(fanned) == set(distinct)
        for query in distinct:
            _assert_identical(serial[query], fanned[query], query)

    def test_cache_hits_pruned_from_groups(self):
        graph, labels = _two_component_graph()
        service = SACService(graph)
        distinct = _queries_per_component(labels, int(labels.max()) + 1)

        cold = service.submit_batch(distinct, 2)
        warm_plan = plan_batch(
            service.engine, distinct, 2, params={}, cache=service.cache
        )

        answered = sorted(cold.results)
        assert warm_plan.groups == []  # every answered query now comes cached
        assert sorted(warm_plan.cached) == answered
        assert warm_plan.cache_hits == len(answered)
        assert warm_plan.planned == 0

    def test_all_cached_batch_short_circuits(self):
        graph, labels = _two_component_graph()
        service = SACService(graph)
        distinct = _queries_per_component(labels, int(labels.max()) + 1)

        cold = service.submit_batch(distinct, 2)
        warm = service.submit_batch(distinct * 2, 2)

        assert warm.cache_hits == 2 * len(cold.results)
        assert warm.plan_groups == 0
        for query in cold.results:
            _assert_identical(cold.results[query], warm.results[query], query)
        # The warm round executed nothing: serial/parallel counters unchanged.
        stats = service.stats().executor
        assert stats.queries_serial + stats.queries_parallel == len(cold.results)

    def test_empty_batch(self):
        graph, _labels = _two_component_graph()
        engine = QueryEngine(graph)

        plan = plan_batch(engine, [], 2)

        assert plan.groups == []
        assert plan.order == []
        assert plan.planned == 0
        assert engine.search_many([], 2) == {}

    def test_errors_and_failures_classified_per_occurrence(self):
        graph, labels = _two_component_graph()
        engine = QueryEngine(graph)
        inside = int(np.flatnonzero(labels >= 0)[0])
        outside_candidates = np.flatnonzero(labels < 0)
        missing = graph.num_vertices + 5
        queries = [inside, missing, inside, missing]
        failed = []
        if outside_candidates.size:
            outcast = int(outside_candidates[0])
            queries += [outcast, outcast]
            failed = [outcast, outcast]

        plan = plan_batch(engine, queries, 2)

        assert isinstance(plan.errors[missing], VertexNotFoundError)
        assert plan.failed == failed  # one entry per occurrence
        assert plan.order == queries  # order keeps every occurrence
        assert plan.planned == 1  # `inside` once; duplicates don't execute
        assert plan.deduped == 1


class TestFactorisedParity:
    """Planned execution == per-query serial execution, bitwise."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_planned_matches_serial_with_duplicates(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 80))
        graph, _ = random_spatial_graph(rng, n, int(rng.integers(2 * n, 4 * n)))
        k = int(rng.integers(1, 4))
        base = [int(q) for q in rng.choice(n, size=min(10, n), replace=False)]
        duplicates = [base[int(i)] for i in rng.integers(0, len(base), size=6)]
        queries = base + duplicates

        engine = QueryEngine(graph)
        planned = engine.search_many(queries, k, algorithm="appfast", epsilon_f=0.5)
        serial = oracles.search_many(
            engine, queries, k, algorithm="appfast", epsilon_f=0.5
        )

        assert set(planned) == set(serial)
        for query in serial:
            _assert_identical(serial[query], planned[query], (seed, k, query))
        # Only duplicates of answerable queries dedupe; duplicates of
        # no-community vertices stay per-occurrence entries in `failed`.
        counts = Counter(queries)
        assert engine.stats.queries_deduped == sum(
            count - 1 for query, count in counts.items() if serial[query] is not None
        )

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_planned_sharded_cached_agree_with_serial(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 90))
        graph, _ = random_spatial_graph(rng, n, int(rng.integers(2 * n, 4 * n)))
        k = int(rng.integers(2, 4))
        queries = [int(q) for q in rng.choice(n, size=min(12, n), replace=False)]
        queries = queries + queries[: len(queries) // 2]

        serial = oracles.search_many(
            QueryEngine(graph), queries, k, algorithm="appfast", epsilon_f=0.5
        )
        sharded = SACService(graph, workers=2, use_cache=False)
        cached = SACService(graph)
        try:
            sharded_batch = sharded.submit_batch(
                queries, k, algorithm="appfast", epsilon_f=0.5
            )
            cached_cold = cached.submit_batch(
                queries, k, algorithm="appfast", epsilon_f=0.5
            )
            cached_warm = cached.submit_batch(
                queries, k, algorithm="appfast", epsilon_f=0.5
            )
        finally:
            sharded.close()
            cached.close()

        for query in serial:
            context = (seed, k, query)
            _assert_identical(serial[query], sharded_batch.results.get(query), context)
            _assert_identical(serial[query], cached_cold.results.get(query), context)
            _assert_identical(serial[query], cached_warm.results.get(query), context)
        # Warm round: every occurrence of an answered query is a cache hit.
        assert cached_warm.cache_hits == sum(
            1 for q in queries if serial[q] is not None
        )

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_planned_batches_track_incremental_mutations(self, seed):
        """Interleaved check-ins/edge flips: planned batches == fresh serial."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(25, 60))
        graph, edges = random_spatial_graph(rng, n, int(rng.integers(2 * n, 4 * n)))
        service = SACService(engine=IncrementalEngine(graph))

        def compare():
            fresh = QueryEngine(service.graph.mutable_copy())
            queries = [int(q) for q in rng.choice(n, size=6, replace=False)]
            queries = queries + queries[:3]
            for k in (2, 3):
                batch = service.submit_batch(
                    queries, k, algorithm="appfast", epsilon_f=0.5
                )
                serial = oracles.search_many(
                    fresh, queries, k, algorithm="appfast", epsilon_f=0.5
                )
                for query in serial:
                    _assert_identical(
                        serial[query], batch.results.get(query), (seed, k, query)
                    )

        compare()  # populate the cache so mutations have answers to evict
        for _ in range(5):
            roll = rng.random()
            if roll < 0.5:
                vertex = int(rng.integers(0, n))
                x, y = (float(c) for c in rng.uniform(-0.1, 1.1, size=2))
                service.apply_checkin(vertex, x, y)
            elif roll < 0.75 and edges:
                edge = sorted(edges)[int(rng.integers(0, len(edges)))]
                edges.remove(edge)
                service.apply_edge(*edge, "delete")
            else:
                while True:
                    u, v = (int(a) for a in rng.integers(0, n, size=2))
                    if u != v and (min(u, v), max(u, v)) not in edges:
                        break
                edges.add((min(u, v), max(u, v)))
                service.apply_edge(u, v, "insert")
            compare()
