"""Sharded batch serving benchmark vs. the planned serial service.

Measures what ``--workers`` chooses between: the same uncached
:meth:`repro.service.SACService.submit_batch` answered by a planned serial
service (``workers=None``) and by a sharded one (``workers=N``, a process
pool over the plan's component groups).  Both services are warmed on the
batch before timing, so the steady-state rounds time query answering only;
rounds alternate between the two sides so host-speed drift hits both.  The
sharded service's first round — which forks the pool, publishes the
shared-memory segments and attaches them in the workers — is reported
separately as ``pool_startup_ms``.  Answers must be bit-identical on every
round; the benchmark exits non-zero when they diverge.

An **overlap sweep** mode (``--overlap-sweep``) measures the factorised
batch planner instead: the same base queries are duplicated 1×/2×/4×/8× and
answered through ``QueryEngine.search_many`` and through the per-query
oracle (:func:`repro.testing.oracles.search_many`).  The per-query loop
pays every duplicate; the planner answers each distinct query once and
shares each ``(component, k)`` group's candidate artifacts and distance
matrix, so its per-query cost drops superlinearly with overlap (speedup at
factor *f* exceeds *f*).  The sweep re-checks bit-identity across the
planned, per-query, sharded, and cached paths and exits non-zero when
answers diverge or the plan's factorisation counters stay zero.

Run standalone::

    python benchmarks/bench_sharded_batch.py                 # full workload
    python benchmarks/bench_sharded_batch.py --quick         # CI smoke
    python benchmarks/bench_sharded_batch.py --workers 2 --rounds 9
    python benchmarks/bench_sharded_batch.py --quick --overlap-sweep
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

_here = Path(__file__).resolve().parent
sys.path.insert(0, str(_here))
sys.path.insert(1, str(_here.parent / "src"))  # uninstalled checkout fallback

from bench_common import write_result
from repro.datasets.registry import load_dataset
from repro.engine import QueryEngine
from repro.experiments.queries import select_query_vertices
from repro.service import SACService, ShardedExecutor
from repro.testing import oracles


def _identical(first, second) -> bool:
    """Bitwise comparison of two SACResults (members, circle, stats)."""
    return (
        first.members == second.members
        and first.circle.radius == second.circle.radius
        and first.circle.center.x == second.circle.center.x
        and first.circle.center.y == second.circle.center.y
        and first.stats == second.stats
    )


def _batches_identical(first, second) -> bool:
    """Two batch results answered the same queries with identical answers."""
    return set(first.results) == set(second.results) and all(
        _identical(first.results[q], second.results[q]) for q in first.results
    )


def _timed(service, queries, k, epsilon_f):
    """One uncached round: ``(batch, seconds)``."""
    start = time.perf_counter()
    batch = service.submit_batch(queries, k, algorithm="appfast", epsilon_f=epsilon_f)
    return batch, time.perf_counter() - start


def _measure_dataset(graph, queries, k, epsilon_f, rounds, workers):
    """Alternate serial and sharded rounds; returns timings and identity."""
    serial = SACService(graph, use_cache=False)
    sharded = SACService(graph, workers=workers, use_cache=False)
    try:
        # Warm-up, untimed: labelling and bundle builds on both engines.
        reference, _ = _timed(serial, queries, k, epsilon_f)
        sharded.engine.search_many(queries, k, algorithm="appfast", epsilon_f=epsilon_f)
        first, startup = _timed(sharded, queries, k, epsilon_f)
        identical = _batches_identical(reference, first)
        serial_times, sharded_times = [], []
        for round_index in range(rounds):
            sides = [(serial, serial_times), (sharded, sharded_times)]
            for service, times in sides if round_index % 2 == 0 else sides[::-1]:
                batch, seconds = _timed(service, queries, k, epsilon_f)
                times.append(seconds)
                identical &= _batches_identical(reference, batch)
        stats = sharded.stats().executor
    finally:
        serial.close()
        sharded.close()
    return {
        "serial": statistics.median(serial_times),
        "sharded": statistics.median(sharded_times),
        "startup": startup,
        "fallbacks": stats.serial_fallbacks,
        "identical": identical,
    }


def run_benchmark(dataset_names, *, scale, queries_per_dataset, k, epsilon_f, rounds, workers):
    """Time planned-serial vs sharded per dataset; returns ``(rows, all_identical)``."""
    rows = []
    identical = True
    for name in dataset_names:
        graph = load_dataset(name, scale=scale)
        queries = select_query_vertices(
            graph, count=queries_per_dataset, min_core=k, seed=9
        )
        if not queries:
            print(f"  {name}: no queries with core number >= {k}, skipped")
            continue
        measured = _measure_dataset(graph, queries, k, epsilon_f, rounds, workers)
        identical &= measured["identical"]
        rows.append(
            {
                "dataset": name,
                "vertices": graph.num_vertices,
                "queries": len(queries),
                "serial_ms": round(measured["serial"] * 1000.0, 2),
                "sharded_ms": round(measured["sharded"] * 1000.0, 2),
                "sharded_speedup": round(measured["serial"] / measured["sharded"], 2),
                "pool_startup_ms": round(measured["startup"] * 1000.0, 2),
                "fallbacks": measured["fallbacks"],
                "identical": measured["identical"],
            }
        )
    return rows, identical


def _sweep_variants_identical(planned, serial, sharded, cached) -> bool:
    """Check the four execution paths agree bitwise on every answered query."""
    answered = {q for q, result in planned.items() if result is not None}
    others = (
        {q for q, result in serial.items() if result is not None},
        set(sharded),
        set(cached),
    )
    if any(other != answered for other in others):
        return False
    return all(
        _identical(planned[q], serial[q])
        and _identical(planned[q], sharded[q])
        and _identical(planned[q], cached[q])
        for q in answered
    )


def run_overlap_sweep(
    dataset_name, *, scale, base_queries, factors, k, epsilon_f, workers
):
    """Duplicate a base batch by each factor; time planned vs per-query.

    Returns ``(rows, identical, counters, superlinear)`` where ``counters``
    snapshots the planned engine's factorisation stats and ``superlinear``
    is whether the plan's speedup at the largest factor exceeds the factor
    itself (dedupe alone would only reach the factor; the margin comes from
    the shared per-group candidate sets and vectorised distance matrices).
    """
    graph = load_dataset(dataset_name, scale=scale)
    base = select_query_vertices(graph, count=base_queries, min_core=k, seed=9)
    if not base:
        print(f"  {dataset_name}: no queries with core number >= {k}, skipped")
        return [], True, {}, False

    planned_engine = QueryEngine(graph)
    serial_engine = QueryEngine(graph)
    # Warm both engines on the base batch so the sweep times query
    # answering, not the one-off core decomposition and bundle builds.
    planned_engine.search_many(base, k, algorithm="appfast", epsilon_f=epsilon_f)
    oracles.search_many(serial_engine, base, k, algorithm="appfast", epsilon_f=epsilon_f)
    executor = ShardedExecutor(QueryEngine(graph), workers=workers)
    service = SACService(graph, workers=workers)

    rows = []
    identical = True
    speedup_by_factor = {}
    for factor in factors:
        batch = [query for _ in range(factor) for query in base]

        start = time.perf_counter()
        planned = planned_engine.search_many(
            batch, k, algorithm="appfast", epsilon_f=epsilon_f
        )
        planned_time = time.perf_counter() - start

        start = time.perf_counter()
        serial = oracles.search_many(
            serial_engine, batch, k, algorithm="appfast", epsilon_f=epsilon_f
        )
        serial_time = time.perf_counter() - start

        sharded = executor.run(
            batch, k, algorithm="appfast", epsilon_f=epsilon_f
        ).results
        cached = service.submit_batch(
            batch, k, algorithm="appfast", epsilon_f=epsilon_f
        ).results

        matches = _sweep_variants_identical(planned, serial, sharded, cached)
        identical &= matches
        speedup = serial_time / planned_time if planned_time > 0 else float("inf")
        speedup_by_factor[factor] = speedup
        rows.append(
            {
                "dataset": dataset_name,
                "factor": factor,
                "batch": len(batch),
                "planned_perquery_ms": round(planned_time / len(batch) * 1000.0, 4),
                "perquery_ms": round(serial_time / len(batch) * 1000.0, 4),
                "plan_speedup": round(speedup, 2),
                "identical": matches,
            }
        )
    executor.close()
    service.close()

    stats = planned_engine.stats
    counters = {
        "batches_planned": stats.batches_planned,
        "plan_groups": stats.plan_groups,
        "queries_deduped": stats.queries_deduped,
        "queries_factorised": stats.queries_factorised,
    }
    largest = max(factors)
    superlinear = speedup_by_factor[largest] > largest
    return rows, identical, counters, superlinear


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small CI smoke workload")
    parser.add_argument(
        "--overlap-sweep",
        action="store_true",
        help="sweep batch-overlap factors through the factorised planner "
        "instead of running the serial-vs-sharded serving benchmark",
    )
    parser.add_argument(
        "--overlap-factors",
        default="1,2,4,8",
        help="comma-separated duplication factors for --overlap-sweep",
    )
    parser.add_argument(
        "--overlap-queries",
        type=int,
        default=None,
        help="base (distinct) queries per --overlap-sweep batch",
    )
    parser.add_argument("--scale", type=float, default=None, help="dataset scale multiplier")
    parser.add_argument("--queries", type=int, default=None, help="queries per batch")
    parser.add_argument(
        "--rounds", type=int, default=None, help="timed rounds per side (median reported)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=os.cpu_count() or 2,
        help="process-pool size (default: the host's CPU count)",
    )
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--epsilon-f", type=float, default=0.5)
    parser.add_argument(
        "--datasets",
        default="brightkite,gowalla,syn1",
        help="comma-separated registry dataset names",
    )
    args = parser.parse_args(argv)

    scale = args.scale if args.scale is not None else (0.5 if args.quick else 1.0)
    queries = args.queries if args.queries is not None else (16 if args.quick else 32)
    rounds = args.rounds if args.rounds is not None else (5 if args.quick else 9)
    names = [name.strip() for name in args.datasets.split(",") if name.strip()]

    if args.overlap_sweep:
        factors = sorted(
            {int(part) for part in args.overlap_factors.split(",") if part.strip()}
        )
        base_queries = (
            args.overlap_queries
            if args.overlap_queries is not None
            else (12 if args.quick else 32)
        )
        dataset = names[0]
        print(
            f"batch-overlap sweep: dataset={dataset} scale={scale} "
            f"base_queries={base_queries} factors={factors} workers={args.workers} "
            f"k={args.k}"
        )
        rows, identical, counters, superlinear = run_overlap_sweep(
            dataset,
            scale=scale,
            base_queries=base_queries,
            factors=factors,
            k=args.k,
            epsilon_f=args.epsilon_f,
            workers=args.workers,
        )
        write_result(
            "sharded_batch_overlap",
            "Batch-overlap sweep: factorised plan vs per-query path",
            rows,
            extra={
                "counters": counters,
                "largest_factor": max(factors),
                "superlinear": superlinear,
            },
        )
        if not identical:
            print("FAIL: execution paths returned diverging results", file=sys.stderr)
            return 1
        if not rows:
            print("FAIL: sweep produced no measurements", file=sys.stderr)
            return 1
        if counters["queries_factorised"] == 0 or counters["queries_deduped"] == 0:
            print(
                f"FAIL: plan factorisation counters stayed zero: {counters}",
                file=sys.stderr,
            )
            return 1
        status = "superlinear" if superlinear else "NOT superlinear (machine-dependent)"
        largest = max(factors)
        print(
            f"overlap sweep: plan speedup {rows[-1]['plan_speedup']}x at factor "
            f"{largest} — per-query cost drop {status}; counters {counters}"
        )
        return 0

    print(
        f"sharded batch benchmark: datasets={names} scale={scale} queries={queries} "
        f"rounds={rounds} workers={args.workers} k={args.k}"
    )
    rows, identical = run_benchmark(
        names,
        scale=scale,
        queries_per_dataset=queries,
        k=args.k,
        epsilon_f=args.epsilon_f,
        rounds=rounds,
        workers=args.workers,
    )
    write_result(
        "sharded_batch",
        "Uncached batch latency: planned serial vs sharded service (median round)",
        rows,
        extra={"workers": args.workers, "rounds": rounds},
    )
    if not identical:
        print("FAIL: execution paths returned diverging results", file=sys.stderr)
        return 1
    for row in rows:
        print(
            f"{row['dataset']}: sharded {row['sharded_speedup']}x vs planned serial "
            f"at {args.workers} workers (steady state; pool start-up "
            f"{row['pool_startup_ms']} ms, {row['fallbacks']} fallbacks)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
