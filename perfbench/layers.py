"""Per-layer metrics from recorded spans, plus the coverage self-check.

Every workload reports every metric, so each is defined on all of them: a
layer a workload does not call reads 0 calls and a 0% share.  Naming:
``<layer>.calls_per_op`` is calls per operation of the workload (a query,
a mutation step, a request) and ``<layer>.self_pct`` the layer's self time
as a share of the timed work, both over the traced pass.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from tracing import RUNGS, Span, reindex, self_times


# ----------------------------------------------------------------- observers
def _observe_peel(span: Span, args, kwargs, result) -> None:
    import numpy as np

    num_vertices = args[2] if len(args) > 2 else kwargs["num_vertices"]
    members = args[3] if len(args) > 3 else kwargs["members"]
    span.attrs["n"] = int(num_vertices)
    span.attrs["m"] = int(members.size)
    span.attrs["h"] = hash(np.sort(members).tobytes())


def _observe_rung(span: Span, args, kwargs, result) -> None:
    if result is not None:
        span.attrs["probes"] = int(result.stats.get("feasibility_checks", 0))


def _observe_plan(span: Span, args, kwargs, result) -> None:
    queries = args[1] if len(args) > 1 else kwargs["queries"]
    span.attrs["occurrences"] = len(queries)
    if result is not None:
        span.attrs["groups"] = len(result.groups)


OBSERVERS = {
    "kcore.peel": _observe_peel,
    "engine.plan": _observe_plan,
    **{f"core.{rung}": _observe_rung for rung in RUNGS.values()},
}


# ------------------------------------------------------------------ analysis
#: Span names that get a ``<layer>.calls_per_op`` / ``<layer>.self_pct``
#: pair on every workload; ``core`` pools the rung spans (``core.<rung>``).
LAYERS = (
    "geometry.range_query", "geometry.mec", "kcore.peel", "kcore.bfs", "kcore.maintenance",
    "core", "engine.plan", "engine.execute_group", "engine.apply_checkin", "engine.apply_edge",
    "service.submit_batch", "service.search", "service.subscriptions.evaluate", "store.save",
)


#: Metrics of layers only some workloads reach (standing queries, snapshot
#: saves, the WAL, the server, the open-loop client): a workload that does
#: not reach the layer did none of that work and reports 0.
REACHED_BY_SOME = (
    "service.subscriptions.useful_ratio", "service.subscriptions.groups_per_evaluate",
    "store.save.bytes_per_live_byte", "store.wal.bytes_per_record",
    "server.batch_size_mean", "server.flush_share.size", "server.flush_share.linger",
    "server.flush_share.mutation", "server.rejected", "server.self_pct", "client.backlog_peak",
)


def _layer_of(name: str) -> str:
    return "core" if name.startswith("core.") else name


def span_metrics(
    spans: List[Span], windows: Optional[List[tuple]], work_s: float, ops: int
) -> Dict[str, float]:
    """Layer metrics from spans, per operation of the workload.

    ``windows=[(start, end), ...]`` keeps the top-level spans (and their
    descendants) that started inside one; ``work_s`` is the timed work the
    self-time shares are taken of and ``ops`` the operations it covered.
    """
    if windows is not None:
        keep: List[bool] = []
        for span in spans:
            if span.parent < 0:
                keep.append(any(start <= span.start <= end for start, end in windows))
            else:
                keep.append(keep[span.parent])
        spans = reindex([span if kept else None for span, kept in zip(spans, keep)])
    selfs = self_times(spans)
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    for span, own in zip(spans, selfs):
        layer = _layer_of(span.name)
        calls[layer] = calls.get(layer, 0) + 1
        self_s[layer] = self_s.get(layer, 0.0) + own

    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls_per_op"] = calls.get(layer, 0) / ops
        out[f"{layer}.self_pct"] = self_s.get(layer, 0.0) / work_s * 100.0
    peel = [s for s in spans if s.name == "kcore.peel"]
    allocated = sum(s.attrs.get("n", 0) for s in peel)
    out["kcore.peel.scratch_ratio"] = (
        sum(s.attrs.get("m", 0) for s in peel) / allocated if allocated else 0.0
    )

    # Probe uniqueness: a peel belongs to the query of its outermost rung span.
    owner: List[int] = []
    for index, span in enumerate(spans):
        parent_owner = owner[span.parent] if span.parent >= 0 else -1
        owner.append(
            parent_owner if parent_owner >= 0 else (index if span.name.startswith("core.") else -1)
        )
    probe_sets: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span.name == "kcore.peel" and owner[index] >= 0:
            probe_sets.setdefault(owner[index], []).append(span.attrs.get("h"))
    queries = [i for i, s in enumerate(spans) if s.name.startswith("core.") and owner[i] == i]
    out["core.probes_per_query"] = (
        sum(spans[i].attrs.get("probes", 0) for i in queries) / len(queries) if queries else 0.0
    )
    peels = sum(len(probe_sets.get(i, ())) for i in queries)
    distinct = sum(len(set(probe_sets.get(i, ()))) for i in queries)
    out["core.probe_unique_ratio"] = distinct / peels if peels else 0.0

    plans = [s for s in spans if s.name == "engine.plan"]
    out["engine.plan.groups_per_batch"] = (
        sum(s.attrs.get("groups", 0) for s in plans) / len(plans) if plans else 0.0
    )
    out["engine.plan.occurrences"] = sum(s.attrs.get("occurrences", 0) for s in plans)
    return out


def coverage_problems(calls: Dict[str, int], required: List[str], bindings: Dict[str, int]) -> List[str]:
    """Wrapped layers the map says this workload exercises but that recorded nothing."""
    problems = []
    for name in required:
        if bindings and not bindings.get(name):
            problems.append(f"coverage: wrapper {name} patched no binding")
        elif not calls.get(name):
            problems.append(f"coverage: {name} recorded zero calls")
    return problems


def engine_ratios(engine_stats: dict, occurrences: float, ops: int) -> Dict[str, float]:
    """``EngineStats``-derived plan and bundle counters (deltas over the timed work)."""
    return {
        "engine.plan.dedupe_ratio": (
            engine_stats.get("queries_deduped", 0) / occurrences if occurrences else 0.0
        ),
        "engine.bundles_invalidated_per_op": engine_stats.get("bundles_invalidated", 0) / ops,
        "engine.bundle_builds_per_op": engine_stats.get("components_materialised", 0) / ops,
    }


def cache_ratios(cache_stats: Optional[dict], ops: int) -> Dict[str, float]:
    cache_stats = cache_stats or {}
    lookups = cache_stats.get("hits", 0) + cache_stats.get("misses", 0)
    return {
        "service.cache.hit_ratio": cache_stats.get("hits", 0) / lookups if lookups else 0.0,
        "service.cache.invalidations_per_op": cache_stats.get("invalidations", 0) / ops,
    }
