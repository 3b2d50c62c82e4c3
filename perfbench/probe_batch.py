"""``probe-<rung>``: one rung's ``submit_batch``, in process.

The feasibility probe dominates here; plan, cache, server and store do
almost nothing.  Each of the four workloads (``probe-exact``,
``probe-appacc``, ``probe-appinc``, ``probe-appfast``) submits one rung's
batch of distinct core >= 4 vertices in rounds, each on a fresh service,
until ``--seconds`` of batch time is spent.  The batch is a prefix of one fixed panel (a permutation of
the eligible vertices under :data:`PANEL_SEED`; Exact+ skips
:data:`EXACT_SKIP`).  Per-vertex cost spans more than 30x (Exact+ 0.3-20 s),
so a panel redrawn per seed would move the figures by far more than any
bound; the run seed permutes each round's submission order and draws the
engine-free spot-check sample instead.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from common import (
    K,
    RUNG_PARAMS,
    HostSpeed,
    Outcome,
    community_problem,
    median,
    same_answer,
    peak_rss_mb,
    read_json,
    write_graph,
    write_json,
)

PANEL_SEED = 0
#: Workload name -> the rung it submits.
WORKLOAD_RUNG = {
    "probe-exact": "exact+",
    "probe-appacc": "appacc",
    "probe-appinc": "appinc",
    "probe-appfast": "appfast",
}
#: Panel positions Exact+ skips: the second vertex alone takes 17 s of
#: Exact+ (the others in the first dozen 0.3-1.8 s), so it would be one
#: block setting the rung's whole figure and leave no room for rounds.
EXACT_SKIP = frozenset({1})
#: Mean per-query cost (ms) of each rung's batch on a 2-core Xeon at 2.0 GHz
#: when the benchmark was introduced; it sizes the batch from ``--seconds``.
REFERENCE_MS = {"exact+": 1300.0, "appacc": 150.0, "appinc": 115.0, "appfast": 7.0}
#: The batch runs once per round, each time on a fresh service (so a cold
#: cache), and the run reports the median round's rate, scaled by the host
#: speed measured just before and after the round (``HostSpeed``): a slow
#: spell of a shared host spoils a round, not the figure.  Each round's
#: fresh service is one set-up sample, so the set-up median is taken over
#: samples spread across the run.  A batch is sized for about
#: :data:`ROUNDS` rounds in ``--seconds``; rounds then run until
#: ``--seconds`` of batch time is spent, at least :data:`MIN_ROUNDS` and at
#: most :data:`MAX_ROUNDS` of them.
ROUNDS = 12
MIN_ROUNDS = 3
MAX_ROUNDS = 40
#: Engine-free spot checks (Exact+ takes the cheapest answered vertex).
SPOT_CHECKS = {"exact+": 1, "appacc": 2, "appinc": 2, "appfast": 4}
#: Panel positions whose Exact+ radius the approximate rungs are held to
#: their bounds against, computed after the timed rounds: two of the
#: cheapest Exact+ vertices of the panel's head (0.3 and 0.7 s).
BOUND_CHECK = (4, 5)


def batch_size(rung: str, seconds: float) -> int:
    """Queries per batch: ``seconds`` of the rung's work, split over the rounds."""
    return max(1, round(seconds * 1000.0 / REFERENCE_MS[rung] / ROUNDS))


def make_inputs(work, rung: str, seed: int, seconds: float) -> Dict[str, str]:
    """Graph file plus the query-label file (one list per round)."""
    from repro.graph.io import load_graph_npz

    from common import eligible_vertices

    graph_path = work / "graph.npz"
    write_graph(graph_path)
    graph = load_graph_npz(graph_path)
    order = np.random.default_rng(PANEL_SEED).permutation(eligible_vertices(graph))
    panel = [graph.label_of(int(v)) for v in order]
    size = batch_size(rung, seconds)
    if rung == "exact+":
        chosen = [label for i, label in enumerate(panel) if i not in EXACT_SKIP][:size]
        bound_check = []
    else:
        chosen = panel[: max(size, max(BOUND_CHECK) + 1)]
        bound_check = [panel[i] for i in BOUND_CHECK]
    order_rng = np.random.default_rng(seed)
    batches = [[chosen[i] for i in order_rng.permutation(len(chosen))] for _ in range(MAX_ROUNDS)]
    queries_path = work / "queries.json"
    write_json(queries_path, {
        "k": K, "rung": rung, "batches": batches, "bound_check": bound_check, "spot_seed": seed,
    })
    return {"graph": str(graph_path), "queries": str(queries_path)}


def _setup(graph_path: str, first_label):
    from repro.graph.io import load_graph_npz
    from repro.service import SACService

    graph = load_graph_npz(graph_path)
    service = SACService(graph)
    service.warm(K)
    service.engine.context(graph.index_of(first_label), K)  # the first bundle
    return service


def run(work, rung: str, seed: int, seconds: float, tracer, outcome: Outcome) -> None:
    from repro.core.searcher import ALGORITHMS
    from repro.service import approximation_bound

    paths = make_inputs(work, rung, seed, seconds)
    spec = read_json(paths["queries"])
    batches: List[List] = spec["batches"]
    params = RUNG_PARAMS[rung]

    setups: List[float] = []
    answers: Dict[int, object] = {}
    windows = []
    rates: List[float] = []
    raw_rates: List[float] = []
    speed = HostSpeed()
    work_seconds = 0.0
    answered = 0
    engine_stats: Dict[str, int] = {}
    cache_stats: Dict[str, int] = {}
    for round_index, labels in enumerate(batches):
        if work_seconds >= seconds and round_index >= MIN_ROUNDS:
            break
        tracer.enabled = False
        before_speed = speed.sample()
        started = time.perf_counter()
        service = _setup(paths["graph"], labels[0])
        setup_seconds = time.perf_counter() - started
        graph = service.graph
        queries = [graph.index_of(label) for label in labels]
        before = service.stats()
        before = (dict(vars(before.engine)), dict(vars(before.cache)))
        tracer.enabled = tracer.record
        started = time.perf_counter()
        batch = service.submit_batch(queries, K, algorithm=rung, **params)
        elapsed = time.perf_counter() - started
        tracer.enabled = False
        windows.append((started, started + elapsed))
        work_seconds += elapsed
        outcome.attempted += len(queries)
        missing = [q for q in queries if q not in batch.results]
        if missing:
            outcome.fail(f"{rung}: {len(missing)} queries unanswered", len(missing))
        if not answers:
            answers = batch.results
        elif any(q not in answers or not same_answer(answers[q], r) for q, r in batch.results.items()):
            outcome.fail(f"{rung}: round {round_index} answers differ from round 0")
        # The round's speed factor: the kernel just before and just after it.
        factor = (before_speed + speed.sample()) / 2.0
        raw_rates.append((len(queries) - len(missing)) / elapsed)
        rates.append(raw_rates[-1] * factor)
        setups.append(setup_seconds / factor)
        answered += len(queries) - len(missing)
        after = service.stats()
        for total, new, old in (
            (engine_stats, vars(after.engine), before[0]),
            (cache_stats, vars(after.cache), before[1]),
        ):
            for key, value in new.items():
                if isinstance(value, int):
                    total[key] = total.get(key, 0) + value - old[key]
        service.close()
    outcome.metric("ops_per_s", median(rates))
    outcome.metric("setup_s", median(setups))
    outcome.metric("peak_rss_mb", peak_rss_mb())
    outcome.details["rounds_qps"] = rates
    outcome.details["rounds_qps_raw"] = raw_rates
    outcome.details["speed_factor"] = speed.factor()
    outcome.details["work_unit_s"] = work_seconds / answered

    # Every answer: a connected k-core containing q, covered by its circle.
    for query, result in answers.items():
        problem = community_problem(
            graph, query, K, result.members,
            (result.circle.center.x, result.circle.center.y), result.circle.radius,
        )
        if problem:
            outcome.fail(f"{rung}: {problem}")
    # The paper's bound against the Exact+ radius on the same vertex.
    bound = approximation_bound(rung, params) if rung != "exact+" else None
    for label in spec["bound_check"]:
        query = graph.index_of(label)
        optimum = ALGORITHMS["exact+"](graph, query, K)
        result = answers[query]
        slack = 1e-9 * max(1.0, optimum.radius)
        if result.radius < optimum.radius - slack:
            outcome.fail(f"{rung} beats Exact+ on {query}: {result.radius} < {optimum.radius}")
        elif result.radius > bound * optimum.radius + slack:
            outcome.fail(f"{rung} breaks its bound {bound} on {query}")
    # A seeded sample is bit-identical to the engine-free algorithm call.
    keys = sorted(answers)
    if rung == "exact+":
        spots = [min(keys, key=lambda q: (answers[q].stats.get("feasibility_checks", 0), q))]
    else:
        spot_rng = np.random.default_rng(spec["spot_seed"])
        spots = [keys[i] for i in spot_rng.choice(len(keys), min(SPOT_CHECKS[rung], len(keys)), replace=False)]
    for query in spots:
        reference = ALGORITHMS[rung](graph, int(query), K, **params)
        if not same_answer(answers[query], reference):
            outcome.fail(f"{rung}: engine answer for {query} differs from the engine-free path")
    outcome.details["spot_checks"] = len(spots)

    outcome.details["layer_context"] = {
        "window": windows,
        "work_s": work_seconds,
        "ops": answered,
        "engine": engine_stats,
        "cache": cache_stats,
        "extra": {"client.read_p50_ms": 1000.0 / median(rates)},
    }
