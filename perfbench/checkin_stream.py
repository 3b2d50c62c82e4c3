"""``checkin-stream``: writes beside reads and standing queries, in process.

The stack is ``SACService(engine=IncrementalEngine)`` over a mutable copy of
the graph, plus a ``SubscriptionRegistry`` of 400 standing AppFast queries
on 40 Zipf-popular vertices (10:1 fan-in).  Mutations are the Figure-13
travel stream of ``CheckinGenerator``; every tenth mutation is instead a
seeded edge insert/delete flip (fixed positions, so even a short traced run
applies edge updates).  After every mutation the run calls
``registry.evaluate()`` (one push) and one read-after-write ``search`` of a
Zipf-popular vertex; every 50 mutations, and once more when the run
ends, it saves a snapshot to the same path.  Mutations run until
``--seconds`` of timed work is spent; one operation is one mutation step
(the mutation, its push and its read, and the save when one is due).
"""

from __future__ import annotations

import time
from dataclasses import fields, is_dataclass
from typing import Dict, List

import numpy as np

from common import (
    EPS_F,
    K,
    HostSpeed,
    Outcome,
    community_problem,
    dir_bytes,
    eligible_vertices,
    median,
    peak_rss_mb,
    read_json,
    same_answer,
    write_graph,
    write_json,
    zipf_weights,
)

#: The Zipf ranking is fixed (as in serve-zipf) and the standing queries
#: watch its top ranks; the seed draws the reads from the ranking, the
#: mobile users and the stream.
POPULARITY_SEED = 0
WATCHED = 40
FAN_IN = 10
MOBILE_USERS = 300
CHECKINS_PER_USER = 10
EDGE_EVERY = 10
SAVE_EVERY = 50
#: Every n-th read is also recomputed on the engine-free path, bit for bit.
READ_SPOT_EVERY = 10
#: Set-up is timed before the first mutation and then every
#: :data:`SETUP_EVERY` mutations (untimed) up to :data:`SETUP_SAMPLES`:
#: host contention drifts over seconds, so spread samples give a steadier
#: median than back-to-back ones.
SETUP_SAMPLES = 5
SETUP_EVERY = 15
PARAMS = {"epsilon_f": EPS_F}


def make_inputs(work, seed: int) -> Dict[str, str]:
    """Graph file, standing-query file and mutation-stream file."""
    from repro.datasets.geosocial import CheckinGenerator, TravelProfile
    from repro.graph.io import load_graph_npz

    graph_path = work / "graph.npz"
    write_graph(graph_path)
    graph = load_graph_npz(graph_path)
    eligible = eligible_vertices(graph)
    popularity = np.random.default_rng(POPULARITY_SEED).permutation(eligible)
    rng = np.random.default_rng(seed)
    weights = zipf_weights(len(popularity))
    watched = popularity[:WATCHED]
    standing = [graph.label_of(int(watched[i % WATCHED])) for i in range(WATCHED * FAN_IN)]

    users = rng.choice(eligible, size=MOBILE_USERS, replace=False)
    generator = CheckinGenerator(
        graph,
        TravelProfile(local_std=0.01, move_probability=0.1, move_distance_mean=0.25),
        seed=seed,
    )
    checkins = generator.generate(
        [int(u) for u in users], checkins_per_user=CHECKINS_PER_USER, duration_days=40.0
    )
    adjacency = {v: set(graph.neighbors(v)) for v in eligible}
    stream = []
    for index, checkin in enumerate(checkins):
        read = graph.label_of(int(popularity[rng.choice(len(popularity), p=weights)]))
        if index % EDGE_EVERY == EDGE_EVERY // 2:
            u = int(rng.choice(eligible))
            if rng.random() < 0.5 and adjacency[u]:
                v = int(rng.choice(sorted(adjacency[u])))
                action = "delete"
            else:
                v = int(rng.choice(eligible))
                while v == u or v in adjacency[u]:
                    v = int(rng.choice(eligible))
                action = "insert"
            for a, b in ((u, v), (v, u)):
                if a in adjacency:
                    (adjacency[a].discard if action == "delete" else adjacency[a].add)(b)
            stream.append(
                {"op": "edge", "u": graph.label_of(u), "v": graph.label_of(v),
                 "action": action, "read": read}
            )
        else:
            stream.append(
                {"op": "checkin", "user": graph.label_of(checkin.user),
                 "x": checkin.x, "y": checkin.y, "read": read}
            )
    paths = {"graph": str(graph_path), "standing": str(work / "standing.json"),
             "stream": str(work / "stream.json")}
    write_json(paths["standing"], standing)
    write_json(paths["stream"], stream)
    return paths


def _setup(graph_path: str, first_label):
    from repro.engine import IncrementalEngine
    from repro.graph.io import load_graph_npz
    from repro.service import SACService

    graph = load_graph_npz(graph_path)
    service = SACService(engine=IncrementalEngine(graph.mutable_copy()))
    service.warm(K)
    service.engine.context(service.graph.index_of(first_label), K)  # the first bundle
    return service


def live_bytes(engine) -> int:
    """Bytes of the arrays a snapshot covers, as the live engine holds them."""
    total = engine.graph.coordinates.nbytes + sum(a.nbytes for a in engine.graph.csr)

    def visit(value) -> int:
        if isinstance(value, np.ndarray):
            return value.nbytes
        if isinstance(value, dict):
            return sum(visit(v) for v in value.values())
        if isinstance(value, (list, tuple)):
            return sum(visit(v) for v in value)
        if is_dataclass(value):
            return sum(visit(getattr(value, f.name)) for f in fields(value))
        return 0

    return total + visit(engine.export_state())


def _fold(state: dict, message: dict) -> dict:
    if message["type"] == "delta":
        members = (set(state["members"]) - set(message["removed"])) | set(message["added"])
    else:
        members = set(message["members"])
    return {"found": message["found"], "members": sorted(members),
            "radius": message["radius"], "center": message["center"]}


def run(work, seed: int, seconds: float, tracer, outcome: Outcome) -> None:
    from repro.core.searcher import ALGORITHMS
    from repro.exceptions import NoCommunityError
    from repro.service import SACService, SubscriptionRegistry

    paths = make_inputs(work, seed)
    standing: List = read_json(paths["standing"])
    stream: List[dict] = read_json(paths["stream"])

    tracer.enabled = False
    setups: List[float] = []
    speed = HostSpeed()

    def timed_setup():
        started = time.perf_counter()
        fresh = _setup(paths["graph"], standing[0])
        setups.append((time.perf_counter() - started) / speed.sample())
        return fresh

    service = timed_setup()

    graph = service.graph
    engine = service.engine
    registry = SubscriptionRegistry(service, backlog=1_000_000, idle_seconds=None)
    folded: Dict[str, dict] = {}
    watched: Dict[str, int] = {}
    for label in standing:
        sub, snapshot = registry.register(graph.index_of(label), K, algorithm="appfast", params=PARAMS)
        folded[sub.sub_id] = _fold({}, snapshot)
        watched[sub.sub_id] = sub.vertex
    snapshot_path = work / "snapshot"
    engine_before = dict(vars(engine.stats))
    cache_before = dict(vars(service.cache.stats))
    subs_before = registry.stats.as_dict()

    push_ms: List[float] = []
    read_ms: List[float] = []
    timed = 0.0
    # Each step's time scaled by the host speed measured around it.
    scaled = 0.0
    factor = speed.sample()
    mutations = 0
    tracer.enabled = tracer.record
    window_start = time.perf_counter()
    for step, mutation in enumerate(stream):
        if timed >= seconds:
            break
        started = time.perf_counter()
        if mutation["op"] == "checkin":
            service.apply_checkin(graph.index_of(mutation["user"]), mutation["x"], mutation["y"])
        else:
            service.apply_edge(
                graph.index_of(mutation["u"]), graph.index_of(mutation["v"]), mutation["action"]
            )
        applied = time.perf_counter()
        registry.evaluate()
        pushed = time.perf_counter()
        query = graph.index_of(mutation["read"])
        try:
            answer = service.search(query, K, algorithm="appfast", **PARAMS)
        except NoCommunityError:
            answer = None
        read = time.perf_counter()
        if (step + 1) % SAVE_EVERY == 0:
            service.save(snapshot_path)
        step_seconds = time.perf_counter() - started
        timed += step_seconds
        tracer.enabled = False
        previous, factor = factor, speed.sample()
        scaled += step_seconds / ((previous + factor) / 2.0)
        push_ms.append((pushed - applied) * 1000.0)
        read_ms.append((read - pushed) * 1000.0)
        mutations += 1
        outcome.attempted += 2  # the mutation and its read-after-write

        if step % SETUP_EVERY == SETUP_EVERY - 1 and len(setups) < SETUP_SAMPLES:
            timed_setup().close()
        for sub_id in folded:  # drain the queues as a subscriber would
            for message in registry.poll(sub_id):
                folded[sub_id] = _fold(folded[sub_id], message)
        if answer is not None:
            problem = community_problem(
                graph, query, K, answer.members,
                (answer.circle.center.x, answer.circle.center.y), answer.circle.radius,
            )
            if problem:
                outcome.fail(f"read after mutation {step}: {problem}")
        if step % READ_SPOT_EVERY == 0:
            try:
                reference = ALGORITHMS["appfast"](graph, query, K, **PARAMS)
            except NoCommunityError:
                reference = None
            if (answer is None) != (reference is None) or (
                answer is not None and not same_answer(answer, reference)
            ):
                outcome.fail(f"read after mutation {step} differs from the engine-free path")
        tracer.enabled = tracer.record
    started = time.perf_counter()
    service.save(snapshot_path)
    step_seconds = time.perf_counter() - started
    timed += step_seconds
    scaled += step_seconds / factor
    window = (window_start, time.perf_counter())
    tracer.enabled = False
    engine_delta = {k: v - engine_before[k] for k, v in vars(engine.stats).items() if isinstance(v, int)}
    cache_delta = {k: v - cache_before[k] for k, v in vars(service.cache.stats).items()}
    subs_after = registry.stats.as_dict()

    outcome.metric("setup_s", median(setups))
    outcome.metric("ops_per_s", mutations / scaled)
    outcome.details["ops_per_s_raw"] = mutations / timed
    outcome.details["speed_factor"] = speed.factor()
    outcome.metric("peak_rss_mb", peak_rss_mb())
    outcome.details["read_after_write_p50_ms"] = median(read_ms)
    outcome.details["push_p50_ms"] = median(push_ms)
    outcome.details["mutations"] = mutations
    outcome.details["edge_flips"] = sum(1 for m in stream[:mutations] if m["op"] == "edge")
    outcome.details["work_unit_s"] = timed / mutations

    # Every subscription's folded state equals a fresh re-query.
    outcome.attempted += len(folded)
    for sub_id, state in folded.items():
        for message in registry.poll(sub_id):
            state = _fold(state, message)
        try:
            fresh = engine.search(watched[sub_id], K, algorithm="appfast", **PARAMS)
            expected = {"found": True, "members": sorted(graph.label_of(v) for v in fresh.members),
                        "radius": fresh.circle.radius,
                        "center": [fresh.circle.center.x, fresh.circle.center.y]}
        except NoCommunityError:
            expected = {"found": False, "members": [], "radius": None, "center": None}
        if state != expected:
            outcome.fail(f"subscription {sub_id} folded state differs from a re-query")
    # A reopened snapshot answers a sample the same as the live engine.
    reopened = SACService.open(snapshot_path)
    sample = sorted(set(watched.values()))[:10]
    outcome.attempted += len(sample)
    for query in sample:
        try:
            live = engine.search(query, K, algorithm="appfast", **PARAMS)
            again = reopened.engine.search(query, K, algorithm="appfast", **PARAMS)
        except NoCommunityError:
            continue
        if not same_answer(live, again):
            outcome.fail(f"reopened snapshot answers {query} differently")
    reopened.close()

    evaluated = subs_after["subscriptions_evaluated"] - subs_before["subscriptions_evaluated"]
    evaluations = subs_after["evaluations"] - subs_before["evaluations"]
    outcome.details["layer_context"] = {
        "window": [window],
        "work_s": timed,
        "ops": mutations,
        "engine": engine_delta,
        "cache": cache_delta,
        "extra": {
            "client.read_p50_ms": median(read_ms),
            "service.subscriptions.useful_ratio": (
                (subs_after["deltas_queued"] - subs_before["deltas_queued"]) / evaluated if evaluated else 0.0
            ),
            "service.subscriptions.groups_per_evaluate": (
                (subs_after["groups_executed"] - subs_before["groups_executed"]) / evaluations
                if evaluations else 0.0
            ),
            "store.save.bytes_per_live_byte": dir_bytes(snapshot_path) / live_bytes(engine),
        },
    }
    service.close()
