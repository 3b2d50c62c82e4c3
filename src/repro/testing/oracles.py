"""Reference execution paths the product code no longer carries.

Product code answers a batch one way — plan, then execute each group
(:mod:`repro.engine.plan`) — and serves a location stream one way — one
:class:`~repro.engine.IncrementalEngine` patched in place.  The simpler
paths those replaced live here, so the differential suites and benchmarks
still have something independent to compare against:

* :func:`search_many` — one :meth:`QueryEngine.search
  <repro.engine.QueryEngine.search>` per occurrence, with the
  ``missing_ok`` / ``errors`` semantics of
  :meth:`repro.engine.QueryEngine.search_many`;
* :func:`search` — engine-free search: the algorithm function called on the
  bare graph, rebuilding every per-graph structure for the one query;
* :func:`track_rebuild` — the rebuild-per-check-in replay of a
  :class:`~repro.dynamic.LocationStream`, with the timeline shape of
  :meth:`repro.dynamic.SACTracker.track`.

Answers from every oracle are bit-identical to the product paths; that is
the property the suites assert.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.result import SACResult
from repro.core.searcher import ALGORITHMS
from repro.dynamic.stream import LocationStream
from repro.dynamic.tracker import CommunitySnapshot
from repro.exceptions import InvalidParameterError, NoCommunityError, VertexNotFoundError
from repro.geometry.circle import Circle
from repro.graph.spatial_graph import SpatialGraph

__all__ = ["search", "search_many", "track_rebuild"]


def search_many(
    engine,
    queries: Sequence[int],
    k: int,
    *,
    algorithm: str = "appfast",
    missing_ok: bool = True,
    errors: Optional[Dict[int, str]] = None,
    **params: float,
) -> Dict[int, Optional[SACResult]]:
    """Answer ``queries`` one engine search per occurrence, no plan.

    Queries without a community map to ``None`` when ``missing_ok``, else
    the first one raises.  Invalid arguments (an unknown vertex, a bad
    ``k`` or parameter) are recorded in ``errors`` as ``query -> message``
    when a dict is given, else the first one raises.
    """
    results: Dict[int, Optional[SACResult]] = {}
    for query in queries:
        query = int(query)
        try:
            results[query] = engine.search(query, k, algorithm=algorithm, **params)
        except NoCommunityError:
            if not missing_ok:
                raise
            results[query] = None
        except (InvalidParameterError, VertexNotFoundError) as error:
            if errors is None:
                raise
            errors[query] = str(error)
            results[query] = None
    return results


def search(
    graph: SpatialGraph,
    query: int,
    k: int,
    *,
    algorithm: str = "appfast",
    **params: float,
) -> Optional[SACResult]:
    """Engine-free search: ``ALGORITHMS[algorithm](graph, query, k, **params)``.

    Returns ``None`` when the query vertex is in no k-ĉore.
    """
    try:
        return ALGORITHMS[algorithm](graph, query, k, **params)
    except NoCommunityError:
        return None


def track_rebuild(
    stream: LocationStream,
    users: Sequence[int],
    k: int,
    *,
    algorithm: str = "appfast",
    algorithm_params: Optional[Mapping[str, float]] = None,
) -> Dict[int, List[CommunitySnapshot]]:
    """Replay ``stream``, rebuilding everything at every tracked check-in.

    Each tracked user's check-in runs the algorithm from scratch on a fresh
    coordinate snapshot of the graph.  A check-in without a community gets
    an empty member set and a zero circle at the check-in location, as in
    :meth:`repro.dynamic.SACTracker.track`.
    """
    run = ALGORITHMS[algorithm]
    params = dict(algorithm_params or {})
    tracked = set(int(user) for user in users)
    timelines: Dict[int, List[CommunitySnapshot]] = {user: [] for user in tracked}
    for record in stream.replay():
        if record.user not in tracked:
            continue
        try:
            result = run(stream.snapshot(), record.user, k, **params)
            members, circle = result.members, result.circle
        except NoCommunityError:
            members = frozenset()
            circle = Circle.from_xy(record.x, record.y, 0.0)
        timelines[record.user].append(
            CommunitySnapshot(timestamp=record.timestamp, members=members, circle=circle)
        )
    return timelines
