"""High-level facade over the SAC search algorithms.

:class:`SACSearcher` binds a graph once, translates user-facing vertex labels
to internal indices, dispatches to any of the algorithms by name, and can
return ``None`` instead of raising when a query has no community — the
behaviour most applications want.

The searcher answers queries through a shared
:class:`repro.engine.QueryEngine`, so the per-graph preprocessing (core
decomposition, k-ĉore component labelling, per-component spatial indexes) is
paid once and reused across every query.  Results are bit-identical to
calling the algorithm functions directly (``repro.testing.oracles`` keeps
that engine-free reference for the tests).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Mapping, Optional

from repro.core.appacc import app_acc, check_epsilon_a
from repro.core.appfast import app_fast, check_epsilon_f
from repro.core.appinc import app_inc
from repro.core.exact import exact
from repro.core.exact_plus import exact_plus
from repro.core.result import SACResult
from repro.core.theta import theta_sac
from repro.exceptions import InvalidParameterError, NoCommunityError
from repro.graph.spatial_graph import Label, SpatialGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine import QueryEngine
    from repro.extensions.batch import BatchResult

#: Registry of algorithm names accepted by :meth:`SACSearcher.search`.
ALGORITHMS: Dict[str, Callable] = {
    "exact": exact,
    "exact+": exact_plus,
    "appinc": app_inc,
    "appfast": app_fast,
    "appacc": app_acc,
}

#: Range check of each tunable algorithm parameter, by keyword — the very
#: function every algorithm taking that keyword calls on entry.
PARAMETER_CHECKS: Dict[str, Callable[[float], None]] = {
    "epsilon_a": check_epsilon_a,
    "epsilon_f": check_epsilon_f,
}


def validate_params(params: Mapping[str, float]) -> None:
    """Raise :class:`InvalidParameterError` for an out-of-range parameter.

    Lets a batch reject a bad parameter once, before any work, with the
    same error its algorithm would raise per query.  Names without a range
    check pass through; the algorithm call rejects unknown keywords.
    """
    for name, value in params.items():
        check = PARAMETER_CHECKS.get(name)
        if check is not None:
            check(value)


class SACSearcher:
    """Convenience facade for running SAC queries against one graph.

    Parameters
    ----------
    graph:
        The spatial graph to query.
    default_algorithm:
        Algorithm used when :meth:`search` is called without one.  The paper's
        guidance: ``exact+`` for moderate-size graphs, ``appfast`` or
        ``appacc`` for graphs with millions of vertices.

    Examples
    --------
    >>> searcher = SACSearcher(graph)                      # doctest: +SKIP
    >>> result = searcher.search("alice", k=4)             # doctest: +SKIP
    >>> sorted(searcher.member_labels(result))             # doctest: +SKIP
    ['alice', 'bob', 'carol', 'dave', 'eve']
    """

    def __init__(
        self,
        graph: SpatialGraph,
        default_algorithm: str = "appfast",
    ) -> None:
        if default_algorithm not in ALGORITHMS:
            raise InvalidParameterError(
                f"unknown algorithm {default_algorithm!r}; choose from {sorted(ALGORITHMS)}"
            )
        self.graph = graph
        self.default_algorithm = default_algorithm
        self._engine: Optional["QueryEngine"] = None

    @property
    def engine(self) -> "QueryEngine":
        """The lazily created query engine backing this searcher."""
        if self._engine is None:
            from repro.engine import QueryEngine

            self._engine = QueryEngine(self.graph)
        return self._engine

    def search(
        self,
        query: Label,
        k: int,
        *,
        algorithm: Optional[str] = None,
        missing_ok: bool = True,
        **params: float,
    ) -> Optional[SACResult]:
        """Run a SAC query.

        Parameters
        ----------
        query:
            User-facing label of the query vertex.
        k:
            Minimum-degree threshold.
        algorithm:
            One of ``"exact"``, ``"exact+"``, ``"appinc"``, ``"appfast"``,
            ``"appacc"``; defaults to the searcher's default.
        missing_ok:
            When ``True`` (default) return ``None`` if the query vertex is not
            part of any k-ĉore; when ``False`` propagate
            :class:`~repro.exceptions.NoCommunityError`.
        params:
            Extra algorithm parameters (``epsilon_f`` for AppFast,
            ``epsilon_a`` for AppAcc / Exact+).
        """
        index = self.graph.index_of(query)
        try:
            return self.engine.search(
                index, k, algorithm=algorithm or self.default_algorithm, **params
            )
        except NoCommunityError:
            if missing_ok:
                return None
            raise

    def search_batch(
        self,
        queries,
        k: int,
        *,
        algorithm: Optional[str] = None,
        **params: float,
    ) -> "BatchResult":
        """Answer many queries (by label) in one batch.

        Returns a :class:`repro.extensions.BatchResult` with per-query
        results, the failed queries, and timing that separates the shared
        preprocessing from the per-query work.
        """
        from repro.extensions.batch import BatchSACProcessor

        indices = [self.graph.index_of(label) for label in queries]
        processor = BatchSACProcessor(
            self.graph,
            k,
            algorithm=algorithm or self.default_algorithm,
            algorithm_params=dict(params),
            engine=self.engine,
        )
        return processor.run(indices)

    def search_theta(
        self, query: Label, k: int, theta: float, *, missing_ok: bool = True
    ) -> Optional[SACResult]:
        """Run a θ-SAC query (community constrained to ``O(q, theta)``)."""
        index = self.graph.index_of(query)
        result = theta_sac(self.graph, index, k, theta, raise_on_empty=not missing_ok)
        return result

    def member_labels(self, result: SACResult) -> list:
        """Translate a result's member indices back to user-facing labels."""
        return [self.graph.label_of(v) for v in sorted(result.members)]
