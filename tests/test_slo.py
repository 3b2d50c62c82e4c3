"""Property suite for SLO serving: the deadline ladder and its cost model.

Three properties anchor :mod:`repro.service.slo` (this file pins all of
them, mostly with hypothesis):

* **bounded answers** — whatever rung a deadline buys, the answer obeys that
  rung's paper bound pointwise: ``exact <= answer <= bound * exact`` (the
  same invariant ``tests/test_differential.py`` pins for explicit rungs);
* **deadline monotonicity** — a looser deadline never selects a
  lower-quality rung than a tighter one, for *any* positive coefficients;
* **opt-out identity** — ``deadline_ms=None`` stays bit-identical to the
  explicit-algorithm path, even after SLO traffic has run on the same
  service.

Plus deterministic unit tests of the :class:`~repro.service.slo.CostModel`:
strict monotonicity in component size and bundle residency, calibration on
a synthetic fixture with known per-rung costs (recovered exactly via an
injected fake clock), and multiplicative feedback convergence.

Run separately with ``pytest -m slo``; the suite is also part of tier 1.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets.geosocial import brightkite_like
from repro.engine import QueryEngine
from repro.exceptions import InvalidParameterError
from repro.service import SACService
from repro.service.slo import (
    DEFAULT_CEILING,
    FULL_LADDER,
    LADDER,
    CostModel,
    approximation_bound,
    ladder_from,
    params_for,
    select_rung,
)
from repro.testing.serverharness import assert_results_identical as _assert_identical

pytestmark = pytest.mark.slo

#: Float slack covering the MCC's 1e-7-relative arithmetic (as in
#: ``tests/test_differential.py``).
SLACK = 1.0 + 1e-6

PARAMS = {"epsilon_a": 0.5, "epsilon_f": 0.5}


class TestBoundedAnswers:
    """exact <= deadline-bought answer <= reported bound * exact, pointwise."""

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_deadline_answers_obey_the_reported_bound(self, seed):
        from repro.testing.strategies import random_spatial_graph

        rng = np.random.default_rng(seed)
        n = int(rng.integers(14, 30))
        graph, _ = random_spatial_graph(rng, n, int(rng.integers(2 * n, 4 * n)))
        reference = QueryEngine(graph)
        service = SACService(graph)
        k = int(rng.integers(2, 4))
        labels, _count = reference.component_labels(k)
        eligible = np.flatnonzero(labels >= 0)
        if eligible.size == 0:
            return
        queries = [
            int(q)
            for q in rng.choice(eligible, size=min(6, eligible.size), replace=False)
        ]
        # Budgets from "already expired" to "effectively unlimited": the
        # bound must hold at every rung the ladder can possibly pick.
        deadline_ms = float(10.0 ** rng.uniform(-3.0, 4.0))
        ceiling = str(rng.choice(FULL_LADDER))

        batch = service.submit_batch(
            queries, k, algorithm=ceiling, deadline_ms=deadline_ms, **PARAMS
        )
        assert batch.results, (seed, k, deadline_ms, ceiling)
        for query, result in batch.results.items():
            context = (seed, k, query, deadline_ms, ceiling, result.algorithm)
            # The rung that answered is on the requested ladder and is what
            # the batch reports for this query.
            assert result.algorithm in ladder_from(ceiling), context
            assert batch.algorithm_used[query] == result.algorithm, context
            # The paper bound of the *reported* rung holds against Exact.
            exact = reference.search(query, k, algorithm="exact")
            bound = approximation_bound(result.algorithm, PARAMS)
            assert exact.radius <= result.radius * SLACK, context
            assert result.radius <= bound * exact.radius * SLACK, context
            assert query in result.members, context
            # Late or not, the answer carries an explicit verdict.
            assert query in batch.deadline_missed, context


class TestDeadlineMonotonicity:
    """A looser budget never buys a lower-quality rung than a tighter one."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        tight=st.floats(min_value=-10.0, max_value=1e4),
        slack=st.floats(min_value=0.0, max_value=1e4),
        size=st.integers(min_value=0, max_value=5000),
        resident=st.booleans(),
        ceiling=st.sampled_from(FULL_LADDER),
    )
    def test_select_rung_is_monotone_in_the_deadline(
        self, seed, tight, slack, size, resident, ceiling
    ):
        rng = np.random.default_rng(seed)
        model = CostModel(safety_factor=float(10.0 ** rng.uniform(-1.0, 1.0)))
        for coefficients in model.rungs.values():
            coefficients.fixed_ms = float(10.0 ** rng.uniform(-6.0, 2.0))
            coefficients.per_candidate_ms = float(10.0 ** rng.uniform(-6.0, 1.0))
        model.build_per_candidate_ms = float(10.0 ** rng.uniform(-6.0, 1.0))
        pending = {
            algorithm: int(rng.integers(0, 32)) for algorithm in FULL_LADDER
        }
        loose = tight + slack

        pick = lambda budget: select_rung(  # noqa: E731
            model,
            budget,
            size=size,
            resident=resident,
            pending=pending,
            ceiling=ceiling,
        )
        choice_tight, choice_loose = pick(tight), pick(loose)
        context = (seed, tight, loose, size, resident, ceiling)
        # Lower FULL_LADDER index == better quality.
        assert FULL_LADDER.index(choice_loose.algorithm) <= FULL_LADDER.index(
            choice_tight.algorithm
        ), context
        # Never a refusal: both budgets bought *some* rung on the ladder.
        assert choice_tight.algorithm in ladder_from(ceiling), context
        if not choice_tight.fits:
            assert choice_tight.algorithm == ladder_from(ceiling)[-1], context

    def test_extreme_budgets_bracket_the_ladder(self):
        """An expired budget buys the fastest rung, a huge one the ceiling."""
        model = CostModel()
        pending = {algorithm: 4 for algorithm in FULL_LADDER}
        starved = select_rung(
            model, -1.0, size=100, resident=True, pending=pending
        )
        assert starved.algorithm == LADDER[-1]
        assert starved.fits is False
        rich = select_rung(
            model, 1e9, size=100, resident=True, pending=pending
        )
        assert rich.algorithm == DEFAULT_CEILING
        assert rich.fits is True

    def test_fully_cached_group_fits_any_deadline_at_the_ceiling(self):
        """Zero pending queries cost zero, so the ceiling wins even broke."""
        model = CostModel()
        pending = {algorithm: 0 for algorithm in FULL_LADDER}
        choice = select_rung(
            model, 0.0, size=10_000, resident=False, pending=pending
        )
        assert choice.algorithm == DEFAULT_CEILING
        assert choice.fits is True
        assert choice.predicted_ms == 0.0


class TestOptOutIdentity:
    """deadline_ms=None stays bit-identical to the explicit-algorithm path."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_none_path_identical_even_after_slo_traffic(self, seed):
        from repro.testing.strategies import random_spatial_graph

        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 50))
        graph, _ = random_spatial_graph(rng, n, int(rng.integers(2 * n, 4 * n)))
        service = SACService(graph)
        k = int(rng.integers(2, 4))
        queries = [int(q) for q in rng.choice(n, size=min(8, n), replace=False)]

        # SLO traffic first: calibrates the model, stores answers at
        # whatever rungs the deadlines buy — none of which may leak into
        # the explicit path below.
        service.submit_batch(
            queries, k, deadline_ms=float(10.0 ** rng.uniform(-1.0, 3.0)), **PARAMS
        )

        batch = service.submit_batch(queries, k, algorithm="appfast", epsilon_f=0.5)
        fresh = QueryEngine(graph.mutable_copy())
        for query in queries:
            try:
                expected = fresh.search(query, k, algorithm="appfast", epsilon_f=0.5)
            except Exception:
                expected = None
            _assert_identical(expected, batch.results.get(query), (seed, k, query))
        # The opt-out batch carries no deadline bookkeeping at all.
        assert batch.deadline_ms is None
        assert batch.deadline_missed == {}

    def test_single_query_opt_out_is_the_engine_path(self):
        graph = brightkite_like(num_vertices=120, seed=3)
        service = SACService(graph)
        reference = QueryEngine(graph)
        cores = reference.core_numbers()
        query = int(np.flatnonzero(cores >= 2)[0])
        served = service.search(query, 2, algorithm="appfast", epsilon_f=0.5)
        expected = reference.search(query, 2, algorithm="appfast", epsilon_f=0.5)
        _assert_identical(expected, served)


class TestParameterValidation:
    """A bad parameter is an error whatever the deadline, before any work."""

    @pytest.fixture(scope="class")
    def setup(self):
        graph = brightkite_like(num_vertices=300, seed=7)
        cores = QueryEngine(graph).core_numbers()
        queries = [int(q) for q in np.flatnonzero(cores >= 4)[:2]]
        assert len(queries) == 2
        return graph, queries

    @pytest.mark.parametrize("deadline_ms", [None, 1e7, 0.001])
    def test_bad_parameter_raises_for_every_deadline(self, setup, deadline_ms):
        graph, queries = setup
        service = SACService(graph)
        with pytest.raises(InvalidParameterError, match=r"epsilon_a must be in \(0, 1\)"):
            service.submit_batch(
                queries, 4, algorithm="exact+", epsilon_a=2.0, deadline_ms=deadline_ms
            )
        # Rejected before calibration and before any query ran.
        assert service.slo_model.stats.calibrations == 0
        assert service.engine.stats.queries_served == 0

    def test_parameter_of_a_lower_rung_is_checked(self, setup):
        graph, queries = setup
        service = SACService(graph)
        with pytest.raises(InvalidParameterError, match="epsilon_f"):
            service.submit_batch(
                queries, 4, algorithm="exact+", epsilon_f=-1.0, deadline_ms=1e7
            )
        with pytest.raises(InvalidParameterError, match="epsilon_a"):
            service.search(queries[0], 4, algorithm="exact+", epsilon_a=2.0, deadline_ms=1e7)


# --------------------------------------------------------------------- model
class _SyntheticEngine:
    """A fake engine with known affine per-rung costs and a fake clock.

    The synthetic analogue of the paper's Table-4 timings: three k-ĉore
    components of distinct sizes, each rung costing exactly
    ``fixed + per_candidate * size`` milliseconds per query plus a one-off
    bundle build of ``BUILD_PER_CANDIDATE * size``.  Time only advances when
    work is (pretend-)done, so :meth:`CostModel.calibrate` — driven by the
    injected :meth:`timer` — sees noiseless measurements and must recover
    the coefficients exactly.
    """

    TRUTH = {
        "exact": (8.0, 0.5),
        "exact+": (4.0, 0.08),
        "appacc": (2.0, 0.03),
        "appinc": (1.0, 0.012),
        "appfast": (0.5, 0.004),
    }
    BUILD_PER_CANDIDATE = 0.02
    SIZES = (40, 120, 360)

    def __init__(self):
        self.clock_ms = 0.0
        self._resident = set()
        self.searches = []

    def timer(self):
        """Fake ``perf_counter``: seconds of simulated work so far."""
        return self.clock_ms / 1000.0

    def component_labels(self, k):
        labels = np.repeat(np.arange(len(self.SIZES)), self.SIZES)
        return labels, len(self.SIZES)

    def component_representative(self, k, component):
        return int(component)

    def bundle_resident(self, k, representative):
        return representative in self._resident

    def component_artifacts(self, k, component):
        representative = self.component_representative(k, component)
        if representative not in self._resident:
            self.clock_ms += self.BUILD_PER_CANDIDATE * self.SIZES[component]
            self._resident.add(representative)

    def search(self, query, k, algorithm="exact+", **params):
        fixed, per_candidate = self.TRUTH[algorithm]
        self.clock_ms += fixed + per_candidate * self.SIZES[int(query)]
        self.searches.append((algorithm, int(query)))
        return None


class TestCostModel:
    def test_predict_is_strictly_monotone_in_size(self):
        model = CostModel()
        for algorithm in FULL_LADDER:
            costs = [model.predict(algorithm, size) for size in (0, 1, 10, 1000)]
            assert costs == sorted(costs)
            assert len(set(costs)) == len(costs), algorithm

    def test_nonresident_bundle_costs_strictly_more(self):
        model = CostModel()
        for algorithm in FULL_LADDER:
            cold = model.predict(algorithm, 50, resident=False)
            warm = model.predict(algorithm, 50, resident=True)
            assert cold > warm, algorithm
        # ...and the surcharge is paid once per group, not per query.
        group_cold = model.predict_group("appfast", 50, queries=4, resident=False)
        group_warm = model.predict_group("appfast", 50, queries=4, resident=True)
        assert group_cold - group_warm == pytest.approx(
            model.build_per_candidate_ms * 50
        )

    def test_zero_pending_queries_cost_zero(self):
        model = CostModel()
        assert model.predict_group("exact+", 10_000, queries=0, resident=False) == 0.0

    def test_calibration_recovers_synthetic_table4_costs(self):
        """On the noiseless fixture, the affine fit is exact per rung."""
        engine = _SyntheticEngine()
        model = CostModel()
        ran = model.calibrate(engine, 4, ladder=LADDER, timer=engine.timer)
        # Median + largest component, one probe query per rung on each.
        assert ran == 2 * len(LADDER)
        assert model.stats.calibrations == 1
        assert model.stats.probes == ran
        assert len(model.calibration_probes) == ran
        assert model.build_per_candidate_ms == pytest.approx(
            _SyntheticEngine.BUILD_PER_CANDIDATE
        )
        for algorithm in LADDER:
            fixed, per_candidate = _SyntheticEngine.TRUTH[algorithm]
            assert model.rungs[algorithm].fixed_ms == pytest.approx(fixed)
            assert model.rungs[algorithm].per_candidate_ms == pytest.approx(
                per_candidate
            )
            # Converged: predictions match the fixture at unprobed sizes too.
            assert model.predict(algorithm, 200) == pytest.approx(
                fixed + per_candidate * 200
            )

    def test_calibration_probes_a_real_fixture(self):
        """On a real engine the probes run and every coefficient stays sane."""
        graph = brightkite_like(num_vertices=300, seed=11)
        engine = QueryEngine(graph)
        model = CostModel()
        ran = model.calibrate(engine, 3)
        assert ran >= len(LADDER)
        sizes = {size for _algorithm, size, _ms in model.calibration_probes}
        assert all(size >= 1 for size in sizes)
        for algorithm, coefficients in model.rungs.items():
            assert coefficients.fixed_ms > 0, algorithm
            assert coefficients.per_candidate_ms > 0, algorithm
        # The probes land inside the engine's own query counters (they are
        # real searches, not simulations).
        assert engine.stats.queries_served >= ran

    def test_observe_converges_onto_a_slower_machine(self):
        """Multiplicative feedback closes a 4x misprediction within ~20 steps."""
        model = CostModel()
        size, queries = 200, 4
        truth = 4.0 * model.predict("appfast", size)
        for _ in range(20):
            model.observe(
                "appfast", size, queries=queries, elapsed_ms=truth * queries
            )
        assert model.predict("appfast", size) == pytest.approx(truth, rel=0.05)

    def test_observe_clamps_outliers(self):
        """One absurd measurement moves the fit at most one order of magnitude."""
        model = CostModel()
        before = model.predict("appacc", 100)
        model.observe("appacc", 100, queries=1, elapsed_ms=before * 1e6)
        after = model.predict("appacc", 100)
        assert after <= before * (0.7 + 0.3 * 10.0) * SLACK

    def test_params_are_filtered_per_rung(self):
        """Ladder switches must not leak another rung's knobs."""
        assert params_for("appfast", PARAMS) == {"epsilon_f": 0.5}
        assert params_for("appacc", PARAMS) == {"epsilon_a": 0.5}
        assert params_for("appinc", PARAMS) == {}


class TestObserveWindowClamp:
    """Feedback can never ratchet coefficients past the calibration window.

    The regression pinned here: :meth:`CostModel.observe` clamped only the
    per-update ratio (10x), so a *stream* of pathological group latencies
    compounded — ~9 updates at the default learning rate multiplied a
    coefficient by 10, and nothing stopped the next 9.  The window clamp
    bounds total drift to ``[anchor / 10, anchor * 10]`` until the next
    calibration re-anchors.
    """

    @staticmethod
    def _envelope(model, algorithm):
        anchor = model._window_anchors[algorithm]
        bounds = []
        for anchor_value in (anchor.fixed_ms, anchor.per_candidate_ms):
            low = max(1e-6, anchor_value / model.window_clamp)
            high = max(1e-6, anchor_value * model.window_clamp)
            bounds.append((low, high))
        return bounds

    @given(
        observations=st.lists(
            st.tuples(
                st.sampled_from(sorted(FULL_LADDER)),
                st.integers(min_value=1, max_value=5_000),      # size
                st.integers(min_value=1, max_value=64),         # queries
                st.floats(
                    min_value=0.0,
                    max_value=1e12,
                    allow_nan=False,
                    allow_infinity=False,
                ),                                              # elapsed_ms
                st.booleans(),                                  # resident
            ),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_adversarial_streams_stay_inside_the_envelope(self, observations):
        model = CostModel()
        for algorithm, size, queries, elapsed_ms, resident in observations:
            model.observe(
                algorithm,
                size,
                queries=queries,
                elapsed_ms=elapsed_ms,
                resident=resident,
            )
            for name in FULL_LADDER:
                coefficients = model.rungs[name]
                (fixed_low, fixed_high), (slope_low, slope_high) = self._envelope(
                    model, name
                )
                assert fixed_low <= coefficients.fixed_ms <= fixed_high, name
                assert slope_low <= coefficients.per_candidate_ms <= slope_high, name

    def test_sustained_burst_saturates_instead_of_ratcheting(self):
        """100 absurd observations pin the fit at 10x, not 10^11x."""
        model = CostModel()
        anchor_fixed = model._window_anchors["appfast"].fixed_ms
        anchor_slope = model._window_anchors["appfast"].per_candidate_ms
        for _ in range(100):
            model.observe("appfast", 100, queries=1, elapsed_ms=1e9)
        coefficients = model.rungs["appfast"]
        assert coefficients.fixed_ms == pytest.approx(anchor_fixed * 10.0)
        assert coefficients.per_candidate_ms == pytest.approx(anchor_slope * 10.0)
        assert model.stats.observations_clamped > 0
        # ...and the same downwards: absurdly fast observations floor at /10.
        for _ in range(100):
            model.observe("appfast", 100, queries=1000, elapsed_ms=0.0)
        assert coefficients.fixed_ms == pytest.approx(anchor_fixed / 10.0)
        assert coefficients.per_candidate_ms == pytest.approx(anchor_slope / 10.0)

    def test_recalibration_reanchors_the_window(self):
        """Escaping the envelope requires a real calibration, which re-anchors."""
        engine = _SyntheticEngine()
        model = CostModel()
        for _ in range(50):
            model.observe("appfast", 100, queries=1, elapsed_ms=1e9)
        saturated = model.rungs["appfast"].fixed_ms
        assert saturated == pytest.approx(
            model._window_anchors["appfast"].fixed_ms * 10.0
        )
        model.calibrate(engine, 4, ladder=LADDER, timer=engine.timer)
        # The anchors now sit at the freshly fitted coefficients...
        assert model._window_anchors["appfast"].fixed_ms == pytest.approx(
            model.rungs["appfast"].fixed_ms
        )
        # ...so feedback regains a full window around the new fit.
        before = model.rungs["appfast"].fixed_ms
        model.observe("appfast", 100, queries=1, elapsed_ms=1e9)
        assert model.rungs["appfast"].fixed_ms > before
