"""Show the gate can fail: a fixed delay injected into one layer at a time.

Each check runs full benchmark passes of ``run_seconds`` (BENCHMARK.json),
so the module takes about fifteen minutes::

    python3 -m pytest perfbench/tests/test_gates.py -q

The delay rides the benchmark's own wrapper mechanism
(``PERFBENCH_DELAYS``), in the benchmark process and in the daemon alike.
The gate is the driver's rule: a metric worse than the baseline by more
than its bound is flagged.  The no-move checks run baseline and delayed
passes back to back per seed, alternating which side runs first, and flag
a metric when the median of the per-pair changes exceeds its bound: host
contention on a shared machine drifts over minutes by as much as a bound,
and each pair shares its conditions.
"""

from __future__ import annotations

import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

from spread import BENCH, regressions, run_once  # noqa: E402

SEEDS = (101, 102, 103, 104, 105)
#: 300 ms per push against a ~450 ms mutation step, most of it the push:
#: about 40% fewer steps per second, far past ops_per_s's bound.
EVALUATE_DELAY = "service.subscriptions.evaluate=300"
#: 0.5 ms per peel: Exact+ peels thousands of times per query.
PEEL_DELAY = "kcore.peel=0.5"
#: The workloads that never call SubscriptionRegistry.evaluate.
NO_PUSH = ("probe-exact", "probe-appacc", "probe-appinc", "probe-appfast", "serve-zipf")


def _run(workload: str, seed: int, delays: str = "") -> dict:
    env = dict(os.environ)
    env.pop("PERFBENCH_DELAYS", None)
    if delays:
        env["PERFBENCH_DELAYS"] = delays
    result = run_once(workload, seed, env=env)
    assert result["correct"], result["stderr"]
    return result["metrics"]


def _paired_regressions(pairs: list) -> dict:
    """Metrics whose median per-pair change is worse than their bound."""
    flagged = {}
    for metric in BENCH["end_to_end"]:
        name = metric["name"]
        changes = []
        for base, slowed in pairs:
            before, after = base[name]["value"], slowed[name]["value"]
            worse = after - before if metric["better"] == "lower" else before - after
            changes.append(worse / before)
        if statistics.median(changes) > metric["bound"]:
            flagged[name] = changes
    return flagged


def test_evaluate_delay_flags_checkin_stream_and_nothing_else():
    base = _run("checkin-stream", SEEDS[0])
    slowed = _run("checkin-stream", SEEDS[0], EVALUATE_DELAY)
    assert "ops_per_s" in regressions(base, slowed)
    for workload in NO_PUSH:
        pairs = []
        for index, seed in enumerate(SEEDS):  # alternate which side runs first
            if index % 2:
                slowed = _run(workload, seed, EVALUATE_DELAY)
                pairs.append((_run(workload, seed), slowed))
            else:
                pairs.append((_run(workload, seed), _run(workload, seed, EVALUATE_DELAY)))
        assert _paired_regressions(pairs) == {}, workload


def test_peel_delay_flags_probe_exact():
    base = _run("probe-exact", SEEDS[0])
    slowed = _run("probe-exact", SEEDS[0], PEEL_DELAY)
    assert "ops_per_s" in regressions(base, slowed)
