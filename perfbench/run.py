"""The repository benchmark: six seeded workloads, one command.

Run from the root of a checkout::

    python3 perfbench/run.py --workload probe-exact --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists and
``perfbench/interaction_map.json`` for which layer metric should move which
end-to-end metric on which workload):

* ``probe-exact``, ``probe-appacc``, ``probe-appinc``, ``probe-appfast`` —
  one ladder rung's ``submit_batch``, in process;
* ``serve-zipf``     — the serving daemon as a subprocess under open-loop
  Poisson traffic (Zipf-popular AppFast queries plus 5% check-ins);
* ``checkin-stream`` — check-ins and edge flips beside standing queries,
  read-after-write searches and periodic snapshots, in process.

Every workload generates its inputs from ``--seed`` into files under
``.perfbench/`` and hands the program only those files; every answer is
checked.  Every workload reports every metric of ``BENCHMARK.json``, each
defined per workload (``ops_per_s`` counts that workload's operations).
``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload twice on the same inputs, each pass sized for half of
``--seconds`` — untraced, then with a span wrapper around every layer entry
point — and reports the per-layer metrics plus ``trace.overhead_pct``, the
traced pass's slowdown; it fails the run if a layer the workload is mapped
to recorded no calls (coverage self-check).

``PERFBENCH_DELAYS="kcore.peel=2"`` injects a fixed sleep (ms per call) into
the named layers, in this process and in the daemon; the benchmark's own
tests use it to show each gate can fail.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries
run details.  The program missing from the checkout is an error (exit 2,
no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BenchError,
    Outcome,
    WorkDir,
    benchmark,
    interaction_map,
    require_program,
)

WORKLOADS = ("probe-exact", "probe-appacc", "probe-appinc", "probe-appfast", "serve-zipf", "checkin-stream")


def _workload(name: str):
    """The workload's ``run(work, seed, seconds, tracer, outcome)``."""
    if name.startswith("probe-"):
        import functools

        import probe_batch

        return functools.partial(probe_batch.run, rung=probe_batch.WORKLOAD_RUNG[name])
    if name == "serve-zipf":
        import serve_zipf

        return serve_zipf.run
    import checkin_stream

    return checkin_stream.run


def run_pass(name: str, seed: int, seconds: float, *, record: bool, delays) -> Outcome:
    """One pass of a workload with its own tracer and scratch directory."""
    import tracing
    from layers import OBSERVERS

    tracer = tracing.install(record=record, delays=delays, observers=OBSERVERS)
    work = WorkDir(name, seed)
    outcome = Outcome()
    try:
        _workload(name)(work, seed=seed, seconds=seconds, tracer=tracer, outcome=outcome)
    finally:
        tracer.uninstall()
        work.close()
    outcome.details["tracer"] = tracer
    return outcome


def layer_metrics(outcome: Outcome, covers: list) -> dict:
    """Per-layer metrics of a traced pass; flags mapped layers left uncalled."""
    from layers import REACHED_BY_SOME, cache_ratios, coverage_problems, engine_ratios, span_metrics

    tracer = outcome.details["tracer"]
    context = outcome.details["layer_context"]
    spans = context.get("spans") or tracer.finished()
    ops = context["ops"]
    values = dict.fromkeys(REACHED_BY_SOME, 0.0)
    values.update(span_metrics(spans, context["window"], context["work_s"], ops))
    calls: dict = {}
    for span in spans:  # coverage counts the whole pass, set-up included
        calls[span.name] = calls.get(span.name, 0) + 1
    values.update(engine_ratios(context["engine"], values.pop("engine.plan.occurrences"), ops))
    values.update(cache_ratios(context["cache"], ops))
    values.update(context["extra"])
    for problem in coverage_problems(calls, covers, context.get("bindings", tracer.bindings)):
        outcome.problem(problem)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        require_program()
        import tracing

        delays = tracing.parse_delays(os.environ.get("PERFBENCH_DELAYS", ""))
        covers = interaction_map()["workloads"][args.workload]["covers"]
        bench = benchmark()
        wanted = bench["per_layer" if args.trace else "end_to_end"]
        units = {metric["name"]: metric["unit"] for metric in wanted}
        if args.trace:
            half = args.seconds / 2.0
            untraced = run_pass(args.workload, args.seed, half, record=False, delays=delays)
            outcome = run_pass(args.workload, args.seed, half, record=True, delays=delays)
            values = layer_metrics(outcome, covers)
            base = untraced.details["work_unit_s"]
            values["trace.overhead_pct"] = (outcome.details["work_unit_s"] - base) / base * 100.0
            outcome.metrics = values
            outcome.problems = untraced.problems + outcome.problems
            outcome.failed += untraced.failed
        else:
            outcome = run_pass(args.workload, args.seed, args.seconds, record=False, delays=delays)
        missing = [name for name in units if name not in outcome.metrics]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
        outcome.metrics = {name: outcome.metrics[name] for name in units}
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    if outcome.attempted < 1:
        outcome.problem("no operation was attempted")
    for problem in outcome.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    details = {
        key: value for key, value in outcome.details.items()
        if key not in ("tracer", "layer_context")
    }
    print(json.dumps({"workload": args.workload, "seed": args.seed, "details": details}, default=str))
    print(json.dumps({
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]} for name, value in outcome.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
