"""Fast checks of the benchmark itself: files in step, wrappers, analysis.

Run from the checkout root::

    python3 -m pytest perfbench/tests/test_benchmark.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from layers import LAYERS, OBSERVERS, REACHED_BY_SOME, coverage_problems, span_metrics  # noqa: E402
from serve_zipf import backlog_peak  # noqa: E402
from tracing import Span, self_times  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
MAP = json.loads((HERE / "interaction_map.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in BENCH["workloads"])
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and UNIT.match(metric["unit"])
    for metric in BENCH["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and UNIT.match(metric["unit"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_map_and_benchmark_agree():
    workloads = MAP["workloads"]
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads)
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    layer = {m["name"] for m in BENCH["per_layer"]}
    assert set(MAP["metrics"]) == e2e | layer
    for entry in MAP["metrics"].values():
        for target in entry.get("moves", ()):
            workload, _, metric = target.partition(":")
            assert workload in workloads and metric in e2e, target
    for spec in workloads.values():
        assert set(spec["covers"]) <= set(tracing.TARGETS)
    pairs = {f"{name}.{kind}" for name in LAYERS for kind in ("calls_per_op", "self_pct")}
    assert pairs | set(REACHED_BY_SOME) <= layer


def test_result_line_holds_every_metric():
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "probe-appfast", "--seed", "1",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in BENCH[kind]
        }


def test_wrappers_patch_the_bindings_call_sites_use():
    tracer = tracing.install(record=True, observers=OBSERVERS)
    try:
        modules = sys.modules
        wrapped = lambda module, name: hasattr(getattr(modules[module], name), "__wrapped_by_perfbench__")  # noqa: E731
        assert wrapped("repro.core.base", "csr_peel_mask")
        assert wrapped("repro.core.base", "csr_component_mask")
        for module in ("appfast", "appinc", "appacc", "exact", "exact_plus", "base"):
            assert wrapped(f"repro.core.{module}", "minimum_enclosing_circle"), module
        for module in ("repro.service.facade", "repro.service.subscriptions"):
            assert wrapped(module, "plan_batch") and wrapped(module, "execute_group"), module
        assert wrapped("repro.engine.incremental", "promote_after_insert")
        assert wrapped("repro.engine.incremental", "demote_after_delete")
        assert all(tracer.bindings[name] > 0 for name in tracing.TARGETS)
    finally:
        tracer.uninstall()
    assert not hasattr(sys.modules["repro.core.base"].csr_peel_mask, "__wrapped_by_perfbench__")


def test_traced_query_records_layers_and_coverage():
    from repro.datasets.registry import load_dataset
    from repro.service import SACService

    service = SACService(load_dataset("brightkite", scale=0.25))
    cores = service.engine.core_numbers()
    query = int(next(v for v in range(len(cores)) if cores[v] >= 4))
    tracer = tracing.install(record=True, observers=OBSERVERS)
    try:
        service.submit_batch([query], 4, algorithm="appacc", epsilon_a=0.5)
    finally:
        tracer.uninstall()
    spans = tracer.finished()
    values = span_metrics(spans, None, spans[0].end - spans[0].start, 1)
    calls = {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
    assert values["core.calls_per_op"] == 1 and values["core.probes_per_query"] > 0
    assert 0 < values["core.probe_unique_ratio"] <= 1
    assert 0 < values["kcore.peel.scratch_ratio"] <= 1
    assert 0 < values["kcore.peel.self_pct"] < 100
    assert values["store.save.calls_per_op"] == 0 and values["store.save.self_pct"] == 0
    assert coverage_problems(calls, ["kcore.peel", "core.appacc"], tracer.bindings) == []
    assert coverage_problems(calls, ["store.save"], tracer.bindings) == [
        "coverage: store.save recorded zero calls"
    ]


def test_delay_applies_without_recording():
    tracer = tracing.install(record=False, delays={"kcore.bfs": 30.0})
    try:
        assert set(tracer.bindings) == {"kcore.bfs"}
        import numpy as np

        bfs = sys.modules["repro.core.base"].csr_component_mask
        started = time.perf_counter()
        bfs(np.array([0, 1, 2]), np.array([1, 0]), np.array([True, True]), 0)
        assert time.perf_counter() - started >= 0.03
    finally:
        tracer.uninstall()
    assert tracer.spans == []


def test_self_time_subtracts_child_coverage():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("c", 3.0, 6.0, 0),  # overlaps b: covered interval is 1..6
        Span("d", 2.0, 3.0, 1),
    ]
    assert self_times(spans) == [5.0, 2.0, 3.0, 1.0]


def test_backlog_peak_counts_due_but_unsent():
    records = [
        {"scheduled": 0.0, "sent": 0.0},
        {"scheduled": 0.1, "sent": 0.5},
        {"scheduled": 0.2, "sent": 0.6},
        {"scheduled": 0.3, "sent": 0.7},
        {"scheduled": 1.0, "sent": 1.0},
    ]
    assert backlog_peak(records) == 2


def test_no_program_means_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "probe-appfast", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_community_check_catches_each_defect():
    from common import community_problem
    from repro.graph.builder import GraphBuilder

    builder = GraphBuilder()
    for clique, offset in ((range(0, 5), 0.0), (range(5, 10), 0.5)):
        for v in clique:
            builder.add_vertex(v, offset + 0.01 * v, 0.1)
        for a in clique:
            for b in clique:
                if a < b:
                    builder.add_edge(a, b)
    graph = builder.build()
    first = [graph.index_of(v) for v in range(5)]
    both = [graph.index_of(v) for v in range(10)]
    center = (0.02, 0.1)
    assert community_problem(graph, first[0], 4, first, center, 0.03) is None
    assert "fewer than 4" in community_problem(graph, first[0], 4, first[:4], center, 0.03)
    assert "not in its community" in community_problem(graph, first[0], 4, first[1:], center, 0.03)
    assert "misses a member" in community_problem(graph, first[0], 4, first, center, 0.01)
    assert "not connected" in community_problem(graph, first[0], 4, both, (0.3, 0.1), 1.0)
