"""Run one workload over several seeds and report each metric's spread.

Usage (from the checkout root)::

    python3 perfbench/spread.py --workload serve-zipf --seeds 1-10

For every metric it prints the median of the runs and the distance between
the first and third quartile as a share of that median (Python's
``statistics.quantiles(values, n=4)``), next to the metric's bound from
``BENCHMARK.json`` — the steadiness test a benchmark run must pass.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str):
    if "-" in text:
        low, high = (int(part) for part in text.split("-"))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, env=None) -> dict:
    """One untraced run of ``run_seconds``; returns its result line plus wall seconds."""
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=900,
    )
    wall = time.perf_counter() - started
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{completed.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["stderr"] = completed.stderr[-2000:]
    return result


def regressions(base: dict, new: dict) -> list:
    """End-to-end metrics of ``new`` worse than ``base`` by more than their bound."""
    flagged = []
    for metric in BENCH["end_to_end"]:
        name = metric["name"]
        before, after = base[name]["value"], new[name]["value"]
        change = (after - before) / before if metric["better"] == "lower" else (before - after) / before
        if change > metric["bound"]:
            flagged.append(name)
    return flagged


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        result = run_once(args.workload, seed)
        runs.append(result)
        values = {name: round(m["value"], 4) for name, m in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              f"wall={result['wall_s']:.1f}s {json.dumps(values)}", flush=True)
        if not result["correct"]:
            print(result["stderr"], file=sys.stderr)
    names = sorted({name for run in runs for name in run["metrics"]})
    ok = all(run["correct"] for run in runs)
    for name in names:
        values = [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]
        if len(values) < 2:
            continue
        middle, share = spread(values)
        bound = bounds.get(name)
        verdict = "" if bound is None else ("ok" if share <= bound else "TOO WIDE")
        if bound is not None and name != "setup_s" and share > bound:
            ok = False
        print(f"{name:32s} median {middle:12.4f}  iqr/median {share:7.4f}  bound {bound}  {verdict}")
    print(f"max wall {max(r['wall_s'] for r in runs):.1f}s, mean {statistics.mean(r['wall_s'] for r in runs):.1f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
