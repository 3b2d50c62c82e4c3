"""Shared plumbing: locating the program, inputs on disk, statistics, checks."""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: Every workload queries the Table-4 Brightkite stand-in at scale 1.0
#: (4,000 vertices; its k = 4 core is one 3,040-vertex component).
DATASET = "brightkite"
K = 4
EPS_F = 0.5
EPS_A = 0.5
#: Algorithm parameters per rung.  Exact+ runs at its paper-default inner
#: AppAcc accuracy (1e-4): at 0.5 the fixed-vertex annulus holds ~300
#: vertices and the triple enumeration takes minutes per query.
RUNG_PARAMS: Dict[str, Dict[str, float]] = {
    "exact+": {},
    "appacc": {"epsilon_a": EPS_A},
    "appinc": {},
    "appfast": {"epsilon_f": EPS_F},
}


class BenchError(Exception):
    """The benchmark cannot run (missing program, broken environment)."""


def require_program() -> None:
    """Put ``src/`` on the import path, or fail when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def interaction_map() -> dict:
    """The per-workload metric and coverage map (``interaction_map.json``)."""
    with open(HERE / "interaction_map.json", encoding="utf-8") as handle:
        return json.load(handle)


def benchmark() -> dict:
    """``BENCHMARK.json``: the metric lists and units every workload reports."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


class WorkDir:
    """A private scratch directory under ``.perfbench/`` in the checkout."""

    def __init__(self, workload: str, seed: int) -> None:
        self.path = ROOT / ".perfbench" / f"{workload}-s{seed}-p{os.getpid()}"
        if self.path.exists():
            shutil.rmtree(self.path)
        self.path.mkdir(parents=True)

    def __truediv__(self, name: str) -> Path:
        return self.path / name

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


# ------------------------------------------------------------------ inputs
def write_graph(path: Path) -> None:
    """Generate the dataset stand-in and write it as a graph ``.npz``."""
    from repro.datasets.registry import load_dataset
    from repro.graph.io import save_graph_npz

    save_graph_npz(load_dataset(DATASET, scale=1.0), path)


def write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def read_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def eligible_vertices(graph) -> List[int]:
    """Vertex indices with core number >= K, ascending."""
    import numpy as np

    from repro.engine import QueryEngine

    return [int(v) for v in np.flatnonzero(QueryEngine(graph).core_numbers() >= K)]


def zipf_weights(count: int, s: float = 1.1):
    """Rank-popularity weights ``rank^-s``, normalised (as in bench_slo_traffic)."""
    import numpy as np

    weights = np.arange(1, count + 1, dtype=float) ** -s
    return weights / weights.sum()


# -------------------------------------------------------------- statistics
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


class HostSpeed:
    """How fast the host runs right now, from a fixed reference kernel.

    The benchmark shares a small host whose speed swings by up to 2x over
    seconds to minutes (other tenants, frequency changes); a run's raw
    rates move with it far more than any regression bound.  An in-process
    workload times this kernel, which uses no code of the program, next to
    the work it measures and scales the measured rates and set-up times to
    a host on which the kernel takes :data:`REFERENCE_S`: a program that gets slower
    still reads slower, a host that gets slower does not.  The kernel is
    timed in thread CPU time, so threads the program starts do not stretch
    it (and so cannot hide their own cost).
    """

    #: Kernel time on a 2-core Xeon at 2.0 GHz in a calm spell.
    REFERENCE_S = 0.02

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._kernel()  # imports and first-call costs stay out of the samples

    @staticmethod
    def _kernel() -> float:
        import numpy as np

        values = np.random.default_rng(12345).random(4096)
        total = 0.0
        for step in range(400):
            chosen = np.flatnonzero(values > step / 400.0)
            total += float(np.sort(values[chosen])[:8].sum())
            table = {i: i * step for i in range(250)}
            total += sum(v for v in table.values() if v % 3)
        return total

    def sample(self) -> float:
        """Time the kernel once; returns this sample's speed factor."""
        import time

        started = time.thread_time()
        self._kernel()
        elapsed = time.thread_time() - started
        self.samples.append(elapsed)
        return elapsed / self.REFERENCE_S

    def factor(self) -> float:
        """The run's speed factor: median kernel time over the reference."""
        return median(self.samples) / self.REFERENCE_S


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Another process's resident-set high-water mark (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in Path(path).rglob("*") if entry.is_file())


# ------------------------------------------------------------------- result
class Outcome:
    """What one run reports: counts, metrics, and why anything failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, float] = {}
        self.problems: List[str] = []
        self.details: Dict[str, object] = {}

    def metric(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    def fail(self, message: str, count: int = 1) -> None:
        """Count ``count`` failed operations; keep the first messages."""
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)

    def problem(self, message: str) -> None:
        """A failed whole-run check (drain, coverage): not an operation."""
        self.problems.append(message)


# ------------------------------------------------------------------- checks
def same_answer(first, second) -> bool:
    """Two ``SACResult`` answers are bit-identical (members and circle)."""
    return (
        first.members == second.members
        and first.circle.radius == second.circle.radius
        and first.circle.center.x == second.circle.center.x
        and first.circle.center.y == second.circle.center.y
    )


def _gather(indptr, indices, vertices):
    """Concatenated CSR neighbour lists of ``vertices`` and their row lengths."""
    import numpy as np

    starts = indptr[vertices]
    counts = indptr[vertices + 1] - starts
    offsets = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    return indices[offsets], counts


def community_problem(graph, query: int, k: int, members: Iterable[int], center, radius) -> Optional[str]:
    """Why ``members`` is not a valid answer for ``query``, or ``None``.

    A valid answer is a connected subgraph containing the query in which
    every member has at least ``k`` neighbours, and its circle covers every
    member.
    """
    import numpy as np

    members = np.unique(np.fromiter((int(v) for v in members), dtype=np.int64))
    position = int(np.searchsorted(members, query))
    if position >= members.size or members[position] != query:
        return f"query {query} not in its community"
    indptr, indices = graph.csr
    local = np.full(graph.num_vertices, -1, dtype=np.int64)
    local[members] = np.arange(members.size)
    neighbours, counts = _gather(indptr, indices, members)
    rows = np.repeat(np.arange(members.size), counts)
    keep = local[neighbours] >= 0
    rows, cols = rows[keep], local[neighbours[keep]]
    degree = np.bincount(rows, minlength=members.size)
    if int(degree.min()) < k:
        return f"a member has fewer than {k} neighbours inside (query {query})"
    # Breadth-first over the induced subgraph, one frontier at a time.
    sub_indptr = np.concatenate(([0], np.cumsum(degree)))
    seen = np.zeros(members.size, dtype=bool)
    seen[position] = True
    frontier = np.array([position], dtype=np.int64)
    while frontier.size:
        reached, _ = _gather(sub_indptr, cols, frontier)
        frontier = np.unique(reached[~seen[reached]])
        seen[frontier] = True
    if not seen.all():
        return f"community of {query} is not connected"
    coords = graph.coordinates[members]
    distances = np.hypot(coords[:, 0] - center[0], coords[:, 1] - center[1])
    if float(distances.max()) > radius + 1e-9 * max(1.0, radius):
        return f"circle of {query} misses a member"
    return None
