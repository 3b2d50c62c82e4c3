"""``serve-zipf``: the serving daemon under open-loop Poisson traffic.

Set-up runs ``snapshot --ks 4`` and then ``serve --store ... --role writer
--wal-dir ... --warm-ks 4`` (default 5 ms linger, max-batch 32, answer
cache on, WAL without fsync) as subprocesses, until ``/healthz`` answers.
One client process (this one) with :data:`CLIENT_THREADS` threads, each
holding one keep-alive ``SACClient``, replays a seeded schedule: Poisson
arrivals, 95% ``/query`` (AppFast, Zipf s = 1.1 vertex popularity) and 5%
``/checkin`` of a random eligible vertex, in two phases at fixed rates —
``light`` 40/s for two thirds of ``--seconds``, then ``heavy`` 80/s for the
last third, so both phases collect about the same number of queries.

Under open-loop load the daemon answers as many requests per second as are
offered, so its throughput ``ops_per_s`` is taken per second of the
daemon's own CPU time (user plus system, during the two phases): requests
answered per busy second.  Unlike the in-process workloads' figures it is
not scaled by ``HostSpeed``: the kernel runs in this process, not the
daemon, and the daemon's CPU time per request did not follow it (over five
seeds the raw rate stayed within 5% while the kernel's factor moved from
1.4 to 1.9, so scaling widened the spread to 12%); set-up, mostly the
daemon's process start, is not scaled either.  Latency is timed from each
request's scheduled send time.  Both phases' medians and p98s (the highest
percentile with at least ten samples beyond it at the benchmark's run
length) and the check-in latency are in the details line, and the pooled
query median is the ``client.read_p50_ms`` layer metric, but none is
gated: slow spells of other tenants of the 2-core host moved them by 50%
to 2x between runs (the light median's IQR/median over ten seeds reached
0.38 at 20/s and 0.71 at 40/s), because a slowed daemon starts to queue.
Check-in latency is bimodal — a check-in either finds no micro-batch
pending at the write barrier or waits for one to execute — so the details
report its mean.  After each phase (quiesced) the run scrapes ``/stats``
and checks a sample of ``/query`` answers against an in-process
``IncrementalEngine`` that replayed the acknowledged check-ins in LSN
order.  The run ends with a SIGTERM drain that must exit 0 and leave no
``/dev/shm`` segment behind.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from common import (
    EPS_F,
    HERE,
    K,
    SRC,
    BenchError,
    Outcome,
    dir_bytes,
    eligible_vertices,
    median,
    percentile,
    read_json,
    vm_hwm_mb,
    write_graph,
    write_json,
    zipf_weights,
)

#: Which vertex holds which Zipf rank is fixed: the top ranks take most of
#: the traffic, so a ranking redrawn per seed would swap the hot vertices
#: (and their AppFast cost) between runs.  The seed drives the arrivals,
#: the draws from the ranking, and the check-ins.
POPULARITY_SEED = 0
PHASES = (("light", 40.0, 2.0 / 3.0), ("heavy", 80.0, 1.0 / 3.0))
CHECKIN_SHARE = 0.05
#: Two synchronous clients (~15 ms per round trip) made the generator, not
#: the daemon, the queue at 80/s: lateness p99 48 ms, heavy-phase p99 from
#: 57 to 210 ms across five seeds, and never more than two queries for the
#: micro-batcher to coalesce.
CLIENT_THREADS = 8
#: Set-up is timed on daemons started before the traffic (the last one
#: serves it) and after it.  One start is over a second of process start-up
#: and imports, and slow spells of the shared host last from seconds to
#: minutes, so samples spread over the run give a steadier median.
SETUP_BEFORE = 2
SETUP_AFTER = 3
SAMPLE_POPULAR = 10
SAMPLE_RANDOM = 10
LATENCY_LIMIT_MS = 100.0
PARAMS = {"epsilon_f": EPS_F}
START_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 30.0


def make_inputs(work, seed: int, seconds: float) -> Dict[str, str]:
    """Graph file plus the seeded arrival schedule of both phases."""
    from repro.graph.io import load_graph_npz

    graph_path = work / "graph.npz"
    write_graph(graph_path)
    graph = load_graph_npz(graph_path)
    eligible = eligible_vertices(graph)
    popularity = np.random.default_rng(POPULARITY_SEED).permutation(eligible)
    rng = np.random.default_rng(seed)
    weights = zipf_weights(len(popularity))
    phases = []
    for name, rate, share in PHASES:
        events = []
        at = 0.0
        duration = seconds * share
        while True:
            at += float(rng.exponential(1.0 / rate))
            if at >= duration:
                break
            if rng.random() < CHECKIN_SHARE:
                x, y = (float(c) for c in rng.uniform(0.0, 1.0, size=2))
                events.append([at, "checkin", [graph.label_of(int(rng.choice(eligible))), x, y]])
            else:
                vertex = int(popularity[rng.choice(len(popularity), p=weights)])
                events.append([at, "query", graph.label_of(vertex)])
        phases.append({"name": name, "rate": rate, "duration": duration, "events": events})
    sample = [graph.label_of(int(v)) for v in popularity[:SAMPLE_POPULAR]]
    sample += [graph.label_of(int(v)) for v in rng.choice(eligible, SAMPLE_RANDOM, replace=False)]
    schedule_path = work / "schedule.json"
    write_json(schedule_path, {"k": K, "phases": phases, "sample": sample})
    return {"graph": str(graph_path), "schedule": str(schedule_path)}


# ------------------------------------------------------------------- daemon
class Daemon:
    """One ``repro-sac serve`` subprocess launched through the wrapper launcher."""

    def __init__(self, work, index: int, graph_path: str, env: dict) -> None:
        self.store = work / f"store-{index}"
        self.wal = work / f"wal-{index}"
        self.log_path = work / f"daemon-{index}.log"
        self.env = env
        self.graph_path = graph_path
        self.process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    def _command(self, *args: str) -> List[str]:
        return [sys.executable, str(HERE / "daemon_launcher.py"), *args]

    def start(self) -> float:
        """Snapshot, serve, wait for ``/healthz``; returns the elapsed seconds."""
        from repro.server import SACClient

        started = time.perf_counter()
        subprocess.run(
            self._command("snapshot", self.graph_path, "--out", str(self.store), "--ks", str(K)),
            check=True, env=self.env, stdout=subprocess.DEVNULL, timeout=START_TIMEOUT_S,
        )
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                self._command(
                    "serve", "--store", str(self.store), "--port", "0", "--role", "writer",
                    "--wal-dir", str(self.wal), "--warm-ks", str(K),
                ),
                env=self.env, stdout=log, stderr=subprocess.STDOUT,
            )
        deadline = started + START_TIMEOUT_S
        while self.port is None:
            if self.process.poll() is not None or time.perf_counter() > deadline:
                raise BenchError(f"daemon did not start: {self.log_path.read_text()[-500:]}")
            for line in self.log_path.read_text().splitlines():
                if line.startswith("serving ") and "http://" in line:
                    self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            time.sleep(0.005)
        client = SACClient("127.0.0.1", self.port, timeout=5.0)
        try:
            while True:
                try:
                    if client.healthz():
                        break
                except OSError:
                    if time.perf_counter() > deadline:
                        raise
                    time.sleep(0.005)
        finally:
            client.close()
        return time.perf_counter() - started

    def stop(self) -> int:
        """SIGTERM drain; returns the exit code (killing it if the drain hangs)."""
        if self.process is None or self.process.poll() is not None:
            return self.process.returncode if self.process else 0
        self.process.send_signal(signal.SIGTERM)
        try:
            return self.process.wait(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            return -9


# ------------------------------------------------------------------- traffic
class Replay:
    """Open-loop replay of one phase over ``CLIENT_THREADS`` keep-alive clients."""

    def __init__(self, port: int, events: list) -> None:
        self.port = port
        self.events = events
        self.records: List[Optional[dict]] = [None] * len(events)
        self._next = 0
        self._lock = threading.Lock()

    def _worker(self, origin: float) -> None:
        from repro.server import SACClient, ServerError

        client = SACClient("127.0.0.1", self.port, timeout=30.0)
        try:
            while True:
                with self._lock:
                    index = self._next
                    self._next += 1
                if index >= len(self.events):
                    return
                at, kind, payload = self.events[index]
                scheduled = origin + at
                pause = scheduled - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                sent = time.perf_counter()
                record = {"kind": kind, "payload": payload, "scheduled": scheduled, "sent": sent}
                try:
                    if kind == "query":
                        record["response"] = client.query(payload, K, algorithm="appfast", params=PARAMS)
                    else:
                        record["response"] = client.checkin(*payload)
                except (ServerError, OSError) as error:
                    record["error"] = repr(error)
                record["done"] = time.perf_counter()
                self.records[index] = record
        finally:
            client.close()

    def run(self) -> List[dict]:
        origin = time.perf_counter() + 0.05
        threads = [
            threading.Thread(target=self._worker, args=(origin,), daemon=True)
            for _ in range(CLIENT_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [record for record in self.records if record is not None]


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time a process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def backlog_peak(records: List[dict]) -> int:
    """Most requests that were due but not yet sent at any send instant."""
    scheduled = np.sort([r["scheduled"] for r in records])
    sent = np.sort([r["sent"] for r in records])
    # At each send instant t: due = #scheduled <= t, already sent = #sent < t.
    due = np.searchsorted(scheduled, sent, side="right")
    gone = np.searchsorted(sent, sent, side="left")
    return int(max(0, (due - gone - 1).max())) if len(records) else 0


def _stat_delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items() if isinstance(v, (int, float))}


def run(work, seed: int, seconds: float, tracer, outcome: Outcome) -> None:
    from repro.engine import IncrementalEngine
    from repro.graph.io import load_graph_npz
    from repro.server import SACClient
    from repro.testing.serverharness import oracle_payload, shm_segments

    import tracing

    paths = make_inputs(work, seed, seconds)
    schedule = read_json(paths["schedule"])
    base_env = dict(os.environ)
    base_env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), base_env.get("PYTHONPATH")]))
    base_env.pop("PERFBENCH_TRACE_OUT", None)
    trace_out = work / "daemon-spans.jsonl"
    shm_before = shm_segments()

    setups = []
    daemon = None
    try:
        for index in range(SETUP_BEFORE):
            if daemon is not None:
                if daemon.stop() != 0:
                    outcome.problem("set-up daemon did not drain cleanly")
            env = dict(base_env)
            if tracer.record and index == SETUP_BEFORE - 1:
                env["PERFBENCH_TRACE_OUT"] = str(trace_out)
            daemon = Daemon(work, index, paths["graph"], env)
            setups.append(daemon.start())

        client = SACClient("127.0.0.1", daemon.port, timeout=30.0)
        oracle = IncrementalEngine(load_graph_npz(paths["graph"]).mutable_copy())
        applied_lsn = 0
        stats_before = client.stats()
        windows = []
        query_records: List[dict] = []
        checkin_records: List[dict] = []
        all_records: List[dict] = []
        busy_s = 0.0
        for phase in schedule["phases"]:
            cpu_before = cpu_seconds(daemon.process.pid)
            records = Replay(daemon.port, phase["events"]).run()
            busy_s += cpu_seconds(daemon.process.pid) - cpu_before
            windows.append((records[0]["sent"] - 0.001, max(r["done"] for r in records) + 0.001))
            phase_stats = client.stats()
            name = phase["name"]
            queries = [r for r in records if r["kind"] == "query"]
            checkins = [r for r in records if r["kind"] == "checkin"]
            outcome.attempted += len(records)
            for record in records:
                if "error" in record:
                    outcome.fail(f"{record['kind']} {record['payload']}: {record['error']}")
                elif record["kind"] == "query":
                    response = record["response"]
                    if not response.get("found") or record["payload"] not in response.get("members", ()):
                        outcome.fail(f"query {record['payload']}: answer lacks the query vertex")
            latencies = [(r["done"] - r["scheduled"]) * 1000.0 for r in queries]
            p98 = percentile(latencies, 98.0)
            lags = [(r["sent"] - r["scheduled"]) * 1000.0 for r in records]
            outcome.details[name] = {
                "queries": len(queries),
                "p50_ms": median(latencies),
                "p98_ms": p98,
                "checkins": len(checkins),
                "samples_beyond_p98": sum(1 for x in latencies if x > p98),
                "p99_ms": percentile(latencies, 99.0),
                "meets_p99_limit": percentile(latencies, 99.0) <= LATENCY_LIMIT_MS,
                "lag_p99_ms": percentile(lags, 99.0),
                "backlog_peak": backlog_peak(records),
                "batcher": phase_stats["batcher"],
            }
            query_records += queries
            checkin_records += checkins
            all_records += records

            # Quiesced: the daemon must answer like a serial replay in LSN order.
            acked = sorted(
                (r["response"]["lsn"], r["payload"]) for r in checkin_records if "response" in r
            )
            for lsn, (label, x, y) in acked:
                if lsn <= applied_lsn:
                    continue
                if lsn != applied_lsn + 1:
                    outcome.fail(f"acknowledged LSNs skip from {applied_lsn} to {lsn}")
                oracle.apply_checkin(oracle.graph.index_of(label), x, y)
                applied_lsn = lsn
            outcome.attempted += len(schedule["sample"])
            for label in schedule["sample"]:
                payload = client.query(label, K, algorithm="appfast", params=PARAMS)
                expected = oracle_payload(oracle, label, K, PARAMS)
                if expected is None or any(payload.get(key) != expected[key] for key in expected):
                    outcome.fail(f"{name}: /query {label} differs from the LSN-order replay")
        stats_after = client.stats()
        client.close()

        checkin_ms = [(r["done"] - r["scheduled"]) * 1000.0 for r in checkin_records]
        outcome.details["checkin"] = {
            "count": len(checkin_ms),
            "mean_ms": sum(checkin_ms) / len(checkin_ms),
            "p50_ms": median(checkin_ms),
        }
        answered = sum(1 for r in all_records if "response" in r)
        outcome.metric("ops_per_s", answered / busy_s)
        outcome.details["daemon_cpu_s"] = busy_s
        outcome.metric("peak_rss_mb", vm_hwm_mb(daemon.process.pid))
        outcome.details["work_unit_s"] = median(
            [(r["done"] - r["scheduled"]) for r in query_records]
        )
        wal_bytes = dir_bytes(daemon.wal)
        acknowledged = sum(1 for r in checkin_records if "response" in r)
    finally:
        code = daemon.stop() if daemon is not None else 0
    if code != 0:
        outcome.problem(f"daemon exited {code} on SIGTERM")
    if "server stopped" not in daemon.log_path.read_text():
        outcome.problem("daemon drain did not finish")
    for index in range(SETUP_BEFORE, SETUP_BEFORE + SETUP_AFTER):
        spare = Daemon(work, index, paths["graph"], base_env)
        try:
            setups.append(spare.start())
        finally:
            if spare.stop() != 0:
                outcome.problem("set-up daemon did not drain cleanly")
    outcome.metric("setup_s", median(setups))
    leaked = shm_segments() - shm_before
    if leaked:
        outcome.problem(f"drain leaked shared-memory segments: {sorted(leaked)}")

    batcher = _stat_delta(stats_after["batcher"], stats_before["batcher"])
    flushes = sum(batcher.get(f"flushes_{why}", 0) for why in ("size", "linger", "mutation", "drain"))
    extra = {
        "server.batch_size_mean": (
            batcher["queries_coalesced"] / batcher["batches_dispatched"]
            if batcher.get("batches_dispatched") else 0.0
        ),
        "server.rejected": batcher.get("rejected_deadline", 0) + batcher.get("rejected_besteffort", 0),
        "client.read_p50_ms": median([(r["done"] - r["scheduled"]) * 1000.0 for r in query_records]),
        "client.backlog_peak": max(outcome.details[name]["backlog_peak"] for name, _, _ in PHASES),
        "store.wal.bytes_per_record": wal_bytes / acknowledged if acknowledged else 0.0,
    }
    for why in ("size", "linger", "mutation"):
        extra[f"server.flush_share.{why}"] = batcher.get(f"flushes_{why}", 0) / flushes if flushes else 0.0

    context = {
        "window": windows,
        "work_s": sum(end - start for start, end in windows),
        "ops": answered,
        "engine": _stat_delta(stats_after["engine"], stats_before["engine"]),
        "cache": _stat_delta(stats_after["cache"] or {}, stats_before["cache"] or {}),
        "extra": extra,
    }
    if tracer.record:
        spans = tracing.load_spans(str(trace_out))
        context["spans"] = spans
        context["bindings"] = read_json(Path(f"{trace_out}.bindings.json"))
        # server.self_pct: the share of the queries' round trips spent outside
        # the submit_batch span of the batch that answered each one (the
        # latest one inside its round trip).
        batches = sorted(
            (s.end, s.start) for s in spans if s.name == "service.submit_batch"
        )
        ends = np.array([end for end, _ in batches])
        own = trip = 0.0
        for record in query_records:
            position = int(np.searchsorted(ends, record["done"], side="right")) - 1
            if position >= 0 and batches[position][1] >= record["sent"]:
                end, start = batches[position]
                trip += record["done"] - record["sent"]
                own += record["done"] - record["sent"] - (end - start)
        extra["server.self_pct"] = own / trip * 100.0 if trip else 0.0
    outcome.details["layer_context"] = context
