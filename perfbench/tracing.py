"""Span tracing and delay injection around the calls into each layer.

The benchmark never edits the program it measures.  Instead, before a run,
:func:`install` replaces the layer entry points listed in :data:`TARGETS`
with thin wrappers.  A wrapper records one span per call (name, start,
end, parent span) into a :class:`Tracer`, keeps the spans in memory, and
can also sleep a fixed time before the call (``delays``), which is how the
benchmark's own tests show that a slowed layer moves the metric it should.

Functions are patched at **every by-name binding** found in the loaded
``repro`` modules, not only in the defining module: ``repro.core.base``
calls ``csr_peel_mask`` through its own import, ``repro.service.facade``
calls ``plan_batch`` through its own, and so on.  Methods are patched on
their class.  The SAC algorithms are wrapped in the ``ALGORITHMS`` registry
every caller dispatches through, so a rung span is the outermost call
(AppAcc's inner AppFast run belongs to the AppAcc span).

A layer's self time is its spans' duration minus the part of that interval
covered by child spans (:func:`self_times`).
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Rung name in the algorithm registry -> metric-safe rung name.
RUNGS = {"exact+": "exact_plus", "appacc": "appacc", "appinc": "appinc", "appfast": "appfast"}

#: Span name -> (kind, owner, attribute names).  ``function`` targets are
#: patched at every by-name binding of the function object in loaded
#: ``repro`` modules; ``method`` / ``classmethod`` targets on their class.
TARGETS: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "geometry.range_query": (
        "method", "repro.geometry.grid:GridIndex", ("query_circle_array", "query_annulus_array"),
    ),
    "geometry.mec": ("function", "repro.geometry.mec", ("minimum_enclosing_circle",)),
    "kcore.peel": ("function", "repro.kcore.connected_core", ("csr_peel_mask",)),
    "kcore.bfs": ("function", "repro.kcore.connected_core", ("csr_component_mask",)),
    "kcore.maintenance": (
        "function", "repro.kcore.maintenance", ("promote_after_insert", "demote_after_delete"),
    ),
    "engine.plan": ("function", "repro.engine.plan", ("plan_batch",)),
    "engine.execute_group": ("function", "repro.engine.plan", ("execute_group",)),
    "engine.apply_checkin": ("method", "repro.engine.incremental:IncrementalEngine", ("apply_checkin",)),
    "engine.apply_edge": ("method", "repro.engine.incremental:IncrementalEngine", ("apply_edge",)),
    "service.submit_batch": ("method", "repro.service.facade:SACService", ("submit_batch",)),
    "service.search": ("method", "repro.service.facade:SACService", ("search",)),
    "service.subscriptions.evaluate": (
        "method", "repro.service.subscriptions:SubscriptionRegistry", ("evaluate",),
    ),
    "store.save": ("classmethod", "repro.store.artifact_store:ArtifactStore", ("save",)),
    "store.open": ("classmethod", "repro.store.artifact_store:ArtifactStore", ("open",)),
}
for _alg, _rung in RUNGS.items():
    TARGETS[f"core.{_rung}"] = ("algorithm", "repro.core.searcher", (_alg,))


@dataclass
class Span:
    """One recorded call: ``parent`` is the index of the enclosing span or -1."""

    name: str
    start: float
    end: float
    parent: int
    attrs: Dict[str, float] = field(default_factory=dict)


class Tracer:
    """In-memory span store with one call stack per thread.

    ``enabled`` gates recording (checks run with it off); delays apply
    whether or not spans are recorded.
    """

    def __init__(self, *, record: bool = True, delays: Optional[Dict[str, float]] = None):
        self.record = record
        self.enabled = record
        self.delays = dict(delays or {})
        self.spans: List[Optional[Span]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []
        #: Span name -> number of patched bindings (the coverage self-check
        #: reports a wrapper that patched nothing separately from one that
        #: recorded no calls).
        self.bindings: Dict[str, int] = {}

    # ------------------------------------------------------------ recording
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped to record spans named ``name``.

        ``observe(span, args, kwargs, result)`` may attach attributes to the
        span after the call returns.
        """
        delay_s = self.delays.get(name, 0.0) / 1000.0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                if delay_s:
                    time.sleep(delay_s)
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else -1
            with self._lock:
                index = len(self.spans)
                self.spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            result = None
            try:
                if delay_s:
                    time.sleep(delay_s)
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(name, start, end, parent)
                if observe is not None:
                    observe(span, args, kwargs, result)
                self.spans[index] = span

        wrapper.__wrapped_by_perfbench__ = fn
        return wrapper

    def finished(self) -> List[Span]:
        """Every closed span, parents renumbered to the returned list.

        Spans still open (a call in flight during a drain) are skipped.
        """
        with self._lock:
            spans = list(self.spans)
        return reindex(spans)

    def dump(self, path: str) -> None:
        """Write the closed spans as JSON lines: name, start, end, parent, attrs."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.finished():
                handle.write(
                    json.dumps([span.name, span.start, span.end, span.parent, span.attrs]) + "\n"
                )

    # ------------------------------------------------------------- patching
    def patch(self, name: str, observers: Optional[Dict[str, Callable]] = None) -> None:
        """Install the wrapper for one :data:`TARGETS` entry."""
        kind, owner, attributes = TARGETS[name]
        observe = (observers or {}).get(name)
        patched = 0
        if kind == "algorithm":
            registry = sys.modules[owner].ALGORITHMS
            for key in attributes:
                original = registry[key]
                registry[key] = self.wrap(name, original, observe)
                self._restore.append(lambda r=registry, k=key, o=original: r.__setitem__(k, o))
                patched += 1
        elif kind in ("method", "classmethod"):
            module_name, class_name = owner.split(":")
            cls = getattr(sys.modules[module_name], class_name)
            for attribute in attributes:
                raw = cls.__dict__[attribute]
                if kind == "classmethod":
                    wrapped = classmethod(self.wrap(name, raw.__func__, observe))
                else:
                    wrapped = self.wrap(name, raw, observe)
                setattr(cls, attribute, wrapped)
                self._restore.append(lambda c=cls, a=attribute, o=raw: setattr(c, a, o))
                patched += 1
        else:
            defining = sys.modules[owner]
            for attribute in attributes:
                original = getattr(defining, attribute)
                wrapper = self.wrap(name, original, observe)
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, binding, wrapper)
                            self._restore.append(
                                lambda m=module, b=binding, o=original: setattr(m, b, o)
                            )
                            patched += 1
        self.bindings[name] = self.bindings.get(name, 0) + patched

    def uninstall(self) -> None:
        """Restore every patched binding."""
        while self._restore:
            self._restore.pop()()


def _import_layers() -> None:
    """Import every module a target lives in or is bound from."""
    import repro.cli  # noqa: F401  (pulls in server, service, store, engine)
    import repro.core.searcher  # noqa: F401
    import repro.kcore.maintenance  # noqa: F401
    import repro.server.daemon  # noqa: F401
    import repro.service.subscriptions  # noqa: F401
    import repro.store.artifact_store  # noqa: F401


def install(
    *, record: bool, delays: Optional[Dict[str, float]] = None, observers=None
) -> Tracer:
    """Create a tracer and patch the layers.

    With ``record`` every target is wrapped; without it only the targets
    named in ``delays`` are (so an untraced run pays no wrapper cost
    outside an injected layer).
    """
    _import_layers()
    tracer = Tracer(record=record, delays=delays)
    names: Iterable[str] = TARGETS if record else [n for n in TARGETS if n in (delays or {})]
    for name in names:
        tracer.patch(name, observers)
    return tracer


def parse_delays(text: str) -> Dict[str, float]:
    """Parse ``"kcore.peel=2,service.subscriptions.evaluate=50"`` (ms per call)."""
    delays: Dict[str, float] = {}
    for part in filter(None, (item.strip() for item in text.split(","))):
        name, _, value = part.partition("=")
        if name not in TARGETS:
            raise ValueError(f"unknown delay target {name!r}; choose from {sorted(TARGETS)}")
        delays[name] = float(value)
    return delays


# ---------------------------------------------------------------- analysis
def self_times(spans: List[Span]) -> List[float]:
    """Per-span self time: duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        result.append(max(0.0, (span.end - span.start) - covered))
    return result


def load_spans(path: str) -> List[Span]:
    """Read spans written by :meth:`Tracer.dump`."""
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            name, start, end, parent, attrs = json.loads(line)
            spans.append(Span(name, start, end, parent, attrs))
    return spans


def reindex(spans: List[Optional[Span]]) -> List[Span]:
    """Drop unfinished spans and renumber parents to match the compacted list."""
    mapping: Dict[int, int] = {}
    kept: List[Span] = []
    for index, span in enumerate(spans):
        if span is None:
            continue
        mapping[index] = len(kept)
        kept.append(span)
    return [
        Span(s.name, s.start, s.end, mapping.get(s.parent, -1), s.attrs) for s in kept
    ]
