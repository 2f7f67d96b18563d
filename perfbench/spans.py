"""The benchmark's own span recorder, installed around the program's layers.

A traced child process wraps the public boundary of each layer (see
``BOUNDARIES``) before it builds any engine. Every call through a
wrapped boundary records one span: name, start, end, parent span and
the run id. Spans stay in memory and are written once, at the end of
the run. No program file is edited: functions are replaced in every
loaded module that bound them (so ``from x import f`` copies are
wrapped too), methods are replaced on their class.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

#: Layer span name -> the boundaries that feed it, as
#: ``module:qualname`` of a function or ``module:Class.method``.
BOUNDARIES: dict[str, tuple[str, ...]] = {
    "traffic.gen": (
        "repro.serve.traffic:generate_traffic",
        "repro.serve.traffic:generate_tenant_traffic",
        "repro.serve.federation:generate_federation_traffic",
    ),
    "engine": ("repro.serve.scheduler:simulate_service",),
    "core.price": ("repro.serve.engine:CostTable.price",),
    "cache": (
        "repro.serve.trace_cache:TraceCache.get",
        "repro.serve.trace_cache:TraceCache.get_many",
        "repro.serve.trace_cache:TraceCache.lookup",
        "repro.serve.trace_cache:TraceCache.insert",
    ),
    "cluster.select": (
        "repro.serve.cluster:ServeCluster.select_chip",
        "repro.serve.cluster:ChipScoreLanes.select",
    ),
    "admission": (
        "repro.serve.admission:AdmissionPolicy.admit",
        "repro.serve.admission:TailDrop.admit",
        "repro.serve.admission:SloShed.admit",
        "repro.serve.admission:Downgrade.admit",
    ),
    "autoscaler": ("repro.serve.autoscaler:Autoscaler.observe",),
    "report.text": (
        "repro.serve.metrics:format_service_report",
        "repro.serve.federation:format_federation_report",
    ),
    "obs.export": (
        "repro.obs.export:save_chrome_trace",
        "repro.obs.export:save_metrics",
    ),
    "persist.write": ("repro.persist:atomic_write_text",),
    "federation.run": ("repro.serve.federation:simulate_federation",),
    "federation.route": ("repro.serve.federation:GlobalRouter.route",),
    "federation.epoch": ("repro.serve.federation:Region.run_epoch",),
    "federation.gossip": ("repro.serve.federation:Region.apply_gossip",),
}


def rebind(original, replacement) -> int:
    """Replace every module-level binding of ``original`` — the defining
    module's and each ``from x import f`` copy; returns how many."""
    replaced = 0
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement
                replaced += 1
    return replaced


class DiskClock:
    """Seconds spent inside ``repro.persist.atomic_write_text``.

    The write fsyncs; on a shared disk that took 1.5 s to 14 s for the
    same 65 MB, so ``wall_s`` leaves this time out (the traced pass
    reports it as ``persist.write_s``). Installed in every child.
    """

    def __init__(self) -> None:
        import repro.persist

        self.seconds = 0.0
        original = repro.persist.atomic_write_text
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                self.seconds += clock() - start

        rebind(original, timed)


class SpanRecorder:
    """In-memory spans of one run: ``(name, start, end, parent)`` rows.

    ``parent`` is the index of the enclosing span, -1 at top level.
    The process is single-threaded, so a stack gives the parent.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int] | None] = []
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def add(self, name: str, start: float, end: float) -> None:
        """Record a top-level span measured before the wrappers existed."""
        self.spans.append((self._name_id(name), start, end, -1))

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` with a span named ``name`` around every call;
        ``on_result`` (if given) sees every return value."""
        name_id = self._name_id(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` once under a span (the child's own public calls)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self, on_result: dict | None = None) -> int:
        """Wrap every boundary in ``BOUNDARIES``; ``on_result`` maps a
        span name to a hook that sees each return value. Returns how
        many bindings were replaced."""
        on_result = on_result or {}
        replaced = 0
        for name, targets in BOUNDARIES.items():
            hook = on_result.get(name)
            for target in targets:
                module_name, _, qualname = target.partition(":")
                module = importlib.import_module(module_name)
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    setattr(owner, attr, self.wrap(name, original, hook))
                    replaced += 1
                    continue
                original = getattr(module, attr)
                replaced += rebind(original, self.wrap(name, original, hook))
        return replaced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds
        (inclusive minus the time its direct child spans cover). A span
        nested in one of its own name counts twice toward the inclusive
        total; the only total read (``engine``) never nests."""
        calls: dict[int, int] = defaultdict(int)
        total: dict[int, float] = defaultdict(float)
        self_s: dict[int, float] = defaultdict(float)
        spans = self.spans
        for row in spans:
            if row is None:
                continue
            name_id, start, end, parent = row
            duration = end - start
            calls[name_id] += 1
            self_s[name_id] += duration
            if parent >= 0:
                self_s[spans[parent][0]] -= duration
            total[name_id] += duration
        return {
            self.names[i]: {"calls": calls[i], "total_s": total[i],
                            "self_s": self_s[i]}
            for i in calls
        }

    def dump(self) -> dict:
        """The spans as a JSON-ready object (written once per run)."""
        return {
            "run_id": self.run_id,
            "names": list(self.names),
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [list(row) for row in self.spans if row is not None],
        }
