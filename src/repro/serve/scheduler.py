"""Entry point of the service simulation: :func:`simulate_service`.

The discrete-event loop itself lives in :mod:`repro.serve.engine` — one
event queue (arrival / compile-done / chip-free / scale-tick) that the
cluster, autoscaler, admission policy, and batcher all plug into. This
module keeps the stable public API and maps its arguments onto the
engine:

* ``compile_workers=0`` and no ``compile_latency`` (the default) is the
  synchronous baseline: compilation is invisible to simulated time,
  reproducing the original scheduler event-for-event and bit-for-bit.
* ``compile_workers=0`` with a :class:`CompileLatencyModel` makes
  compile-on-miss *synchronously visible*: the dispatch path stalls on
  the chip for the simulated compile latency.
* ``compile_workers >= 1`` makes compilation a first-class resource: a
  miss enqueues compile work on a deterministic worker pool that
  overlaps chip execution in simulated time, and ``prefetch=True``
  additionally warms the trace cache with predicted keys during idle
  compile capacity.

A frame's service time is its simulated ``FrameResult.cycles`` at the
chip's clock, plus one ``reconfigure_cycles`` pipeline switch whenever
the chip's PE array was configured for a different pipeline; every
distinct (trace, chip config) pair is priced exactly once through the
cache's :class:`~repro.serve.trace_cache.CostTable`, so runs that share
a cache share its prices too.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.config import CompileLatencyModel
from repro.serve.admission import AdmissionPolicy
from repro.serve.autoscaler import Autoscaler
from repro.serve.batcher import PipelineBatcher
from repro.serve.cluster import ServeCluster
from repro.serve.engine import EventEngine, TracePrefetcher
from repro.serve.faults import FaultPlan, HedgePolicy
from repro.serve.metrics import ServiceReport
from repro.serve.request import RenderRequest
from repro.serve.trace_cache import TraceCache
from repro.serve.trace_library import TraceLibrary


def simulate_service(
    requests: Iterable[RenderRequest] | Sequence[RenderRequest],
    cluster: ServeCluster | None = None,
    cache: TraceCache | None = None,
    batcher: PipelineBatcher | None = None,
    autoscaler: Autoscaler | None = None,
    admission: AdmissionPolicy | None = None,
    *,
    compile_workers: int = 0,
    compile_latency: CompileLatencyModel | None = None,
    prefetch: bool | TracePrefetcher = False,
    preempt: bool = False,
    trace_library: TraceLibrary | str | None = None,
    observer: object | None = None,
    faults: "FaultPlan | None" = None,
    hedge: "HedgePolicy | bool | None" = None,
    columnar: bool = True,
) -> ServiceReport:
    """Serve every admitted request on the fleet; returns the report.

    Deterministic: identical inputs produce identical schedules *and*
    identical reports (compile costs are simulated, never wall time).
    The same ``cluster`` must not be reused across runs — its chips
    carry lifetime accounting, so a dirty cluster raises
    :class:`~repro.errors.SimulationError` (``cache`` may be shared to
    model a warm service). ``autoscaler`` flexes the fleet between
    events; ``admission`` may shed or degrade arrivals, in which case
    the report's ``shed`` list records every refused request.

    ``compile_workers``/``compile_latency``/``prefetch`` select the
    compilation model (see the module docstring); ``prefetch`` accepts
    ``True`` for a default :class:`TracePrefetcher` or a configured one.

    ``preempt=True`` arms multi-tenant batch preemption: batches the
    sharding policy places on a busy chip stay *queued* (staged) until
    the chip frees, and a premium arrival may displace a staged batch of
    a more economical tier back into the queue (it later re-dispatches,
    possibly migrating to a chip the autoscaler warmed in the
    meantime). At the default ``preempt=False`` none of this machinery
    runs: requests tagged with the default tenant class produce reports
    byte-identical to the pre-tenant engine's.

    ``trace_library`` (a :class:`TraceLibrary` or a path to its JSON
    artifact) makes compile results persistent across runs: the cache is
    warm-started from the recorded traces before the first arrival and
    the engine flushes updated metadata back on shutdown (saving to the
    path, when one was given). ``ServeCluster(trace_library=...)`` is an
    equivalent spelling. An empty or absent library is exactly a cold
    start.

    ``observer`` (a :class:`repro.obs.Observer`) threads structured
    tracing, live metrics, and flight recording through the run —
    ``ServeCluster(observer=...)`` is an equivalent spelling. ``None``
    (the default) or an observer with no sinks records nothing and costs
    one pointer check per instrumentation site; either way the returned
    report is byte-identical.

    ``faults`` (a :class:`repro.serve.faults.FaultPlan`) injects chip
    crashes, straggler windows, and compile-worker stalls as first-class
    events: in-flight work on a crashed chip re-queues (paying the
    plan's checkpoint-rollback cost on retry), the autoscaler sees dead
    chips as lost capacity, and admission's projected-wait model learns
    per-chip effective speed. An empty plan is byte-identical to none.
    ``hedge`` (``True`` or a :class:`~repro.serve.faults.HedgePolicy`)
    duplicates requests whose queue age crosses a quantile-derived
    threshold onto a second chip; the first copy to finish wins and the
    report stays exactly-once.

    ``columnar`` (default ``True``) lets eligible configurations — a
    static fleet with synchronous compile and a non-rewriting admission
    policy, including strict-tier multi-tenant traffic (tiers without
    weighted budgets or preemption) — take the engine's columnar fast
    loop. Autoscaling, faults, hedging, weighted admission, preemption,
    async compile/prefetch, and an attached observer force the scalar
    reference loop. The report is byte-identical
    either way (pinned by the equivalence suite); ``columnar=False``
    is the explicit escape hatch forcing the scalar event loop.
    """
    prefetcher = None
    if prefetch:
        prefetcher = (prefetch if isinstance(prefetch, TracePrefetcher)
                      else TracePrefetcher())
    engine = EventEngine(
        requests,
        cluster=cluster,
        cache=cache,
        batcher=batcher,
        autoscaler=autoscaler,
        admission=admission,
        compile_workers=compile_workers,
        compile_latency=compile_latency,
        prefetcher=prefetcher,
        preempt=preempt,
        trace_library=trace_library,
        observer=observer,
        faults=faults,
        hedge=hedge,
        columnar=columnar,
    )
    return engine.run()
