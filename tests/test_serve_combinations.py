"""Feature-combination fuzz of the serving engine.

Each serve suite randomizes inside its own feature; this one draws
*combinations* of them — autoscaler mode × admission policy × tenants
with preemption × compile workers with prefetch × faults with hedging ×
a full observer × a warm trace library — and checks, for every draw:

* **the ledger** — completed, shed and failed request ids are disjoint
  and together are exactly the trace; every response satisfies
  ``arrival <= dispatched <= start <= finish``; and no two responses
  overlap on one chip;
* **determinism** — the same draw run twice serializes identically;
* **observer neutrality** — a fully observed run reports the same bytes
  as the unobserved one.

Hypothesis runs derandomized with no example database, so the draws are
the same on every machine and every run.
"""

import json
import random

from hypothesis import given, note, settings, strategies as st

from repro.core.config import CompileLatencyModel
from repro.serve import (
    FaultPlan,
    HedgePolicy,
    PipelineBatcher,
    ServeCluster,
    TenantClass,
    TraceCache,
    TraceLibrary,
    TraceRecord,
    generate_tenant_traffic,
    generate_traffic,
    make_admission_policy,
    make_elastic_autoscaler,
    simulate_service,
)
from tests.test_obs_neutrality import full_observer
from tests.test_serve_invariants import stub_program

SCENES = ("lego", "room")
TENANTS = [(TenantClass("premium", weight=4.0, tier=0), 0.3),
           (TenantClass("economy", slo_multiplier=2.0, tier=1), 0.7)]

FUZZ = settings(max_examples=40, derandomize=True, database=None,
                deadline=None)


def combination(seed):
    """One feature combination, drawn from ``seed``.

    Hypothesis picks the seeds; spreading each seed over every switch
    with a seeded RNG gives 40 examples far more variety than
    Hypothesis's example mutation, which mostly re-runs near-copies of
    a few draws. Two draws in five are *static* — no autoscaler, async
    compile, preemption, faults, hedging, weighted or downgrade
    admission — so plain synchronous batches (resolved in one cache
    and pricing pass) are exercised as much as the feature paths."""
    rng = random.Random(seed)
    static = rng.random() < 0.4
    tenants = rng.random() < 0.5
    workers = 0 if static else rng.choice([0, 1, 2])
    admissions = [None, "tail-drop", "slo-shed"]
    if not static:
        admissions += ["weighted", "downgrade"]
    return {
        "pattern": rng.choice(["steady", "bursty", "diurnal"]),
        "n_requests": rng.randint(20, 300),
        "rate_rps": rng.choice([300.0, 3000.0, 30000.0]),
        "slo_s": rng.choice([0.002, 0.01]),
        "seed": rng.randrange(2**16),
        "chips": rng.randint(1, 3),
        "policy": rng.choice(["round-robin", "least-loaded",
                              "pipeline-affinity", "cost-aware"]),
        "autoscale": (None if static else
                      rng.choice([None, "reactive", "predictive"])),
        "admission": rng.choice(admissions),
        "tenants": tenants,
        "preempt": not static and tenants and rng.random() < 0.5,
        "compile_workers": workers,
        "prefetch": workers > 0 and rng.random() < 0.5,
        "visible_compile": rng.random() < 0.5,
        "cache_capacity": rng.choice([2, 64]),
        "faults": not static and rng.random() < 0.5,
        "n_crashes": rng.randint(1, 2),
        "recover_fraction": rng.choice([0.0, 0.75]),
        "hedge": not static and rng.random() < 0.5,
        "library": rng.random() < 0.5,
    }


def make_trace(combo):
    shared = dict(pattern=combo["pattern"], n_requests=combo["n_requests"],
                  rate_rps=combo["rate_rps"], seed=combo["seed"],
                  scenes=SCENES, resolution=(64, 64), slo_s=combo["slo_s"])
    if combo["tenants"]:
        return generate_tenant_traffic(TENANTS, **shared)
    return generate_traffic(**shared)


def make_library():
    return TraceLibrary([
        TraceRecord(scene=scene, pipeline=pipeline, width=64, height=64,
                    invocations=1, pixels=1024, compile_s=0.002, hits=3)
        for scene in SCENES for pipeline in ("hashgrid", "gaussian")])


def run(combo, trace, observer=None):
    """One simulation of ``combo``; every stateful input is built fresh."""
    horizon = max(r.arrival_s for r in trace) or 1e-3
    autoscaler = (make_elastic_autoscaler(min_chips=1, max_chips=4,
                                          mode=combo["autoscale"])
                  if combo["autoscale"] else None)
    faults = (FaultPlan.seeded(seed=combo["seed"], n_chips=combo["chips"],
                               horizon_s=horizon,
                               n_crashes=combo["n_crashes"],
                               recover_fraction=combo["recover_fraction"],
                               rollback_s=0.0005)
              if combo["faults"] else None)
    hedge = (HedgePolicy(quantile=0.5, multiplier=0.5, min_samples=4,
                         window=32)
             if combo["hedge"] else None)
    return simulate_service(
        trace,
        ServeCluster(combo["chips"], policy=combo["policy"]),
        cache=TraceCache(capacity=combo["cache_capacity"],
                         compile_fn=lambda key: stub_program(key[1])),
        batcher=PipelineBatcher(),
        autoscaler=autoscaler,
        admission=(make_admission_policy(combo["admission"])
                   if combo["admission"] else None),
        compile_workers=combo["compile_workers"],
        compile_latency=(CompileLatencyModel()
                         if combo["visible_compile"] else None),
        prefetch=combo["prefetch"],
        preempt=combo["preempt"],
        trace_library=make_library() if combo["library"] else None,
        observer=observer,
        faults=faults,
        hedge=hedge,
    )


def canon(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


def assert_ledger(report, trace):
    served = [r.request.request_id for r in report.responses]
    shed = [s.request.request_id for s in report.shed]
    failed = [f.request.request_id for f in report.failed]
    ids = served + shed + failed
    assert len(set(ids)) == len(ids), "a request was settled twice"
    assert sorted(ids) == sorted(r.request_id for r in trace), \
        "requests lost or invented"

    by_chip = {}
    for r in report.responses:
        assert (r.request.arrival_s <= r.dispatched_s <= r.start_s
                <= r.finish_s), f"request {r.request.request_id} out of order"
        by_chip.setdefault(r.chip_id, []).append(r)
    for chip_id, responses in by_chip.items():
        responses.sort(key=lambda r: r.start_s)
        for before, after in zip(responses, responses[1:]):
            assert after.start_s >= before.finish_s, \
                f"chip {chip_id} ran two frames at once"


@FUZZ
@given(st.integers(0, 2**32 - 1))
def test_feature_combinations(seed):
    combo = combination(seed)
    note(f"combination: {combo}")
    trace = make_trace(combo)
    report = run(combo, trace)
    assert_ledger(report, trace)
    reference = canon(report)
    assert canon(run(combo, trace)) == reference, "not deterministic"
    assert canon(run(combo, trace, observer=full_observer())) == reference, \
        "the observer moved a number"
