"""Pinned report digests of the scenarios the columnar loop once served.

The engine used to carry a second, de-interpreted run loop for a gated
subset of configurations (static fleet, synchronous compile, no
observer, non-rewriting admission), and this module compared it with
the general loop byte for byte. There is one loop now. Each scenario
below is the same run as before, and its report must still serialize
to the SHA-256 recorded before the twin was deleted (see ``PINNED``),
so every schedule that loop produced is still checked, float for
float, next to the chaos, hedge and preempt runs it never took. Never
re-capture a digest to make a change pass.

The :meth:`TraceCache.get_many` batched-lookup equivalence and the
one-entry-cache pricing check live here too.
"""

import hashlib
import json
import random

import pytest

from repro.core.config import CompileLatencyModel
from repro.serve import (
    ChipCrash,
    FaultPlan,
    HedgePolicy,
    PipelineBatcher,
    ServeCluster,
    StragglerWindow,
    TenantClass,
    TraceCache,
    generate_tenant_traffic,
    generate_traffic,
    make_admission_policy,
    simulate_service,
)
from repro.serve.admission import TailDrop
from repro.serve.engine import EventEngine
from tests.test_obs_neutrality import full_observer
from tests.test_serve_invariants import stub_program

MODEL = CompileLatencyModel()


def stub_cache(capacity=64, model=None):
    return TraceCache(capacity=capacity,
                      compile_fn=lambda key: stub_program(key[1]),
                      latency_model=model)


def trace(pattern="bursty", n=160, rate=400.0, seed=3,
          scenes=("lego", "room"), slo=0.02):
    return generate_traffic(pattern, n_requests=n, rate_rps=rate, seed=seed,
                            scenes=scenes, resolution=(64, 64), slo_s=slo)


def tenant_trace(mix=None, n=160, rate=600.0, seed=3, slo=0.02):
    """A strict-tier multi-tenant trace (no weights — tiers only)."""
    if mix is None:
        mix = [(TenantClass("premium", tier=0), 0.3),
               (TenantClass("economy", slo_multiplier=2.0, tier=1), 0.7)]
    return generate_tenant_traffic(
        mix, pattern="bursty", n_requests=n, rate_rps=rate, seed=seed,
        scenes=("lego", "room"), resolution=(64, 64), slo_s=slo)


def canon(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


def digest(report) -> str:
    return hashlib.sha256(canon(report).encode()).hexdigest()


def run(requests, chips=2, cluster=None, cache=None, **kwargs):
    return simulate_service(
        requests, cluster if cluster is not None else ServeCluster(chips),
        cache=cache if cache is not None else stub_cache(),
        batcher=PipelineBatcher(), **kwargs)


def three_tier_mix():
    return [(TenantClass("gold", tier=0), 0.2),
            (TenantClass("silver", slo_multiplier=1.5, tier=1), 0.3),
            (TenantClass("bronze", slo_multiplier=3.0, tier=2), 0.5)]


#: Scenario name -> a thunk that runs it and returns the report.
SCENARIOS = {
    "pattern-steady": lambda: run(trace("steady")),
    "pattern-bursty": lambda: run(trace("bursty")),
    "pattern-diurnal": lambda: run(trace("diurnal")),
    # A single chip against a tight 2 ms SLO: projections blow the
    # deadline, so the policy actually sheds.
    "slo-shed": lambda: run(trace(rate=4000.0, slo=0.002), chips=1,
                            admission=make_admission_policy("slo-shed")),
    "tail-drop": lambda: run(trace(rate=4000.0, slo=0.002), chips=1,
                             admission=TailDrop(max_queue=4)),
    # compile_workers=0 with a latency model stalls the chip on every
    # miss.
    "sync-visible-compile": lambda: run(trace(), compile_latency=MODEL),
    # A miss storm at high rate: wide arrival windows between chip
    # frees.
    "large-windows": lambda: run(trace(
        n=400, rate=8000.0, seed=7,
        scenes=tuple(f"s{i}" for i in range(10)))),
    "single-request": lambda: run(trace(n=1)),
    "two-tier": lambda: run(tenant_trace()),
    "three-tier": lambda: run(tenant_trace(mix=three_tier_mix(), n=240,
                                           rate=1500.0)),
    "tiered-slo-shed": lambda: run(
        tenant_trace(rate=6000.0, slo=0.002), chips=1,
        admission=make_admission_policy("slo-shed")),
    # A 3-entry cache against 8 scenes: evictions on nearly every
    # window.
    "eviction-storm": lambda: run(
        trace(n=300, rate=5000.0, seed=9,
              scenes=tuple(f"s{i}" for i in range(8))),
        cache=stub_cache(capacity=3, model=MODEL)),
}
# Runs the old loop gate sent to the general loop: chaos, hedging,
# weighted admission with preemption.
HEDGE = dict(quantile=0.5, multiplier=0.5, min_samples=4, window=32)
SCENARIOS["preempt"] = lambda: run(
    generate_tenant_traffic(
        [(TenantClass("premium", weight=4.0), 0.25),
         (TenantClass("economy", slo_multiplier=2.0, tier=1), 0.75)],
        pattern="bursty", n_requests=80, rate_rps=600.0, seed=3,
        scenes=("lego", "room"), resolution=(64, 64), slo_s=0.02),
    admission=make_admission_policy("weighted"), preempt=True)
SCENARIOS["chaos"] = lambda: run(
    trace(n=160, rate=2500.0), chips=3, faults=FaultPlan(
        crashes=[ChipCrash(0, 0.005, 0.02), ChipCrash(2, 0.012, None)],
        stragglers=[StragglerWindow(1, 0.0, 0.06, 3.0)]))
SCENARIOS["hedge"] = lambda: run(trace(n=160, rate=4000.0),
                                 hedge=HedgePolicy(**HEDGE))
SCENARIOS["chaos-hedge"] = lambda: run(
    trace(n=160, rate=4000.0), chips=3, hedge=HedgePolicy(**HEDGE),
    faults=FaultPlan(crashes=[ChipCrash(1, 0.008, 0.03)],
                     stragglers=[StragglerWindow(0, 0.01, 0.05, 2.5)]))
for _policy in ("round-robin", "least-loaded", "pipeline-affinity",
                "cost-aware"):
    # Three chips so the policies actually discriminate.
    SCENARIOS[f"policy-{_policy}"] = (
        lambda policy=_policy: run(trace(n=240, rate=2500.0),
                                   cluster=ServeCluster(3, policy=policy)))


def one_entry_cache_engine(observer=None):
    """A 1-entry cache alternating two traces: it evicts and recompiles
    on nearly every frame."""
    requests = generate_traffic("steady", n_requests=40, rate_rps=1500.0,
                                seed=3, scenes=("a", "b"),
                                pipelines=("hashgrid",),
                                resolution=(64, 64), slo_s=0.05)
    return EventEngine(requests, ServeCluster(1),
                       cache=stub_cache(capacity=1, model=MODEL),
                       batcher=PipelineBatcher(max_batch=1),
                       observer=observer)


SCENARIOS["one-entry-cache"] = lambda: one_entry_cache_engine().run()


def randomized_tenant_run(seed, admission):
    """Randomized tiered traffic x admission mode (preempt off)."""
    offset = {None: 0, "slo-shed": 1, "weighted": 2}[admission]
    rng = random.Random(101 * seed + offset)
    n_tiers = rng.randint(2, 3)
    share = 1.0 / n_tiers
    mix = [(TenantClass(f"t{tier}",
                        slo_multiplier=1.0 + tier * rng.uniform(0.5, 1.5),
                        weight=float(n_tiers - tier), tier=tier), share)
           for tier in range(n_tiers)]
    requests = generate_tenant_traffic(
        mix, pattern=rng.choice(["steady", "bursty"]),
        n_requests=rng.randint(80, 200),
        rate_rps=rng.uniform(500.0, 4000.0), seed=seed,
        scenes=("lego", "room"), resolution=(64, 64), slo_s=0.02)
    return run(requests, chips=rng.randint(1, 3),
               admission=(None if admission is None
                          else make_admission_policy(admission)))


#: SHA-256 of ``canon(report)`` per scenario, recorded before the
#: columnar loop was deleted: from that loop for every run it took, and
#: from the general loop (which gave the same bytes for all of them)
#: for the chaos, hedge and preempt runs it never took.
PINNED = {
    "pattern-steady":
        "cd2bec3c992994cae966a7ecf57824404bbf8f9589fde979b5bbdd7fe6608ba9",
    "pattern-bursty":
        "4798d6caefc1483b2c5b38be129290c335410ccec408f8568b0709c087406498",
    "pattern-diurnal":
        "c97cad8d7854c363ca59435328ebd7e3f865c366d34a90cf990650b5cc0cbc4f",
    "slo-shed":
        "95c2c0d4a7b41883fad3ab833874ed1e19644088a84097bf05219b8440f52aa3",
    "tail-drop":
        "0d816817b253b5e678717ffc7980fabb6232e94234b56b17851d88968a5e7ddd",
    "sync-visible-compile":
        "08328611c8c4a0a054c6f4eb08257eb6f1bbfe8854beb4060dbba2b4d5acd7de",
    "large-windows":
        "cb7a49a33e28358d1fd5dac8c4514d93ee1d5e92aa2e4633954dbd24f926a748",
    "single-request":
        "2dd958350e6674f7e1569d47ab1eb54341222067bd12e538c618da17936ef4c8",
    "two-tier":
        "02395bff7078b7dae6a7a24fe727a688416fbaa8d39f6d4f62ff71cabccad9d0",
    "three-tier":
        "3cc7745d7aafa0c433d7a7a5e092083fe1bf00a977c951515e47b1d4ee4c45a5",
    "tiered-slo-shed":
        "759f6001dfc03c25f2946a40d6a1ead7fe348c50e1f3c16d9bb59242daf44479",
    "eviction-storm":
        "0963b9d8d916cdea754122e3cb8974554f166abf08fc950f36049b68b995052e",
    "policy-round-robin":
        "a2b11c833196966013778188ef25b6ba0b0222a1bfd9b3eaa5b63a10be589560",
    "policy-least-loaded":
        "1570986f1d257b8c95105d528551712e5f0b00075e514cbcc1f8ae491c795138",
    "policy-pipeline-affinity":
        "c7f594fd3449e09ccb34edc5cb98804fa3bedb82760f227ea227cdc00dbbd8a8",
    "policy-cost-aware":
        "9669e527b89a2c0d62ec5ac58fb0c4eeb12bdfa2d406449fbe3bef82b70a99a1",
    "preempt":
        "86809600619e5bf3312c59761888a60beefd47a16e69275cbac8ca1c4902b6a7",
    "chaos":
        "9770f2ddc929509dde53dceed93b720c1d5a3063d7b3a8cf1750585e70190642",
    "hedge":
        "79aec5ec7fe6312a31db371e722fee2bc60f87e5c345bc47daff209701e07595",
    "chaos-hedge":
        "9bc4d31e8f7148f93b528ec273dfec41a1022b2832a77c911b55f4336e019d7a",
    "one-entry-cache":
        "e68b91d87296838ce20224fc27d24fd688f0ddf568486b75414977f9a78805f1",
}

#: The same for :func:`randomized_tenant_run`, keyed ``(seed,
#: admission)``.
PINNED_RANDOMIZED = {
    (5, None):
        "8cde6243e2df7245be193a4241ddd2f6558337ba620799de98bff8c9ab2d68c7",
    (5, 'slo-shed'):
        "bf11af25c2839cf7ab6c7df0ad67df480d48caa9dd5267a6f2ce5ccde4eafaff",
    (5, 'weighted'):
        "69232f41ba77099e03b24114c02ce90f23108c9b32e38ceee11cd295ab940fba",
    (11, None):
        "29f7b4f2c2e188811103feb1fbd0754b0598bf291f09385633ec67791ead1a5f",
    (11, 'slo-shed'):
        "38e517a9730d37c7f5765c169c03d78ba2640ebaba063ce1cd67112e15834134",
    (11, 'weighted'):
        "db0b2a47195294160bf2b273594799334dc86e95e39d34de054e5e899f68a83a",
    (23, None):
        "bacf12241f1492fd537dafcef86bc1a6247db41f292ed8508f931840c0b028be",
    (23, 'slo-shed'):
        "421e4d1dd14455ae9417c20100356ab0b20fc2276e2bfe5562d549a6e81de5aa",
    (23, 'weighted'):
        "633fe685f45fa687a78939f634e03badf3596d34323f8d3ad3fe5815ea2ba6fa",
}


def check(name):
    report = SCENARIOS[name]()
    assert digest(report) == PINNED[name], name
    return report


class TestByteIdentity:
    """Every scenario the columnar loop served: same bytes as it gave."""

    @pytest.mark.parametrize("pattern", ["steady", "bursty", "diurnal"])
    def test_bare_patterns(self, pattern):
        check(f"pattern-{pattern}")

    def test_slo_shed_admission(self):
        assert check("slo-shed").n_shed > 0

    def test_tail_drop_admission(self):
        assert check("tail-drop").n_shed > 0

    def test_sync_visible_compile(self):
        report = check("sync-visible-compile")
        assert any(r.compile_origin == "sync" for r in report.responses)

    def test_large_ingest_windows(self):
        check("large-windows")

    def test_single_request(self):
        check("single-request")

    def test_strict_tier_multi_tenant(self):
        check("two-tier")

    def test_three_tier_traffic(self):
        check("three-tier")

    def test_tiered_with_slo_shed(self):
        assert check("tiered-slo-shed").n_shed > 0

    @pytest.mark.parametrize("policy", ["round-robin", "least-loaded",
                                        "pipeline-affinity", "cost-aware"])
    def test_sharding_policies(self, policy):
        check(f"policy-{policy}")

    def test_eviction_storm(self):
        assert check("eviction-storm").cache_stats["evictions"] > 0


class TestChaosHedgePreemptDigests:
    """Weighted admission with preemption, crashes, hedging and both
    together: each report's pinned SHA-256."""

    def test_preempt_report_digest(self):
        assert check("preempt").preempt_enabled

    def test_chaos_report_digest(self):
        assert check("chaos").fault_stats["n_crashes"] > 0

    def test_hedge_report_digest(self):
        check("hedge")

    def test_chaos_plus_hedge_report_digest(self):
        check("chaos-hedge")


class TestRandomizedMultiTenantEquivalence:
    """Randomized tiered traffic x admission mode: the pinned bytes,
    whether the run used to take the columnar loop (bare, slo-shed) or
    not (weighted)."""

    @pytest.mark.parametrize("admission", [None, "slo-shed", "weighted"])
    @pytest.mark.parametrize("seed", [5, 11, 23])
    def test_reports_byte_identical(self, seed, admission):
        report = randomized_tenant_run(seed, admission)
        assert digest(report) == PINNED_RANDOMIZED[(seed, admission)]


class TestGetMany:
    """:meth:`TraceCache.get_many` vs a loop of :meth:`TraceCache.get`
    calls on a twin cache — randomized windows, every capacity."""

    UNIVERSE = [(f"scene{i}", pipe, 64, 64)
                for i in range(6)
                for pipe in ("hashgrid", "gaussian", "mesh")]

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_lru_equivalence(self, seed):
        rng = random.Random(seed)
        capacity = rng.randint(1, 6)
        batched = stub_cache(capacity=capacity, model=MODEL)
        looped = stub_cache(capacity=capacity, model=MODEL)
        for _ in range(15):
            window = [rng.choice(self.UNIVERSE)
                      for _ in range(rng.randint(1, 10))]
            got = batched.get_many(window)
            assert len(got) == len(window)
            for key, (_, hit, cost) in zip(window, got):
                _, ref_hit = looped.get(key)
                assert hit == ref_hit
                # Both a miss's charge and a hit's credit equal the
                # key's recorded simulated compile cost.
                assert cost == looped.compile_cost_s(key)
            # LRU order (and therefore every future eviction victim)
            # must agree after every window.
            assert batched.keys == looped.keys
        assert batched.stats.to_dict() == looped.stats.to_dict()
        assert batched.hits_by_key == looped.hits_by_key

    def test_repeated_hits_single_touch_order(self):
        # A key hit k times in one window lands exactly where k
        # sequential get() calls would have left it: most recent at the
        # tail, ordered by *last* occurrence.
        cache = stub_cache(capacity=4)
        a, b, c = [("s", p, 64, 64) for p in ("p0", "p1", "p2")]
        cache.get_many([a, b, c])
        cache.get_many([a, a, b, a])
        assert cache.keys == (c, b, a)

    def test_empty_window(self):
        cache = stub_cache()
        assert cache.get_many([]) == []
        assert cache.stats.lookups == 0


class TestPriceMemoEviction:
    """Eviction versus pricing: a 1-entry cache alternating two traces
    evicts and recompiles on nearly every frame. Frame prices live only
    in the cache's :class:`CostTable`, keyed by (trace, design point),
    so a recompile re-reads its trace's row instead of re-simulating."""

    @pytest.mark.parametrize("observed", [True, False])
    def test_one_entry_cache_alternating_traces(self, observed):
        # An attached observer must not change what gets priced.
        engine = one_entry_cache_engine(
            observer=full_observer() if observed else None)
        report = engine.run()
        assert report.cache_stats["evictions"] > 0
        assert len(engine.cache.keys) <= 1
        # Recompiles never re-price: one row per distinct trace, and
        # every frame carries its trace's row.
        keys = {r.request.trace_key for r in report.responses}
        assert len(engine._cost) == len(keys) == 2
        config = engine.cluster.chips[0].config
        for response in report.responses:
            key = response.request.trace_key
            assert engine._cost.has(key, config)
            assert response.cycles == engine._cost.result_for(
                key, config).cycles

    def test_reports_match_across_loops(self):
        check("one-entry-cache")
